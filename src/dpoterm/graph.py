"""Finite instances of a signature, and isomorphism by colour refinement.

Elements of every sort are stored densely (ids 0..n-1). Graphs are value
objects, valid by construction: equality and hashing ignore the optional
element names, which exist only for file round-trips and diagnostics.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .signature import IndexSignature


class GraphError(ValueError):
    """Invalid graph instance."""


@dataclass(frozen=True)
class CGraph:
    sig: IndexSignature
    args: tuple[tuple[tuple[int, ...], ...], ...]
    labels: tuple[tuple[Optional[str], ...], ...]
    names: Optional[tuple[tuple[str, ...], ...]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        validate_instance(self)

    def n(self, s: int) -> int:
        return len(self.args[s])

    @cached_property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.args)

    @cached_property
    def size(self) -> int:
        return sum(self.counts)

    @cached_property
    def tuple_index(self) -> dict[tuple[int, tuple[int, ...], Optional[str]], tuple[int, ...]]:
        """(sort, arg tuple, label) -> element ids, for hom extension."""
        idx: dict[tuple[int, tuple[int, ...], Optional[str]], list[int]] = {}
        for s in range(len(self.sig.objects)):
            for i in range(self.n(s)):
                idx.setdefault((s, self.args[s][i], self.labels[s][i]), []).append(i)
        return {k: tuple(v) for k, v in idx.items()}

    @cached_property
    def hom_plan(self) -> tuple[tuple[tuple, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """enumerate_homs' pin-free plan of homs from this graph: a slot
        (sort, argument slots, label, None) per element, sorts in
        topological order and ids ascending within a sort; each sort's
        first slot; and ready[k + 1], the slots whose last argument is
        slot k (ready[0] the base slots)."""
        plan: list[tuple] = []
        first = [0] * len(self.args)
        for s in self.sig.topo_order:
            first[s], targets = len(plan), self.sig.arg_sorts(s)
            plan += [(s, tuple(first[t] + a for t, a in zip(targets, tup)), lab, None)
                     for tup, lab in zip(self.args[s], self.labels[s])]
        ready: list[list[int]] = [[] for _ in range(len(plan) + 1)]
        for k, slot in enumerate(plan):
            ready[max(slot[1], default=-1) + 1].append(k)
        return tuple(plan), tuple(first), tuple(map(tuple, ready))

    @cached_property
    def element_ids(self) -> dict[str, tuple[int, int]]:
        """Element name -> (sort, id); names are unique across a graph."""
        names = self.names or self._generated_names
        return {name: (s, i) for s, row in enumerate(names) for i, name in enumerate(row)}

    def rows(self) -> list[list]:
        """The [sort, name, label, [arg names]] rows build reads, by sort and id."""
        names = self.names or self._generated_names
        out = []
        for s, decl in enumerate(self.sig.objects):
            targets = self.sig.arg_sorts(s)
            for name, label, tup in zip(names[s], self.labels[s], self.args[s]):
                out.append([decl.name, name, label, [names[t][a] for t, a in zip(targets, tup)]])
        return out

    def name_of(self, s: int, i: int) -> str:
        return (self.names or self._generated_names)[s][i]

    @cached_property
    def _generated_names(self) -> tuple[tuple[str, ...], ...]:
        """Sort name plus id, primed once per earlier element of that name:
        element 0 of edge1 is edge10' after element 10 of edge. Unprimed
        names end in a digit, so a primed name clashes with none."""
        seen: Counter[str] = Counter()
        rows = []
        for s, decl in enumerate(self.sig.objects):
            plain = [f"{decl.name}{i}" for i in range(self.n(s))]
            rows.append(tuple(name + "'" * seen[name] for name in plain))
            seen.update(plain)
        return tuple(rows)

    @staticmethod
    def build(sig: IndexSignature, elements: Iterable[tuple]) -> "CGraph":
        """Build from (sort, name, label, arg names) rows; names are
        unique across the whole graph so argument references are bare.
        """
        rows = list(elements)
        ids: dict[str, tuple[int, int]] = {}
        per_sort: list[list[tuple]] = [[] for _ in sig.objects]
        for sort_name, name, label, arg_names in rows:
            s = sig.sort(sort_name)
            if name in ids:
                raise GraphError(f"duplicate element name {name!r}")
            ids[name] = (s, len(per_sort[s]))
            per_sort[s].append((name, label, tuple(arg_names)))
        args: list[list[tuple[int, ...]]] = [[] for _ in sig.objects]
        labels: list[list[Optional[str]]] = [[] for _ in sig.objects]
        names: list[list[str]] = [[] for _ in sig.objects]
        for s, rows_s in enumerate(per_sort):
            want = sig.arg_sorts(s)
            for name, label, arg_names in rows_s:
                if len(arg_names) != len(want):
                    raise GraphError(
                        f"element {name!r} needs {len(want)} arguments, got {len(arg_names)}"
                    )
                arg_ids = []
                for pos, a in enumerate(arg_names):
                    if a not in ids:
                        raise GraphError(f"unknown argument {a!r} of {name!r}")
                    ts, ti = ids[a]
                    if ts != want[pos]:
                        raise GraphError(
                            f"argument {a!r} of {name!r} has sort "
                            f"{sig.objects[ts].name}, expected {sig.objects[want[pos]].name}"
                        )
                    arg_ids.append(ti)
                args[s].append(tuple(arg_ids))
                labels[s].append(label)
                names[s].append(name)
        return CGraph(
            sig,
            tuple(tuple(a) for a in args),
            tuple(tuple(l) for l in labels),
            tuple(tuple(n) for n in names),
        )


def validate_instance(g: CGraph) -> None:
    """Raise GraphError unless g is an instance of its signature; every
    CGraph runs this when it is built."""
    sig = g.sig
    problems: list[str] = []
    if len(g.args) != len(sig.objects) or len(g.labels) != len(sig.objects):
        raise GraphError("sort table length does not match the signature")
    for s, decl in enumerate(sig.objects):
        targets = sig.arg_sorts(s)
        for i in range(g.n(s)):
            tup = g.args[s][i]
            if len(tup) != len(targets):
                problems.append(f"{g.name_of(s, i)}: wrong argument count")
                continue
            for pos, t in enumerate(targets):
                if not 0 <= tup[pos] < g.n(t):
                    problems.append(f"{g.name_of(s, i)}: dangling argument {pos}")
            lab = g.labels[s][i]
            if decl.labels:
                if lab not in decl.labels:
                    problems.append(f"{g.name_of(s, i)}: missing or unknown label {lab!r}")
            elif lab is not None:
                problems.append(f"{g.name_of(s, i)}: label on unlabelled sort")
        if decl.simple:
            seen: dict[tuple, int] = {}
            for i in range(g.n(s)):
                key = (g.args[s][i], g.labels[s][i])
                if key in seen:
                    problems.append(
                        f"simplicity violation on {decl.name}: "
                        f"{g.name_of(s, seen[key])} and {g.name_of(s, i)} share "
                        f"arguments and label"
                    )
                else:
                    seen[key] = i
    if problems:
        raise GraphError("; ".join(problems))


def _refine(graphs: tuple[CGraph, ...], pins: tuple = ()) -> tuple[list, list[int], list]:
    """Colour refinement (1-WL; Shervashidze et al., JMLR 12, 2011), joint
    over graphs so that colours compare across them. An element starts
    with its sort, its label and the index of the pin naming it, if any
    (a pin holds one (sort, id) per graph). Each round adds its
    arguments' colours and the sorted (sort, position, colour) of the
    elements naming it, until no class splits. Returns the (graph, sort,
    id) elements, their colours and each round's sorted signatures."""
    elems = [(k, s, i) for k, g in enumerate(graphs)
             for s, count in enumerate(g.counts) for i in range(count)]
    index = {e: n for n, e in enumerate(elems)}
    pinned = {(k, *pin[k]): p for p, pin in enumerate(pins) for k in range(len(graphs))}
    args: list[tuple[int, ...]] = []
    refs: list[list[tuple[int, int, int]]] = [[] for _ in elems]
    for n, (k, s, i) in enumerate(elems):
        g = graphs[k]
        args.append(tuple(index[k, t, a] for t, a in zip(g.sig.arg_sorts(s), g.args[s][i])))
        for pos, a in enumerate(args[n]):
            refs[a].append((s, pos, n))
    sigs: list = [(s, graphs[k].labels[s][i], pinned.get((k, s, i), -1)) for k, s, i in elems]
    colours, classes, rounds = [], -1, []
    while True:
        rounds.append(sorted(sigs))
        rank = {sig: c for c, sig in enumerate(dict.fromkeys(rounds[-1]))}
        if len(rank) == classes:
            return elems, colours, rounds
        colours, classes = [rank[sig] for sig in sigs], len(rank)
        sigs = [(colours[n], tuple(colours[a] for a in args[n]),
                 tuple(sorted((s, pos, colours[r]) for s, pos, r in refs[n])))
                for n in range(len(elems))]


def canonical_key(g: CGraph) -> bytes:
    """An isomorphism invariant: isomorphic graphs get equal keys, but
    equal keys need not mean isomorphic graphs. It digests every round's
    signatures, since the final colour ranks alone give a loop plus an
    isolated node the key of a single edge."""
    return hashlib.sha256(repr(_refine((g,))[2]).encode()).digest()


def isomorphic(g: CGraph, h: CGraph) -> bool:
    """Whether g and h are isomorphic, by individualization-refinement
    (McKay and Piperno, J. Symb. Comput. 60, 2014). A branch refines g
    and h jointly under its pins and is dropped when their colour
    histograms differ. A discrete colouring with equal histograms pairs
    each element with the same-coloured one, and stable colours carry
    arguments along: an isomorphism. Otherwise the first element of g in
    the first class of several is pinned to each same-coloured element
    of h, one branch each, on an explicit stack."""
    if g.counts != h.counts:
        return False
    stack: list[tuple] = [()]
    while stack:
        pins = stack.pop()
        elems, colours, _ = _refine((g, h), pins)
        mine = Counter(colours[: g.size])
        if mine != Counter(colours[g.size :]):
            continue
        c = min((c for c, k in mine.items() if k > 1), default=None)
        if c is None:
            return True
        x = elems[colours.index(c)][1:]
        stack += [pins + ((x, e[1:]),) for e, d in zip(elems, colours) if e[0] and d == c]
    return False
