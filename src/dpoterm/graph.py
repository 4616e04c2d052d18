"""Finite instances of a signature and isomorphism-aware canonical forms.

Elements of every sort are stored densely (ids 0..n-1). Graphs are value
objects, valid by construction: equality and hashing ignore the optional
element names, which exist only for file round-trips and diagnostics.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

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
    def element_ids(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(sort name, element name) -> (sort, id)."""
        out = {}
        for s in range(len(self.sig.objects)):
            for i in range(self.n(s)):
                out[(self.sig.objects[s].name, self.name_of(s, i))] = (s, i)
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


def canonical_key(g: CGraph) -> bytes:
    """Exact canonical form: equal keys iff isomorphic.

    Minimizes a full serialization over all base-sort permutations, and
    over permutations within groups of indistinguishable parallel
    elements whenever a later sort can reference them. Factorial in the
    base sizes, which is acceptable at desk scale.
    """
    sig = g.sig
    order = sig.topo_order
    referenced = {t for s in range(len(sig.objects)) for t in sig.arg_sorts(s)}
    best: list[Optional[tuple]] = [None]

    def rec(k: int, relabel: dict[int, Sequence[int]], serial: list) -> None:
        if k == len(order):
            key = tuple(serial)
            if best[0] is None or key < best[0]:
                best[0] = key
            return
        s = order[k]
        if sig.is_base(s):
            for perm in itertools.permutations(range(g.n(s))):
                inv = [0] * len(perm)
                for new, old in enumerate(perm):
                    inv[old] = new
                rec(
                    k + 1,
                    {**relabel, s: inv},
                    serial + [(s, tuple(g.labels[s][old] for old in perm))],
                )
            return
        targets = sig.arg_sorts(s)
        descs = sorted(
            (
                (
                    tuple(relabel[t][a] for t, a in zip(targets, g.args[s][i])),
                    g.labels[s][i],
                ),
                i,
            )
            for i in range(g.n(s))
        )
        serial = serial + [(s, tuple(d for d, _ in descs))]
        groups: list[list[int]] = []
        for pos, (d, i) in enumerate(descs):
            if pos and descs[pos - 1][0] == d:
                groups[-1].append(i)
            else:
                groups.append([i])
        if s not in referenced or all(len(gr) == 1 for gr in groups):
            inv = [0] * g.n(s)
            for pos, (_, i) in enumerate(descs):
                inv[i] = pos
            rec(k + 1, {**relabel, s: inv}, serial)
            return
        # parallel duplicates referenced from above: ids within a group
        # are interchangeable only up to such references, so try them all
        base_pos = 0
        starts = []
        for gr in groups:
            starts.append(base_pos)
            base_pos += len(gr)
        for combo in itertools.product(
            *(itertools.permutations(gr) for gr in groups)
        ):
            inv = [0] * g.n(s)
            for start, perm in zip(starts, combo):
                for off, old in enumerate(perm):
                    inv[old] = start + off
            rec(k + 1, {**relabel, s: inv}, serial)

    rec(0, {}, [g.counts])
    return repr(best[0]).encode()

