"""Homomorphism enumeration, composition, extension and monicity.

A morphism is a sort-indexed total map commuting with every argument
arrow and preserving labels. Enumeration backtracks over sorts in
topological order (argument targets first), so non-base elements have
their candidate images fully determined by an index lookup, made as
soon as their last argument is placed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import CGraph


class MorphismError(ValueError):
    """Ill-formed morphism or domain mismatch."""


@dataclass(frozen=True)
class Morphism:
    dom: CGraph
    cod: CGraph
    maps: tuple[tuple[int, ...], ...]

    def validate(self) -> None:
        dom, cod = self.dom, self.cod
        if dom.sig is not cod.sig and dom.sig != cod.sig:
            raise MorphismError("domain and codomain signatures differ")
        sig = dom.sig
        for s in range(len(sig.objects)):
            if len(self.maps[s]) != dom.n(s):
                raise MorphismError(f"map on sort {sig.objects[s].name} is not total")
            targets = sig.arg_sorts(s)
            for i, j in enumerate(self.maps[s]):
                if not 0 <= j < cod.n(s):
                    raise MorphismError(
                        f"{dom.name_of(s, i)} maps outside the codomain"
                    )
                if dom.labels[s][i] != cod.labels[s][j]:
                    raise MorphismError(
                        f"{dom.name_of(s, i)} -> {cod.name_of(s, j)} breaks the label"
                    )
                for pos, t in enumerate(targets):
                    if self.maps[t][dom.args[s][i][pos]] != cod.args[s][j][pos]:
                        raise MorphismError(
                            f"{dom.name_of(s, i)} -> {cod.name_of(s, j)} does not "
                            f"commute with argument {pos}"
                        )


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f after g."""
    if g.cod != f.dom:
        raise MorphismError("compose: cod(g) != dom(f)")
    return Morphism(
        g.dom,
        f.cod,
        tuple(tuple(f.maps[s][j] for j in g.maps[s]) for s in range(len(g.maps))),
    )


def image_elements(f: Morphism) -> set[tuple[int, int]]:
    return {(s, j) for s in range(len(f.maps)) for j in f.maps[s]}


def extensions(side: Morphism, t: Morphism) -> list[Morphism]:
    """All h: cod(side) -> cod(t) with h∘side = t, for side, t sharing
    their domain."""
    if t.dom != side.dom:
        raise MorphismError("extensions: the morphisms share no domain")
    constraint: dict[tuple[int, int], int] = {}
    for s, row in enumerate(side.maps):
        for kk, y in enumerate(row):
            x = t.maps[s][kk]
            if constraint.setdefault((s, y), x) != x:
                return []
    return enumerate_homs(side.cod, t.cod, constraint=constraint)


def extensions_by_restriction(side: Morphism, H: CGraph) -> dict[tuple, list[Morphism]]:
    """Every h: cod(side) -> H, grouped by (h∘side).maps. Each group is
    extensions(side, t) for the t with those maps, in the same order:
    both are the homs of one DFS that pass a filter."""
    groups: dict[tuple, list[Morphism]] = {}
    for h in enumerate_homs(side.cod, H):
        key = tuple(
            tuple(h.maps[s][y] for y in row) for s, row in enumerate(side.maps)
        )
        groups.setdefault(key, []).append(h)
    return groups


def enumerate_homs(
    G: CGraph,
    H: CGraph,
    constraint: Optional[dict[tuple[int, int], int]] = None,
    mono_only: bool = False,
) -> list[Morphism]:
    """All homomorphisms G -> H in a deterministic order.

    constraint pins chosen elements: (sort, dom id) -> cod id.
    mono_only keeps only the per-sort injective ones.

    The DFS places G's elements in topological sort order, each over its
    candidates in H's id order. A non-base element is looked up as soon
    as its last argument is placed, and the branch is dropped when the
    element has no image there (or not its pinned one).
    """
    sig = G.sig
    if H.sig != sig:
        raise MorphismError("graphs share no signature")
    if constraint:
        for (s, i), j in constraint.items():
            if not (0 <= i < G.n(s) and 0 <= j < H.n(s)):
                raise MorphismError("constraint out of range")
            if G.labels[s][i] != H.labels[s][j]:
                return []

    index = H.tuple_index
    # the slot plan: (sort, argument slots, label, pin) per element of
    # G, sorts in topological order, ids ascending within a sort
    plan: list[tuple[int, tuple[int, ...], Optional[str], Optional[int]]] = []
    first = [0] * len(sig.objects)
    for s in sig.topo_order:
        first[s] = len(plan)
        targets = sig.arg_sorts(s)
        for i in range(G.n(s)):
            pin = constraint.get((s, i)) if constraint else None
            arg_slots = tuple(first[t] + a for t, a in zip(targets, G.args[s][i]))
            plan.append((s, arg_slots, G.labels[s][i], pin))
    n = len(plan)
    img = [-1] * n

    def lookup(k: int) -> tuple[int, ...]:
        """Slot k's candidates, once its arguments are placed."""
        s, arg_slots, lab, pin = plan[k]
        tup = tuple(img[a] for a in arg_slots)
        if pin is not None:
            return (pin,) if H.args[s][pin] == tup else ()
        return index.get((s, tup, lab), ())

    # cands[k] is fixed up front for a base slot, and for a non-base
    # slot whenever its last argument slot is placed (ready)
    cands: list[tuple[int, ...]] = [()] * n
    ready: list[list[int]] = [[] for _ in range(n)]
    for k, (_, arg_slots, _, _) in enumerate(plan):
        if arg_slots:
            ready[max(arg_slots)].append(k)
        else:
            cands[k] = lookup(k)
            if not cands[k]:
                return []

    used: list[set[int]] = [set() for _ in sig.objects]
    out: list[Morphism] = []

    def look_ahead(k: int) -> bool:
        """Fix the candidates of the slots that are ready once slot k is
        placed; False when one of them has none."""
        for m in ready[k]:
            cands[m] = lookup(m)
            if not cands[m]:
                return False
        return True

    def extend(k: int) -> None:
        if k == n:
            maps = tuple(
                tuple(img[first[s] : first[s] + G.n(s)]) for s in range(len(sig.objects))
            )
            out.append(Morphism(G, H, maps))
            return
        s = plan[k][0]
        for j in cands[k]:
            if mono_only and j in used[s]:
                continue
            img[k] = j
            if look_ahead(k):
                if mono_only:
                    used[s].add(j)
                extend(k + 1)
                if mono_only:
                    used[s].discard(j)

    extend(0)
    # extend refers to itself through its closure; without this the
    # cycle keeps the search state and every Morphism alive until the
    # cyclic collector runs
    del extend
    return out


def classify_monicity(f: Morphism) -> dict[str, bool]:
    """monic: injective on every sort; regularMonic: additionally full
    on simple sorts (an element of a simple sort in the codomain whose
    arguments and label are realized inside the image has a preimage).
    """
    sig = f.dom.sig
    monic = all(len(set(f.maps[s])) == f.dom.n(s) for s in range(len(sig.objects)))
    regular = monic
    if monic and sig.has_simple:
        img = [set(f.maps[s]) for s in range(len(sig.objects))]
        for s, decl in enumerate(sig.objects):
            if not decl.simple or not regular:
                continue
            targets = sig.arg_sorts(s)
            for j in range(f.cod.n(s)):
                if j in img[s]:
                    continue
                if all(
                    f.cod.args[s][j][pos] in img[t] for pos, t in enumerate(targets)
                ):
                    regular = False
                    break
    return {"monic": monic, "regularMonic": regular and monic}
