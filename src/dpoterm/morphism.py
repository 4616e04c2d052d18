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
    # ready[k + 1] lists the slots whose last argument is slot k, so
    # ready[0] the base slots; their candidates are fixed once k is placed
    ready: list[list[int]] = [[] for _ in range(n + 1)]
    for k, (_, arg_slots, _, _) in enumerate(plan):
        ready[max(arg_slots, default=-1) + 1].append(k)
    img = [-1] * n
    cands: list[tuple[int, ...]] = [()] * n
    if not _fix_candidates(H, plan, img, cands, ready[0]):
        return []

    # cursor[k] indexes slot k's next candidate, 0 when k is entered anew
    cursor = [0] * n
    out: list[Morphism] = []
    k = 0
    while k >= 0:
        if k == n:
            maps = tuple(
                tuple(img[first[s] : first[s] + G.n(s)]) for s in range(len(sig.objects))
            )
            out.append(Morphism(G, H, maps))
            k -= 1
            continue
        s, c, i = plan[k][0], cands[k], cursor[k]
        while i < len(c):
            img[k] = c[i]
            i += 1
            # the slots of sort s placed so far are first[s] .. k - 1
            if mono_only and img[k] in img[first[s] : k]:
                continue
            if _fix_candidates(H, plan, img, cands, ready[k + 1]):
                break
        else:
            cursor[k] = 0
            k -= 1
            continue
        cursor[k] = i
        k += 1
    return out


def _fix_candidates(H: CGraph, plan, img, cands, slots) -> bool:
    """Fix the candidates of slots whose arguments are placed in img;
    False when one of them has none."""
    for k in slots:
        s, arg_slots, lab, pin = plan[k]
        tup = tuple(img[a] for a in arg_slots)
        if pin is None:
            cands[k] = H.tuple_index.get((s, tup, lab), ())
        else:
            cands[k] = (pin,) if H.args[s][pin] == tup else ()
        if not cands[k]:
            return False
    return True


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
