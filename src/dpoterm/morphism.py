"""Homomorphism enumeration, composition, extension and monicity.

A morphism is a sort-indexed total map commuting with every argument
arrow and preserving labels. Enumeration backtracks over sorts in
topological order (argument targets first), so non-base elements have
their candidate images fully determined by an index lookup.
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


def enumerate_homs(
    G: CGraph,
    H: CGraph,
    constraint: Optional[dict[tuple[int, int], int]] = None,
    mono_only: bool = False,
) -> list[Morphism]:
    """All homomorphisms G -> H in a deterministic order.

    constraint pins chosen elements: (sort, dom id) -> cod id.
    mono_only keeps only the per-sort injective ones.
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

    order = [s for s in sig.topo_order]
    maps: list[list[int]] = [[-1] * G.n(s) for s in range(len(sig.objects))]
    used: list[set[int]] = [set() for _ in sig.objects]
    out: list[Morphism] = []

    slots = [(s, i) for s in order for i in range(G.n(s))]

    def candidates(s: int, i: int) -> tuple[int, ...]:
        if sig.is_base(s):
            lab = G.labels[s][i]
            return H.tuple_index.get((s, (), lab), ())
        targets = sig.arg_sorts(s)
        tup = tuple(maps[t][a] for t, a in zip(targets, G.args[s][i]))
        return H.tuple_index.get((s, tup, G.labels[s][i]), ())

    def extend(k: int) -> None:
        if k == len(slots):
            out.append(
                Morphism(G, H, tuple(tuple(m) for m in maps))
            )
            return
        s, i = slots[k]
        pinned = constraint.get((s, i)) if constraint else None
        for j in candidates(s, i):
            if pinned is not None and j != pinned:
                continue
            if mono_only and j in used[s]:
                continue
            maps[s][i] = j
            if mono_only:
                used[s].add(j)
            extend(k + 1)
            if mono_only:
                used[s].discard(j)
            maps[s][i] = -1

    extend(0)
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
