"""The paper's definitions that tests compare the program against.

Nothing on the prove or check path uses them: `is_x_monic` is the
weighability condition on the legs of a pushout square, `factor_through`
lists the factorizations it excludes, `pullback` lets tests check that a
pushout along a monomorphism is also a pullback, `identity` is the
identity morphism, and `side_weight` is the weight of a rule side at an
interface assignment, which the prover and the checker only compare.
"""
from __future__ import annotations

from typing import Optional

from dpoterm import semiring as sr
from dpoterm.graph import CGraph
from dpoterm.morphism import Morphism, MorphismError, compose, enumerate_homs
from dpoterm.semiring import Weight
from dpoterm.wtg import WeightedTypeGraph, side_homs, weight_of_morphism


def identity(g: CGraph) -> Morphism:
    return Morphism(g, g, tuple(tuple(range(g.n(s))) for s in range(len(g.sig.objects))))


def side_weight(wtg: WeightedTypeGraph, side: Morphism, t_k: Morphism) -> Weight:
    """The semiring sum of w(t_Y) over every t_Y: Y -> T with
    t_Y ∘ side = t_K, for side: K -> Y."""
    return sr.s_sum(
        wtg.semiring, (weight_of_morphism(wtg, t_y) for t_y in side_homs(wtg, side, t_k))
    )


def is_x_monic(f: Morphism, X: CGraph, outside_of: Optional[Morphism] = None) -> bool:
    """f∘g = f∘h implies g = h for g, h: X -> dom(f); when outside_of=u
    is given, g and h range only over morphisms not factoring through u.
    """
    if outside_of is not None and outside_of.cod != f.dom:
        raise MorphismError("outside_of morphism must land in dom(f)")
    homs = enumerate_homs(X, f.dom)
    if outside_of is not None:
        homs = [g for g in homs if not factor_through(g, outside_of)]
    by_comp: dict[tuple, Morphism] = {}
    for g in homs:
        key = compose(f, g).maps
        if key in by_comp and by_comp[key] != g:
            return False
        by_comp[key] = g
    return True


def factor_through(x: Morphism, u: Morphism) -> list[Morphism]:
    """All z: dom(x) -> dom(u) with u∘z = x."""
    if x.cod != u.cod:
        raise MorphismError("factor_through: codomain mismatch")
    return [z for z in enumerate_homs(x.dom, u.dom) if compose(u, z).maps == x.maps]


def pullback(f: Morphism, g: Morphism) -> tuple[CGraph, Morphism, Morphism]:
    """Pullback of the cospan B -f-> D <-g- C, computed elementwise."""
    if f.cod != g.cod:
        raise MorphismError("pullback: cospan legs have different codomains")
    B, C = f.dom, g.dom
    sig = B.sig
    ns = len(sig.objects)
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(ns)]
    pair_id: list[dict[tuple[int, int], int]] = [{} for _ in range(ns)]
    for s in range(ns):
        for b in range(B.n(s)):
            for c in range(C.n(s)):
                if f.maps[s][b] == g.maps[s][c]:
                    pair_id[s][(b, c)] = len(pairs[s])
                    pairs[s].append((b, c))
    args = tuple(
        tuple(
            tuple(
                pair_id[t][(B.args[s][b][pos], C.args[s][c][pos])]
                for pos, t in enumerate(sig.arg_sorts(s))
            )
            for b, c in pairs[s]
        )
        for s in range(ns)
    )
    labels = tuple(tuple(B.labels[s][b] for b, _ in pairs[s]) for s in range(ns))
    P = CGraph(sig, args, labels)
    p_b = Morphism(P, B, tuple(tuple(b for b, _ in pairs[s]) for s in range(ns)))
    p_c = Morphism(P, C, tuple(tuple(c for _, c in pairs[s]) for s in range(ns)))
    return P, p_b, p_c
