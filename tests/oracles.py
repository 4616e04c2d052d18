"""The paper's definitions that tests compare the program against.

Nothing on the prove or check path uses them: `is_x_monic` is the
weighability condition on the legs of a pushout square, `factor_through`
lists the factorizations it excludes, `pullback` lets tests check that a
pushout along a monomorphism is also a pullback, `identity` is the
identity morphism, and `side_weight` is the weight of a rule side at an
interface assignment, which the prover and the checker only compare.

The semiring's addition `s_add`, its sums `s_sum` and its powers
`s_pow` check that every operand is a value of the semiring; the
program weighs with `semiring.plain_ops` once the weights are
validated.

The rest are slower references for what the program computes faster:
`brute_force_homs` for `enumerate_homs`, `brute_weight_of_morphism`
(by definition) and `checked_weight_of_morphism` (per type-graph
element, with the checked semiring operations) for
`weight_of_morphism`, `reference_element_at` (the unique constrained
hom) for `element_at`, and `side_homs` (one constrained enumeration per
t_K) with `reference_side_comparisons` for the checker's replay.
"""
from __future__ import annotations

import itertools
from typing import Optional

from dpoterm import semiring as sr
from dpoterm.graph import CGraph
from dpoterm.morphism import Morphism, MorphismError, compose, enumerate_homs, extensions
from dpoterm.semiring import SemiringDescriptor, SemiringError, Weight
from dpoterm.signature import representable_shapes
from dpoterm.sysfile import Rule
from dpoterm.wtg import WeightedElement, WeightedTypeGraph, WtgError, weight_of_morphism


def identity(g: CGraph) -> Morphism:
    return Morphism(g, g, tuple(tuple(range(g.n(s))) for s in range(len(g.sig.objects))))


def s_add(k: SemiringDescriptor, a: Weight, b: Weight) -> Weight:
    for v in (a, b):
        if not sr.is_value(k, v):
            raise SemiringError(f"{v!r} is not a value of the {k.kind} semiring")
    if k.kind == "arithmetic":
        return a + b
    return min(a, b) if k.kind == "tropical" else max(a, b)


def s_sum(k: SemiringDescriptor, vals) -> Weight:
    acc = sr.zero(k)
    for v in vals:
        acc = s_add(k, acc, v)
    return acc


def s_pow(k: SemiringDescriptor, a: Weight, n: int) -> Weight:
    """a multiplied by itself n times in the semiring."""
    if not sr.is_value(k, a):
        raise SemiringError(f"{a!r} is not a value of the {k.kind} semiring")
    if n < 0:
        raise SemiringError("negative exponent")
    if n == 0:
        return sr.one(k)
    if k.kind == "arithmetic":
        return a**n
    return a * n


def brute_force_homs(
    G: CGraph,
    H: CGraph,
    constraint: Optional[dict[tuple[int, int], int]] = None,
    mono_only: bool = False,
) -> list[Morphism]:
    """Every assignment of images, one slot per element of G in
    topological sort order, ids ascending, that Morphism.validate
    accepts and that keeps the pins (and injectivity, with mono_only)."""
    sig = G.sig
    slots = [(s, i) for s in sig.topo_order for i in range(G.n(s))]
    out = []
    for choice in itertools.product(*(range(H.n(s)) for s, _ in slots)):
        image = dict(zip(slots, choice))
        if constraint and any(image[key] != j for key, j in constraint.items()):
            continue
        maps = tuple(
            tuple(image[(s, i)] for i in range(G.n(s))) for s in range(len(sig.objects))
        )
        if mono_only and any(len(set(row)) < len(row) for row in maps):
            continue
        f = Morphism(G, H, maps)
        try:
            f.validate()
        except MorphismError:
            continue
        out.append(f)
    return out


def side_homs(
    wtg: WeightedTypeGraph, side: Morphism, t_k: Morphism
) -> list[Morphism]:
    """All t_Y: Y -> T with t_Y ∘ side = t_K, for side: K -> Y."""
    if t_k.cod != wtg.T:
        raise MorphismError("side_homs: t_K does not end in T")
    return extensions(side, t_k)


def brute_weight_of_morphism(wtg: WeightedTypeGraph, phi: Morphism) -> Weight:
    """w(phi) by definition: each weighted element e: X -> T weighs in
    once per a: X -> dom(phi) with phi∘a = e."""
    k = wtg.semiring
    acc = sr.one(k)
    for we in wtg.elements:
        n = sum(1 for a in enumerate_homs(we.shape, phi.dom) if compose(phi, a) == we.e)
        acc = sr.s_mul(k, acc, s_pow(k, we.weight, n))
    return acc


def checked_weight_of_morphism(wtg: WeightedTypeGraph, phi: Morphism) -> Weight:
    """w(phi) as one checked semiring product per element of dom(phi)
    and weighted element on its image with its label."""
    k = wtg.semiring
    acc = sr.one(k)
    G = phi.dom
    for s in range(len(G.sig.objects)):
        for y, lab in enumerate(G.labels[s]):
            for we in wtg.elements:
                if (we.gen.sort, we.target, we.gen_label) == (s, phi.maps[s][y], lab):
                    acc = sr.s_mul(k, acc, we.weight)
    return acc


def reference_element_at(
    T: CGraph, sort_name: str, label: Optional[str], target: int, weight: Weight
) -> WeightedElement:
    """element_at as the unique hom from the representable shape into T
    that sends its generator to target."""
    sig = T.sig
    s = sig.sort(sort_name)
    for shape, gen in representable_shapes(sig):
        if gen.sort == s and shape.labels[s][gen.id] == label:
            homs = enumerate_homs(shape, T, constraint={(s, gen.id): target})
            if len(homs) != 1:
                raise WtgError(
                    f"no unique embedding of the {sort_name} shape at element {target}"
                )
            return WeightedElement(shape, gen, homs[0], weight)
    raise WtgError(f"no representable shape for {sort_name} with label {label!r}")


def reference_side_comparisons(wtg: WeightedTypeGraph, rule: Rule):
    """wtg.side_comparisons as one constrained enumeration per t_K,
    weighed by definition."""
    k = wtg.semiring
    for t_k in enumerate_homs(rule.interface, wtg.T):
        ls = side_homs(wtg, rule.l, t_k)
        rs = side_homs(wtg, rule.r, t_k)
        wl = s_sum(k, (brute_weight_of_morphism(wtg, phi) for phi in ls))
        wr = s_sum(k, (brute_weight_of_morphism(wtg, phi) for phi in rs))
        yield t_k, wl, wr, not ls and not rs


def side_weight(wtg: WeightedTypeGraph, side: Morphism, t_k: Morphism) -> Weight:
    """The semiring sum of w(t_Y) over every t_Y: Y -> T with
    t_Y ∘ side = t_K, for side: K -> Y."""
    return s_sum(
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
