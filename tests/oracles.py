"""The paper's definitions that tests compare the program against.

Nothing on the prove or check path uses them: `is_x_monic` is the
weighability condition on the legs of a pushout square, `factor_through`
lists the factorizations it excludes, `pullback` lets tests check that a
pushout along a monomorphism is also a pullback, `identity` is the
identity morphism, and `side_weight` is the weight of a rule side at an
interface assignment, which the prover and the checker only compare.

The semiring's addition `s_add`, its sums `s_sum` and its powers
`s_pow` check that every operand is a value of the semiring; the
program weighs with the semiring descriptor's unchecked `mul`, `add`,
`zero` and `one` once the weights are validated.

The paper's weighted element is a morphism e: X -> T from a domain X.
`representable_shapes` gives the domains the program admits, and
`element_hom` the unique e from its shape that sends the generator to
an element of T, which the program records as that element alone.

`JSON_SHAPE` and `fits` are the JSON reader's field check as an
interpreter of a declared shape; `json_shaped` adds the check that every
closure maps names to names, and is the reference for the reader's
direct check.

The rest are slower references for what the program computes faster:
`brute_force_homs` for `enumerate_homs`, `brute_weight` (by definition,
for any element morphisms) with `brute_weight_of_morphism` and
`checked_weight_of_morphism` (per type-graph element, with the checked
semiring operations) for `weight_of_morphism`, and `side_homs` (one
constrained enumeration per t_K) with `reference_side_comparisons` for
the checker's replay. The reference visits every t_K: K -> T and flags
those with no extension on either side; the replay reads its t_Ks off
the two side enumerations and so never meets them.
"""
from __future__ import annotations

import itertools
from typing import Optional

from dpoterm import semiring as sr
from dpoterm.graph import CGraph
from dpoterm.morphism import Morphism, MorphismError, compose, enumerate_homs, extensions
from dpoterm.semiring import SemiringDescriptor, SemiringError, Weight
from dpoterm.signature import IndexSignature
from dpoterm.sysfile import Rule
from dpoterm.wtg import WeightedTypeGraph, WtgError, weight_of_morphism


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
    acc = k.zero
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
        return k.one
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


def representable_shapes(sig: IndexSignature) -> list[tuple[CGraph, tuple[int, int]]]:
    """One free shape per (sort, label): the graph generated by a single
    element, closed under argument arrows with fresh elements, with that
    generator as (sort, id); in declaration and label order."""
    shapes = []
    for s in range(len(sig.objects)):
        for label in sig.element_labels(s):
            args: list[list[tuple[int, ...]]] = [[] for _ in sig.objects]
            labels: list[list[Optional[str]]] = [[] for _ in sig.objects]

            def fresh(t: int, lab: Optional[str]) -> int:
                arg_ids = tuple(fresh(u, None) for u in sig.arg_sorts(t))
                args[t].append(arg_ids)
                labels[t].append(lab)
                return len(args[t]) - 1

            gen = fresh(s, label)
            g = CGraph(sig, tuple(tuple(a) for a in args), tuple(tuple(l) for l in labels))
            shapes.append((g, (s, gen)))
    return shapes


def element_hom(T: CGraph, s: int, label: Optional[str], target: int) -> Morphism:
    """The unique hom from the representable shape for (s, label) into T
    that sends the generator to element target of sort s."""
    for shape, (t, gen) in representable_shapes(T.sig):
        if t == s and shape.labels[s][gen] == label:
            homs = enumerate_homs(shape, T, constraint={(s, gen): target})
            if len(homs) != 1:
                raise WtgError(
                    f"no unique embedding of the {T.sig.objects[s].name} shape "
                    f"at element {target}"
                )
            return homs[0]
    raise WtgError(f"no representable shape for sort {s} with label {label!r}")


def brute_weight(
    k: SemiringDescriptor,
    elements: list[tuple[Morphism, Weight]],
    phi: Morphism,
    exclude: Optional[Morphism] = None,
) -> Weight:
    """w(phi) by definition, for weighted elements given as (e: X -> T,
    weight): each weighs in once per a: X -> dom(phi) with phi∘a = e,
    and with exclude = alpha only when a does not factor through alpha."""
    acc = k.one
    for e, weight in elements:
        n = sum(
            1
            for a in enumerate_homs(e.dom, phi.dom)
            if compose(phi, a) == e
            and not (exclude is not None and factor_through(a, exclude))
        )
        acc = sr.s_mul(k, acc, s_pow(k, weight, n))
    return acc


def brute_weight_of_morphism(
    wtg: WeightedTypeGraph, phi: Morphism, exclude: Optional[Morphism] = None
) -> Weight:
    """brute_weight with each element as its hom from its shape."""
    T = wtg.T
    elements = [
        (element_hom(T, we.sort, T.labels[we.sort][we.target], we.target), we.weight)
        for we in wtg.elements
    ]
    return brute_weight(wtg.semiring, elements, phi, exclude)


def checked_weight_of_morphism(wtg: WeightedTypeGraph, phi: Morphism) -> Weight:
    """w(phi) as one checked semiring product per element of dom(phi)
    and weighted element on its image."""
    k = wtg.semiring
    acc = k.one
    G = phi.dom
    for s in range(len(G.sig.objects)):
        for y in range(G.n(s)):
            for we in wtg.elements:
                if (we.sort, we.target) == (s, phi.maps[s][y]):
                    acc = sr.s_mul(k, acc, we.weight)
    return acc


def reference_side_comparisons(wtg: WeightedTypeGraph, rule: Rule):
    """(t_K, w_L, w_R, both sides empty) for every t_K: K -> T, by one
    constrained enumeration per t_K, weighed by definition."""
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


# what certificate_to_json writes: a type, [shape] for a list, a tuple
# for a row with one shape per column, a dict for an object's fields
JSON_STEP = {
    "semiring": str,
    "typeGraph": [(str, str, str | None, [str])],
    "elements": [(str, str, str | None, int)],
    "rules": [{"rule": str, "class": str, "closure": dict | None}],
    "removed": [str],
}
JSON_SHAPE = {"systemHash": str, "steps": [JSON_STEP], "verdict": str, "remaining": [str]}


def fits(value, shape) -> bool:
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(fits(value.get(k), s) for k, s in shape.items())
    if isinstance(shape, (list, tuple)):
        if not isinstance(value, list):
            return False
        columns = shape * len(value) if isinstance(shape, list) else shape
        return len(columns) == len(value) and all(map(fits, value, columns))
    return isinstance(value, shape)


def json_shaped(data) -> bool:
    """Whether decoded JSON has the fields and types the reader accepts."""
    return fits(data, JSON_SHAPE) and all(
        fits(list(e["closure"].values()), [str])
        for st in data["steps"]
        for e in st["rules"]
        if e.get("closure") is not None
    )
