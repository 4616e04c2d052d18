"""Weighted type graphs: weighing morphisms and objects, side-weight
comparisons, context closures and the admissibility of weighted-element
domains.

The paper's weighted element is a morphism e: X -> T from a domain X.
Every domain here is a representable shape, free on one generator, so e
is fixed by where its generator lands: a weighted element is a weight on
one type-graph element, and its occurrences in phi: G -> T are the
elements of G that phi sends onto that element.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Optional

import itertools

from . import semiring as sr
from .graph import CGraph
from .morphism import (
    Morphism,
    MorphismError,
    enumerate_homs,
    extensions,
    extensions_by_restriction,
    image_elements,
)
from .semiring import SemiringDescriptor, Weight
from .sysfile import Framework, Rule


class WtgError(ValueError):
    pass


@dataclass(frozen=True)
class WeightedElement:
    """The weight on element target of the given sort: the morphism from
    the representable shape of that element's sort and label that sends
    the generator to target."""

    sort: int
    target: int
    weight: Weight


@dataclass(frozen=True)
class WeightedTypeGraph:
    T: CGraph
    elements: tuple[WeightedElement, ...]
    semiring: SemiringDescriptor

    def __post_init__(self):
        T = self.T
        for we in self.elements:
            if not (0 <= we.sort < len(T.sig.objects) and 0 <= we.target < T.n(we.sort)):
                raise WtgError("weighted element does not land in the type graph")
            if not sr.is_legal_element_weight(self.semiring, we.weight):
                raise WtgError(
                    f"illegal weight {we.weight!r} for the {self.semiring.kind} semiring"
                )

    @cached_property
    def weight_table(self) -> dict[tuple[int, int], Weight]:
        """(sort, type-graph id) -> the semiring product of the weights
        of the elements on that element. A homomorphism preserves
        labels, so the label of what lands there is the element's own."""
        mul, _ = sr.plain_ops(self.semiring)
        table: dict[tuple[int, int], Weight] = {}
        for we in self.elements:
            key = (we.sort, we.target)
            table[key] = mul(table[key], we.weight) if key in table else we.weight
        return table


def element_at(
    T: CGraph, sort_name: str, label: Optional[str], target: int, weight: Weight
) -> WeightedElement:
    """The weighted element on the given type-graph element, which must
    carry the given label: the generator of the shape for that sort and
    label embeds only there."""
    s = T.sig.sort(sort_name)
    if not (0 <= target < T.n(s) and T.labels[s][target] == label):
        raise WtgError(f"no unique embedding of the {sort_name} shape at element {target}")
    return WeightedElement(s, target, weight)


def weight_of_morphism(
    wtg: WeightedTypeGraph, phi: Morphism, exclude: Optional[Morphism] = None
) -> Weight:
    """The product of every element's weight raised to its number of
    occurrences in phi. With exclude = alpha: A -> dom(phi), only the
    occurrences that do not factor through alpha count.

    Plain operations: the weights are legal (checked when the weighted
    type graph is built) and so is every product of them."""
    if phi.cod != wtg.T:
        raise MorphismError("weight: morphism does not end in T")
    if exclude is not None and exclude.cod != phi.dom:
        raise MorphismError("weight: exclusion morphism does not end in dom(phi)")
    G = phi.dom
    mul, _ = sr.plain_ops(wtg.semiring)
    table = wtg.weight_table
    acc = sr.one(wtg.semiring)
    # each element y of G is one occurrence of every weighted element
    # on phi(y)
    for s in range(len(G.sig.objects)):
        # a free shape's occurrence factors through alpha iff its
        # generator's image lies in alpha's image
        excluded = set(exclude.maps[s]) if exclude is not None else ()
        for y, image in enumerate(phi.maps[s]):
            if y not in excluded:
                w = table.get((s, image))
                if w is not None:
                    acc = mul(acc, w)
    return acc


def _weight_sum(wtg: WeightedTypeGraph, homs) -> Weight:
    """The semiring sum of the weights of the given morphisms."""
    _, add = sr.plain_ops(wtg.semiring)
    return reduce(
        add, (weight_of_morphism(wtg, phi) for phi in homs), sr.zero(wtg.semiring)
    )


def weight_of_object(wtg: WeightedTypeGraph, G: CGraph) -> Weight:
    return _weight_sum(wtg, enumerate_homs(G, wtg.T))


def side_comparisons(wtg: WeightedTypeGraph, rule: Rule):
    """(t_K maps, w_L, w_R) for every t_K: K -> T that extends along l
    or r, where w_L and w_R sum the weights of its extensions along each.
    Each side's homs into T are enumerated once and grouped by t_K; any
    other t_K weighs zero on both sides and passes every classification."""
    lefts = extensions_by_restriction(rule.l, wtg.T)
    rights = extensions_by_restriction(rule.r, wtg.T)
    for t_k in {**lefts, **rights}:
        ls, rs = lefts.get(t_k, ()), rights.get(t_k, ())
        yield t_k, _weight_sum(wtg, ls), _weight_sum(wtg, rs)


def flower_bases(T: CGraph):
    """Every choice of one base element per (base sort, label), as a
    dict (sort, label) -> element id."""
    sig = T.sig
    slots = []
    for s in sig.base_sorts:
        for lab in sig.element_labels(s):
            ids = [i for i in range(T.n(s)) if T.labels[s][i] == lab]
            slots.append(((s, lab), ids))
    for combo in itertools.product(*(ids for _, ids in slots)):
        yield {key: i for (key, _), i in zip(slots, combo)}


def saturation_closure(
    T: CGraph, start: set[tuple[int, int]]
) -> Optional[set[tuple[int, int]]]:
    """Least superset of start closed under realizing every argument
    tuple (per non-base sort and label) by the least matching element of
    T; None when some tuple has no realization.
    """
    sig = T.sig
    sat = set(start)
    # one pass reaches the fixpoint: an element added for sort s is an
    # argument only of sorts after s in topo_order
    for s in sig.topo_order:
        if sig.is_base(s):
            continue
        targets = sig.arg_sorts(s)
        pools = [sorted(i for t2, i in sat if t2 == t) for t in targets]
        for tup in itertools.product(*pools):
            for lab in sig.element_labels(s):
                ids = T.tuple_index.get((s, tup, lab), ())
                if not ids:
                    return None
                sat.add((s, ids[0]))
    return sat


def flower_morphism(
    L: CGraph, T: CGraph, fbase: dict[tuple[int, Optional[str]], int]
) -> Optional[Morphism]:
    """The canonical morphism sending everything onto the flower rooted
    at the chosen base elements; None when T lacks a needed element."""
    sig = L.sig
    maps: list[list[int]] = [[-1] * L.n(s) for s in range(len(sig.objects))]
    for s in sig.topo_order:
        targets = sig.arg_sorts(s)
        for i in range(L.n(s)):
            lab = L.labels[s][i]
            if sig.is_base(s):
                j = fbase.get((s, lab))
                if j is None:
                    return None
            else:
                tup = tuple(maps[t][a] for t, a in zip(targets, L.args[s][i]))
                ids = T.tuple_index.get((s, tup, lab), ())
                if not ids:
                    return None
                j = ids[0]
            maps[s][i] = j
    return Morphism(L, T, tuple(tuple(m) for m in maps))


def verify_context_closure(c: Morphism, rule: Rule, fw: Framework) -> bool:
    """Saturation certificate for c: L -> T being a context closure.

    Any match extends to the type graph by sending matched elements
    along c and everything else into the flower, provided every tuple
    over the image-plus-flower region is realized in T. Unrestricted
    matching additionally requires c to be a canonical flower morphism,
    so merged matches stay well defined.
    """
    if c.dom != rule.left:
        raise MorphismError("closure must start at the rule's left side")
    T = c.cod
    image = image_elements(c)
    for fbase in flower_bases(T):
        start = image | {(s, i) for (s, _), i in fbase.items()}
        if saturation_closure(T, start) is None:
            continue
        if fw.match_class != "unrestricted":
            return True
        fl = flower_morphism(rule.left, T, fbase)
        if fl is not None and fl.maps == c.maps:
            return True
    return False


def detect_collapse_epi(rule: Rule) -> bool:
    """True when some epimorphism e: R -> L satisfies e∘r = l; such
    rules cannot strictly decrease over the arithmetic or arctic
    semiring (every left hom lifts with no fewer occurrences)."""
    L = rule.left
    for e in extensions(rule.r, rule.l):
        if all(set(e.maps[s]) == set(range(L.n(s))) for s in range(len(L.sig.objects))):
            return True
    return False


def check_rule_admissibility(
    rule: Rule, fw: Framework, element_domains: Iterable[tuple[int, Optional[str]]]
) -> list[str]:
    """Why the rule's left squares are not weighable for the weighted
    elements' domains, given as the (sort, label) of each representable
    shape; empty when they are. Right squares are always bounded above:
    representable shapes trace along every pushout.

    Left squares need (a) strong traceability, granted by the (regular)
    monic left leg every Rule has, (b) matches monic for every domain
    shape, automatic except under unrestricted matching where the static
    condition is that at most one morphism from the shape factors
    through l, and (c) l' monic for the shapes outside u, which holds
    for representable domains.
    """
    diagnostics: list[str] = []
    if fw.match_class == "unrestricted":
        K = rule.interface
        for s, lab in element_domains:
            n = sum(1 for i in range(K.n(s)) if K.labels[s][i] == lab)
            if n > 1:
                diagnostics.append(
                    f"unrestricted matches may merge the {n} interface elements "
                    f"of shape {K.sig.objects[s].name}"
                    + (f"[{lab}]" if lab else "")
                )
    return diagnostics
