"""A brute-force completeness oracle for the weighted-type-graph search.

For a budget of base sizes 1..n and a bit width, the oracle enumerates
every assignment of a weight, or absence for non-base elements, to the
elements of the saturated type graph, and weighs each one with the
checker's code: side homs and `weight_of_morphism` for the rule
comparisons, `verify_context_closure` for the closures and
`check_rule_admissibility` for the weighted shapes. A budget has a proof
iff some assignment leaves every rule at least weak and removes one.
The oracle takes nothing from the prover's search: its element domains
come from `oracles.representable_shapes`, the budget's saturated graphs
from the prover's `complete_type_graph`, its weights are the 2**bits
least legal ones, from the semiring descriptor's `one` up, and it builds
the masked type graphs itself.
"""
from __future__ import annotations

import itertools
from pathlib import Path
from typing import Optional

from dpoterm import semiring as sr
from dpoterm.graph import CGraph
from dpoterm.morphism import compose, enumerate_homs
from dpoterm.prover import SearchBudget, complete_type_graph, search_wtg
from dpoterm.semiring import SEMIRINGS
from dpoterm.sysfile import parse_system_file
from dpoterm.wtg import (
    WeightedTypeGraph,
    check_rule_admissibility,
    element_at,
    verify_context_closure,
    weight_of_morphism,
)

from oracles import representable_shapes, s_sum, side_homs
from test_prover import SEVEN_LOOPS, STRING3

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


def _shape_keys(system):
    """(sort, label) of every representable shape -> whether each rule
    admits it as a weighted-element domain on its own."""
    sig = system.rules[0].left.sig
    keys = {}
    for shape, (s, gen) in representable_shapes(sig):
        key = (s, shape.labels[s][gen])
        keys[key] = not any(
            check_rule_admissibility(r, system.framework, [key]) for r in system.rules
        )
    return keys


def _masked(T: CGraph, present) -> tuple[CGraph, dict]:
    """The subgraph of T on the present elements, and T's ids -> its ids;
    None when a present element has an absent argument."""
    sig = T.sig
    new_id: dict[tuple[int, int], int] = {}
    args = [[] for _ in sig.objects]
    labels = [[] for _ in sig.objects]
    for s in sig.topo_order:
        for i in range(T.n(s)):
            if (s, i) not in present:
                continue
            try:
                row = tuple(new_id[(t, a)] for t, a in zip(sig.arg_sorts(s), T.args[s][i]))
            except KeyError:
                return None, None
            new_id[(s, i)] = len(args[s])
            args[s].append(row)
            labels[s].append(T.labels[s][i])
    return CGraph(sig, tuple(map(tuple, args)), tuple(map(tuple, labels))), new_id


class _Constraint:
    """One t_K of one rule over a masked type graph: its side homs, the
    weighted elements they touch, and the comparison per weighting of
    those elements, computed with the checker's weighing on demand."""

    def __init__(self, TM, kind, t_k, lhoms, rhoms, weighted):
        self.TM, self.kind, self.t_k = TM, kind, t_k
        self.lhoms, self.rhoms = lhoms, rhoms
        self.empty = not lhoms and not rhoms
        touched = set()
        for phi in lhoms + rhoms:
            for s in range(len(TM.sig.objects)):
                touched.update((s, j) for j in phi.maps[s])
        # (position in the weight vector, (sort, id) in TM)
        self.elems = [(pos, e) for pos, e in enumerate(weighted) if e in touched]
        self.memo: dict[tuple, tuple] = {}

    def compare(self, weights, one, make_element) -> tuple:
        key = tuple(weights[pos] for pos, _ in self.elems)
        got = self.memo.get(key)
        if got is None:
            elements = tuple(
                make_element(e, w) for (_, e), w in zip(self.elems, key) if w != one
            )
            wtg = WeightedTypeGraph(self.TM, elements, self.kind)
            wl = s_sum(self.kind, (weight_of_morphism(wtg, phi) for phi in self.lhoms))
            wr = s_sum(self.kind, (weight_of_morphism(wtg, phi) for phi in self.rhoms))
            got = (sr.s_le(self.kind, wr, wl), sr.s_lt(self.kind, wr, wl))
            self.memo[key] = got
        return got


def _mask_has_proof(system, kind, T, present, domains) -> bool:
    TM, new_id = _masked(T, present)
    if TM is None:
        return False
    sig = T.sig
    one = kind.one
    empty_wtg = WeightedTypeGraph(TM, (), kind)
    weighted = []  # (sort, id in TM) of elements with a choice of weight
    choices = []
    for (s, i), values in domains.items():
        if (s, i) in present and len(values) > 1:
            weighted.append((s, new_id[(s, i)]))
            choices.append(values)
    rules = []
    for rule in system.rules:
        cons = []
        for t_k in enumerate_homs(rule.interface, TM):
            lhoms = side_homs(empty_wtg, rule.l, t_k)
            rhoms = side_homs(empty_wtg, rule.r, t_k)
            cons.append(_Constraint(TM, kind, t_k, lhoms, rhoms, weighted))
        closures = {
            compose(c, rule.l).maps
            for c in enumerate_homs(rule.left, TM)
            if verify_context_closure(c, rule, system.framework)
        }
        closure_cons = [c for c in cons if c.t_k.maps in closures]
        rules.append((cons, closure_cons))

    element_cache = {}

    def make_element(e, w):
        got = element_cache.get((e, w))
        if got is None:
            s, j = e
            got = element_at(TM, sig.objects[s].name, TM.labels[s][j], j, w)
            element_cache[(e, w)] = got
        return got

    admissible = {}
    for weights in itertools.product(*choices):
        shapes = frozenset(
            (e[0], TM.labels[e[0]][e[1]]) for e, w in zip(weighted, weights) if w != one
        )
        if shapes not in admissible:
            admissible[shapes] = not any(
                check_rule_admissibility(r, system.framework, shapes)
                for r in system.rules
            )
        if not admissible[shapes]:
            continue
        removes = False
        for cons, closure_cons in rules:
            weak = uniform = True
            for c in cons:
                le, lt = c.compare(weights, one, make_element)
                weak = weak and le
                uniform = uniform and (lt or c.empty)
                if not weak:
                    break
            if not weak:
                break
            if not closure_cons:
                continue
            if uniform or (
                kind.strictly_monotonic
                and any(c.compare(weights, one, make_element)[1] for c in closure_cons)
            ):
                removes = True
        else:
            if removes:
                return True
    return False


def oracle_has_proof(system, kind, size: int, bits: int, limit: int) -> Optional[bool]:
    """Whether some assignment at base size 1..size removes a rule; None
    when a size has more than limit assignments."""
    sig = system.rules[0].left.sig
    shape_keys = _shape_keys(system)
    one = kind.one
    weights = list(range(one, one + 2**bits))
    for n in range(1, size + 1):
        T = complete_type_graph(sig, n)
        domains = {}
        space = 1
        for s in range(len(sig.objects)):
            for i in range(T.n(s)):
                values = weights if shape_keys[(s, T.labels[s][i])] else [one]
                domains[(s, i)] = values
                space *= len(values) + (not sig.is_base(s))
        if space > limit:
            return None
        base = {(s, i) for s in sig.base_sorts for i in range(T.n(s))}
        maskable = sorted(set(domains) - base)
        for keep in itertools.product((True, False), repeat=len(maskable)):
            present = base | {e for e, k in zip(maskable, keep) if k}
            if _mask_has_proof(system, kind, T, present, domains):
                return True
    return False


def _agreement(systems, sizes, bits: int) -> tuple[int, int, int]:
    """(found, exhausted, skipped) over every system, semiring and size,
    after asserting that search_wtg finds a proof iff the oracle does."""
    found = exhausted = skipped = 0
    for name, system in systems:
        for kind_name, size in itertools.product(("arithmetic", "tropical", "arctic"), sizes):
            kind = SEMIRINGS[kind_name]
            expected = oracle_has_proof(system, kind, size, bits, limit=20_000)
            if expected is None:
                skipped += 1
                continue
            out = search_wtg(system.rules, system.framework, kind, SearchBudget(size, bits, 3600))
            assert out.status == ("found" if expected else "exhausted"), (name, kind_name, size)
            found += expected
            exhausted += not expected
    return found, exhausted, skipped


def _shipped():
    return [(p.stem, parse_system_file(p.read_text())) for p in sorted(SYSTEMS.glob("*.gts"))]


def test_search_agrees_with_the_brute_force_oracle_at_bits_1():
    """search_wtg finds a proof within a budget iff the oracle does, for
    the shipped systems over all three semirings at sizes 1 and 2."""
    assert _agreement(_shipped(), (1, 2), 1) == (11, 31, 6)


def test_search_agrees_with_the_brute_force_oracle_at_size_1_bits_2():
    """The same at size 1 and bits 2, where forcing present the elements
    every closure requires, and cancelling shared factors, prune most,
    and for the string rules a^3 b -> a^3 c and c d^3 -> d^3 b too."""
    systems = _shipped() + [("string3", parse_system_file(STRING3))]
    assert _agreement(systems, (1,), 2) == (3, 24, 0)


def test_search_agrees_with_the_brute_force_oracle_at_a_top_tier_of_7():
    """Seven loops whose only proofs cost 7, the maximum at size 1 and
    bits 1: the search must walk the top tier too."""
    systems = [("seven_loops", parse_system_file(SEVEN_LOOPS))]
    assert _agreement(systems, (1,), 1) == (3, 0, 0)
