from __future__ import annotations

import itertools

from dpoterm import semiring as sr
from dpoterm.checker import _verify_classification
from dpoterm.dpo import OrientedSquare, enumerate_matches, pushout
from dpoterm.morphism import Morphism, compose, enumerate_homs
from dpoterm.prover import complete_type_graph
from dpoterm.semiring import ARITHMETIC
from dpoterm.signature import parse_signature
from dpoterm.sysfile import Rule
from dpoterm.verify import random_instance, verify_decomposition, verify_step_decompositions
from dpoterm.wtg import (
    WeightedTypeGraph,
    detect_collapse_epi,
    element_at,
    saturation_closure,
    side_comparisons,
    verify_context_closure,
    weight_of_morphism,
    weight_of_object,
)

import worked_examples as ex
from conftest import GRAPH_SIG, MONIC, UNRESTRICTED, graph, named_map
from oracles import (
    brute_weight,
    brute_weight_of_morphism,
    identity,
    is_x_monic,
    representable_shapes,
    s_add,
    side_homs,
    side_weight,
)


def test_empty_element_set_weighs_one(rng):
    T = graph(GRAPH_SIG, ["a", "b"], [("l", "a", "a")])
    wtg = WeightedTypeGraph(T, (), ARITHMETIC)
    g = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=2)
    for phi in enumerate_homs(g, T):
        assert weight_of_morphism(wtg, phi) == 1


def test_loop_unfolding_morphism_weight():
    ru, fw, wtg, closure = ex.loop_unfolding()
    t_l = closure  # x on the weight-2 loop node, loop hit once
    assert weight_of_morphism(wtg, t_l) == 2


def test_simple_fold_tropical_weight():
    ru, fw, wtg, closure = ex.simple_fold()
    # the node element (weight 1) is hit twice: 1 (x) 1 = 2 in min-plus
    assert weight_of_morphism(wtg, closure) == 2


def test_excluding_iso_alpha(rng):
    ru, fw, wtg, closure = ex.loop_unfolding()
    assert weight_of_morphism(wtg, closure, identity(ru.left)) == 1


def test_excluding_initial_alpha(rng):
    ru, fw, wtg, closure = ex.loop_unfolding()
    alpha = Morphism(graph(GRAPH_SIG, []), ru.left, ((), ()))
    assert weight_of_morphism(wtg, closure, alpha) == weight_of_morphism(
        wtg, closure
    )


def test_weights_match_brute_force(rng):
    T = graph(GRAPH_SIG, ["a", "b"], [("l", "a", "a"), ("e", "a", "b")])
    wtg = WeightedTypeGraph(
        T, (element_at(T, "V", None, 0, 2), element_at(T, "edge", None, 1, 3)), ARITHMETIC
    )
    for _ in range(12):
        g = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=3)
        a = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=2)
        for phi in enumerate_homs(g, T)[:4]:
            assert weight_of_morphism(wtg, phi) == brute_weight_of_morphism(wtg, phi)
            for alpha in enumerate_homs(a, g)[:3]:
                assert weight_of_morphism(
                    wtg, phi, alpha
                ) == brute_weight_of_morphism(wtg, phi, alpha)


def test_object_weight_empty_hom_is_zero():
    sig = ex.STRING_SIG
    T = graph(sig, ["t"], [])
    g = graph(sig, ["u"], [("l", "a", "u", "u")])
    wtg = WeightedTypeGraph(T, (), ARITHMETIC)
    assert weight_of_object(wtg, g) == 0


def test_object_weight_counts_homs(rng):
    ru, fw, wtg, closure = ex.morphism_counting()
    for _ in range(8):
        g = random_instance(GRAPH_SIG, rng, max_base=3, max_elems=3)
        assert weight_of_object(wtg, g) == len(enumerate_homs(g, wtg.T))


def test_object_weight_brute(rng):
    T = graph(GRAPH_SIG, ["a", "b"], [("l", "a", "a"), ("e", "a", "b")])
    wtg = WeightedTypeGraph(T, (element_at(T, "edge", None, 0, 2),), ARITHMETIC)
    for _ in range(8):
        g = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=3)
        total = 0
        for phi in enumerate_homs(g, T):
            total += brute_weight_of_morphism(wtg, phi)
        assert weight_of_object(wtg, g) == total


def test_side_weight_loop_unfolding():
    ru, fw, wtg, closure = ex.loop_unfolding()
    t_k = compose(closure, ru.l)
    assert side_weight(wtg, ru.l, t_k) == 2
    assert side_weight(wtg, ru.r, t_k) == 1


def test_side_weight_reconfiguration():
    ru, fw, wtg, closure = ex.reconfiguration()
    t_k = compose(closure, ru.l)
    assert side_weight(wtg, ru.l, t_k) == 4  # 1 + 1 + 2
    assert side_weight(wtg, ru.r, t_k) == 2  # 1 + 1


def test_side_weight_simple_fold_published_values():
    l, r, wtg = ex.simple_fold_published_sides()
    K, T = l.dom, wtg.T
    closure_tk = Morphism(K, T, ((0, 0),))
    vals = sorted(
        weight_of_morphism(wtg, t) for t in side_homs(wtg, r, closure_tk)
    )
    assert vals == [1, 2, 2, 3]
    assert side_weight(wtg, r, closure_tk) == 1
    assert side_weight(wtg, l, closure_tk) == 2
    for maps in itertools.product(range(2), repeat=2):
        if maps == (0, 0):
            continue
        t_k = Morphism(K, T, (maps,))
        assert side_homs(wtg, l, t_k) == []
        assert side_homs(wtg, r, t_k) == []


def test_side_weight_string_t1():
    rho, tau, wtg, closure = ex.string_t1()
    t_k = compose(closure, rho.l)
    assert side_weight(wtg, rho.l, t_k) == 3  # 1 + 2
    assert side_weight(wtg, rho.r, t_k) == 1


def test_side_weight_tree_t1():
    rules = ex.tree_rules()
    T, wtg = ex.tree_t1()
    r1 = rules[0]
    flower = named_map(r1.left, T, {"x": "p", "y": "p", "e": "p0"})
    t_k = compose(flower, r1.l)
    assert side_weight(wtg, r1.l, t_k) == 3  # 1 + 2
    assert side_weight(wtg, r1.r, t_k) == 2  # 1 + 1
    # interface mapped to the helper node: both sides weigh 2
    t_q = Morphism(r1.interface, T, ((1,), ()))
    assert side_weight(wtg, r1.l, t_q) == 2
    assert side_weight(wtg, r1.r, t_q) == 2


def strongest_class(wtg, rule, closure=None):
    """The strongest classification the checker accepts, or "none"."""
    for c in ("uniform", "closureDecreasing", "weak"):
        if _verify_classification(wtg, rule, c, closure) is None:
            return c
    return "none"


def test_classify_loop_unfolding():
    ru, fw, wtg, closure = ex.loop_unfolding()
    assert strongest_class(wtg, ru, closure) == "closureDecreasing"


def test_classify_simple_fold_uniform():
    ru, fw, wtg, closure = ex.simple_fold()
    assert strongest_class(wtg, ru, closure) == "uniform"


def test_classify_string_rules():
    rho, tau, wtg, closure = ex.string_t1()
    # strict at the closure t_K and both hom-sets empty everywhere else,
    # so the verdict is the stronger "uniform"
    assert strongest_class(wtg, rho, closure) == "uniform"
    assert strongest_class(wtg, tau) == "weak"


def test_classify_tree_rules_t1():
    rules = ex.tree_rules()
    T, wtg = ex.tree_t1()
    flower1 = named_map(rules[0].left, T, {"x": "p", "y": "p", "e": "p0"})
    flower2 = named_map(rules[1].left, T, {"x": "p", "y": "p", "e": "p1"})
    assert strongest_class(wtg, rules[0], flower1) == "closureDecreasing"
    assert strongest_class(wtg, rules[1], flower2) == "closureDecreasing"
    for r in rules[2:]:
        assert strongest_class(wtg, r) == "weak"


def test_classify_tree_rules_t2():
    rules = ex.tree_rules()
    T, wtg = ex.tree_t2()
    for r in rules[2:]:
        t_l = enumerate_homs(r.left, T)[0]
        assert strongest_class(wtg, r, t_l) == "uniform"


def test_a_t_k_that_extends_only_along_r_fails_every_classification():
    # without a loop in T the left side of loop unfolding has no image,
    # while its right side lands on f: at x -> tx, y -> ty, w_L = 0 < w_R = 1
    ru, _, _, _ = ex.loop_unfolding()
    T = graph(GRAPH_SIG, ["tx", "ty"], [("f", "tx", "ty")])
    wtg = WeightedTypeGraph(T, (), ARITHMETIC)
    assert list(side_comparisons(wtg, ru)) == [(((0, 1), ()), 0, 1)]
    assert strongest_class(wtg, ru) == "none"


def test_classify_morphism_counting_uniform():
    ru, fw, wtg, closure = ex.morphism_counting()
    assert strongest_class(wtg, ru, closure) == "uniform"


def test_classify_limitations():
    rho, tau = ex.limitations_rules()
    T, wtg = ex.limitations_wtg()
    cl = enumerate_homs(rho.left, T)[0]
    assert strongest_class(wtg, rho, cl) == "uniform"
    assert strongest_class(wtg, tau) == "weak"
    t_k = enumerate_homs(rho.interface, T)[0]
    assert side_weight(wtg, rho.l, t_k) == 2
    assert side_weight(wtg, rho.r, t_k) == 1


def test_collapse_epi_detection():
    rho, tau = ex.limitations_rules()
    assert detect_collapse_epi(tau)
    assert not detect_collapse_epi(rho)
    ru, _, _, _ = ex.loop_unfolding()
    assert not detect_collapse_epi(ru)


def test_closure_flower_unrestricted():
    ru, fw, wtg, closure = ex.morphism_counting()
    T = complete_type_graph(GRAPH_SIG, 2)
    fl = named_map(ru.left, T, {"x": T.name_of(0, 0), "y": T.name_of(0, 0)})
    assert verify_context_closure(fl, ru, UNRESTRICTED)
    # a non-flower map is rejected under unrestricted matching
    split = named_map(ru.left, T, {"x": T.name_of(0, 0), "y": T.name_of(0, 1)})
    assert not verify_context_closure(split, ru, UNRESTRICTED)


def test_closure_monic_reconfiguration():
    ru, fw, wtg, closure = ex.reconfiguration()
    assert verify_context_closure(closure, ru, MONIC)


def test_closure_missing_edge_rejected():
    ru, fw, wtg, closure = ex.loop_unfolding()
    # type graph missing the edge n1 -> n0: saturation fails
    T = graph(
        GRAPH_SIG,
        ["n0", "n1"],
        [("l0", "n0", "n0"), ("l1", "n1", "n1"), ("f", "n0", "n1")],
    )
    c = named_map(ru.left, T, {"x": "n0", "y": "n1", "loop": "l0"})
    assert not verify_context_closure(c, ru, MONIC)


def test_closure_rejects_unsaturated_collapse():
    ru, fw, wtg, closure = ex.loop_unfolding()
    assert verify_context_closure(closure, ru, MONIC)


def test_saturation_closure_is_closed(rng):
    # the sorts are declared after the sorts that use them
    sig = parse_signature("g[a,b](f) f(e, V) e(V, V) V")
    T = complete_type_graph(sig, 2)
    elements = [(s, i) for s in range(len(sig.objects)) for i in range(T.n(s))]
    for _ in range(40):
        start = set(rng.sample(elements, rng.randint(0, 4)))
        sat = saturation_closure(T, start)
        assert start <= sat
        for s in range(len(sig.objects)):
            if sig.is_base(s):
                continue
            pools = [[i for t, i in sat if t == a] for a in sig.arg_sorts(s)]
            for tup in itertools.product(*pools):
                for lab in sig.element_labels(s):
                    assert any((s, i) in sat for i in T.tuple_index[(s, tup, lab)])


def test_decomposition_identity_alpha():
    ru, fw, wtg, closure = ex.loop_unfolding()
    g = graph(GRAPH_SIG, ["n", "m"], [("l", "n", "n")])
    d, in_b, in_c = pushout(identity(g), identity(g))
    square = OrientedSquare(identity(g), identity(g), in_b, in_c)
    for phi in enumerate_homs(d, wtg.T):
        got = verify_decomposition(wtg, square, phi)
        assert got["exact"] and got["upper"]


def _random_square(rng, sig):
    a = random_instance(sig, rng, max_base=2, max_elems=2)
    b = random_instance(sig, rng, max_base=2, max_elems=3)
    c = random_instance(sig, rng, max_base=2, max_elems=3)
    fs, gs = enumerate_homs(a, b), enumerate_homs(a, c)
    if not fs or not gs:
        return None
    alpha = fs[rng.randrange(len(fs))]
    beta = gs[rng.randrange(len(gs))]
    d, in_b, in_c = pushout(alpha, beta)
    return OrientedSquare(alpha, beta, in_b, in_c)


def _square_weighable(square, shapes):
    return all(
        is_x_monic(square.beta_p, shape)
        and is_x_monic(square.alpha_p, shape, outside_of=square.beta)
        for shape, _ in shapes
    )


def test_decomposition_on_random_squares(rng):
    shapes = representable_shapes(GRAPH_SIG)
    edge_shape = shapes[1]
    exact_seen = 0
    upper_only_seen = 0
    trials = 0
    while trials < 160:
        square = _random_square(rng, GRAPH_SIG)
        if square is None:
            continue
        trials += 1
        t = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=3)
        if t.n(1) == 0:
            continue
        wtg = WeightedTypeGraph(
            t, (element_at(t, "edge", None, rng.randrange(t.n(1)), 2),), ARITHMETIC
        )
        weighable = _square_weighable(square, [edge_shape])
        for phi in enumerate_homs(square.D, t)[:6]:
            got = verify_decomposition(wtg, square, phi)
            assert got["upper"]
            if weighable:
                assert got["exact"]
        exact_seen += weighable
        upper_only_seen += not weighable
    assert exact_seen > 20 and upper_only_seen > 2


def test_decomposition_counterexample_loop_element():
    # a weighted element whose domain is the non-representable loop,
    # weighed by definition: WeightedElement cannot express it
    sig = parse_signature("V edge[x](V,V)!")
    node = graph(sig, ["p"])
    looped = graph(sig, ["q"], [("l", "x", "q", "q")])
    inc = named_map(node, looped, {"p": "q"})
    d, in_b, in_c = pushout(inc, inc)
    square = OrientedSquare(inc, inc, in_b, in_c)
    loop = [(enumerate_homs(looped, d)[0], 2)]
    phi = identity(d)
    w = brute_weight(ARITHMETIC, loop, phi)
    bound = sr.s_mul(
        ARITHMETIC,
        brute_weight(ARITHMETIC, loop, compose(phi, square.beta_p)),
        brute_weight(ARITHMETIC, loop, compose(phi, square.alpha_p), square.beta),
    )
    assert sr.s_lt(ARITHMETIC, w, bound)
    assert w == 2 and bound == 4


def test_weight_lemma_one_nonzero(rng):
    ru, fw, wtg, closure = ex.loop_unfolding()
    trop = ex.simple_fold()[2]
    for w, sig in ((wtg, GRAPH_SIG), (trop, ex.SIMPLE_SIG)):
        k = w.semiring
        for _ in range(10):
            g = random_instance(sig, rng, max_base=2, max_elems=2)
            a = random_instance(sig, rng, max_base=1, max_elems=1)
            for phi in enumerate_homs(g, w.T)[:4]:
                val = weight_of_morphism(w, phi)
                assert sr.s_le(k, k.one, val) and val != k.zero
                for alpha in enumerate_homs(a, g)[:2]:
                    val = weight_of_morphism(w, phi, alpha)
                    assert sr.s_le(k, k.one, val) and val != k.zero


def test_pushout_morphism_bijection(rng):
    done = 0
    while done < 40:
        square = _random_square(rng, GRAPH_SIG)
        if square is None:
            continue
        done += 1
        t = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=3)
        a, b, c, d = square.alpha.dom, square.alpha.cod, square.beta.cod, square.D
        via = compose(square.beta_p, square.alpha)
        homs_d = enumerate_homs(d, t)
        homs_b = enumerate_homs(b, t)
        homs_c = enumerate_homs(c, t)
        for t_a in enumerate_homs(a, t):
            lhs = sum(1 for t_d in homs_d if compose(t_d, via) == t_a)
            rhs = sum(
                1
                for t_b in homs_b
                for t_c in homs_c
                if compose(t_b, square.alpha) == t_a
                and compose(t_c, square.beta) == t_a
            )
            assert lhs == rhs


def test_weighing_pushout_objects_formula(rng):
    edge_shape = representable_shapes(GRAPH_SIG)[1]
    done = 0
    while done < 25:
        square = _random_square(rng, GRAPH_SIG)
        if square is None:
            continue
        t = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=3)
        if t.n(1) == 0:
            continue
        done += 1
        wtg = WeightedTypeGraph(
            t, (element_at(t, "edge", None, 0, 2),), ARITHMETIC
        )
        k = wtg.semiring
        total = k.zero
        for t_a in enumerate_homs(square.alpha.dom, t):
            part_c = k.zero
            for t_c in enumerate_homs(square.beta.cod, t):
                if compose(t_c, square.beta) == t_a:
                    part_c = s_add(
                        k,
                        part_c,
                        weight_of_morphism(wtg, t_c, square.beta),
                    )
            part_b = k.zero
            for t_b in enumerate_homs(square.alpha.cod, t):
                if compose(t_b, square.alpha) == t_a:
                    part_b = s_add(k, part_b, weight_of_morphism(wtg, t_b))
            total = s_add(k, total, sr.s_mul(k, part_c, part_b))
        w_d = weight_of_object(wtg, square.D)
        if _square_weighable(square, [edge_shape]):
            assert w_d == total
        else:
            assert sr.s_le(k, w_d, total)


def test_decreasing_steps_loop_unfolding(rng):
    ru, fw, wtg, closure = ex.loop_unfolding()
    checked = 0
    for _ in range(25):
        host = random_instance(GRAPH_SIG, rng, max_base=3, max_elems=4)
        for m, diag in enumerate_matches(ru, host, fw):
            checked += 1
            wg = weight_of_object(wtg, diag.G)
            wh = weight_of_object(wtg, diag.H)
            assert sr.s_lt(ARITHMETIC, wh, wg)
    assert checked > 5


def test_decreasing_steps_weak_rule(rng):
    from conftest import random_host_containing

    rho, tau, wtg, closure = ex.string_t1()
    checked = 0
    for _ in range(12):
        host = random_host_containing(tau.left, rng)
        for m, diag in enumerate_matches(tau, host, UNRESTRICTED):
            checked += 1
            assert sr.s_le(
                ARITHMETIC,
                weight_of_object(wtg, diag.H),
                weight_of_object(wtg, diag.G),
            )
    assert checked > 3


def test_verified_mode_reports_a_merging_match():
    # drop deletes the edge between its two interface nodes; weighed on
    # one looped node of weight 2, an unrestricted match that merges x
    # and y counts the merged node twice on the left square's bound
    K = graph(GRAPH_SIG, ["x", "y"])
    L = graph(GRAPH_SIG, ["x", "y"], [("e", "x", "y")])
    drop = Rule(
        "drop",
        named_map(K, L, {"x": "x", "y": "y"}),
        named_map(K, K, {"x": "x", "y": "y"}),
    )
    T = graph(GRAPH_SIG, ["t"], [("l", "t", "t")])
    wtg = WeightedTypeGraph(T, (element_at(T, "V", None, 0, 2),), ARITHMETIC)
    failures = verify_step_decompositions(wtg, [drop], UNRESTRICTED, 0)
    assert "left square of drop not exact: w=4 bound=8" in failures
    assert all(f.startswith("left square of drop not exact") for f in failures)
    assert verify_step_decompositions(wtg, [drop], MONIC, 0) == ()
