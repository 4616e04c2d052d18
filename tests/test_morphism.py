from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from dpoterm.graph import CGraph
from dpoterm.morphism import MorphismError, classify_monicity, compose, enumerate_homs
from dpoterm.signature import parse_signature
from dpoterm.verify import random_instance

from conftest import GRAPH_SIG, LABELLED_SIG, SIMPLE_SIG, graph, named_map, random_host_containing
from oracles import (
    brute_force_homs,
    factor_through,
    identity,
    is_x_monic,
    representable_shapes,
)


def test_enumerate_point_into_two_nodes():
    pt = graph(GRAPH_SIG, ["p"])
    two = graph(GRAPH_SIG, ["a", "b"])
    assert len(enumerate_homs(pt, two)) == 2


def test_enumerate_edge_shape_into_loop():
    shape = graph(LABELLED_SIG, ["s", "t"], [("e", "a", "s", "t")])
    host = graph(LABELLED_SIG, ["n"], [("l", "a", "n", "n")])
    homs = enumerate_homs(shape, host)
    assert len(homs) == 1
    assert homs[0].maps[0] == (0, 0)


def test_enumerate_with_constraint_loop_unfolding():
    # left side of the loop-unfolding rule into its 2-node type graph,
    # pinned on the interface: exactly one extension
    L = graph(GRAPH_SIG, ["x", "y"], [("loop", "x", "x")])
    T = graph(
        GRAPH_SIG,
        ["n0", "n1"],
        [("l0", "n0", "n0"), ("l1", "n1", "n1"), ("f", "n0", "n1"), ("b", "n1", "n0")],
    )
    homs = enumerate_homs(L, T, constraint={(0, 0): 0, (0, 1): 1})
    assert len(homs) == 1


def test_compose_identities(rng):
    g = random_instance(GRAPH_SIG, rng, max_elems=5)
    h = random_instance(GRAPH_SIG, rng, max_elems=5)
    for f in enumerate_homs(g, h)[:5]:
        assert compose(f, identity(g)) == f
        assert compose(identity(h), f) == f


def test_compose_associative(rng):
    for _ in range(20):
        a = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=2)
        b = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=2)
        c = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=3)
        fs, gs = enumerate_homs(b, c), enumerate_homs(a, b)
        hs = enumerate_homs(c, c)
        if not (fs and gs and hs):
            continue
        f, g, h = fs[0], gs[0], hs[0]
        assert compose(compose(h, f), g) == compose(h, compose(f, g))


def test_compose_mismatch():
    a, b = graph(GRAPH_SIG, ["x"]), graph(GRAPH_SIG, ["x", "y"])
    f = enumerate_homs(a, b)[0]
    with pytest.raises(MorphismError):
        compose(f, f)


def test_monicity_identity():
    g = graph(GRAPH_SIG, ["x", "y"], [("e", "x", "y")])
    assert classify_monicity(identity(g)) == {"monic": True, "regularMonic": True}


def test_monicity_merge():
    two = graph(GRAPH_SIG, ["x", "y"])
    one = graph(GRAPH_SIG, ["z"])
    f = named_map(two, one, {"x": "z", "y": "z"})
    assert not classify_monicity(f)["monic"]


def test_regular_monicity_simple_sig():
    discrete = graph(SIMPLE_SIG, ["x", "y"])
    withedge = graph(SIMPLE_SIG, ["a", "b"], [("e", "a", "b")])
    f = named_map(discrete, withedge, {"x": "a", "y": "b"})
    got = classify_monicity(f)
    assert got["monic"] and not got["regularMonic"]


def test_regular_equals_monic_without_simple_sorts():
    discrete = graph(GRAPH_SIG, ["x", "y"])
    withedge = graph(GRAPH_SIG, ["a", "b"], [("e", "a", "b")])
    f = named_map(discrete, withedge, {"x": "a", "y": "b"})
    assert classify_monicity(f) == {"monic": True, "regularMonic": True}


def _parallel_edges():
    return graph(LABELLED_SIG, ["x", "y"], [("e1", "a", "x", "y"), ("e2", "a", "x", "y")])


def test_x_monic_cases():
    node_shape, _ = representable_shapes(LABELLED_SIG)[0]
    edge_a_shape, _ = representable_shapes(LABELLED_SIG)[1]
    dom = _parallel_edges()
    cod = graph(LABELLED_SIG, ["u", "v"], [("e", "a", "u", "v")])
    f = named_map(dom, cod, {"x": "u", "y": "v", "e1": "e", "e2": "e"})
    assert is_x_monic(f, node_shape)
    assert not is_x_monic(f, edge_a_shape)
    # excluding everything that factors through the full subgraph u
    assert is_x_monic(f, edge_a_shape, outside_of=identity(dom))


def test_monic_implies_x_monic(rng):
    for _ in range(10):
        g = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=2)
        h = random_instance(GRAPH_SIG, rng, max_base=3, max_elems=4)
        for f in enumerate_homs(g, h, mono_only=True)[:3]:
            for shape, _ in representable_shapes(GRAPH_SIG):
                assert is_x_monic(f, shape)


def test_mono_only_is_a_filter(rng):
    for _ in range(10):
        g = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=2)
        h = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=3)
        all_homs = enumerate_homs(g, h)
        monos = enumerate_homs(g, h, mono_only=True)
        assert monos == [f for f in all_homs if classify_monicity(f)["monic"]]


def test_hom_count_iso_invariant(rng):
    g = graph(GRAPH_SIG, ["a", "b"], [("e", "a", "b")])
    g2 = graph(GRAPH_SIG, ["b", "a"], [("e", "b", "a")])  # same up to renaming
    h = random_instance(GRAPH_SIG, rng, max_elems=5)
    assert len(enumerate_homs(g, h)) == len(enumerate_homs(g2, h))


def test_factor_through_identity():
    g = graph(GRAPH_SIG, ["x", "y"], [("e", "x", "y")])
    u = identity(g)
    zs = factor_through(u, u)
    assert identity(g) in zs


def test_factor_through_mono_unique(rng):
    sub = graph(GRAPH_SIG, ["x"])
    big = graph(GRAPH_SIG, ["a", "b"], [("e", "a", "b")])
    u = named_map(sub, big, {"x": "a"})
    x = named_map(sub, big, {"x": "a"})
    assert len(factor_through(x, u)) == 1


def test_factor_through_collapse():
    two = graph(GRAPH_SIG, ["x", "y"])
    one = graph(GRAPH_SIG, ["z"])
    u = named_map(two, one, {"x": "z", "y": "z"})
    pt = graph(GRAPH_SIG, ["p"])
    x = named_map(pt, one, {"p": "z"})
    assert len(factor_through(x, u)) == 2


# a labelled graph signature, a simple one and a hypergraph one
DIFFERENTIAL_SIGS = (LABELLED_SIG, SIMPLE_SIG, parse_signature("V plus(V,V,V) zero(V)"))


@given(
    st.sampled_from(DIFFERENTIAL_SIGS),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(["none", "from-a-hom", "random"]),
    st.booleans(),
)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_enumerate_homs_equals_brute_force(sig, seed, pins, mono_only):
    # the prover and the checker share enumerate_homs: same homs, same order
    rng = random.Random(seed)
    G = random_instance(sig, rng, max_base=2, max_elems=2)
    H = random_instance(sig, rng, max_base=3, max_elems=3)
    constraint = None
    if pins != "none":
        homs = enumerate_homs(G, H)
        constraint = {}
        for s in range(len(sig.objects)):
            for i in range(G.n(s)):
                if H.n(s) and rng.random() < 0.4:
                    if pins == "from-a-hom" and homs:
                        constraint[(s, i)] = homs[0].maps[s][i]
                    else:
                        constraint[(s, i)] = rng.randrange(H.n(s))
    got = enumerate_homs(G, H, constraint, mono_only)
    assert got == brute_force_homs(G, H, constraint, mono_only)


def test_enumerate_homs_plans_each_domain_graph_once():
    # the pin-free plan is built on the first call and shared by every
    # later one, pinned or not; a pinned call plans on a copy
    rng = random.Random(7)
    G = random_instance(LABELLED_SIG, rng, max_base=2, max_elems=3)
    fresh = CGraph(G.sig, G.args, G.labels)
    assert "hom_plan" not in vars(G)
    H = random_host_containing(G, rng)
    homs = enumerate_homs(G, H)
    plan = G.hom_plan
    assert homs and all(pin is None for *_, pin in plan[0])
    for f in homs[:3]:
        pins = {(s, i): j for s, row in enumerate(f.maps) for i, j in enumerate(row)}
        assert enumerate_homs(G, H, pins) == [f]
        assert G.hom_plan is plan
    assert enumerate_homs(G, G) and G.hom_plan is plan
    assert plan == fresh.hom_plan


@given(st.sampled_from(DIFFERENTIAL_SIGS), st.integers(min_value=0, max_value=2**32))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_calls_that_share_a_plan_agree_with_fresh_graphs(sig, seed):
    # one G, its calls alternating between no constraint and several
    # constraints: each call agrees with the brute force and with a call
    # on a copy of G built anew, which plans afresh
    rng = random.Random(seed)
    G = random_instance(sig, rng, max_base=2, max_elems=2)
    H = random_instance(sig, rng, max_base=3, max_elems=3)
    for _ in range(3):
        for constraint in (None, *(
            {(s, i): rng.randrange(H.n(s)) for s in range(len(sig.objects))
             for i in range(G.n(s)) if H.n(s) and rng.random() < 0.4}
            for _ in range(2)
        )):
            got = enumerate_homs(G, H, constraint)
            assert got == brute_force_homs(G, H, constraint)
            assert got == enumerate_homs(CGraph(G.sig, G.args, G.labels), H, constraint)
