from __future__ import annotations

from typing import Optional

import pytest

from dpoterm.dpo import enumerate_matches, kept_subgraph, pushout, pushout_complement
from dpoterm.graph import CGraph, isomorphic
from dpoterm.morphism import Morphism, compose, enumerate_homs
from dpoterm.signature import parse_signature
from dpoterm.sysfile import DpoError, Rule
from dpoterm.verify import random_instance
from dpoterm.wtg import check_rule_admissibility

from conftest import GRAPH_SIG, LABELLED_SIG, MONIC, UNRESTRICTED, graph, named_map
from oracles import factor_through, identity, pullback, representable_shapes

SIMPLE_LAB_SIG = parse_signature("V edge[x](V,V)!")


def mediating(in_b: Morphism, in_c: Morphism, q_b: Morphism, q_c: Morphism) -> Optional[Morphism]:
    """The unique map out of the pushout agreeing with both cocone legs,
    if the forced assignment is total and consistent."""
    D, Z = in_b.cod, q_b.cod
    maps = [[-1] * D.n(s) for s in range(len(D.sig.objects))]
    for leg_in, leg_q in ((in_b, q_b), (in_c, q_c)):
        for s in range(len(D.sig.objects)):
            for i, j in enumerate(leg_in.maps[s]):
                want = leg_q.maps[s][i]
                if maps[s][j] not in (-1, want):
                    return None
                maps[s][j] = want
    if any(-1 in row for row in maps):
        return None
    h = Morphism(D, Z, tuple(tuple(r) for r in maps))
    try:
        h.validate()
    except Exception:
        return None
    return h


def test_pushout_of_identities():
    a = graph(GRAPH_SIG, ["x", "y"], [("e", "x", "y")])
    d, in_b, in_c = pushout(identity(a), identity(a))
    assert isomorphic(d, a)
    assert in_b.maps == in_c.maps


def test_pushout_merged_loop_on_simple_graphs():
    # gluing two copies of a looped node along the bare node collapses
    # the parallel loops: one node, one x-loop
    node = graph(SIMPLE_LAB_SIG, ["p"])
    looped = graph(SIMPLE_LAB_SIG, ["q"], [("l", "x", "q", "q")])
    f = named_map(node, looped, {"p": "q"})
    d, _, _ = pushout(f, f)
    assert d.counts == (1, 1)
    assert d.args[1][0] == (0, 0)


def test_pushout_merge_in_a_lower_simple_sort_merges_a_sort_declared_before_it():
    # gluing along the nodes merges the parallel simple edges a and b,
    # and only then do the marks pa and pb share their argument
    sig = parse_signature("p(e)! e(V,V)! V")
    nodes = [("V", "x", None, ()), ("V", "y", None, ())]
    A = CGraph.build(sig, nodes)
    B = CGraph.build(sig, nodes + [("e", "a", None, ("x", "y")), ("p", "pa", None, ("a",))])
    C = CGraph.build(sig, nodes + [("e", "b", None, ("x", "y")), ("p", "pb", None, ("b",))])
    ids = {"x": "x", "y": "y"}
    d, in_b, in_c = pushout(named_map(A, B, ids), named_map(A, C, ids))
    assert d.counts == (1, 1, 2)
    assert in_b.maps == in_c.maps


def test_pushout_glue_two_edges_into_path():
    shared = graph(GRAPH_SIG, ["z"])
    e1 = graph(GRAPH_SIG, ["a", "b"], [("e", "a", "b")])
    e2 = graph(GRAPH_SIG, ["c", "d"], [("e", "c", "d")])
    f = named_map(shared, e1, {"z": "b"})
    g = named_map(shared, e2, {"z": "c"})
    d, in_b, in_c = pushout(f, g)
    assert d.counts == (3, 2)
    # path: images of the two edges share exactly one node
    path = graph(GRAPH_SIG, ["1", "2", "3"], [("p", "1", "2"), ("q", "2", "3")])
    assert isomorphic(d, path)


@pytest.mark.parametrize("sig", [GRAPH_SIG, LABELLED_SIG, SIMPLE_LAB_SIG])
def test_pushout_universal_property(sig, rng):
    spans = 0
    while spans < 100:
        a = random_instance(sig, rng, max_base=2, max_elems=2)
        b = random_instance(sig, rng, max_base=2, max_elems=2)
        c = random_instance(sig, rng, max_base=2, max_elems=2)
        z = random_instance(sig, rng, max_base=2, max_elems=3)
        fs, gs = enumerate_homs(a, b), enumerate_homs(a, c)
        if not fs or not gs:
            continue
        spans += 1
        f, g = fs[0], gs[-1]
        d, in_b, in_c = pushout(f, g)
        assert compose(in_b, f) == compose(in_c, g)
        hd = enumerate_homs(d, z)
        for qb in enumerate_homs(b, z):
            for qc in enumerate_homs(c, z):
                if compose(qb, f) != compose(qc, g):
                    continue
                found = [
                    h for h in hd
                    if compose(h, in_b) == qb and compose(h, in_c) == qc
                ]
                assert len(found) == 1


def test_pushout_along_mono_is_pullback(rng):
    done = 0
    while done < 60:
        a = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=2)
        b = random_instance(GRAPH_SIG, rng, max_base=3, max_elems=3)
        c = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=3)
        monos = enumerate_homs(a, b, mono_only=True)
        gs = enumerate_homs(a, c)
        if not monos or not gs:
            continue
        done += 1
        f, g = monos[0], gs[0]
        d, in_b, in_c = pushout(f, g)
        p, p_b, p_c = pullback(in_b, in_c)
        # the canonical comparison map a -> p must be an iso
        maps = []
        for s in range(len(a.sig.objects)):
            row = []
            for i in range(a.n(s)):
                pair = (f.maps[s][i], g.maps[s][i])
                matches = [
                    x
                    for x in range(p.n(s))
                    if (p_b.maps[s][x], p_c.maps[s][x]) == pair
                ]
                assert len(matches) == 1
                row.append(matches[0])
            maps.append(tuple(row))
        cmp_map = Morphism(a, p, tuple(maps))
        cmp_map.validate()
        assert all(
            sorted(cmp_map.maps[s]) == list(range(p.n(s)))
            for s in range(len(a.sig.objects))
        )


def test_pushout_along_regular_mono_is_pullback_simple(rng):
    from dpoterm.morphism import classify_monicity

    done = 0
    while done < 30:
        a = random_instance(SIMPLE_LAB_SIG, rng, max_base=2, max_elems=2)
        b = random_instance(SIMPLE_LAB_SIG, rng, max_base=3, max_elems=3)
        c = random_instance(SIMPLE_LAB_SIG, rng, max_base=2, max_elems=2)
        regs = [
            f
            for f in enumerate_homs(a, b, mono_only=True)
            if classify_monicity(f)["regularMonic"]
        ]
        gs = enumerate_homs(a, c)
        if not regs or not gs:
            continue
        done += 1
        f, g = regs[0], gs[0]
        d, in_b, in_c = pushout(f, g)
        p, p_b, p_c = pullback(in_b, in_c)
        assert p.counts == a.counts
        for s in range(len(a.sig.objects)):
            pairs = {
                (f.maps[s][i], g.maps[s][i]) for i in range(a.n(s))
            }
            assert pairs == {
                (p_b.maps[s][x], p_c.maps[s][x]) for x in range(p.n(s))
            }


@pytest.mark.parametrize("sig", [GRAPH_SIG, SIMPLE_LAB_SIG])
def test_traceability_of_representables_along_pushouts(sig, rng):
    shapes = representable_shapes(sig)
    done = 0
    while done < 40:
        a = random_instance(sig, rng, max_base=2, max_elems=2)
        b = random_instance(sig, rng, max_base=2, max_elems=3)
        c = random_instance(sig, rng, max_base=2, max_elems=3)
        fs, gs = enumerate_homs(a, b), enumerate_homs(a, c)
        if not fs or not gs:
            continue
        done += 1
        d, in_b, in_c = pushout(fs[0], gs[0])
        for shape, _ in shapes:
            for f in enumerate_homs(shape, d):
                assert factor_through(f, in_b) or factor_through(f, in_c)


def _string_rule_rho():
    # a.b -> a.c on labelled edges, interface = outer nodes
    L = graph(LABELLED_SIG, ["x", "y", "z"], [("ab1", "a", "x", "y"), ("ab2", "b", "y", "z")])
    K = graph(LABELLED_SIG, ["x", "z"])
    R = graph(LABELLED_SIG, ["x", "y", "z"], [("ac1", "a", "x", "y"), ("ac2", "c", "y", "z")])
    l = named_map(K, L, {"x": "x", "z": "z"})
    r = named_map(K, R, {"x": "x", "z": "z"})
    return Rule("rho", l, r)


def test_complement_identity_left_leg():
    g = graph(GRAPH_SIG, ["u", "v"], [("e", "u", "v")])
    host = graph(GRAPH_SIG, ["1", "2", "3"], [("d", "1", "2"), ("f", "2", "3")])
    m = named_map(g, host, {"u": "1", "v": "2", "e": "d"})
    c, u, lp = pushout_complement(Rule("id", identity(g), identity(g)), m)
    assert isomorphic(c, host)
    assert u.maps == m.maps


def test_kept_subgraph_numbers_every_sort_before_reading_arguments():
    # edge is declared before V, so an edge's arguments name ids of a
    # sort declared after it
    sig = parse_signature("edge(V,V) V")
    G = graph(sig, ["1", "2", "3"], [("d", "1", "2"), ("e", "3", "3"), ("f", "2", "1")])
    E, V = sig.sort("edge"), sig.sort("V")
    assert (E, V) == (0, 1)
    C, incl, new_id = kept_subgraph(G, [{1}, {2, 0}])
    incl.validate()
    assert incl.maps[V] == (0, 2) and incl.maps[E] == (1,)
    assert new_id[V] == {0: 0, 2: 1} and new_id[E] == {1: 0}
    assert C.args[E] == ((1, 1),)


def test_complement_dangling():
    node = graph(GRAPH_SIG, ["n"])
    l = named_map(node, node, {"n": "n"})
    L = node
    host = graph(GRAPH_SIG, ["1", "2"], [("e", "1", "2")])
    # rule deleting node 1 while its edge stays: K empty
    K = graph(GRAPH_SIG, [])
    l = named_map(K, L, {})
    m = named_map(L, host, {"n": "1"})
    assert pushout_complement(Rule("delete", l, identity(K)), m) is None


def test_complement_identification():
    # m merges a deleted node with a kept one: identification fails
    L = graph(GRAPH_SIG, ["x", "y"])
    K = graph(GRAPH_SIG, ["x"])
    l = named_map(K, L, {"x": "x"})
    host = graph(GRAPH_SIG, ["n"])
    m = named_map(L, host, {"x": "n", "y": "n"})
    assert pushout_complement(Rule("delete", l, identity(K)), m) is None


def test_complement_string_rule():
    rule = _string_rule_rho()
    host = graph(
        LABELLED_SIG, ["1", "2", "3"], [("e1", "a", "1", "2"), ("e2", "b", "2", "3")]
    )
    m = named_map(rule.left, host, {"x": "1", "y": "2", "z": "3", "ab1": "e1", "ab2": "e2"})
    c, u, lp = pushout_complement(rule, m)
    assert c.counts == (2, 0)
    d, in_l, in_c = pushout(rule.l, u)
    med = mediating(in_l, in_c, m, lp)
    assert med is not None
    assert all(
        sorted(med.maps[s]) == list(range(host.n(s))) for s in range(len(med.maps))
    )


def test_complement_roundtrip_random(rng):
    rule = _string_rule_rho()
    found = 0
    while found < 25:
        host = random_instance(LABELLED_SIG, rng, max_base=3, max_elems=4)
        for m in enumerate_homs(rule.left, host):
            pc = pushout_complement(rule, m)
            if pc is None:
                continue
            found += 1
            c, u, lp = pc
            d, in_l, in_c = pushout(rule.l, u)
            med = mediating(in_l, in_c, m, lp)
            assert med is not None and all(
                sorted(med.maps[s]) == list(range(host.n(s)))
                for s in range(len(med.maps))
            )


def test_matches_empty_when_absent():
    rule = _string_rule_rho()
    host = graph(LABELLED_SIG, ["1"], [("l", "d", "1", "1")])
    assert enumerate_matches(rule, host, UNRESTRICTED) == []


def test_matches_loop_unfolding_monic():
    L = graph(GRAPH_SIG, ["x", "y"], [("loop", "x", "x")])
    K = graph(GRAPH_SIG, ["x", "y"])
    R = graph(GRAPH_SIG, ["x", "y"], [("e", "x", "y")])
    rule = Rule(
        "unfold",
        named_map(K, L, {"x": "x", "y": "y"}),
        named_map(K, R, {"x": "x", "y": "y"}),
    )
    host = graph(GRAPH_SIG, ["n", "m"], [("l", "n", "n")])
    steps = enumerate_matches(rule, host, MONIC)
    assert len(steps) == 1
    m, diag = steps[0]
    assert m.maps[0] == (0, 1)  # x on the looped node
    assert diag.H.counts == (2, 1)
    loop_free = graph(GRAPH_SIG, ["n", "m"], [("e", "n", "m")])
    assert isomorphic(diag.H, loop_free)


def test_matches_unrestricted_vs_monic_collapse():
    L = graph(GRAPH_SIG, ["x", "y"], [("e", "x", "y")])
    K = graph(GRAPH_SIG, ["x", "y"])
    R = graph(GRAPH_SIG, ["x", "y"])
    rule = Rule(
        "drop",
        named_map(K, L, {"x": "x", "y": "y"}),
        named_map(K, R, {"x": "x", "y": "y"}),
    )
    host = graph(GRAPH_SIG, ["n"], [("l", "n", "n")])
    assert enumerate_matches(rule, host, MONIC) == []
    unres = enumerate_matches(rule, host, UNRESTRICTED)
    assert len(unres) == 1
    assert unres[0][1].H.counts == (1, 0)


def test_rule_validation_rejects_nonmonic_left():
    L = graph(GRAPH_SIG, ["x"])
    K = graph(GRAPH_SIG, ["a", "b"])
    l = named_map(K, L, {"a": "x", "b": "x"})
    r = identity(K)
    with pytest.raises(DpoError, match="monic"):
        Rule("bad", l, r)


def test_rule_validation_rejects_different_interfaces():
    K = graph(GRAPH_SIG, ["x"])
    K2 = graph(GRAPH_SIG, ["x", "y"])
    with pytest.raises(DpoError, match="different interfaces"):
        Rule("bad", identity(K), identity(K2))


def test_rule_validation_rejects_nonregular_on_simple():
    K = graph(SIMPLE_LAB_SIG, ["x", "y"])
    L = graph(SIMPLE_LAB_SIG, ["x", "y"], [("e", "x", "x", "y")])
    l = named_map(K, L, {"x": "x", "y": "y"})
    r = identity(K)
    with pytest.raises(DpoError, match="regular"):
        Rule("bad", l, r)


# the (sort, label) of every representable shape of LABELLED_SIG
DOMAINS = [(0, None), (1, "a"), (1, "b"), (1, "c"), (1, "d")]


def test_admissibility_monic_matching():
    rule = _string_rule_rho()
    assert check_rule_admissibility(rule, MONIC, DOMAINS) == []


def test_admissibility_unrestricted_edge_domains():
    rule = _string_rule_rho()
    assert check_rule_admissibility(rule, UNRESTRICTED, DOMAINS[1:]) == []
    # node domains fail: the interface has two nodes a match may merge
    got = check_rule_admissibility(rule, UNRESTRICTED, DOMAINS)
    assert got and all("merge the 2 interface elements of shape V" in d for d in got)


def test_admissibility_parallel_interface_edges():
    K = graph(LABELLED_SIG, ["x", "y"], [("e1", "a", "x", "y"), ("e2", "a", "x", "y")])
    rule = Rule("par", identity(K), identity(K))
    edge_a = [(1, "a")]
    got = check_rule_admissibility(rule, UNRESTRICTED, edge_a)
    assert got and any("merge" in d for d in got)
