from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

from dpoterm.graph import (
    CGraph,
    GraphError,
    canonical_key,
    isomorphic,
    validate_instance,
)
from dpoterm.morphism import enumerate_homs
from dpoterm.prover import complete_type_graph
from dpoterm.signature import parse_signature
from dpoterm.sysfile import parse_system_file
from dpoterm.verify import random_instance

from conftest import GRAPH_SIG, LABELLED_SIG, SIMPLE_SIG, graph


SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


def _clashing_names() -> CGraph:
    # e element 10 and e1 element 0 are both e10 by sort name plus id
    sig = parse_signature("V e(V,V) e1(V,V)")
    return CGraph(
        sig, (((),), ((0, 0),) * 11, ((0, 0),) * 2), ((None,), (None,) * 11, (None,) * 2)
    )


def test_generated_names_are_unique_and_change_only_on_a_clash():
    g = _clashing_names()
    names = [g.name_of(s, i) for s in range(3) for i in range(g.n(s))]
    assert names == ["V0"] + [f"e{i}" for i in range(11)] + ["e10'", "e11"]


def _named_and_generated_graphs() -> list[CGraph]:
    """Every graph of the shipped systems, the saturated graphs of their
    signatures at one and two base elements, and random instances."""
    rng = random.Random(28)
    graphs = [_clashing_names()]
    for path in sorted(SYSTEMS.glob("*.gts")):
        system = parse_system_file(path.read_text())
        graphs += system.graphs.values()
        graphs += [complete_type_graph(system.sig, n) for n in (1, 2)]
        graphs += [random_instance(system.sig, rng) for _ in range(10)]
    return graphs


def test_build_reads_back_the_rows_of_every_graph():
    for g in _named_and_generated_graphs():
        h = CGraph.build(g.sig, g.rows())
        assert h == g
        assert h.rows() == g.rows()
        assert [h.name_of(s, i) for s, i in h.element_ids.values()] == list(g.element_ids)


def test_element_ids_hold_one_entry_per_element():
    graphs = _named_and_generated_graphs()
    for g in graphs:
        ids = g.element_ids
        assert len(ids) == g.size
        assert sorted(ids.values()) == [(s, i) for s, n in enumerate(g.counts) for i in range(n)]
        assert all(g.name_of(s, i) == name for name, (s, i) in ids.items())
    assert graphs[0].element_ids["e10'"] == (2, 0)


def test_validate_ok():
    g = graph(GRAPH_SIG, ["x", "y"], [("e", "x", "y")])
    validate_instance(g)


def test_validate_dangling():
    with pytest.raises(GraphError, match="dangling"):
        CGraph(GRAPH_SIG, (((),), ((0, 1),)), ((None,), (None,)))


def test_validate_simplicity():
    with pytest.raises(GraphError, match="simplicity"):
        CGraph(
            SIMPLE_SIG,
            (((), ()), ((0, 1), (0, 1))),
            ((None, None), (None, None)),
        )


def test_validate_label():
    with pytest.raises(GraphError, match="label"):
        CGraph(LABELLED_SIG, (((), ()), ((0, 1),)), ((None, None), ("nope",)))


def test_canonical_single_nodes():
    a = graph(GRAPH_SIG, ["x"])
    b = graph(GRAPH_SIG, ["different"])
    assert canonical_key(a) == canonical_key(b)


def test_canonical_path_reversal():
    a = graph(GRAPH_SIG, ["a", "b"], [("e", "a", "b")])
    b = graph(GRAPH_SIG, ["a", "b"], [("e", "b", "a")])
    assert canonical_key(a) == canonical_key(b)


def test_canonical_loop_vs_edge():
    loop = graph(GRAPH_SIG, ["a", "b"], [("e", "a", "a")])
    edge = graph(GRAPH_SIG, ["a", "b"], [("e", "a", "b")])
    assert canonical_key(loop) != canonical_key(edge)


def _permuted(g: CGraph, rng: random.Random) -> CGraph:
    sig = g.sig
    perms = {}
    for s in range(len(sig.objects)):
        p = list(range(g.n(s)))
        rng.shuffle(p)
        perms[s] = p  # perms[s][new] = old
    inv = {s: {old: new for new, old in enumerate(p)} for s, p in perms.items()}
    args = tuple(
        tuple(
            tuple(
                inv[t][g.args[s][old][pos]]
                for pos, t in enumerate(sig.arg_sorts(s))
            )
            for old in perms[s]
        )
        for s in range(len(sig.objects))
    )
    labels = tuple(
        tuple(g.labels[s][old] for old in perms[s]) for s in range(len(sig.objects))
    )
    return CGraph(sig, args, labels)


def _isomorphic(a: CGraph, b: CGraph) -> bool:
    if a.counts != b.counts:
        return False
    return any(
        all(len(set(h.maps[s])) == a.n(s) for s in range(len(a.sig.objects)))
        for h in enumerate_homs(a, b, mono_only=True)
    )


@pytest.mark.parametrize("sig", [GRAPH_SIG, LABELLED_SIG, SIMPLE_SIG])
def test_canonical_respects_iso(sig, rng):
    for _ in range(70):
        g = random_instance(sig, rng, max_base=3, max_elems=4)
        h = _permuted(g, rng)
        assert canonical_key(g) == canonical_key(h)


def test_canonical_separates_noniso(rng):
    # equal keys need not mean isomorphic graphs; isomorphic decides
    graphs = [random_instance(GRAPH_SIG, rng, max_base=3, max_elems=3) for _ in range(40)]
    for i, a in enumerate(graphs):
        for b in graphs[i + 1 :]:
            iso = _isomorphic(a, b)
            assert isomorphic(a, b) == iso
            assert canonical_key(a) == canonical_key(b) or not iso


@pytest.mark.parametrize(
    "sig", [GRAPH_SIG, LABELLED_SIG, SIMPLE_SIG, parse_signature("V E(V,V) F(E,V)")]
)
def test_isomorphic_agrees_with_bijective_homs(sig, rng):
    graphs = [random_instance(sig, rng, max_base=3, max_elems=4) for _ in range(40)]
    graphs += [_permuted(g, rng) for g in graphs[:10]]
    outcomes = Counter()
    for i, a in enumerate(graphs):
        for b in graphs[i + 1 :]:
            iso = _isomorphic(a, b)
            assert isomorphic(a, b) == isomorphic(b, a) == iso
            outcomes[iso, a.counts == b.counts] += 1
    # both answers occur among graphs of equal size
    assert outcomes[True, True] >= 10 and outcomes[False, True] > 0


def test_isomorphic_tells_apart_what_refinement_cannot():
    # every node of two directed 3-cycles and of one directed 6-cycle has
    # one edge in and one out, so refinement never splits a class
    nodes = [f"v{i}" for i in range(6)]
    triangles = graph(
        GRAPH_SIG, nodes, [(f"e{i}", f"v{i}", f"v{i // 3 * 3 + (i + 1) % 3}") for i in range(6)]
    )
    hexagon = graph(GRAPH_SIG, nodes, [(f"e{i}", f"v{i}", f"v{(i + 1) % 6}") for i in range(6)])
    assert canonical_key(triangles) == canonical_key(hexagon)
    assert not isomorphic(triangles, hexagon) and not _isomorphic(triangles, hexagon)


def test_complete_graph_flower():
    t = complete_type_graph(GRAPH_SIG, 1)
    assert t.counts == (1, 1)
    assert t.args[1][0] == (0, 0)


def test_complete_graph_two_nodes():
    t = complete_type_graph(GRAPH_SIG, 2)
    assert t.counts == (2, 4)


def test_complete_graph_labelled():
    sig = parse_signature("V edge[a,b](V,V)")
    t = complete_type_graph(sig, 2)
    assert t.counts == (2, 8)


def test_complete_graph_count_formula():
    sig = parse_signature("V edge[a,b](V,V) plus(V,V,V)! flag[x,y,z](V)")
    for n in (1, 2, 3):
        t = complete_type_graph(sig, n)
        # closed form: labels x tuples per non-base sort
        assert t.counts == (n, 2 * n * n, n**3, 3 * n)


def test_builder_errors():
    with pytest.raises(GraphError, match="unknown argument"):
        graph(GRAPH_SIG, ["x"], [("e", "x", "nope")])
    with pytest.raises(GraphError, match="duplicate element name"):
        graph(GRAPH_SIG, ["x", "x"])
