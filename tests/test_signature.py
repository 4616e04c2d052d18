from __future__ import annotations

import pytest

from dpoterm.morphism import enumerate_homs
from dpoterm.signature import (
    IndexSignature,
    ObjectDecl,
    SignatureError,
    SignatureParseError,
    parse_signature,
)
from dpoterm.verify import random_instance

from conftest import GRAPH_SIG
from oracles import representable_shapes


def test_parse_plain_graph():
    sig = parse_signature("V  edge(V,V)")
    assert [o.name for o in sig.objects] == ["V", "edge"]
    assert sig.objects[0].args == ()
    assert sig.objects[1].args == ("V", "V")
    assert not sig.objects[1].simple
    assert sig.objects[1].labels == ()


def test_parse_simple_flag():
    sig = parse_signature("V  plus(V,V,V)!")
    assert sig.objects[1].simple


def test_parse_labels():
    sig = parse_signature("V edge[a,b](V,V) flag[x](V)")
    assert sig.objects[1].labels == ("a", "b")
    assert sig.objects[2].labels == ("x",)


def test_parse_undeclared_target():
    with pytest.raises(SignatureError, match="undeclared"):
        parse_signature("V  edge(W,V)")


def test_parse_errors_report_position():
    with pytest.raises(SignatureParseError, match="line 1"):
        parse_signature("V edge(V,")


def test_duplicate_name():
    with pytest.raises(SignatureError, match="duplicate"):
        parse_signature("V V")


def test_cycle():
    with pytest.raises(SignatureError, match="cycl"):
        IndexSignature((ObjectDecl("A", ("A",)),))


def test_constructor_rejects_undeclared_target():
    with pytest.raises(SignatureError, match="undeclared argument target 'W'"):
        IndexSignature((ObjectDecl("V"), ObjectDecl("edge", ("W", "V"))))


def test_labelled_target_rejected():
    with pytest.raises(SignatureError, match="argument target"):
        parse_signature("V[a,b] edge(V,V)")


def test_shapes_plain_graph():
    shapes = representable_shapes(GRAPH_SIG)
    assert len(shapes) == 2
    node, gen = shapes[0]
    assert node.counts == (1, 0) and gen[0] == 0
    edge, gen = shapes[1]
    assert edge.counts == (2, 1) and gen[0] == 1
    assert edge.args[1][0] == (0, 1)


def test_shapes_labelled():
    sig = parse_signature("V flag[a,b](V)")
    shapes = representable_shapes(sig)
    # one per (sort, label): V, flag[a], flag[b]
    assert len(shapes) == 3
    flag_a, (_, gen_a) = shapes[1]
    assert flag_a.labels[1][gen_a] == "a"
    flag_b, _ = shapes[2]
    assert flag_b.labels[1][0] == "b"
    assert flag_a.counts == (1, 1)


def test_shape_count_formula():
    sig = parse_signature("V edge[a,b](V,V) plus(V,V,V)! flag[x,y,z](V)")
    shapes = representable_shapes(sig)
    expected = sum(max(1, len(o.labels)) for o in sig.objects)
    assert len(shapes) == expected
    # acyclicity keeps every shape finite
    assert all(s.size < 10 for s, _ in shapes)


def test_shape_unique_morphism_per_anchor(rng):
    # each shape admits exactly one morphism into a graph per legal image
    # of its generator
    g = random_instance(GRAPH_SIG, rng, max_elems=5)
    for shape, (s, gen) in representable_shapes(GRAPH_SIG):
        homs = enumerate_homs(shape, g)
        anchors = {h.maps[s][gen] for h in homs}
        assert len(homs) == len(anchors)
        assert len(homs) == g.n(s)
