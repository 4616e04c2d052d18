from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dpoterm.certificate import (
    _decode_json,
    _decode_text,
    _json,
    _json_shaped,
    certificate_to_json,
    read_certificate,
    write_certificate,
)
from dpoterm.checker import (
    Certificate,
    CertificateError,
    CertStep,
    CheckResult,
    RuleEntry,
    check_certificate,
    step_wtg,
)
import dpoterm.graph
from dpoterm.morphism import Morphism
from dpoterm.prover import DEFAULT_STRATEGY, complete_type_graph, run_strategy
from dpoterm.semiring import ARITHMETIC, TROPICAL
from dpoterm.sysfile import parse_system_file, system_hash
from dpoterm.wtg import (
    WeightedElement,
    WeightedTypeGraph,
    WtgError,
    element_at,
    side_comparisons,
    weight_of_morphism,
)

import worked_examples as ex
from conftest import GRAPH_SIG, graph
from oracles import (
    JSON_SHAPE,
    checked_weight_of_morphism,
    element_hom,
    json_shaped,
    reference_side_comparisons,
    s_sum,
    side_homs,
)

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
PINNED = Path(__file__).resolve().parent / "certificates"


def load(name):
    return parse_system_file((SYSTEMS / f"{name}.gts").read_text())


@pytest.fixture(scope="module")
def proved():
    out = {}
    for name in ("loop_unfolding", "reconfiguration", "limitations"):
        system = load(name)
        out[name] = (system, run_strategy(system, DEFAULT_STRATEGY).certificate)
    return out


def test_text_roundtrip(proved):
    for system, cert in proved.values():
        text = write_certificate(cert)
        again = read_certificate(system.sig, text)
        assert write_certificate(again) == text
        assert check_certificate(system, again).accepted


def test_json_roundtrip(proved):
    for system, cert in proved.values():
        text = certificate_to_json(cert)
        again = read_certificate(system.sig, text)
        assert check_certificate(system, again).accepted
        assert write_certificate(again) == write_certificate(cert)


def _reconf_published_cert(system):
    """The published reconfiguration proof as a certificate."""
    ru, fw, wtg, closure = ex.reconfiguration()
    T = replace(
        wtg.T, names=(("n0", "n1", "n2"), ("e01", "e10", "l0", "l1", "e12", "e21"))
    )
    step = CertStep(
        "arithmetic",
        T,
        (("edge", "e12", 2),),
        (
            RuleEntry(
                "reconfigure",
                "closureDecreasing",
                (
                    ("x", "n0"),
                    ("xy", "e01"),
                    ("y", "n1"),
                    ("yz", "l1"),
                    ("z", "n1"),
                    ("zy", "l1"),
                ),
            ),
        ),
        ("reconfigure",),
    )
    return Certificate(system_hash(system), (step,), "terminating", ())


def test_published_reconfiguration_certificate_accepted():
    system = load("reconfiguration")
    cert = _reconf_published_cert(system)
    assert check_certificate(system, cert).accepted


def test_lowered_weight_reconfiguration_still_valid():
    # 1+1+1 = 3 is still strictly above 1+1 = 2 at the closure, so the
    # lowered certificate remains sound and is accepted
    system = load("reconfiguration")
    cert = _reconf_published_cert(system)
    step = cert.steps[0]
    lowered = replace(
        cert, steps=(replace(step, elements=(("edge", "e12", 1),)),)
    )
    assert check_certificate(system, lowered).accepted


def test_lowered_weight_rejected(proved):
    # loop unfolding genuinely needs the weight: 1 is not above 1
    system, cert = proved["loop_unfolding"]
    step = cert.steps[0]
    lowered = tuple((s, n, 1) for s, n, _ in step.elements)
    bad = replace(cert, steps=(replace(step, elements=lowered),))
    got = check_certificate(system, bad)
    assert not got.accepted
    assert "strict" in got.reason or "comparison" in got.reason


def test_a_weighted_type_graph_checks_its_elements_when_built(proved):
    T = graph(GRAPH_SIG, ["a"], [("l", "a", "a")])
    for kind, weight in ((ARITHMETIC, 0), (ARITHMETIC, 1.5), (TROPICAL, -1), (TROPICAL, True)):
        with pytest.raises(WtgError, match=f"illegal weight {weight!r} for the {kind.kind}"):
            WeightedTypeGraph(T, (WeightedElement(1, 0, weight),), kind)
    for sort, target in ((1, 1), (0, -1), (2, 0), (-1, 0)):
        with pytest.raises(WtgError, match="does not land in the type graph"):
            WeightedTypeGraph(T, (WeightedElement(sort, target, 2),), ARITHMETIC)
    # the checker rejects such a step with the reason it gave when only
    # an explicit validation raised
    system, cert = proved["loop_unfolding"]
    step = cert.steps[0]
    illegal = tuple((s, n, 0) for s, n, _ in step.elements)
    bad = replace(cert, steps=(replace(step, elements=illegal),))
    assert check_certificate(system, bad) == CheckResult(
        False, "step 1: illegal weight 0 for the arithmetic semiring"
    )


def test_unsaturated_closure_rejected():
    # removing the return edge e21 from T breaks the saturation the
    # closure needs (an exhaustive search for an extension fails)
    system = load("reconfiguration")
    cert = _reconf_published_cert(system)
    step = cert.steps[0]
    T = step.type_graph
    rows = []
    for s in range(len(T.sig.objects)):
        for i in range(T.n(s)):
            if T.name_of(s, i) == "e21":
                continue
            rows.append(
                (
                    T.sig.objects[s].name,
                    T.name_of(s, i),
                    T.labels[s][i],
                    tuple(
                        T.name_of(t, a)
                        for t, a in zip(T.sig.arg_sorts(s), T.args[s][i])
                    ),
                )
            )
    from dpoterm.graph import CGraph

    bad_T = CGraph.build(T.sig, rows)
    bad = replace(cert, steps=(replace(step, type_graph=bad_T),))
    got = check_certificate(system, bad)
    assert not got.accepted
    assert "closure" in got.reason


def test_hash_mismatch_rejected(proved):
    system, cert = proved["loop_unfolding"]
    bad = replace(cert, system_hash="0" * 64)
    got = check_certificate(system, bad)
    assert not got.accepted and "hash" in got.reason


def test_unjustified_removal_rejected(proved):
    system, cert = proved["limitations"]
    step = cert.steps[0]
    bad_entries = tuple(
        replace(e, classification="weak", closure=None) if e.rule in step.removed else e
        for e in step.entries
    )
    bad = replace(cert, steps=(replace(step, entries=bad_entries),))
    got = check_certificate(system, bad)
    assert not got.accepted and "justified" in got.reason


def test_wrong_verdict_rejected(proved):
    system, cert = proved["loop_unfolding"]
    bad = replace(cert, verdict="failed", remaining=("unfold",))
    assert not check_certificate(system, bad).accepted


@pytest.mark.parametrize(
    "name, claim, steps_give",
    [
        ("loop_unfolding", "relatively-terminating", "terminating"),
        ("loop_unfolding", "failed", "terminating"),
        ("limitations", "terminating", "relatively-terminating"),
        ("limitations", "failed", "relatively-terminating"),
        ("limitations_tau", "relatively-terminating", "failed"),
    ],
)
def test_a_wrong_verdict_is_rejected_naming_both_verdicts(name, claim, steps_give):
    system = load(name)
    text = (PINNED / f"{name}.cert").read_text()
    bad = text.replace(f"verdict {steps_give}\n", f"verdict {claim}\n")
    assert bad != text
    got = check_certificate(system, read_certificate(system.sig, bad))
    assert got == CheckResult(False, f"verdict says {claim} but the steps give {steps_give}")


def test_repeated_removal_rejected(proved):
    system, cert = proved["limitations"]
    step = cert.steps[0]
    text = write_certificate(cert).replace(
        f"removed {step.removed[0]}", f"removed {step.removed[0]} {step.removed[0]}"
    )
    bad = read_certificate(system.sig, text)
    assert bad.steps[0].removed == (step.removed[0],) * 2
    got = check_certificate(system, bad)
    assert not got.accepted and "twice" in got.reason


def test_both_forms_decode_alike():
    # one builder makes the Certificate of either form, from the same
    # fields of the same types: the text decoder types them as it reads
    pairs = 0
    for path in sorted(PINNED.glob("*.cert")):
        sig = load(path.stem).sig
        text, js = path.read_text(), path.with_suffix(".json").read_text()
        cert = read_certificate(sig, text)
        assert cert == read_certificate(sig, js), path.stem
        assert {**_decode_text(text), "version": 2} == _decode_json(js), path.stem
        assert write_certificate(cert) == text
        assert certificate_to_json(cert) == js
        pairs += 1
    assert pairs * 2 == len(list(PINNED.iterdir())) == 16


def _without_lines(text: str, start: str, stop: str) -> str:
    """text without its first line that starts with start and the lines
    after it up to the first that starts with stop, both included."""
    lines = text.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith(start))
    j = next(k for k in range(i, len(lines)) if lines[k].startswith(stop))
    return "".join(lines[:i] + lines[j + 1:])


@pytest.mark.parametrize(
    "start, stop, reason",
    [
        ("  semiring", "  semiring", "step has no semiring line"),
        ("  typegraph", "  end", "step has no typegraph line"),
        ("verdict", "verdict", "missing verdict"),
    ],
    ids=["semiring", "typegraph", "verdict"],
)
def test_a_text_certificate_without_a_field_is_an_input_error(start, stop, reason):
    system = load("limitations")
    text = _without_lines((PINNED / "limitations.cert").read_text(), start, stop)
    with pytest.raises(CertificateError, match=reason):
        read_certificate(system.sig, text)


def test_a_json_weight_of_true_is_an_int_and_rejected_by_the_checker():
    # the field check keeps isinstance: a bool passes as an int, and the
    # checker judges it, not the reader
    system = load("limitations")
    data = json.loads((PINNED / "limitations.json").read_text())
    data["steps"][0]["elements"][0][3] = True
    cert = read_certificate(system.sig, json.dumps(data))
    assert check_certificate(system, cert) == CheckResult(
        False, "step 1: illegal weight True for the arithmetic semiring"
    )


_GONE = object()  # a field left out of its object
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_SCALARS = {
    str: st.text(max_size=2),
    int: st.integers(-1, 3) | st.booleans(),
    type(None): st.none(),
    dict: st.dictionaries(st.text(max_size=2), st.text(max_size=2) | _ANY_JSON, max_size=2),
}


def _now_and_then(good, other):
    return st.integers(0, 39).flatmap(lambda i: other if i == 0 else good)


def _near(shape):
    """JSON values of an oracles.JSON_SHAPE shape, each part now and then
    replaced by any JSON value or, in an object, left out."""
    if isinstance(shape, dict):
        fields = {k: _now_and_then(_near(s), st.just(_GONE)) for k, s in shape.items()}
        good = st.fixed_dictionaries(fields).map(
            lambda d: {k: v for k, v in d.items() if v is not _GONE}
        )
    elif isinstance(shape, list):
        good = st.lists(_near(shape[0]), max_size=2)
    elif isinstance(shape, tuple):
        good = st.tuples(*map(_near, shape)).map(list)
    else:
        good = st.one_of([_SCALARS[t] for t in getattr(shape, "__args__", (shape,))])
    return _now_and_then(good, _ANY_JSON)


@given(_near(JSON_SHAPE).filter(lambda data: isinstance(data, dict)))
@settings(derandomize=True, max_examples=250, deadline=None)
def test_the_json_field_check_agrees_with_the_shape_interpreter(data):
    assert _json_shaped(data) == json_shaped(data)


def test_the_json_writer_leaves_no_garbage(searched):
    cert = searched["tree_counter"][1]
    gc.collect()
    flags = gc.get_debug()
    before = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(10):
            certificate_to_json(cert)
        gc.collect()
        left = gc.garbage[before:]
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
    assert left == []


@given(
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=12,
    )
)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_the_json_writer_spells_values_as_json_dumps_does(value):
    assert _json(value) == json.dumps(value, indent=2)


def test_an_empty_closure_reads_and_is_judged_alike_in_both_forms():
    # a weak entry may carry a closure; an empty one is a closure that
    # misses every element of the left graph, in either form
    system = load("limitations")
    text = (PINNED / "limitations.cert").read_text()
    text = text.replace("rule tau class weak", "rule tau class weak closure { }")
    data = json.loads((PINNED / "limitations.json").read_text())
    (tau,) = [e for e in data["steps"][0]["rules"] if e["rule"] == "tau"]
    tau["closure"] = {}
    cert = read_certificate(system.sig, text)
    assert cert == read_certificate(system.sig, json.dumps(data))
    assert [e.closure for e in cert.steps[0].entries if e.rule == "tau"] == [()]
    got = check_certificate(system, cert)
    # the closure has no line of its own, so the reason names none
    assert got == CheckResult(
        False, "step 1: rule tau: bad closure (map misses interface element 'x')"
    )


@pytest.mark.parametrize(
    "line, edited",
    [("  removed rho", "  removedX rho"), ("remaining { tau }", "remainingX { tau }")],
    ids=["removed", "remaining"],
)
def test_a_directive_is_its_whole_first_word(line, edited):
    system = load("limitations")
    text = (PINNED / "limitations.cert").read_text()
    assert check_certificate(system, read_certificate(system.sig, text)).accepted
    assert line in text
    with pytest.raises(CertificateError, match="unexpected line"):
        read_certificate(system.sig, text.replace(line, edited))


@pytest.mark.parametrize(
    "line, edited",
    [
        ("verdict relatively-terminating", "verdict relatively-terminating junk"),
        ("  semiring arithmetic", "  semiring arithmetic tropical"),
        ("remaining { tau }", "remaining tau"),
        ("remaining { tau }", "remaining { tau } }"),
        ("remaining { tau }", "remaining { { tau }"),
        ("remaining { tau }", "remaining { tau"),
    ],
)
def test_a_line_is_read_whole(line, edited):
    system = load("limitations")
    text = (PINNED / "limitations.cert").read_text()
    assert line in text
    with pytest.raises(CertificateError, match="unexpected line"):
        read_certificate(system.sig, text.replace(line, edited))


def test_the_system_hash_is_one_word():
    system = load("limitations")
    text = (PINNED / "limitations.cert").read_text()
    head, hash_line, rest = text.split("\n", 2)
    edited = f"{head}\n{hash_line} {hash_line.split()[1]}\n{rest}"
    with pytest.raises(CertificateError, match="missing system-hash"):
        read_certificate(system.sig, edited)


def test_a_closure_that_is_no_homomorphism_is_a_bad_closure():
    # the names resolve, so only validating the closure morphism rejects it
    system = load("simple_fold")
    text = (PINNED / "simple_fold.cert").read_text()
    bad = text.replace("x -> V1, y -> V1", "x -> V0, y -> V1")
    assert bad != text
    got = check_certificate(system, read_certificate(system.sig, bad))
    assert not got.accepted
    assert "rule fold: bad closure" in got.reason
    assert "does not commute with argument 0" in got.reason


def test_a_step_still_removes_the_rest_when_one_removed_rule_is_gone():
    # weights W that remove rules a and b make b strictly decreasing and
    # every other rule weakly decreasing, so once a is gone W still
    # removes b: a step that removes one rule is enough, and repeating
    # the search finishes the job
    tried = []
    for path in sorted(PINNED.glob("*.cert")):
        system = load(path.stem)
        cert = read_certificate(system.sig, path.read_text())
        present = system.rules
        for k, step in enumerate(cert.steps):
            for gone in step.removed if len(step.removed) >= 2 else ():
                smaller = replace(system, rules=tuple(r for r in present if r.name != gone))
                rest = replace(
                    step,
                    entries=tuple(e for e in step.entries if e.rule != gone),
                    removed=tuple(n for n in step.removed if n != gone),
                )
                smaller_cert = replace(
                    cert, system_hash=system_hash(smaller), steps=(rest, *cert.steps[k + 1:])
                )
                got = check_certificate(smaller, smaller_cert)
                assert got.accepted, (path.stem, k, gone, got.reason)
                tried.append((path.stem, k, gone))
            present = tuple(r for r in present if r.name not in step.removed)
    assert tried == [
        ("tree_counter", k, gone)
        for k, pair in enumerate((("r1", "r2"), ("r3", "r5"), ("r4", "r6")))
        for gone in pair
    ]


def _pinned_replays():
    """(certificate name, step's weighted type graph, rule) for every
    rule the checker compares at every step of the pinned certificates,
    in the checker's order."""
    for path in sorted(PINNED.glob("*.cert")):
        system = load(path.stem)
        cert = read_certificate(system.sig, path.read_text())
        remaining = {r.name: r for r in system.rules}
        for step in cert.steps:
            wtg = step_wtg(step)
            for rule in remaining.values():
                yield path.stem, wtg, rule
            for name in step.removed:
                del remaining[name]


def test_replay_matches_the_per_interface_reference():
    # every comparison the checker makes for the pinned certificates
    # against one constrained enumeration per t_K and one weighing per
    # weighted element: the replay compares each t_K with an extension
    # on some side once, with the reference's weights, and skips exactly
    # the t_Ks that have none, which weigh zero on both sides
    compared = skipped = 0
    for stem, wtg, rule in _pinned_replays():
        triples = list(side_comparisons(wtg, rule))
        got = {t_k: (wl, wr) for t_k, wl, wr in triples}
        assert len(got) == len(triples), (stem, rule.name)
        for t_k, wl, wr, empty in reference_side_comparisons(wtg, rule):
            if empty:
                assert t_k.maps not in got, (stem, rule.name, t_k.maps)
                assert wl == wr == wtg.semiring.zero
                skipped += 1
            else:
                assert got.pop(t_k.maps) == (wl, wr), (stem, rule.name, t_k.maps)
                compared += 1
        assert got == {}, (stem, rule.name)
    assert (compared, skipped) == (50, 14)


def test_plain_weighing_matches_the_checked_semiring_operations():
    # the same comparisons, each side's homs weighed with plain integer
    # operations and with the checked s_mul and s_sum
    compared = 0
    for stem, wtg, rule in _pinned_replays():
        k = wtg.semiring
        for t_k, wl, wr in side_comparisons(wtg, rule):
            for side, got in ((rule.l, wl), (rule.r, wr)):
                homs = side_homs(wtg, side, Morphism(rule.interface, wtg.T, t_k))
                weights = [weight_of_morphism(wtg, phi) for phi in homs]
                assert weights == [checked_weight_of_morphism(wtg, phi) for phi in homs]
                assert got == s_sum(k, weights), (stem, rule.name, t_k)
                compared += len(homs)
    assert compared > 0


def test_element_at_is_the_unique_constrained_embedding():
    """Every element of every pinned type graph and of the saturated
    graphs at sizes 1-3 of each shipped signature."""
    graphs = []
    for path in sorted(PINNED.glob("*.cert")):
        cert = read_certificate(load(path.stem).sig, path.read_text())
        graphs += [step.type_graph for step in cert.steps]
    for path in sorted(SYSTEMS.glob("*.gts")):
        sig = load(path.stem).sig
        for n in (1, 2, 3):
            graphs.append(complete_type_graph(sig, n))
    embedded = 0
    for T in graphs:
        for s, decl in enumerate(T.sig.objects):
            for i, lab in enumerate(T.labels[s]):
                got = element_at(T, decl.name, lab, i, 2)
                # the generator is its shape's only element of its sort
                assert element_hom(T, s, lab, i).maps[s] == (got.target,)
                assert got == WeightedElement(s, i, 2)
                embedded += 1
            for lab in T.sig.element_labels(s):
                for i in range(T.n(s)):
                    if T.labels[s][i] != lab:
                        with pytest.raises(WtgError, match="no unique embedding"):
                            element_at(T, decl.name, lab, i, 2)
                        with pytest.raises(WtgError, match="no unique embedding"):
                            element_hom(T, s, lab, i)
    assert len(graphs) > 24 and embedded == sum(T.size for T in graphs)


def test_prove_and_check_never_call_canonical_key(searched, monkeypatch):
    """canonical_key refines colours over a whole graph for `dpoterm
    steps`; the prove and check paths must not reach it."""
    original = dpoterm.graph.canonical_key

    def forbidden(g):
        raise AssertionError("canonical_key called on the prove or check path")

    replaced = 0
    for name, mod in list(sys.modules.items()):
        if name == "dpoterm" or name.startswith("dpoterm."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, forbidden)
                    replaced += 1
    assert replaced
    for system, cert, _ in searched.values():
        assert cert.system_hash == system_hash(system)
        assert check_certificate(system, cert).accepted
    system = load("loop_unfolding")
    assert run_strategy(system, DEFAULT_STRATEGY).certificate.verdict == "terminating"


def test_reading_and_checking_validates_each_type_graph_once(monkeypatch):
    """A type graph is validated when it is built, and checking trusts
    that: reading and checking a pinned certificate validates each step's
    type graph exactly once."""
    original = dpoterm.graph.validate_instance
    validated = []

    def counting(g):
        validated.append(g)
        original(g)

    for name, mod in list(sys.modules.items()):
        if name == "dpoterm" or name.startswith("dpoterm."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)
    steps = 0
    for path in sorted(PINNED.iterdir()):
        system = load(path.stem)
        validated.clear()
        cert = read_certificate(system.sig, path.read_text())
        assert check_certificate(system, cert).accepted
        for step in cert.steps:
            assert sum(g is step.type_graph for g in validated) == 1, path.name
            steps += 1
    assert steps > 0


TRUSTED_BASE = {
    "dpoterm",
    "dpoterm.checker",
    "dpoterm.graph",
    "dpoterm.morphism",
    "dpoterm.semiring",
    "dpoterm.signature",
    "dpoterm.sysfile",
    "dpoterm.wtg",
}


def test_checker_imports_only_the_trusted_base():
    """The checker's import closure is what acceptance depends on: the
    system model and parser, graphs, morphisms, semirings, weighing and
    the replay; not the prover, the pushouts or the certificate readers."""
    src = Path(dpoterm.graph.__file__).resolve().parent.parent
    code = (
        "import json, sys, dpoterm.checker\n"
        "print(json.dumps({m: sys.modules[m].__file__ for m in sys.modules"
        " if m.split('.')[0] == 'dpoterm'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(out.stdout)
    assert set(loaded) == TRUSTED_BASE
    lines = sum(len(Path(f).read_text().splitlines()) for f in loaded.values())
    assert lines <= 1462, f"the checker's import closure has {lines} lines"
