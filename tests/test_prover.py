from __future__ import annotations

import gc
import itertools
import math
import random
import time
from pathlib import Path

import pytest

from dpoterm.certificate import certificate_to_json, write_certificate
from dpoterm.checker import Certificate, check_certificate
from dpoterm.morphism import enumerate_homs, extensions_by_restriction, image_elements
from dpoterm.prover import (
    ABSENT,
    Basic,
    DEFAULT_STRATEGY,
    Par,
    Repeat,
    SearchBudget,
    Seq,
    StrategyError,
    _masked_step,
    _may_collapse,
    _Problem,
    _Search,
    _tiers,
    complete_type_graph,
    parse_strategy,
    run_strategy,
    search_wtg,
)
from dpoterm.semiring import NEG_INF, POS_INF, SEMIRINGS
from dpoterm.sysfile import parse_system_file, system_hash
from dpoterm.wtg import detect_collapse_epi, flower_bases, flower_morphism, saturation_closure

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


def load(name):
    return parse_system_file((SYSTEMS / f"{name}.gts").read_text())


def _problem(system, kind, bits, n):
    """The search problem of system's rules at base size n, with the
    collapse test that search_wtg makes."""
    epi = [detect_collapse_epi(r) for r in system.rules]
    return _Problem(system.rules, system.framework, kind, bits, n, epi=epi)


def test_parse_basic_strategy():
    s = parse_strategy("arithmetic(size=2,bits=4,timeout=10)")
    assert s == Basic("arithmetic", SearchBudget(2, 4, 10))


def test_parse_repeat_par():
    s = parse_strategy(
        "repeat(arctic(size=1,bits=3,timeout=5) | tropical(size=1,bits=3,timeout=5))"
    )
    assert isinstance(s, Repeat)
    assert isinstance(s.child, Par)
    assert s.child.children[0].kind == "arctic"


def test_parse_seq_binds_looser_than_par():
    s = parse_strategy(
        "arithmetic(size=1,bits=1,timeout=1) ; "
        "tropical(size=1,bits=1,timeout=1) | arctic(size=1,bits=1,timeout=1)"
    )
    assert isinstance(s, Seq)
    assert isinstance(s.children[1], Par)


def test_parse_errors():
    with pytest.raises(StrategyError):
        parse_strategy("repeat()")
    with pytest.raises(StrategyError):
        parse_strategy("arithmetic(size=2)")
    with pytest.raises(StrategyError):
        parse_strategy("unknown(size=1,bits=1,timeout=1)")


def test_bits_are_bounded_before_the_build():
    assert SearchBudget(1, 12, 1).bits == 12
    with pytest.raises(StrategyError, match="bits"):
        SearchBudget(1, 13, 1)
    with pytest.raises(StrategyError, match="bits"):
        parse_strategy("arithmetic(size=1,bits=64,timeout=1)")


def test_repeated_parameter_is_rejected():
    with pytest.raises(StrategyError, match=r"repeated parameter 'size' at position 35"):
        parse_strategy("arithmetic(size=1,bits=1,timeout=1,size=2)")


A = "arithmetic(size=1,bits=1,timeout=1)"
T = "tropical(size=2,bits=3,timeout=4)"
_A = Basic("arithmetic", SearchBudget(1, 1, 1))
_T = Basic("tropical", SearchBudget(2, 3, 4))
_DEEP = _A
for _ in range(100):
    _DEEP = Repeat(_DEEP)


@pytest.mark.parametrize(
    "text, tree",
    [
        (A, _A),
        (f" ( {A} ) ", _A),
        ("arithmetic ( timeout = 1 , size=01, bits=1 )", _A),
        (f"{A} | {T} ; {T}", Seq((Par((_A, _T)), _T))),
        (f"{A} ; {T} | {T}", Seq((_A, Par((_T, _T))))),
        (f"repeat ( {A} ; ({T} | {A}) )", Repeat(Seq((_A, Par((_T, _A)))))),
        (f"(({A} | {T})) | {A}", Par((Par((_A, _T)), _A))),
        ("repeat(" * 100 + A + ")" * 100, _DEEP),
    ],
)
def test_parse_strategy_trees(text, tree):
    assert parse_strategy(text) == tree


@pytest.mark.parametrize(
    "text, error",
    [
        ("", "expected a strategy at position 0"),
        ("repeat()", "expected a strategy at position 7"),
        (f"{A} {T}", "expected ';', '|' or ')' at position 36"),
        (f"{A} ;", "expected a strategy at position 37"),
        (f"{A} ; | {T}", "expected a strategy at position 38"),
        (f"{A})", "unbalanced parentheses at position 35"),
        (f"({A}", "unbalanced parentheses at position 36"),
        ("repeat", "bad strategy syntax at position 0"),
        ("foo(size=1,bits=1,timeout=1)", "unknown strategy 'foo' at position 0"),
        ("arithmetic(size=1,bits=1)", "basic strategies take size=, bits=, timeout= at position 0"),
        ("arithmetic(size=1,bits=x,timeout=1)", "expected name=number at position 18"),
        ("arithmetic(size=1,bits=1,timeout=1,)", "expected name=number at position 35"),
        ("(" * 101 + A + ")" * 101, "nesting deeper than 100 at position 100"),
    ],
)
def test_parse_strategy_errors(text, error):
    with pytest.raises(StrategyError) as err:
        parse_strategy(text)
    assert str(err.value) == error


def test_search_loop_unfolding_finds():
    system = load("loop_unfolding")
    out = search_wtg(
        system.rules, system.framework, SEMIRINGS["arithmetic"], SearchBudget(2, 2, 60)
    )
    assert out.status == "found"
    assert out.step.removed == ("unfold",)
    # the certificate step carries a strictly weighted element
    assert any(w >= 2 for _, _, w in out.step.elements)


def test_search_string_rules_relative():
    # the first step removes tau; searching again on what is left removes rho
    system = load("string_rules")
    rules = system.rules
    for removed in (("tau",), ("rho",)):
        out = search_wtg(
            rules, system.framework, SEMIRINGS["arithmetic"], SearchBudget(2, 2, 60)
        )
        assert (out.status, out.step.removed) == ("found", removed)
        rules = tuple(r for r in rules if r.name not in out.step.removed)
    assert not rules


def test_search_limitations_tau_exhausts_small():
    system = load("limitations_tau")
    for kind in ("arithmetic", "tropical", "arctic"):
        out = search_wtg(
            system.rules, system.framework, SEMIRINGS[kind], SearchBudget(1, 4, 120)
        )
        assert out.status == "exhausted"
    assert any("epimorphism" in w for w in search_wtg(
        system.rules, system.framework, SEMIRINGS["arithmetic"], SearchBudget(1, 2, 60)
    ).warnings)


def test_search_leaves_no_reference_cycles():
    # a cycle through the search state keeps it alive until the cyclic
    # collector runs, and so raises the peak memory of repeated searches
    system = load("limitations_tau")
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for kind in SEMIRINGS.values():
            search_wtg(system.rules, system.framework, kind, SearchBudget(2, 2, 60))
        gc.collect()
        kinds = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not kinds & {"_Search", "_Problem", "Morphism", "CGraph"}


def test_run_strategy_empty_system_is_terminating():
    system = load("loop_unfolding")
    system.rules = ()
    res = run_strategy(system, DEFAULT_STRATEGY)
    assert res.certificate.verdict == "terminating"
    assert res.certificate.steps == ()


def test_run_strategy_never_successful():
    system = load("limitations_tau")
    res = run_strategy(system, "arithmetic(size=1,bits=2,timeout=10)")
    assert res.certificate.verdict == "failed"
    assert res.certificate.remaining == ("tau",)


def test_prover_output_passes_checker():
    for name in ("loop_unfolding", "morphism_counting", "limitations"):
        system = load(name)
        res = run_strategy(system, DEFAULT_STRATEGY)
        assert check_certificate(system, res.certificate).accepted


def test_default_strategy_reproduces_the_pinned_certificates():
    # tests/certificates holds each shipped system's default-strategy
    # certificate, text and JSON; search changes must keep them byte-identical
    pinned = Path(__file__).resolve().parent / "certificates"
    for path in sorted(SYSTEMS.glob("*.gts")):
        cert = run_strategy(parse_system_file(path.read_text()), DEFAULT_STRATEGY).certificate
        assert write_certificate(cert) == (pinned / f"{path.stem}.cert").read_text(), path.stem
        assert certificate_to_json(cert) == (pinned / f"{path.stem}.json").read_text(), path.stem


def test_search_determinism():
    system = load("string_rules")
    a = run_strategy(system, DEFAULT_STRATEGY)
    b = run_strategy(system, DEFAULT_STRATEGY)
    assert write_certificate(a.certificate) == write_certificate(b.certificate)


def test_published_loop_unfolding_assignment_removes_unfold():
    # the published assignment (both loops weight 2, everything present)
    # is a leaf that removes unfold
    system = load("loop_unfolding")
    problem = _problem(system, SEMIRINGS["arithmetic"], 2, 2)
    search = _Search(problem, math.inf)
    T = problem.T
    loop_gids = [
        problem.offset[1] + i for i in range(T.n(1)) if T.args[1][i][0] == T.args[1][i][1]
    ]
    for depth, v in enumerate(problem.var_order):
        value = 2 if v in loop_gids else 1
        search.val[v] = search.lo[v] = search.hi[v] = value
        search.undecided_mask &= ~problem.bit[v]
        for cid in search.var_cids[v]:
            search.cstate[cid] = search._eval(search, cid)
    _count_blockers(search)
    entries = search._leaf(target=1)
    assert entries is not None and [e[0] for e in entries] == ["unfold"]


def test_collapse_test_runs_once_per_rule(monkeypatch):
    import dpoterm.prover as prover

    calls = []
    original = prover.detect_collapse_epi

    def counted(rule):
        calls.append(rule.name)
        return original(rule)

    monkeypatch.setattr(prover, "detect_collapse_epi", counted)
    system = load("limitations_tau")
    out = search_wtg(
        system.rules, system.framework, SEMIRINGS["arithmetic"], SearchBudget(3, 3, 60)
    )
    assert out.status == "exhausted"  # so sizes 1, 2 and 3 were all built
    assert len(calls) == len(system.rules)


def _string_system(k):
    """a^k b -> a^k c and c d^k -> d^k b on edge-labelled paths with
    interface {first, last}, unrestricted matching."""
    blocks = ["signature\n  V\n  edge[a,b,c,d](V,V)\nend"]
    ends = f"{{ x0 -> x0, x{k + 1} -> x{k + 1} }}"
    for rule, lhs, rhs in (("rho", "a" * k + "b", "a" * k + "c"),
                           ("tau", "c" + "d" * k, "d" * k + "b")):
        for side, word in (("L", lhs), ("R", rhs)):
            lines = [f"graph {side}{rule}"] + [f"  V x{i}" for i in range(k + 2)]
            lines += [f"  edge e{i} [{c}] (x{i}, x{i + 1})" for i, c in enumerate(word)]
            blocks.append("\n".join(lines + ["end"]))
        blocks.append(f"graph K{rule}\n  V x0\n  V x{k + 1}\nend")
        blocks.append(f"rule {rule}\n  L = L{rule}\n  K = K{rule}\n  R = R{rule}\n"
                      f"  l = {ends}\n  r = {ends}\nend")
    return "\n".join(blocks + ["framework unrestricted", ""])


def test_the_collapse_pre_check_refutes_only_rules_that_do_not_collapse():
    systems = [load(path.stem) for path in sorted(SYSTEMS.glob("*.gts"))]
    systems += [parse_system_file(_string_system(k)) for k in range(1, 6)]
    refuted = collapsing = 0
    for rule in (r for system in systems for r in system.rules):
        collapses = detect_collapse_epi(rule)
        assert _may_collapse(rule) or not collapses, rule.name
        refuted += not _may_collapse(rule)
        collapsing += collapses
    assert (refuted, collapsing) == (20, 2)


def test_a_refuted_collapse_test_is_never_run(monkeypatch):
    def refuse(rule):
        raise AssertionError(f"collapse test run on {rule.name}")

    monkeypatch.setattr("dpoterm.prover.detect_collapse_epi", refuse)
    result = run_strategy(parse_system_file(_string_system(6)), DEFAULT_STRATEGY)
    assert result.certificate.verdict == "terminating"


def test_search_node_counts_pin_the_search_tree():
    # pruning may remove only subtrees without solutions, so the outcome
    # stays and the count may only fall: each case pins its count (new)
    # under that of the search before it forced present the elements
    # every closure requires and cancelled shared factors (old)
    tau = load("limitations_tau")
    expected = {  # (old, new) per size
        "arithmetic": [(9, 9), (18, 18), (27, 27)],
        "tropical": [(53, 9), (909, 865), (8263, 8219)],
        "arctic": [(9, 9), (18, 18), (27, 27)],
    }
    for kind, per_size in expected.items():
        for size, (old, new) in enumerate(per_size, start=1):
            out = search_wtg(
                tau.rules, tau.framework, SEMIRINGS[kind], SearchBudget(size, 3, 3600)
            )
            assert out.nodes <= old, (kind, size)
            assert (out.status, out.nodes) == ("exhausted", new), (kind, size)
    # the exhaustion that the default strategy walks on limitations_tau
    for kind, nodes in (("arithmetic", 18), ("tropical", 2_481), ("arctic", 18)):
        out = search_wtg(tau.rules, tau.framework, SEMIRINGS[kind], SearchBudget(2, 4, 3600))
        assert (out.status, out.nodes) == ("exhausted", nodes), kind
    tree = load("tree_counter")
    out = search_wtg(
        tree.rules, tree.framework, SEMIRINGS["arithmetic"], SearchBudget(1, 4, 3600)
    )
    assert out.nodes <= 255
    assert (out.status, out.nodes) == ("exhausted", 76)
    out = search_wtg(
        tree.rules, tree.framework, SEMIRINGS["arithmetic"], SearchBudget(2, 4, 3600)
    )
    assert out.nodes <= 3_532
    assert (out.status, out.step.removed, out.nodes) == ("found", ("r1", "r2"), 3_353)


# the string rules a^3 b -> a^3 c and c d^3 -> d^3 b; at size 2 their
# constraints hold identical terms, which the build merges
STRING3 = """\
signature
  V
  edge[a,b,c,d](V,V)
end

graph Lrho
  V x0
  V x1
  V x2
  V x3
  V x4
  edge e0 [a] (x0, x1)
  edge e1 [a] (x1, x2)
  edge e2 [a] (x2, x3)
  edge e3 [b] (x3, x4)
end

graph K
  V x0
  V x4
end

graph Rrho
  V x0
  V x1
  V x2
  V x3
  V x4
  edge e0 [a] (x0, x1)
  edge e1 [a] (x1, x2)
  edge e2 [a] (x2, x3)
  edge e3 [c] (x3, x4)
end

graph Ltau
  V x0
  V x1
  V x2
  V x3
  V x4
  edge e0 [c] (x0, x1)
  edge e1 [d] (x1, x2)
  edge e2 [d] (x2, x3)
  edge e3 [d] (x3, x4)
end

graph Rtau
  V x0
  V x1
  V x2
  V x3
  V x4
  edge e0 [d] (x0, x1)
  edge e1 [d] (x1, x2)
  edge e2 [d] (x2, x3)
  edge e3 [b] (x3, x4)
end

rule rho
  L = Lrho
  K = K
  R = Rrho
  l = { x0 -> x0, x4 -> x4 }
  r = { x0 -> x0, x4 -> x4 }
end

rule tau
  L = Ltau
  K = K
  R = Rtau
  l = { x0 -> x0, x4 -> x4 }
  r = { x0 -> x0, x4 -> x4 }
end

framework unrestricted
"""


# deletes a b-loop beside two a-loops that the interface keeps: under
# unrestricted matches an a-edge is not admissible, so it weighs one
def _seven_loops() -> str:
    """One sort V with loop labels a1..a7. r0 deletes an a1 loop, and wi
    turns an a(i+1) loop into an a(i) loop (a8 = a1), which forces all
    seven loop weights equal. The identity z on two nodes makes the node
    shape inadmissible under unrestricted matching. At size 1 and bits 1
    the maximum cost is 7 in every semiring, and the only proofs weigh
    every loop at its maximum."""
    labels = [f"a{i}" for i in range(1, 8)]
    lines = ["signature", "  V", f"  E[{','.join(labels)}](V,V)", "end"]
    lines += ["graph N", "  V x", "end", "graph N2", "  V x", "  V y", "end"]
    for a in labels:
        lines += [f"graph L{a}", "  V x", f"  E e [{a}] (x, x)", "end"]
    sides = [("r0", "La1", "N")] + [(f"w{i}", f"La{i % 7 + 1}", f"La{i}") for i in range(1, 8)]
    for name, left, right in sides:
        lines += [f"rule {name}", f"  L = {left}", "  K = N", f"  R = {right}"]
        lines += ["  l = { x -> x }", "  r = { x -> x }", "end"]
    lines += ["rule z", "  L = N2", "  K = N2", "  R = N2"]
    lines += ["  l = { x -> x, y -> y }", "  r = { x -> x, y -> y }", "end"]
    return "\n".join(lines + ["framework unrestricted", ""])


SEVEN_LOOPS = _seven_loops()


def test_cost_tiers_end_at_the_maximum_cost():
    """The last tier is the maximum cost, so an assignment that costs it
    is visited; seven loops that weigh their maximum cost 7."""
    assert [_tiers(m)[-1] for m in range(31)] == list(range(31))
    system = parse_system_file(SEVEN_LOOPS)
    for name, kind in SEMIRINGS.items():
        problem = _problem(system, kind, 1, 1)
        assert problem.max_cost == 7
        out = search_wtg(system.rules, system.framework, kind, SearchBudget(1, 1, 3600))
        assert (out.status, out.step.removed, out.nodes) == ("found", ("r0",), 147), name
        assert [w for _, _, w in out.step.elements] == [kind.one + 1] * 7, name
        result = check_certificate(system, _one_step_certificate(system, out.step))
        assert result.accepted, (name, result.reason)


TWO_KEPT_LOOPS = """\
signature
  V
  edge[a,b](V,V)
end

graph L
  V x
  edge e1 [a] (x, x)
  edge e2 [a] (x, x)
  edge e3 [b] (x, x)
end

graph K
  V x
  edge e1 [a] (x, x)
  edge e2 [a] (x, x)
end

rule del
  L = L
  K = K
  R = K
  l = { x -> x, e1 -> e1, e2 -> e2 }
  r = { x -> x, e1 -> e1, e2 -> e2 }
end

framework unrestricted
"""

# a base sort with labels: trading an edge for a [g]-labelled element
LABELLED_BASE = """\
signature
  V
  C[r,g]
  E(V, V)
end

graph L
  V x
  V y
  E e (x, y)
end

graph K
  V x
  V y
end

graph R
  V x
  V y
  C c [g]
end

rule trade
  L = L
  K = K
  R = R
  l = { x -> x, y -> y }
  r = { x -> x, y -> y }
end

framework monic
"""


def test_the_saturated_graph_realizes_every_flower_and_closure():
    """The search builds its closure candidates without a test for a
    missing flower morphism or saturation closure: the saturated graph
    realizes every argument tuple, so for every flower base fb each
    flower morphism of a left side exists, and so does the saturation
    closure of every c: L -> T with fb. A labelled base sort holds n
    elements per label, and the symmetry swaps only those of one label."""
    systems = [load(path.stem) for path in sorted(SYSTEMS.glob("*.gts"))]
    systems.append(parse_system_file(LABELLED_BASE))
    closures = 0
    for system, n in itertools.product(systems, (1, 2)):
        T = complete_type_graph(system.sig, n)
        fbases = list(flower_bases(T))
        for rule in system.rules:
            for fb in fbases:
                assert flower_morphism(rule.left, T, fb) is not None
                for c in enumerate_homs(rule.left, T):
                    start = image_elements(c) | {(s, i) for (s, _), i in fb.items()}
                    assert saturation_closure(T, start) is not None
                    closures += 1
    assert closures > 0
    labelled = parse_system_file(LABELLED_BASE)
    problem = _problem(labelled, SEMIRINGS["tropical"], 1, 2)
    assert problem.T.labels[1] == ("r", "g", "r", "g")
    # V0 <-> V1 with the edges on them, then r0 <-> r1 and g0 <-> g1
    assert [[g for g, h in enumerate(perm) if g != h] for perm in problem.sym_perms] == [
        [0, 1, 6, 7, 8, 9], [2, 4], [3, 5]
    ]


def test_node_counts_pin_the_search_tree_where_terms_merge():
    # simple_fold at size 2 and string3 hold duplicate terms; the old
    # counts were measured before the search forced present the elements
    # every closure requires and cancelled shared factors, and bound the
    # new ones, as pruning may remove only subtrees without solutions.
    # At size 1 the string rules are refuted by arithmetic only once both
    # hold: tau's sides become c against b when d is forced present.
    fold = load("simple_fold")
    string3 = parse_system_file(STRING3)
    strings = load("string_rules")
    cases = [
        (fold, "arithmetic", 1, 4, "exhausted", (), 62, 9),
        (fold, "arithmetic", 2, 4, "exhausted", (), 546, 493),
        (fold, "tropical", 1, 4, "exhausted", (), 62, 9),
        (fold, "tropical", 2, 4, "found", ("fold",), 75, 22),
        (fold, "arctic", 1, 4, "exhausted", (), 62, 9),
        (fold, "arctic", 2, 4, "exhausted", (), 546, 493),
        (string3, "arithmetic", 2, 2, "found", ("rho",), 523, 314),
        (string3, "tropical", 2, 2, "found", ("rho",), 3_881, 3_672),
        (string3, "arctic", 2, 2, "found", ("rho",), 2_156, 1_947),
        (string3, "arithmetic", 1, 4, "exhausted", (), 2_848, 385),
        (strings, "arithmetic", 1, 4, "exhausted", (), 2_848, 385),
    ]
    for system, kind, size, bits, status, removed, old, new in cases:
        out = search_wtg(
            system.rules, system.framework, SEMIRINGS[kind], SearchBudget(size, bits, 3600)
        )
        assert out.nodes <= old, (kind, size)
        got = out.step.removed if out.step else ()
        assert (out.status, got, out.nodes) == (status, removed, new), (kind, size)
    for system, before, after in ((fold, 12, 10), (string3, 128, 112)):
        problem = _problem(system, SEMIRINGS["arithmetic"], 1, 2)
        assert sum(len(c[2]) + len(c[3]) for c in problem.constraints) == after
        assert sum(t[2] for c in problem.constraints for t in c[2] + c[3]) == before


def test_every_interface_assignment_into_the_saturated_graph_extends_along_l():
    """Every rule's left leg is monic, so every t_K: K -> T into a
    saturated graph extends along l, and the search, which keeps one
    constraint per t_K with an extension along l or r, constrains every
    t_K. Along r this fails."""
    no_right = {}
    for path in sorted(SYSTEMS.glob("*.gts")):
        system = load(path.stem)
        for n in (1, 2, 3):
            problem = _problem(system, SEMIRINGS["arithmetic"], 1, n)
            T = problem.T
            for ri, rule in enumerate(system.rules):
                t_ks = {t_k.maps for t_k in enumerate_homs(rule.interface, T)}
                assert set(extensions_by_restriction(rule.l, T)) == t_ks, (path.stem, n)
                assert sum(c[0] == ri for c in problem.constraints) == len(t_ks), (path.stem, n)
                if n == 2:
                    rights = extensions_by_restriction(rule.r, T)
                    missed, total = no_right.get(path.stem, (0, 0))
                    no_right[path.stem] = (missed + len(t_ks - set(rights)), total + len(t_ks))
    # (t_Ks without an extension along r, t_Ks) at size 2
    assert {k: v for k, v in no_right.items() if v[0]} == {
        "limitations": (4, 16),
        "simple_fold": (2, 4),
    }


def test_timeout_is_reported():
    system = load("tree_counter")
    res = run_strategy(system, "arithmetic(size=2,bits=4,timeout=0)")
    assert res.certificate.verdict == "failed"
    assert any(
        "arithmetic" in w and "size 1" in w and "0 s timeout" in w for w in res.warnings
    )


def test_timeout_is_honoured_when_nodes_are_few():
    # no size here has more than a few hundred nodes, so the clock must be
    # read at every node, not every few thousand
    system = load("simple_fold")
    out = search_wtg(
        system.rules, system.framework, SEMIRINGS["arithmetic"], SearchBudget(8, 1, 0)
    )
    assert out.status == "timeout"
    assert any("size 1" in w and "0 s timeout" in w for w in out.warnings)


def test_a_timeout_covers_the_collapse_test(monkeypatch):
    system = load("simple_fold")

    def slow(rule):
        time.sleep(1.1)
        return detect_collapse_epi(rule)

    monkeypatch.setattr("dpoterm.prover.detect_collapse_epi", slow)
    out = search_wtg(
        system.rules, system.framework, SEMIRINGS["tropical"], SearchBudget(1, 1, 1)
    )
    assert out.status == "timeout"


def _search_state(search):
    return (
        list(search.cstate),
        search.weak_blocked,
        list(search.uniform_blocked),
        list(search.val),
        search.absent_mask,
        search.undecided_mask,
        list(search.lo),
        list(search.hi),
    )


def test_dfs_restores_search_state():
    tree = load("tree_counter")
    problem = _problem(tree, SEMIRINGS["arithmetic"], 4, 2)
    search = _Search(problem, math.inf)
    start = _search_state(search)
    tier = 0
    while search.run(tier, target=1) is None:
        assert _search_state(search) == start
        tier += 1
    assert tier == 3
    assert _search_state(search) == start
    assert search.run(5, 3, node_limit=400_000) is None
    assert _search_state(search) == start

    tau = load("limitations_tau")
    problem = _problem(tau, SEMIRINGS["tropical"], 3, 2)
    search = _Search(problem, math.inf)
    start = _search_state(search)
    assert search.run(problem.max_cost, target=1) is None
    assert _search_state(search) == start

    # a forced a-loop that weighs one is decided only at its depth
    loops = parse_system_file(TWO_KEPT_LOOPS)
    problem = _problem(loops, SEMIRINGS["arithmetic"], 2, 1)
    search = _Search(problem, math.inf)
    start = _search_state(search)
    assert search.run(problem.max_cost, target=1) is not None
    assert _search_state(search) == start


def _count_blockers(search):
    """Count the blockers among search's constraint states afresh, as
    _Search.__init__ does."""
    search.weak_blocked = sum(st[3] and not st[0] for st in search.cstate)
    search.uniform_blocked[:] = [0] * len(search.p.rules)
    for (ri, *_), st in zip(search.cons, search.cstate):
        if st[3] and not (st[1] or st[2]):
            search.uniform_blocked[ri] += 1


def _assign(search, values, cap=None):
    """Set every variable in values (None = undecided) with the bounds
    the evaluators read, and re-evaluate every constraint from scratch.
    An undecided weight is bounded above by its maximum, or by cap when
    that is less: the heaviest weight a finite cost budget leaves it.
    Each state gets a fifth flag, whether the constraint is vacuous: its
    t_K support holds an absent element, as _Search._relevant reads it."""
    p = search.p
    search.absent_mask = search.undecided_mask = 0
    for v, value in values.items():
        search.val[v] = value
        if value is None:
            search.lo[v] = p.neutral
            search.hi[v] = p.wmax[v] if cap is None else min(p.wmax[v], cap)
        else:
            search.lo[v] = search.hi[v] = value
        if value is None:
            search.undecided_mask |= p.bit[v]
        elif value == ABSENT:
            search.absent_mask |= p.bit[v]
    return [
        (*search._eval(search, cid), bool(c[1] & search.absent_mask))
        for cid, c in enumerate(search.cons)
    ]


def _one_step_certificate(system, step):
    left = tuple(sorted(r.name for r in system.rules if r.name not in step.removed))
    return Certificate(system_hash(system), (step,), system.verdict(left), left)


def test_leaves_pass_the_checker_and_bounds_bracket_full_assignments():
    """An oracle for the search's bound arithmetic, independent of the
    DFS. A random full assignment that _leaf accepts gives a one-step
    certificate the checker accepts. A constraint that _eval finds
    definitely active and not weakly decreasing under a partial
    assignment stays so under its completion; more generally the partial
    state over-approximates the completed one. The same holds for states
    computed under a finite cost budget and every completion within it,
    and for the partial extension that decides the next variable under
    the smaller budget its cost leaves."""
    rng = random.Random(2024)
    # streams of their own, so the earlier cases stay as they were
    budget_rng = random.Random(2025)
    next_rng = random.Random(2026)
    leaves = blocked = 0
    capped_blocked = tightened = extended = 0
    systems = [parse_system_file(path.read_text()) for path in sorted(SYSTEMS.glob("*.gts"))]
    for system, kind, size, bits in itertools.product(
        systems, ("arithmetic", "tropical", "arctic"), (1, 2), (1, 2)
    ):
        problem = _problem(system, SEMIRINGS[kind], bits, size)
        search = _Search(problem, math.inf)
        for _ in range(100):
            full = {v: rng.choice(problem.domain[v]) for v in problem.var_order}
            complete = _assign(search, full)
            search.cstate[:] = [st[:4] for st in complete]
            _count_blockers(search)
            entries = search._leaf(1)
            if entries is not None:
                leaves += 1
                step = _masked_step(problem, entries, search.val)
                result = check_certificate(system, _one_step_certificate(system, step))
                assert result.accepted, (kind, size, bits, result.reason)
            for _ in range(3):
                keep = rng.random()
                partial = {v: x if rng.random() < keep else None for v, x in full.items()}
                for st, c in zip(_assign(search, partial), complete):
                    if st[3] and not st[0]:
                        blocked += 1
                        assert c[3] and not c[0]
                    # weak, strict and both-empty stay possible where they
                    # hold, unless the completion made the constraint vacuous
                    assert c[4] or all(st[i] or not c[i] for i in range(3))
                    assert c[3] or not st[3]
                    assert c[4] or not st[4]
        for _ in range(10):
            full = {v: budget_rng.choice(problem.domain[v]) for v in problem.var_order}
            keep = budget_rng.random()
            partial = {v: x if budget_rng.random() < keep else None for v, x in full.items()}
            left = budget_rng.randrange(max(problem.wmax) - problem.neutral + 1)
            loose = _assign(search, partial)
            states = _assign(search, partial, cap=left + problem.neutral)
            tightened += sum(st != lst for st, lst in zip(states, loose))
            undecided = [v for v, x in partial.items() if x is None]
            for _ in range(2):
                completion = dict(partial)
                budget = left
                budget_rng.shuffle(undecided)
                for v in undecided:
                    afforded = [x for x in problem.domain[v] if _cost(problem, x) <= budget]
                    x = budget_rng.choice(afforded)
                    completion[v] = x
                    budget -= _cost(problem, x)
                capped_blocked += sum(st[3] and not st[0] for st in states)
                _assert_covers(states, _assign(search, completion))
            # Deciding the first undecided variable of var_order, under the
            # smaller cap its cost leaves the others, tightens every state:
            # the DFS's blockers and the constraints it leaves unevaluated
            # rely on this.
            v = next((v for v in problem.var_order if partial[v] is None), None)
            if v is not None:
                x = next_rng.choice([x for x in problem.domain[v] if _cost(problem, x) <= left])
                cap = left - _cost(problem, x) + problem.neutral
                extension = _assign(search, {**partial, v: x}, cap=cap)
                _assert_covers(states, extension)
                extended += sum(st != e for st, e in zip(states, extension))
    assert leaves > 0 and blocked > 0
    assert capped_blocked > 0 and tightened > 0 and extended > 0


def _cost(problem, x):
    """A weight w costs w - one and absence is free."""
    return 0 if x == ABSENT else x - problem.neutral


def _reference_side(terms, absent, undecided, val, kind, wmax):
    """(minpos, maxpos, emptyable) over the side's live terms, one term
    per hom with (support, gids, exponents): the generic evaluator the
    per-semiring ones replaced, kept as their reference."""
    if kind == "arithmetic":
        minpos = maxpos = 0
    elif kind == "tropical":
        minpos = maxpos = POS_INF
    else:
        minpos = maxpos = NEG_INF
    emptyable = True
    for sup, gids, coeffs in terms:
        if sup & absent:
            continue
        tdef = not (sup & undecided)
        if tdef:
            emptyable = False
        if kind == "arithmetic":
            lo = hi = 1
            for i, g in enumerate(gids):
                v = val[g]
                if v is None:
                    hi *= wmax[g] ** coeffs[i]
                else:
                    lo *= v ** coeffs[i]
                    hi *= v ** coeffs[i]
            maxpos += hi
            if tdef:
                minpos += lo
            continue
        lo = hi = 0
        for i, g in enumerate(gids):
            v = val[g]
            if v is None:
                hi += wmax[g] * coeffs[i]
            else:
                lo += v * coeffs[i]
                hi += v * coeffs[i]
        if kind == "tropical":
            minpos = min(minpos, lo)
            if tdef:
                maxpos = min(maxpos, hi)
        else:
            if tdef:
                minpos = max(minpos, lo)
            maxpos = max(maxpos, hi)
    return minpos, maxpos, emptyable


def _reference_eval(search, constraint, cap=None):
    """The state of constraint, with undecided weights bounded above by
    their maximum, or by cap when that is less."""
    ri, tk_sup, lterms, rterms = constraint
    absent, undecided = search.absent_mask, search.undecided_mask
    if tk_sup & absent:
        return (True, True, True, False, True)
    kind, wmax = search.p.kind.kind, search.p.wmax
    if cap is not None:
        wmax = [min(w, cap) for w in wmax]
    _, lmax, lempty = _reference_side(lterms, absent, undecided, search.val, kind, wmax)
    rmin, _, rempty = _reference_side(rterms, absent, undecided, search.val, kind, wmax)
    l_top = POS_INF if kind == "tropical" and lempty else lmax
    r_bot = NEG_INF if kind == "arctic" and rempty else rmin
    return (l_top >= r_bot, l_top > r_bot, lempty and rempty, not (tk_sup & undecided), False)


def _one_term_per_hom(terms):
    """Merged (support, factors, k) terms back to k copies of
    (support, gids, exponents)."""
    out = []
    for sup, factors, k in terms:
        gids = tuple(sorted(set(factors)))
        out += [(sup, gids, tuple(factors.count(g) for g in gids))] * k
    return tuple(out)


def _reference_states(search, expanded, values, cap=None):
    """The reference's states of the untightened constraints expanded
    under values, assigned with the masks of search's problem."""
    _assign(search, values, cap)
    return [_reference_eval(search, c, cap) for c in expanded]


def _completion(rng, problem, partial, cap):
    """partial with each undecided weight drawn at most cap."""
    return {
        v: rng.choice([y for y in problem.domain[v] if y <= cap]) if x is None else x
        for v, x in partial.items()
    }


def _assert_no_looser(states, reference):
    for st, ref in zip(states, reference):
        # weak, strict and both-empty stay possible no more often, the
        # constraint is definitely active no less often, and as often vacuous
        assert all(ref[i] or not st[i] for i in range(3)), (st, ref)
        assert st[3] or not ref[3], (st, ref)
        assert st[4] == ref[4], (st, ref)


def _assert_covers(states, completed):
    for st, c in zip(states, completed):
        assert c[4] or all(st[i] or not c[i] for i in range(3)), (st, c)
        assert c[3] or not st[3], (st, c)
        assert c[4] or not st[4], (st, c)


def test_evaluators_equal_the_generic_reference_on_one_term_per_hom(monkeypatch):
    """Each semiring's evaluator over merged terms, after the build forced
    present the elements every closure requires and cancelled shared
    factors, gives the same state as the generic one over one term per
    hom of the untightened constraints on random full assignments. On
    partial ones, also with undecided weights capped by a finite budget,
    its state is no looser than the reference's, and it still covers
    every completion, which keeps the forced elements present."""
    rng = random.Random(7)
    # a stream of its own, so the uncapped cases stay as they were
    cap_rng = random.Random(8)
    capped = tighter = 0
    systems = [parse_system_file(path.read_text()) for path in sorted(SYSTEMS.glob("*.gts"))]
    systems.append(parse_system_file(STRING3))
    merged = compared = 0
    for system, kind, size, bits in itertools.product(
        systems, ("arithmetic", "tropical", "arctic"), (1, 2), (1, 2)
    ):
        problem = _problem(system, SEMIRINGS[kind], bits, size)
        with monkeypatch.context() as m:
            m.setattr(_Problem, "_tighten", lambda self: None)
            plain = _problem(system, SEMIRINGS[kind], bits, size)
        assert plain.var_order == problem.var_order
        search, reference = _Search(problem, math.inf), _Search(plain, math.inf)
        expanded = [
            (ri, tk_sup, _one_term_per_hom(lterms), _one_term_per_hom(rterms))
            for ri, tk_sup, lterms, rterms in plain.constraints
        ]
        merged += sum(t[2] > 1 for c in plain.constraints for t in c[2] + c[3])
        uncapped = max(problem.wmax)
        for _ in range(20):
            full = {v: rng.choice(problem.domain[v]) for v in problem.var_order}
            complete = _assign(search, full)
            assert complete == _reference_states(reference, expanded, full), (kind, size, bits)
            compared += len(complete)
            for keep in [rng.random() for _ in range(3)]:
                partial = {v: x if rng.random() < keep else None for v, x in full.items()}
                states = _assign(search, partial)
                expected = _reference_states(reference, expanded, partial)
                _assert_no_looser(states, expected)
                _assert_covers(states, complete)
                tighter += states != expected
        for _ in range(5):
            full = {v: cap_rng.choice(problem.domain[v]) for v in problem.var_order}
            keep = cap_rng.random()
            partial = {v: x if cap_rng.random() < keep else None for v, x in full.items()}
            cap = cap_rng.randint(problem.neutral, uncapped)
            states = _assign(search, partial, cap)
            _assert_no_looser(states, _reference_states(reference, expanded, partial, cap))
            completion = _completion(cap_rng, problem, partial, cap)
            _assert_covers(states, _assign(search, completion))
            capped += len(states)
    assert merged > 0 and compared > 0 and capped > 0 and tighter > 0


def test_tightening_keeps_every_found_step(monkeypatch):
    """Forcing present the elements every closure requires, and cancelling
    the factors both sides share, prune only subtrees without a leaf: each
    search finds the step, or exhausts, as without them, in no more nodes.
    In TWO_KEPT_LOOPS the forced a-loop weighs one, and it keeps its place
    in the order with that one value."""
    systems = [(path.stem, load(path.stem)) for path in sorted(SYSTEMS.glob("*.gts"))]
    systems += [("string3", parse_system_file(STRING3))]
    systems += [("two_kept_loops", parse_system_file(TWO_KEPT_LOOPS))]
    one_valued = 0
    for (name, system), kind, size in itertools.product(
        systems, ("arithmetic", "tropical", "arctic"), (1, 2)
    ):
        if size == 2 and name == "tree_counter":
            continue  # over 10^5 nodes over min or max
        args = (system.rules, system.framework, SEMIRINGS[kind], SearchBudget(size, 2, 3600))
        out = search_wtg(*args)
        with monkeypatch.context() as m:
            m.setattr(_Problem, "_tighten", lambda self: None)
            plain = search_wtg(*args)
        assert (out.status, out.step) == (plain.status, plain.step), (name, kind, size)
        assert out.nodes <= plain.nodes, (name, kind, size)
        problem = _problem(system, SEMIRINGS[kind], 2, size)
        one_valued += sum(len(problem.domain[v]) == 1 for v in problem.var_order)
    assert one_valued == 3


def test_trimmed_constraint_lists_keep_every_search(monkeypatch):
    """Deciding a variable re-evaluates only the constraints that a closure
    candidate reads and those whose t_K support holds no later variable,
    and over tropical and arctic a tried value stops at a uniform blocker
    that leaves fewer than target rules. Each dropped constraint is not
    definitely active before its last t_K variable is decided, and each
    early stop is a value that _prune rejects, so every search visits the
    same tree as with neither: the same status, step and node count."""

    def neither(m):
        m.setattr(_Problem, "_trim_var_cids", lambda self: None)
        m.setattr(_Search, "_shut", lambda self, cid, target: False)

    systems = [(path.stem, load(path.stem)) for path in sorted(SYSTEMS.glob("*.gts"))]
    systems += [("string3", parse_system_file(STRING3))]
    systems += [("two_kept_loops", parse_system_file(TWO_KEPT_LOOPS))]
    dropped = 0
    for (name, system), kind, size in itertools.product(
        systems, ("arithmetic", "tropical", "arctic"), (1, 2)
    ):
        if size == 2 and name == "tree_counter" and kind != "arithmetic":
            continue  # 984,667 and 392,811 nodes, searched twice
        args = (system.rules, system.framework, SEMIRINGS[kind], SearchBudget(size, 2, 3600))
        out = search_wtg(*args)
        problem = _problem(system, SEMIRINGS[kind], 2, size)
        with monkeypatch.context() as m:
            neither(m)
            full = search_wtg(*args)
            untrimmed = _problem(system, SEMIRINGS[kind], 2, size)
        got, want = (out.status, out.step, out.nodes), (full.status, full.step, full.nodes)
        assert got == want, (name, kind, size)
        depth = {v: d for d, v in enumerate(problem.var_order)}
        closure = {cand.tkc_cid for cands in problem.cands for cand in cands}
        for v in problem.var_order:
            kept = set(problem.var_cids[v])
            assert problem.var_cids[v] == [c for c in untrimmed.var_cids[v] if c in kept]
            for cid in set(untrimmed.var_cids[v]) - kept:
                tk_sup = problem.constraints[cid][1]
                assert cid not in closure, (name, kind, size)
                assert any(depth[g] > depth[v] for g in problem._mask_gids(tk_sup))
                dropped += 1
    assert dropped > 0

    # the rules that can still be uniformly decreasing are counted against
    # the target: STRING3's arctic step at size 2 removes both of its
    # rules, and no tropical step removes three of tree_counter's six
    shut = []
    real = _Search._shut

    def counted(m):
        def shut_counted(self, cid, target):
            shut.append(real(self, cid, target))
            return shut[-1]

        m.setattr(_Search, "_shut", shut_counted)

    cases = [
        (parse_system_file(STRING3), "arctic", 1, 2, 2),
        (load("tree_counter"), "tropical", 4, 1, 3),
    ]
    for system, kind, bits, size, target in cases:
        walks = []
        for patch in (counted, neither):
            with monkeypatch.context() as m:
                patch(m)
                problem = _problem(system, SEMIRINGS[kind], bits, size)
                search = _Search(problem, math.inf)
                walk = []
                for tier in _tiers(problem.max_cost):
                    walk.append((search.run(tier, target), search.nodes))
                    if walk[-1][0] is not None:
                        break
                walks.append(walk)
        assert walks[0] == walks[1], (kind, target)
        assert (walks[0][-1][0] is not None) == (target == 2), (kind, target)
    assert True in shut and False in shut
