"""Acceptance suite: one test per criterion, each printing a verdict
line. All comparisons are exact; there are no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import replace
from pathlib import Path

from dpoterm import semiring as sr
from dpoterm.checker import Certificate, check_certificate, step_wtg
from dpoterm.dpo import OrientedSquare, enumerate_matches, pushout
from dpoterm.morphism import Morphism, compose, enumerate_homs
from dpoterm.prover import SearchBudget, search_wtg
from dpoterm.semiring import ARCTIC, ARITHMETIC, SEMIRINGS, TROPICAL
from dpoterm.sysfile import parse_system_file
from dpoterm.verify import random_instance
from dpoterm.wtg import (
    WeightedTypeGraph,
    element_at,
    weight_of_morphism,
    weight_of_object,
)

import worked_examples as ex
from conftest import graph, named_map, random_host_containing
from oracles import is_x_monic, representable_shapes, s_add, side_homs, side_weight

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

EXAMPLES = (
    "loop_unfolding",
    "reconfiguration",
    "simple_fold",
    "string_rules",
    "tree_counter",
    "morphism_counting",
    "limitations",
)


def load(name):
    return parse_system_file((SYSTEMS / f"{name}.gts").read_text())


def _ok(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


# --- criterion 1: example regressions --------------------------------------


def test_criterion_1_searched_proofs(searched):
    expect = {name: "terminating" for name in EXAMPLES}
    expect["limitations"] = "relatively-terminating"
    for name in EXAMPLES:
        system, cert, dt = searched[name]
        assert cert.verdict == expect[name], name
        assert check_certificate(system, cert).accepted, name
        assert dt < 60, f"{name} took {dt:.1f}s"
    assert [step.removed for step in searched["tree_counter"][1].steps] == [
        ("r1", "r2"),
        ("r3", "r5"),
        ("r4", "r6"),
    ]
    # limitations: rho removed with a weight-2 plus element
    lim = searched["limitations"][1].steps[0]
    assert lim.removed == ("rho",)
    assert any(s == "plus" and w == 2 for s, _, w in lim.elements)
    system, cert, dt = searched["limitations_tau"]
    assert cert.verdict == "failed" and cert.remaining == ("tau",)
    _ok("1 (searched proofs)", f"7 proofs + tau failure, max {max(s[2] for s in searched.values()):.1f}s")


def test_criterion_1_published_certificates(searched):
    for name in EXAMPLES:
        system = searched[name][0]
        cert = ex.published_certificate(name, system)
        got = check_certificate(system, cert)
        assert got.accepted, f"{name}: {got.reason}"
    _ok("1 (published certificates re-checked)")


def test_criterion_1_published_values():
    ru, fw, wtg, closure = ex.loop_unfolding()
    t_k = compose(closure, ru.l)
    assert (side_weight(wtg, ru.l, t_k), side_weight(wtg, ru.r, t_k)) == (2, 1)

    ru, fw, wtg, closure = ex.reconfiguration()
    t_k = compose(closure, ru.l)
    assert (side_weight(wtg, ru.l, t_k), side_weight(wtg, ru.r, t_k)) == (4, 2)

    l, r, wtg = ex.simple_fold_published_sides()
    t_k = Morphism(l.dom, wtg.T, ((0, 0),))
    assert side_weight(wtg, l, t_k) == 2
    assert sorted(weight_of_morphism(wtg, t) for t in side_homs(wtg, r, t_k)) == [1, 2, 2, 3]
    assert side_weight(wtg, r, t_k) == 1
    for maps in itertools.product(range(2), repeat=2):
        if maps != (0, 0):
            other = Morphism(l.dom, wtg.T, (maps,))
            assert side_homs(wtg, l, other) == [] == side_homs(wtg, r, other)

    rho, tau, wtg, closure = ex.string_t1()
    t_k = compose(closure, rho.l)
    assert (side_weight(wtg, rho.l, t_k), side_weight(wtg, rho.r, t_k)) == (3, 1)

    rules = ex.tree_rules()
    T1, wtg = ex.tree_t1()
    r1 = rules[0]
    flower = named_map(r1.left, T1, {"x": "p", "y": "p", "e": "p0"})
    t_k = compose(flower, r1.l)
    assert (side_weight(wtg, r1.l, t_k), side_weight(wtg, r1.r, t_k)) == (3, 2)
    t_q = Morphism(r1.interface, T1, ((1,), ()))
    assert (side_weight(wtg, r1.l, t_q), side_weight(wtg, r1.r, t_q)) == (2, 2)

    ru, fw, wtg, closure = ex.morphism_counting()
    for t_k in enumerate_homs(ru.interface, wtg.T):
        assert (side_weight(wtg, ru.l, t_k), side_weight(wtg, ru.r, t_k)) == (2, 1)

    rho, tau = ex.limitations_rules()
    T, wtg = ex.limitations_wtg()
    t_k = enumerate_homs(rho.interface, T)[0]
    assert (side_weight(wtg, rho.l, t_k), side_weight(wtg, rho.r, t_k)) == (2, 1)
    _ok("1 (published comparison values)", "2>1, 4>2, min(3,2,2,1)=1, 1+2>1, 1+2>1+1, 2>=2, 2>1")


def test_criterion_1_tau_exhaustion():
    system = load("limitations_tau")
    t0 = time.monotonic()
    for kind in ("arithmetic", "tropical", "arctic"):
        out = search_wtg(
            system.rules, system.framework, SEMIRINGS[kind], SearchBudget(3, 4, 3600)
        )
        assert out.status == "exhausted", kind
    _ok("1 (tau exhaustion size<=3 bits<=4)", f"{time.monotonic()-t0:.1f}s")


# --- criterion 2: semiring axioms -------------------------------------------


def _values(k):
    vals = list(range(8)) + [k.zero, k.one]
    return sorted({v for v in vals if sr.is_value(k, v)}, key=lambda v: (v,))


def test_criterion_2_semiring_axioms():
    checked = 0
    for k in (ARITHMETIC, TROPICAL, ARCTIC):
        vals = _values(k)
        zero, one = k.zero, k.one
        le = lambda a, b: sr.s_le(k, a, b)
        lt = lambda a, b: sr.s_lt(k, a, b)
        add = lambda a, b: s_add(k, a, b)
        mul = lambda a, b: sr.s_mul(k, a, b)
        # the checked operations and the plain ones that weighing uses
        for p_mul, p_add in ((mul, add), (k.mul, k.add)):
            for a, b, c in itertools.product(vals, repeat=3):
                checked += 1
                assert p_add(p_add(a, b), c) == p_add(a, p_add(b, c))
                assert p_mul(p_mul(a, b), c) == p_mul(a, p_mul(b, c))
                assert p_add(a, b) == p_add(b, a) and p_mul(a, b) == p_mul(b, a)
                assert p_mul(a, p_add(b, c)) == p_add(p_mul(a, b), p_mul(a, c))
                assert (p_add(a, b), p_mul(a, b)) == (add(a, b), mul(a, b))
            for a in vals:
                assert p_mul(a, zero) == zero and p_add(a, zero) == a
                assert p_mul(a, one) == a
        for x, xp, y, yp in itertools.product(vals, repeat=4):
            if le(x, xp) and le(y, yp):
                assert le(add(x, y), add(xp, yp))  # S1
            if lt(x, xp) and lt(y, yp):
                assert lt(add(x, y), add(xp, yp))  # S2
            if k.strictly_monotonic and lt(x, xp) and le(y, yp):
                assert lt(add(x, y), add(xp, yp))  # S5
        for x, xp, y in itertools.product(vals, repeat=3):
            if le(x, xp) and le(one, y):
                assert le(mul(x, y), mul(xp, y)) and le(mul(y, x), mul(y, xp))  # S3
            if lt(x, xp) and le(one, y) and y != zero:
                assert lt(mul(x, y), mul(xp, y)) and lt(mul(y, x), mul(y, xp))  # S4
        for x, y in itertools.product(vals, repeat=2):
            if le(one, x) and le(one, y) and x != zero and y != zero:
                v = mul(x, y)
                assert le(one, v) and v != zero  # S6
        for a, b, x, y in itertools.product(vals, repeat=4):
            if le(one, a) and le(one, b):
                s = add(a, b)
                if le(x, y):
                    assert le(mul(s, x), mul(s, y))  # S7
                if a != zero and b != zero and lt(x, y):
                    assert lt(mul(s, x), mul(s, y))  # S8
        # no infinite strict descent inside the finite test universe
        assert len(vals) <= 9
    _ok("2 (semiring axioms S1-S8)", f"{checked} triples, 3 semirings")


# --- criteria 3/4: decomposition and bijection oracles ----------------------


def _crafted_bounded_square(rng):
    """Two parallel interface edges merged on one leg only: the pushout
    injection identifies them, so the square is not weighable."""
    sig = ex.GRAPH_SIG
    a = graph(sig, ["x", "y"], [("e1", "x", "y"), ("e2", "x", "y")])
    b = graph(sig, ["x", "y"], [("e1", "x", "y"), ("e2", "x", "y")])
    c = graph(sig, ["u", "v"], [("e", "u", "v")])
    alpha = named_map(a, b, {"x": "x", "y": "y", "e1": "e1", "e2": "e2"})
    beta = named_map(a, c, {"x": "u", "y": "v", "e1": "e", "e2": "e"})
    d, in_b, in_c = pushout(alpha, beta)
    return OrientedSquare(alpha, beta, in_b, in_c)


def _random_square(rng, max_base=2, max_edges=3):
    sig = ex.GRAPH_SIG
    a = random_instance(sig, rng, max_base=max_base, max_elems=2)
    b = random_instance(sig, rng, max_base=max_base, max_elems=max_edges)
    c = random_instance(sig, rng, max_base=max_base, max_elems=max_edges)
    fs, gs = enumerate_homs(a, b), enumerate_homs(a, c)
    if not fs or not gs:
        return None
    alpha = fs[rng.randrange(len(fs))]
    beta = gs[rng.randrange(len(gs))]
    d, in_b, in_c = pushout(alpha, beta)
    if d.n(0) > 4 or d.n(1) > 4:
        return None
    return OrientedSquare(alpha, beta, in_b, in_c)


def _random_wtg(rng):
    sig = ex.GRAPH_SIG
    t = random_instance(sig, rng, max_base=2, max_elems=3)
    if t.n(1) == 0:
        return None
    elems = tuple(
        element_at(t, "edge", None, i, rng.randint(2, 3))
        for i in sorted(rng.sample(range(t.n(1)), k=min(2, t.n(1))))
    )
    return WeightedTypeGraph(t, elems, ARITHMETIC)


def test_criterion_3_decomposition_oracle():
    rng = random.Random(0xACC3)
    edge_shape = representable_shapes(ex.GRAPH_SIG)[1]
    exact_n = 0
    upper_n = 0
    while exact_n < 200 or upper_n < 200:
        if upper_n < 200 and (exact_n >= 200 or rng.random() < 0.4):
            square = _crafted_bounded_square(rng) if rng.random() < 0.5 else _random_square(rng)
        else:
            square = _random_square(rng)
        if square is None:
            continue
        wtg = _random_wtg(rng)
        if wtg is None:
            continue
        weighable = is_x_monic(square.beta_p, edge_shape[0]) and is_x_monic(
            square.alpha_p, edge_shape[0], outside_of=square.beta
        )
        phis = enumerate_homs(square.D, wtg.T)
        if not phis:
            continue
        for phi in phis[:4]:
            # both sides recomputed independently of the decomposition
            w = weight_of_morphism(wtg, phi)
            bound = sr.s_mul(
                ARITHMETIC,
                weight_of_morphism(wtg, compose(phi, square.beta_p)),
                weight_of_morphism(wtg, compose(phi, square.alpha_p), square.beta),
            )
            assert sr.s_le(ARITHMETIC, w, bound)
            if weighable:
                assert w == bound
        if weighable:
            exact_n += 1
        else:
            upper_n += 1
    _ok("3 (decomposition oracle)", f"{exact_n} weighable exact, {upper_n} bounded-above")


def test_criterion_4_pushout_morphism_bijection():
    rng = random.Random(0xACC4)
    done = 0
    while done < 200:
        square = _random_square(rng)
        if square is None:
            continue
        t = random_instance(ex.GRAPH_SIG, rng, max_base=2, max_elems=3)
        homs_d = enumerate_homs(square.D, t)
        homs_b = enumerate_homs(square.alpha.cod, t)
        homs_c = enumerate_homs(square.beta.cod, t)
        via = compose(square.beta_p, square.alpha)
        for t_a in enumerate_homs(square.alpha.dom, t):
            lhs = sum(1 for t_d in homs_d if compose(t_d, via) == t_a)
            rhs = sum(
                1
                for t_b in homs_b
                for t_c in homs_c
                if compose(t_b, square.alpha) == t_a
                and compose(t_c, square.beta) == t_a
            )
            assert lhs == rhs
        done += 1
    _ok("4 (pushout morphism bijection)", f"{done} squares")


# --- criterion 5: decreasing steps ------------------------------------------


def test_criterion_5_decreasing_steps(searched):
    rng = random.Random(0xACC5)
    total_steps = 0
    for name in EXAMPLES:
        system, cert, _ = searched[name]
        rules = {r.name: r for r in system.rules}
        present = dict(rules)
        for step in cert.steps:
            wtg = step_wtg(step)
            k = wtg.semiring
            hosts = []
            for i in range(30):
                if i % 2 == 0:
                    pattern = rules[step.removed[i // 2 % len(step.removed)]].left
                    hosts.append(random_host_containing(pattern, rng, extra_base=2, extra_elems=2))
                else:
                    hosts.append(random_instance(system.sig, rng, max_base=5, max_elems=4))
            for host in hosts:
                if host.n(0) > 5:
                    continue
                for rname, rule in present.items():
                    for m, diag in enumerate_matches(rule, host, system.framework):
                        total_steps += 1
                        wg = weight_of_object(wtg, diag.G)
                        wh = weight_of_object(wtg, diag.H)
                        if rname in step.removed:
                            assert sr.s_lt(k, wh, wg), (name, rname)
                        else:
                            assert sr.s_le(k, wh, wg), (name, rname)
            for rname in step.removed:
                del present[rname]
    assert total_steps > 300
    _ok("5 (decreasing steps)", f"{total_steps} rewrite steps checked")


# --- criterion 6: adversarial checker ----------------------------------------


def _mutations(system, cert: Certificate, rng: random.Random, count: int):
    """Deterministic single-field corruptions, each of a kind the
    checker is required to catch."""
    out = []
    arith = {"arithmetic"}
    while len(out) < count:
        kind = rng.randrange(7)
        sidx = rng.randrange(len(cert.steps)) if cert.steps else 0
        step = cert.steps[sidx] if cert.steps else None
        if kind == 0:  # corrupt the hash
            pos = rng.randrange(len(cert.system_hash))
            ch = "0" if cert.system_hash[pos] != "0" else "f"
            bad = replace(
                cert,
                system_hash=cert.system_hash[:pos] + ch + cert.system_hash[pos + 1:],
            )
            out.append(("hash", bad))
        elif kind == 1 and step and step.elements:  # illegal weight
            eidx = rng.randrange(len(step.elements))
            s, n, w = step.elements[eidx]
            illegal = 0 if step.semiring_kind in arith else -1
            els = list(step.elements)
            els[eidx] = (s, n, illegal)
            bad = replace(cert, steps=_swap(cert.steps, sidx, replace(step, elements=tuple(els))))
            out.append(("weight", bad))
        elif kind == 2 and step:  # strict classification without closure
            weak = [i for i, e in enumerate(step.entries) if e.classification == "weak"]
            idx = rng.choice(weak) if weak else rng.randrange(len(step.entries))
            entries = list(step.entries)
            entries[idx] = replace(entries[idx], classification="uniform", closure=None)
            bad = replace(cert, steps=_swap(cert.steps, sidx, replace(step, entries=tuple(entries))))
            out.append(("classification", bad))
        elif kind == 3 and step:  # unjustified removal
            weak = [e.rule for e in step.entries if e.classification == "weak"]
            extra = rng.choice(weak) if weak else "ghost"
            bad = replace(
                cert, steps=_swap(cert.steps, sidx, replace(step, removed=step.removed + (extra,)))
            )
            out.append(("removal", bad))
        elif kind == 4:  # verdict flip
            flip = "failed" if cert.verdict != "failed" else "terminating"
            bad = replace(cert, verdict=flip)
            out.append(("verdict", bad))
        elif kind == 5:  # remaining-list tamper
            bad = replace(cert, remaining=cert.remaining + ("ghost",))
            out.append(("remaining", bad))
        elif kind == 6 and step and len(step.entries) > 0:  # drop a rule entry
            idx = rng.randrange(len(step.entries))
            entries = step.entries[:idx] + step.entries[idx + 1:]
            bad = replace(cert, steps=_swap(cert.steps, sidx, replace(step, entries=entries)))
            out.append(("coverage", bad))
    return out


def _swap(steps, idx, new):
    return steps[:idx] + (new,) + steps[idx + 1:]


def test_criterion_6_checker_adversarial(searched):
    rng = random.Random(0xACC6)
    rejected = 0
    for name in EXAMPLES:
        system, cert, _ = searched[name]
        assert check_certificate(system, cert).accepted
        published = ex.published_certificate(name, system)
        assert check_certificate(system, published).accepted
        for label, bad in _mutations(system, cert, rng, 100):
            got = check_certificate(system, bad)
            assert not got.accepted, (name, label)
            rejected += 1
    _ok("6 (checker adversarial)", f"{rejected} mutations all rejected")


# --- criterion 7: determinism -------------------------------------------------


def test_criterion_7_determinism(searched, tmp_path):
    from dpoterm.cli import main

    for name in ("loop_unfolding", "string_rules", "limitations"):
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}.cert"
            code = main(
                [
                    "prove",
                    str(SYSTEMS / f"{name}.gts"),
                    "--seed",
                    "42",
                    "--out",
                    str(out),
                ]
            )
            assert code in (0, 2)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], name
    _ok("7 (determinism)", "byte-identical certificates")
