from __future__ import annotations

import random
import re
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from dpoterm import semiring as sr
from dpoterm.certificate import certificate_to_json, read_certificate, write_certificate
from dpoterm.checker import CertificateError, CheckResult, check_certificate
from dpoterm.graph import canonical_key, isomorphic
from dpoterm.morphism import compose, enumerate_homs
from dpoterm.semiring import ARCTIC, ARITHMETIC, TROPICAL
from dpoterm.verify import random_instance

from conftest import GRAPH_SIG
from oracles import s_add, s_pow
from test_graph import _permuted

kinds = st.sampled_from([ARITHMETIC, TROPICAL, ARCTIC])


def values_for(k):
    extra = [k.zero] if not isinstance(k.zero, int) else []
    return st.one_of(st.integers(min_value=0, max_value=40), st.sampled_from(extra or [0]))


@given(kinds, st.data())
@settings(max_examples=300, deadline=None)
def test_semiring_distributivity(k, data):
    a = data.draw(values_for(k))
    b = data.draw(values_for(k))
    c = data.draw(values_for(k))
    assert sr.s_mul(k, a, s_add(k, b, c)) == s_add(
        k, sr.s_mul(k, a, b), sr.s_mul(k, a, c)
    )
    assert sr.s_mul(k, a, b) == sr.s_mul(k, b, a)
    assert s_add(k, a, k.zero) == a
    assert sr.s_mul(k, a, k.zero) == k.zero
    mul, add = k.mul, k.add
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert (mul(a, b), add(a, b)) == (sr.s_mul(k, a, b), s_add(k, a, b))
    assert add(a, k.zero) == a and mul(a, k.zero) == k.zero


@given(kinds, st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=5))
@settings(max_examples=200, deadline=None)
def test_semiring_pow_is_iterated_mul(k, a, n):
    acc = k.one
    for _ in range(n):
        acc = sr.s_mul(k, acc, a)
    assert s_pow(k, a, n) == acc


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_canonical_key_permutation_invariant(seed):
    rng = random.Random(seed)
    g = random_instance(GRAPH_SIG, rng, max_base=3, max_elems=4)
    permuted = _permuted(g, rng)
    assert canonical_key(g) == canonical_key(permuted)
    assert isomorphic(g, permuted)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_composition_associative(seed):
    rng = random.Random(seed)
    a = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=2)
    b = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=2)
    c = random_instance(GRAPH_SIG, rng, max_base=2, max_elems=3)
    fs, gs, hs = enumerate_homs(b, c), enumerate_homs(a, b), enumerate_homs(c, c)
    if fs and gs and hs:
        f, g, h = fs[0], gs[-1], hs[-1]
        assert compose(compose(h, f), g) == compose(h, compose(f, g))


# --- certificate reader and checker under token mutations ------------------

_CERT_TOKEN = re.compile(r'\s+|"(?:[^"\\]|\\.)*"|-?\d+|[\w\'-]+|.')
_HOSTILE = ("null", "[]", "{}", "0", "-1", '""', "end", "step", "removed", "weak")


@st.composite
def mutated_certificate(draw, searched):
    name = draw(st.sampled_from(sorted(searched)))
    system, cert, _ = searched[name]
    text = draw(st.sampled_from([write_certificate(cert), certificate_to_json(cert)]))
    toks = _CERT_TOKEN.findall(text)
    spots = [i for i, t in enumerate(toks) if not t.isspace()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(spots))
        op = draw(st.sampled_from(("replace", "delete", "duplicate")))
        if op == "replace":
            toks[i] = draw(st.sampled_from([toks[j] for j in spots] + list(_HOSTILE)))
        elif op == "delete":
            toks[i] = ""
        else:
            toks[i] = f"{toks[i]} {toks[i]}"
    return system, "".join(toks)


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_certificates_accept_reject_or_input_error(searched, data):
    system, text = data.draw(mutated_certificate(searched))
    try:
        cert = read_certificate(system.sig, text)
    except CertificateError:
        return
    assert isinstance(check_certificate(system, cert), CheckResult)


# --- checker under field edits of Certificate objects -----------------------
#
# The readers sit outside the trusted base, so check_certificate must give a
# CheckResult for any Certificate object, not only for the ones a reader can
# build: every edit below keeps each field's type.

_HUGE = (-(2**70), -1, 0, 1, 2**31, 2**70)


def _pick(draw, rows):
    return draw(st.integers(0, len(rows) - 1))


def _dup_or_drop(draw, rows):
    if not rows:
        return rows
    i = _pick(draw, rows)
    return rows[: i + 1] + rows[i:] if draw(st.booleans()) else rows[:i] + rows[i + 1 :]


def _set_row(draw, rows, edit):
    if not rows:
        return rows
    i = _pick(draw, rows)
    return rows[:i] + (edit(rows[i]),) + rows[i + 1 :]


def _edit_step(draw, step, names, sorts):
    what = draw(st.sampled_from((
        "weight", "element", "sort", "elements", "rule", "closure", "entries",
        "removed", "removed-name", "semiring", "class",
    )))
    name = draw(st.sampled_from(names))
    elements, entries, removed = step.elements, step.entries, step.removed
    if what == "weight":
        w = draw(st.one_of(st.integers(), st.sampled_from(_HUGE)))
        elements = _set_row(draw, elements, lambda r: (r[0], r[1], w))
    elif what == "element":
        elements = _set_row(draw, elements, lambda r: (r[0], name, r[2]))
    elif what == "sort":
        sort = draw(st.sampled_from(sorts))
        elements = _set_row(draw, elements, lambda r: (sort, r[1], r[2]))
    elif what == "elements":
        elements = _dup_or_drop(draw, elements)
    elif what == "rule":
        entries = _set_row(draw, entries, lambda e: replace(e, rule=name))
    elif what == "closure":
        def edit(e):
            if not e.closure:
                return replace(e, closure=((name, name),))
            left = draw(st.booleans())
            renamed = _set_row(
                draw, e.closure, lambda p: (name, p[1]) if left else (p[0], name)
            )
            closure = (renamed, _dup_or_drop(draw, e.closure), None)
            return replace(e, closure=draw(st.sampled_from(closure)))

        entries = _set_row(draw, entries, edit)
    elif what == "entries":
        entries = _dup_or_drop(draw, entries)
    elif what == "removed":
        removed = _dup_or_drop(draw, removed)
    elif what == "removed-name":
        removed = _set_row(draw, removed, lambda _: name)
    elif what == "semiring":
        kind = draw(st.sampled_from(("arithmetic", "tropical", "arctic", "", "Arithmetic")))
        step = replace(step, semiring_kind=kind)
    else:
        cls = draw(st.sampled_from(("weak", "uniform", "closureDecreasing", "none", "")))
        entries = _set_row(draw, entries, lambda e: replace(e, classification=cls))
    return replace(step, elements=elements, entries=entries, removed=removed)


@st.composite
def edited_certificate(draw, searched):
    """A shipped certificate with one or two field edits."""
    steps = [s for n in sorted(searched) for s in searched[n][1].steps]
    systems = [system for system, _, _ in searched.values()]
    names = sorted(
        {n for s in steps for _, n, _ in s.elements}
        | {n for s in steps for e in s.entries for p in e.closure or () for n in p}
        | {r.name for system in systems for r in system.rules}
        | {"", "x"}
    )
    sorts = sorted({o.name for system in systems for o in system.sig.objects})
    system, cert, _ = searched[draw(st.sampled_from(sorted(searched)))]
    for _ in range(draw(st.integers(1, 2))):
        what = draw(st.sampled_from((
            "step", "step", "step", "steps", "foreign-step", "verdict", "remaining",
            "remaining-name",
        )))
        if what == "step":
            edited = _set_row(draw, cert.steps, lambda s: _edit_step(draw, s, names, sorts))
            cert = replace(cert, steps=edited)
        elif what == "steps":
            cert = replace(cert, steps=_dup_or_drop(draw, cert.steps))
        elif what == "foreign-step":
            other = draw(st.sampled_from(steps))
            cert = replace(cert, steps=_set_row(draw, cert.steps, lambda _: other))
        elif what == "verdict":
            verdict = ("terminating", "relatively-terminating", "failed", "")
            cert = replace(cert, verdict=draw(st.sampled_from(verdict)))
        elif what == "remaining":
            cert = replace(cert, remaining=_dup_or_drop(draw, cert.remaining))
        else:
            name = draw(st.sampled_from(names))
            cert = replace(cert, remaining=cert.remaining + (name,))
    return system, cert


@given(st.data())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_edited_certificate_objects_accept_or_reject(searched, data):
    system, cert = data.draw(edited_certificate(searched))
    assert isinstance(check_certificate(system, cert), CheckResult)
