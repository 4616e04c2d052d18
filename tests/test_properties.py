from __future__ import annotations

import random
import re

from hypothesis import given, settings, strategies as st

from dpoterm import semiring as sr
from dpoterm.certificate import (
    CertificateError,
    CheckResult,
    certificate_to_json,
    check_certificate,
    read_certificate,
    write_certificate,
)
from dpoterm.graph import canonical_key
from dpoterm.morphism import compose, enumerate_homs
from dpoterm.semiring import ARCTIC, ARITHMETIC, TROPICAL
from dpoterm.verify import random_instance

from conftest import GRAPH_SIG
from test_graph import _permuted

kinds = st.sampled_from([ARITHMETIC, TROPICAL, ARCTIC])


def values_for(k):
    extra = [sr.zero(k)] if not isinstance(sr.zero(k), int) else []
    return st.one_of(st.integers(min_value=0, max_value=40), st.sampled_from(extra or [0]))


@given(kinds, st.data())
@settings(max_examples=300, deadline=None)
def test_semiring_distributivity(k, data):
    a = data.draw(values_for(k))
    b = data.draw(values_for(k))
    c = data.draw(values_for(k))
    assert sr.s_mul(k, a, sr.s_add(k, b, c)) == sr.s_add(
        k, sr.s_mul(k, a, b), sr.s_mul(k, a, c)
    )
    assert sr.s_mul(k, a, b) == sr.s_mul(k, b, a)
    assert sr.s_add(k, a, sr.zero(k)) == a
    assert sr.s_mul(k, a, sr.zero(k)) == sr.zero(k)


@given(kinds, st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=5))
@settings(max_examples=200, deadline=None)
def test_semiring_pow_is_iterated_mul(k, a, n):
    acc = sr.one(k)
    for _ in range(n):
        acc = sr.s_mul(k, acc, a)
    assert sr.s_pow(k, a, n) == acc


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_canonical_key_permutation_invariant(seed):
    rng = random.Random(seed)
    g = random_instance(GRAPH_SIG, rng, max_base=3, max_elems=4)
    assert canonical_key(g) == canonical_key(_permuted(g, rng))


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
