"""The benchmark's fixed token mutants of the shipped certificates, read
and checked in both forms: a reader or checker change that moves a mutant
from one outcome to another fails here, not only in the benchmark.
bench/workloads.py is only imported here, for its mutation operators."""
from __future__ import annotations

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

from dpoterm.certificate import (
    CertificateError,
    _json_shaped,
    certificate_to_json,
    read_certificate,
    write_certificate,
)
from dpoterm.checker import check_certificate

from oracles import json_shaped

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


def _outcome(system, text: str) -> str:
    """accept, reject or input_error; anything else the reader or checker
    raises is a crash and fails the test."""
    try:
        cert = read_certificate(system.sig, text)
    except CertificateError:
        return "input_error"
    return "accept" if check_certificate(system, cert).accepted else "reject"


def test_shipped_mutants_keep_their_outcomes(searched):
    wl = _workloads()
    outcomes = Counter()
    for stem, (system, cert, _) in sorted(searched.items()):
        for form, text in (("text", write_certificate(cert)), ("json", certificate_to_json(cert))):
            toks = wl.tokens(text)
            outcomes[_outcome(system, text)] += 1
            for spec in wl.mutant_specs(toks, f"{stem}/{form}"):
                outcomes[_outcome(system, wl.apply_mutant(text, toks, spec))] += 1
    assert outcomes == {"accept": 237, "reject": 196, "input_error": 4383}


def test_the_json_field_check_agrees_with_the_shape_interpreter_on_every_mutant(searched):
    wl = _workloads()
    verdicts = Counter()
    for stem, (system, cert, _) in sorted(searched.items()):
        text = certificate_to_json(cert)
        toks = wl.tokens(text)
        for spec in wl.mutant_specs(toks, f"{stem}/json"):
            try:
                data = json.loads(wl.apply_mutant(text, toks, spec))
            except ValueError:
                continue
            if isinstance(data, dict):
                assert _json_shaped(data) == json_shaped(data), (stem, spec)
                verdicts[json_shaped(data)] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0
