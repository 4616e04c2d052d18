"""The benchmark's fixed token mutants of the shipped certificates, read
and checked in both forms: a reader or checker change that moves a mutant
from one outcome to another fails here, not only in the benchmark.
bench/workloads.py is only imported here, for its mutation operators."""
from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from dpoterm.certificate import (
    CertificateError,
    certificate_to_json,
    read_certificate,
    write_certificate,
)
from dpoterm.checker import check_certificate

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
