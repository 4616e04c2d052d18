"""Benchmark of dpoterm's prove and check, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
src/ and the shipped systems are read from systems/. One process runs
one workload as a closed loop with a single caller: whole rounds of the
workload's operations, one after another, until S seconds have passed.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; progress goes to standard error.

--trace 0 reports the end-to-end metrics: medians over rounds, and for
set-up the median of fresh-interpreter probes run between rounds.
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, the tracing overhead, and writes
the spans of the first traced round to bench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# set-up probes run between rounds, one per this many seconds of the
# run and at least one per round, so that they sample the whole run
PROBE_INTERVAL_S = 2.0
OUTCOME_METRICS = {
    "accept": "certificate.accepted",
    "reject": "certificate.rejected",
    "input_error": "certificate.input_errors",
    "read_crash": "certificate.read_crashes",
    "check_crash": "certificate.check_crashes",
}


def _import_workloads():
    """The workloads module, with dpoterm imported from this checkout's
    src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import dpoterm
    import workloads

    if SRC.resolve() not in Path(dpoterm.__file__).resolve().parents:
        raise ImportError(f"dpoterm was imported from {dpoterm.__file__}, not {SRC}")
    return workloads


def _setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter to inputs ready, measured from outside."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=60,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode().strip()}")
    return elapsed


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(tracer, traced: list, untraced: list, parse_s: float) -> dict:
    """Times are medians over traced rounds; counters come from the first
    traced round, and a later round that disagrees is reported."""
    per_round = [m for _, m in traced]
    first_round, first = traced[0]
    out = {}
    for name, value in first.items():
        if name.endswith("_s"):
            out[name] = _metric(statistics.median(m[name] for m in per_round), "s")
        else:
            out[name] = _metric(value, "count")
            if any(m[name] != value for m in per_round):
                print(f"warning: counter {name} differs between traced rounds", file=sys.stderr)
    if "sysfile.parse" not in tracer.missing:
        out["sysfile.parse_s"] = _metric(parse_s, "s")
    for outcome, name in OUTCOME_METRICS.items():
        out[name] = _metric(first_round.outcomes[outcome], "count")

    def busy(r):
        return r.prove_s + r.check_s

    plain = statistics.median(busy(r) for r in untraced)
    with_trace = statistics.median(busy(r) for r, _ in traced)
    out["trace.overhead_pct"] = _metric(100.0 * (with_trace - plain) / plain, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads = _import_workloads()
    except ImportError as e:
        print(f"error: cannot import dpoterm from {SRC}: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        try:
            state = workloads.WORKLOADS[args.workload](
                ROOT, args.seed, tracer.paused if tracer else contextlib.nullcontext
            )
        finally:
            if tracer:
                tracer.uninstall()
    except (OSError, RuntimeError, ValueError) as e:
        print(f"error: set-up of {args.workload}: {e}", file=sys.stderr)
        return 2
    parse_s = tracer.total["sysfile.parse"] if tracer else 0.0

    untraced, traced, problems, setup = [], [], [], []
    start = time.monotonic()
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.reset()
            tracer.record_spans = not traced
            tracer.install()
        try:
            rnd = state.round()
        finally:
            if trace_this:
                tracer.uninstall()
                tracer.record_spans = False
        if trace_this:
            traced.append((rnd, tracer.round_metrics()))
        else:
            untraced.append(rnd)
        problems += rnd.problems
        print(
            f"round {len(untraced) + len(traced)}{' traced' if trace_this else ''}: "
            f"prove {rnd.prove_s:.3f}s check {rnd.check_s:.3f}s "
            f"attempted {rnd.attempted} failed {rnd.failed}",
            file=sys.stderr,
        )
        if tracer is None:
            want = max(len(setup) + 1, math.ceil((time.monotonic() - start) / PROBE_INTERVAL_S))
            try:
                while len(setup) < want:
                    setup.append(_setup_seconds(args.workload, args.seed))
            except (RuntimeError, subprocess.SubprocessError) as e:
                print(f"error: set-up of {args.workload}: {e}", file=sys.stderr)
                return 2
        if problems:
            break
        if time.monotonic() - start >= args.seconds and (tracer is None or traced):
            break

    rounds = untraced + [r for r, _ in traced]
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    if tracer and traced:
        metrics = _layer_metrics(tracer, traced, untraced, parse_s)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"fields": ["id", "parent", "name", "start", "end"],
                        "spans": tracer.spans})
        )
    elif tracer:
        metrics = {}
    else:
        metrics = {
            "prove_s": _metric(statistics.median(r.prove_s for r in rounds), "s"),
            "check_s": _metric(statistics.median(r.check_s for r in rounds), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
