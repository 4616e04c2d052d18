"""The benchmark's own test.

    python3 bench/selftest.py [WORKLOAD ...]

1. Counter determinism: two traced runs of each workload with the same
   seed must give identical counters (DFS nodes, constraints, calls,
   outcomes) and the same attempted and failed operation counts.
2. Trace that survives refactors: with one wrapped name gone, its layer
   metrics are missing, a warning names it, and every other layer is
   still measured.

Exits 0 when both hold, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counters(result: dict) -> dict:
    out = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    out["attempted"] = result["attempted"]
    out["failed"] = result["failed"]
    return out


def check_determinism(workload: str) -> list[str]:
    a, b = traced_run(workload), traced_run(workload)
    errors = [f"{workload}: run {i} is not correct" for i, r in enumerate((a, b), 1)
              if not r["correct"]]
    ca, cb = counters(a), counters(b)
    for name in sorted(set(ca) | set(cb)):
        if ca.get(name) != cb.get(name):
            errors.append(f"{workload}: {name} is {ca.get(name)} then {cb.get(name)}")
    print(f"{workload}: {len(ca)} counters compared", file=sys.stderr)
    return errors


def check_missing_layer() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from dpoterm import prover, sysfile

    targets = dict(tracing.TARGETS)
    targets["prover.run"] = ("dpoterm.prover", "_SearchRewritten.run")
    tracer = tracing.Tracer(targets)
    system = sysfile.parse_system_file((ROOT / "systems" / "loop_unfolding.gts").read_text())
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        tracer.install()
    try:
        result = prover.run_strategy(system, prover.DEFAULT_STRATEGY)
    finally:
        tracer.uninstall()
    metrics = tracer.round_metrics()
    errors = []
    if result.certificate.verdict != "terminating":
        errors.append("missing layer: the traced prove did not finish")
    if "_SearchRewritten.run" not in stderr.getvalue():
        errors.append("missing layer: no warning names the missing target")
    if any(name.startswith(("prover.dfs", "prover.maximize")) for name in metrics):
        errors.append("missing layer: metrics of the missing layer are reported")
    if not metrics.get("prover.search_calls") or not metrics.get("prover.build_count"):
        errors.append("missing layer: the other layers were not measured")
    return errors


def main(argv) -> int:
    workloads = argv or ["shipped", "exhaust", "large_rules"]
    errors = check_missing_layer()
    for w in workloads:
        errors += check_determinism(w)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest passed" if not errors else f"selftest failed: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
