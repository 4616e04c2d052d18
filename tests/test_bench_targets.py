"""Every layer the benchmark traces must still exist in the program: a
refactor that renames or drops a traced function would otherwise only
make the tracer report that layer missing, and its per-layer metrics
would vanish without a failure. bench/tracing.py is only read here."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets() -> dict[str, tuple[str, str]]:
    """The TARGETS literal of bench/tracing.py, without importing it."""
    tree = ast.parse(TRACING.read_text(), str(TRACING))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for layer, (module, path) in targets.items():
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{layer}: {module}.{path}")
                break
    assert missing == []
