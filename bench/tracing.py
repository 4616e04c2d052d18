"""Spans around calls into dpoterm's layers, taken from outside the program.

The tracer replaces module-level functions and classes of dpoterm with
wrappers that record a span (id, parent id, name, start, end) per call,
and reads exact counters from objects the program already exposes
(`_Search.nodes`, `_Problem.constraints`, `_Problem.cands`). A layer's
self time is its duration minus the time its child spans cover.

Every binding of a wrapped function is replaced, including the copies
other modules made with `from .x import name`. A target that no longer
exists is reported missing with a warning; the other layers and the
end-to-end run are unaffected.
"""
from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict
from typing import Optional

SEMIRINGS = ("arithmetic", "tropical", "arctic")
SIZES = (1, 2, 3)

# layer name -> (module, attribute path); a dotted path names a method
TARGETS = {
    "sysfile.parse": ("dpoterm.sysfile", "parse_system_file"),
    "sysfile.hash": ("dpoterm.sysfile", "system_hash"),
    "graph.canonical_key": ("dpoterm.graph", "canonical_key"),
    "morphism.enumerate_homs": ("dpoterm.morphism", "enumerate_homs"),
    "wtg.detect_collapse_epi": ("dpoterm.wtg", "detect_collapse_epi"),
    "wtg.verify_context_closure": ("dpoterm.wtg", "verify_context_closure"),
    "prover.build": ("dpoterm.prover", "_Problem"),
    "prover.run": ("dpoterm.prover", "_Search.run"),
    "prover.masked_step": ("dpoterm.prover", "_masked_step"),
    "prover.search": ("dpoterm.prover", "search_wtg"),
    "certificate.write": ("dpoterm.certificate", "write_certificate"),
    "certificate.write_json": ("dpoterm.certificate", "certificate_to_json"),
    "certificate.read": ("dpoterm.certificate", "read_certificate"),
    "certificate.check": ("dpoterm.certificate", "check_certificate"),
}

def _resolve(module: str, path: str):
    """(owner object, attribute name, current value); AttributeError or
    KeyError when the name is gone."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._sizes: dict[int, Optional[int]] = {}
        self.record_spans = False
        self._paused = False
        self.spans: list[tuple] = []
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new round of totals; recorded spans are kept."""
        self._stack: list[list] = []
        self._sizes.clear()
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # --- spans ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        """Run fn inside a span; returns (result, exception or None,
        seconds)."""
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        frame = [name, self._next_id]
        self._stack.append(frame)
        error = None
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            error = e
        t1 = time.perf_counter()
        self._stack.pop()
        dur = t1 - t0
        self.total[name] += dur
        self.calls[name] += 1
        if parent is not None:
            self.child[(parent[0], name)] += dur
        if self.record_spans:
            self.spans.append(
                (frame[1], parent[1] if parent else None, name, t0, t1)
            )
        return result, error, dur

    def _function_wrapper(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            result, error, _ = tracer.call(name, fn, args, kwargs)
            if error is not None:
                raise error
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- layer-specific wrappers ------------------------------------------

    def _wrap_problem(self, cls):
        tracer = self

        class TracedProblem(cls):
            def __init__(self, *args, **kwargs):
                if tracer._paused:
                    return super().__init__(*args, **kwargs)
                _, error, _ = tracer.call("prover.build", super().__init__, args, kwargs)
                if error is not None:
                    raise error
                # the base size is the last constructor argument, n
                tracer._sizes[id(self)] = kwargs.get("n", args[-1] if args else None)
                tracer.counts["prover.build_count"] += 1
                tracer.counts["prover.constraints"] += len(self.constraints)
                tracer.counts["prover.closure_candidates"] += sum(
                    len(c) for c in self.cands
                )

        TracedProblem.__name__ = TracedProblem.__qualname__ = cls.__name__
        return TracedProblem

    def _wrap_run(self, run):
        tracer = self

        def traced_run(search, tier, target, node_limit=None):
            if tracer._paused:
                return run(search, tier, target, node_limit)
            phase = "prover.maximize" if node_limit else "prover.dfs"
            before = search.nodes
            result, error, dur = tracer.call(
                phase, run, (search, tier, target, node_limit), {}
            )
            nodes = search.nodes - before
            tracer.counts[f"{phase}_nodes"] += nodes
            if phase == "prover.dfs":
                kind = search.p.kind.kind
                size = tracer._sizes.get(id(search.p))
                tracer.total[f"prover.dfs.{kind}"] += dur
                tracer.counts[f"prover.dfs.{kind}.size{size}.nodes"] += nodes
            elif type(error).__name__ == "_Budget":
                tracer.counts["prover.maximize_capped"] += 1
            if error is not None:
                raise error
            return result

        traced_run.__wrapped__ = run
        return traced_run

    def _after(self, name: str):
        if name == "morphism.enumerate_homs":
            return lambda homs: self.counts.update({"morphism.homs_returned": len(homs)})
        if name == "prover.search":
            return lambda out: self.counts.update(
                {"prover.search_found": int(out.status == "found")}
            )
        return None

    # --- installing ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            return
        for name, (module, path) in self.targets.items():
            try:
                owner, attr, original = _resolve(module, path)
            except (AttributeError, KeyError):
                if name not in self.missing:
                    self.missing.append(name)
                    print(
                        f"warning: trace: {module}.{path} is gone; "
                        f"layer {name} is reported missing",
                        file=sys.stderr,
                    )
                continue
            if name == "prover.run":
                self._set(owner, attr, original, self._wrap_run(original))
                continue
            if name == "prover.build":
                replacement = self._wrap_problem(original)
            else:
                replacement = self._function_wrapper(name, original, self._after(name))
            # every module-level binding of the original, so copies made
            # by `from .module import name` are traced too
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "dpoterm" or mod_name.startswith("dpoterm."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, original, replacement)

    def _set(self, owner, attr, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # --- metrics -----------------------------------------------------------

    def round_metrics(self) -> dict[str, float]:
        """This round's per-layer numbers: `_s` metrics are inclusive
        seconds, the others exact counts. Metrics of missing layers are
        left out. Parsing happens in set-up, so run.py reports it."""
        t, calls, counts = self.total, self.calls, self.counts
        dfs = {}
        for k in SEMIRINGS:
            dfs[f"prover.dfs.{k}_s"] = t[f"prover.dfs.{k}"]
            for n in SIZES:
                key = f"prover.dfs.{k}.size{n}.nodes"
                dfs[key] = counts[key]
        by_layer = {
            "sysfile.hash": {
                "sysfile.hash_s": t["sysfile.hash"],
                "sysfile.hash_calls": calls["sysfile.hash"],
            },
            "graph.canonical_key": {
                "graph.canonical_key_s": t["graph.canonical_key"],
                "graph.canonical_key_calls": calls["graph.canonical_key"],
            },
            "morphism.enumerate_homs": {
                "morphism.enumerate_homs_s": t["morphism.enumerate_homs"],
                "morphism.enumerate_homs_calls": calls["morphism.enumerate_homs"],
                "morphism.homs_returned": counts["morphism.homs_returned"],
            },
            "wtg.detect_collapse_epi": {
                "wtg.detect_collapse_epi_s": t["wtg.detect_collapse_epi"],
                "wtg.detect_collapse_epi_calls": calls["wtg.detect_collapse_epi"],
            },
            "wtg.verify_context_closure": {
                "wtg.verify_context_closure_s": t["wtg.verify_context_closure"],
            },
            "prover.build": {
                "prover.build_s": t["prover.build"],
                "prover.build_count": counts["prover.build_count"],
                "prover.constraints": counts["prover.constraints"],
                "prover.closure_candidates": counts["prover.closure_candidates"],
            },
            "prover.run": {
                "prover.dfs_s": t["prover.dfs"],
                "prover.dfs_nodes": counts["prover.dfs_nodes"],
                **dfs,
                "prover.maximize_s": t["prover.maximize"],
                "prover.maximize_nodes": counts["prover.maximize_nodes"],
                "prover.maximize_capped": counts["prover.maximize_capped"],
            },
            "prover.masked_step": {"prover.masked_step_s": t["prover.masked_step"]},
            "prover.search": {
                "prover.search_s": t["prover.search"],
                "prover.search_calls": calls["prover.search"],
                "prover.search_found": counts["prover.search_found"],
            },
            "certificate.write": {
                "certificate.write_s": t["certificate.write"] + t["certificate.write_json"],
            },
            "certificate.read": {
                "certificate.read_s": t["certificate.read"],
                "certificate.read_calls": calls["certificate.read"],
            },
            "certificate.check": {
                "certificate.check_s": t["certificate.check"],
                # replay: check time without the system hash it computes
                "certificate.replay_s": t["certificate.check"]
                - self.child[("certificate.check", "sysfile.hash")],
            },
        }
        if "sysfile.hash" in self.missing:
            del by_layer["certificate.check"]["certificate.replay_s"]
        return {
            metric: value
            for layer, metrics in by_layer.items()
            if layer not in self.missing
            for metric, value in metrics.items()
        }
