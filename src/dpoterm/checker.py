"""The independent checker: certificate records and their replay.

The checker replays every removal step with plain recomputation (no
search): weight legality, admissibility of the element domains, the
claimed context closures, and the side-weight comparison demanded by
each recorded classification, for every morphism from the interface
into the step's type graph that extends along a rule leg (the others
weigh zero on both sides). It re-checks everything it relies on, so a
Certificate needs no trusted reader: names must resolve, weights must
be legal, closures are validated, and the entries must cover exactly
the remaining rules. Type graphs, rules and weighted type graphs
validate themselves when built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import semiring as sr
from .graph import CGraph
from .morphism import MorphismError, compose
from .semiring import SEMIRINGS
from .sysfile import Rule, System, _names_to_morphism, system_hash
from .wtg import (
    WeightedElement,
    WeightedTypeGraph,
    WtgError,
    check_rule_admissibility,
    side_comparisons,
    verify_context_closure,
)

VERDICTS = ("terminating", "relatively-terminating", "failed")


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class RuleEntry:
    rule: str
    classification: str
    closure: Optional[tuple[tuple[str, str], ...]] = None  # L name -> T name


@dataclass(frozen=True)
class CertStep:
    semiring_kind: str
    type_graph: CGraph
    elements: tuple[tuple[str, str, int], ...]  # (sort, element name, weight)
    entries: tuple[RuleEntry, ...]
    removed: tuple[str, ...]


@dataclass(frozen=True)
class Certificate:
    system_hash: str
    steps: tuple[CertStep, ...]
    verdict: str
    remaining: tuple[str, ...] = ()


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    reason: Optional[str] = None


def _reject(reason: str) -> CheckResult:
    return CheckResult(False, reason)


def step_wtg(step: CertStep) -> WeightedTypeGraph:
    """The weighted type graph a certificate step records; raises
    CertificateError on an unknown semiring, an unknown element or a bad
    weight. The type graph is valid: every CGraph is checked when built."""
    if step.semiring_kind not in SEMIRINGS:
        raise CertificateError("unknown semiring")
    T = step.type_graph
    ids = T.element_ids
    # the element of that name must have that sort; no sort has index -1
    if any(ids.get(name, (-1,))[0] != T.sig.index.get(sort) for sort, name, _ in step.elements):
        raise CertificateError("weighted element names an unknown element")
    elements = tuple(WeightedElement(*ids[name], w) for _, name, w in step.elements)
    try:
        return WeightedTypeGraph(T, elements, SEMIRINGS[step.semiring_kind])
    except WtgError as e:
        raise CertificateError(str(e)) from None


def check_certificate(system: System, cert: Certificate) -> CheckResult:
    if cert.system_hash != system_hash(system):
        return _reject("system hash mismatch")
    if cert.verdict not in VERDICTS:
        return _reject(f"unknown verdict {cert.verdict!r}")
    remaining: dict[str, Rule] = {r.name: r for r in system.rules}
    for idx, step in enumerate(cert.steps, 1):
        where = f"step {idx}"
        try:
            wtg = step_wtg(step)
        except CertificateError as e:
            return _reject(f"{where}: {e}")
        entry_names = [e.rule for e in step.entries]
        if sorted(entry_names) != sorted(remaining):
            return _reject(
                f"{where}: classifications do not cover the remaining rules"
            )
        if not step.removed:
            return _reject(f"{where}: removes no rule")
        if len(set(step.removed)) < len(step.removed):
            return _reject(f"{where}: lists a removed rule twice")
        domains = [(we.sort, wtg.T.labels[we.sort][we.target]) for we in wtg.elements]
        for entry in step.entries:
            rule = remaining[entry.rule]
            problems = check_rule_admissibility(rule, system.framework, domains)
            if problems:
                return _reject(
                    f"{where}: rule {rule.name} not weighable: " + "; ".join(problems)
                )
            closure = None
            if entry.closure is not None:
                try:
                    closure = _names_to_morphism(rule.left, wtg.T, dict(entry.closure))
                    closure.validate()
                except MorphismError as e:
                    return _reject(f"{where}: rule {rule.name}: bad closure ({e})")
                if not verify_context_closure(closure, rule, system.framework):
                    return _reject(
                        f"{where}: rule {rule.name}: closure is not a context closure"
                    )
            verdict = _verify_classification(wtg, rule, entry.classification, closure)
            if verdict is not None:
                return _reject(f"{where}: rule {rule.name}: {verdict}")
        removable = {
            e.rule
            for e in step.entries
            if e.classification in ("uniform", "closureDecreasing")
        }
        for name in step.removed:
            if name not in removable:
                return _reject(f"{where}: removal of {name} is not justified")
        for name in step.removed:
            del remaining[name]
    verdict = system.verdict(remaining)
    if cert.verdict != verdict:
        return _reject(f"verdict says {cert.verdict} but the steps give {verdict}")
    if tuple(sorted(remaining)) != tuple(sorted(cert.remaining)):
        return _reject("remaining rule list does not match the steps")
    return CheckResult(True)


def _verify_classification(
    wtg: WeightedTypeGraph, rule: Rule, classification: str, closure
) -> Optional[str]:
    k = wtg.semiring
    if classification not in ("weak", "uniform", "closureDecreasing"):
        return f"unknown classification {classification!r}"
    if classification in ("uniform", "closureDecreasing") and closure is None:
        return "strict classification without a closure"
    if classification == "closureDecreasing" and not k.strictly_monotonic:
        return "closureDecreasing needs a strictly monotonic semiring"
    t_kc = compose(closure, rule.l).maps if closure is not None else None
    strict_at_closure = False
    for t_k, wl, wr in side_comparisons(wtg, rule):
        strict = sr.s_lt(k, wr, wl)
        if classification == "uniform":
            if not strict:
                return f"uniform comparison fails at t_K = {t_k} ({wl} vs {wr})"
        elif not sr.s_le(k, wr, wl):
            return f"weak comparison fails at t_K = {t_k} ({wl} vs {wr})"
        if t_k == t_kc and strict:
            strict_at_closure = True
    if classification == "closureDecreasing" and not strict_at_closure:
        return "no strict decrease at the closure t_K"
    return None
