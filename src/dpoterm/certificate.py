"""Proof certificates: serialization and the independent checker.

The checker replays every removal step with plain recomputation (no
search): weight legality, admissibility of the element domains, the
claimed context closures, and the side-weight comparison demanded by
each recorded classification, for every morphism from the interface
into the step's type graph.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from . import semiring as sr
from .dpo import check_rule_admissibility, Rule
from .graph import CGraph, GraphError, validate_instance
from .morphism import compose
from .semiring import SEMIRINGS
from .sysfile import (
    System,
    SystemParseError,
    _names_to_morphism,
    _parse_graph_block,
    _parse_map,
    print_graph_block,
    system_hash,
)
from .wtg import WeightedTypeGraph, element_at, side_comparisons, verify_context_closure

VERSION = 2
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


def _element_label(T: CGraph, sort: str, name: str) -> Optional[str]:
    s = T.sig.sort(sort)
    for i in range(T.n(s)):
        if T.name_of(s, i) == name:
            return T.labels[s][i]
    raise CertificateError(f"unknown element {sort} {name}")


def _element_row(T: CGraph, sort: str, name: str, label, weight: int, row):
    """(sort, name, weight) of an element row whose label agrees with T."""
    if _element_label(T, sort, name) != label:
        raise CertificateError(f"element label disagrees with the type graph: {row}")
    return sort, name, weight


def write_certificate(cert: Certificate) -> str:
    out = [f"dpoterm-certificate {VERSION}", f"system-hash {cert.system_hash}"]
    for step in cert.steps:
        out.append("step")
        out.append(f"  semiring {step.semiring_kind}")
        out.append("  typegraph")
        out.append(print_graph_block(step.type_graph, indent="    "))
        out.append("  end")
        for sort, name, w in step.elements:
            lab = _element_label(step.type_graph, sort, name)
            mid = f" [{lab}]" if lab is not None else ""
            out.append(f"  element {sort}{mid} {name} weight {w}")
        for e in step.entries:
            line = f"  rule {e.rule} class {e.classification}"
            if e.closure is not None:
                line += " closure { " + ", ".join(f"{a} -> {b}" for a, b in e.closure) + " }"
            out.append(line)
        out.append("  removed " + " ".join(step.removed))
        out.append("end")
    out.append(f"verdict {cert.verdict}")
    if cert.remaining:
        out.append("remaining { " + " ".join(cert.remaining) + " }")
    out.append("")
    return "\n".join(out)


def certificate_to_json(cert: Certificate) -> str:
    def graph_rows(g: CGraph):
        rows = []
        for s in range(len(g.sig.objects)):
            for i in range(g.n(s)):
                rows.append(
                    [
                        g.sig.objects[s].name,
                        g.name_of(s, i),
                        g.labels[s][i],
                        [
                            g.name_of(t, a)
                            for t, a in zip(g.sig.arg_sorts(s), g.args[s][i])
                        ],
                    ]
                )
        return rows

    data = {
        "version": VERSION,
        "systemHash": cert.system_hash,
        "steps": [
            {
                "semiring": st.semiring_kind,
                "typeGraph": graph_rows(st.type_graph),
                "elements": [
                    [s, n, _element_label(st.type_graph, s, n), w]
                    for s, n, w in st.elements
                ],
                "rules": [
                    {
                        "rule": e.rule,
                        "class": e.classification,
                        "closure": dict(e.closure) if e.closure is not None else None,
                    }
                    for e in st.entries
                ],
                "removed": list(st.removed),
            }
            for st in cert.steps
        ],
        "verdict": cert.verdict,
        "remaining": list(cert.remaining),
    }
    return json.dumps(data, indent=2) + "\n"


# what certificate_to_json writes: a type, [shape] for a list, a tuple
# for a row with one shape per column, a dict for an object's fields
_JSON_STEP = {
    "semiring": str,
    "typeGraph": [(str, str, str | None, [str])],
    "elements": [(str, str, str | None, int)],
    "rules": [{"rule": str, "class": str, "closure": dict | None}],
    "removed": [str],
}
_JSON_SHAPE = {"systemHash": str, "steps": [_JSON_STEP], "verdict": str, "remaining": [str]}


def _fits(value, shape) -> bool:
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(_fits(value.get(k), s) for k, s in shape.items())
    if isinstance(shape, (list, tuple)):
        if not isinstance(value, list):
            return False
        columns = shape * len(value) if isinstance(shape, list) else shape
        return len(columns) == len(value) and all(map(_fits, value, columns))
    return isinstance(value, shape)


def certificate_from_json(sig, text: str) -> Certificate:
    data = json.loads(text)
    if not isinstance(data, dict) or data.get("version") != VERSION:
        raise CertificateError("unsupported certificate version")
    if not _fits(data, _JSON_SHAPE):
        raise CertificateError("JSON certificate does not have the expected fields")
    steps = []
    for st in data["steps"]:
        entries = []
        for e in st["rules"]:
            closure = e.get("closure")
            if closure and not _fits(list(closure.values()), [str]):
                raise CertificateError(f"closure of {e['rule']} maps to a non-name")
            pairs = tuple(sorted(closure.items())) if closure else None
            entries.append(RuleEntry(e["rule"], e["class"], pairs))
        tg = CGraph.build(sig, [(r[0], r[1], r[2], tuple(r[3])) for r in st["typeGraph"]])
        elements = tuple(_element_row(tg, *e, e) for e in st["elements"])
        steps.append(
            CertStep(st["semiring"], tg, elements, tuple(entries), tuple(st["removed"]))
        )
    return Certificate(
        data["systemHash"], tuple(steps), data["verdict"], tuple(data["remaining"])
    )


_RULE_LINE = re.compile(
    r"^rule\s+([\w'-]+)\s+class\s+([\w'-]+)(?:\s+closure\s+(\{.*\}))?\s*$"
)


def read_certificate(sig, text: str) -> Certificate:
    """The certificate in text, in either form. Malformed input raises
    CertificateError and nothing else."""
    try:
        if text.lstrip().startswith("{"):
            return certificate_from_json(sig, text)
        return _certificate_from_text(sig, text)
    except CertificateError:
        raise
    # json, SystemParseError, SignatureError and GraphError are ValueErrors;
    # json raises RecursionError on deeply nested input
    except (ValueError, RecursionError) as e:
        raise CertificateError(str(e)) from None


def _certificate_from_text(sig, text: str) -> Certificate:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((body, lineno))
    if not lines or not lines[0][0].startswith("dpoterm-certificate"):
        raise CertificateError("missing certificate header")
    if lines[0][0].split()[1:] != [str(VERSION)]:
        raise CertificateError("unsupported certificate version")
    if len(lines) < 2 or not lines[1][0].startswith("system-hash "):
        raise CertificateError("missing system-hash")
    shash = lines[1][0].split()[1]
    steps = []
    verdict = None
    remaining: tuple[str, ...] = ()
    i = 2
    while i < len(lines):
        head, lineno = lines[i]
        if head == "step":
            i += 1
            kind = None
            tg = None
            elements = []
            entries = []
            removed: tuple[str, ...] = ()
            while i < len(lines) and lines[i][0] != "end":
                body, ln = lines[i]
                if body.startswith("semiring "):
                    kind = body.split()[1]
                    i += 1
                elif body == "typegraph":
                    i += 1
                    block = []
                    while i < len(lines) and lines[i][0] != "end":
                        block.append(lines[i])
                        i += 1
                    if i == len(lines):
                        raise CertificateError("unterminated typegraph")
                    i += 1
                    tg = _parse_graph_block(sig, block, ln)
                elif body.startswith("element "):
                    m2 = re.match(
                        r"element\s+([\w'-]+)(?:\s*\[([\w'-]+)\])?\s+([\w'-]+)"
                        r"\s+weight\s+(-?\d+)\s*$",
                        body,
                    )
                    if not m2 or tg is None:
                        raise CertificateError(f"bad element line: {body}")
                    sort, lab, name, w = m2.groups()
                    elements.append(_element_row(tg, sort, name, lab, int(w), body))
                    i += 1
                elif body.startswith("rule "):
                    m = _RULE_LINE.match(body)
                    if not m:
                        raise CertificateError(f"bad rule line: {body}")
                    closure = None
                    if m.group(3):
                        closure = tuple(sorted(_parse_map(m.group(3), ln).items()))
                    entries.append(RuleEntry(m.group(1), m.group(2), closure))
                    i += 1
                elif body.startswith("removed"):
                    removed = tuple(body.split()[1:])
                    i += 1
                else:
                    raise CertificateError(f"unexpected line in step: {body}")
            if i == len(lines):
                raise CertificateError("unterminated step")
            i += 1
            if kind is None or tg is None:
                raise CertificateError("step misses semiring or typegraph")
            steps.append(CertStep(kind, tg, tuple(elements), tuple(entries), removed))
        elif head.startswith("verdict "):
            verdict = head.split()[1]
            i += 1
        elif head.startswith("remaining"):
            remaining = tuple(re.findall(r"[\w'-]+", head[len("remaining"):]))
            i += 1
        else:
            raise CertificateError(f"unexpected line: {head}")
    if verdict is None:
        raise CertificateError("missing verdict")
    return Certificate(shash, tuple(steps), verdict, remaining)


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    reason: Optional[str] = None


def _reject(reason: str) -> CheckResult:
    return CheckResult(False, reason)


def _element_ids(g: CGraph) -> dict[tuple[str, str], tuple[int, int]]:
    out = {}
    for s in range(len(g.sig.objects)):
        for i in range(g.n(s)):
            out[(g.sig.objects[s].name, g.name_of(s, i))] = (s, i)
    return out


def step_wtg(step: CertStep) -> WeightedTypeGraph:
    """The weighted type graph a certificate step records; raises
    CertificateError on an unknown semiring, an invalid type graph, an
    unknown element or a bad weight."""
    if step.semiring_kind not in SEMIRINGS:
        raise CertificateError("unknown semiring")
    T = step.type_graph
    try:
        validate_instance(T)
    except GraphError as e:
        raise CertificateError(f"invalid type graph: {e}") from None
    ids = _element_ids(T)
    elements = []
    for sort, name, w in step.elements:
        if (sort, name) not in ids:
            raise CertificateError("weighted element names an unknown element")
        s, i = ids[(sort, name)]
        try:
            elements.append(element_at(T, sort, T.labels[s][i], i, w))
        except ValueError as e:
            raise CertificateError(f"bad weighted element: {e}") from None
    wtg = WeightedTypeGraph(T, tuple(elements), SEMIRINGS[step.semiring_kind])
    try:
        wtg.validate()
    except ValueError as e:
        raise CertificateError(str(e)) from None
    return wtg


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
        domains = [(we.shape, we.gen) for we in wtg.elements]
        for entry in step.entries:
            rule = remaining[entry.rule]
            adm = check_rule_admissibility(rule, system.framework, domains)
            if not adm["leftWeighable"] or not adm["rightBounded"]:
                return _reject(
                    f"{where}: rule {rule.name} not weighable: "
                    + "; ".join(adm["diagnostics"])
                )
            closure = None
            if entry.closure is not None:
                try:
                    closure = _names_to_morphism(
                        rule.left, wtg.T, dict(entry.closure), 0
                    )
                except SystemParseError as e:
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
    s1_left = [n for n in system.s1_names() if n in remaining]
    if cert.verdict == "terminating" and remaining:
        return _reject("verdict says terminating but rules remain")
    if cert.verdict == "relatively-terminating" and (s1_left or not remaining):
        return _reject("verdict says relatively-terminating but S1 rules remain")
    if cert.verdict == "failed" and not s1_left:
        return _reject("verdict says failed but all S1 rules were removed")
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
    for t_k, wl, wr, empty in side_comparisons(wtg, rule):
        strict = sr.s_lt(k, wr, wl)
        if classification == "uniform":
            if not (strict or empty):
                return (
                    f"uniform comparison fails at t_K = {t_k.maps} "
                    f"({wl} vs {wr})"
                )
        elif not sr.s_le(k, wr, wl):
            return f"weak comparison fails at t_K = {t_k.maps} ({wl} vs {wr})"
        if t_k.maps == t_kc and strict:
            strict_at_closure = True
    if classification == "closureDecreasing" and not strict_at_closure:
        return "no strict decrease at the closure t_K"
    return None
