"""Proof certificates: the text and JSON writers and readers.

The readers are outside the trusted base: `checker.check_certificate`
re-checks every part of a Certificate it relies on, so a misread
certificate is rejected or is itself a valid proof.
"""
from __future__ import annotations

import json
import re
from typing import Optional

from .checker import (  # check_certificate and step_wtg are re-exported
    Certificate,
    CertificateError,
    CertStep,
    RuleEntry,
    check_certificate,
    step_wtg,
)
from .graph import CGraph
from .sysfile import _parse_graph_block, _parse_map, print_graph_block

VERSION = 2


def _element_label(T: CGraph, sort: str, name: str) -> Optional[str]:
    T.sig.sort(sort)  # an unknown sort is a SignatureError
    if (sort, name) not in T.element_ids:
        raise CertificateError(f"unknown element {sort} {name}")
    s, i = T.element_ids[sort, name]
    return T.labels[s][i]


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
        out.append(print_graph_block(step.type_graph))
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


