"""Proof certificates: the text and JSON writers and their reader.

The reader decodes the text form into the fields the JSON form holds,
and one builder makes the Certificate from either. It is outside the
trusted base: `checker.check_certificate` re-checks every part of a
Certificate it relies on, so a misread certificate is rejected or is
itself a valid proof.
"""
from __future__ import annotations

import json
import re
from typing import Optional

from .checker import (  # check_certificate is re-exported
    Certificate,
    CertificateError,
    CertStep,
    RuleEntry,
    check_certificate,
)
from .graph import CGraph
from .sysfile import NAME, NAME_SET, _parse_map, block_lines, element_row, read_lines
from .sysfile import print_graph_block, print_map

VERSION = 2


def _element_label(T: CGraph, sort: str, name: str) -> Optional[str]:
    s = T.sig.sort(sort)  # an unknown sort is a SignatureError
    found = T.element_ids.get(name)
    if found is None or found[0] != s:
        raise CertificateError(f"unknown element {sort} {name}")
    return T.labels[s][found[1]]


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
                line += " closure " + print_map(e.closure)
            out.append(line)
        out.append("  removed " + " ".join(step.removed))
        out.append("end")
    out.append(f"verdict {cert.verdict}")
    if cert.remaining:
        out.append("remaining { " + " ".join(cert.remaining) + " }")
    out.append("")
    return "\n".join(out)


def certificate_to_json(cert: Certificate) -> str:
    data = {
        "version": VERSION,
        "systemHash": cert.system_hash,
        "steps": [
            {
                "semiring": st.semiring_kind,
                "typeGraph": st.type_graph.rows(),
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


def _certificate(sig, data) -> Certificate:
    """The Certificate that data, decoded from either form into what
    certificate_to_json writes, describes."""
    if not isinstance(data, dict) or data.get("version") != VERSION:
        raise CertificateError("unsupported certificate version")
    if not _fits(data, _JSON_SHAPE):
        raise CertificateError("certificate does not have the expected fields")
    steps = []
    for st in data["steps"]:
        entries = []
        for e in st["rules"]:
            closure = e.get("closure")
            if closure is not None:
                if not _fits(list(closure.values()), [str]):
                    raise CertificateError(f"closure of {e['rule']} maps to a non-name")
                closure = tuple(sorted(closure.items()))
            entries.append(RuleEntry(e["rule"], e["class"], closure))
        tg = CGraph.build(sig, st["typeGraph"])
        elements = tuple(_element_row(tg, *e, e) for e in st["elements"])
        steps.append(
            CertStep(st["semiring"], tg, elements, tuple(entries), tuple(st["removed"]))
        )
    return Certificate(
        data["systemHash"], tuple(steps), data["verdict"], tuple(data["remaining"])
    )


def read_certificate(sig, text: str) -> Certificate:
    """The certificate in text, in either form. Malformed input raises
    CertificateError and nothing else."""
    try:
        is_json = text.lstrip().startswith("{")
        return _certificate(sig, json.loads(text) if is_json else _decode_text(text))
    except CertificateError:
        raise
    # json, SystemParseError, SignatureError and GraphError are ValueErrors;
    # json raises RecursionError on deeply nested input
    except (ValueError, RecursionError) as e:
        raise CertificateError(str(e)) from None


_RULE_LINE = re.compile(
    rf"^rule\s+({NAME})\s+class\s+({NAME})(?:\s+closure\s+(\{{.*\}}))?\s*$"
)
_ELEMENT_LINE = re.compile(
    rf"^element\s+({NAME})(?:\s*\[({NAME})\])?\s+({NAME})\s+weight\s+(-?\d+)\s*$"
)


def _decode_text(text: str) -> dict:
    """The text form decoded into the fields certificate_to_json writes.
    A line's directive is its whole first word."""
    lines = read_lines(text)
    head = lines[0][0].split() if lines else []
    if head[:1] != ["dpoterm-certificate"]:
        raise CertificateError("missing certificate header")
    if head[1:] != [str(VERSION)]:
        raise CertificateError("unsupported certificate version")
    words = lines[1][0].split() if len(lines) > 1 else []
    if words[:1] != ["system-hash"] or len(words) != 2:
        raise CertificateError("missing system-hash")
    data = {"version": VERSION, "systemHash": words[1], "steps": [], "remaining": []}
    i = 2
    while i < len(lines):
        body = lines[i][0]
        word, *args = body.split()
        i += 1
        if body == "step":
            step = {"elements": [], "rules": [], "removed": []}
            while i < len(lines) and lines[i][0] != "end":
                body, ln = lines[i]
                word, *args = body.split()
                if body == "typegraph":
                    rows, i = block_lines(lines, i)
                    step["typeGraph"] = [element_row(t, n) for t, n in rows]
                    continue
                i += 1
                if word == "semiring" and len(args) == 1:
                    step["semiring"] = args[0]
                elif word == "element" and (m := _ELEMENT_LINE.match(body)):
                    sort, lab, name, w = m.groups()
                    step["elements"].append([sort, name, lab, int(w)])
                elif word == "rule" and (m := _RULE_LINE.match(body)):
                    closure = m[3] and _parse_map(m[3], ln)
                    step["rules"].append({"rule": m[1], "class": m[2], "closure": closure})
                elif word == "removed":
                    step["removed"] = args
                else:
                    raise CertificateError(f"unexpected line in step: {body}")
            if i == len(lines):
                raise CertificateError("unterminated step")
            i += 1
            data["steps"].append(step)
        elif word == "verdict" and len(args) == 1:
            data["verdict"] = args[0]
        elif word == "remaining" and (m := NAME_SET.fullmatch(body, len(word))):
            data["remaining"] = m[1].split()
        else:
            raise CertificateError(f"unexpected line: {body}")
    return data
