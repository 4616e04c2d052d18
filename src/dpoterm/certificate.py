"""Proof certificates: the text and JSON writers and their reader.

The reader decodes the text form into the fields the JSON form holds,
typed by construction, checks the JSON form's fields for those types,
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
from .sysfile import NAME, NAME_SET, _parse_map, element_row, read_blocks
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
    return _json(data) + "\n"


_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str


def _json(value, indent: str = "\n") -> str:
    """value spelled as json.dumps(value, indent=2) spells it. That call
    runs the pure-Python encoder, whose closures leave reference cycles
    behind on every call; spelling a scalar runs none of it."""
    inner = indent + "  "
    if isinstance(value, dict):
        items, brackets = [f"{_quote(k)}: {_json(v, inner)}" for k, v in value.items()], "{}"
    elif isinstance(value, list):
        items, brackets = [_json(v, inner) for v in value], "[]"
    else:
        return _quote(value) if isinstance(value, str) else json.dumps(value)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _names(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _row(value, *types) -> bool:
    """Whether value is a list of one value of each of types."""
    return (
        isinstance(value, list) and len(value) == len(types) and all(map(isinstance, value, types))
    )


_LABEL = (str, type(None))


def _json_shaped(data: dict) -> bool:
    return (
        isinstance(data.get("systemHash"), str)
        and isinstance(data.get("verdict"), str)
        and _names(data.get("remaining"))
        and isinstance(steps := data.get("steps"), list)
        and all(map(_json_step_shaped, steps))
    )


def _json_step_shaped(st) -> bool:
    return (
        isinstance(st, dict)
        and isinstance(st.get("semiring"), str)
        and isinstance(rows := st.get("typeGraph"), list)
        and all(_row(r, str, str, _LABEL, list) and _names(r[3]) for r in rows)
        and isinstance(elements := st.get("elements"), list)
        and all(_row(e, str, str, _LABEL, int) for e in elements)
        and isinstance(rules := st.get("rules"), list)
        and all(
            isinstance(e, dict)
            and isinstance(e.get("rule"), str)
            and isinstance(e.get("class"), str)
            and ((c := e.get("closure")) is None or isinstance(c, dict) and _names([*c.values()]))
            for e in rules
        )
        and _names(st.get("removed"))
    )


def _decode_json(text: str) -> dict:
    """The JSON form decoded, once its fields are checked to be those
    certificate_to_json writes, of their types: [sort, name, label, [arg
    names]] type-graph rows, [sort, name, label, weight] element rows,
    rule objects whose closure is null or maps names to names, and lists
    of names. A weight passes as an int even when it is a bool, which the
    checker rejects as illegal."""
    data = json.loads(text)
    if not isinstance(data, dict) or data.get("version") != VERSION:
        raise CertificateError("unsupported certificate version")
    if not _json_shaped(data):
        raise CertificateError("certificate does not have the expected fields")
    return data


def _certificate(sig, data: dict) -> Certificate:
    """The Certificate that data, decoded from either form into the
    fields certificate_to_json writes, of their types, describes."""
    steps = []
    for st in data["steps"]:
        entries = tuple(
            RuleEntry(e["rule"], e["class"], c if c is None else tuple(sorted(c.items())))
            for e in st["rules"]
            for c in [e.get("closure")]
        )
        tg = CGraph.build(sig, st["typeGraph"])
        elements = tuple(_element_row(tg, *e, e) for e in st["elements"])
        steps.append(CertStep(st["semiring"], tg, elements, entries, tuple(st["removed"])))
    return Certificate(
        data["systemHash"], tuple(steps), data["verdict"], tuple(data["remaining"])
    )


def read_certificate(sig, text: str) -> Certificate:
    """The certificate in text, in either form. Malformed input raises
    CertificateError and nothing else."""
    try:
        decode = _decode_json if text.lstrip().startswith("{") else _decode_text
        return _certificate(sig, decode(text))
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
    """The text form decoded into the fields certificate_to_json writes,
    typed by construction: each is a regex group, a split word, an int()
    weight or a _parse_map map, and a field the builder reads is never
    missing. A line's directive is its whole first word."""
    lines = read_blocks(text, ({"step"}, {"typegraph"}))
    head = lines[0][0].split() if lines else []
    if head[:1] != ["dpoterm-certificate"]:
        raise CertificateError("missing certificate header")
    if head[1:] != [str(VERSION)]:
        raise CertificateError("unsupported certificate version")
    words = lines[1][0].split() if len(lines) > 1 else []
    if words[:1] != ["system-hash"] or len(words) != 2:
        raise CertificateError("missing system-hash")
    data = {"systemHash": words[1], "steps": [], "remaining": []}
    for line, _, block in lines[2:]:
        word, *args = line.split()
        if line == "step":
            step = {"elements": [], "rules": [], "removed": []}
            for body, ln, rows in block:
                word, *args = body.split()
                if body == "typegraph":
                    step["typeGraph"] = [element_row(t, n) for t, n, _ in rows]
                elif word == "semiring" and len(args) == 1:
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
            for key in ("semiring", "typeGraph"):
                if key not in step:
                    raise CertificateError(f"step has no {key.lower()} line")
            data["steps"].append(step)
        elif word == "verdict" and len(args) == 1:
            data["verdict"] = args[0]
        elif word == "remaining" and (m := NAME_SET.fullmatch(line, len(word))):
            data["remaining"] = m[1].split()
        else:
            raise CertificateError(f"unexpected line: {line}")
    if "verdict" not in data:
        raise CertificateError("missing verdict")
    return data
