"""Index signatures: the sorted schemas all graphs live over.

A signature declares a sequence of object sorts; each sort has an
ordered list of argument target sorts, an optional label alphabet and a
simplicity flag (elements of simple sorts are determined by their
argument tuple and label). The directed graph on sorts induced by the
argument lists must be acyclic, which keeps every construction here
finite.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import Optional


class SignatureError(ValueError):
    """Invalid signature declaration."""


class SignatureParseError(SignatureError):
    def __init__(self, msg: str, pos: int, text: str):
        self.msg = msg
        self.line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{msg} (line {self.line}, column {col})")


@dataclass(frozen=True)
class ObjectDecl:
    name: str
    args: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()
    simple: bool = False


@dataclass(frozen=True)
class IndexSignature:
    objects: tuple[ObjectDecl, ...]

    def __post_init__(self):
        validate_signature(self)

    @cached_property
    def index(self) -> dict[str, int]:
        return {o.name: i for i, o in enumerate(self.objects)}

    def sort(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise SignatureError(f"unknown sort {name!r}") from None

    @cached_property
    def arg_table(self) -> tuple[tuple[int, ...], ...]:
        """Per sort, the indices of its argument target sorts."""
        return tuple(tuple(self.index[t] for t in o.args) for o in self.objects)

    def arg_sorts(self, s: int) -> tuple[int, ...]:
        return self.arg_table[s]

    def is_base(self, s: int) -> bool:
        return not self.objects[s].args

    @cached_property
    def base_sorts(self) -> tuple[int, ...]:
        return tuple(s for s in range(len(self.objects)) if self.is_base(s))

    @cached_property
    def has_simple(self) -> bool:
        return any(o.simple for o in self.objects)

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """Sort indices with every argument target before its source."""
        try:
            return tuple(TopologicalSorter(dict(enumerate(self.arg_table))).static_order())
        except CycleError:
            raise SignatureError("cyclic argument dependency") from None

    def element_labels(self, s: int) -> tuple[Optional[str], ...]:
        """Admissible element labels of a sort; (None,) when unlabelled."""
        labels = self.objects[s].labels
        return labels if labels else (None,)


# names may be numeric so that plain digit labels like 0/1 work
_NAME = r"[A-Za-z_0-9][A-Za-z_0-9'-]*"
_NAMES = rf"\s*({_NAME}(?:\s*,\s*{_NAME})*)\s*"
_DECL = re.compile(rf"({_NAME})(?:\s*\[{_NAMES}\])?(?:\s*\({_NAMES}\))?(\s*!)?\s*")


def parse_signature(text: str) -> IndexSignature:
    """Parse whitespace-separated declarations: Name[[l,...]](T,...)[!]."""
    decls: list[ObjectDecl] = []
    pos = len(text) - len(text.lstrip())
    while pos < len(text):
        m = _DECL.match(text, pos)
        if not m:
            rest = text[pos:].split("\n", 1)[0]
            raise SignatureParseError(f"bad declaration at {rest!r}", pos, text)
        name, labels, args, simple = m.groups()
        labels, args = (tuple(re.findall(_NAME, g or "")) for g in (labels, args))
        decls.append(ObjectDecl(name, args, labels, bool(simple)))
        pos = m.end()
    return IndexSignature(tuple(decls))


def validate_signature(sig: IndexSignature) -> None:
    """Check all signature invariants, raising one diagnostic per failure."""
    problems: list[str] = []
    seen: set[str] = set()
    for o in sig.objects:
        if o.name in seen:
            problems.append(f"duplicate object name {o.name!r}")
        seen.add(o.name)
        if len(set(o.labels)) != len(o.labels):
            problems.append(f"duplicate label on {o.name!r}")
        for t in o.args:
            if t not in seen and all(p.name != t for p in sig.objects):
                problems.append(f"undeclared argument target {t!r} on {o.name!r}")
    targeted = {t for o in sig.objects for t in o.args}
    for o in sig.objects:
        if o.labels and o.name in targeted:
            problems.append(
                f"labelled sort {o.name!r} may not be an argument target"
            )
    if not problems:
        try:
            sig.topo_order
        except SignatureError as e:
            problems.append(str(e))
    if problems:
        raise SignatureError("; ".join(problems))

