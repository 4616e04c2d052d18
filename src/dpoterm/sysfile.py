"""The system model (rules and matching frameworks) and the textual
input format of system files.

Grammar (line oriented, '#' comments, blank lines ignored):

    signature
      V
      edge[a,b](V, V)!
    end

    graph NAME
      SORT name [label] (arg, ...)      # [label] and (args) when the sort has them
    end

    rule NAME
      L = GRAPHNAME
      K = GRAPHNAME
      R = GRAPHNAME
      l = { kelem -> lelem, ... }
      r = { kelem -> relem, ... }
    end

    framework unrestricted|monic|regular-monic
    relative { rulename ... }           # optional: rules proved only weakly decreasing
    strategy "..."                      # optional
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Optional

from .graph import CGraph
from .morphism import Morphism, MorphismError, classify_monicity
from .signature import IndexSignature, SignatureError, SignatureParseError, parse_signature


class SystemParseError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class DpoError(ValueError):
    pass


MATCH_CLASSES = ("unrestricted", "monic", "regular-monic")


@dataclass(frozen=True)
class Framework:
    match_class: str

    def __post_init__(self):
        if self.match_class not in MATCH_CLASSES:
            raise DpoError(f"unknown match class {self.match_class!r}")


@dataclass(frozen=True)
class Rule:
    """A DPO rule L <-l- K -r-> R. Construction rejects a left leg that
    is not monic, or not regular monic on a signature with simple sorts:
    pushout complements and strong traceability rely on it."""

    name: str
    l: Morphism
    r: Morphism

    def __post_init__(self):
        if self.l.dom != self.r.dom:
            raise DpoError(f"rule {self.name}: the two legs have different interfaces")
        self.l.validate()
        self.r.validate()
        mono = classify_monicity(self.l)
        if not mono["monic"]:
            raise DpoError(f"rule {self.name}: left leg must be monic")
        if self.l.dom.sig.has_simple and not mono["regularMonic"]:
            raise DpoError(
                f"rule {self.name}: left leg must be regular monic because the "
                f"signature has simple sorts (add the reflected elements to the "
                f"interface)"
            )

    @property
    def interface(self) -> CGraph:
        return self.l.dom

    @property
    def left(self) -> CGraph:
        return self.l.cod

    @property
    def right(self) -> CGraph:
        return self.r.cod


@dataclass
class System:
    sig: IndexSignature
    graphs: dict[str, CGraph]
    rules: tuple[Rule, ...]
    framework: Framework
    relative: frozenset[str] = frozenset()
    strategy: Optional[str] = None

    def s1_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules if r.name not in self.relative)


# an element, rule or label name: what the text certificate can carry
NAME = r"[\w'-]+"
_ELEM = re.compile(
    rf"^(?P<sort>{NAME})\s+(?P<name>{NAME})"
    rf"(?:\s*\[(?P<label>{NAME})\])?"
    r"(?:\s*\((?P<args>[^)]*)\))?\s*$"
)
_MAP_PAIR = re.compile(rf"\s*({NAME})\s*(?:->|↦)\s*({NAME})\s*")
# a set of names, as in `relative { a b }` and `remaining { a b }`
NAME_SET = re.compile(rf"\s*\{{\s*((?:{NAME}(?:\s+{NAME})*)?)\s*\}}\s*")


def read_lines(text: str) -> list[tuple[str, int]]:
    """(text, line number) of each line that is not blank once its '#'
    comment is cut, stripped."""
    return [(body, lineno) for lineno, raw in enumerate(text.splitlines(), 1)
            if (body := raw.partition("#")[0].strip())]


def block_lines(lines, i: int) -> tuple[list[tuple[str, int]], int]:
    """The lines after the block header lines[i] up to its `end`, and the
    index after that `end`."""
    j = i + 1
    while j < len(lines) and lines[j][0] != "end":
        j += 1
    if j == len(lines):
        raise SystemParseError("unterminated block", lines[i][1])
    return lines[i + 1:j], j + 1


def element_row(text: str, lineno: int) -> list:
    """The [sort, name, label, [arg names]] row of an element line, as
    CGraph.build reads it and certificate_to_json writes it."""
    m = _ELEM.match(text)
    if not m:
        raise SystemParseError(f"bad element line {text!r}", lineno)
    sort, name, label, args = m.groups()
    return [sort, name, label, args.replace(",", " ").split() if args else []]


def _parse_map(text: str, lineno: int) -> dict[str, str]:
    """The { a -> b, ... } map in text; each name is mapped once."""
    braces = re.fullmatch(r"\s*\{(.*)\}\s*", text)
    if not braces:
        raise SystemParseError("map must be written as { a -> b, ... }", lineno)
    out: dict[str, str] = {}
    for piece in braces[1].split(",") if braces[1].strip() else ():
        m = _MAP_PAIR.fullmatch(piece)
        if not m:
            raise SystemParseError(f"bad map syntax in {text!r}", lineno)
        if m[1] in out:
            raise SystemParseError(f"{m[1]!r} is mapped twice in {text!r}", lineno)
        out[m[1]] = m[2]
    return out


def _names_to_morphism(dom: CGraph, cod: CGraph, pairs: dict[str, str]) -> Morphism:
    """The map dom -> cod that pairs names; it is not validated."""
    maps: list[list[int]] = [[] for _ in dom.counts]
    for name, (s, _) in dom.element_ids.items():  # in sort and id order
        if name not in pairs:
            raise MorphismError(f"map misses interface element {name!r}")
        tgt = pairs[name]
        if tgt not in cod.element_ids:
            raise MorphismError(f"map target {tgt!r} does not exist")
        ts, ti = cod.element_ids[tgt]
        if ts != s:
            raise MorphismError(f"{name!r} is mapped across sorts to {tgt!r}")
        maps[s].append(ti)
    return Morphism(dom, cod, tuple(map(tuple, maps)))


def parse_system_file(text: str) -> System:
    lines = read_lines(text)
    sig: Optional[IndexSignature] = None
    graphs: dict[str, CGraph] = {}
    rules: list[Rule] = []
    framework: Optional[Framework] = None
    relative: frozenset[str] = frozenset()
    relative_line = 0  # the line of the relative directive, 0 before it
    strategy: Optional[str] = None

    i = 0
    while i < len(lines):
        text_i, lineno = lines[i]
        head = text_i.split()
        if head[0] == "signature":
            # graphs parsed under another signature would not compose
            if sig is not None:
                raise SystemParseError("repeated signature block", lineno)
            body, i = block_lines(lines, i)
            try:
                sig = parse_signature("\n".join(t for t, _ in body))
            except SignatureParseError as e:
                raise SystemParseError(e.msg, body[e.line - 1][1])
            except SignatureError as e:
                raise SystemParseError(str(e), body[0][1] if body else lineno)
        elif head[0] == "graph":
            if sig is None:
                raise SystemParseError("graph before signature", lineno)
            if len(head) != 2:
                raise SystemParseError("graph needs exactly one name", lineno)
            body, i = block_lines(lines, i)
            if head[1] in graphs:
                raise SystemParseError(f"duplicate graph {head[1]!r}", lineno)
            rows = [element_row(t, ln) for t, ln in body]
            try:
                graphs[head[1]] = CGraph.build(sig, rows)
            except ValueError as e:
                raise SystemParseError(str(e), lineno)
        elif head[0] == "rule":
            if sig is None:
                raise SystemParseError("rule before signature", lineno)
            if len(head) != 2:
                raise SystemParseError("rule needs exactly one name", lineno)
            if not re.fullmatch(NAME, head[1]):
                raise SystemParseError(f"bad rule name {head[1]!r}", lineno)
            body, i = block_lines(lines, i)
            parts: dict[str, tuple[str, int]] = {}
            for t, ln in body:
                if "=" not in t:
                    raise SystemParseError(f"bad rule line {t!r}", ln)
                key, val = t.split("=", 1)
                parts[key.strip()] = (val.strip(), ln)
            missing = {"L", "K", "R", "l", "r"} - set(parts)
            if missing:
                raise SystemParseError(
                    f"rule {head[1]} misses {sorted(missing)}", lineno
                )
            def graph_of(key: str) -> CGraph:
                name, ln = parts[key]
                if name not in graphs:
                    raise SystemParseError(f"unknown graph {name!r}", ln)
                return graphs[name]
            def leg(key: str, cod: CGraph) -> Morphism:
                text, ln = parts[key]
                try:
                    return _names_to_morphism(K, cod, _parse_map(text, ln))
                except MorphismError as e:
                    raise SystemParseError(str(e), ln)
            L, K, R = graph_of("L"), graph_of("K"), graph_of("R")
            lmor, rmor = leg("l", L), leg("r", R)
            try:
                rule = Rule(head[1], lmor, rmor)
            except (DpoError, MorphismError) as e:
                raise SystemParseError(str(e), lineno)
            if any(r.name == rule.name for r in rules):
                raise SystemParseError(f"duplicate rule {rule.name!r}", lineno)
            rules.append(rule)
        elif head[0] == "framework":
            if framework is not None:
                raise SystemParseError("repeated framework line", lineno)
            if len(head) != 2 or head[1] not in MATCH_CLASSES:
                raise SystemParseError(
                    f"framework must be one of {', '.join(MATCH_CLASSES)}", lineno
                )
            framework = Framework(head[1])
            i += 1
        elif head[0] == "relative":
            if relative_line:
                raise SystemParseError("repeated relative line", lineno)
            relative_line = lineno
            if not (m := NAME_SET.fullmatch(text_i, len("relative"))):
                raise SystemParseError("relative must be written as { rule ... }", lineno)
            relative = frozenset(m[1].split())
            i += 1
        elif head[0] == "strategy":
            if strategy is not None:
                raise SystemParseError("repeated strategy line", lineno)
            m = re.match(r'strategy\s+"(.*)"\s*$', text_i)
            if not m:
                raise SystemParseError('strategy must be quoted: strategy "..."', lineno)
            strategy = m.group(1)
            i += 1
        else:
            raise SystemParseError(f"unknown directive {head[0]!r}", lineno)

    if sig is None:
        raise SystemParseError("missing signature block", 1)
    if framework is None:
        raise SystemParseError("missing framework line", 1)
    for name in sorted(relative):
        if all(r.name != name for r in rules):
            raise SystemParseError(f"relative names unknown rule {name!r}", relative_line)
    return System(sig, graphs, tuple(rules), framework, relative, strategy)


def print_signature(sig: IndexSignature) -> str:
    out = []
    for o in sig.objects:
        s = o.name
        if o.labels:
            s += "[" + ",".join(o.labels) + "]"
        if o.args:
            s += "(" + ",".join(o.args) + ")"
        if o.simple:
            s += "!"
        out.append(s)
    return "\n".join("  " + s for s in out)


def print_graph_block(g: CGraph) -> str:
    out = []
    for sort, name, label, arg_names in g.rows():
        lab = f" [{label}]" if label is not None else ""
        args = " (" + ", ".join(arg_names) + ")" if arg_names else ""
        out.append(f"    {sort} {name}{lab}{args}")
    return "\n".join(out)


def name_pairs(mor: Morphism) -> list[tuple[str, str]]:
    """The (dom name, cod name) pairs of mor, in sort and id order."""
    return [(mor.dom.name_of(s, i), mor.cod.name_of(s, j))
            for s, row in enumerate(mor.maps) for i, j in enumerate(row)]


def print_map(pairs) -> str:
    """pairs spelled as { a -> b, ... }, as _parse_map reads them."""
    return "{ " + ", ".join(map(" -> ".join, pairs)) + " }"


def system_hash(system: System) -> str:
    """sha256 of the printed signature, framework, relative set and rules
    (sorted by name): what the checker reads. Comments, the strategy line
    and graphs that no rule uses do not enter it."""
    out = [
        print_signature(system.sig),
        f"framework {system.framework.match_class}",
        "relative { " + " ".join(sorted(system.relative)) + " }",
    ]
    for r in sorted(system.rules, key=lambda r: r.name):
        out.append(f"rule {r.name}")
        for tag, g in (("L", r.left), ("K", r.interface), ("R", r.right)):
            out += [f"  {tag} =", print_graph_block(g), "  end"]
        out.append(f"  l = {print_map(name_pairs(r.l))}")
        out.append(f"  r = {print_map(name_pairs(r.r))}")
    return hashlib.sha256("\n".join(out).encode()).hexdigest()
