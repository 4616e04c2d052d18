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

    def verdict(self, remaining) -> str:
        """The verdict of a proof that leaves the rules named in remaining."""
        if not remaining:
            return "terminating"
        return "relatively-terminating" if self.relative.issuperset(remaining) else "failed"


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


def read_blocks(text: str, openers: tuple = ()) -> list:
    """(line, line number, block) of each line that is not blank once its
    '#' comment is cut, stripped. A line at depth d whose first word is in
    openers[d] opens a block: the lines up to its matching `end`, read the
    same way at depth d + 1. Any other line's block is None."""
    out: list = []
    stack: list = []  # (header line number, enclosing list) of each open block
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line == "end" and stack:
            out = stack.pop()[1]
        elif len(stack) < len(openers) and line.split(None, 1)[0] in openers[len(stack)]:
            block: list = []
            out.append((line, lineno, block))
            stack.append((lineno, out))
            out = block
        else:
            out.append((line, lineno, None))
    if stack:
        raise SystemParseError("unterminated block", stack[-1][0])
    return out


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
    sig: Optional[IndexSignature] = None
    graphs: dict[str, CGraph] = {}
    rules: list[Rule] = []
    framework: Optional[Framework] = None
    relative: frozenset[str] = frozenset()
    strategy: Optional[str] = None
    once: dict[str, int] = {}  # the line of each directive that may occur once

    for line, lineno, body in read_blocks(text, ({"signature", "graph", "rule"},)):
        word, *args = line.split()
        # a later line would replace an earlier one, and graphs read under
        # another signature would not compose
        if word in ("signature", "framework", "relative", "strategy"):
            if word in once:
                kind = "line" if body is None else "block"
                raise SystemParseError(f"repeated {word} {kind}", lineno)
            once[word] = lineno
        if word in ("graph", "rule"):
            if sig is None:
                raise SystemParseError(f"{word} before signature", lineno)
            if len(args) != 1:
                raise SystemParseError(f"{word} needs exactly one name", lineno)
        if word == "signature":
            try:
                sig = parse_signature("\n".join(t for t, _, _ in body))
            except SignatureParseError as e:
                raise SystemParseError(e.msg, body[e.line - 1][1])
            except SignatureError as e:
                raise SystemParseError(str(e), body[0][1] if body else lineno)
        elif word == "graph":
            if args[0] in graphs:
                raise SystemParseError(f"duplicate graph {args[0]!r}", lineno)
            rows = [element_row(t, ln) for t, ln, _ in body]
            try:
                graphs[args[0]] = CGraph.build(sig, rows)
            except ValueError as e:
                raise SystemParseError(str(e), lineno)
        elif word == "rule":
            if not re.fullmatch(NAME, args[0]):
                raise SystemParseError(f"bad rule name {args[0]!r}", lineno)
            parts: dict[str, tuple[str, int]] = {}
            for t, ln, _ in body:
                if "=" not in t:
                    raise SystemParseError(f"bad rule line {t!r}", ln)
                key, val = t.split("=", 1)
                parts[key.strip()] = (val.strip(), ln)
            missing = {"L", "K", "R", "l", "r"} - set(parts)
            if missing:
                raise SystemParseError(
                    f"rule {args[0]} misses {sorted(missing)}", lineno
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
                rule = Rule(args[0], lmor, rmor)
            except (DpoError, MorphismError) as e:
                raise SystemParseError(str(e), lineno)
            if any(r.name == rule.name for r in rules):
                raise SystemParseError(f"duplicate rule {rule.name!r}", lineno)
            rules.append(rule)
        elif word == "framework":
            if len(args) != 1 or args[0] not in MATCH_CLASSES:
                raise SystemParseError(
                    f"framework must be one of {', '.join(MATCH_CLASSES)}", lineno
                )
            framework = Framework(args[0])
        elif word == "relative":
            if not (m := NAME_SET.fullmatch(line, len(word))):
                raise SystemParseError("relative must be written as { rule ... }", lineno)
            relative = frozenset(m[1].split())
        elif word == "strategy":
            m = re.match(r'strategy\s+"(.*)"\s*$', line)
            if not m:
                raise SystemParseError('strategy must be quoted: strategy "..."', lineno)
            strategy = m.group(1)
        else:
            raise SystemParseError(f"unknown directive {word!r}", lineno)

    if sig is None:
        raise SystemParseError("missing signature block", 1)
    if framework is None:
        raise SystemParseError("missing framework line", 1)
    for name in sorted(relative):
        if all(r.name != name for r in rules):
            raise SystemParseError(f"relative names unknown rule {name!r}", once["relative"])
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
