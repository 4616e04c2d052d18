from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dpoterm.certificate import check_certificate, read_certificate, write_certificate
from dpoterm.morphism import Morphism
from dpoterm.prover import DEFAULT_STRATEGY, run_strategy
from dpoterm.sysfile import (
    SystemParseError,
    _names_to_morphism,
    _parse_map,
    element_row,
    name_pairs,
    parse_system_file,
    read_blocks,
    print_map,
    system_hash,
)

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

MINIMAL = """
signature
  V
  edge[a,b](V,V)
end

graph G
  V x
  V y
  edge e [a] (x, y)
end

rule keep
  L = G
  K = G
  R = G
  l = { x -> x, y -> y, e -> e }
  r = { x -> x, y -> y, e -> e }
end

framework monic
"""


def test_parse_minimal():
    system = parse_system_file(MINIMAL)
    assert [r.name for r in system.rules] == ["keep"]
    assert system.framework.match_class == "monic"
    assert system.graphs["G"].counts == (2, 1)


def test_hash_changes_with_rules():
    system = parse_system_file(MINIMAL)
    other = parse_system_file(MINIMAL.replace("keep", "other"))
    assert system_hash(system) != system_hash(other)


def test_map_target_wrong_label():
    bad = MINIMAL.replace("edge e [a] (x, y)", "edge e [b] (x, y)")
    bad = bad.replace("rule keep", "rule keep2")
    # L keeps label b but the rule maps are still consistent; break one map
    text = """
signature
  V
  edge[a,b](V,V)
end

graph L
  V x
  V y
  edge e [a] (x, y)
end

graph K
  V x
  V y
  edge e [b] (x, y)
end

rule bad
  L = L
  K = K
  R = K
  l = { x -> x, y -> y, e -> e }
  r = { x -> x, y -> y, e -> e }
end

framework monic
"""
    with pytest.raises(SystemParseError, match="label"):
        parse_system_file(text)


def test_map_missing_element():
    text = MINIMAL.replace("l = { x -> x, y -> y, e -> e }", "l = { x -> x, y -> y }")
    with pytest.raises(SystemParseError) as err:
        parse_system_file(text)
    line = text.splitlines().index("  l = { x -> x, y -> y }") + 1
    assert str(err.value) == f"line {line}: map misses interface element 'e'"


@pytest.mark.parametrize("name", ["un.fold", "un/fold", "un:fold", "un{fold}"])
def test_a_rule_name_the_text_certificate_cannot_carry_is_rejected(name):
    text = MINIMAL.replace("rule keep", f"rule {name}")
    with pytest.raises(SystemParseError) as err:
        parse_system_file(text)
    line = text.splitlines().index(f"rule {name}") + 1
    assert str(err.value) == f"line {line}: bad rule name {name!r}"


def test_a_rule_name_the_parser_accepts_survives_the_text_certificate():
    system = parse_system_file(
        (SYSTEMS / "loop_unfolding.gts").read_text().replace("rule unfold", "rule un'fold-2")
    )
    cert = run_strategy(system, DEFAULT_STRATEGY).certificate
    assert [e.rule for step in cert.steps for e in step.entries] == ["un'fold-2"]
    assert read_certificate(system.sig, write_certificate(cert)) == cert
    assert check_certificate(system, cert).accepted


def test_nonmonic_left_leg_rejected():
    text = """
signature
  V
end

graph L
  V x
end

graph K
  V a
  V b
end

rule bad
  L = L
  K = K
  R = K
  l = { a -> x, b -> x }
  r = { a -> a, b -> b }
end

framework monic
"""
    with pytest.raises(SystemParseError, match="monic"):
        parse_system_file(text)


def test_commutation_failure_names_element():
    text = """
signature
  V
  edge(V,V)
end

graph L
  V x
  V y
  edge e (x, y)
end

graph K
  V x
  V y
  edge e (x, y)
end

rule bad
  L = L
  K = K
  R = L
  l = { x -> y, y -> x, e -> e }
  r = { x -> x, y -> y, e -> e }
end

framework monic
"""
    with pytest.raises(SystemParseError, match="commute") as err:
        parse_system_file(text)
    # the rule validates its legs, so the error is at the rule's line
    assert err.value.line == 19


def test_parsing_validates_each_rule_leg_once(monkeypatch):
    original = Morphism.validate
    calls = []

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Morphism, "validate", counting)
    rules = [r for p in sorted(SYSTEMS.glob("*.gts")) for r in parse_system_file(p.read_text()).rules]
    assert len(rules) == 15
    assert len(calls) == 30
    assert {id(m) for m in calls} == {id(m) for r in rules for m in (r.l, r.r)}


def test_unknown_rule_in_relative():
    text = MINIMAL + "relative { ghost }\n"
    with pytest.raises(SystemParseError, match="unknown rule 'ghost'") as err:
        parse_system_file(text)
    # reported at the relative line, not at the top of the file
    assert err.value.line == 22


def test_unknown_rule_in_relative_before_the_rules():
    # the name may precede its rule, so it is resolved at the end and
    # still reported at its own line
    text = MINIMAL.replace("rule keep", "relative { keep ghost }\n\nrule keep")
    with pytest.raises(SystemParseError, match="unknown rule 'ghost'") as err:
        parse_system_file(text)
    assert err.value.line == 13
    assert parse_system_file(text.replace(" ghost", "")).relative == {"keep"}


def test_diagnostics_carry_line_numbers():
    text = MINIMAL.replace("V y", "W y")
    with pytest.raises(SystemParseError, match="line"):
        parse_system_file(text)


def test_a_signature_parse_error_names_the_file_line_of_its_declaration():
    # with a comment inside the block, the fault is on the block's third
    # declaration line but on file line 6
    text = MINIMAL.replace("  V\n", "  V\n  # labelled edges\n", 1).replace(
        "edge[a,b](V,V)\n", "edge[a,b](V,V)\n  bad((\n"
    )
    with pytest.raises(SystemParseError, match="^line 6: bad declaration at '\\(\\('$") as err:
        parse_system_file(text)
    assert err.value.line == 6


HASHED_HEAD = """
signature
  V
  edge[a,b](V,V)
end

graph G
  V x
  V y
  edge e [a] (x, y)
end

graph P
  V x
  V y
end
"""
HASHED_KEEP = """
rule keep
  L = G
  K = G
  R = G
  l = { x -> x, y -> y, e -> e }
  r = { x -> x, y -> y, e -> e }
end
"""
HASHED_SWAP = """
rule swap
  L = P
  K = P
  R = P
  l = { x -> x, y -> y }
  r = { x -> y, y -> x }
end
"""
HASHED_TAIL = """
framework monic
relative { swap }
"""
HASHED = HASHED_HEAD + HASHED_KEEP + HASHED_SWAP + HASHED_TAIL


def _hash(text: str) -> str:
    return system_hash(parse_system_file(text))


@pytest.mark.parametrize(
    "text",
    [
        "# a comment\n" + HASHED.replace("V y\n", "V y   # the target\n"),
        HASHED.replace("\n", "\n\n"),
        HASHED + 'strategy "arithmetic(size=1,bits=1,timeout=1)"\n',
        HASHED_HEAD + "graph Unused\n  V u\nend\n" + HASHED_KEEP + HASHED_SWAP + HASHED_TAIL,
        HASHED_HEAD + HASHED_SWAP + HASHED_KEEP + HASHED_TAIL,
    ],
    ids=["comments", "blank-lines", "strategy", "unused-graph", "rule-order"],
)
def test_hash_ignores_what_the_checker_does_not_read(text):
    assert _hash(text) == _hash(HASHED)


@pytest.mark.parametrize(
    "text",
    [
        HASHED.replace("edge e [a]", "edge e [b]"),
        HASHED.replace("r = { x -> y, y -> x }", "r = { x -> y, y -> y }"),
        HASHED.replace("relative { swap }", "relative { keep }"),
        HASHED.replace("framework monic", "framework unrestricted"),
        HASHED.replace("swap", "flip"),
        HASHED_HEAD.replace("V y\n  edge e [a] (x, y)", "V z\n  edge e [a] (x, z)")
        + HASHED_KEEP.replace("y -> y", "z -> z")
        + HASHED_SWAP
        + HASHED_TAIL,
    ],
    ids=["label", "map-pair", "relative", "framework", "rule-name", "element-name"],
)
def test_hash_covers_what_the_checker_reads(text):
    assert _hash(text) != _hash(HASHED)


@pytest.mark.parametrize(
    "text, line, what",
    [
        # graphs before and after a second signature would not compose
        (MINIMAL.replace("rule keep", "signature\n  V\n  edge[a](V,V)\nend\n\nrule keep"), 13, "signature"),
        (MINIMAL + "signature\n  V\nend\n", 22, "signature"),
        (MINIMAL + "framework monic\n", 22, "framework"),
        (MINIMAL + "framework unrestricted\n", 22, "framework"),
    ],
    ids=["signature-between-graphs-and-rules", "signature-at-end", "same-framework", "other-framework"],
)
def test_repeated_signature_or_framework_rejected(text, line, what):
    with pytest.raises(SystemParseError, match=f"repeated {what}") as err:
        parse_system_file(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text, line, what",
    [
        (MINIMAL + "relative { keep }\nrelative { keep }\n", 23, "relative"),
        (MINIMAL + "relative { keep }\n\nrelative { }\n", 24, "relative"),
        (MINIMAL + 'strategy "arithmetic(size=1)"\nstrategy "arithmetic(size=1)"\n', 23, "strategy"),
        (
            MINIMAL.replace("rule keep", 'strategy "tropical(size=1)"\n\nrule keep')
            + 'strategy "arithmetic(size=1)"\n',
            24,
            "strategy",
        ),
    ],
    ids=["same-relative", "other-relative", "same-strategy", "other-strategy"],
)
def test_repeated_relative_or_strategy_rejected(text, line, what):
    # a later line would otherwise replace the earlier one without a word
    with pytest.raises(SystemParseError, match=f"repeated {what}") as err:
        parse_system_file(text)
    assert err.value.line == line


GRAPH_H = "graph H\n  V x\nend\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (MINIMAL + "signature\n  V\nend\n", "line 22: repeated signature block"),
        (MINIMAL + "framework monic\n", "line 22: repeated framework line"),
        (MINIMAL + "relative { }\nrelative { }\n", "line 23: repeated relative line"),
        (MINIMAL + 'strategy "a"\nstrategy "a"\n', "line 23: repeated strategy line"),
        (GRAPH_H + MINIMAL, "line 1: graph before signature"),
        ("rule r\n  L = H\nend\n" + MINIMAL, "line 1: rule before signature"),
        (MINIMAL + GRAPH_H.replace("H", "H I"), "line 22: graph needs exactly one name"),
        (MINIMAL + GRAPH_H.replace(" H", ""), "line 22: graph needs exactly one name"),
        (MINIMAL.replace("rule keep", "rule keep it"), "line 13: rule needs exactly one name"),
        (MINIMAL.replace("rule keep", "rule"), "line 13: rule needs exactly one name"),
        # the whole text is split into blocks before any directive is read
        (GRAPH_H + MINIMAL + "rule r\n", "line 25: unterminated block"),
        (MINIMAL + "end\n", "line 22: unknown directive 'end'"),
    ],
    ids=[
        "signature", "framework", "relative", "strategy", "graph-first", "rule-first",
        "graph-two-names", "graph-no-name", "rule-two-names", "rule-no-name",
        "unterminated-before-signature", "end-at-top-level",
    ],
)
def test_each_directive_check_keeps_its_message(text, message):
    with pytest.raises(SystemParseError) as err:
        parse_system_file(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "leg",
    [
        "{ x -> x -> x, y -> y, e -> e }",
        "{ x -> x y, y -> y, e -> e }",
        "{ x -> x, y -> y, e e -> e }",
        "{ x -> y, x -> x, y -> y, e -> e }",
    ],
    ids=["two-arrows", "two-targets", "two-sources", "source-twice"],
)
def test_a_rule_leg_is_read_whole(leg):
    text = MINIMAL.replace("l = { x -> x, y -> y, e -> e }", f"l = {leg}")
    with pytest.raises(SystemParseError, match="map") as err:
        parse_system_file(text)
    assert err.value.line == 17


@pytest.mark.parametrize(
    "line", ["relative keep", "relative { keep } }", "relative { keep", "relative { keep } x"]
)
def test_relative_is_a_set_in_braces(line):
    with pytest.raises(SystemParseError, match="relative must be written") as err:
        parse_system_file(MINIMAL + line + "\n")
    assert err.value.line == 22


def test_name_pairs_give_back_every_shipped_rule_leg():
    systems = [parse_system_file(p.read_text()) for p in sorted(SYSTEMS.glob("*.gts"))]
    for leg in (m for system in systems for r in system.rules for m in (r.l, r.r)):
        pairs = name_pairs(leg)
        assert [a for a, _ in pairs] == list(leg.dom.element_ids)
        assert _names_to_morphism(leg.dom, leg.cod, dict(pairs)) == leg
        assert _parse_map(print_map(pairs), 1) == dict(pairs)


# letters, '#', ',' and whitespace that str.split and the regex \s both
# count, among them line breaks that str.splitlines splits at
_LINE_ALPHABET = "ab#, \t\r\n\x0b\x0c\x1c\x85\xa0\u2003\u2028"


def _read_lines(text: str) -> list[tuple[str, int]]:
    """The line reader that read_blocks replaced, kept as its reference."""
    return [(body, lineno) for lineno, raw in enumerate(text.splitlines(), 1)
            if (body := raw.partition("#")[0].strip())]


@given(st.text(alphabet=_LINE_ALPHABET, max_size=40))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_the_line_reader_keeps_the_stripped_uncommented_lines(text):
    assert read_blocks(text) == [(body, lineno, None) for body, lineno in _read_lines(text)]


# openers per depth, and header and plain lines for each depth: a plain
# line's first word opens nothing there, and only a top-level `end` is a line
_OPENERS = ({"o"}, {"o", "p"})
_HEADERS = (["o", "o x", "o\tx"], ["o", "p y"])
_PLAIN = (["a", "a o", "p", "end", "ends"], ["a", "a o", "ends"], ["a", "o", "p", "ends"])


@st.composite
def _nested_blocks(draw):
    """Lines of nested blocks, each closed by an `end`, and the
    (line, line number, block) list that read_blocks should give."""
    lines: list[str] = []

    def put(line: str) -> int:
        lines.extend(draw(st.lists(st.sampled_from(["", "  ", "# end", "  # o"]), max_size=1)))
        indent = draw(st.sampled_from(["", "  ", "\t"]))
        lines.append(indent + line + draw(st.sampled_from(["", " ", "  # end"])))
        return len(lines)

    def body(depth: int) -> list:
        out = []
        for _ in range(draw(st.integers(0, 3))):
            if depth < len(_OPENERS) and draw(st.booleans()):
                header = draw(st.sampled_from(_HEADERS[depth]))
                out.append((header, put(header), body(depth + 1)))
                put("end")
            else:
                plain = draw(st.sampled_from(_PLAIN[depth]))
                out.append((plain, put(plain), None))
        return out

    return lines, body(0)


@given(_nested_blocks())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_a_block_holds_the_lines_up_to_its_matching_end(case):
    lines, want = case
    assert read_blocks("\n".join(lines), _OPENERS) == want


@given(
    _nested_blocks(),
    st.sampled_from(_HEADERS[0]),
    st.lists(st.sampled_from(_HEADERS[1]), max_size=1),
    st.lists(st.sampled_from(["a", "ends", "# end", ""])),
)
@settings(derandomize=True, max_examples=100, deadline=None)
def test_an_unterminated_block_is_reported_at_its_innermost_header(case, header, inner, tail):
    lines, _ = case
    headers = [header, *inner]
    with pytest.raises(SystemParseError, match="unterminated block") as err:
        read_blocks("\n".join([*lines, *headers, *tail]), _OPENERS)
    assert err.value.line == len(lines) + len(headers)


@given(st.text(alphabet=_LINE_ALPHABET.replace("#", "").replace("\n", ""), max_size=20))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_an_element_line_splits_its_arguments_at_commas_and_whitespace(args):
    row = element_row(f"edge e ({args})", 1)
    assert row == ["edge", "e", None, [a for a in re.split(r"[,\s]+", args) if a]]
