from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import pytest

from dpoterm.certificate import certificate_to_json, write_certificate
from dpoterm.cli import _parser, main
from dpoterm.sysfile import parse_system_file
from test_prover import LABELLED_BASE

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
PINNED = Path(__file__).resolve().parent / "certificates"
PINNED_STEPS = Path(__file__).resolve().parent / "steps_depth4.txt"


def test_prove_check_roundtrip(tmp_path, capsys):
    cert = tmp_path / "proof.cert"
    assert main(["prove", str(SYSTEMS / "loop_unfolding.gts"), "--out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "verdict terminating" in out
    assert main(["check", str(SYSTEMS / "loop_unfolding.gts"), str(cert)]) == 0
    assert "accept" in capsys.readouterr().out


def test_prove_to_stdout_writes_only_the_certificate(tmp_path, capsys):
    # the verdict line goes to stderr, so `prove ... > c.cert` checks
    system = str(SYSTEMS / "limitations.gts")
    assert main(["prove", system]) == 0
    out, err = capsys.readouterr()
    assert out == (PINNED / "limitations.cert").read_text()
    assert "verdict relatively-terminating remaining=[tau]\n" in err
    cert = tmp_path / "c.cert"
    cert.write_text(out)
    assert main(["check", system, str(cert)]) == 0


def test_a_labelled_base_sort_proves_and_checks(tmp_path, capsys):
    # size counts base elements per label: at size 1 the type graph has
    # one C element labelled r and one labelled g
    system = tmp_path / "labelled.gts"
    system.write_text(LABELLED_BASE)
    assert main(["prove", str(system)]) == 0
    out, err = capsys.readouterr()
    assert "verdict terminating" in err and "Traceback" not in err
    assert "    C C0 [r]\n    C C1 [g]\n" in out
    cert = tmp_path / "c.cert"
    cert.write_text(out)
    assert main(["check", str(system), str(cert)]) == 0
    # verified mode samples hosts with labelled base elements
    assert main(["prove", str(system), "--verified", "--out", str(tmp_path / "v.cert")]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_check_rejects_tampered(tmp_path, capsys):
    cert = tmp_path / "proof.cert"
    main(["prove", str(SYSTEMS / "loop_unfolding.gts"), "--out", str(cert)])
    capsys.readouterr()
    text = cert.read_text().replace("weight 2", "weight 1")
    cert.write_text(text)
    assert main(["check", str(SYSTEMS / "loop_unfolding.gts"), str(cert)]) == 2


def test_prove_failed_exit_code(tmp_path, capsys):
    code = main(
        [
            "prove",
            str(SYSTEMS / "limitations_tau.gts"),
            "--strategy",
            "arithmetic(size=1,bits=2,timeout=10)",
            "--out",
            str(tmp_path / "no.cert"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "epimorphism" in err  # the collapse-pattern warning


def test_prove_verified_mode(tmp_path, capsys):
    code = main(
        [
            "prove",
            str(SYSTEMS / "morphism_counting.gts"),
            "--verified",
            "--seed",
            "3",
            "--out",
            str(tmp_path / "v.cert"),
        ]
    )
    assert code == 0


def test_prove_verified_mode_with_an_empty_argument_sort(tmp_path, capsys):
    # m(e) over e(V,V): a random host graph with no e elements has no m
    # elements either, instead of drawing an argument from an empty sort
    system = tmp_path / "marks.gts"
    system.write_text(
        "signature\n  V\n  e(V,V)\n  m(e)\nend\n"
        "graph L\n  V x\n  V y\n  e a (x, y)\n  m k (a)\nend\n"
        "graph K\n  V x\n  V y\n  e a (x, y)\nend\n"
        "rule drop\n  L = L\n  K = K\n  R = K\n"
        "  l = { x -> x, y -> y, a -> a }\n  r = { x -> x, y -> y, a -> a }\nend\n"
        "framework monic\n"
    )
    out = str(tmp_path / "v.cert")
    for seed in range(6):
        assert main(["prove", str(system), "--verified", "--seed", str(seed), "--out", out]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.gts"
    bad.write_text("signature\n  V\nend\n")  # missing framework
    try:
        code = main(["prove", str(bad)])
    except SystemExit as e:
        code = e.code
    assert code == 1


def test_json_certificate_checkable(tmp_path, capsys):
    cert = tmp_path / "proof.json"
    assert (
        main(
            [
                "prove",
                str(SYSTEMS / "morphism_counting.gts"),
                "--json",
                "--out",
                str(cert),
            ]
        )
        == 0
    )
    assert cert.read_text().lstrip().startswith("{")
    assert main(["check", str(SYSTEMS / "morphism_counting.gts"), str(cert)]) == 0


def test_steps_simulator(capsys):
    assert (
        main(["steps", str(SYSTEMS / "loop_unfolding.gts"), "--graph", "L", "--depth", "2"])
        == 0
    )
    out = capsys.readouterr().out
    assert "depth 0: 1 graph" in out
    assert "normal forms reached" in out


def test_steps_output_is_pinned_on_every_shipped_graph(capsys):
    # steps_depth4.txt holds, after a "== system graph" line, the whole
    # stdout of `steps --depth 4`; the lower depths print its prefixes
    blocks = re.split(r"^== (\S+) (\S+)\n", PINNED_STEPS.read_text(), flags=re.M)[1:]
    pinned = {(s, g): out for s, g, out in zip(blocks[::3], blocks[1::3], blocks[2::3])}
    shipped = {
        (path.stem, g)
        for path in SYSTEMS.glob("*.gts")
        for g in parse_system_file(path.read_text()).graphs
    }
    assert set(pinned) == shipped and len(shipped) == 39
    for (system, g), out in sorted(pinned.items()):
        code = main(["steps", str(SYSTEMS / f"{system}.gts"), "--graph", g, "--depth", "4"])
        assert (code, *capsys.readouterr()) == (0, out, ""), (system, g)


_NODES = "".join(f"  V v{i}\n" for i in range(12))
_PATH = _NODES + "".join(f"  edge e{i} (v{i}, v{i + 1})\n" for i in range(11))


@pytest.mark.parametrize(
    "host, rule, out",
    [
        # cutting an edge of the 12-node path leaves two paths, and two
        # cuts leave three: the partitions of 12 into 2 and into 3 parts
        (_PATH, "L = E\n  K = N\n  R = N\n  l = { x -> x, y -> y }\n  r = { x -> x, y -> y }",
         "depth 0: 1 graph (23 elements)\n"
         "depth 1: 11 steps, 6 new graphs\n"
         "depth 2: 60 steps, 12 new graphs\n"),
        # a loop on one of 12 isolated nodes, then a second loop on the same
        # node or on another
        (_NODES, "L = X\n  K = X\n  R = Y\n  l = { x -> x }\n  r = { x -> x }",
         "depth 0: 1 graph (12 elements)\n"
         "depth 1: 12 steps, 1 new graphs\n"
         "depth 2: 12 steps, 2 new graphs\n"),
    ],
    ids=["path", "isolated"],
)
def test_steps_on_twelve_nodes_is_not_factorial(tmp_path, capsys, host, rule, out):
    system = tmp_path / "twelve.gts"
    system.write_text(
        "signature\n  V\n  edge(V,V)\nend\n"
        f"graph H\n{host}end\n"
        "graph E\n  V x\n  V y\n  edge e (x, y)\nend\n"
        "graph N\n  V x\n  V y\nend\n"
        "graph X\n  V x\nend\n"
        "graph Y\n  V x\n  edge e (x, x)\nend\n"
        f"rule r\n  {rule}\nend\n"
        "framework monic\n"
    )
    assert main(["steps", str(system), "--graph", "H", "--depth", "2"]) == 0
    assert capsys.readouterr() == (out, "")


def test_a_sort_may_be_declared_after_the_sorts_that_use_it(tmp_path, capsys):
    # loop_unfolding with edge(V,V) declared before V: the pruned type
    # graph is built without reading an argument sort before it is numbered
    text = (SYSTEMS / "loop_unfolding.gts").read_text()
    system = tmp_path / "reordered.gts"
    system.write_text(text.replace("  V\n  edge(V,V)\n", "  edge(V,V)\n  V\n"))
    assert system.read_text() != text
    for form, name in (([], "proof.cert"), (["--json"], "proof.json")):
        cert = tmp_path / name
        assert main(["prove", str(system), "--out", str(cert), *form]) == 0
        assert main(["check", str(system), str(cert)]) == 0
    assert main(["prove", str(system), "--verified", "--out", str(tmp_path / "v.cert")]) == 0
    assert main(["steps", str(system), "--graph", "L"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_generated_element_names_stay_unique(tmp_path, capsys):
    # loop_unfolding over the sorts edge[a..f](V,V) and edge1(V,V): edge
    # element 10 and edge1 element 0 of the type graph are both edge10 by
    # sort name plus id
    text = (SYSTEMS / "loop_unfolding.gts").read_text()
    system = tmp_path / "edge1.gts"
    system.write_text(
        text.replace("  edge(V,V)\n", "  edge[a,b,c,d,e,f](V,V)\n  edge1(V,V)\n")
        .replace("edge loop (x, x)", "edge loop [a] (x, x)")
        .replace("edge e (x, y)", "edge e [a] (x, y)")
    )
    assert system.read_text().count("[a]") == 2
    for form, name in (([], "proof.cert"), (["--json"], "proof.json")):
        cert = tmp_path / name
        assert main(["prove", str(system), "--out", str(cert), *form]) == 0
        assert main(["check", str(system), str(cert)]) == 0
    assert "edge1 edge10'" in (tmp_path / "proof.cert").read_text()
    assert "Traceback" not in capsys.readouterr().err


def test_prove_unwritable_out_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "c.cert"
    assert main(["prove", str(SYSTEMS / "loop_unfolding.gts"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}:") and "Traceback" not in err


def test_readme_names_every_option_of_the_parser():
    readme = (SYSTEMS.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = _parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        opt
        for sub in subparsers.choices.values()
        for action in sub._actions
        for opt in action.option_strings
    } - {"-h", "--help"}
    assert named == options


def _drop_steps(data):
    del data["steps"]


def _null_rules(data):
    data["steps"][0]["rules"] = None


def _short_type_graph_row(data):
    data["steps"][0]["typeGraph"][0] = data["steps"][0]["typeGraph"][0][:2]


def _null_rule_name(data):
    data["steps"][0]["rules"][0]["rule"] = None


@pytest.mark.parametrize(
    "mutate", [_drop_steps, _null_rules, _short_type_graph_row, _null_rule_name]
)
def test_check_malformed_json_is_input_error(searched, tmp_path, capsys, mutate):
    _, cert, _ = searched["limitations"]
    data = json.loads(certificate_to_json(cert))
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(SYSTEMS / "limitations.gts"), str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "payload",
    [b'{"version": 1, "steps": ' + b"[" * 100_000, b"\xff\xfe{"],
    ids=["deeply-nested", "not-utf8"],
)
def test_check_unreadable_certificate_is_input_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.cert"
    path.write_bytes(payload)
    assert main(["check", str(SYSTEMS / "limitations.gts"), str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("form", ["text", "json"])
def test_check_version_1_certificate_is_input_error(searched, tmp_path, capsys, form):
    _, cert, _ = searched["loop_unfolding"]
    if form == "json":
        data = json.loads(certificate_to_json(cert))
        data["version"] = 1
        text = json.dumps(data)
    else:
        head, rest = write_certificate(cert).split("\n", 1)
        assert head == "dpoterm-certificate 2"
        text = "dpoterm-certificate 1\n" + rest
    path = tmp_path / "old.cert"
    path.write_text(text)
    assert main(["check", str(SYSTEMS / "loop_unfolding.gts"), str(path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "unsupported certificate version" in err
    assert "reject" not in out + err and "Traceback" not in err


def test_prove_too_many_bits_is_strategy_error(capsys):
    strategy = "arithmetic(size=1,bits=64,timeout=1)"
    assert main(["prove", str(SYSTEMS / "loop_unfolding.gts"), "--strategy", strategy]) == 1
    assert capsys.readouterr().err.startswith("error: strategy:")


@pytest.mark.parametrize("opener", ["repeat(", "("])
@pytest.mark.parametrize("where", ["option", "file"])
def test_deeply_nested_strategy_is_strategy_error(tmp_path, capsys, opener, where):
    strategy = opener * 5000 + "arithmetic(size=1,bits=1,timeout=1)" + ")" * 5000
    system = SYSTEMS / "loop_unfolding.gts"
    args = ["prove", str(system), "--strategy", strategy]
    if where == "file":
        system = tmp_path / "nested.gts"
        system.write_text((SYSTEMS / "loop_unfolding.gts").read_text() + f'strategy "{strategy}"\n')
        args = ["prove", str(system)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: strategy: nesting deeper than 100")
    assert "Traceback" not in err


def test_a_rule_side_of_thousands_of_elements_proves_and_checks(tmp_path, capsys):
    # hom enumeration takes one loop step, not one stack frame, per element
    nodes = [f"  V n{i}\n" for i in range(5000)]
    kept = ", ".join(f"n{i} -> n{i}" for i in range(len(nodes) - 1))
    system = tmp_path / "drop.gts"
    system.write_text(
        f"signature\n  V\nend\ngraph L\n{''.join(nodes)}end\n"
        f"graph K\n{''.join(nodes[:-1])}end\n"
        f"rule drop\n  L = L\n  K = K\n  R = K\n  l = {{ {kept} }}\n  r = {{ {kept} }}\nend\n"
        "framework monic\n"
    )
    cert = tmp_path / "drop.cert"
    assert main(["prove", str(system), "--out", str(cert)]) == 0
    assert "verdict terminating" in capsys.readouterr().out
    assert main(["check", str(system), str(cert)]) == 0
    assert "accept" in capsys.readouterr().out


@pytest.mark.parametrize(
    "closure",
    [
        "{ o -> zero0 -> zero0, p -> plus0, x -> V0, y -> V0, z -> V0 }",
        "{ o -> zero0 zero0, p -> plus0, x -> V0, y -> V0, z -> V0 }",
        "{ o o -> zero0, p -> plus0, x -> V0, y -> V0, z -> V0 }",
        "{ o -> V0, o -> zero0, p -> plus0, x -> V0, y -> V0, z -> V0 }",
    ],
    ids=["two-arrows", "two-targets", "two-sources", "source-twice"],
)
def test_check_reads_a_closure_whole(tmp_path, capsys, closure):
    pinned = Path(__file__).resolve().parent / "certificates" / "limitations.cert"
    written = "{ o -> zero0, p -> plus0, x -> V0, y -> V0, z -> V0 }"
    assert written in pinned.read_text()
    path = tmp_path / "closure.cert"
    path.write_text(pinned.read_text().replace(written, closure))
    assert main(["check", str(SYSTEMS / "limitations.gts"), str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "map" in err and "Traceback" not in err
