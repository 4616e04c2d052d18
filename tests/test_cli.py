from __future__ import annotations

import json
from pathlib import Path

import pytest

from dpoterm.certificate import certificate_to_json
from dpoterm.cli import main

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


def test_prove_check_roundtrip(tmp_path, capsys):
    cert = tmp_path / "proof.cert"
    assert main(["prove", str(SYSTEMS / "loop_unfolding.gts"), "--out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "verdict terminating" in out
    assert main(["check", str(SYSTEMS / "loop_unfolding.gts"), str(cert)]) == 0
    assert "accept" in capsys.readouterr().out


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


def test_smtlib_export(tmp_path, capsys):
    outdir = tmp_path / "smt"
    assert (
        main(
            [
                "prove",
                str(SYSTEMS / "loop_unfolding.gts"),
                "--emit-smtlib",
                str(outdir),
                "--out",
                str(tmp_path / "c.cert"),
            ]
        )
        == 0
    )
    files = sorted(p.name for p in outdir.glob("*.smt2"))
    assert files == [
        "loop_unfolding-arctic.smt2",
        "loop_unfolding-arithmetic.smt2",
        "loop_unfolding-tropical.smt2",
    ]
    body = (outdir / "loop_unfolding-arithmetic.smt2").read_text()
    assert body.count("(") == body.count(")")


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
