"""Command-line interface: grammar, JSON output, exit codes."""

import json
import subprocess
import sys

import pytest

from ectorsion import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------

def test_family_order8_over_f7(capsys):
    js = run_json(capsys, "family", "--field", "Fp:7", "--family", "e8", "--t", "3")
    assert js["family"] == "e8"
    assert js["params"] == {"t": "3"}
    assert js["curve"] == {"field": "Fp:7", "model": "cubic", "alpha": "0", "p": "0", "q": "1"}
    orders = sorted(w["order"] for w in js["witnesses"])
    assert orders == [2, 4, 4, 8, 8, 8, 8]
    assert all(w["verified"] for w in js["witnesses"])
    assert {"point": {"x": "5", "y": "2"}, "order": 8, "verified": True} in js["witnesses"]


def test_family_over_q_and_binary(capsys):
    js = run_json(capsys, "family", "--field", "Q", "--family", "e12", "--T", "2")
    assert js["curve"]["field"] == "Q"
    assert any(w["order"] == 12 for w in js["witnesses"])

    js2 = run_json(capsys, "family", "--field", "F2k:2:7", "--family", "e4char2",
                   "--gamma", "1")
    assert js2["curve"] == {"field": "F2k:2:7", "model": "char2", "a2": "0", "a6": "1"}


def test_family_parameter_mistakes(capsys):
    code, _ = run(capsys, "family", "--field", "Fp:7", "--family", "e8", "--a", "1")
    assert code == 2  # wrong parameter name for the family
    code, _ = run(capsys, "family", "--field", "Fp:7", "--family", "e8")
    assert code == 2  # missing --t
    code, _ = run(capsys, "family", "--field", "Fp:7", "--family", "e8", "--t", "1")
    assert code == 2  # invalid parameter value
    code, _ = run(capsys, "family", "--field", "Fp:6", "--family", "e8", "--t", "3")
    assert code == 2  # composite modulus
    code, _ = run(capsys, "family", "--field", "Fp:7", "--family", "nope", "--t", "3")
    assert code == 1  # not in the subcommand's choices: usage error
    for family, params in (("e4", ("--a", "1", "--b", "1")), ("e8", ("--t", "2")),
                           ("e10", ("--u", "2")), ("e12", ("--T", "2"))):
        code = cli.main(["family", "--field", "F2k:3:b", "--family", family, *params])
        assert code == 2  # every GF(2^k) element is a square: blame the field
        assert "characteristic != 2" in capsys.readouterr().err


def test_family_no_verify_flag(capsys):
    js = run_json(capsys, "family", "--field", "Fp:7", "--family", "e8", "--t", "3",
                  "--no-verify")
    assert all(w["verified"] is False for w in js["witnesses"])


# ---------------------------------------------------------------------------
# halve
# ---------------------------------------------------------------------------

CURVE_F5 = '{"alpha": 0, "p": 4, "q": 1}'


def test_halve_two_torsion_point(capsys):
    js = run_json(capsys, "halve", "--field", "Fp:5", "--curve", CURVE_F5,
                  "--point", '{"x": 0, "y": 0}')
    assert js["halvable"] is True
    assert js["criterion"] == "quadext"
    got = {(h["point"]["x"], h["point"]["y"]) for h in js["halves"]}
    assert got == {("1", "4"), ("1", "1")}
    assert js["witness"]["r"] == "0"
    assert set(js["witness"]["rho"]) == {"c0", "c1"}


def test_halve_not_halvable_is_not_an_error(capsys):
    # x = 3 is a non-square mod 7, so the r-and-T criterion refuses (3, 3)
    js = run_json(capsys, "halve", "--field", "Fp:7",
                  "--curve", '{"alpha": 0, "p": 0, "q": 1}',
                  "--point", '{"x": 3, "y": 3}', "--method", "rT")
    assert js == {"halvable": False, "criterion": "rT", "halves": [], "witness": {}}

    js2 = run_json(capsys, "halve", "--field", "Fp:7",
                   "--curve", '{"alpha": 0, "p": 0, "q": 1}',
                   "--point", '{"x": 3, "y": 3}', "--method", "quadext")
    assert js2["halvable"] is False and js2["criterion"] == "quadext"


def test_halve_char2(capsys):
    js = run_json(capsys, "halve", "--field", "F2k:2:7",
                  "--curve", '{"a2": "0", "a6": "1"}', "--point", '{"x": "0", "y": "1"}')
    assert js["criterion"] == "char2"
    assert js["halvable"] is True
    assert set(js["witness"]) == {"l", "r"}


def test_halve_error_paths(capsys):
    code, _ = run(capsys, "halve", "--field", "Fp:5", "--curve", CURVE_F5,
                  "--point", '{"x": 1, "y": 2}')
    assert code == 2  # off the curve
    code, _ = run(capsys, "halve", "--field", "Fp:5", "--curve", CURVE_F5,
                  "--point", '"infinity"')
    assert code == 2  # halving needs an affine point
    code, _ = run(capsys, "halve", "--field", "Fp:5", "--curve", CURVE_F5,
                  "--point", '{"x": 0, "y": 0}', "--method", "split")
    assert code == 2  # wrong case: g is irreducible mod 5
    code, _ = run(capsys, "halve", "--field", "Fp:5", "--curve", '{"alpha": 0}',
                  "--point", '{"x": 0, "y": 0}')
    assert code == 2  # malformed curve JSON
    code, _ = run(capsys, "halve", "--field", "Fp:5", "--curve", CURVE_F5,
                  "--point", '{"x": 0, "y": 0}', "--method", "bogus")
    assert code == 1  # usage error


def test_halve_infers_field_from_curve_json(capsys):
    curve = '{"field": "Fp:5", "alpha": 0, "p": 4, "q": 1}'
    js = run_json(capsys, "halve", "--curve", curve, "--point", '{"x": 0, "y": 0}')
    assert js["halvable"] is True


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------

def test_order_basic(capsys):
    js = run_json(capsys, "order", "--field", "Fp:7",
                  "--curve", '{"alpha": 0, "p": 0, "q": 1}', "--point", '{"x": 5, "y": 2}')
    assert js["order"] == 8
    js2 = run_json(capsys, "order", "--field", "Fp:7",
                   "--curve", '{"alpha": 0, "p": 0, "q": 1}', "--point", '"infinity"')
    assert js2["order"] == 1


def test_order_with_cap(capsys):
    js = run_json(capsys, "order", "--field", "Fp:7",
                  "--curve", '{"alpha": 0, "p": 0, "q": 1}',
                  "--point", '{"x": 5, "y": 2}', "--cap", "3")
    assert js["order"] is None
    assert js["cap"] == 3
    for cap in ("0", "-1"):
        code, _ = run(capsys, "order", "--field", "Fp:7",
                      "--curve", '{"alpha": 0, "p": 0, "q": 1}',
                      "--point", '{"x": 5, "y": 2}', "--cap", cap)
        assert code == 2


def test_order_over_q(capsys):
    js = run_json(capsys, "order", "--field", "Q",
                  "--curve", '{"alpha": 0, "p": 3, "q": 1}',
                  "--point", '{"x": "-1", "y": "1"}')
    assert js["order"] == 4


# ---------------------------------------------------------------------------
# iso
# ---------------------------------------------------------------------------

def test_iso_e4(capsys):
    js = run_json(capsys, "iso", "--field", "Q", "--kind", "e4",
                  "--a", "1", "--b", "1", "--c", "2", "--d", "4")
    assert js == {"kind": "e4", "isomorphic": True, "u": "2"}
    js2 = run_json(capsys, "iso", "--field", "Q", "--kind", "e4",
                   "--a", "1", "--b", "1", "--c", "2", "--d", "5")
    assert js2["isomorphic"] is False and js2["u"] is None


def test_iso_e8_and_char2(capsys):
    js = run_json(capsys, "iso", "--field", "Fp:7", "--kind", "e8",
                  "--s", "3", "--t", "4")
    assert js == {"kind": "e8", "isomorphic": True}
    js2 = run_json(capsys, "iso", "--field", "F2k:3:b", "--kind", "e8char2",
                   "--s", "2", "--t", "2")
    assert js2["isomorphic"] is True


def test_iso_flag_mismatch(capsys):
    code, _ = run(capsys, "iso", "--field", "Q", "--kind", "e4",
                  "--a", "1", "--b", "1", "--c", "2")
    assert code == 2  # missing --d
    code, _ = run(capsys, "iso", "--field", "Q", "--kind", "e8",
                  "--s", "2", "--t", "3", "--a", "1")
    assert code == 2  # stray --a


# ---------------------------------------------------------------------------
# census and verify-examples
# ---------------------------------------------------------------------------

def test_census_json(capsys):
    js = run_json(capsys, "census", "--field", "F2k:2:7", "--order", "8")
    assert js == {
        "field": "F2k:2:7",
        "torsion_order": 8,
        "family_count": 1,
        "brute_force_count": 1,
        "agree": True,
    }


def test_census_table(capsys):
    code, out = run(capsys, "census", "--field", "F2k:2:7", "--order", "8", "--table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["field", "torsion_order", "family_count",
                                "brute_force_count", "agree"]
    assert lines[1].split() == ["F2k:2:7", "8", "1", "1", "True"]


def test_census_guards(capsys):
    code, _ = run(capsys, "census", "--field", "Fp:7", "--order", "4")
    assert code == 2
    code, _ = run(capsys, "census", "--field", "F2k:2:7", "--order", "6")
    assert code == 1  # not among argparse choices


def test_verify_examples(capsys):
    js = run_json(capsys, "verify-examples")
    assert js["ok"] is True
    assert js["f3"]["ok"] is True and js["f4"]["ok"] is True


def test_verify_examples_failure_exits_3(capsys, monkeypatch):
    broken = dict(cli.verify_f3_example())
    broken["ok"] = False
    monkeypatch.setattr(cli, "verify_f3_example", lambda: broken)
    code, _ = run(capsys, "verify-examples")
    assert code == 3


# ---------------------------------------------------------------------------
# output modes, usage errors, end-to-end script
# ---------------------------------------------------------------------------

def test_text_output_carries_the_same_content(capsys):
    js = run_json(capsys, "iso", "--field", "Q", "--kind", "e4",
                  "--a", "1", "--b", "1", "--c", "2", "--d", "4")
    code, out = run(capsys, "iso", "--field", "Q", "--kind", "e4",
                    "--a", "1", "--b", "1", "--c", "2", "--d", "4",
                    "--output", "text")
    assert code == 0
    lines = dict(l.split(": ", 1) for l in out.strip().splitlines())
    assert lines == {"kind": "e4", "isomorphic": "True", "u": "2"}
    assert js["kind"] == "e4"


def test_usage_errors(capsys):
    assert cli.main([]) == 1
    assert cli.main(["bogus-command"]) == 1
    assert cli.main(["family", "--field", "Fp:7"]) == 1  # missing --family
    assert cli.main(["halve", "--curve", "{}", "--point", "{}", "--what"]) == 1


def test_bad_field_descriptors(capsys):
    code, _ = run(capsys, "family", "--field", "Zp:7", "--family", "e8", "--t", "3")
    assert code == 2
    code, _ = run(capsys, "family", "--field", "F2k:2:6", "--family", "e4char2",
                  "--gamma", "1")
    assert code == 2  # x^2+x is reducible


def test_console_script_end_to_end():
    proc = subprocess.run(
        ["ectorsion", "census", "--field", "F2k:2:7", "--order", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    js = json.loads(proc.stdout)
    assert js["agree"] is True
    proc2 = subprocess.run(["ectorsion"], capture_output=True, text=True)
    assert proc2.returncode == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ectorsion", "verify-examples"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
