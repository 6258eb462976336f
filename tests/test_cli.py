"""Command-line interface: grammar, JSON output, exit codes."""

import ast
import glob
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt

import pytest

import ectorsion
from ectorsion import cli, families
from ectorsion.field import BinaryField

import oracles

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


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


def test_family_over_q_prints_past_the_int_to_str_digit_limit(capsys):
    """An output has several times the digits of its input: e12 at T = n/d with
    600-digit parts prints numbers past CPython's 4300-digit str(int) limit."""
    n, d = 10**600 // 7, 10**599 // 3 + 1
    js = run_json(capsys, "family", "--field", "Q", "--family", "e12", f"--T={n}/{d}")
    curve, witnesses = js["curve"], js["witnesses"]
    assert max(len(curve[k]) for k in ("alpha", "p", "q")) > 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # Fraction() parses through int(str)
    try:
        alpha, p, q = (Fraction(curve[k]) for k in ("alpha", "p", "q"))
        points = [(Fraction(w["point"]["x"]), Fraction(w["point"]["y"])) for w in witnesses]
    finally:
        sys.set_int_max_str_digits(limit)
    A, B, C = p - alpha, q - alpha * p, -alpha * q  # (x - alpha)(x^2 + p*x + q)
    for P, w in zip(points, witnesses):
        assert oracles.qq_cubic_on(A, B, C, P)
        assert oracles.qq_cubic_order(A, B, C, P, cap=w["order"]) == w["order"]


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
    """Witnesses are always checked: there is no flag to skip it."""
    code = cli.main(["family", "--field", "Fp:7", "--family", "e8", "--t", "3", "--no-verify"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""  # usage error
    assert "unrecognized arguments: --no-verify" in captured.err


def test_a_witness_off_its_curve_exits_3(capsys, monkeypatch):
    """A witness the library built that fails its check is a verification failure."""
    def wrong_p(field, t, e8_p=families._e8_p):
        return field._red(e8_p(field, t) + 1)

    monkeypatch.setattr(families, "_e8_p", wrong_p)
    code = cli.main(["family", "--field", "Fp:7", "--family", "e8", "--t", "3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("verification failure: witness (")


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


def test_halve_method_for_the_other_curve_model_exits_2(capsys):
    cubic = ["--curve", '{"field": "Q", "alpha": "0", "p": "1", "q": "1"}',
             "--point", '{"x": "0", "y": "0"}']
    char2 = ["--curve", '{"field": "F2k:2:7", "a2": "1", "a6": "1"}',
             "--point", '{"x": "0", "y": "1"}']
    for args, method in [(cubic, "char2"), (char2, "split"), (char2, "quadext"), (char2, "rT")]:
        code, _ = run(capsys, "halve", *args, "--method", method)
        assert code == 2, method
    code, _ = run(capsys, "halve", "--curve", '{"field": 0, "alpha": "0", "p": "1", "q": "1"}',
                  "--point", '"infinity"')
    assert code == 2  # a field descriptor that is not a string


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
    js3 = run_json(capsys, "order", "--field", "Fp:7",
                   "--curve", '{"alpha": 0, "p": 0, "q": 1}', "--point", '{"x": "-2", "y": "9"}')
    assert js3 == {"point": {"x": "5", "y": "2"}, "order": 8}  # echoed in canonical form


def test_order_refuses_a_field_the_curve_json_contradicts(capsys):
    """--field and the curve's own descriptor must agree; an equal pair is read as one."""
    curve = '{"field": "Fp:11", "alpha": 0, "p": 0, "q": 1}'
    code = cli.main(["order", "--field", "Fp:7", "--curve", curve, "--point", '{"x": 0, "y": 0}'])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Fp:11" in captured.err and "Fp:7" in captured.err
    js = run_json(capsys, "order", "--field", "Fp:11", "--curve", curve,
                  "--point", '{"x": 0, "y": 0}')
    assert js == {"point": {"x": "0", "y": "0"}, "order": 2}


def test_order_with_cap(capsys):
    """Orders are exact: there is no flag to cap the search."""
    code = cli.main(["order", "--field", "Fp:7", "--curve", '{"alpha": 0, "p": 0, "q": 1}',
                     "--point", '{"x": 5, "y": 2}', "--cap", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""  # usage error
    assert "unrecognized arguments: --cap 3" in captured.err


def test_order_refuses_boolean_coordinates(capsys):
    """JSON true/false are not field elements: exit 2, over F_p and GF(2^k) alike."""
    fp_curve = '{"field": "Fp:7", "alpha": %s, "p": "0", "q": "1"}'
    fp_point = '{"x": %s, "y": %s}'
    js = run_json(capsys, "order", "--curve", fp_curve % "1", "--point", fp_point % (1, 0))
    assert js["order"] == 2  # the same call with ints is a valid query
    for curve, point in (
        (fp_curve % "true", fp_point % ("true", "false")),
        (fp_curve % "1", fp_point % ("true", "false")),
        (fp_curve % "true", fp_point % (1, 0)),
        ('{"field": "F2k:3:b", "a2": true, "a6": true}', '{"x": "0", "y": "1"}'),
    ):
        code, _ = run(capsys, "order", "--curve", curve, "--point", point)
        assert code == 2, (curve, point)


def test_order_over_q(capsys):
    js = run_json(capsys, "order", "--field", "Q",
                  "--curve", '{"alpha": 0, "p": 3, "q": 1}',
                  "--point", '{"x": "-1", "y": "1"}')
    assert js["order"] == 4


def test_order_over_q_stops_at_mazur_bound(capsys):
    """No rational torsion order exceeds 12: a point of infinite order is null, at once."""
    curve, point = {"alpha": "0", "p": "0", "q": "-2"}, {"x": "2", "y": "2"}  # infinite order
    assert oracles.qq_cubic_order(0, -2, 0, (2, 2), cap=12) == 0
    assert _timed_order(capsys, "Q", curve, point) is None
    curve4, point4 = {"alpha": "0", "p": "3", "q": "1"}, {"x": "-1", "y": "1"}  # order 4
    assert _timed_order(capsys, "Q", curve4, point4) == 4


def _oracle_mul(add, n, P):
    R = oracles.INF
    while n:
        if n & 1:
            R = add(R, P)
        P = add(P, P)
        n >>= 1
    return R


def _assert_is_order(add, P, n, q):
    """nP = O, (n/l)P != O for every prime l | n, and a multiple of n is in the Hasse interval."""
    assert _oracle_mul(add, n, P) is oracles.INF
    rest, primes, d = n, set(), 2
    while d * d <= rest:
        while rest % d == 0:
            primes.add(d)
            rest //= d
        d += 1
    primes |= {rest} - {1}
    for ell in primes:
        assert _oracle_mul(add, n // ell, P) is not oracles.INF
    r = isqrt(4 * q)
    assert (q + 1 + r + 1) // n * n >= q + 1 - r


def _timed_order(capsys, field, curve, point):
    """The order answer, from a call that finishes in under a second."""
    t = time.perf_counter()
    js = run_json(capsys, "order", "--field", field, "--curve", json.dumps(curve),
                  "--point", json.dumps(point))
    assert time.perf_counter() - t < 1.0
    return js["order"]


def test_order_over_a_31_bit_prime_field_is_fast(capsys):
    p = 2**31 - 1  # p = 3 mod 4, so y = rhs^((p+1)/4) when rhs is a square
    A, B, C = 1, 3, 0  # y^2 = x (x^2 + x + 3): alpha = 0, g = x^2 + x + 3
    x = next(x for x in range(2, p)
             if pow(oracles.fp_cubic_rhs(p, A, B, C, x), (p - 1) // 2, p) == 1)
    P = (x, pow(oracles.fp_cubic_rhs(p, A, B, C, x), (p + 1) // 4, p))
    assert oracles.fp_cubic_on(p, A, B, C, P)
    curve, point = {"alpha": "0", "p": "1", "q": "3"}, {"x": str(P[0]), "y": str(P[1])}
    n = _timed_order(capsys, f"Fp:{p}", curve, point)
    assert n > 12
    _assert_is_order(lambda U, V: oracles.fp_cubic_add(p, A, B, C, U, V), P, n, p)


def test_order_over_gf2_20_is_fast(capsys):
    F = BinaryField(20)
    k, mod, a2, a6 = 20, F.modulus, 1, 7
    for x in range(3, 1 << k):
        # y = x z turns the curve into z^2 + z = x + a2 + a6 / x^2.
        z = F.solve_artin_schreier(F(x) + F(a2) + F(a6) / (F(x) * F(x)))
        if z is not None:
            P = (x, oracles.gf2_mul(x, z.value, mod, k))
            break
    assert oracles.char2_on(k, mod, a2, a6, P)
    curve = {"a2": format(a2, "x"), "a6": format(a6, "x")}
    point = {"x": format(P[0], "x"), "y": format(P[1], "x")}
    n = _timed_order(capsys, F.descriptor, curve, point)
    assert n > 12
    _assert_is_order(lambda U, V: oracles.char2_add(k, mod, a2, a6, U, V), P, n, 1 << k)


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


# Each subcommand's answer, as the dict it prints: over F_p, GF(2^k) and Q,
# with empty lists, nulls, bools and a 31-bit prime among the values.
_CAP_DIGITS = "7" * 4300
_ANSWERS = [
    ["family", "--field", "Fp:7", "--family", "e8", "--t", "3"],
    ["family", "--field", "Fp:2147483647", "--family", "e12", "--T", "3"],
    ["family", "--field", "Q", "--family", "e10", "--u", "-3/4"],
    ["family", "--field", "F2k:8:11b", "--family", "e8char2", "--t", "3"],
    ["halve", "--field", "Fp:7", "--curve", '{"alpha": 0, "p": 0, "q": 1}',
     "--point", '{"x": 5, "y": 2}'],
    ["halve", "--field", "Fp:7", "--curve", '{"alpha": 0, "p": 0, "q": 1}',
     "--point", '{"x": 0, "y": 0}'],
    ["halve", "--curve", '{"field": "Q", "alpha": 0, "p": 0, "q": -1}', "--point", '{"x": 0, "y": 0}',
     "--method", "split"],
    ["halve", "--curve", '{"field": "F2k:8:11b", "a2": "0", "a6": "ad"}',
     "--point", '{"x": "bf", "y": "b8"}'],
    ["order", "--field", "Fp:7", "--curve", '{"alpha": 0, "p": 0, "q": 1}',
     "--point", '{"x": 5, "y": 2}'],
    ["order", "--field", "Q", "--curve", '{"alpha": 0, "p": 0, "q": -2}',
     "--point", '{"x": 2, "y": 2}'],
    ["iso", "--field", "Q", "--kind", "e4", "--a", "1", "--b", "1", "--c", "2", "--d", "4"],
    ["iso", "--field", "Q", "--kind", "e4", "--a", "1", "--b", "1", "--c", "3", "--d", "4"],
    ["iso", "--field", "F2k:3:b", "--kind", "e8char2", "--s", "2", "--t", "3"],
    ["census", "--field", "F2k:2:7", "--order", "8"],
    ["verify-examples"],
]


def test_json_output_is_json_dumps_byte_for_byte():
    answers = [cli._COMMANDS[argv[0]](cli._parse(argv)) for argv in _ANSWERS]
    strings = ['', 'a"b', "back\\slash", "\x00\x1f\x7f\n\t\r\b\f", "caf\u00e9", "\u2603",
               "\U0001f600", "\ud800", "</script>", "x" * 10**5]
    values = [
        {}, [], (), {"": {}}, [[]], [{}], {"a": [], "b": {}}, (1, (2, ()), [3]), [(), {}],
        {"k": {"k": {"k": [1, [2, [3, {"deep": None}]]]}}},
        {s: s for s in strings}, strings, tuple(strings),
        [0, -1, 1, 10**4299, -(10**4299), int(_CAP_DIGITS), True, False, None, 1.5, -0.0,
         float("inf"), float("nan")],
        {"t": True, "f": False, "n": None, "i": 2**31 - 1},
        *strings, True, False, None, 0, -(10**4299),
    ]
    for obj in answers + values:
        assert cli._json(obj) == json.dumps(obj, indent=2), obj


def test_json_output_at_the_digit_cap_is_json_dumps_byte_for_byte():
    """About 400 kB: e12 over Q at a 4,300-digit T."""
    argv = ["family", "--field", "Q", "--family", "e12", "--T", _CAP_DIGITS]
    out = cli._COMMANDS["family"](cli._parse(argv))
    expected = json.dumps(out, indent=2)
    assert len(expected) > 400_000
    assert cli._json(out) == expected


def test_malformed_rational_literals_exit_2(capsys):
    for lit in ("0.5", "1e400", "1e1000000000", "1/0", "1" * 4301):
        code, _ = run(capsys, "family", "--field", "Q", "--family", "e12", "--T", lit)
        assert code == 2
    for lit in ("1_0", "\u0663", "3/-4", "1" * 4301):  # F_p literals follow Q's grammar
        code, out = run(capsys, "family", "--field", "Fp:101", "--family", "e6", "--t", lit)
        assert code == 2 and out == "", lit
    js = run_json(capsys, "family", "--field", "Q", "--family", "e12", "--T=-3/4")
    assert js["params"] == {"T": "-3/4"}


def test_fp_literal_with_a_zero_denominator_mod_p_exits_2(capsys):
    for lit in ("1/7", "1/0", "2/14"):
        code = cli.main(["family", "--field", "Fp:7", "--family", "e8", "--t", lit])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: zero denominator mod p in {lit!r}\n"


def test_binary_literals_past_4300_hex_digits_exit_2(capsys):
    argv = ["family", "--field", "F2k:8:11b", "--family", "e4char2", "--gamma"]
    assert run_json(capsys, *argv, "9c" * 2150)["params"] == {"gamma": "79"}
    code, out = run(capsys, *argv, "9" * 4301)
    assert code == 2 and out == ""


def test_negative_fractions_as_option_values(capsys):
    for argv in (["family", "--field", "Q", "--family", "e12", "--T"],
                 ["family", "--field", "Fp:101", "--family", "e8", "--t"]):
        joined = run_json(capsys, *argv[:-1], argv[-1] + "=-3/4")
        assert run_json(capsys, *argv, "-3/4") == joined
    js = run_json(capsys, "family", "--field", "Q", "--family", "e12", "--T", "-3/4")
    assert js["params"] == {"T": "-3/4"}
    iso = ["iso", "--field", "Q", "--kind", "e4", "--b", "1", "--d", "16"]
    js = run_json(capsys, *iso, "--a", "-1/2", "--c", "-2")
    assert js == run_json(capsys, *iso, "--a=-1/2", "--c=-2")
    assert js == {"kind": "e4", "isomorphic": True, "u": "4"}
    js = run_json(capsys, "iso", "--field", "Q", "--kind", "e8", "--s", "-1/3", "--t", "-1/3")
    assert js == {"kind": "e8", "isomorphic": True}


def test_no_assert_statements_in_the_package():
    """Checks that guard results raise VerificationError; `python -O` strips asserts."""
    package = os.path.dirname(os.path.abspath(ectorsion.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_usage_errors(capsys):
    assert cli.main([]) == 1
    assert cli.main(["bogus-command"]) == 1
    assert cli.main(["family", "--field", "Fp:7"]) == 1  # missing --family
    assert cli.main(["halve", "--curve", "{}", "--point", "{}", "--what"]) == 1


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    try:
        run_json(capsys, "iso", "--field", "Q", "--kind", "e8", "--s", "2", "--t", "2")
        run_json(capsys, "census", "--field", "F2k:2:7", "--order", "4")
        assert cli.main(["family", "--field", "Fp:7"]) == 1
        run_json(capsys, "order", "--field", "Fp:7", "--curve", '{"alpha": 0, "p": 0, "q": 1}',
                 "--point", '"infinity"')
    finally:
        cli._build_parser.cache_clear()
    # The top-level parser and its six subparsers, once each.
    assert built == ["ectorsion"] + [f"ectorsion {c}" for c in
                                     ("family", "halve", "order", "iso", "census", "verify-examples")]


def test_shared_parser_answers_as_a_fresh_one(capsys):
    """No call leaves state in the shared parser that changes a later answer."""
    point8 = ["--curve", '{"alpha": 0, "p": 0, "q": 1}', "--point", '{"x": 5, "y": 2}']
    sequence = [
        ["family", "--field", "Fp:7", "--family", "nope"],
        ["family", "--help"],
        ["family", "--field", "Fp:7", "--family", "e8", "--t", "3", "--no-verify"],
        ["family", "--field", "Fp:7", "--family", "e8", "--t", "3"],
        ["order", "--field", "Fp:7", *point8, "--cap", "5"],
        ["order", "--field", "Fp:7", *point8],
        ["iso", "--field", "Q", "--kind", "e4", "--a", "1", "--b", "1", "--c", "2", "--d", "4",
         "--output", "text"],
        ["iso", "--field", "Q", "--kind", "e4", "--a", "1", "--b", "1", "--c", "2", "--d", "4"],
    ]

    def answers(fresh):
        out = []
        for argv in sequence:
            if fresh:
                cli._build_parser.cache_clear()
            out.append(run(capsys, *argv))
        return out

    try:
        expected = answers(fresh=True)
        cli._build_parser.cache_clear()
        shared = answers(fresh=False)
    finally:
        cli._build_parser.cache_clear()
    assert [code for code, _ in expected] == [1, 0, 1, 0, 1, 0, 0, 0]
    assert shared == expected
    assert "--family" in expected[1][1] and "--no-verify" not in expected[1][1]
    assert all(w["verified"] for w in json.loads(expected[3][1])["witnesses"])
    assert json.loads(expected[5][1]) == {"point": {"x": "5", "y": "2"}, "order": 8}


def test_help_width_follows_the_terminal(capsys, monkeypatch):
    widths = []
    for columns in ("200", "50", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out = run(capsys, "order", "--help")
        assert code == 0
        widths.append(max(map(len, out.splitlines())))
    assert widths[1] <= 48 < widths[0] == widths[2]


def test_bad_field_descriptors(capsys):
    code, _ = run(capsys, "family", "--field", "Zp:7", "--family", "e8", "--t", "3")
    assert code == 2
    code, _ = run(capsys, "family", "--field", "F2k:2:6", "--family", "e4char2",
                  "--gamma", "1")
    assert code == 2  # x^2+x is reducible


def tree_env():
    """Environment whose PYTHONPATH starts with the directory holding the imported
    `ectorsion`, so a child process runs the code under test, not an installed copy."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(ectorsion.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def console_script(name):
    """argv prefix running `[project.scripts]` entry `name` the way pip's generated
    wrapper does: rewrite sys.argv[0], then sys.exit(target()) on sys.argv."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == "ectorsion"
    module, attr = project["scripts"][name].split(":")
    wrapper = (f"import sys\nfrom {module} import {attr}\n"
               f"sys.argv[0] = {name!r}\nsys.exit({attr}())\n")
    return [sys.executable, "-c", wrapper]


def test_console_script_end_to_end():
    ectorsion_cmd, env = console_script("ectorsion"), tree_env()
    proc = subprocess.run(
        [*ectorsion_cmd, "census", "--field", "F2k:2:7", "--order", "4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    js = json.loads(proc.stdout)
    assert js["agree"] is True
    proc2 = subprocess.run(ectorsion_cmd, capture_output=True, text=True, env=env)
    assert proc2.returncode == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ectorsion", "verify-examples"],
        capture_output=True, text=True, env=tree_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


@pytest.mark.parametrize("argv", [
    ["census", "--field", "F2k:3:-b", "--order", "4"],
    ["family", "--field", "F2k:3:-b", "--family", "e4char2", "--gamma", "1"],
])
def test_negative_binary_modulus_exits_2_at_once(argv):
    """Such a field would loop forever in its first product; it is refused instead.
    A separate process, so that a hang fails the test rather than stalling the run."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ectorsion", *argv],
                          capture_output=True, text=True, env=tree_env(), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "modulus must be a non-negative int, got -11" in proc.stderr
    assert time.perf_counter() - t < 5  # process start included; the refusal itself is instant


def test_optimized_interpreter_runs_the_cli():
    """Under -OO docstrings are None; the parser must not read one."""
    proc = subprocess.run(
        [sys.executable, "-OO", "-m", "ectorsion", "census", "--field", "F2k:2:7", "--order", "4"],
        capture_output=True, text=True, env=tree_env(),
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["agree"] is True


def test_closed_stdout_exits_141_without_a_traceback():
    """A reader that closes the pipe before the answer is written (as `| head` can)."""
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ectorsion", "family", "--field", "Q", "--family", "e12",
             "--T=-3/4"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=tree_env(),
        )
    finally:
        os.close(w)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""
