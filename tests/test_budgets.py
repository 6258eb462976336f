"""Wall-clock budgets for the slowest input the CLI accepts, one kind at a time.

Each budget is listed in the README and in ``cli.py``'s docstring.  The
calls run in-process through ``cli.main``, so a budget covers the work, not
interpreter start-up.  Every answer is checked against ``oracles``.
"""

import json
import time

import pytest

from ectorsion import cli
from ectorsion.field import BinaryField

import oracles

CENSUS_BUDGET_S = 5.0
CALL_BUDGET_S = 1.0  # family, halve and iso over the largest fields accepted

P31 = 2**31 - 1  # the largest prime modulus accepted; p = 3 mod 4
F20 = BinaryField(20)
K20, MOD20 = 20, F20.modulus


@pytest.mark.parametrize("order,count", [(4, 63), (8, 31)])
def test_largest_census_fits_its_budget(capsys, order, count):
    """k = 6 is the largest census accepted: every (a2, a6) over GF(64)."""
    t0 = time.perf_counter()
    code = cli.main(["census", "--field", "F2k:6:43", "--order", str(order)])
    elapsed = time.perf_counter() - t0
    js = json.loads(capsys.readouterr().out)
    assert code == 0
    assert js["family_count"] == js["brute_force_count"] == count
    assert js["agree"] is True
    assert elapsed < CENSUS_BUDGET_S, f"census at k = 6, order {order}: {elapsed:.2f} s"


def _within_budget(capsys, *argv):
    t0 = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0, out
    assert elapsed < CALL_BUDGET_S, f"{argv[0]}: {elapsed:.3f} s"
    return json.loads(out)


def _sqrts(p, w):
    """The square roots of w mod p, for p = 3 mod 4."""
    r = pow(w, (p + 1) // 4, p)
    return sorted({r, p - r}) if r * r % p == w % p else []


def _cubic(p, alpha, g1, g0):
    """(A, B, C) of y^2 = (x - alpha)(x^2 + g1 x + g0) = x^3 + A x^2 + B x + C."""
    return (g1 - alpha) % p, (g0 - alpha * g1) % p, -alpha * g0 % p


def _fp_point(p, A, B, C, x=2):
    """The affine point with the least x >= the given x and the smaller y."""
    while not _sqrts(p, oracles.fp_cubic_rhs(p, A, B, C, x)):
        x += 1
    return x, _sqrts(p, oracles.fp_cubic_rhs(p, A, B, C, x))[0]


def _char2_point(a2, a6, x=3):
    """An affine point of y^2 + xy = x^3 + a2 x^2 + a6 over GF(2^20), x >= the given x."""
    while True:
        # y = x z turns the curve into z^2 + z = x + a2 + a6 / x^2.
        z = F20.solve_artin_schreier(F20(x) + F20(a2) + F20(a6) / (F20(x) * F20(x)))
        if z is not None:
            return x, oracles.gf2_mul(x, z.value, MOD20, K20)
        x += 1


def _e8char2_a6(t):
    """a6 = (t / (t^2 + 1))^8 of the e8char2 curve y^2 + xy = x^3 + a6 over GF(2^20)."""
    w = oracles.gf2_mul(t, oracles.gf2_inv(oracles.gf2_mul(t, t, MOD20, K20) ^ 1, MOD20, K20),
                        MOD20, K20)
    return oracles.gf2_pow(w, 8, MOD20, K20)


def _xy(point, base=10):
    return tuple(int(point[c], base) for c in ("x", "y"))


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,flag,value,order", [("e10", "u", "2", 10), ("e12", "T", "3", 12)])
def test_largest_prime_field_family_fits_its_budget(capsys, family, flag, value, order):
    js = _within_budget(capsys, "family", "--field", f"Fp:{P31}", "--family", family,
                        f"--{flag}", value)
    assert js["params"] == {flag: value}
    cv = js["curve"]
    A, B, C = _cubic(P31, *(int(cv[c]) for c in ("alpha", "p", "q")))
    for w in js["witnesses"]:
        P = _xy(w["point"])
        assert w["verified"] and oracles.fp_cubic_on(P31, A, B, C, P)
        assert oracles.fp_cubic_order(P31, A, B, C, P, cap=12) == w["order"]
    assert max(w["order"] for w in js["witnesses"]) == order


def test_largest_binary_field_family_fits_its_budget(capsys):
    js = _within_budget(capsys, "family", "--field", F20.descriptor, "--family", "e8char2",
                        "--t", "2")
    a2, a6 = (int(js["curve"][c], 16) for c in ("a2", "a6"))
    assert (a2, a6) == (0, _e8char2_a6(2))
    for w in js["witnesses"]:
        P = _xy(w["point"], 16)
        assert w["verified"] and oracles.char2_on(K20, MOD20, a2, a6, P)
        assert oracles.char2_order(K20, MOD20, a2, a6, P, cap=8) == w["order"]
    assert sorted(w["order"] for w in js["witnesses"]) == [2, 4, 8]


# ---------------------------------------------------------------------------
# halve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method,g0,roots", [
    ("auto", 4, 1),  # x^2 + x + 4 is irreducible mod P31: the quadratic-extension route
    ("rT", 3, 3),    # x^2 + x + 3 splits mod P31: four halves
])
def test_largest_prime_field_halving_fits_its_budget(capsys, method, g0, roots):
    A, B, C = _cubic(P31, 0, 1, g0)
    assert bool(_sqrts(P31, (1 - 4 * g0) % P31)) is (roots == 3)
    Q = _fp_point(P31, A, B, C)
    P = oracles.fp_cubic_add(P31, A, B, C, Q, Q)
    js = _within_budget(capsys, "halve", "--field", f"Fp:{P31}",
                        "--curve", json.dumps({"alpha": "0", "p": "1", "q": str(g0)}),
                        "--point", json.dumps({"x": str(P[0]), "y": str(P[1])}),
                        "--method", method)
    halves = {_xy(h["point"]) for h in js["halves"]}
    assert js["halvable"] is True and Q in halves
    assert len(halves) == len(js["halves"]) == 1 + roots  # one half per 2-torsion point
    assert all(oracles.fp_cubic_add(P31, A, B, C, H, H) == P for H in halves)


def test_largest_binary_field_halving_fits_its_budget(capsys):
    a2, a6 = 1, 7
    Q = _char2_point(a2, a6)
    P = oracles.char2_add(K20, MOD20, a2, a6, Q, Q)
    js = _within_budget(capsys, "halve", "--field", F20.descriptor,
                        "--curve", json.dumps({"a2": format(a2, "x"), "a6": format(a6, "x")}),
                        "--point", json.dumps({"x": format(P[0], "x"), "y": format(P[1], "x")}))
    halves = {_xy(h["point"], 16) for h in js["halves"]}
    assert js["halvable"] is True and Q in halves
    assert len(halves) == len(js["halves"]) == 2  # E[2] = {O, (0, sqrt(a6))}
    assert all(oracles.char2_add(K20, MOD20, a2, a6, H, H) == P for H in halves)


# ---------------------------------------------------------------------------
# iso
# ---------------------------------------------------------------------------

def _alpha0_isos(p, p1, q1, p2, q2):
    """``oracles.iso_scan_alpha0`` over the only u it can accept: u^4 q1 = q2
    leaves u^2 = +-sqrt(q2 / q1), so at most four candidates instead of p - 1."""
    candidates = {u for w in _sqrts(p, q2 * pow(q1, -1, p)) for u in _sqrts(p, w)}
    return sorted(u for u in candidates
                  if (u * u * p1 - p2) % p == 0 and (u**4 * q1 - q2) % p == 0)


@pytest.mark.parametrize("c,d,isomorphic", [(8, 4, True), (8, 5, False)])
def test_largest_prime_field_iso_e4_fits_its_budget(capsys, c, d, isomorphic):
    a, b = 4, 1
    js = _within_budget(capsys, "iso", "--field", f"Fp:{P31}", "--kind", "e4",
                        "--a", str(a), "--b", str(b), "--c", str(c), "--d", str(d))
    scan = _alpha0_isos(P31, (a * a + 2 * b) % P31, b * b, (c * c + 2 * d) % P31, d * d)
    assert js["isomorphic"] is bool(scan) is isomorphic
    assert (js["u"] is None) if not scan else (int(js["u"]) in scan)


def test_largest_prime_field_iso_e8_fits_its_budget(capsys):
    valid = [t for t in range(2, 50) if not _sqrts(P31, 2 * t * t - 1)]

    def coeff(t):  # e8's curve is y^2 = x(x^2 + coeff(t) x + 1)
        t2 = t * t
        return 2 * (t2 * t2 + 2 * t2 - 1) * pow((t2 - 1) ** 2, -1, P31) % P31

    s, answers = valid[0], []
    for t in (P31 - s, valid[1]):
        js = _within_budget(capsys, "iso", "--field", f"Fp:{P31}", "--kind", "e8",
                            "--s", str(s), "--t", str(t))
        assert js["isomorphic"] is bool(_alpha0_isos(P31, coeff(s), 1, coeff(t), 1))
        answers.append(js["isomorphic"])
    assert answers == [True, False]


@pytest.mark.parametrize("s,t,isomorphic", [(2, oracles.gf2_inv(2, MOD20, K20), True),
                                           (2, 3, False)])
def test_largest_binary_field_iso_e8char2_fits_its_budget(capsys, s, t, isomorphic):
    js = _within_budget(capsys, "iso", "--field", F20.descriptor, "--kind", "e8char2",
                        "--s", format(s, "x"), "--t", format(t, "x"))
    assert js["isomorphic"] is (_e8char2_a6(s) == _e8char2_a6(t)) is isomorphic
