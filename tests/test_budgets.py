"""Wall-clock budgets for the slowest accepted input, one kind at a time.

The CLI's budgets are listed in the README and in ``cli.py``'s docstring;
those calls run in-process through ``cli.main``, so a budget covers the
work, not interpreter start-up.  ``family_sweep`` at F_97 and GF(2^6), the
largest fields it accepts, is called directly, one order at a time; its
budget is listed in the README beside the CLI's.  So are ``full_group`` and
``CubicCurve.from_weierstrass`` at F_65521, the largest prime field either
sweeps, within the CLI's per-call budget.  Every answer is checked against
``oracles``.
"""

import json
import sys
import time
from fractions import Fraction

import pytest

from ectorsion import CubicCurve, InvalidParams, PrimeField, cli, family_sweep
from ectorsion.field import BinaryField

import oracles

CENSUS_BUDGET_S = 5.0
CALL_BUDGET_S = 1.0  # family, halve, iso and order over the largest fields (and Q values) accepted
SWEEP_BUDGET_S = 1.0  # family_sweep over F_97 and GF(2^6), per order

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


CAP = "7" * 4300  # a parameter at the 4,300-digit cap of a Q literal


@pytest.mark.parametrize("family,params", [
    ("e4", {"a": CAP, "b": CAP}), ("e6", {"t": CAP}), ("e8", {"t": CAP}), ("e10", {"u": CAP}),
], ids=["e4", "e6", "e8", "e10"])
def test_rational_family_at_the_digit_cap_fits_its_budget(capsys, family, params):
    """Every witness is checked on the curve by the oracle.  e12 at the cap
    is over the budget, and has no case here (ROADMAP, Known defects)."""
    argv = ["family", "--field", "Q", "--family", family]
    for flag, value in params.items():
        argv += [f"--{flag}", value]
    js = _within_budget(capsys, *argv)
    assert js["params"] == params
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the curve and witnesses have parts past 4,300 digits
    try:
        alpha, p, q = (Fraction(js["curve"][c]) for c in ("alpha", "p", "q"))
        points = [tuple(Fraction(w["point"][c]) for c in ("x", "y")) for w in js["witnesses"]]
    finally:
        sys.set_int_max_str_digits(limit)
    A, B, C = p - alpha, q - alpha * p, -alpha * q  # (x - alpha)(x^2 + p*x + q)
    assert points and all(w["verified"] for w in js["witnesses"])
    for P in points:
        assert oracles.qq_cubic_on(A, B, C, P)


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


P27 = 15 * 2**27 + 1  # 2013265921: the prime below 2^31 whose p - 1 has the most factors of 2


@pytest.mark.parametrize("method,split", [("auto", False), ("rT", True)])
def test_largest_two_adic_prime_field_halving_fits_its_budget(capsys, method, split):
    """At p = 15 * 2^27 + 1 every square root runs Tonelli-Shanks, and may
    take all 27 rounds.  Q = (x, y) is put on y^2 = x(x^2 + x + g0) by the
    choice of g0, so no root is taken here; x^2 + x + g0 is irreducible
    (the quadratic-extension route) or splits, by Euler's criterion."""
    p = P27
    assert p < P31 and ((p - 1) & -(p - 1)) == 2**27
    x, y = 3, 5
    while True:
        g0 = (y * y * pow(x, -1, p) - x * x - x) % p
        if (pow((1 - 4 * g0) % p, (p - 1) // 2, p) == 1) is split and g0:
            break
        y += 1
    A, B, C = _cubic(p, 0, 1, g0)
    Q = (x, y)
    P = oracles.fp_cubic_add(p, A, B, C, Q, Q)
    js = _within_budget(capsys, "halve", "--field", f"Fp:{p}",
                        "--curve", json.dumps({"alpha": "0", "p": "1", "q": str(g0)}),
                        "--point", json.dumps({"x": str(P[0]), "y": str(P[1])}),
                        "--method", method)
    halves = {_xy(h["point"]) for h in js["halves"]}
    assert js["halvable"] is True and Q in halves
    assert len(halves) == len(js["halves"]) == (4 if split else 2)  # one half per 2-torsion point
    assert all(oracles.fp_cubic_add(p, A, B, C, H, H) == P for H in halves)


@pytest.mark.parametrize("method,g1,g0,G,n,roots", [
    # y^2 = x(x^2 - 5x + 5): g irreducible over Q, the quadratic-extension route
    ("auto", -5, 5, (1, 1), 69, 1),
    # y^2 = x(x^2 - 36): g splits, four halves
    ("rT", 0, -36, (-3, 9), 40, 3),
])
def test_rational_halving_near_the_digit_cap_fits_its_budget(capsys, method, g1, g0, G, n, roots):
    """P = 2nG, G of infinite order, has parts of about 3,700 digits; the cap is 4,300."""
    A, B, C = g1, g0, 0  # alpha = 0
    G = tuple(map(Fraction, G))
    Q = G
    for _ in range(n - 1):
        Q = oracles.qq_cubic_add(A, B, C, Q, G)
    P = oracles.qq_cubic_add(A, B, C, Q, Q)
    assert 3600 < max(len(str(abs(v))) for c in P for v in (c.numerator, c.denominator)) <= 4300
    js = _within_budget(capsys, "halve", "--field", "Q",
                        "--curve", json.dumps({"alpha": "0", "p": str(g1), "q": str(g0)}),
                        "--point", json.dumps({"x": str(P[0]), "y": str(P[1])}),
                        "--method", method)
    halves = {tuple(Fraction(h["point"][c]) for c in ("x", "y")) for h in js["halves"]}
    assert js["halvable"] is True and Q in halves
    assert len(halves) == len(js["halves"]) == 1 + roots  # one half per 2-torsion point
    assert all(oracles.qq_cubic_add(A, B, C, H, H) == P for H in halves)


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
# order
# ---------------------------------------------------------------------------

def test_rational_order_of_a_tall_point_fits_its_budget(capsys):
    """nG, G = (2, 2) of infinite order on y^2 = x^3 - 2x, has parts of about
    300 digits; on the model x -> x / 7^2, y -> y / 7^3 the coefficients are
    not integers either.  Its order is infinite: null."""
    G = (Fraction(2), Fraction(2))
    assert oracles.qq_cubic_order(0, -2, 0, G, cap=12) == 0  # so G, and each nG, has infinite order
    P = G
    while max(len(str(abs(v))) for c in P for v in (c.numerator, c.denominator)) < 300:
        P = oracles.qq_cubic_add(0, -2, 0, P, G)
    v = 7
    js = _within_budget(capsys, "order", "--field", "Q",
                        "--curve", json.dumps({"alpha": "0", "p": "0", "q": str(Fraction(-2, v**4))}),
                        "--point", json.dumps({"x": str(P[0] / v**2), "y": str(P[1] / v**3)}))
    assert js["order"] is None


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


# ---------------------------------------------------------------------------
# family_sweep
# ---------------------------------------------------------------------------

P97 = 97  # the largest field family_sweep accepts
SQ97 = oracles.fp_squares(P97)


def _nonsquare(w):
    return w % P97 not in SQ97


def _valid_e10(u):
    return (u not in (0, 1, P97 - 1) and (u * u + u - 1) % P97 and (u * u - 4 * u - 1) % P97
            and _nonsquare(u * (u * u + u - 1)))


def _valid_e12(T):
    T2 = T * T
    return (T not in (0, 1, P97 - 1) and (T2 + 1) % P97 and (3 * T2 + 1) % P97
            and (3 * T2 - 1) % P97 and _nonsquare((T2 + 1) * (3 * T2 - 1)))


def _valid_e8(t):
    return t not in (0, 1, P97 - 1) and _nonsquare(2 * t * t - 1)


@pytest.mark.parametrize("order", [4, 6, 8, 10, 12])
def test_largest_family_sweep_fits_its_budget(order):
    t0 = time.perf_counter()
    insts = family_sweep(PrimeField(P97), order)
    elapsed = time.perf_counter() - t0
    assert elapsed < SWEEP_BUDGET_S, f"family_sweep at F_97, order {order}: {elapsed:.3f} s"
    curves = [_cubic(P97, *(c.value for c in (inst.curve.alpha, inst.curve.g.p, inst.curve.g.q)))
              for inst in insts]
    for inst, (A, B, C) in zip(insts, curves):
        top = inst.witness_of_order(order)
        assert top.verified
        P = (top.point.x.value, top.point.y.value)
        assert oracles.fp_cubic_order(P97, A, B, C, P, cap=order) == order
    params = [next(iter(inst.params.values())).value for inst in insts]
    if order == 4:
        assert len(insts) == (P97 - 1) // 2
    elif order == 6:
        assert params == [t for t in range(1, P97) if t not in (P97 - 4, (P97 + 1) // 2)]
        assert len(insts) == P97 - 3  # t outside {0, -4, 1/2}
    elif order in (10, 12):
        valid = _valid_e10 if order == 10 else _valid_e12
        assert params == [v for v in range(P97) if valid(v)]
    else:
        assert all(_valid_e8(t) for t in params)
        # y^2 = x(x^2 + A x + B) = x(x^2 + A x + 1): representatives pairwise
        # non-isomorphic, and every valid t isomorphic to one of them.
        for i, (Ai, Bi, _) in enumerate(curves):
            for j, (Aj, Bj, _) in enumerate(curves):
                assert bool(oracles.iso_scan_alpha0(P97, Ai, Bi, Aj, Bj)) is (i == j)
        for t in filter(_valid_e8, range(P97)):
            t2 = t * t
            A = 2 * (t2 * t2 + 2 * t2 - 1) * pow((t2 - 1) ** 2, -1, P97) % P97
            assert any(oracles.iso_scan_alpha0(P97, A, 1, Aj, Bj) for Aj, Bj, _ in curves), t


@pytest.mark.parametrize("order", [4, 8])
def test_largest_binary_field_family_sweep_fits_its_budget(order):
    F = BinaryField(6)
    k, mod, q = 6, F.modulus, 64
    t0 = time.perf_counter()
    insts = family_sweep(F, order)
    elapsed = time.perf_counter() - t0
    assert elapsed < SWEEP_BUDGET_S, f"family_sweep at GF(2^6), order {order}: {elapsed:.3f} s"
    assert len(insts) == (q - 1 if order == 4 else q // 2 - 1)
    for inst in insts:
        top = inst.witness_of_order(order)
        assert top.verified
        P = (top.point.x.value, top.point.y.value)
        a2, a6 = inst.curve.a2.value, inst.curve.a6.value
        assert oracles.char2_order(k, mod, a2, a6, P, cap=order) == order


# ---------------------------------------------------------------------------
# full_group and from_weierstrass
# ---------------------------------------------------------------------------

P16 = 65521  # the largest prime whose field full_group and the rational-root search sweep (at most 2^16 elements)


def test_largest_prime_field_full_group_fits_its_budget():
    """Every point of y^2 = x(x^2 + x + 3) over F_65521: one square root per x."""
    A, B, C = _cubic(P16, 0, 1, 3)
    want = oracles.fp_cubic_points(P16, A, B, C)
    E = CubicCurve(PrimeField(P16), 0, 1, 3)
    t0 = time.perf_counter()
    pts = E.full_group()
    elapsed = time.perf_counter() - t0
    assert elapsed < CALL_BUDGET_S, f"full_group at F_{P16}: {elapsed:.3f} s"
    assert pts[0].is_infinity
    assert [(P.x.value, P.y.value) for P in pts[1:]] == want


@pytest.mark.parametrize("A,B,C", [
    (522, 527, 3126),  # (x - 65000)(x^2 + x + 6), the quadratic irreducible: one root, far up
    (0, 0, P16 - 2),   # x^3 - 2, 2 a non-cube mod P16: no root
])
def test_largest_prime_field_root_search_fits_its_budget(A, B, C):
    roots = [x for x in range(P16) if oracles.fp_cubic_rhs(P16, A, B, C, x) == 0]
    F = PrimeField(P16)
    t0 = time.perf_counter()
    try:
        E = CubicCurve.from_weierstrass(F, A, B, C)
    except InvalidParams as e:
        E = e
    elapsed = time.perf_counter() - t0
    assert elapsed < CALL_BUDGET_S, f"from_weierstrass at F_{P16}: {elapsed:.3f} s"
    if roots:
        assert E.alpha.value == roots[0]
        assert tuple(c.value for c in E.coefficients()) == (A, B, C)
    else:
        assert str(E) == "cubic has no root in K: no rational 2-torsion"
