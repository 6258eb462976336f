"""The nine end-to-end acceptance checks, each with a one-line verdict.

Every check re-derives its expected values through the brute-force oracles
in tests/oracles.py (plain-int group law, exhaustive scans), never through
the library's own arithmetic, and enforces the stated runtime budgets.
"""

import random
import time
from fractions import Fraction

import pytest

from ectorsion import (
    BinaryField,
    Char2Curve,
    CubicCurve,
    InvalidParams,
    Point,
    PointIsW3,
    PrimeField,
    Rationals,
    SingularCurve,
    e4_new,
    e4char2_new,
    e6_new,
    e8_new,
    e8char2_new,
    e10_new,
    e12_new,
    family_sweep,
    halve,
    halve_char2,
    halve_quadext,
    halve_rT,
    halve_split,
    iso_e4,
    iso_e8,
    sigma_char2,
    verify_f3_example,
    verify_f4_example,
)

import oracles

PRIMES_5_97 = oracles.small_primes(5, 97)
PRIMES_LE_31 = oracles.small_primes(5, 31)

Q = Rationals()


def _verdict(n, label, t0):
    print(f"criterion {n} ({label}): PASS in {time.perf_counter() - t0:.1f}s")


def oracle_order_fp(inst, w):
    E = inst.curve
    A, B, C = (c.value for c in E.coefficients())
    return oracles.fp_cubic_order(
        E.field.order, A, B, C, (w.point.x.value, w.point.y.value))


def oracle_order_qq(inst, w):
    E = inst.curve
    A, B, C = (c.value for c in E.coefficients())
    return oracles.qq_cubic_order(A, B, C, (w.point.x.value, w.point.y.value))


def sweep_prime_field(F):
    """Every valid instance of the five families over F, no deduplication."""
    p = F.order
    out = []
    for a in range(1, p):
        for b in range(1, p):
            try:
                out.append(e4_new(F, a, b))
            except InvalidParams:
                continue
    for ctor in (e6_new, e8_new, e10_new, e12_new):
        for v in range(p):
            try:
                out.append(ctor(F, v))
            except InvalidParams:
                continue
    return out


def random_rational(rng, allow_zero=False):
    while True:
        f = Fraction(rng.randint(-12, 12), rng.randint(1, 10))
        if allow_zero or f != 0:
            return f


def rational_instances(rng, count=100):
    """100 valid random rational parameter draws for each family."""
    insts = []
    for family in ("e4", "e6", "e8", "e10", "e12"):
        made = 0
        while made < count:
            try:
                if family == "e4":
                    inst = e4_new(Q, random_rational(rng), random_rational(rng))
                elif family == "e6":
                    inst = e6_new(Q, random_rational(rng))
                elif family == "e8":
                    inst = e8_new(Q, random_rational(rng))
                elif family == "e10":
                    inst = e10_new(Q, random_rational(rng))
                else:
                    inst = e12_new(Q, random_rational(rng))
            except InvalidParams:
                continue
            insts.append(inst)
            made += 1
    return insts


# ---------------------------------------------------------------------------
# 1. family witness suite
# ---------------------------------------------------------------------------

def test_criterion_1_family_witness_suite():
    t0 = time.perf_counter()
    total = 0
    for p in PRIMES_5_97:
        F = PrimeField(p)
        for inst in sweep_prime_field(F):
            total += 1
            for w in inst.witnesses:
                assert w.verified
                assert oracle_order_fp(inst, w) == w.claimed_order, (
                    inst.family, inst.params, w)
    assert total > 10_000  # "tens of thousands" of instances
    rng = random.Random(20260814)
    for inst in rational_instances(rng):
        for w in inst.witnesses:
            assert w.verified
            assert oracle_order_qq(inst, w) == w.claimed_order
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"budget blown: {elapsed:.1f}s"
    print(f"criterion 1 (family witness suite, {total} prime-field instances "
          f"+ 500 rational): PASS in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. halving equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_halving_equivalence():
    t0 = time.perf_counter()
    checked_points = 0
    for p in PRIMES_LE_31:
        F = PrimeField(p)
        curves = {}
        for inst in sweep_prime_field(F):
            E = inst.curve
            curves[(E.alpha.value, E.g.p.value, E.g.q.value)] = E
        for E in curves.values():
            A, B, C = (c.value for c in E.coefficients())
            affine = oracles.fp_cubic_points(p, A, B, C)
            doubles = {}
            for T in affine + [None]:
                doubles.setdefault(
                    oracles.fp_cubic_add(p, A, B, C, T, T), set()).add(T)
            split = E.g.roots() is not None
            w3 = (E.w3.x.value, E.w3.y.value)
            for (x, y) in affine:
                want = doubles.get((x, y), set())
                P = Point(F(x), F(y))
                res = halve_split(E, P) if split else halve_quadext(E, P)
                got = {(h.x.value, h.y.value) for h in res.points()}
                assert got == want, (p, E, (x, y))
                if (x, y) != w3:
                    rt = halve_rT(E, P)
                    got_rt = {(h.x.value, h.y.value) for h in rt.points()}
                    assert got_rt == want, (p, E, (x, y))
                    if not want:
                        assert rt.halvable is False and rt.witness == {}
                else:
                    with pytest.raises(PointIsW3):
                        halve_rT(E, P)
                checked_points += 1
            # halves of infinity are exactly the rational 2-torsion + infinity
            want_inf = doubles.get(None, set())
            got_inf = {(w.x.value, w.y.value) for w in E.two_torsion()} | {None}
            assert got_inf == want_inf
    elapsed = time.perf_counter() - t0
    print(f"criterion 2 (halving equivalence, {checked_points} points): "
          f"PASS in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3 and 4: the two tiny worked examples
# ---------------------------------------------------------------------------

def test_criterion_3_f3_example():
    t0 = time.perf_counter()
    rep = verify_f3_example()
    assert rep["ok"] is True
    inst = e6_new(PrimeField(3), 1)
    A, B, C = (c.value for c in inst.curve.coefficients())
    pts = oracles.fp_cubic_points(3, A, B, C)
    assert len(pts) + 1 == 6
    assert oracles.fp_cubic_order(3, A, B, C, (1, 2)) == 6
    # (1, 2) really generates: its multiples sweep the whole group
    acc, seen = None, set()
    for _ in range(6):
        acc = oracles.fp_cubic_add(3, A, B, C, acc, (1, 2))
        seen.add(acc)
    assert seen == set(pts) | {None}
    _verdict(3, "F_3 worked example", t0)


def test_criterion_4_f4_example():
    t0 = time.perf_counter()
    rep = verify_f4_example()
    assert rep["ok"] is True
    F = BinaryField(2)
    rho = F(2)
    inst8 = e8char2_new(F, rho)
    inst4 = e4char2_new(F, F(1))
    assert inst8.curve == inst4.curve
    assert inst8.curve.a2 == 0 and inst8.curve.a6 == 1
    # the closed-form order-8 witness lands exactly on (rho, rho)
    assert inst8.witness_of_order(8).point in (
        Point(rho, rho), Point(rho, rho + rho))
    assert Point(rho, rho) in {w.point for w in inst8.witnesses}
    k, mod = 2, F.modulus
    pts = oracles.char2_points(k, mod, 0, 1)
    assert len(pts) + 1 == 8
    assert oracles.char2_order(k, mod, 0, 1, (2, 2)) == 8
    acc, seen = None, set()
    for _ in range(8):
        acc = oracles.char2_add(k, mod, 0, 1, acc, (2, 2))
        seen.add(acc)
    assert seen == set(pts) | {None}
    _verdict(4, "F_4 worked example", t0)


# ---------------------------------------------------------------------------
# 5. the char-2 census
# ---------------------------------------------------------------------------

def test_criterion_5_census():
    t0 = time.perf_counter()
    for k in (1, 2, 3, 4, 5):
        q = 2**k
        rep4 = sigma_char2(BinaryField(k), 4)
        rep8 = sigma_char2(BinaryField(k), 8)
        assert rep4.family_count == rep4.brute_force_count == q - 1
        assert rep8.family_count == rep8.brute_force_count == q // 2 - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"budget blown: {elapsed:.1f}s"
    print(f"criterion 5 (census over q = 2..32): PASS in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. the doubling formula at x = 0
# ---------------------------------------------------------------------------

def test_criterion_6_doubling_formula():
    t0 = time.perf_counter()
    rng = random.Random(6)
    done = 0
    while done < 500:  # over prime fields
        p = rng.choice(PRIMES_5_97)
        F = PrimeField(p)
        y1 = F(rng.randrange(1, p))
        pp = F(rng.randrange(p))
        qq = y1 * y1
        try:
            E = CubicCurve(F, -1, pp, qq)
        except SingularCurve:
            continue
        P = Point(F(0), y1)
        assert E.contains(P)
        want_x = (pp - qq) ** 2 / (4 * qq) - 1
        assert E.double(P).x == want_x
        A, B, C = (c.value for c in E.coefficients())
        ox, _ = oracles.fp_cubic_add(p, A, B, C, (0, y1.value), (0, y1.value))
        assert ox == want_x.value
        done += 1
    done = 0
    while done < 500:  # over the rationals
        y1 = Q(random_rational(rng))
        pp = Q(random_rational(rng, allow_zero=True))
        qq = y1 * y1
        try:
            E = CubicCurve(Q, -1, pp, qq)
        except SingularCurve:
            continue
        P = Point(Q(0), y1)
        want_x = (pp - qq) ** 2 / (4 * qq) - 1
        assert E.double(P).x == want_x
        A, B, C = (c.value for c in E.coefficients())
        ox, _ = oracles.qq_cubic_add(A, B, C, (Fraction(0), y1.value),
                                     (Fraction(0), y1.value))
        assert ox == want_x.value
        done += 1
    _verdict(6, "doubling formula on 1000 instances", t0)


# ---------------------------------------------------------------------------
# 7. isomorphism criteria vs exhaustive u-scan
# ---------------------------------------------------------------------------

def test_criterion_7_isomorphism_vs_scan():
    t0 = time.perf_counter()
    pairs4 = pairs8 = 0
    for p in (7, 11, 13):
        F = PrimeField(p)
        sq = oracles.fp_squares(p)
        valid4 = [(a, b) for a in range(1, p) for b in range(1, p)
                  if (a * a + 4 * b) % p not in sq]
        for a, b in valid4:
            for c, d in valid4:
                u = iso_e4(F, a, b, c, d)
                scan = oracles.iso_scan_e4(p, a, b, c, d)
                assert (u is not None) == bool(scan), (p, a, b, c, d)
                if u is not None:
                    assert u.value in scan
                pairs4 += 1
        valid8 = [t for t in range(2, p - 1) if (2 * t * t - 1) % p not in sq]
        coeff = {t: e8_new(F, t).curve.g.p.value for t in valid8}
        for s in valid8:
            for t in valid8:
                scan = oracles.iso_scan_alpha0(p, coeff[s], 1, coeff[t], 1)
                assert iso_e8(F, s, t) == bool(scan), (p, s, t)
                pairs8 += 1
    _verdict(7, f"isomorphism criteria on {pairs4}+{pairs8} pairs", t0)


# ---------------------------------------------------------------------------
# 8. converse classification
# ---------------------------------------------------------------------------

def test_criterion_8_converse_classification():
    t0 = time.perf_counter()
    candidates_checked = 0
    for p in oracles.small_primes(3, 31):
        F = PrimeField(p)
        sq = oracles.fp_squares(p)

        # Moving the marked 2-torsion point to x = 0 is an isomorphism, so
        # y^2 = x(x^2 + px + q) with irreducible g covers, up to iso, every
        # curve with exactly one rational 2-torsion point.
        candidate_orders = {}
        for pp in range(p):
            for qq in range(1, p):
                if (pp * pp - 4 * qq) % p in sq:
                    continue  # g reducible or square disc: 1 or 3 torsion
                pts = oracles.fp_cubic_points(p, pp, qq, 0)
                orders = {oracles.fp_cubic_order(p, pp, qq, 0, P) for P in pts}
                candidate_orders[(pp, qq)] = orders

        for N in (4, 6, 8, 10, 12):
            orbit_union = set()
            for inst in family_sweep(F, N):
                E = inst.curve
                if len(E.two_torsion()) != 1:
                    continue  # three rational 2-torsion points: out of scope
                norm, _ = E.translate_x(E.alpha)
                assert norm.alpha == 0
                np_, nq_ = norm.g.p.value, norm.g.q.value
                for u in range(1, p):
                    orbit_union.add(
                        (u * u * np_ % p, pow(u, 4, p) * nq_ % p))
            for cand, orders in candidate_orders.items():
                assert (N in orders) == (cand in orbit_union), (p, N, cand)
                candidates_checked += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 8 (converse classification, {candidates_checked} "
          f"curve/order decisions): PASS in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. tangent-slope identity
# ---------------------------------------------------------------------------

def check_tangent_multiplicity(E, P, Q, l):
    """h = f - (l(x-x0)-y0)^2 must vanish to order >= 2 at x(Q)."""
    A, B, C = E.coefficients()
    x0, y0 = P.x, P.y
    x1 = Q.x

    def f(x):
        return ((x + A) * x + B) * x + C

    def line(x):
        return l * (x - x0) - y0

    h_at = f(x1) - line(x1) ** 2
    # h'(x) = f'(x) - 2 l (l(x-x0) - y0)
    hp_at = (3 * x1 * x1 + 2 * A * x1 + B) - 2 * l * line(x1)
    assert h_at == 0
    assert hp_at == 0
    assert line(x1) == Q.y  # the line indeed passes through Q


def check_tangent_multiplicity_char2(E, P, Q, l):
    """Substituting y = lx + m into the char-2 model leaves the cubic
    x^3 + (a2+l^2+l)x^2 + m x + (a6+m^2), which has x(Q) as a double root
    exactly when m = x(Q)^2 and x(P) = a2 + l^2 + l."""
    m = Q.y + l * Q.x
    assert Q.x * Q.x == m
    assert E.a2 + l * l + l == P.x
    # and the remaining root is x(P): the full product matches the constant
    assert Q.x * Q.x * P.x == E.a6 + m * m


def test_criterion_9_tangent_slope_identity():
    t0 = time.perf_counter()
    halves_seen = 0
    for p in (5, 7, 11, 13):
        F = PrimeField(p)
        rng = random.Random(p)
        built = 0
        while built < 8:
            try:
                E = CubicCurve(F, rng.randrange(p), rng.randrange(p), rng.randrange(p))
            except SingularCurve:
                continue
            built += 1
            for P in E.full_group():
                if P.is_infinity:
                    continue
                for Qh, l in halve(E, P).halves:
                    check_tangent_multiplicity(E, P, Qh, l)
                    halves_seen += 1
    for tv in (Fraction(2), Fraction(3), Fraction(-5, 2)):
        inst = e6_new(Q, tv)
        P = Point(Q(0), Q(tv))
        for Qh, l in halve(inst.curve, P).halves:
            check_tangent_multiplicity(inst.curve, P, Qh, l)
            halves_seen += 1
    inst = e4_new(Q, 1, 1)
    for Qh, l in halve(inst.curve, Point(Q(0), Q(0))).halves:
        check_tangent_multiplicity(inst.curve, Point(Q(0), Q(0)), Qh, l)
        halves_seen += 1
    for k in (2, 3, 4):
        F = BinaryField(k)
        for a2 in list(F.elements())[:4]:
            for a6 in list(F.elements())[1:6]:
                E = Char2Curve(F, a2, a6)
                for P in E.full_group():
                    if P.is_infinity:
                        continue
                    for Qh, l in halve_char2(E, P).halves:
                        check_tangent_multiplicity_char2(E, P, Qh, l)
                        halves_seen += 1
    assert halves_seen > 500
    print(f"criterion 9 (tangent-slope identity on {halves_seen} halves): "
          f"PASS in {time.perf_counter() - t0:.1f}s")
