"""Curve models: construction, the group law, enumeration, serialization."""

import copy
import dataclasses
import pickle
import random
import re
import time
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from ectorsion import (
    BinaryField,
    Char2Curve,
    CubicCurve,
    FieldTooLarge,
    InvalidParams,
    OffCurve,
    Point,
    PrimeField,
    QuadraticPoly,
    Rationals,
    SingularCurve,
    VerificationError,
    curve_from_json,
    e8char2_new,
    e12_new,
    half_to_roots,
    halve,
    point_from_json,
    point_to_json,
    sigma_char2,
)
from ectorsion import curve as curve_module, kernel
from ectorsion.curve import element_from_json

import oracles


def pt(curve, x, y):
    return Point(curve.field(x), curve.field(y))


def as_tuple(P):
    """Package point -> oracle tuple."""
    return None if P.is_infinity else (P.x.value, P.y.value)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_singular_cubics_are_rejected():
    Q = Rationals()
    with pytest.raises(SingularCurve):
        CubicCurve(Q, -1, 3, 2)  # (x+1)(x^2+3x+2) = (x+1)^2 (x+2)
    with pytest.raises(SingularCurve):
        CubicCurve(Q, 1, 2, 1)  # x^2+2x+1 = (x+1)^2
    with pytest.raises(InvalidParams):
        CubicCurve(BinaryField(3), 0, 1, 1)  # wrong characteristic
    # fine: (x-1)(x^2+1)
    CubicCurve(Q, 1, 0, 1)


def test_char2_curve_validation():
    F = BinaryField(3)
    with pytest.raises(SingularCurve):
        Char2Curve(F, F(1), F(0))
    with pytest.raises(InvalidParams):
        Char2Curve(PrimeField(7), 1, 1)
    E = Char2Curve(F, F(0), F(1))
    assert E.j_invariant() == F(1)
    assert Char2Curve(F, 0, 5).j_invariant() == F(5).inverse()


def test_cubic_accessors():
    F = PrimeField(11)
    E = CubicCurve(F, -1, 2, 3)
    A, B, C = E.coefficients()
    # (x+1)(x^2+2x+3) = x^3 + 3x^2 + 5x + 3
    assert (A, B, C) == (F(3), F(5), F(3))
    assert E.w3 == pt(E, -1, 0)
    assert E.rhs(F(1)) == F(2 * 6)  # (1+1)(1+2+3) = 12 = 1
    assert E.contains(Point.infinity())
    g = QuadraticPoly(F, F(2), F(3))
    assert E.g == g and CubicCurve(F, F(-1), g.p, g.q) == E


def test_from_weierstrass():
    Q = Rationals()
    E = CubicCurve.from_weierstrass(Q, 0, -1, 0)  # y^2 = x^3 - x
    A, B, C = E.coefficients()
    assert (A, B, C) == (Q(0), Q(-1), Q(0))
    assert E.rhs(E.alpha) == 0
    with pytest.raises(InvalidParams):
        CubicCurve.from_weierstrass(Q, 0, 0, -2)  # x^3 - 2 has no rational root
    F = PrimeField(7)
    E2 = CubicCurve.from_weierstrass(F, 1, 3, 2)
    assert E2.coefficients() == (F(1), F(3), F(2))
    with pytest.raises(FieldTooLarge, match="at most 2\\^16 elements"):
        CubicCurve.from_weierstrass(PrimeField(65537), 0, 1, 1)  # the root search sweeps F_p


def test_from_weierstrass_refuses_characteristic_2_before_any_root_search(monkeypatch):
    def no_sweep(self):
        raise AssertionError("the root search swept the field")

    monkeypatch.setattr(BinaryField, "elements", no_sweep)
    for k in (3, 16, 20):
        with pytest.raises(InvalidParams, match="the cubic model needs characteristic != 2"):
            CubicCurve.from_weierstrass(BinaryField(k), 0, 1, 1)
    msg = "quadratic-extension machinery needs characteristic != 2"
    with pytest.raises(InvalidParams, match=re.escape(msg)):
        CubicCurve(BinaryField(3), 0, 1, 1)  # QuadraticPoly's refusal, by the same guard


def test_from_weierstrass_over_q_matches_the_divisor_oracle():
    Q = Rationals()
    grid = range(-6, 7)
    F = Fraction
    extra = [(F(1, 2), F(-5, 2), 1), (F(-7, 6), F(1, 3), F(1, 6)), (F(3, 4), 0, F(-27, 64)),
             (0, F(-1, 9), 0)]
    for A, B, C in [(A, B, C) for A in grid for B in grid for C in grid] + extra:
        roots = oracles.qq_cubic_roots(A, B, C)
        try:
            got = CubicCurve.from_weierstrass(Q, A, B, C).alpha
        except SingularCurve:
            disc = A * A * B * B - 4 * B**3 - 4 * A**3 * C - 27 * C * C + 18 * A * B * C
            assert roots and disc == 0, (A, B, C)
            continue
        except InvalidParams:
            assert roots == [], (A, B, C)
            continue
        assert got == Q(roots[0]), (A, B, C)


def test_from_weierstrass_over_q_with_a_25_digit_constant_is_fast():
    Q = Rationals()
    r = 10**24 + 7
    t = time.perf_counter()
    with pytest.raises(InvalidParams):
        CubicCurve.from_weierstrass(Q, 0, 0, r)  # x^3 + r has no rational root
    E = CubicCurve.from_weierstrass(Q, -r, 1, -r)  # (x - r)(x^2 + 1)
    assert E.alpha == Q(r)
    E2 = CubicCurve.from_weierstrass(Q, Fraction(-r, 3), 1, Fraction(-r, 3))  # (x - r/3)(x^2 + 1)
    assert E2.alpha == Q(Fraction(r, 3))
    assert time.perf_counter() - t < 1.0


# ---------------------------------------------------------------------------
# group law against the oracle
# ---------------------------------------------------------------------------

ORACLE_CURVES = [(5, 4, 1, 0), (7, 1, 3, 2), (11, 0, 1, 0), (13, 2, 5, 0), (31, 7, 11, 0)]


@pytest.mark.parametrize("p,A,B,C", ORACLE_CURVES)
def test_cubic_add_matches_oracle(p, A, B, C):
    F = PrimeField(p)
    E = CubicCurve.from_weierstrass(F, A, B, C)
    assert E.coefficients() == (F(A), F(B), F(C))
    pts = E.full_group()
    assert sorted(as_tuple(P) for P in pts[1:]) == sorted(oracles.fp_cubic_points(p, A, B, C))
    rng = random.Random(p)
    for _ in range(80):
        P, Q = rng.choice(pts), rng.choice(pts)
        got = E.add(P, Q)
        want = oracles.fp_cubic_add(p, A, B, C, as_tuple(P), as_tuple(Q))
        assert as_tuple(got) == want
    for P in pts[1:][:10]:
        assert E.order_of(P) == oracles.fp_cubic_order(p, A, B, C, as_tuple(P))
        assert as_tuple(E.negate(P)) == oracles.fp_cubic_neg(p, as_tuple(P))
        want7 = as_tuple(P)
        for _ in range(6):
            want7 = oracles.fp_cubic_add(p, A, B, C, want7, as_tuple(P))
        assert as_tuple(E.scalar_mul(7, P)) == want7


def test_cubic_add_matches_oracle_over_q():
    # y^2 = (x+1)(x^2 + 8x + 4): contains (0, 2), a generic-looking point
    Q = Rationals()
    E = CubicCurve(Q, -1, 8, 4)
    A, B, C = (c.value for c in E.coefficients())
    P = pt(E, 0, 2)
    acc_pkg = P
    acc_orc = (Fraction(0), Fraction(2))
    for _ in range(6):
        acc_pkg = E.add(acc_pkg, P)
        acc_orc = oracles.qq_cubic_add(A, B, C, acc_orc, (Fraction(0), Fraction(2)))
        if acc_pkg.is_infinity:
            assert acc_orc is None
            break
        assert (acc_pkg.x.value, acc_pkg.y.value) == acc_orc


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([5, 7, 11, 13]),
    seed=st.integers(0, 10**6),
)
def test_group_axioms_on_random_points(p, seed):
    rng = random.Random(seed)
    F = PrimeField(p)
    for _ in range(20):
        alpha, pp, qq = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        try:
            E = CubicCurve(F, alpha, pp, qq)
            break
        except SingularCurve:
            continue
    else:
        return
    pts = E.full_group()
    P, Q, R = (rng.choice(pts) for _ in range(3))
    assert E.add(P, Q) == E.add(Q, P)
    assert E.add(E.add(P, Q), R) == E.add(P, E.add(Q, R))
    assert E.add(P, E.negate(P)).is_infinity
    assert E.add(P, Point.infinity()) == P
    n = rng.randrange(-6, 18)
    want = Point.infinity()
    step = P if n >= 0 else E.negate(P)
    for _ in range(abs(n)):
        want = E.add(want, step)
    assert E.scalar_mul(n, P) == want


def test_order_of_infinity_and_a_finite_point():
    F = PrimeField(11)
    E = CubicCurve.from_weierstrass(F, 0, 1, 0)
    assert E.order_of(Point.infinity()) == 1
    P = E.full_group()[1]
    n = E.order_of(P)
    assert n is not None and n > 1 and E.scalar_mul(n, P).is_infinity


def test_element_from_json_leaves_strings_and_ints_to_the_field():
    for F in (PrimeField(13), Rationals(), BinaryField(4)):
        for v in ("3", 3, "0", 0):
            assert element_from_json(F, v) == F.element(v)
        for v in (True, False):
            with pytest.raises(InvalidParams, match=f"^booleans are not elements of {F.descriptor}$"):
                element_from_json(F, v)
        for v in (1.5, 2.0, [1], None, {"x": 1}):
            with pytest.raises(InvalidParams, match=re.escape(f"cannot read a field element from {v!r}")):
                element_from_json(F, v)


def _iteration_bound(q):
    """m of the order search: orders up to m come from iterated addition."""
    r = isqrt(4 * q)
    return max(isqrt((2 * r + (r * r < 4 * q)) // 4) + 1, 12)


def _random_curves(F, rng, n):
    p = F.order
    while n:
        try:
            yield CubicCurve(F, rng.randrange(p), rng.randrange(p), rng.randrange(p))
        except SingularCurve:
            continue
        n -= 1


@pytest.mark.parametrize("p", [3, 5, 7, 97, 1009, 4099])
def test_order_of_matches_oracle_over_fp(p):
    F = PrimeField(p)
    rng = random.Random(p)
    m = _iteration_bound(p)
    seen = set()
    for E in _random_curves(F, rng, 3):
        A, B, C = (c.value for c in E.coefficients())
        pts = E.full_group()
        for P in [E.w3] + (pts if p <= 97 else rng.sample(pts, 12)):
            want = oracles.fp_cubic_order(p, A, B, C, as_tuple(P))
            assert E.order_of(P) == want
            seen.add(want)
    if p >= 97:  # both the iteration and the giant-step phase ran
        assert min(seen) <= m < max(seen)


@pytest.mark.parametrize("k", range(1, 9))
def test_order_of_matches_oracle_over_gf2k(k):
    F = BinaryField(k)
    rng = random.Random(k)
    seen = set()
    for _ in range(3):
        a2, a6 = rng.randrange(1 << k), rng.randrange(1, 1 << k)
        E = Char2Curve(F, a2, a6)
        pts = E.full_group()
        for P in rng.sample(pts, min(12, len(pts))):
            want = oracles.char2_order(k, F.modulus, a2, a6, as_tuple(P))
            assert E.order_of(P) == want
            seen.add(want)
    if k >= 7:
        assert max(seen) > _iteration_bound(1 << k)


def test_small_orders_over_fp_take_one_kernel_call(monkeypatch):
    """Every order <= 12 (all family witnesses) comes from one kernel.cubic_order call."""
    calls = Counter()
    for name in ("cubic_order", "cubic_smul"):
        def counting(*args, name=name, fn=getattr(kernel, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(kernel, name, counting)
    for p in (13, 1009, 4099, 2**31 - 1):
        F = PrimeField(p)
        for T in range(2, p):
            try:
                inst = e12_new(F, T)
                break
            except InvalidParams:
                continue
        for w in inst.witnesses:
            calls.clear()
            assert inst.curve.order_of(w.point) == w.claimed_order
            assert calls == {"cubic_order": 1}


def test_char2_witness_orders_take_one_kernel_call(monkeypatch):
    """An e8char2 witness check is one kernel.c2_order call and no field multiply."""
    calls = Counter()

    def counting(*args, fn=kernel.c2_order):
        calls["c2_order"] += 1
        return fn(*args)

    def counting_mul(self, a, b, mul=BinaryField._mul):
        calls["mul"] += 1
        return mul(self, a, b)

    monkeypatch.setattr(kernel, "c2_order", counting)
    monkeypatch.setattr(BinaryField, "_mul", counting_mul)
    for k in (3, 8, 20):
        inst = e8char2_new(BinaryField(k), 3)
        for w in inst.witnesses:
            calls.clear()
            assert inst.curve.order_of(w.point) == w.claimed_order
            assert calls == {"c2_order": 1}


def test_binary_field_builds_its_kernel_context_on_first_arithmetic():
    built = kernel._gf2k.cache_info
    kernel._gf2k.cache_clear()
    F = BinaryField(20)
    x = F(2)
    assert built().misses == 0  # the field alone builds nothing
    x * x  # the first multiply does
    assert built().misses == 1
    G = BinaryField(20)
    assert G == F and G is not F
    E = Char2Curve(G, 0, 1)  # a curve fetches its field's context, shared by equal fields
    assert (G(3) / G(2)).value == (F(3) / x).value
    assert G._kernel() is F._kernel() is kernel._gf2k(20, F.modulus)
    assert E.contains(E.w3)
    assert built().misses == 1  # the one context is that of (20, F.modulus)
    Char2Curve(BinaryField(19), 0, 1)
    assert built().misses == 2  # a curve over a field with no context builds exactly one


def test_char2_group_law_looks_up_no_kernel_context():
    """The curve's constants carry its field's context: an order search fetches none."""
    inst = e8char2_new(BinaryField(3), 3)
    P = next(w.point for w in inst.witnesses if w.claimed_order == 8)
    before = kernel._gf2k.cache_info()
    assert inst.curve.order_of(P) == 8
    assert kernel._gf2k.cache_info() == before


def _large_order_point(p):
    F = PrimeField(p)
    for E in _random_curves(F, random.Random(p), 5):
        for P in E.full_group()[1:]:
            if E.order_of(P) > 40:
                return E, P
    raise AssertionError("no point of order > 40")


def test_order_search_raises_when_its_answer_fails_the_recheck(monkeypatch):
    E, P = _large_order_point(4099)
    monkeypatch.setattr(kernel, "_smul", lambda add, neg, c, n, pt: pt)  # a broken group law
    with pytest.raises(VerificationError):
        E.order_of(P)


def test_order_search_raises_when_no_multiple_is_found(monkeypatch):
    E, P = _large_order_point(4099)
    monkeypatch.setattr(kernel, "_hasse_interval", lambda q: (1, 1))  # a wrong bound
    with pytest.raises(VerificationError):
        E.order_of(P)


@pytest.mark.parametrize("field", [PrimeField(2**31 - 1), BinaryField(20)], ids=str)
def test_large_orders_are_searched_on_raw_coordinates(monkeypatch, field):
    """An order past the iterated-addition bound takes baby-step giant-step,
    and the search builds no Point."""
    if isinstance(field, PrimeField):
        E = CubicCurve(field, 0, 1, 3)  # y^2 = x (x^2 + x + 3)
        ys = (E.rhs(field(x)).sqrt() for x in range(2, 100))
    else:
        E = Char2Curve(field, 1, 7)  # y = x z turns it into z^2 + z = x + a2 + a6 / x^2
        zs = ((x, field.solve_artin_schreier(x + E.a2 + E.a6 / (x * x)))
              for x in map(field, range(2, 100)))
        ys = (None if z is None else x * z for x, z in zs)
    x, y = next((x, y) for x, y in enumerate(ys, 2) if y is not None)
    P = Point(field(x), y)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(kernel, "_order_bsgs", counting("bsgs", kernel._order_bsgs))
    monkeypatch.setattr(curve_module, "_pt_from_ints", counting("Point", curve_module._pt_from_ints))
    n = E.order_of(P)
    assert calls == {"bsgs": 1}
    assert n > 12 and E.scalar_mul(n, P).is_infinity


def test_off_curve_is_rejected():
    F = PrimeField(11)
    E = CubicCurve.from_weierstrass(F, 0, 1, 0)
    E2 = Char2Curve(BinaryField(4), 1, 3)
    foreign = Point(PrimeField(7)(1), PrimeField(7)(1))
    for curve in (E, E2):
        O = Point.infinity()
        mixed = Point(curve.w3.x, foreign.y)  # x on the curve, y in another field
        for P in (foreign, mixed):
            with pytest.raises(InvalidParams):
                curve.contains(P)
        for bad in (pt(curve, 1, 1), foreign, mixed, (1, 2)):  # (1, 2) is not a Point at all
            for call in (
                lambda: curve.add(bad, O),
                lambda: curve.add(O, bad),
                lambda: curve.double(bad),
                lambda: curve.negate(bad),
                lambda: curve.scalar_mul(3, bad),
                lambda: curve.scalar_mul(-3, bad),
                lambda: curve.order_of(bad),
                lambda: halve(curve, bad),
            ):
                with pytest.raises(OffCurve):
                    call()


def test_public_methods_check_each_point_once(monkeypatch):
    """The boundary checks its arguments; the loops behind it never re-check."""
    checked = []
    for cls in (CubicCurve, Char2Curve):
        def counting(self, P, contains=cls.contains):
            checked.append(P)
            return contains(self, P)

        monkeypatch.setattr(cls, "contains", counting)

    def checks(call):
        checked.clear()
        call()
        return len(checked)

    Fp = CubicCurve.from_weierstrass(PrimeField(11), 0, 1, 0)
    EQ = CubicCurve(Rationals(), 0, 3, 1)  # (-1, 1) has order 4
    E2 = Char2Curve(BinaryField(4), 1, 3)
    for E, P in ((Fp, Fp.full_group()[1]), (EQ, pt(EQ, -1, 1)), (E2, E2.full_group()[2])):
        for n in range(-3, 2**10 + 1):
            assert checks(lambda: E.scalar_mul(n, P)) == 1
        assert checks(lambda: E.order_of(P)) == 1
        assert checks(lambda: E.negate(P)) == 1
        assert checks(lambda: E.double(P)) == 1
        assert checks(lambda: E.add(P, P)) == 2


# ---------------------------------------------------------------------------
# torsion structure and enumeration
# ---------------------------------------------------------------------------

def test_two_torsion_counts():
    F = PrimeField(7)
    E1 = CubicCurve(F, 0, 0, 1)  # x^2+1 irreducible mod 7 (-1 is a non-square)
    assert E1.two_torsion() == [E1.w3]
    E3 = CubicCurve(F, 0, 0, -1)  # x^2-1 = (x-1)(x+1)
    tt = E3.two_torsion()
    assert len(tt) == 3 and all(P.y == 0 for P in tt)
    assert {as_tuple(P)[0] for P in tt} == {0, 1, 6}
    for P in tt:
        assert E3.add(P, P).is_infinity


def test_w3_self_addition_is_infinity():
    F = PrimeField(13)
    E = CubicCurve(F, 2, 1, 5)
    assert E.add(E.w3, E.w3).is_infinity
    assert E.order_of(E.w3) == 2


def test_char2_full_group_above_the_table_bound():
    F = BinaryField(11)
    assert F._kernel().log is None  # the bit-vector loop of kernel.c2_points
    pts = Char2Curve(F, 1, 3).full_group()
    assert pts[0].is_infinity
    affine = [(P.x.value, P.y.value) for P in pts[1:]]
    assert len(set(affine)) == len(affine)
    assert all(oracles.char2_on(11, F.modulus, 1, 3, P) for P in affine)
    assert abs(len(pts) - (2**11 + 1)) <= 2 * isqrt(2**11) + 1  # Hasse


def test_full_group_limits():
    with pytest.raises(FieldTooLarge):
        CubicCurve(Rationals(), 0, 1, 3).full_group()
    with pytest.raises(FieldTooLarge):
        Char2Curve(BinaryField(17), 0, 1).full_group()
    F = PrimeField(5)
    E = CubicCurve(F, 0, 4, 1)
    pts = E.full_group()
    assert pts[0].is_infinity
    assert len(pts) == len(set(pts))
    q = 5
    assert abs(len(pts) - (q + 1)) <= 2 * oracles.small_primes(2, 3)[0]  # Hasse, loosely


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_group_size_in_hasse_interval_and_orders_divide(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(5):
        try:
            E = CubicCurve(F, rng.randrange(p), rng.randrange(p), rng.randrange(p))
        except SingularCurve:
            continue
        pts = E.full_group()
        N = len(pts)
        assert (p + 1 - N) ** 2 <= 4 * p
        for P in rng.sample(pts, min(6, len(pts))):
            assert N % E.order_of(P) == 0


def test_translate_x_known_example_and_homomorphism():
    F = PrimeField(11)
    E = CubicCurve(F, -1, 2, 3)
    E2, fwd = E.translate_x(F(1))
    assert E2.alpha == F(-2)
    assert E2.g.p == F(4) and E2.g.q == F(6)
    # fwd must be a group isomorphism preserving orders
    for P in E.full_group():
        Q = fwd(P)
        assert E2.contains(Q)
        assert E2.order_of(Q) == E.order_of(P)
    P1, P2 = E.full_group()[1:3]
    assert fwd(E.add(P1, P2)) == E2.add(fwd(P1), fwd(P2))


def test_j_invariant_matches_long_form_formula():
    for field, alpha, pp, qq in [
        (PrimeField(11), -1, 2, 3),
        (PrimeField(13), 0, 1, 5),
        (Rationals(), 2, 0, 1),
        (PrimeField(3), 1, 0, 1),  # c4 = 16A^2 - 48B loses its B term mod 3
        (PrimeField(5), 1, 1, 1),
        (Rationals(), Fraction(3 * 10**299 + 1, 7), 2 * 10**300 + 9, -(10**300) + 17),
    ]:
        E = CubicCurve(field, alpha, pp, qq)
        A, B, C = E.coefficients()
        assert E.j_invariant() == oracles.j_long_weierstrass(
            field(0), A, field(0), B, C)


# ---------------------------------------------------------------------------
# characteristic-2 model
# ---------------------------------------------------------------------------

CHAR2_CASES = [(2, 0, 1), (2, 2, 2), (3, 1, 5), (3, 0, 7), (4, 6, 9)]


@pytest.mark.parametrize("k,a2,a6", CHAR2_CASES)
def test_char2_group_law_matches_oracle(k, a2, a6):
    F = BinaryField(k)
    E = Char2Curve(F, F(a2), F(a6))
    mod = F.modulus
    pts = E.full_group()
    want_affine = oracles.char2_points(k, mod, a2, a6)
    assert sorted(as_tuple(P) for P in pts[1:]) == sorted(want_affine)
    everything = [None] + want_affine
    for P in everything:
        for Q in everything:
            got = E.add(
                Point.infinity() if P is None else Point(F(P[0]), F(P[1])),
                Point.infinity() if Q is None else Point(F(Q[0]), F(Q[1])),
            )
            assert as_tuple(got) == oracles.char2_add(k, mod, a2, a6, P, Q)


def test_char2_negation_and_w3():
    F = BinaryField(4)
    E = Char2Curve(F, F(3), F(9))
    for P in E.full_group():
        N = E.negate(P)
        assert E.contains(N)
        assert E.add(P, N).is_infinity
        if not P.is_infinity:
            assert N == Point(P.x, P.x + P.y)
    w = E.w3
    assert w.x == 0 and w.y * w.y == F(9)
    assert E.order_of(w) == 2
    assert E.has_order2()


def test_char2_order_matches_oracle():
    F = BinaryField(3)
    E = Char2Curve(F, F(1), F(5))
    for P in E.full_group()[1:]:
        assert E.order_of(P) == oracles.char2_order(3, F.modulus, 1, 5, as_tuple(P))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_point_json_roundtrip():
    F = PrimeField(11)
    E = CubicCurve(F, -1, 2, 3)
    P = E.full_group()[1]
    assert point_from_json(F, point_to_json(P)) == P
    assert point_to_json(Point.infinity()) == "infinity"
    assert point_from_json(F, "infinity").is_infinity
    with pytest.raises(InvalidParams):
        point_from_json(F, {"x": "1"})
    with pytest.raises(InvalidParams):
        point_from_json(F, {"x": "1", "y": "2", "z": "3"})
    # rationals serialize as num/den strings
    Q = Rationals()
    P2 = Point(Q(Fraction(1, 2)), Q(Fraction(-3, 4)))
    js = point_to_json(P2)
    assert js == {"x": "1/2", "y": "-3/4"}
    assert point_from_json(Q, js) == P2


def test_curve_json_roundtrip():
    F = PrimeField(11)
    E = CubicCurve(F, -1, 2, 3)
    js = E.to_json_dict()
    assert js["model"] == "cubic"
    assert js["field"] == "Fp:11"
    assert curve_from_json(js) == E and hash(curve_from_json(js)) == hash(E)
    assert curve_from_json({"alpha": -1, "p": 2, "q": 3}, field=F) == E

    B = BinaryField(3)
    E2 = Char2Curve(B, B(1), B(5))
    js2 = E2.to_json_dict()
    assert js2["model"] == "char2"
    assert curve_from_json(js2) == E2 and hash(curve_from_json(js2)) == hash(E2)
    assert curve_from_json({"a2": 1, "a6": 5}, field=B) == E2
    with pytest.raises(InvalidParams):
        curve_from_json({"alpha": 0, "p": 1}, field=F)
    with pytest.raises(InvalidParams):
        curve_from_json({"p": 1, "q": 1})  # no field anywhere


def test_curve_json_field_must_equal_the_field_given():
    obj = {"field": "F2k:3:b", "a2": "1", "a6": "1"}
    assert curve_from_json(obj, BinaryField(3, 0b1011)) == curve_from_json(obj)
    for other in (BinaryField(3, 0b1101), PrimeField(11)):
        with pytest.raises(InvalidParams, match=re.escape(other.descriptor)):
            curve_from_json(obj, other)


def test_point_class_invariants():
    F = PrimeField(5)
    with pytest.raises(InvalidParams):
        Point(F(1), None)
    assert Point.infinity().is_infinity
    assert Point(F(1), F(2)) == Point(F(1), F(2))
    assert len({Point(F(1), F(2)), Point(F(1), F(2))}) == 1


def test_curves_carry_no_instance_dict():
    for E in (CubicCurve(PrimeField(7), 0, 0, 1), CubicCurve(Rationals(), 1, 0, 1),
              Char2Curve(BinaryField(3), 1, 1)):
        assert not hasattr(E, "__dict__")
        with pytest.raises(AttributeError):
            E.stray = 1


def _records():
    """One of each record of the package, Point twice."""
    F = PrimeField(7)
    inst = e12_new(Rationals(), Rationals()(3))
    return [Point(F(1), F(3)), Point.infinity(), inst.witnesses[0],
            halve(inst.curve, inst.witnesses[0].point), inst, sigma_char2(BinaryField(2), 4),
            half_to_roots(inst.curve, inst.witnesses[3].point)]


def test_records_refuse_every_assignment_and_deletion():
    """Fields or not, a frozen record answers FrozenInstanceError, never TypeError."""
    records = _records()
    P, inst = records[0], records[4]
    for rec in records:
        assert not hasattr(rec, "__dict__"), rec
        fields = [f.name for f in dataclasses.fields(rec)]
        for name in fields + ["verified", "z", "__dict__"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, name)
    F = PrimeField(7)
    assert repr(P) == "(1, 3)" and P == Point(F(1), F(3)) and P.x == F(1)
    assert hash(P) == hash(Point(F(1), F(3)))
    assert inst.witnesses[0].verified is True


def test_records_copy_and_pickle_through_their_constructor():
    for rec in _records():
        for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(twin) is type(rec) and twin == rec
