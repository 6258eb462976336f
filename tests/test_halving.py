"""Division by 2 on the curve, checked against exhaustive doubling."""

import random
from fractions import Fraction

import pytest

from ectorsion import (
    BinaryField,
    Char2Curve,
    CubicCurve,
    HalvingResult,
    InvalidParams,
    Point,
    PointIsW3,
    PrimeField,
    QuadExtElement,
    QuadraticPoly,
    Rationals,
    SingularCurve,
    TwoTorsionHalf,
    VerificationError,
    WrongCase,
    e4_new,
    e4char2_new,
    e6_new,
    e8_new,
    e8char2_new,
    e10_new,
    e12_new,
    ext_sqrt,
    halvability_criterion_origin,
    halve,
    halve_char2,
    halve_quadext,
    halve_rT,
    halve_split,
    half_to_roots,
)
from ectorsion import kernel

import oracles


def brute_halves(curve, P):
    """{Q : Q + Q = P} by doubling every point of the group."""
    return {Q for Q in curve.full_group() if curve.double(Q) == P}


def tangent_slope(curve, Q):
    """f'(x)/2y on y^2 = f(x); only called with y != 0."""
    A, B, _ = curve.coefficients()
    return (3 * Q.x * Q.x + 2 * A * Q.x + B) / (2 * Q.y)


def small_cubic_curves(primes, per_prime=6):
    """A deterministic mix of split and irreducible cubics."""
    out = []
    for p in primes:
        F = PrimeField(p)
        rng = random.Random(p)
        got = 0
        while got < per_prime:
            try:
                E = CubicCurve(F, rng.randrange(p), rng.randrange(p), rng.randrange(p))
            except (SingularCurve, InvalidParams):
                continue
            out.append(E)
            got += 1
    return out


# ---------------------------------------------------------------------------
# split / quadext against brute force, exhaustively on small curves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_split_and_quadext_match_brute_force(p):
    for E in small_cubic_curves([p]):
        split = E.g.roots() is not None
        A, B, C = (c.value for c in E.coefficients())
        scan = oracles.halves_by_scan(
            oracles.fp_cubic_points(p, A, B, C) + [oracles.INF],
            lambda T: oracles.fp_cubic_add(p, A, B, C, T, T))
        doubles = {}
        for Q in E.full_group():
            doubles.setdefault(E.double(Q), set()).add(Q)
        for P in E.full_group():
            if P.is_infinity:
                continue
            want = doubles.get(P, set())
            res = halve_split(E, P) if split else halve_quadext(E, P)
            assert set(res.points()) == want
            assert res.halvable == bool(want)
            if want:
                assert len(res.halves) in (1, 2, 4)
            for Q, slope in res.halves:
                assert slope == tangent_slope(E, Q)
            with pytest.raises(WrongCase):
                (halve_quadext if split else halve_split)(E, P)
            # No criterion raises for a point without halves: each answers it.
            results = [res, halve(E, P)]
            if P == E.w3:
                with pytest.raises(PointIsW3):
                    halve_rT(E, P)
            else:
                results.append(halve_rT(E, P))
            assert all(isinstance(r, HalvingResult) for r in results)
            if not scan.get((P.x.value, P.y.value)):
                assert all(r.halves == () and r.witness == {} for r in results)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_rT_matches_brute_force(p):
    for E in small_cubic_curves([p]):
        doubles = {}
        for Q in E.full_group():
            doubles.setdefault(E.double(Q), set()).add(Q)
        for P in E.full_group():
            if P.is_infinity:
                continue
            want = doubles.get(P, set())
            if P == E.w3:
                with pytest.raises(PointIsW3):
                    halve_rT(E, P)
                continue
            res = halve_rT(E, P)
            assert set(res.points()) == want
            if not want:
                assert res.halvable is False and res.witness == {}
                continue
            for Q, slope in res.halves:
                assert slope == tangent_slope(E, Q)
            for br in res.witness["branches"]:
                assert set(br) == {"r", "T"}


def test_dispatcher_routes_by_factorization():
    F = PrimeField(7)
    E_split = CubicCurve(F, 0, 0, -1)  # x^2 - 1 factors
    E_irred = CubicCurve(F, 0, 0, 1)  # x^2 + 1 irreducible
    assert halve(E_split, E_split.w3).criterion == "split"
    assert halve(E_irred, E_irred.w3).criterion == "quadext"
    B = BinaryField(3)
    E2 = Char2Curve(B, B(1), B(5))
    assert halve(E2, E2.w3).criterion == "char2"
    with pytest.raises(InvalidParams):
        halve(E_split, Point.infinity())
    with pytest.raises(InvalidParams):
        halve("nope", Point.infinity())


# ---------------------------------------------------------------------------
# structure of the answer set
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7, 11])
def test_halves_differ_by_two_torsion(p):
    """If Q is a half of P then so is Q + W for any rational 2-torsion W."""
    for E in small_cubic_curves([p]):
        tt = E.two_torsion()
        for P in E.full_group():
            if P.is_infinity:
                continue
            res = halve(E, P)
            pts = set(res.points())
            for Q in pts:
                for W in tt:
                    assert E.add(Q, W) in pts
            if pts:
                # a coset of the rational 2-torsion subgroup (incl. infinity)
                assert len(pts) == len(tt) + 1


def test_quadext_needs_square_norm_and_gx0():
    """Halvable P in the irreducible case forces x0 - alpha and g(x0) square."""
    for E in small_cubic_curves([7, 11, 13]):
        if E.g.roots() is not None:
            continue
        for P in E.full_group():
            if P.is_infinity:
                continue
            res = halve_quadext(E, P)
            if res.halvable:
                assert (P.x - E.alpha).is_square()
                assert E.g(P.x).is_square()


# ---------------------------------------------------------------------------
# worked instances
# ---------------------------------------------------------------------------

def test_order4_family_halves_of_w3():
    # over F_5: a=1, b=-1 so the halves of (0,0) are (-b, +-ab) = (1, +-1)
    F = PrimeField(5)
    inst = e4_new(F, F(1), F(-1))
    res = halve(inst.curve, Point(F(0), F(0)))
    assert res.criterion == "quadext"
    assert set(res.points()) == {Point(F(1), F(1)), Point(F(1), F(4))}
    assert res.witness["r"] == "0"

    Q = Rationals()
    inst = e4_new(Q, Q(1), Q(1))
    res = halve(inst.curve, Point(Q(0), Q(0)))
    assert set(res.points()) == {Point(Q(-1), Q(1)), Point(Q(-1), Q(-1))}


def test_order6_family_halving_the_3_torsion():
    """On the order-6 curve, (0, t) halves to (0, -t) and (-2t, t - 2t^2)."""
    for field, tv in [(PrimeField(13), 2), (Rationals(), Fraction(3)), (PrimeField(11), 4)]:
        t = field(tv)
        inst = e6_new(field, t)
        E = inst.curve
        P = Point(field(0), t)
        try:
            res = halve(E, P)
        except WrongCase:  # pragma: no cover - dispatcher never raises
            raise
        pts = set(res.points())
        assert Point(field(0), -t) in pts
        assert Point(-2 * t, t - 2 * t * t) in pts


def test_double_of_x1_zero_formula():
    # on y^2 = (x+1)(x^2+x+4) over F_11, doubling (0, 2) lands at x = 3
    F = PrimeField(11)
    E = CubicCurve(F, -1, 1, 4)
    D = E.double(Point(F(0), F(2)))
    assert D.x == F(3)
    pp, qq = E.g.p, E.g.q
    assert D.x == (pp - qq) ** 2 / (4 * qq) - 1


def test_halvability_criterion_origin_builds_the_curve():
    F = PrimeField(11)
    E, halves = halvability_criterion_origin(F(2), F(1), F(3))
    # (x + 1)(x^2 + (9+4)x + 4) with 13 = 2 mod 11
    assert E.alpha == F(-1) and E.g.p == F(2) and E.g.q == F(4)
    P = Point(F(0), F(2))
    for Q, slope in halves:
        assert E.double(Q) == P
        assert slope == tangent_slope(E, Q)
    assert {Q for Q, _ in halves} <= brute_halves(E, P)

    # generic shape: y0 = t, r = 1, T = t reproduces the order-6 family curve
    Q_ = Rationals()
    t = Q_(Fraction(5, 3))
    E6, _ = halvability_criterion_origin(t, Q_(1), t)
    inst = e6_new(Q_, t)
    assert E6 == inst.curve

    with pytest.raises(InvalidParams):
        halvability_criterion_origin(F(1), F(0), F(3))
    with pytest.raises(InvalidParams):
        halvability_criterion_origin(F(1), F(2), F(0))


def test_rT_witness_reproduces_halves():
    """Each recorded (r, T) branch rebuilds a half from scratch."""
    for E in small_cubic_curves([13]):
        for P in E.full_group():
            if P.is_infinity or P == E.w3:
                continue
            res = halve_rT(E, P)
            if not res.halves:
                assert res.halvable is False and res.witness == {}
                continue
            x0, y0 = P.x, P.y
            a = E.alpha
            for br in res.witness["branches"]:
                r = E.field.parse_element(br["r"])
                T = E.field.parse_element(br["T"])
                assert r * r == x0 - a
                xq = x0 + r * T - y0 / r
                slope = -(r + T)
                Q = Point(xq, slope * (xq - x0) - y0)
                assert E.double(Q) == P
                assert (Q, slope) in res.halves


# ---------------------------------------------------------------------------
# characteristic 2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_char2_halving_matches_brute_force(k):
    F = BinaryField(k)
    for a2 in F.elements():
        for a6 in F.elements():
            if not a6:
                continue
            E = Char2Curve(F, a2, a6)
            doubles = {}
            for Q in E.full_group():
                doubles.setdefault(E.double(Q), set()).add(Q)
            for P in E.full_group():
                if P.is_infinity:
                    continue
                res = halve_char2(E, P)
                assert set(res.points()) == doubles.get(P, set())
                if res.halvable:
                    assert set(res.witness) == {"l", "r"}
                    # the two halves differ by W3
                    q1, q2 = res.points()
                    assert E.add(q1, E.w3) == q2


def test_char2_known_instances():
    F = BinaryField(4)
    g = F(0b10)  # gamma
    inst = e4char2_new(F, g)
    E = inst.curve
    res = halve_char2(E, Point(F(0), g * g))
    assert set(res.points()) == {Point(g, g * g), Point(g, g * g + g)}

    G = BinaryField(2)
    rho = G(0b10)
    E2 = Char2Curve(G, rho, G(1))
    res2 = halve_char2(E2, Point(G(0), G(1)))
    assert not res2.halvable  # trace(a2) = 1 blocks the Artin-Schreier step


def test_char2_order8_from_halving_order4():
    """Halving the order-4 point of the nested order-8 instance recovers
    the closed-form order-8 point."""
    for k, tv in [(3, 0b010), (3, 0b110), (4, 0b0111)]:
        F = BinaryField(k)
        t = F(tv)
        inst = e8char2_new(F, t)
        E = inst.curve
        P8 = inst.witness_of_order(8).point
        P4 = E.double(P8)
        assert E.order_of(P4) == 4
        res = halve_char2(E, P4)
        assert P8 in res.points() or E.negate(P8) in res.points()
        for Q in res.points():
            assert E.order_of(Q) == 8


# ---------------------------------------------------------------------------
# back from a half to the root triple
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_half_to_roots_roundtrip(p):
    for E in small_cubic_curves([p]):
        for Q in E.full_group():
            if Q.is_infinity:
                continue
            if Q.y == 0:
                with pytest.raises(TwoTorsionHalf):
                    half_to_roots(E, Q)
                continue
            P = E.double(Q)
            if P.is_infinity:
                continue
            triple = half_to_roots(E, Q)
            got_Q, slope = triple.rebuild_half()
            assert got_Q == Q
            assert triple.doubled() == P
            assert slope == tangent_slope(E, Q)


def test_half_to_roots_specialization_at_x1_zero():
    """For Q = (0, y1) the root over alpha squares to (p-q)^2 / 4q."""
    F = PrimeField(11)
    inst = e6_new(F, F(3))
    E = inst.curve
    Q = Point(F(0), F(3))
    assert E.contains(Q)
    triple = half_to_roots(E, Q)
    pp, qq = E.g.p, E.g.q
    r_alpha = triple.roots[0]
    assert r_alpha * r_alpha == (pp - qq) ** 2 / (4 * qq)


def test_half_to_roots_rational_case():
    Q_ = Rationals()
    E = e6_new(Q_, Q_(2)).curve
    P6 = Point(Q_(-4), Q_(-6))  # -2t = -4, t - 2t^2 = -6
    assert E.order_of(P6) == 6
    triple = half_to_roots(E, P6)
    reb, _ = triple.rebuild_half()
    assert reb == P6
    assert triple.doubled() == E.double(P6)
    E4 = e4_new(Q_, Q_(1), Q_(1)).curve
    Q4 = Point(Q_(-1), Q_(1))  # order 4, doubles to (0, 0)
    assert half_to_roots(E4, Q4).doubled() == Point(Q_(0), Q_(0))


def _check_quadext_witness(E, P):
    """halve_quadext's witness is ext_sqrt(x0 - X) and the r it derives; True if halvable."""
    res = halve_quadext(E, P)
    z = QuadExtElement(E.g, P.x, -1)  # x0 - X
    root = ext_sqrt(z)
    if not res.halvable:
        assert root is None and res.witness == {}
        return False
    F = E.field
    w = res.witness
    rho = QuadExtElement(E.g, F.parse_element(w["rho"]["c0"]), F.parse_element(w["rho"]["c1"]))
    r = F.parse_element(w["r"])
    assert rho == root and rho * rho == z
    assert r * r == P.x - E.alpha
    assert r * rho.norm() == -P.y
    return True


def test_quadext_witness_is_the_extension_root():
    halved = 0
    for E in small_cubic_curves([7, 11, 13]):
        if E.g.roots() is not None:
            continue
        for P in E.full_group():
            if not P.is_infinity:
                halved += _check_quadext_witness(E, P)
    assert halved > 0


def test_quadext_witness_of_even_order_witnesses_over_q():
    Q = Rationals()
    insts = [e4_new(Q, Q(a), Q(b)) for a, b in ((-6, -6), (1, 1))]
    for ctor in (e6_new, e8_new, e10_new, e12_new):
        insts += [ctor(Q, Q(t)) for t in (Fraction(-3), Fraction(5, 2))]
    halved = 0
    for inst in insts:
        assert inst.curve.g.irreducible()
        for w in inst.witnesses:
            if w.claimed_order % 2 == 0:
                halved += _check_quadext_witness(inst.curve, w.point)
    assert halved == 10  # W3 on the six e4, e8, e12 curves; both order-4 witnesses of each e8


# ---------------------------------------------------------------------------
# split and rT over Q
# ---------------------------------------------------------------------------

def _q_cases():
    """(curve, P, known half or None): doubles and other multiples on a split and an
    irreducible curve of positive rank, then the even-order family witnesses."""
    Q = Rationals()
    out = []
    # y^2 = x(x^2 - 36) splits; y^2 = x(x^2 - 5x + 5) does not.  Both G have infinite order.
    for g1, g0, G in ((0, -36, (-3, 9)), (-5, 5, (1, 1))):
        E = CubicCurve(Q, 0, g1, g0)
        G = Point(Q(G[0]), Q(G[1]))
        R = G
        for _ in range(3):
            for T in E.two_torsion() + [Point.infinity()]:
                S = E.add(R, T)
                out.append((E, S, None))
                out.append((E, E.double(S), S))
            R = E.add(R, G)
    insts = [e4_new(Q, Q(a), Q(b)) for a, b in ((-6, -6), (1, 1))]
    for ctor in (e6_new, e8_new, e10_new, e12_new):
        insts += [ctor(Q, Q(t)) for t in (Fraction(-3), Fraction(5, 2))]
    out += [(inst.curve, w.point, None) for inst in insts for w in inst.witnesses
            if w.claimed_order % 2 == 0]
    return out


def test_halving_over_q_checked_by_the_oracle():
    split = rT_runs = 0
    for E, P, half in _q_cases():
        A, B, C = (c.value for c in E.coefficients())
        want = (P.x.value, P.y.value)
        res = halve(E, P)
        assert res.criterion == ("split" if E.g.roots() is not None else "quadext")
        split += res.criterion == "split"
        got = {(Q.x.value, Q.y.value) for Q in res.points()}
        assert len(got) == len(res.halves) in (0, len(E.two_torsion()) + 1)
        for H in got:
            assert oracles.qq_cubic_on(A, B, C, H)
            assert oracles.qq_cubic_add(A, B, C, H, H) == want
        if half is not None:
            assert (half.x.value, half.y.value) in got
        # No criterion raises for a point without halves: each answers it.
        results = [res, (halve_split if res.criterion == "split" else halve_quadext)(E, P)]
        if P == E.w3:
            with pytest.raises(PointIsW3):
                halve_rT(E, P)
        else:
            rT = halve_rT(E, P)
            results.append(rT)
            assert set(rT.points()) == set(res.points())
            rT_runs += rT.halvable
        assert all(isinstance(r, HalvingResult) for r in results)
        if not got:
            assert all(r.halves == () and r.witness == {} for r in results)
    assert split > 0 and rT_runs > 0


# ---------------------------------------------------------------------------
# a formula slip is refused
# ---------------------------------------------------------------------------

def _halvable_doubles(p):
    """(curve, P = 2Q) pairs over F_p with both shapes of g, P affine and not W3."""
    out = []
    for E in small_cubic_curves([p]):
        E.g.roots()  # found and kept now, before any test patches the square root
        doubles = [E.double(Q) for Q in E.full_group()]
        out += [(E, P) for P in doubles[:6] if not P.is_infinity and P != E.w3]
    assert {E.g.roots() is None for E, _ in out} == {True, False}
    return out


def test_a_square_root_slip_never_returns_a_half(monkeypatch):
    cases = _halvable_doubles(13)
    F = PrimeField(13)
    g = QuadraticPoly(F, 0, 2)  # x^2 + 2 is irreducible mod 13
    g.roots()
    squares = [z * z for z in (QuadExtElement(g, F(c0), F(c1)) for c0 in range(3) for c1 in (1, 5))]
    real = PrimeField._sqrt

    def slipped(self, a):
        """Never a root of a: r + 2 for a canonical root r <= p/2, else 1."""
        r = real(self, a)
        return 1 if r is None else (r + 2) % self.p

    monkeypatch.setattr(PrimeField, "_sqrt", slipped)
    for E, P in cases:
        for criterion in (halve_split if E.g.roots() is not None else halve_quadext, halve_rT):
            with pytest.raises(VerificationError):
                criterion(E, P)
    for z in squares:
        with pytest.raises(VerificationError):
            ext_sqrt(z)


def test_a_doubling_slip_never_returns_a_half(monkeypatch):
    cases = _halvable_doubles(11)
    real = kernel.cubic_add

    def slipped(c, pt1, pt2):
        out = real(c, pt1, pt2)
        return out if pt1 != pt2 or out is None else (out[0], (out[1] + 1) % c[0])

    monkeypatch.setattr(kernel, "cubic_add", slipped)
    for E, P in cases:
        E = CubicCurve(E.field, E.alpha, E.g.p, E.g.q)  # built now, so it reads the slip
        for criterion in (halve, halve_rT):
            with pytest.raises(VerificationError):
                criterion(E, P)
