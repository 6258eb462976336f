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
from ectorsion import halving, kernel

import oracles


def brute_halves(curve, P):
    """{Q : Q + Q = P} by doubling every point of the group."""
    return {Q for Q in curve.full_group() if curve.double(Q) == P}


def _raw(points):
    """The affine points as a set of (x, y) int tuples, as the oracle gives them."""
    return {(Q.x.value, Q.y.value) for Q in points}


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
        pts = oracles.fp_cubic_points(p, A, B, C)
        scan = oracles.halves_by_scan(
            pts + [oracles.INF], lambda T: oracles.fp_cubic_add(p, A, B, C, T, T))
        for x, y in pts:
            P = Point(E.field(x), E.field(y))
            want = scan.get((x, y), set())
            res = halve_split(E, P) if split else halve_quadext(E, P)
            assert _raw(res.points()) == want
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
            if not want:
                assert all(r.halves == () and r.witness == {} for r in results)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_rT_matches_brute_force(p):
    for E in small_cubic_curves([p]):
        A, B, C = (c.value for c in E.coefficients())
        pts = oracles.fp_cubic_points(p, A, B, C)
        scan = oracles.halves_by_scan(
            pts + [oracles.INF], lambda T: oracles.fp_cubic_add(p, A, B, C, T, T))
        for x, y in pts:
            P = Point(E.field(x), E.field(y))
            want = scan.get((x, y), set())
            if P == E.w3:
                with pytest.raises(PointIsW3):
                    halve_rT(E, P)
                continue
            res = halve_rT(E, P)
            assert _raw(res.points()) == want
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
        A, B, C = (c.value for c in E.coefficients())
        pts = oracles.fp_cubic_points(p, A, B, C)
        tt = [(x, y) for x, y in pts if y == 0]
        for x, y in pts:
            halves = _raw(halve(E, Point(E.field(x), E.field(y))).points())
            for Q in halves:
                for W in tt:
                    assert oracles.fp_cubic_add(p, A, B, C, Q, W) in halves
            if halves:
                # a coset of the rational 2-torsion subgroup (incl. infinity)
                assert len(halves) == len(tt) + 1


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


def test_half_to_roots_doubles_q_once(monkeypatch):
    """P = 2Q is one kernel addition, and Q is rebuilt from that P, not from a
    second P built by ``RootTriple.doubled``."""
    calls, cubic_add = [], kernel.cubic_add

    def counted(c, pt1, pt2):
        calls.append(pt1)
        return cubic_add(c, pt1, pt2)

    monkeypatch.setattr(kernel, "cubic_add", counted)
    monkeypatch.setattr(halving.RootTriple, "doubled", lambda self: calls.append("doubled"))
    F = PrimeField(11)
    E = e6_new(F, F(3)).curve  # built after the patch: its model reads kernel.cubic_add
    calls.clear()
    Q = Point(F(0), F(3))
    triple = half_to_roots(E, Q)
    assert calls == [(0, 3)]
    monkeypatch.undo()
    assert triple.rebuild_half()[0] == Q and triple.doubled() == E.double(Q)


def test_half_to_roots_specialization_at_x1_zero():
    """For Q = (0, y1) the root over alpha squares to (p-q)^2 / 4q."""
    F = PrimeField(11)
    inst = e6_new(F, F(3))
    E = inst.curve
    Q = Point(F(0), F(3))
    assert E.contains(Q)
    triple = half_to_roots(E, Q)
    pp, qq = E.g.p, E.g.q
    r_alpha = triple.r1
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


def _check_triple_by_the_oracle(E, Q, P, red, g_roots, quad_roots):
    """half_to_roots(E, Q) against the oracle's P = 2Q, in plain values reduced by
    ``red``: r1^2 = x0 - alpha, s^2 - 2n = 2x0 + p, n^2 = g(x0) and r1*n = -y0, and
    the triple gives Q back as (x0 + s2, -y0 - s1*s2), not another half of P.  When
    g splits, its roots ``g_roots`` and the roots of z^2 - s z + n, ``quad_roots(s, n)``,
    are r2, r3 with r_i^2 = x0 - alpha_i.  Returns whether g splits."""
    x0, y0 = P
    t = half_to_roots(E, Q)
    assert t.alpha == E.alpha
    al, gp, gq = E.alpha.value, E.g.p.value, E.g.q.value
    r1, s, n = t.r1.value, t.s.value, t.n.value
    assert red(r1 * r1 - (x0 - al)) == 0
    assert red(s * s - 2 * n - (2 * x0 + gp)) == 0
    assert red(n * n - (x0 * x0 + gp * x0 + gq)) == 0
    assert red(r1 * n + y0) == 0
    s1, s2 = r1 + s, r1 * s + n
    assert (red(x0 + s2), red(-y0 - s1 * s2)) == (Q.x.value, Q.y.value)
    if g_roots:
        assert len(g_roots) == 2
        squares = sorted(red(z * z) for z in quad_roots(s, n))
        assert squares == sorted(red(x0 - a) for a in g_roots)
    return bool(g_roots)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_half_to_roots_checked_by_the_oracle(p):
    F = PrimeField(p)
    shapes = set()
    for E in small_cubic_curves([p]):
        A, B, C = (c.value for c in E.coefficients())
        gp, gq = E.g.p.value, E.g.q.value
        g_roots = [a for a in range(p) if (a * a + gp * a + gq) % p == 0]
        for x1, y1 in oracles.fp_cubic_points(p, A, B, C):
            if y1:
                shapes.add(_check_triple_by_the_oracle(
                    E, Point(F(x1), F(y1)), oracles.fp_cubic_add(p, A, B, C, (x1, y1), (x1, y1)),
                    lambda v: v % p, g_roots,
                    lambda s, n: [z for z in range(p) if (z * z - s * z + n) % p == 0]))
    assert shapes == {True, False}


def test_half_to_roots_over_q_checked_by_the_oracle():
    Q = Rationals()
    insts = [e4_new(Q, Q(a), Q(b)) for a, b in ((-6, -6), (1, 1))]
    for ctor in (e6_new, e8_new, e12_new):
        insts += [ctor(Q, Q(t)) for t in (Fraction(-3), Fraction(5, 2))]
    insts.append(e6_new(Q, Q(Fraction(4, 3))))  # g splits: Z/2 x Z/6
    shapes, checked = set(), 0
    for inst in insts:
        E = inst.curve
        A, B, C = (c.value for c in E.coefficients())
        g_roots = oracles.qq_quadratic_roots(E.g.p.value, E.g.q.value)
        for w in inst.witnesses:
            x1, y1 = w.point.x.value, w.point.y.value
            if y1:
                shapes.add(_check_triple_by_the_oracle(
                    E, w.point, oracles.qq_cubic_add(A, B, C, (x1, y1), (x1, y1)),
                    lambda v: v, g_roots, lambda s, n: oracles.qq_quadratic_roots(-s, n)))
                checked += 1
    assert shapes == {True, False} and checked > 20


def _check_quadext_witness(E, P):
    """halve_quadext's witness is ext_sqrt(x0 - X) and the r it derives; True if halvable."""
    res = halve_quadext(E, P)
    root = ext_sqrt(E.g, P.x, -1)  # x0 - X
    if not res.halvable:
        assert root is None and res.witness == {}
        return False
    F, g = E.field, E.g
    w = res.witness
    c0, c1 = F.parse_element(w["rho"]["c0"]), F.parse_element(w["rho"]["c1"])
    r = F.parse_element(w["r"])
    assert (c0, c1) == root
    rho = (c0.value, c1.value)
    assert oracles.quadext_mul(F.characteristic or None, g.p.value, g.q.value, rho, rho) == (
        P.x.value, F(-1).value)
    assert r * r == P.x - E.alpha
    assert r * (c0 * c0 - c0 * c1 * g.p + c1 * c1 * g.q) == -P.y  # r * norm(rho)
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
    squares = [oracles.quadext_mul(13, 0, 2, (c0, c1), (c0, c1)) for c0 in range(3) for c1 in (1, 5)]
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
            ext_sqrt(g, *z)


def test_a_doubling_slip_never_returns_a_half(monkeypatch):
    """The replay doubles a half in ``kernel.cubic_tangent``: a slip there,
    y0 = lam*(x1 - x0) - y1 + 1, refuses every half."""
    cases = _halvable_doubles(11)
    real = kernel.cubic_tangent

    def slipped(c, q, lam, pt):
        return real(c, q, lam, (pt[0], (pt[1] - 1) % c[0]))

    monkeypatch.setattr(kernel, "cubic_tangent", slipped)
    for E, P in cases:
        E = CubicCurve(E.field, E.alpha, E.g.p, E.g.q)  # built now, so it reads the slip
        for criterion in (halve, halve_rT):
            with pytest.raises(VerificationError):
                criterion(E, P)


def test_a_char2_doubling_slip_never_returns_a_half(monkeypatch):
    cases = []
    for k, a2, a6 in ((3, 1, 5), (4, 0, 3), (4, 6, 11)):
        E = Char2Curve(BinaryField(k), a2, a6)
        doubles = {E.double(Q) for Q in E.full_group()}
        cases += [(E, P) for P in doubles if not P.is_infinity]
    assert len(cases) > 6 and any(not P.x for _, P in cases)  # W3 = (0, sqrt(a6)) among them
    real = kernel.c2_tangent

    def slipped(c, q, lam, pt):
        """The replay's doubling, y0 = x1^2 + (lam + 1)*x0, with a slip of 1."""
        return real(c, q, lam, (pt[0], pt[1] ^ 1))

    monkeypatch.setattr(kernel, "c2_tangent", slipped)
    for E, P in cases:
        E = Char2Curve(E.field, E.a2, E.a6)  # built now, so it reads the slip
        with pytest.raises(VerificationError):
            halve_char2(E, P)


P31 = 2**31 - 1


def _large_halvable_doubles():
    """(curve, P = 2Q) where no test scans the group: at p = 2^31 - 1 and over
    Q with parts of about 300 digits, with g irreducible and split, and over
    GF(2^20)."""
    out = []
    F = PrimeField(P31)
    for g0 in (4, 3):  # y^2 = x(x^2 + x + g0): x^2 + x + 4 is irreducible mod P31, x^2 + x + 3 splits
        x = 2
        while pow(rhs := oracles.fp_cubic_rhs(P31, 1, g0, 0, x), (P31 - 1) // 2, P31) != 1:
            x += 1
        Q = (x, pow(rhs, (P31 + 1) // 4, P31))  # a root of rhs, as P31 = 3 mod 4
        P = oracles.fp_cubic_add(P31, 1, g0, 0, Q, Q)
        out.append((CubicCurve(F, 0, 1, g0), Point(F(P[0]), F(P[1]))))
    Qf = Rationals()
    for g1, g0, G, n in ((-5, 5, (1, 1), 20), (0, -36, (-3, 9), 12)):  # G of infinite order
        G = Q = tuple(map(Fraction, G))
        for _ in range(n - 1):
            Q = oracles.qq_cubic_add(g1, g0, 0, Q, G)
        P = oracles.qq_cubic_add(g1, g0, 0, Q, Q)
        assert 250 < max(len(str(abs(v))) for c in P for v in (c.numerator, c.denominator)) < 400
        out.append((CubicCurve(Qf, 0, g1, g0), Point(Qf(P[0]), Qf(P[1]))))
    assert [E.g.roots() is None for E, _ in out] == [True, False, True, False]
    F20 = BinaryField(20)
    x = 3
    # y = x*z turns y^2 + xy = x^3 + x^2 + 7 into z^2 + z = x + 1 + 7/x^2
    while (z := F20.solve_artin_schreier(F20(x) + 1 + F20(7) / F20(x) ** 2)) is None:
        x += 1
    Q = (x, oracles.gf2_mul(x, z.value, F20.modulus, 20))
    P = oracles.char2_add(20, F20.modulus, 1, 7, Q, Q)
    out.append((Char2Curve(F20, 1, 7), Point(F20(P[0]), F20(P[1]))))
    return out


def test_a_slope_slip_in_the_builder_never_returns_a_half(monkeypatch):
    """``_halves`` with every slope one off, its points right: split, quadext,
    rT and half_to_roots (P as a half of 2P) refuse it at p = 2^31 - 1 and
    over Q at 300 digits."""
    cases = _large_halvable_doubles()[:4]
    for E, P in cases:
        assert halve(E, P).halvable and halve_rT(E, P).halvable
    real = halving._halves

    def slipped(red, x0, y0, triples):
        return [(q, red(slope + 1)) for q, slope in real(red, x0, y0, triples)]

    monkeypatch.setattr(halving, "_halves", slipped)
    refused = set()
    for E, P in cases:
        for criterion in (halve, halve_rT):
            with pytest.raises(VerificationError, match="is not a tangent point"):
                criterion(E, P)
            refused.add((E.field.characteristic == 0, "rT" if criterion is halve_rT
                         else "split" if E.g.roots() else "quadext"))
        with pytest.raises(VerificationError, match="tangent slope"):
            half_to_roots(E, P)
    assert refused == {(q, c) for q in (False, True) for c in ("split", "quadext", "rT")}


def test_a_slope_slip_in_halve_char2_never_returns_a_half(monkeypatch):
    """``halve_char2`` handing each half the slope l + 1 of the other one, its
    points right, is refused over GF(2^20)."""
    ((E, P),) = _large_halvable_doubles()[4:]
    assert halve_char2(E, P).halvable
    real = halving._answer

    def slipped(curve, criterion, pt, candidates, witness):
        return real(curve, criterion, pt, [(q, l ^ 1) for q, l in candidates], witness)

    monkeypatch.setattr(halving, "_answer", slipped)
    with pytest.raises(VerificationError, match="is not a tangent point"):
        halve_char2(E, P)


# ---------------------------------------------------------------------------
# the collector: the halves of P are a coset of E(K)[2]
# ---------------------------------------------------------------------------

def _raw_halves(E, P):
    """(raw P, [((x, y), slope) of each half]) by the library's own criterion."""
    res = halve(E, P)
    assert res.halvable
    return (P.x.value, P.y.value), [((Q.x.value, Q.y.value), s.value) for Q, s in res.halves]


def test_collector_refuses_one_half_with_two_slopes():
    for E, P in _halvable_doubles(11):
        pt, halves = _raw_halves(E, P)
        q, s = halves[0]
        with pytest.raises(VerificationError, match="different tangent slopes"):
            halving._answer(E, "rT", pt, [(q, s), (q, (s + 1) % 11)] + halves[1:], {})


def test_collector_refuses_a_partial_coset():
    split = irreducible = 0
    for E, P in _halvable_doubles(11):
        pt, halves = _raw_halves(E, P)
        if E.g.roots() is not None:  # three of the four halves
            assert len(halves) == 4
            candidates = halves[:3]
            split += 1
        else:  # one half twice, with its own slope
            assert len(halves) == 2
            candidates = [halves[0], halves[0]]
            irreducible += 1
        with pytest.raises(VerificationError, match="coset"):
            halving._answer(E, "rT", pt, candidates, {})
        assert halving._answer(E, "rT", pt, halves, {}).halves == halve(E, P).halves
    assert split and irreducible


# ---------------------------------------------------------------------------
# the builder: every char != 2 half comes from one root-triple map
# ---------------------------------------------------------------------------

def test_a_builder_slip_never_returns_a_half(monkeypatch):
    """A slip in ``_halves`` reaches split, quadext, rT and half_to_roots, over F_p and over Q."""
    cases = _halvable_doubles(13) + [(E, P) for E, P, _ in _q_cases() if halve(E, P).halvable]
    real = halving._halves

    def slipped(red, x0, y0, triples):
        return [((red(x + 1), y), slope) for (x, y), slope in real(red, x0, y0, triples)]

    monkeypatch.setattr(halving, "_halves", slipped)
    refused = set()
    for E, P in cases:
        criteria = [halve_split if E.g.roots() is not None else halve_quadext]
        if P != E.w3:
            criteria.append(halve_rT)
        for criterion in criteria:
            with pytest.raises(VerificationError):
                criterion(E, P)
            refused.add((E.field.characteristic == 0, criterion.__name__))
        if P.y:  # P as a half of 2P
            with pytest.raises(VerificationError):
                half_to_roots(E, P)
            refused.add((E.field.characteristic == 0, "half_to_roots"))
    assert refused == {(over_q, name) for over_q in (False, True)
                       for name in ("halve_split", "halve_quadext", "halve_rT", "half_to_roots")}


def test_criterion_origin_refuses_a_missing_half(monkeypatch):
    real = halve_rT
    F, Q_ = PrimeField(11), Rationals()
    for y0, r, T in ((F(2), F(1), F(3)), (Q_(Fraction(5, 3)), Q_(1), Q_(Fraction(5, 3)))):
        assert len(halvability_criterion_origin(y0, r, T)[1]) == 2
        for sg in (1, -1):
            miss = -(r + sg * T)

            def dropped(E, P):
                res = real(E, P)
                return HalvingResult("rT", tuple(h for h in res.halves if h[1] != miss), {})

            monkeypatch.setattr(halving, "halve_rT", dropped)
            with pytest.raises(VerificationError):
                halvability_criterion_origin(y0, r, T)
            monkeypatch.undo()


def test_rT_branches_are_root_triples():
    """Each (r, T) branch gives the triples (r, +-T, -y0/r): ``half_to_roots``
    of the half of slope -(r +- T) finds r1 = r, s = r2 + r3 = +-T, n = r2*r3 = -y0/r."""
    shapes = set()
    for p in (5, 7, 11, 13, 17, 19, 23):
        F = PrimeField(p)
        for E in small_cubic_curves([p]):
            for P in {E.double(Q) for Q in E.full_group()} - {Point.infinity(), E.w3}:
                res = halve_rT(E, P)
                slopes = {slope: Q for Q, slope in res.halves}
                for branch in res.witness.get("branches", ()):
                    r, T = F.parse_element(branch["r"]), F.parse_element(branch["T"])
                    for t in (T, -T):
                        triple = half_to_roots(E, slopes[-(r + t)])
                        assert triple.r1 == r and triple.s == t and triple.n == -P.y / r
                        shapes.add(E.g.roots() is None)
    assert shapes == {True, False}
