"""Torsion families: validity predicates, witnesses, isomorphism tests."""

import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from ectorsion import (
    BinaryField,
    CubicCurve,
    InvalidParams,
    OffCurve,
    Point,
    PrimeField,
    Rationals,
    e4_new,
    e4_normalize,
    e4char2_new,
    e6_exactly_one_2torsion,
    e6_new,
    e8_new,
    e8char2_new,
    e10_new,
    e12_new,
    iso_e4,
    iso_e8,
    iso_e8char2,
    j_fourth_power_criterion,
    kubert_to_e4,
    kubert_to_e6,
    kubert_to_e8,
    VerificationError,
)
from ectorsion import families, kernel
from ectorsion.families import _witnesses

import oracles

Q = Rationals()


def oracle_order(inst, w):
    """Order of a witness point under the plain-int oracle group law."""
    E = inst.curve
    A, B, C = (c.value for c in E.coefficients())
    p = E.field.order
    pt = (w.point.x.value, w.point.y.value)
    if p is not None:
        return oracles.fp_cubic_order(p, A, B, C, pt)
    return oracles.qq_cubic_order(A, B, C, pt)


# ---------------------------------------------------------------------------
# validity predicates, exhaustively on small prime fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_e4_validity_boundary(p):
    F = PrimeField(p)
    sq = oracles.fp_squares(p)
    for a in range(p):
        for b in range(p):
            ok = a != 0 and b != 0 and (a * a + 4 * b) % p not in sq
            if ok:
                inst = e4_new(F, a, b)
                assert all(w.verified for w in inst.witnesses)
                assert {w.claimed_order for w in inst.witnesses} == {2, 4}
                for w in inst.witnesses:
                    assert oracle_order(inst, w) == w.claimed_order
            else:
                with pytest.raises(InvalidParams):
                    e4_new(F, a, b)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_e6_validity_boundary(p):
    F = PrimeField(p)
    for t in range(p):
        ok = t != 0 and (t + 4) % p != 0 and (2 * t - 1) % p != 0
        if ok:
            inst = e6_new(F, t)
            assert {w.claimed_order for w in inst.witnesses} >= {2, 3, 6}
            for w in inst.witnesses:
                assert oracle_order(inst, w) == w.claimed_order
        else:
            with pytest.raises(InvalidParams):
                e6_new(F, t)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_e8_validity_boundary(p):
    F = PrimeField(p)
    sq = oracles.fp_squares(p)
    any_valid = False
    for t in range(p):
        ok = t not in (0, 1, p - 1) and (2 * t * t - 1) % p not in sq
        if ok:
            any_valid = True
            inst = e8_new(F, t)
            assert {w.claimed_order for w in inst.witnesses} == {2, 4, 8}
            assert len([w for w in inst.witnesses if w.claimed_order == 8]) == 4
            for w in inst.witnesses:
                assert oracle_order(inst, w) == w.claimed_order
        else:
            with pytest.raises(InvalidParams):
                e8_new(F, t)
    assert any_valid  # every field here admits at least one instance


@pytest.mark.parametrize("p", [7, 11, 13, 19])
def test_e10_validity_boundary(p):
    F = PrimeField(p)
    sq = oracles.fp_squares(p)
    for u in range(p):
        ok = (
            u not in (0, 1, p - 1)
            and (u * u + u - 1) % p != 0
            and (u * u - 4 * u - 1) % p != 0
            and (u * (u * u + u - 1)) % p not in sq
        )
        if ok:
            inst = e10_new(F, u)
            assert {w.claimed_order for w in inst.witnesses} == {2, 5, 10}
            for w in inst.witnesses:
                assert oracle_order(inst, w) == w.claimed_order
        else:
            with pytest.raises(InvalidParams):
                e10_new(F, u)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_e12_validity_boundary(p):
    F = PrimeField(p)
    sq = oracles.fp_squares(p)
    for T in range(p):
        T2 = T * T % p
        ok = (
            T not in (0, 1, p - 1)
            and (T2 + 1) % p != 0
            and (3 * T2 + 1) % p != 0
            and (3 * T2 - 1) % p != 0
            and ((T2 + 1) * (3 * T2 - 1)) % p not in sq
        )
        if ok:
            inst = e12_new(F, T)
            assert {w.claimed_order for w in inst.witnesses} >= {2, 3, 4, 12}
            for w in inst.witnesses:
                assert oracle_order(inst, w) == w.claimed_order
        else:
            with pytest.raises(InvalidParams):
                e12_new(F, T)


def test_char2_families_validity():
    for k in (2, 3, 4):
        F = BinaryField(k)
        for v in range(2**k):
            g = F(v)
            if v == 0:
                with pytest.raises(InvalidParams):
                    e4char2_new(F, g)
            else:
                inst = e4char2_new(F, g)
                assert inst.curve.a6 == g ** 4
                assert {w.claimed_order for w in inst.witnesses} == {2, 4}
            if v in (0, 1):
                with pytest.raises(InvalidParams):
                    e8char2_new(F, F(v))
            else:
                inst = e8char2_new(F, F(v))
                w8 = inst.witness_of_order(8)
                assert w8.verified
                mod = F.modulus
                pt = (w8.point.x.value, w8.point.y.value)
                assert oracles.char2_order(
                    k, mod, inst.curve.a2.value, inst.curve.a6.value, pt) == 8


# ---------------------------------------------------------------------------
# pinned instances
# ---------------------------------------------------------------------------

def test_e4_known_instances():
    F = PrimeField(5)
    inst = e4_new(F, 1, 4)
    assert inst.witness_of_order(4).point in (Point(F(1), F(4)), Point(F(1), F(1)))
    with pytest.raises(KeyError, match="no witness of order 8"):
        inst.witness_of_order(8)
    assert inst.curve.to_json_dict()["p"] == "4"  # a^2+2b = 9 = 4
    with pytest.raises(InvalidParams):
        e4_new(F, 1, 2)  # 1 + 8 = 9 is a square mod 5

    inst_q = e4_new(Q, 1, 1)
    assert inst_q.witness_of_order(4).point in (Point(Q(-1), Q(1)), Point(Q(-1), Q(-1)))
    with pytest.raises(InvalidParams):
        e4_new(Q, 1, 2)  # 1 + 8 = 9 is a square
    with pytest.raises(InvalidParams):
        e4_new(Q, 0, 1)
    with pytest.raises(InvalidParams):
        e4_new(Q, 1, 0)


def test_e6_known_instances():
    F3 = PrimeField(3)
    inst = e6_new(F3, 1)
    assert inst.curve.contains(Point(F3(1), F3(2)))
    assert inst.witness_of_order(6).point == Point(F3(1), F3(2))

    F5 = PrimeField(5)
    inst5 = e6_new(F5, 2)
    assert inst5.witness_of_order(3).point in (Point(F5(0), F5(2)), Point(F5(0), F5(3)))
    assert inst5.witness_of_order(6).point in (Point(F5(1), F5(4)), Point(F5(1), F5(1)))

    with pytest.raises(InvalidParams):
        e6_new(Q, Fraction(1, 2))
    with pytest.raises(InvalidParams):
        e6_new(Q, -4)


def test_e6_two_torsion_predicate():
    for p in (5, 7, 11, 13):
        F = PrimeField(p)
        for t in range(1, p):
            try:
                inst = e6_new(F, t)
            except InvalidParams:
                continue
            only_one = e6_exactly_one_2torsion(F, t)
            assert only_one == (len(inst.curve.two_torsion()) == 1)


def test_e8_known_instances():
    F = PrimeField(7)
    inst = e8_new(F, 3)
    pts8 = {w.point for w in inst.witnesses if w.claimed_order == 8}
    assert Point(F(5), F(2)) in pts8
    with pytest.raises(InvalidParams):
        e8_new(F, 1)
    with pytest.raises(InvalidParams):
        e8_new(F, 2)  # 2*4-1 = 7 = 0, a square

    # the y-coordinate of the order-4 point is 2t^2/(1-t^2), not 2t/(1-t^2)
    for field, tv in [(Q, Fraction(2)), (Q, Fraction(3)), (PrimeField(11), 2)]:
        inst = e8_new(field, tv)
        t = field.element(tv)
        good = 2 * t * t / (1 - t * t)
        bad = 2 * t / (1 - t * t)
        assert inst.curve.contains(Point(field.one, good))
        assert not inst.curve.contains(Point(field.one, bad))


def test_e10_known_instances():
    F = PrimeField(11)
    inst = e10_new(F, 2)
    assert inst.witness_of_order(5).point == Point(F(0), F(3))
    assert inst.witness_of_order(10).verified
    with pytest.raises(InvalidParams):
        e10_new(F, 1)

    inst_q = e10_new(Q, 2)
    assert all(w.verified for w in inst_q.witnesses)
    assert inst_q.witness_of_order(10).note


def test_e12_known_instances():
    F = PrimeField(11)
    inst = e12_new(F, 3)
    assert inst.witness_of_order(3).point in (Point(F(0), F(7)), Point(F(0), F(4)))
    with pytest.raises(InvalidParams):
        e12_new(F, 2)  # 3*4 - 1 = 11 = 0

    # the order-4 point sits over x = -4T^2/(T^2-1), not -(3T^2+1)/(T^2-1)
    for Tv in (Fraction(2), Fraction(3)):
        inst = e12_new(Q, Tv)
        T = Q(Tv)
        x_good = -4 * T * T / (T * T - 1)
        x_bad = -(3 * T * T + 1) / (T * T - 1)
        y4 = 8 * T ** 3 * (3 * T * T + 1) / (T * T - 1) ** 3
        assert inst.curve.contains(Point(x_good, y4))
        assert not inst.curve.contains(Point(x_bad, y4))
        assert inst.witness_of_order(4).point.x == x_good
        assert inst.witness_of_order(12).verified


def test_e12_rational_witness_orders():
    inst = e12_new(Q, 2)
    for w in inst.witnesses:
        assert oracle_order(inst, w) == w.claimed_order


def _q_values(inst):
    """Every raw value of an instance: params, alpha, g's coefficients and roots, witness coordinates."""
    c = inst.curve
    values = [v.value for v in inst.params.values()] + [c.alpha.value, c.g.p.value, c.g.q.value]
    values += [r.value for r in c.g.roots() or ()]
    for w in inst.witnesses:
        values += [w.point.x.value, w.point.y.value]
    return values


_Q_GRID = sorted({n for n in range(-4, 5)} | {Fraction(n, d) for n in range(-4, 5) for d in (2, 3)})


@pytest.mark.parametrize("ctor", [e4_new, e6_new, e8_new, e10_new, e12_new])
def test_every_value_of_an_instance_over_q_is_a_fraction(ctor):
    """Ints and Fractions alike go in; only Fractions come out, the sum
    witnesses of e10 and e12 (made by the kernel's addition) included, and
    g's roots when it splits, which only e6 allows (at t = 4/3 here)."""
    if ctor is e4_new:
        grid = [(a, b) for a in _Q_GRID for b in _Q_GRID]
    else:
        grid = [(v,) for v in _Q_GRID]
    made = split = 0
    for params in grid:
        try:
            inst = ctor(Q, *params)
        except InvalidParams:
            continue
        values = _q_values(inst)
        assert all(type(v) is Fraction for v in values), (params, values)
        made += 1
        split += inst.curve.g.roots() is not None
    assert made > 10
    assert (split > 0) is (ctor is e6_new)
    if ctor in (e10_new, e12_new):
        assert inst.witnesses[-1].note.startswith("sum of")


def _try(ctor, *args):
    try:
        return ctor(*args)
    except InvalidParams:
        return None


def test_each_child_family_is_built_from_its_parent():
    """E8 = E4 at (2t^2/(t^2 - 1), -1), E12 lies on E6's curve at
    -4T^2(T^2 + 1)/(T^2 - 1)^2, and E8char2 = E4char2 at t^2/(t + 1)^4.

    At every parameter a child accepts, the parent accepts its image and has
    the child's curve; for E8 and E8char2 its witnesses begin the child's.
    Covered: every element of F_p for 5 <= p <= 97, 60 rationals n/d with
    |n| <= 7 and d in {1, 2, 3, 5}, and every element of GF(2^k), k <= 6.
    """
    cases = [(PrimeField(p), list(PrimeField(p).elements())) for p in oracles.small_primes(5, 97)]
    cases.append((Q, [Q(Fraction(n, d)) for d in (1, 2, 3, 5) for n in range(-7, 8)]))
    built = Counter()
    for F, params in cases:
        for t in params:
            t2 = t * t
            if child := _try(e8_new, F, t):
                parent = e4_new(F, 2 * t2 / (t2 - 1), -1)
                assert child.curve == parent.curve, (F, t)
                assert child.witnesses[:len(parent.witnesses)] == parent.witnesses, (F, t)
                built["e8"] += 1
            if child := _try(e12_new, F, t):
                assert child.curve == e6_new(F, -4 * t2 * (t2 + 1) / (t2 - 1) ** 2).curve, (F, t)
                built["e12"] += 1
    for k in range(1, 7):
        F = BinaryField(k)
        for t in F.elements():
            if child := _try(e8char2_new, F, t):
                parent = e4char2_new(F, t * t / (t + 1) ** 4)
                assert child.curve == parent.curve, (F, t)
                assert child.witnesses[:len(parent.witnesses)] == parent.witnesses, (F, t)
                built["e8char2"] += 1
    assert built == {"e8": 550, "e12": 544, "e8char2": 114}


def test_family_instance_json_shape():
    inst = e8_new(PrimeField(7), 3)
    js = inst.to_json_dict()
    assert js["family"] == "e8"
    assert js["params"] == {"t": "3"}
    assert js["curve"]["model"] == "cubic"
    for w in js["witnesses"]:
        assert set(w) >= {"point", "order", "verified"}
        assert w["verified"] is True


# ---------------------------------------------------------------------------
# witness checks from one order search
# ---------------------------------------------------------------------------

# Kernel additions per instance: ceil(N/2) - 1 for the order-N witness G,
# whose multiples and their negations settle every other witness, plus the
# one curve.add that e10 and e12 make for their sum point.
_ADDS = {"e4": 1, "e6": 2, "e8": 3, "e10": 5, "e12": 6, "e4char2": 1, "e8char2": 3}
_CTORS = {"e4": e4_new, "e6": e6_new, "e8": e8_new, "e10": e10_new, "e12": e12_new,
          "e4char2": e4char2_new, "e8char2": e8char2_new}


def _instances_to_count():
    """(family, field, params) for every valid instance at F_13 and F_97, a
    few over Q, and every e4char2 and e8char2 parameter at GF(2^3)..GF(2^6)."""
    for p in (13, 97):
        F = PrimeField(p)
        for fam in ("e4", "e6", "e8", "e10", "e12"):
            for v in range(1, p):
                params = (1, v) if fam == "e4" else (v,)
                try:
                    _CTORS[fam](F, *params)
                except InvalidParams:
                    continue
                yield fam, F, params
    for fam, params in (("e4", (1, 1)), ("e6", (Fraction(2),)), ("e8", (Fraction(2),)),
                        ("e10", (Fraction(2),)), ("e12", (Fraction(2),))):
        yield fam, Q, params
    for k in range(3, 7):
        F = BinaryField(k)
        for v in range(2, 1 << k):
            yield "e4char2", F, (v,)
            yield "e8char2", F, (v,)


def _oracle_smul(k, m, a2, a6, n, P):
    """n * P by double-and-add on the oracle's own char-2 group law."""
    acc = oracles.INF
    while n:
        if n & 1:
            acc = oracles.char2_add(k, m, a2, a6, acc, P)
        P = oracles.char2_add(k, m, a2, a6, P, P)
        n >>= 1
    return acc


@pytest.mark.parametrize("k", [8, 13, 20])
def test_e8char2_witnesses_and_their_scalar_multiples_match_the_oracle(monkeypatch, k):
    """Every witness order is the oracle's own, and a 64-bit multiple of the
    order-8 witness is the oracle's double-and-add, from at most 6 kernel
    additions: 3 doublings reach O, and only n's 3 lowest bits add a term."""
    calls = []

    def counting(*args, fn=kernel.c2_add):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(kernel, "c2_add", counting)  # before any curve is built
    F = BinaryField(k)
    rng = random.Random(k)
    for t in rng.sample(range(2, 1 << k), 4):
        inst = e8char2_new(F, F(t))
        a2, a6 = inst.curve.a2.value, inst.curve.a6.value
        for w in inst.witnesses:
            assert oracles.char2_order(k, F.modulus, a2, a6, _raw(w.point)) == w.claimed_order
        P = inst.witness_of_order(8).point
        for n in (rng.getrandbits(64), rng.getrandbits(64) | 7, -rng.getrandbits(64)):
            del calls[:]
            got = inst.curve.scalar_mul(n, P)
            want = _oracle_smul(k, F.modulus, a2, a6, n % 8, _raw(P))
            assert (None if got.is_infinity else _raw(got)) == want
            assert len(calls) <= 6


def test_witness_checks_add_only_in_the_one_order_search(monkeypatch):
    calls = Counter()
    for name in ("cubic_add", "qq_add", "c2_add"):
        def counting(*args, fn=getattr(kernel, name)):
            calls["add"] += 1
            return fn(*args)

        monkeypatch.setattr(kernel, name, counting)  # before any curve is built
    seen = set()
    for fam, F, params in _instances_to_count():
        calls.clear()
        inst = _CTORS[fam](F, *params)
        assert calls["add"] == _ADDS[fam], (fam, F, params)
        assert all(w.verified is True for w in inst.witnesses)
        seen.add(fam)
    assert seen == set(_ADDS)


def _raw(P):
    return (P.x.value, P.y.value)


def _e8_at_97():
    """E8(2) over F_97, its witness points, and their raw specs as e8_new hands them to _witnesses."""
    F = PrimeField(97)
    inst = e8_new(F, 2)
    pts = [w.point for w in inst.witnesses]
    return inst, pts, [(_raw(w.point), w.claimed_order) for w in inst.witnesses]


def test_a_witness_of_largest_order_that_has_another_order_is_refused():
    inst, pts, specs = _e8_at_97()
    E = inst.curve
    w2, w4 = specs[0][0], specs[1][0]
    with pytest.raises(VerificationError, match=re.escape(f"witness {pts[1]!r} claims order 8 but has order 4")):
        _witnesses(E, [(w2, 2), (w4, 8)])
    w8 = specs[3][0]  # its order exceeds the claim: its first 2 multiples show none up to 4
    with pytest.raises(VerificationError, match=re.escape(f"witness {pts[3]!r} claims order 4 but has order 8")):
        _witnesses(E, [(w2, 2), (w8, 4)])


@pytest.mark.parametrize("ctor,param,N", [(e12_new, 2, 12), (e10_new, 2, 5)])
def test_a_witness_given_as_a_negated_multiple_has_its_order_from_them(monkeypatch, ctor, param, N):
    """For G of order N and every j, a witness -jG = (N - j)G, which the
    multiples up to ceil(N/2)G reach only through their negations when
    j < N/2, is credited with order N / gcd(j, N), with no order search of
    its own, and a wrong claim for it is refused.  N = 5 (e10's order-5 point)
    covers an odd order, whose ceil(N/2)G is itself the negation of the
    multiple before."""
    F = PrimeField(97)
    inst = ctor(F, param)
    E = inst.curve
    A, B, C = (v.value for v in E.coefficients())
    G = _raw(inst.witness_of_order(N).point)
    calls = []
    monkeypatch.setattr(CubicCurve, "order_of", lambda self, P: calls.append(P))
    jG = G
    for j in range(1, N):
        neg = oracles.fp_cubic_neg(97, jG)
        order = N // math.gcd(j, N)
        got = _witnesses(E, [(G, N), (neg, order)])
        assert [(_raw(w.point), w.claimed_order) for w in got] == [(G, N), (neg, order)]
        with pytest.raises(VerificationError, match=f"claims order 1 but has order {order}"):
            _witnesses(E, [(G, N), (neg, 1)])
        jG = oracles.fp_cubic_add(97, A, B, C, jG, G)
    assert jG is oracles.INF and calls == []


def test_a_multiple_with_a_wrong_claim_is_refused():
    inst, pts, specs = _e8_at_97()
    assert _witnesses(inst.curve, specs) == inst.witnesses
    for i, ((P, order), pt) in enumerate(zip(specs[:-1], pts)):
        for wrong in {2, 4, 8} - {order}:
            bad = specs[:i] + [(P, wrong)] + specs[i + 1:]
            with pytest.raises(VerificationError,
                               match=re.escape(f"witness {pt!r} claims order {wrong} but has order {order}")):
                _witnesses(inst.curve, bad)


def test_a_witness_off_the_curve_is_refused():
    inst, pts, specs = _e8_at_97()
    F = inst.curve.field
    off = (1, 1)
    assert not inst.curve.contains(Point(F(1), F(1)))
    refused = re.escape(f"witness {Point(F(1), F(1))!r} is not on the curve")
    with pytest.raises(VerificationError, match=refused):
        _witnesses(inst.curve, specs + [(off, 4)])
    with pytest.raises(VerificationError, match=refused):
        _witnesses(inst.curve, [(off, 8)] + specs[:3])
    # _witnesses builds every point over the curve's own field; a point over
    # another field is refused by the order check it would reach.
    with pytest.raises(OffCurve):
        inst.curve.order_of(Point(PrimeField(7)(0), PrimeField(7)(0)))
    # Off the curve, y = 0 still "doubles" to infinity: only the check on G refuses it.
    flat = (1, 0)
    assert not inst.curve.contains(Point(F(1), F(0)))
    with pytest.raises(VerificationError, match=re.escape(f"witness {Point(F(1), F(0))!r} is not")):
        _witnesses(inst.curve, [(flat, 2)])


def test_a_witness_outside_the_largest_ones_multiples_is_checked_on_its_own(monkeypatch):
    """On a curve with full rational 2-torsion, two of the three points of
    order 2 are not (N/2)G; each reaches curve.order_of, once."""
    F = PrimeField(13)
    t = next(t for t in range(1, 13) if not _invalid(e6_new, F, t)
             and not e6_exactly_one_2torsion(F, t))
    inst = e6_new(F, t)
    E, G = inst.curve, inst.witness_of_order(6).point
    half = E.scalar_mul(3, G)
    outside = [T for T in E.two_torsion() if T != half]
    assert len(outside) == 2
    calls = Counter()

    def counting(self, P, fn=CubicCurve.order_of):
        calls[P] += 1
        return fn(self, P)

    monkeypatch.setattr(CubicCurve, "order_of", counting)
    for T in outside:
        calls.clear()
        got = _witnesses(E, [(_raw(G), 6), (_raw(half), 2), (_raw(T), 2, "outside <G>")])
        assert [(w.point, w.claimed_order, w.verified, w.note) for w in got] == [
            (G, 6, True, ""), (half, 2, True, ""), (T, 2, True, "outside <G>")]
        assert calls == {T: 1}
        for wrong in (3, 6):
            with pytest.raises(VerificationError,
                               match=re.escape(f"witness {T!r} claims order {wrong} but has order 2")):
                _witnesses(E, [(_raw(G), 6), (_raw(T), wrong)])


def _invalid(ctor, F, *params):
    try:
        ctor(F, *params)
    except InvalidParams:
        return True
    return False


# ---------------------------------------------------------------------------
# normalization and isomorphism
# ---------------------------------------------------------------------------

def test_e4_normalize_preserves_witness_orders():
    F = PrimeField(13)
    for (a, b) in [(2, 1), (3, 5), (5, 11)]:
        try:
            inst = e4_new(F, a, b)
        except InvalidParams:
            continue
        (one, b2), fwd = e4_normalize(F, a, b)
        assert one == F(1) and fwd(Point.infinity()).is_infinity
        norm = e4_new(F, 1, b2)
        for w in inst.witnesses:
            img = fwd(w.point)
            assert norm.curve.contains(img)
            assert norm.curve.order_of(img) == w.claimed_order
        u = iso_e4(F, a, b, 1, b2)
        assert u is not None and u == F(1) / F(a)


def test_iso_e4_known_pairs():
    u = iso_e4(Q, 1, 1, 2, 4)
    assert u == Q(2)
    assert iso_e4(Q, 1, 1, 1, 1) == Q(1)
    assert iso_e4(Q, 1, 1, 2, 5) is None
    with pytest.raises(InvalidParams):
        iso_e4(Q, 1, 1, 0, 4)
    with pytest.raises(InvalidParams):
        iso_e4(Q, 0, 1, 2, 4)


@pytest.mark.parametrize("p", [7, 11])
def test_iso_e4_agrees_with_u_scan(p):
    F = PrimeField(p)
    sq = oracles.fp_squares(p)
    valid = [(a, b) for a in range(1, p) for b in range(1, p)
             if (a * a + 4 * b) % p not in sq]
    for a, b in valid:
        for c, d in valid:
            u = iso_e4(F, a, b, c, d)
            scan = oracles.iso_scan_e4(p, a, b, c, d)
            assert (u is not None) == bool(scan)
            if u is not None:
                assert u.value in scan


@pytest.mark.parametrize("p", oracles.small_primes(5, 61))  # p = 1 and 3 mod 4
def test_iso_e8_agrees_with_curve_isomorphism(p):
    F = PrimeField(p)
    sq = oracles.fp_squares(p)
    valid = [t for t in range(2, p - 1) if (2 * t * t - 1) % p not in sq]
    insts = {t: e8_new(F, t) for t in valid}
    for s in valid:
        ps = insts[s].curve.g.p.value
        for t in valid:
            pt_ = insts[t].curve.g.p.value
            scan = oracles.iso_scan_alpha0(p, ps, 1, pt_, 1)
            assert iso_e8(F, s, t) == bool(scan)


@pytest.mark.parametrize("s", [Fraction(2), Fraction(3), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2)])
def test_iso_e8_over_q_agrees_with_the_p_coefficient(s):
    """Over Q, u^4 = 1 leaves u = +-1, so E8(s) ~ E8(t) iff their P coefficients agree."""
    def P(t):
        return 2 * (t**4 + 2 * t * t - 1) / (t * t - 1) ** 2

    Q = Rationals()
    for t, expected in ((-s, True), (1 / s, False), (2 * s, False)):  # all valid: iso_e8 checks
        assert iso_e8(Q, s, t) == expected == (P(s) == P(t)), (s, t)


def test_iso_e8_is_an_equivalence_relation():
    p = 11
    F = PrimeField(p)
    sq = oracles.fp_squares(p)
    valid = [t for t in range(2, p - 1) if (2 * t * t - 1) % p not in sq]
    for s in valid:
        assert iso_e8(F, s, s)
        for t in valid:
            assert iso_e8(F, s, t) == iso_e8(F, t, s)
            for r in valid:
                if iso_e8(F, s, t) and iso_e8(F, t, r):
                    assert iso_e8(F, s, r)


def test_iso_e8char2_matches_curve_equality():
    for k in (3, 4):
        F = BinaryField(k)
        valid = [F(v) for v in range(2, 2**k)]
        for s in valid:
            for t in valid:
                same = e8char2_new(F, s).curve == e8char2_new(F, t).curve
                assert iso_e8char2(F, s, t) == same
                assert same == (s == t or s * t == F.one)


def test_isomorphism_tests_build_no_curve(monkeypatch):
    def refuse(*args):
        raise AssertionError("an isomorphism test built a curve")

    monkeypatch.setattr(families, "CubicCurve", refuse)
    monkeypatch.setattr(families, "Char2Curve", refuse)
    F7, F16 = PrimeField(7), BinaryField(4)
    assert iso_e4(Q, 1, 1, 2, 4) == Q(2)
    assert iso_e8(F7, 3, 4) and not iso_e8(Q, 2, 3)
    assert iso_e8char2(F16, 2, F16(2).inverse()) and not iso_e8char2(F16, 2, 3)


def test_isomorphism_tests_refuse_with_the_constructors_messages():
    """Each invalid parameter raises, from the isomorphism test, the
    constructor's own InvalidParams message, on either side."""
    cases = [
        (iso_e8, e8_new, PrimeField(7), range(7), 3),
        (iso_e8, e8_new, BinaryField(3), range(8), 3),
        (iso_e8, e8_new, Q, (0, 1, -1, Fraction(1, 2), 5), 2),
        (iso_e8char2, e8char2_new, BinaryField(3), range(8), 2),
        (iso_e8char2, e8char2_new, PrimeField(7), range(7), 2),
    ]
    refused = 0
    for iso, ctor, F, values, good in cases:
        for v in values:
            try:
                ctor(F, v)
                continue
            except InvalidParams as e:
                msg = re.escape(str(e))
            refused += 1
            with pytest.raises(InvalidParams, match=f"^{msg}$"):
                iso(F, v, good)
            with pytest.raises(InvalidParams, match=f"^{msg}$"):
                iso(F, good, v)
    for F in (PrimeField(7), BinaryField(3)):
        for a in range(F.order):
            for b in range(F.order):
                try:
                    e4_new(F, a, b)
                    continue
                except InvalidParams as e:
                    msg = re.escape(str(e))
                refused += 1
                with pytest.raises(InvalidParams, match=f"^{msg}$"):
                    iso_e4(F, a, b, 1, 1)
    assert refused > 80


def test_j_fourth_power_criterion():
    for k in (2, 3, 4, 5):
        F = BinaryField(k)
        for v in range(1, 2**k):
            c = F(v)
            gamma = j_fourth_power_criterion(F, c)
            assert gamma ** 4 * c == F.one
            inst = e4char2_new(F, gamma)
            assert inst.curve.j_invariant() == c
    with pytest.raises(InvalidParams):
        j_fourth_power_criterion(PrimeField(7), 3)
    with pytest.raises(InvalidParams):
        j_fourth_power_criterion(BinaryField(3), 0)


# ---------------------------------------------------------------------------
# Kubert-form conversions, validated through j-invariants
# ---------------------------------------------------------------------------

def kubert_j(field, b, c):
    """j of y^2 + (1-c)xy - by = x^3 - bx^2 via the long-form formula."""
    return oracles.j_long_weierstrass(
        field.one - c, -b, -b, field.zero, field.zero)


def test_kubert_to_e4_matches_j():
    for field, tv in [(Q, Fraction(1)), (Q, Fraction(-2, 5)), (PrimeField(13), 2)]:
        a, b = kubert_to_e4(field, tv)
        assert (a, b) == (field.one / 2, field.element(tv))
        inst = e4_new(field, a, b)
        t = field.element(tv)
        assert inst.curve.j_invariant() == kubert_j(field, t, field.zero)


def test_kubert_to_e8_matches_j():
    # marked order-8 Kubert curves use b = (2d-1)(d-1), c = b/d
    for field, dv in [(Q, Fraction(2)), (Q, Fraction(-1, 3)), (PrimeField(7), 2)]:
        # each d here yields a t passing the order-8 validity predicate
        t = kubert_to_e8(field, dv)
        d = field.element(dv)
        assert t == 2 * d - 1
        inst = e8_new(field, t)
        b = (2 * d - 1) * (d - 1)
        c = b / d
        assert inst.curve.j_invariant() == kubert_j(field, b, c)


def test_kubert_to_e6_matches_j():
    for field, cv in [(Q, Fraction(2)), (Q, Fraction(-3)), (PrimeField(13), 4)]:
        t = kubert_to_e6(field, cv)
        c = field.element(cv)
        assert t == (c + 1) / (2 * c)
        inst = e6_new(field, t)
        b = c * (c + 1)
        assert inst.curve.j_invariant() == kubert_j(field, b, c)


def test_kubert_edge_cases():
    with pytest.raises(InvalidParams):
        kubert_to_e4(BinaryField(3), 1)
    with pytest.raises(InvalidParams):
        kubert_to_e6(Q, 0)
    # d = 1 collapses to t = 1, which the order-8 constructor refuses
    t = kubert_to_e8(Q, 1)
    assert t == Q(1)
    with pytest.raises(InvalidParams):
        e8_new(Q, t)
    # over F_5 the marked-order-6 conversion of c = 1 lands on t = 1 = -4,
    # which the order-6 validity predicate excludes
    F5 = PrimeField(5)
    t5 = kubert_to_e6(F5, 1)
    assert t5 == F5(1)
    with pytest.raises(InvalidParams):
        e6_new(F5, t5)
