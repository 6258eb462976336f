"""Monic quadratics x^2 + px + q, and square roots in K[x]/(x^2 + px + q) on
coordinate pairs, each root squared by ``oracles.quadext_mul``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ectorsion import (
    BinaryField,
    InvalidParams,
    PrimeField,
    QuadraticPoly,
    Rationals,
    ext_sqrt,
)

import oracles


def _raw(pair):
    """The raw values of a coordinate pair of field elements."""
    return tuple(c.value for c in pair)


def _squares_to(g, r, z):
    """r (elements) squares to z (raw values) in K_g, by the oracle's product."""
    p = g.field.characteristic or None
    return oracles.quadext_mul(p, g.p.value, g.q.value, _raw(r), _raw(r)) == tuple(z)


# ---------------------------------------------------------------------------
# the modulus polynomial
# ---------------------------------------------------------------------------

def test_quadratic_poly_rejects_square_and_char2():
    F = PrimeField(7)
    with pytest.raises(InvalidParams):
        QuadraticPoly(F, F(2), F(1))  # (x+1)^2
    with pytest.raises(InvalidParams):
        QuadraticPoly(BinaryField(3), 1, 1)


def test_quadratic_poly_roots_and_irreducibility():
    Q = Rationals()
    g = QuadraticPoly(Q, -3, 2)  # (x-1)(x-2)
    assert not g.irreducible()
    assert g.roots() == (Q(2), Q(1))
    assert g(Q(2)) == 0 and g(Q(1)) == 0

    h = QuadraticPoly(Q, 0, 1)  # x^2 + 1
    assert h.irreducible()
    assert h.roots() is None

    F = PrimeField(13)
    for p in range(13):
        for q in range(13):
            d = (p * p - 4 * q) % 13
            if d == 0:
                continue
            g = QuadraticPoly(F, p, q)
            has_root = any(g(F(x)) == 0 for x in range(13))
            assert g.irreducible() == (not has_root)
            assert g.disc() == F(d)


# ---------------------------------------------------------------------------
# square roots in the extension
# ---------------------------------------------------------------------------

def test_ext_sqrt_known_values():
    F = PrimeField(7)
    g = QuadraticPoly(F, 0, 1)
    r = ext_sqrt(g, 0, 2)  # (1+X)^2 = 2X
    assert r is not None and _squares_to(g, r, (0, 2))
    assert _raw(r) in ((1, 1), (6, 6))
    assert all(c.field is F for c in r)

    # a base-field non-square becomes a square upstairs, via the
    # zero-trace corner: sqrt(3) = 2X since (2X)^2 = -4 = 3 mod 7
    s = ext_sqrt(g, F(3), F(0))
    assert s is not None and _squares_to(g, s, (3, 0))

    assert _raw(ext_sqrt(g, 0, 0)) == (0, 0)

    # norm(3 + X) = 9 + 1 = 3, a non-square in F_7, so no root exists
    assert ext_sqrt(g, 3, 1) is None


def test_ext_sqrt_requires_irreducible_modulus():
    """A reducible g is refused with InvalidParams, and so is a coordinate that
    is no element of g's field: one of another field, or a bool."""
    F = PrimeField(7)
    g = QuadraticPoly(F, 0, -1)
    with pytest.raises(InvalidParams):
        ext_sqrt(g, F(1), F(1))
    with pytest.raises(InvalidParams):
        ext_sqrt(QuadraticPoly(Rationals(), -3, 2), 1, 1)  # (x-1)(x-2)
    g = QuadraticPoly(F, 0, 1)
    for z0, z1 in ((PrimeField(5)(1), 0), (1, PrimeField(5)(1)), (Rationals()(1), 1),
                   (True, 0), (1, False)):
        with pytest.raises(InvalidParams):
            ext_sqrt(g, z0, z1)
    with pytest.raises(InvalidParams):
        ext_sqrt(QuadraticPoly(Rationals(), 0, 1), F(1), 0)
    assert _raw(ext_sqrt(g, F(0), 2)) == _raw(ext_sqrt(g, "0", "2"))


def test_mixed_extension_arithmetic_rejected():
    """A root of one extension is refused by another extension, and its
    coordinates do not mix with a scalar of another base field."""
    F = PrimeField(7)
    g1 = QuadraticPoly(F, 0, 1)
    g2 = QuadraticPoly(PrimeField(5), 0, 2)
    assert g2.irreducible()
    r = ext_sqrt(g1, 0, 2)
    assert r is not None
    with pytest.raises(InvalidParams):
        ext_sqrt(g2, *r)
    with pytest.raises(InvalidParams):
        r[0] * PrimeField(5)(2)
    with pytest.raises(InvalidParams):
        r[1] + PrimeField(5)(1)


def test_equality_with_a_scalar_of_another_field_is_false():
    """A coordinate of a root never equals a scalar of another field."""
    F = PrimeField(7)
    one = ext_sqrt(QuadraticPoly(F, 0, 1), 1, 0)[0]
    assert one == F(1) or one == F(-1)
    one = one * one  # 1 in F_7 whichever root was returned
    foreign = PrimeField(5)(1)
    assert not one == foreign and one != foreign
    assert not foreign == one
    assert one not in [foreign] and foreign not in [one]
    assert one == F(1) and one == 1  # a scalar of its own field still compares by value
    with pytest.raises(InvalidParams):
        one + foreign


@pytest.mark.parametrize("p,pp,qq", [(3, 0, 1), (5, 0, 2), (7, 0, 1), (7, 2, 3), (11, 1, 1), (13, 0, 2)])
def test_ext_sqrt_exhaustive(p, pp, qq):
    """Over fields with at most 169 extension elements, check every element."""
    g = QuadraticPoly(PrimeField(p), pp, qq)
    assert g.irreducible()
    everything = [(c0, c1) for c0 in range(p) for c1 in range(p)]
    squares = {oracles.quadext_mul(p, pp, qq, z, z) for z in everything}
    assert len(squares) == (p * p + 1) // 2
    for z in everything:
        r = ext_sqrt(g, *z)
        if z in squares:
            assert r is not None and _squares_to(g, r, z)
        else:
            assert r is None


def test_ext_sqrt_over_the_rationals():
    Q = Rationals()
    g = QuadraticPoly(Q, 0, 1)  # Q(i)
    z = oracles.quadext_mul(None, 0, 1, (3, 2), (3, 2))  # (3 + 2i)^2 = 5 + 12i
    r = ext_sqrt(g, *z)
    assert r is not None and _squares_to(g, r, z)
    assert all(c.field is Q for c in r)
    assert ext_sqrt(g, 7, 1) is None  # norm 50 is not a rational square
    # 2i = (1+i)^2
    r = ext_sqrt(g, 0, 2)
    assert r is not None and _squares_to(g, r, (0, 2))
    # (3/2 + i)^2 = 5/4 + 3i, with a Fraction coordinate
    r = ext_sqrt(g, Fraction(5, 4), 3)
    assert r is not None and _squares_to(g, r, (Fraction(5, 4), 3))


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([5, 7, 11, 13, 17]),
    c0=st.integers(0, 10**4),
    c1=st.integers(0, 10**4),
)
def test_ext_sqrt_roundtrip_on_random_squares(p, c0, c1):
    F = PrimeField(p)
    qq = next(v for v in range(2, p) if not F(v).is_square())
    g = QuadraticPoly(F, 0, -qq)  # x^2 - (non-square), irreducible
    w = oracles.quadext_mul(p, 0, -qq, (c0 % p, c1 % p), (c0 % p, c1 % p))
    r = ext_sqrt(g, *w)
    assert r is not None and _squares_to(g, r, w)


def test_roots_are_found_once_per_modulus():
    F = PrimeField(13)
    for g in (QuadraticPoly(F, 0, -1), QuadraticPoly(F, 0, 2), QuadraticPoly(Rationals(), -3, 2)):
        first = g.roots()
        assert g.roots() is first
        assert g.irreducible() == (first is None)


@pytest.mark.parametrize("p", [5, 7])
def test_irreducible_agrees_with_the_discriminant_oracle(p):
    F = PrimeField(p)
    squares = oracles.fp_squares(p)
    for pp in range(p):
        for qq in range(p):
            d = (pp * pp - 4 * qq) % p
            if d == 0:
                continue
            g = QuadraticPoly(F, pp, qq)
            assert g.irreducible() == (d not in squares)
            assert g.irreducible() == (g.roots() is None)
