"""Quadratic extensions K[x]/(x^2 + p x + q): conjugation, norms, square roots."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ectorsion import (
    BinaryField,
    InvalidParams,
    PrimeField,
    QuadExtElement,
    QuadraticPoly,
    Rationals,
    ext_sqrt,
)

import oracles


def _gen(g):
    """The class of x in K[x]/(g)."""
    F = g.field
    return QuadExtElement(g, F(0), F(1))


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


def test_quadratic_poly_evaluates_on_extension_elements():
    F = PrimeField(7)
    g = QuadraticPoly(F, 0, 1)
    X = _gen(g)
    z = g(X + 3)  # (X+3)^2 + 1 should equal 6X + 2 + 7 = 6X + 9
    assert z == QuadExtElement(g, F(2), F(6))


# ---------------------------------------------------------------------------
# arithmetic in K[x]/(g)
# ---------------------------------------------------------------------------

def test_trace_and_norm_known_values():
    F7 = PrimeField(7)
    g = QuadraticPoly(F7, 0, 1)  # x^2 + 1
    X = _gen(g)
    assert X.trace() == F7(0)
    assert X.norm() == F7(1)

    F5 = PrimeField(5)
    h = QuadraticPoly(F5, 1, 1)  # x^2 + x + 1
    z = QuadExtElement(h, F5(2), F5(3))
    assert z.trace() == F5(1)  # 2*2 - 3*1
    assert z.norm() == F5(2)  # 4 - 6 + 9
    assert z + z.conj() == z.trace()
    assert z * z.conj() == z.norm()
    assert (z * z.conj()).in_base_field()


def test_conjugation_is_an_involution_fixing_the_base():
    F = PrimeField(11)
    g = QuadraticPoly(F, 3, 4)
    for c0, c1 in [(0, 1), (5, 7), (10, 10), (2, 0)]:
        z = QuadExtElement(g, F(c0), F(c1))
        assert z.conj().conj() == z
        if c1 == 0:
            assert z.conj() == z


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 11, 13]),
    coeffs=st.tuples(*[st.integers(0, 200) for _ in range(6)]),
)
def test_norm_is_multiplicative_and_trace_additive(p, coeffs):
    F = PrimeField(p)
    # lowest irreducible modulus, deterministically
    g = next(
        QuadraticPoly(F, pp, qq)
        for pp in range(p)
        for qq in range(1, p)
        if (pp * pp - 4 * qq) % p != 0 and QuadraticPoly(F, pp, qq).irreducible()
    )
    z = QuadExtElement(g, F(coeffs[0]), F(coeffs[1]))
    w = QuadExtElement(g, F(coeffs[2]), F(coeffs[3]))
    assert (z * w).norm() == z.norm() * w.norm()
    assert (z + w).trace() == z.trace() + w.trace()
    assert (z + w).conj() == z.conj() + w.conj()
    assert (z * w).conj() == z.conj() * w.conj()
    if w != 0:
        assert (z / w) * w == z
    assert z ** 3 == z * z * z


def test_division_by_zero_raises():
    F = PrimeField(5)
    g = QuadraticPoly(F, 0, 2)
    X = _gen(g)
    with pytest.raises(ZeroDivisionError):
        X / QuadExtElement(g, F(0), F(0))


def test_quad_ext_element_embeds_the_base_field():
    F = PrimeField(7)
    g = QuadraticPoly(F, 0, 1)
    assert QuadExtElement(g, 0, 1) == _gen(g)
    assert QuadExtElement(g, F(3)).in_base_field()
    assert QuadExtElement(g, F(3)) == F(3)
    assert QuadExtElement(g, 2, 5) == QuadExtElement(g, F(2), F(5))


# ---------------------------------------------------------------------------
# square roots in the extension
# ---------------------------------------------------------------------------

def test_ext_sqrt_known_values():
    F = PrimeField(7)
    g = QuadraticPoly(F, 0, 1)
    X = _gen(g)
    r = ext_sqrt(2 * X)  # (1+X)^2 = 2X
    assert r is not None and r * r == 2 * X
    assert r in (1 + X, -(1 + X))

    # a base-field non-square becomes a square upstairs, via the
    # zero-trace corner: sqrt(3) = 2X since (2X)^2 = -4 = 3 mod 7
    s = ext_sqrt(QuadExtElement(g, F(3), F(0)))
    assert s is not None and s * s == QuadExtElement(g, F(3), F(0))

    assert ext_sqrt(QuadExtElement(g, F(0), F(0))) == QuadExtElement(g, F(0), F(0))

    # norm(3 + X) = 9 + 1 = 3, a non-square in F_7, so no root exists
    assert ext_sqrt(QuadExtElement(g, F(3), F(1))) is None


def test_ext_sqrt_requires_irreducible_modulus():
    F = PrimeField(7)
    g = QuadraticPoly(F, 0, -1)
    with pytest.raises(InvalidParams):
        ext_sqrt(QuadExtElement(g, F(1), F(1)))


@pytest.mark.parametrize("p,pp,qq", [(3, 0, 1), (5, 0, 2), (7, 0, 1), (7, 2, 3), (11, 1, 1), (13, 0, 2)])
def test_ext_sqrt_exhaustive(p, pp, qq):
    """Over fields with at most 169 extension elements, check every element."""
    F = PrimeField(p)
    g = QuadraticPoly(F, pp, qq)
    assert g.irreducible()
    everything = [QuadExtElement(g, F(c0), F(c1)) for c0 in range(p) for c1 in range(p)]
    squares = {z * z for z in everything}
    assert len(squares) == (p * p + 1) // 2
    for z in everything:
        r = ext_sqrt(z)
        if z in squares:
            assert r is not None and r * r == z
        else:
            assert r is None


def test_ext_sqrt_over_the_rationals():
    Q = Rationals()
    g = QuadraticPoly(Q, 0, 1)  # Q(i)
    X = _gen(g)
    z = (3 + 2 * X) ** 2
    r = ext_sqrt(z)
    assert r is not None and r * r == z
    assert ext_sqrt(X + 7) is None  # norm 50 is not a rational square
    # 2i = (1+i)^2
    r = ext_sqrt(2 * X)
    assert r is not None and r * r == 2 * X


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
    z = QuadExtElement(g, F(c0), F(c1))
    w = z * z
    r = ext_sqrt(w)
    assert r is not None and r * r == w


def test_mixed_extension_arithmetic_rejected():
    F = PrimeField(7)
    g1 = QuadraticPoly(F, 0, 1)
    g2 = QuadraticPoly(F, 0, 3)
    with pytest.raises(InvalidParams):
        _gen(g1) + _gen(g2)
    with pytest.raises(InvalidParams):
        QuadExtElement(g1, F(1), F(0)) * PrimeField(5)(2)


def test_equality_with_another_extension_is_false():
    F = PrimeField(7)
    X1, X2 = _gen(QuadraticPoly(F, 0, 1)), _gen(QuadraticPoly(F, 0, 3))
    assert not X1 == X2 and X1 != X2
    assert X1 not in [X2] and X2 not in [X1]
    with pytest.raises(InvalidParams):
        X1 - X2


def test_equality_with_a_scalar_of_another_field_is_false():
    F = PrimeField(7)
    one = QuadExtElement(QuadraticPoly(F, 0, 1), F(1), F(0))
    foreign = PrimeField(5)(1)
    assert not one == foreign and one != foreign
    assert not foreign == one
    assert one not in [foreign] and foreign not in [one]
    assert one == F(1) and one == 1  # a scalar of its own field still compares by value
    with pytest.raises(InvalidParams):
        one + foreign


def test_equal_moduli_built_apart_mix():
    F = PrimeField(7)
    g1, g2 = QuadraticPoly(F, 0, 1), QuadraticPoly(F, 0, 1)
    assert g1 is not g2 and g1 == g2
    a = QuadExtElement(g1, F(2), F(3))
    b = QuadExtElement(g2, F(5), F(1))
    assert a + b == QuadExtElement(g1, F(0), F(4))
    assert a - b == QuadExtElement(g2, F(4), F(2))
    assert a * b == QuadExtElement(g1, F(0), F(3))  # 10 + 17X + 3X^2 = 7 + 17X
    assert (a / b) * b == a and (a / b).g is g1
    assert QuadExtElement(g1, F(3), F(4)) == QuadExtElement(g2, F(3), F(4))
    with pytest.raises(InvalidParams):
        a + QuadExtElement(QuadraticPoly(F, 0, 3), F(1), F(1))
    with pytest.raises(InvalidParams):
        a / QuadExtElement(QuadraticPoly(F, 1, 1), F(1), F(1))


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
