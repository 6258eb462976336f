"""The prime-field kernel against the oracle's from-scratch group law."""

import random

import pytest

from ectorsion import kernel

import oracles

CURVES = [
    # (p, A, B, C) for y^2 = x^3 + A x^2 + B x + C
    (5, 4, 1, 0),
    (7, 1, 3, 2),
    (11, 0, 1, 0),
    (13, 2, 0, 5),
    (31, 7, 11, 3),
    (97, 20, 30, 40),
]


def test_fp_sqrt_against_exhaustion():
    for p in (3, 5, 7, 13, 17, 29, 97, 101):
        squares = oracles.fp_squares(p)
        for a in range(p):
            assert kernel.fp_is_square(a, p) == (a in squares)
            r = kernel.fp_sqrt(a, p)
            if a in squares:
                assert (r * r) % p == a
                assert 0 <= r <= p - r or r == 0
            else:
                assert r < 0


@pytest.mark.parametrize("p,A,B,C", CURVES)
def test_kernel_group_law_matches_oracle(p, A, B, C):
    pts = kernel.cubic_points(p, A, B, C)
    assert sorted(pts) == sorted(oracles.fp_cubic_points(p, A, B, C))
    everything = [None] + list(pts)
    rng = random.Random(p * 1000 + A)
    for _ in range(60):
        P = rng.choice(everything)
        Q = rng.choice(everything)
        got = kernel.cubic_add(p, A, B, C, P, Q)
        want = oracles.fp_cubic_add(p, A, B, C, P, Q)
        assert got == want
    assert kernel.cubic_all_orders(p, A, B, C, 4 * p) == [
        oracles.fp_cubic_order(p, A, B, C, P) for P in pts]
    assert kernel.cubic_double_all(p, A, B, C, pts) == [
        oracles.fp_cubic_add(p, A, B, C, P, P) for P in pts]
    for P in pts[:12]:
        assert kernel.cubic_order(p, A, B, C, P, 4 * p) == oracles.fp_cubic_order(p, A, B, C, P)
        n = rng.randrange(-5, 40)
        want = None
        if n:
            base = P if n > 0 else oracles.fp_cubic_neg(p, P)
            want = base
            for _ in range(abs(n) - 1):
                want = oracles.fp_cubic_add(p, A, B, C, want, base)
        assert kernel.cubic_smul(p, A, B, C, n, P) == want


def test_kernel_edge_cases():
    p, A, B, C = 5, 4, 1, 0  # y^2 = x(x^2+4x+1), has (0,0) of order 2
    assert kernel.cubic_add(p, A, B, C, None, None) is None
    assert kernel.cubic_add(p, A, B, C, (0, 0), (0, 0)) is None
    assert kernel.cubic_neg(p, None) is None
    assert kernel.cubic_neg(p, (1, 4)) == (1, 1)
    assert kernel.cubic_order(p, A, B, C, None, 10) == 1
    assert kernel.cubic_smul(p, A, B, C, 0, (0, 0)) is None
    assert kernel.cubic_order(p, A, B, C, (1, 4), 2) == 0  # cap exceeded
    pts = kernel.cubic_points(p, A, B, C)
    assert (1, 4) in pts and (1, 2) not in pts
