"""The int kernel against the oracle's from-scratch arithmetic and group laws."""

import random
from fractions import Fraction

import pytest

from ectorsion import VerificationError, kernel

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
    pts = kernel.cubic_points((p, A, B, C))
    assert sorted(pts) == sorted(oracles.fp_cubic_points(p, A, B, C))
    everything = [None] + list(pts)
    rng = random.Random(p * 1000 + A)
    for _ in range(60):
        P = rng.choice(everything)
        Q = rng.choice(everything)
        got = kernel.cubic_add((p, A, B, C), P, Q)
        want = oracles.fp_cubic_add(p, A, B, C, P, Q)
        assert got == want
    assert kernel.cubic_all_orders((p, A, B, C), 4 * p) == [
        oracles.fp_cubic_order(p, A, B, C, P) for P in pts]
    assert kernel.cubic_double_all((p, A, B, C), pts) == [
        oracles.fp_cubic_add(p, A, B, C, P, P) for P in pts]
    assert kernel.cubic_contains((p, A, B, C), None)
    for P in pts:
        assert kernel.cubic_contains((p, A, B, C), P)
        for bad in ((P[0], (P[1] + 1) % p), ((P[0] + 1) % p, P[1])):
            assert kernel.cubic_contains((p, A, B, C), bad) == oracles.fp_cubic_on(p, A, B, C, bad)
    for P in pts[:12]:
        assert kernel.cubic_order((p, A, B, C), P, 4 * p) == oracles.fp_cubic_order(p, A, B, C, P)
        n = rng.randrange(-5, 40)
        want = None
        if n:
            base = P if n > 0 else oracles.fp_cubic_neg(p, P)
            want = base
            for _ in range(abs(n) - 1):
                want = oracles.fp_cubic_add(p, A, B, C, want, base)
        assert kernel.cubic_smul((p, A, B, C), n, P) == want


QQ_CURVES = [
    # (A, B, C) over Q, a point, and how many of its multiples to take
    ((0, 0, 1), (2, 3), 12),  # order 6
    ((0, -2, 0), (2, 2), 2),  # infinite order: heights grow fast
    ((Fraction(46, 9), 1, 0), (-3, -4), 12),  # e8 at t = 2: order 8
    ((Fraction(5041, 81), Fraction(11360, 81), Fraction(6400, 81)),
     (-40, Fraction(-520, 3)), 12),  # e12 at T = 2: order 12
]


@pytest.mark.parametrize("coeffs,G,count", QQ_CURVES)
def test_qq_kernel_group_law_matches_oracle(coeffs, G, count):
    """The Q model, on Fractions, over the first multiples of one point."""
    A, B, C = c = tuple(map(Fraction, coeffs))
    G = (Fraction(G[0]), Fraction(G[1]))
    pts, R = [], G
    while R is not None and len(pts) < count:
        pts.append(R)
        R = oracles.qq_cubic_add(A, B, C, R, G)
    everything = [None] + pts
    rng = random.Random(count + len(pts))
    for _ in range(60):
        P, Q = rng.choice(everything), rng.choice(everything)
        assert kernel.qq_add(c, P, Q) == oracles.qq_cubic_add(A, B, C, P, Q)
    assert kernel.qq_neg(c, None) is None
    assert kernel.qq_contains(c, None)
    for P in pts:
        assert kernel.qq_contains(c, P)
        for bad in ((P[0], P[1] + 1), (P[0] + Fraction(1, 3), P[1])):
            assert kernel.qq_contains(c, bad) == oracles.qq_cubic_on(A, B, C, bad)
        assert oracles.qq_cubic_add(A, B, C, kernel.qq_neg(c, P), P) is None
        order = oracles.qq_cubic_order(A, B, C, P, cap=12)
        assert kernel.qq_order(c, P, 12) == order
        if order > 1:
            assert kernel.qq_order(c, P, order - 1) == 0  # past the cap
        n = rng.randrange(-5, 15)
        want = None
        if n:
            base = P if n > 0 else (P[0], -P[1])
            want = base
            for _ in range(abs(n) - 1):
                want = oracles.qq_cubic_add(A, B, C, want, base)
        assert kernel.qq_smul(c, n, P) == want


def test_kernel_edge_cases():
    p, A, B, C = 5, 4, 1, 0  # y^2 = x(x^2+4x+1), has (0,0) of order 2
    assert kernel.cubic_add((p, A, B, C), None, None) is None
    assert kernel.cubic_add((p, A, B, C), (0, 0), (0, 0)) is None
    assert kernel.cubic_neg((p, A, B, C), None) is None
    assert kernel.cubic_neg((p, A, B, C), (1, 4)) == (1, 1)
    assert kernel.cubic_order((p, A, B, C), None, 10) == 1
    assert kernel.cubic_smul((p, A, B, C), 0, (0, 0)) is None
    assert kernel.cubic_order((p, A, B, C), (1, 4), 2) == 0  # cap exceeded
    pts = kernel.cubic_points((p, A, B, C))
    assert (1, 4) in pts and (1, 2) not in pts


@pytest.mark.parametrize("p,A,B,C", CURVES)
def test_multiples_are_the_iterated_sums_up_to_the_order(p, A, B, C):
    c = (p, A, B, C)
    for P in [None] + kernel.cubic_points(c)[:12]:
        n = oracles.fp_cubic_order(p, A, B, C, P)
        want, R = [P], P
        while R is not None:
            R = oracles.fp_cubic_add(p, A, B, C, R, P)
            want.append(R)
        assert kernel._multiples(kernel.cubic_add, c, P, n) == want
        assert len(want) == n and want[-1] is None
        if n > 1:
            assert kernel._multiples(kernel.cubic_add, c, P, n - 1) is None  # past the cap


# ---------------------------------------------------------------------------
# GF(2^k)
# ---------------------------------------------------------------------------

MODULI = [(k, m) for k in range(1, 9) for m in range(1 << k, 1 << (k + 1))
          if oracles.gf2_poly_irreducible(m, k)]


def test_every_small_binary_field_is_covered():
    assert [sum(1 for k, _ in MODULI if k == d) for d in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert (4, 0x1f) in MODULI  # x has order 5 there, so the tables need another base
    assert oracles.gf2_pow(2, 5, 0x1f, 4) == 1
    assert kernel._gf2k(4, 0x1f).exp[1] != 2


def test_gf2_bit_vector_arithmetic_matches_oracle():
    for k, m in MODULI:
        if k > 6:
            continue
        for a in range(1 << k):
            for b in range(1 << k):
                assert kernel.gf2_mul(a, b, m, k) == oracles.gf2_mul(a, b, m, k)
            if a:
                # already reduced, with no final polynomial remainder
                assert kernel.gf2_inv(a, m) == oracles.gf2_inv(a, m, k)


def test_gf2k_contexts_are_bounded():
    """A 34th field evicts a context: at k = 20 each one takes about 0.2 MB."""
    moduli = [m for m in range(1 << 10, 1 << 11) if oracles.gf2_poly_irreducible(m, 10)]
    kernel._gf2k.cache_clear()
    for m in moduli[:33]:
        kernel._gf2k(10, m)
    assert kernel._gf2k.cache_info().currsize <= 32


@pytest.mark.parametrize("k,m", MODULI)
def test_log_tables_are_permutations(k, m):
    F = kernel._gf2k(k, m)
    n = (1 << k) - 1
    assert sorted(F.exp[:n]) == list(range(1, n + 1))
    assert F.exp[n:] == F.exp[:n]
    assert sorted(F.log[1:]) == list(range(n))
    for i, v in enumerate(F.exp[:n]):
        assert F.log[v] == i


@pytest.mark.parametrize("table,j,flip", [
    (0, 1, 0b100), (0, 11, 1),  # sqrt, in the low and the high table
    (1, 1, 0b100), (1, 11, 0b10),  # Artin-Schreier root
    (1, 2, 1),  # the other root, with bit 0 set
    (1, 3, 1 << 12), (1, 11, 1 << 12),  # trace
])
def test_gf2k_context_refuses_a_wrong_table(monkeypatch, table, j, flip):
    """Flip one bit of one basis image, in the sqrt table or the root-and-trace one."""
    span, calls = kernel._span, []

    def corrupt(images):
        images = list(images)
        if len(calls) == table:
            images[j] ^= flip
        calls.append(images)
        return span(images)

    monkeypatch.setattr(kernel, "_span", corrupt)
    with pytest.raises(VerificationError):
        kernel._GF2k(12, 0x1053)  # x^12 + x^6 + x^4 + x + 1
    assert len(calls) == 2  # both tables were built, the flipped one among them


def _check_c2_group_law(k, m, a2, a6, pts, rng, samples, per_point):
    """c2_add on ``samples`` random pairs, c2_double_x on every point with
    x != 0, and c2_smul, c2_order and c2_contains on ``per_point`` random
    points, against the oracle."""
    c = (kernel._gf2k(k, m), a2, a6)
    everything = [None] + pts
    assert kernel.c2_double_x(c, [P[0] for P in pts]) == [
        oracles.char2_add(k, m, a2, a6, P, P)[0] for P in pts if P[0]  # 2(0, y) = O
    ]
    for _ in range(samples):
        P, Q = rng.choice(everything), rng.choice(everything)
        assert kernel.c2_add(c, P, Q) == oracles.char2_add(k, m, a2, a6, P, Q)
    for P in rng.sample(pts, min(len(pts), per_point)):
        assert kernel.c2_contains(c, P)
        bad = (P[0], P[1] ^ 1)
        assert kernel.c2_contains(c, bad) == oracles.char2_on(k, m, a2, a6, bad)
        order = oracles.char2_order(k, m, a2, a6, P)
        assert kernel.c2_order(c, P, 4 << k) == order
        assert kernel.c2_order(c, P, order - 1) == 0  # past the cap
        n = rng.randrange(-5, 40)
        want = None
        if n:
            base = P if n > 0 else oracles.char2_neg(k, m, P)
            want = base
            for _ in range(abs(n) - 1):
                want = oracles.char2_add(k, m, a2, a6, want, base)
        assert kernel.c2_smul(c, n, P) == want


@pytest.mark.parametrize("k,m", MODULI)
def test_c2_kernel_matches_oracle(k, m):
    q = 1 << k
    rng = random.Random(q + m)
    curves = [(0, 1), (1, q - 1), (rng.randrange(q), rng.randrange(1, q))]
    if k > 5:  # one curve for each larger modulus keeps the test quick
        curves = [curves[m % 3]]
    for a2, a6 in curves:
        pts = kernel.c2_points((kernel._gf2k(k, m), a2, a6))
        assert pts[0] == (0, oracles.gf2_pow(a6, q // 2, m, k))  # the 2-torsion point
        assert pts[1:] == sorted(pts[1:], key=lambda P: P[0])
        if k <= 5:
            assert sorted(pts) == oracles.char2_points(k, m, a2, a6)
        else:  # the full O(4^k) scan is slow: scan every y over a sample of x
            assert all(oracles.char2_on(k, m, a2, a6, P) for P in pts)
            for x in rng.sample(range(q), 4):
                scan = [(x, y) for y in range(q) if oracles.char2_on(k, m, a2, a6, (x, y))]
                assert sorted(P for P in pts if P[0] == x) == scan
        _check_c2_group_law(k, m, a2, a6, pts, rng, 40, 3)


@pytest.mark.parametrize("k", [11, 12])
def test_c2_kernel_without_tables(k):
    m = next(m for m in range(1 << k, 1 << (k + 1)) if oracles.gf2_poly_irreducible(m, k))
    rng = random.Random(k)
    a2, a6 = rng.randrange(1 << k), rng.randrange(1, 1 << k)
    pts = kernel.c2_points((kernel._gf2k(k, m), a2, a6))
    assert kernel._gf2k(k, m).log is None
    sample = rng.sample(pts, 40)
    assert all(oracles.char2_on(k, m, a2, a6, P) for P in sample)
    _check_c2_group_law(k, m, a2, a6, sample, rng, 20, 1)


@pytest.mark.parametrize("k,m", [(k, m) for k, m in MODULI if k <= 4])
def test_c2_points_bit_vector_loop_matches_the_table_loop(monkeypatch, k, m):
    """The loop that runs above _TABLE_MAX_K gives the table loop's list on every curve."""
    tables = kernel._gf2k(k, m)  # fetched first: the cache must not keep a table-less one
    monkeypatch.setattr(kernel, "_TABLE_MAX_K", 0)
    bare = kernel._GF2k(k, m)
    assert bare.log is None and tables.log is not None
    for a6 in range(1, 1 << k):
        for a2 in range(1 << k):
            assert kernel.c2_points((bare, a2, a6)) == kernel.c2_points((tables, a2, a6))


def test_c2_kernel_edge_cases():
    k, m, a2, a6 = 2, 0b111, 0, 1  # y^2 + xy = x^3 + 1 over GF(4): (0, 1) has order 2
    c = (kernel._gf2k(k, m), a2, a6)
    assert kernel.c2_add(c, None, None) is None
    assert kernel.c2_add(c, (0, 1), (0, 1)) is None
    assert kernel.c2_add(c, (2, 2), (2, 0)) is None  # P + (-P)
    assert kernel.c2_smul(c, 0, (2, 2)) is None
    assert kernel.c2_smul(c, -1, (2, 2)) == (2, 0)
    assert kernel.c2_order(c, None, 10) == 1
    assert kernel.c2_order(c, (2, 2), 8) == 8
    assert kernel.c2_contains(c, None)
