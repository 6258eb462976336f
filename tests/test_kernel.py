"""The int kernel against the oracle's from-scratch arithmetic and group laws."""

import math
import random
from fractions import Fraction

import pytest

from ectorsion import (
    Rationals,
    VerificationError,
    e4_new,
    e6_new,
    e8_new,
    e10_new,
    e12_new,
    kernel,
)
from ectorsion.field import default_modulus

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


def _two_adic_valuation(n):
    return (n & -n).bit_length() - 1


def test_fp_sqrt_against_exhaustion():
    """Up to 101, and at 257, 7681 and 12289, where p - 1 has 2-adic valuation 8, 9 and 12."""
    assert [_two_adic_valuation(p - 1) for p in (257, 7681, 12289)] == [8, 9, 12]
    for p in (3, 5, 7, 13, 17, 29, 97, 101, 257, 7681, 12289):
        squares = oracles.fp_squares(p)
        for a in range(p):
            assert kernel.fp_is_square(a, p) == (a in squares)
            r = kernel.fp_sqrt(a, p)
            if a in squares:
                assert (r * r) % p == a
                assert 0 <= r <= p - r  # min(r, p - r)
            else:
                assert r == -1


@pytest.mark.parametrize("p,e", [(65537, 16), (2013265921, 27), (2**31 - 1, 1)])
def test_fp_sqrt_sampled_at_large_moduli(p, e):
    """2013265921 = 15 * 2^27 + 1 has the largest 2-adic valuation of p - 1
    below 2^31; 2^31 - 1 = 3 mod 4 takes the shortcut.  Squares x^2 have the
    root min(x, p - x); any other value is a square iff Euler's criterion says
    so, and its root is then the smaller of a pair, else -1."""
    assert _two_adic_valuation(p - 1) == e
    rng = random.Random(p)
    seen = set()
    for _ in range(300):
        x = rng.randrange(1, p)
        assert kernel.fp_sqrt(x * x % p, p) == min(x, p - x)
        assert kernel.fp_sqrt(x * x, p) == min(x, p - x)  # unreduced input
        a = rng.randrange(1, p)
        r = kernel.fp_sqrt(a, p)
        square = pow(a, (p - 1) // 2, p) == 1
        seen.add(square)
        if square:
            assert r * r % p == a and 0 < r <= p - r
        else:
            assert r == -1
    assert seen == {True, False}


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
    assert kernel.cubic_all_orders((p, A, B, C)) == [
        oracles.fp_cubic_order(p, A, B, C, P) for P in pts]
    assert kernel.cubic_double_all((p, A, B, C), pts) == [
        oracles.fp_cubic_add(p, A, B, C, P, P) for P in pts]
    assert kernel.cubic_contains((p, A, B, C), None)
    for P in pts:
        assert kernel.cubic_contains((p, A, B, C), P)
        for bad in ((P[0], (P[1] + 1) % p), ((P[0] + 1) % p, P[1])):
            assert kernel.cubic_contains((p, A, B, C), bad) == oracles.fp_cubic_on(p, A, B, C, bad)
    for P in pts[:12]:
        assert kernel.cubic_order((p, A, B, C), P) == oracles.fp_cubic_order(p, A, B, C, P)
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
        assert kernel.qq_order(c, P) == order
        n = rng.randrange(-5, 15)
        want = None
        if n:
            base = P if n > 0 else (P[0], -P[1])
            want = base
            for _ in range(abs(n) - 1):
                want = oracles.qq_cubic_add(A, B, C, want, base)
        assert kernel.qq_smul(c, n, P) == want


def _scaled(c, pt, v):
    """The model x -> x / v^2, y -> y / v^3 of the curve c, and pt on it."""
    A, B, C = c
    return (A / v**2, B / v**4, C / v**6), (None if pt is None else (pt[0] / v**2, pt[1] / v**3))


def test_qq_order_of_torsion_points_matches_oracle():
    """Every multiple of every family witness over Q, on its own model and on
    models with other denominators: the order search's integrality test
    (Nagell-Lutz) never cuts a point of finite order short."""
    Q = Rationals()
    insts = [e4_new(Q, Q(a), Q(b)) for a, b in ((-6, -6), (1, 1), (Fraction(2, 3), Fraction(-5, 7)))]
    for ctor in (e6_new, e8_new, e10_new, e12_new):
        insts += [ctor(Q, Q(t)) for t in (Fraction(-3), Fraction(5, 2), Fraction(-7, 11))]
    checked = set()
    for inst in insts:
        c = tuple(v.value for v in inst.curve.coefficients())
        for w in inst.witnesses:
            G = (w.point.x.value, w.point.y.value)
            for v in (1, Fraction(1, 6), Fraction(5), Fraction(3, 2)):
                cv, Gv = _scaled(c, G, v)
                P = Gv
                while P is not None:
                    n = oracles.qq_cubic_order(*cv, P, cap=12)
                    assert 1 < n <= 12 and kernel.qq_order(cv, P) == n, (inst, P)
                    checked.add((cv, P))
                    P = oracles.qq_cubic_add(*cv, P, Gv)
    assert len(checked) >= 400
    # Points of infinite order, integral and not, on integral and scaled models.
    for c, G in (((0, -2, 0), (2, 2)), ((0, 0, -2), (3, 5)), ((0, -36, 0), (-3, 9))):
        c, G = tuple(map(Fraction, c)), tuple(map(Fraction, G))
        assert oracles.qq_cubic_order(*c, G, cap=12) == 0
        for v in (1, Fraction(1, 6), Fraction(5)):
            cv, Gv = _scaled(c, G, v)
            assert kernel.qq_order(cv, Gv) == 0
            assert kernel.qq_order(cv, kernel.qq_add(cv, Gv, Gv)) == 0


def test_qq_order_adds_no_multiple_that_nagell_lutz_rules_out(monkeypatch):
    """A multiple that is not integral on the integral model, or has y != 0
    not dividing D there, ends the search: the point has infinite order."""
    real, calls = kernel.qq_add, []

    def counted(c, pt1, pt2):
        calls.append(pt1)
        return real(c, pt1, pt2)

    monkeypatch.setattr(kernel, "qq_add", counted)
    c17 = (Fraction(0), Fraction(0), Fraction(17))  # D = -27 * 17^2
    cases = [
        (c17, (5234, 378661), 0, 0),  # integral, y does not divide D
        (c17, (Fraction(137, 64), Fraction(-2651, 512)), 0, 0),  # 2(-2, 3): not integral
        # (-2, 3) on the model x -> x / 9, y -> y / 27: integral on the integral
        # model (u = 3^6) and y | D there, but 2P is not integral
        _scaled(c17, (Fraction(-2), Fraction(3)), 3) + (0, 1),
        # orders 6 and 8 show at 3P (y = 0) and 4P (4P = -4P): 2 and 3 additions
        ((Fraction(0), Fraction(0), Fraction(1)), (2, 3), 6, 2),  # y = 3 divides D = -27
        ((Fraction(46, 9), Fraction(1), Fraction(0)), (-3, -4), 8, 3),  # e8 at t = 2: u = 9
    ]
    for c, pt, n, additions in cases:
        pt = tuple(map(Fraction, pt))
        assert oracles.qq_cubic_order(*c, pt, cap=12) == n
        del calls[:]
        assert kernel.qq_order(c, pt) == n
        assert len(calls) == additions


def test_kernel_edge_cases():
    p, A, B, C = 5, 4, 1, 0  # y^2 = x(x^2+4x+1), has (0,0) of order 2
    assert kernel.cubic_add((p, A, B, C), None, None) is None
    assert kernel.cubic_add((p, A, B, C), (0, 0), (0, 0)) is None
    assert kernel.cubic_neg((p, A, B, C), None) is None
    assert kernel.cubic_neg((p, A, B, C), (1, 4)) == (1, 1)
    assert kernel.cubic_order((p, A, B, C), None) == 1
    assert kernel.cubic_smul((p, A, B, C), 0, (0, 0)) is None
    pts = kernel.cubic_points((p, A, B, C))
    assert (1, 4) in pts and (1, 2) not in pts


@pytest.mark.parametrize("p,A,B,C", CURVES)
def test_multiples_are_the_iterated_sums_up_to_the_order(p, A, B, C):
    """The multiples stop at ceil(n/2)P, n the order, which they return; one
    multiple short of that they return the rest and no order."""
    c = (p, A, B, C)
    for P in [None] + kernel.cubic_points(c)[:12]:
        n = oracles.fp_cubic_order(p, A, B, C, P)
        want, R = [P], P
        while len(want) < (n + 1) // 2:
            R = oracles.fp_cubic_add(p, A, B, C, R, P)
            want.append(R)
        for length in ((n + 1) // 2, n, n + 5):
            assert kernel._multiples(kernel.cubic_add, kernel.cubic_neg, c, P, length) == (want, n)
        if n > 2:  # one short: the first ceil(n/2) - 1 multiples, and the order unknown
            got = kernel._multiples(kernel.cubic_add, kernel.cubic_neg, c, P, len(want) - 1)
            assert got == (want[:-1], 0)


_C2_CURVES = [(3, 0b1011, 1, 5), (4, 0b10011, 0, 3), (4, 0b10011, 6, 11), (5, 0b100101, 3, 7)]


def test_multiples_give_the_order_of_every_point():
    """Every point of the F_p curves and of four char-2 curves, O included:
    orders 1, 2, 3, odd orders above 3 and even ones among them."""
    seen = set()
    for p, A, B, C in CURVES:
        c = (p, A, B, C)
        for P in [None] + kernel.cubic_points(c):
            n = oracles.fp_cubic_order(p, A, B, C, P)
            assert kernel._multiples(kernel.cubic_add, kernel.cubic_neg, c, P, n)[1] == n
            seen.add(n)
    for k, m, a2, a6 in _C2_CURVES:
        c = (kernel._gf2k(k, m), a2, a6)
        for P in [None] + kernel.c2_points(c):
            n = oracles.char2_order(k, m, a2, a6, P)
            assert kernel._multiples(kernel.c2_add, kernel.c2_neg, c, P, n)[1] == n
            seen.add(n)
    assert {1, 2, 3, 4} <= seen and any(n % 2 and n > 3 for n in seen), sorted(seen)


@pytest.mark.parametrize("p", [4099, 65521])
def test_an_order_search_adds_each_multiple_once(monkeypatch, p):
    """Past the iterated-addition bound m, the m multiples already summed are
    the baby steps: no addition falls between them and the first giant-step
    scalar multiple."""
    A, B, C = 0, 1, 3
    c = (p, A, B, C)
    lo, hi = kernel._hasse_interval(p)
    m = max(math.isqrt((hi - lo) // 4) + 1, 12)
    squares = oracles.fp_squares(p)
    x = next(x for x in range(2, p) if oracles.fp_cubic_rhs(p, A, B, C, x) in squares)
    y = next(y for y in range(p) if y * y % p == oracles.fp_cubic_rhs(p, A, B, C, x))
    log = []

    def add(c, pt1, pt2):
        log.append("add")
        return kernel.cubic_add(c, pt1, pt2)

    def smul(*args, fn=kernel._smul):
        log.append("smul")
        return fn(*args)

    monkeypatch.setattr(kernel, "_smul", smul)
    n = kernel._order(add, kernel.cubic_neg, c, (x, y), p)
    assert n > m and n == oracles.fp_cubic_order(p, A, B, C, (x, y), cap=hi)
    assert log.index("smul") == m - 1  # the prefix alone: P + P, ..., (m - 1)P + P


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


@pytest.mark.parametrize("k", [*range(2, 14), 20])
def test_gf2_inv_inverts_every_element(k):
    """a * a^-1 = 1 by the oracle's product, for every nonzero a up to k = 12
    and 10,000 random ones at k = 13 and 20, on the first irreducible
    modulus; each inverse is reduced already."""
    m = next(m for m in range(1 << k, 1 << (k + 1)) if oracles.gf2_poly_irreducible(m, k))
    rng = random.Random(k)
    elements = range(1, 1 << k) if k <= 12 else [rng.randrange(1, 1 << k) for _ in range(10_000)]
    for a in elements:
        inv = kernel.gf2_inv(a, m)
        assert inv >> k == 0 and oracles.gf2_mul(a, inv, m, k) == 1


def test_limb_product_table_matches_oracle():
    """Entry a << 7 | b is the carry-less product of two 7-bit limbs: below
    degree 13, so the oracle at k = 14 never reduces it."""
    T = kernel._limb_products()
    assert len(T) == 1 << 14
    for a in range(128):
        for b in range(128):
            assert T[a << 7 | b] == oracles.gf2_mul(a, b, 0, 14)


def _largest_irreducible(k):
    return next(m for m in range((2 << k) - 1, 1 << k, -2) if oracles.gf2_poly_irreducible(m, k))


@pytest.mark.parametrize("k,m", [(k, m) for k in range(11, 21)
                                 for m in (default_modulus(k), _largest_irreducible(k))])
def test_limb_products_match_oracle(k, m):
    """mul, div and sq above _TABLE_MAX_K, on random values and on the limb
    and degree boundaries."""
    F = kernel._gf2k(k, m)
    assert F.log is None
    q, rng = 1 << k, random.Random(k * m)
    edges = [0, 1, 2, 127, 128, (1 << 14) - 1, 1 << 14, q // 2, q - 1]
    xs = [v for v in edges if v < q] + [rng.randrange(q) for _ in range(60)]
    for a in xs:
        assert F.sq(a) == oracles.gf2_mul(a, a, m, k)
        for b in rng.sample(xs, 8) + [q - 1]:
            assert F.mul(a, b) == oracles.gf2_mul(a, b, m, k)
        b = rng.randrange(1, q)
        assert F.div(a, b) == oracles.gf2_mul(a, oracles.gf2_inv(b, m, k), m, k)


@pytest.mark.parametrize("k,m", [(k, m) for k, m in MODULI if k <= 4])
def test_limb_products_exhaustive_on_small_fields(monkeypatch, k, m):
    """The arithmetic that runs above _TABLE_MAX_K, on every pair of a small field."""
    monkeypatch.setattr(kernel, "_TABLE_MAX_K", 0)
    F = kernel._GF2k(k, m)
    assert F.log is None
    for a in range(1 << k):
        assert F.sq(a) == oracles.gf2_mul(a, a, m, k)
        for b in range(1 << k):
            assert F.mul(a, b) == oracles.gf2_mul(a, b, m, k)
            if b:
                assert F.div(a, b) == oracles.gf2_mul(a, oracles.gf2_inv(b, m, k), m, k)


@pytest.mark.parametrize("k,m", MODULI)
def test_squares_on_the_log_tables_match_oracle(k, m):
    F = kernel._gf2k(k, m)
    assert [F.sq(a) for a in range(1 << k)] == [oracles.gf2_mul(a, a, m, k) for a in range(1 << k)]


def test_gf2k_contexts_are_bounded():
    """A 34th field evicts a context: at k = 20 each one takes about 0.4 MB."""
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


# The tables as the cases below number them, and the order in which a
# context above _TABLE_MAX_K builds them through _span.
_TABLES = ("sqrt", "root", "reduction", "square")
_BUILT = ("reduction", "square", "sqrt", "root")


@pytest.mark.parametrize("table,j,flip", [
    (0, 1, 0b100), (0, 11, 1),  # sqrt, in the low and the high table
    (1, 1, 0b100), (1, 11, 0b10),  # Artin-Schreier root
    (1, 2, 1),  # the other root, with bit 0 set
    (1, 3, 1 << 12), (1, 11, 1 << 12),  # trace
    (2, 1, 0b100), (2, 10, 1),  # reduction of x^(12+j)
    (2, 3, 1 << 12),  # an image of degree 12, which no reduced value has
    (3, 1, 0b100), (3, 11, 1),  # square, in the low and the high table
])
def test_gf2k_context_refuses_a_wrong_table(monkeypatch, table, j, flip):
    """Flip one bit of one basis image, in the sqrt, root-and-trace,
    reduction or square table.  The reduction and square tables, which the
    later ones are built from, are checked as soon as they are built."""
    span, calls, at = kernel._span, [], _BUILT.index(_TABLES[table])

    def corrupt(images):
        images = list(images)
        if len(calls) == at:
            images[j] ^= flip
        calls.append(images)
        return span(images)

    monkeypatch.setattr(kernel, "_span", corrupt)
    with pytest.raises(VerificationError):
        kernel._GF2k(12, 0x1053)  # x^12 + x^6 + x^4 + x + 1
    assert len(calls) == (at + 1 if at < 2 else 4)  # the flipped table among them


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
        assert kernel.c2_order(c, P) == order
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
    assert kernel.c2_order(c, None) == 1
    assert kernel.c2_order(c, (2, 2)) == 8
    assert kernel.c2_contains(c, None)
