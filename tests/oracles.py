"""Brute-force reference implementations used to cross-check the library.

Everything in this module is deliberately naive and independent of the
package internals: arithmetic happens on plain ints (mod p), on
``fractions.Fraction``, or on GF(2^k) bit-vectors, and the group
operations come straight from the chord-and-tangent construction with
no shared code and no shortcuts.  Slow is fine; wrong is not.
"""

from fractions import Fraction
from itertools import product
from math import isqrt

INF = None  # point at infinity marker


# ---------------------------------------------------------------------------
# F_p arithmetic on short Weierstrass cubics  y^2 = x^3 + A x^2 + B x + C
# ---------------------------------------------------------------------------

def fp_cubic_rhs(p, A, B, C, x):
    return (x * x * x + A * x * x + B * x + C) % p


def fp_cubic_on(p, A, B, C, P):
    if P is INF:
        return True
    x, y = P
    return (y * y) % p == fp_cubic_rhs(p, A, B, C, x)


def fp_cubic_neg(p, P):
    if P is INF:
        return INF
    return (P[0], (-P[1]) % p)


def fp_cubic_add(p, A, B, C, P1, P2):
    if P1 is INF:
        return P2
    if P2 is INF:
        return P1
    x1, y1 = P1
    x2, y2 = P2
    if x1 == x2 and (y1 + y2) % p == 0:
        return INF
    if P1 == P2:
        lam = (3 * x1 * x1 + 2 * A * x1 + B) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - A - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def fp_cubic_points(p, A, B, C):
    """All affine points, by x then y: every (x, y) with y^2 = rhs(x), looked
    up in a table of the squares of every y.  O(p), honest."""
    ys = {}
    for y in range(p):
        ys.setdefault(y * y % p, []).append(y)
    return [(x, y) for x in range(p) for y in ys.get(fp_cubic_rhs(p, A, B, C, x), ())]


def fp_cubic_order(p, A, B, C, P, cap=10_000):
    acc = P
    for n in range(1, cap + 1):
        if acc is INF:
            return n
        acc = fp_cubic_add(p, A, B, C, acc, P)
    raise AssertionError("order exceeds cap")


def fp_squares(p):
    return {(x * x) % p for x in range(p)}


# ---------------------------------------------------------------------------
# The same cubic over Q, with Fractions
# ---------------------------------------------------------------------------

def qq_cubic_on(A, B, C, P):
    x, y = P
    return y * y == x * x * x + A * x * x + B * x + C


def qq_cubic_add(A, B, C, P1, P2):
    if P1 is INF:
        return P2
    if P2 is INF:
        return P1
    x1, y1 = P1
    x2, y2 = P2
    if x1 == x2 and y1 + y2 == 0:
        return INF
    if P1 == P2:
        lam = Fraction(3 * x1 * x1 + 2 * A * x1 + B, 1) / (2 * y1)
    else:
        lam = Fraction(y2 - y1, 1) / (x2 - x1)
    x3 = lam * lam - A - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


def qq_cubic_order(A, B, C, P, cap=24):
    acc = P
    for n in range(1, cap + 1):
        if acc is INF:
            return n
        acc = qq_cubic_add(A, B, C, acc, P)
    return 0  # no order within the cap


def qq_cubic_roots(A, B, C):
    """Rational roots of x^3 + A x^2 + B x + C, ascending, by the rational
    root theorem: clear denominators, then try +-(divisor of the constant
    term) / (divisor of the leading one)."""
    A, B, C = Fraction(A), Fraction(B), Fraction(C)
    den = A.denominator * B.denominator * C.denominator
    coeffs = [int(c * den) for c in (C, B, A)] + [den]  # constant term first
    roots = set()
    while coeffs[0] == 0:  # x divides the cubic
        roots.add(Fraction(0))
        coeffs = coeffs[1:]

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    for num in divisors(coeffs[0]):
        for d in divisors(coeffs[-1]):
            for x in (Fraction(num, d), Fraction(-num, d)):
                if x ** 3 + A * x * x + B * x + C == 0:
                    roots.add(x)
    return sorted(roots)


def qq_quadratic_roots(b, c):
    """Rational roots of z^2 + b z + c, ascending: the discriminant must be the
    square of a Fraction, its numerator and denominator perfect squares."""
    d = Fraction(b) ** 2 - 4 * Fraction(c)
    if d < 0:
        return []
    num, den = isqrt(d.numerator), isqrt(d.denominator)
    if num * num != d.numerator or den * den != d.denominator:
        return []
    return sorted({(-Fraction(b) + sg * Fraction(num, den)) / 2 for sg in (1, -1)})


# ---------------------------------------------------------------------------
# K[x]/(x^2 + pp x + qq) on coordinate pairs (c0, c1) for c0 + c1 X
# ---------------------------------------------------------------------------

def quadext_mul(field, pp, qq, z, w):
    """z * w in K[x]/(x^2 + pp x + qq), where X^2 = -pp X - qq: pairs of plain
    ints reduced mod the prime ``field``, or of Fractions when ``field`` is None."""
    (a, b), (c, d) = z, w
    bd = b * d
    out = (a * c - bd * qq, a * d + b * c - bd * pp)
    return out if field is None else (out[0] % field, out[1] % field)


# ---------------------------------------------------------------------------
# GF(2^k) bit-vector arithmetic, written from scratch
# ---------------------------------------------------------------------------

def gf2_mul(a, b, mod, k):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> k:
            a ^= mod
    return r


def gf2_pow(a, e, mod, k):
    r = 1
    while e:
        if e & 1:
            r = gf2_mul(r, a, mod, k)
        a = gf2_mul(a, a, mod, k)
        e >>= 1
    return r


def gf2_trace(a, mod, k):
    """a + a^2 + a^4 + ... + a^(2^(k-1)), which lands in {0, 1}."""
    acc = a
    for _ in range(k - 1):
        a = gf2_mul(a, a, mod, k)
        acc ^= a
    return acc


def gf2_inv(a, mod, k):
    assert a != 0
    return gf2_pow(a, 2**k - 2, mod, k)


def char2_on(k, mod, a2, a6, P):
    if P is INF:
        return True
    x, y = P
    mul = lambda u, v: gf2_mul(u, v, mod, k)
    return mul(y, y) ^ mul(x, y) == mul(mul(x, x), x) ^ mul(a2, mul(x, x)) ^ a6


def char2_neg(k, mod, P):
    if P is INF:
        return INF
    return (P[0], P[0] ^ P[1])


def char2_add(k, mod, a2, a6, P1, P2):
    """Chord-and-tangent on y^2 + xy = x^3 + a2 x^2 + a6."""
    if P1 is INF:
        return P2
    if P2 is INF:
        return P1
    x1, y1 = P1
    x2, y2 = P2
    mul = lambda u, v: gf2_mul(u, v, mod, k)
    if x1 == x2:
        if y2 == x1 ^ y1 or x1 == 0:
            return INF
        lam = x1 ^ mul(y1, gf2_inv(x1, mod, k))
        x3 = mul(lam, lam) ^ lam ^ a2
    else:
        lam = mul(y1 ^ y2, gf2_inv(x1 ^ x2, mod, k))
        x3 = mul(lam, lam) ^ lam ^ x1 ^ x2 ^ a2
    y3 = mul(lam, x1 ^ x3) ^ x3 ^ y1
    return (x3, y3)


def char2_points(k, mod, a2, a6):
    """All affine points by scanning every (x, y) pair.  O(4^k), honest."""
    q = 2**k
    pts = []
    for x in range(q):
        for y in range(q):
            if char2_on(k, mod, a2, a6, (x, y)):
                pts.append((x, y))
    return pts


def char2_order(k, mod, a2, a6, P, cap=10_000):
    acc = P
    for n in range(1, cap + 1):
        if acc is INF:
            return n
        acc = char2_add(k, mod, a2, a6, acc, P)
    raise AssertionError("order exceeds cap")


# ---------------------------------------------------------------------------
# Halving and isomorphism by exhaustion
# ---------------------------------------------------------------------------

def halves_by_scan(points, double):
    """Map every point to the set of its halves, by doubling everything.

    ``points`` should include INF; ``double`` maps a point to its double.
    Returns a dict keyed by the doubled point.
    """
    out = {}
    for Q in points:
        out.setdefault(double(Q), set()).add(Q)
    return out


def iso_scan_alpha0(p, p1, q1, p2, q2):
    """All u in F_p^* with u^2*(x-coeff) and u^4*(const) matching.

    Curves with their single 2-torsion point moved to x = 0 are
    y^2 = x(x^2 + p*x + q); rescaling (x, y) -> (u^2 x, u^3 y) sends
    (p, q) to (u^2 p, u^4 q), and that exhausts the isomorphisms that
    preserve the marked 2-torsion point.
    """
    return [u for u in range(1, p)
            if (u * u * p1 - p2) % p == 0 and (u**4 * q1 - q2) % p == 0]


def iso_scan_e4(p, a, b, c, d):
    """u-scan for the order-4 family: curves y^2 = x(x^2+(a^2+2b)x+b^2)."""
    return iso_scan_alpha0(p, (a * a + 2 * b) % p, (b * b) % p,
                           (c * c + 2 * d) % p, (d * d) % p)


# ---------------------------------------------------------------------------
# j-invariant of a long Weierstrass form, as a standalone formula
# ---------------------------------------------------------------------------

def j_long_weierstrass(a1, a2, a3, a4, a6):
    """j of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Works on any inputs with ring ops and true division (Fraction,
    field elements).  Raises ZeroDivisionError on singular input.
    """
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4 * c4 * c4 / disc


# ---------------------------------------------------------------------------
# Misc small helpers
# ---------------------------------------------------------------------------

def small_primes(lo, hi):
    """Primes in [lo, hi] by trial division."""
    out = []
    for n in range(max(2, lo), hi + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def gf2_poly_irreducible(mod, k):
    """Trial-division irreducibility for a degree-k polynomial over F_2."""
    if mod >> k != 1:
        return False
    for d in range(1, k // 2 + 1):
        for low in range(2**d):
            f = (1 << d) | low
            # long division of mod by f over F_2
            r = mod
            while r.bit_length() >= f.bit_length():
                r ^= f << (r.bit_length() - f.bit_length())
            if r == 0:
                return False
    return True


def all_divisor_orders(n):
    """Divisors of n, used when confirming an order claim."""
    return sorted(d for d in range(1, n + 1) if n % d == 0)
