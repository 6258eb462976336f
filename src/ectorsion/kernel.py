"""The int kernel: the group law of both curve models on plain integers.

Everything here works on plain integers.  An affine point is an ``(x, y)``
tuple and the point at infinity is ``None``.

* Over F_p (p an odd prime) a curve is the quadruple ``(p, A, B, C)`` for
  y^2 = x^3 + A*x^2 + B*x + C, with coordinates in [0, p).
* Over GF(2^k) a curve is ``(k, modulus, a2, a6)`` for
  y^2 + x*y = x^3 + a2*x^2 + a6, with coordinates the bit-vectors below
  2^k of polynomials reduced by the irreducible ``modulus`` of degree k.

Callers check their inputs; nothing here re-checks that a point is on its
curve.
"""

from __future__ import annotations

BACKEND = "python"  # recorded with each benchmark run


def fp_is_square(a: int, p: int) -> bool:
    """Euler's criterion; 0 counts as a square."""
    a %= p
    if a == 0 or p == 2:
        return True
    return pow(a, (p - 1) // 2, p) == 1


def fp_sqrt(a: int, p: int) -> int:
    """Canonical square root of ``a`` mod ``p``, or -1 if none exists.

    The canonical root is the one in [0, p/2] (the smaller of the pair).
    Tonelli-Shanks in the general case, with the usual p % 4 == 3 shortcut.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return -1
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)

    # Write p - 1 = s * 2^e with s odd.
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    # Any quadratic non-residue will do as the twiddle base.
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1

    x = pow(a, (s + 1) // 2, p)
    b = pow(a, s, p)
    g = pow(n, s, p)
    r = e
    while True:
        t = b
        m = 0
        for m in range(r):
            if t == 1:
                break
            t = t * t % p
        if m == 0:
            return min(x, p - x)
        gs = pow(g, 1 << (r - m - 1), p)
        g = gs * gs % p
        x = x * gs % p
        b = b * g % p
        r = m


def cubic_neg(p, pt):
    if pt is None:
        return None
    x, y = pt
    return (x, (p - y) % p)


def cubic_add(p, A, B, C, pt1, pt2):
    """Chord-and-tangent addition on y^2 = x^3 + A x^2 + B x + C."""
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * A * x1 + B) * pow(2 * y1, p - 2, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (lam * lam - A - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def cubic_smul(p, A, B, C, n, pt):
    """n * pt by double-and-add (n may be negative)."""
    if n < 0:
        n, pt = -n, cubic_neg(p, pt)
    acc = None
    while n:
        if n & 1:
            acc = cubic_add(p, A, B, C, acc, pt)
        pt = cubic_add(p, A, B, C, pt, pt)
        n >>= 1
    return acc


def cubic_order(p, A, B, C, pt, cap) -> int:
    """Exact order of ``pt`` by iterated addition; 0 if it exceeds ``cap``."""
    if pt is None:
        return 1
    acc = pt
    n = 1
    while acc is not None:
        if n + 1 > cap:
            return 0  # even the next multiple is past the cap
        acc = cubic_add(p, A, B, C, acc, pt)
        n += 1
    return n


def cubic_points(p, A, B, C):
    """All affine points, ordered by x then y (infinity not included)."""
    pts = []
    for x in range(p):
        t = ((x * x + A * x + B) * x + C) % p
        if t == 0:
            pts.append((x, 0))
            continue
        r = fp_sqrt(t, p)
        if r >= 0:
            pts.append((x, r))
            pts.append((x, p - r))
    return pts


# perfbench/spans.py wraps the two bulk functions below; nothing in the package calls them.
def cubic_all_orders(p, A, B, C, cap):
    """Orders of every affine point, aligned with cubic_points()."""
    return [cubic_order(p, A, B, C, pt, cap) for pt in cubic_points(p, A, B, C)]


def cubic_double_all(p, A, B, C, pts):
    """Doubles of a list of affine points (entries may become None)."""
    return [cubic_add(p, A, B, C, pt, pt) for pt in pts]


# ---------------------------------------------------------------------------
# GF(2^k)
# ---------------------------------------------------------------------------


def gf2_mul(a: int, b: int, modulus: int, k: int) -> int:
    """Carry-less multiply of two bit-vectors, reduced mod ``modulus``."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> k & 1:
            a ^= modulus
    return r


def gf2_inv(a: int, modulus: int) -> int:
    """Inverse of a nonzero bit-vector by the extended Euclid algorithm in GF(2)[x].

    t0*r1 + t1*r0 = modulus holds throughout.  With k = deg(modulus), of the
    sums deg(t0) + deg(r1) and deg(t1) + deg(r0) one is k and the other
    below k, and r0 has the higher degree whenever the second is k.  So t1,
    at the step that zeroes r0 and makes it the answer, already has
    degree < k: no final reduction.
    """
    r0, r1 = modulus, a
    t0, t1 = 0, 1
    while r1:
        d = r0.bit_length() - r1.bit_length()
        if d < 0:
            r0, r1, t0, t1 = r1, r0, t1, t0
            continue
        r0 ^= r1 << d
        t0 ^= t1 << d
    return t0


# Log/antilog tables up to GF(2^10), bit-vector arithmetic above: the tables
# grow as 2^k, and at k = 20 would take about 1.3 s and 12 MiB to build.
_TABLE_MAX_K = 10


class _GF2k:
    """Int arithmetic of one GF(2^k): ``mul(a, b)`` and ``div(a, b)`` for b != 0.

    Up to k = _TABLE_MAX_K both go through log/antilog tables to the base
    of a primitive element g: ``log[g^i] = i`` and ``exp[i] = g^i``, with
    ``exp`` stored twice over so that neither needs a modulo (Lidl and
    Niederreiter, Finite Fields, ch. 9).  Above that, the bit-vector
    multiply and the Euclid inverse.
    """

    __slots__ = ("k", "log", "exp", "mul", "div", "_as_roots")

    def __init__(self, k: int, modulus: int):
        self.k = k
        self.log = self.exp = self._as_roots = None
        if k > _TABLE_MAX_K:
            self.mul = lambda a, b: gf2_mul(a, b, modulus, k)
            self.div = lambda a, b: gf2_mul(a, gf2_inv(b, modulus), modulus, k)
            return
        n = (1 << k) - 1
        for g in range(1, n + 1):  # x itself is not always primitive
            powers = [1]
            v = g
            while v != 1:
                powers.append(v)
                v = gf2_mul(v, g, modulus, k)
            if len(powers) == n:
                break
        exp = self.exp = powers + powers
        log = self.log = [0] * (n + 1)
        for i, v in enumerate(powers):
            log[v] = i
        self.mul = lambda a, b: exp[log[a] + log[b]] if a and b else 0
        self.div = lambda a, b: exp[log[a] - log[b] + n] if a else 0

    def as_roots(self) -> list:
        """``roots[c]``: the root of z^2 + z = c with bit 0 clear, or -1 if none."""
        if self._as_roots is None:
            mul = self.mul
            roots = [-1] * (1 << self.k)
            for z in range(0, 1 << self.k, 2):
                roots[mul(z, z) ^ z] = z
            self._as_roots = roots
        return self._as_roots


_GF2K_CONTEXTS = {}  # (k, modulus) -> _GF2k, built on a field's first curve kernel call


def _gf2k(k: int, modulus: int) -> _GF2k:
    F = _GF2K_CONTEXTS.get((k, modulus))
    if F is None:
        F = _GF2K_CONTEXTS[k, modulus] = _GF2k(k, modulus)
    return F


def _c2_add(F, a2, pt1, pt2):
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    x1, y1 = pt1
    x2, y2 = pt2
    mul, div = F.mul, F.div
    if x1 == x2:
        if y2 == x1 ^ y1 or not x1:  # pt2 = -pt1, or the 2-torsion point doubled
            return None
        lam = x1 ^ div(y1, x1)
        x3 = mul(lam, lam) ^ lam ^ a2
    else:
        lam = div(y1 ^ y2, x1 ^ x2)
        x3 = mul(lam, lam) ^ lam ^ x1 ^ x2 ^ a2
    return (x3, mul(lam, x1 ^ x3) ^ x3 ^ y1)


def c2_contains(k, modulus, a2, a6, pt) -> bool:
    """Whether ``pt`` satisfies y^2 + x*y = x^3 + a2*x^2 + a6, i.e. y(y + x) = x^2(x + a2) + a6."""
    if pt is None:
        return True
    x, y = pt
    mul = _gf2k(k, modulus).mul
    return mul(y, y ^ x) == mul(mul(x, x), x ^ a2) ^ a6


def c2_add(k, modulus, a2, a6, pt1, pt2):
    """Chord-and-tangent addition on y^2 + x*y = x^3 + a2*x^2 + a6."""
    return _c2_add(_gf2k(k, modulus), a2, pt1, pt2)


def c2_smul(k, modulus, a2, a6, n, pt):
    """n * pt by double-and-add (n may be negative)."""
    if n < 0:
        n, pt = -n, (None if pt is None else (pt[0], pt[0] ^ pt[1]))
    F = _gf2k(k, modulus)
    acc = None
    while n:
        if n & 1:
            acc = _c2_add(F, a2, acc, pt)
        pt = _c2_add(F, a2, pt, pt)
        n >>= 1
    return acc


def c2_double_x(k, modulus, a2, a6, xs) -> list:
    """x(2P) for each x = x(P) in ``xs``: x^2 + a6/x^2, whatever y(P) and a2.

    x = 0 is skipped: that point has order 2, and its double is O.  For
    x != 0 the tangent at P has slope lam = x + y/x, and x(2P) = lam^2 +
    lam + a2 reduces to x^2 + a6/x^2 once y^2 + x*y is replaced by the
    right-hand side.
    """
    F = _gf2k(k, modulus)
    mul, div = F.mul, F.div
    out = []
    for x in xs:
        if x:
            s = mul(x, x)
            out.append(s ^ div(a6, s))
    return out


def c2_order(k, modulus, a2, a6, pt, cap) -> int:
    """Exact order of ``pt`` by iterated addition; 0 if it exceeds ``cap``."""
    if pt is None:
        return 1
    F = _gf2k(k, modulus)
    acc = pt
    n = 1
    while acc is not None:
        if n + 1 > cap:
            return 0  # even the next multiple is past the cap
        acc = _c2_add(F, a2, acc, pt)
        n += 1
    return n


def c2_points(k, modulus, a2, a6):
    """All affine points (infinity not included).

    The 2-torsion point (0, sqrt(a6)) comes first, then the rest by x.  For
    x != 0, y = x*z turns the equation into z^2 + z = x + a2 + a6/x^2; of
    its two roots, the one with bit 0 clear gives the first point of the pair.
    """
    F = _gf2k(k, modulus)
    mul, div = F.mul, F.div
    roots = F.as_roots()
    s = a6
    for _ in range(k - 1):  # squaring is a bijection: sqrt(a6) = a6^(2^(k-1))
        s = mul(s, s)
    pts = [(0, s)]
    for x in range(1, 1 << k):
        z = roots[x ^ a2 ^ div(a6, mul(x, x))]
        if z >= 0:
            y = mul(x, z)
            pts += ((x, y), (x, y ^ x))
    return pts
