"""The kernel: the group law of every curve model on raw coordinates.

An affine point is an ``(x, y)`` tuple and the point at infinity is
``None``.  Each model's functions take its constants tuple ``c`` first:

* ``cubic_*``: y^2 = x^3 + A*x^2 + B*x + C over F_p, ``c = (p, A, B, C)``.
* ``c2_*``: y^2 + x*y = x^3 + a2*x^2 + a6 over GF(2^k), ``c = (F, a2, a6)``,
  on bit-vectors below 2^k, with ``F`` the ``_GF2k`` context of the field.
* ``qq_*``: the cubic over Q, ``c = (A, B, C)``, on ``Fraction``s;
  ``qq_contains`` and ``qq_tangent`` compare cross-multiplied integers
  on the Fractions' parts, with no gcd and no Fraction built.

A model codes only ``contains``, ``add``, ``neg`` and ``tangent``, which
checks with no division that a slope is the tangent's at a half of a point;
its ``*_smul`` and ``*_order`` pass ``add`` and ``neg``, read from this
module when called, to the loops all models share; ``qq_order`` alone runs
its own, which stops at Mazur's bound or at the first multiple that
Nagell-Lutz rules out of the torsion.
``_multiples``, the shared iterated addition, compares each multiple with
the negations of itself and of the one before, so that an order n shows
after ceil(n/2) multiples.  It is both the order search's first stage and
its baby steps, and hands a witness's multiples to ``families``.
``_smul`` stops at the first doubling that gives the point at infinity.
F_p inverts by Euclid (``pow(v, -1, p)``); ``fp_sqrt`` keeps each prime's
Tonelli-Shanks constants.  ``*_contains`` is the package's one point
check, which callers run at their boundary; nothing else here re-checks it.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import accumulate
from math import isqrt, lcm

from .errors import VerificationError

BACKEND = "python"  # recorded with each benchmark run


def fp_is_square(a: int, p: int) -> bool:
    """Euler's criterion; 0 counts as a square."""
    a %= p
    if a == 0 or p == 2:
        return True
    return pow(a, (p - 1) // 2, p) == 1


@lru_cache(maxsize=32)
def _tonelli_shanks(p: int) -> tuple:
    """(s, e, z) with p - 1 = s * 2^e, s odd, and z = n^s for the least
    non-residue n: a square root's costliest part, kept for 32 primes p = 1 mod 4."""
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    return s, e, pow(n, s, p)


def fp_sqrt(a: int, p: int) -> int:
    """Canonical square root of ``a`` mod ``p``, or -1 if none exists.

    The canonical root is the one in [0, p/2] (the smaller of the pair).
    At p = 3 mod 4 it is a^((p+1)/4) when that squares to a.  Otherwise
    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 1.5.1) on the per-prime ``_tonelli_shanks(p)``: one power
    t = a^((s-1)/2) gives x = a t and b = a^s = x t; a is a non-residue iff
    b has order 2^e, which the loop finds with no Euler test first.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r) if r * r % p == a else -1

    s, r, z = _tonelli_shanks(p)
    t = pow(a, (s - 1) // 2, p)
    x = a * t % p
    b = x * t % p
    while b != 1:
        # The least m with b^(2^m) = 1.  For a square b^(2^(r-1)) = 1 throughout,
        # so m = r marks a non-residue.
        m, t = 0, b
        while t != 1:
            t = t * t % p
            m += 1
        if m == r:
            return -1
        t = pow(z, 1 << (r - m - 1), p)
        z = t * t % p
        x = x * t % p
        b = b * z % p
        r = m
    return min(x, p - x)


# ---------------------------------------------------------------------------
# The loops every model shares
# ---------------------------------------------------------------------------

# No point of finite order over Q has order above 12 (Mazur, Publ. Math. IHES 47, 1977).
_MAZUR_BOUND = 12


def _smul(add, neg, c, n, pt):
    """n * pt by double-and-add (n may be negative).  Once a doubling of pt
    gives None, every later term would add None: the loop stops there."""
    if n < 0:
        n, pt = -n, neg(c, pt)
    acc = None
    while n:
        if n & 1:
            acc = add(c, acc, pt)
        n >>= 1
        if n:
            pt = add(c, pt, pt)
            if pt is None:
                break
    return acc


def _multiples(add, neg, c, pt, length) -> tuple:
    """(mults, n): mults = [pt, 2pt, ..., j*pt] by iterated addition, and n
    the exact order of ``pt`` once it shows, else 0.

    Each multiple is compared with the negations of itself and of the one
    before: j*pt = -(j - 1)*pt gives order 2j - 1, and j*pt = -j*pt order
    2j.  The first j that can match is ceil(n/2), and no earlier j matches,
    as both sums are then nonzero multiples below n.  So the loop stops
    after ceil(n/2) multiples (ceil(n/2) - 1 additions), or at the
    ``length``-th with n = 0: the order then exceeds 2 * length.
    """
    out = [pt]
    prev, acc = None, pt
    while True:
        j = len(out)
        if acc == neg(c, prev):  # checked first: pt = None matches both, and has order 1
            return out, 2 * j - 1
        if acc == neg(c, acc):
            return out, 2 * j
        if j == length:
            return out, 0
        prev, acc = acc, add(c, acc, pt)
        out.append(acc)


def _hasse_interval(q: int) -> tuple:
    """[q + 1 - floor(2*sqrt(q)), q + 1 + ceil(2*sqrt(q))]: #E(F_q) lies here (Hasse)."""
    r = isqrt(4 * q)
    return q + 1 - r, q + 1 + r + (r * r < 4 * q)


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n >= 1, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _order(add, neg, c, pt, q) -> int:
    """Exact order of ``pt`` on a curve over a field of q elements.

    Orders up to 2m, m = max(isqrt((hi - lo) // 4) + 1, _MAZUR_BOUND), come
    from the m multiples of ``_multiples``, and a larger one from
    ``_order_bsgs`` in O(q^(1/4)) additions, with the same m multiples as
    its baby steps.  A giant step covers 2m + 1 of the Hasse interval, so
    about m giant steps are expected: the two stages balance.
    """
    lo, hi = _hasse_interval(q)
    mults, n = _multiples(add, neg, c, pt, max(isqrt((hi - lo) // 4) + 1, _MAZUR_BOUND))
    return n or _order_bsgs(add, neg, c, mults, lo, hi)


def _order_bsgs(add, neg, c, mults, lo, hi) -> int:
    """Order of pt on a curve with #E in [lo, hi], given its m multiples
    ``mults`` = [pt, ..., m*pt], none of them None (the order exceeds 2m).

    Shanks-Mestre baby-step giant-step: #E kills pt, so some giant step
    e*pt, e = lo + m + i(2m + 1), equals +-j*pt with 0 <= j <= m, and
    M = e -+ j is a multiple of the order.  The baby steps are keyed by
    x, which pt and -pt share.  Each prime l is then stripped from M while
    (M/l)*pt = O.
    """
    pt, m = mults[0], len(mults)
    baby = {}
    for j, R in enumerate(mults, 1):
        baby.setdefault(R[0], (j, R[1]))
    step = _smul(add, neg, c, 2 * m + 1, pt)
    e = lo + m
    G = _smul(add, neg, c, e, pt)
    while e - m <= hi:
        if G is None:
            M = e
            break
        hit = baby.get(G[0])
        if hit is not None:
            j, y = hit
            M = e - j if G[1] == y else e + j
            break
        G = add(c, G, step)
        e += 2 * m + 1
    else:
        raise VerificationError(f"no multiple of the order of {pt!r} in [{lo}, {hi}]")
    for ell in _prime_factors(M):
        while M % ell == 0 and _smul(add, neg, c, M // ell, pt) is None:
            M //= ell
    if _smul(add, neg, c, M, pt) is not None:
        raise VerificationError(f"{M} * {pt!r} is not the point at infinity")
    return M


# ---------------------------------------------------------------------------
# F_p
# ---------------------------------------------------------------------------


def cubic_contains(c, pt) -> bool:
    """Whether ``pt`` satisfies y^2 = x^3 + A x^2 + B x + C."""
    if pt is None:
        return True
    p, A, B, C = c
    x, y = pt
    return (y * y - ((x + A) * x + B) * x - C) % p == 0


def cubic_neg(c, pt):
    return None if pt is None else (pt[0], -pt[1] % c[0])


def cubic_add(c, pt1, pt2):
    """Chord-and-tangent addition on y^2 = x^3 + A x^2 + B x + C."""
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    p, A, B, _ = c
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * A * x1 + B) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - A - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def cubic_tangent(c, q, lam, pt) -> bool:
    """Whether the tangent at the affine point q has slope lam and meets the
    curve again at -pt, i.e. 2q = pt, with no division: 2*y1*lam = 3*x1^2 +
    2*A*x1 + B, x0 = lam^2 - A - 2*x1 and y0 = lam*(x1 - x0) - y1.  The first
    fails at y1 = 0, where the curve is smooth and 3*x1^2 + 2*A*x1 + B != 0."""
    p, A, B, _ = c
    x1, y1 = q
    x0, y0 = pt
    return (not (2 * y1 * lam - (3 * x1 + 2 * A) * x1 - B) % p
            and not (lam * lam - A - 2 * x1 - x0) % p
            and not (lam * (x1 - x0) - y1 - y0) % p)


def cubic_smul(c, n, pt):
    return _smul(cubic_add, cubic_neg, c, n, pt)


def cubic_order(c, pt) -> int:
    return _order(cubic_add, cubic_neg, c, pt, c[0])


def cubic_points(c):
    """All affine points, ordered by x then y (infinity not included)."""
    p, A, B, C = c
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
def cubic_all_orders(c):
    """Orders of every affine point, aligned with cubic_points()."""
    return [cubic_order(c, pt) for pt in cubic_points(c)]


def cubic_double_all(c, pts):
    """Doubles of a list of affine points (entries may become None)."""
    return [cubic_add(c, pt, pt) for pt in pts]


# ---------------------------------------------------------------------------
# Q
# ---------------------------------------------------------------------------


def qq_contains(c, pt) -> bool:
    """Whether ``pt`` satisfies y^2 = x^3 + A x^2 + B x + C, on the parts of
    its Fractions: no gcd, no Fraction built.

    With L the lcm of the denominators of A, B and C, and a = A*L, b = B*L,
    c0 = C*L integers, x = xn/xd and y = yn/yd lie on the curve iff
    yn^2 * xd^3 * L = yd^2 * (((xn*L + a*xd)*xn + b*xd^2)*xn + c0*xd^3),
    the equation times yd^2 * xd^3 * L > 0.
    """
    if pt is None:
        return True
    A, B, C = c
    x, y = pt
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    Ad, Bd, Cd = A.denominator, B.denominator, C.denominator
    L = lcm(Ad, Bd, Cd)
    a, b, c0 = A.numerator * (L // Ad), B.numerator * (L // Bd), C.numerator * (L // Cd)
    xd2 = xd * xd
    xd3 = xd2 * xd
    return yn * yn * xd3 * L == yd * yd * (((xn * L + a * xd) * xn + b * xd2) * xn + c0 * xd3)


def qq_neg(c, pt):
    return None if pt is None else (pt[0], -pt[1])


def qq_add(c, pt1, pt2):
    """Chord-and-tangent addition on y^2 = x^3 + A x^2 + B x + C, on Fractions."""
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    A, B, _ = c
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2:
        if y1 + y2 == 0:
            return None
        lam = (3 * x1 * x1 + 2 * A * x1 + B) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - A - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def qq_tangent(c, q, lam, pt) -> bool:
    """``cubic_tangent``'s three identities on the parts of the Fractions:
    no gcd, no Fraction built.  Each, with its terms moved across as in the
    comments, is compared as n1*d2 == n2*d1 on unreduced pairs; A and B
    enter as a/L and b/L, L the lcm of their denominators."""
    A, B, _ = c
    xn, xd, yn, yd = q[0].numerator, q[0].denominator, q[1].numerator, q[1].denominator
    ln, ld = lam.numerator, lam.denominator
    un, ud, vn, vd = pt[0].numerator, pt[0].denominator, pt[1].numerator, pt[1].denominator
    Ad, Bd = A.denominator, B.denominator
    L = lcm(Ad, Bd)
    a, b = A.numerator * (L // Ad), B.numerator * (L // Bd)
    xd2, ld2, xu = xd * xd, ld * ld, xd * ud
    # 2*y1*lam = (3*x1 + 2*A)*x1 + B
    if 2 * yn * ln * (xd2 * L) != ((3 * L * xn + 2 * a * xd) * xn + b * xd2) * (yd * ld):
        return False
    # lam^2 - 2*x1 - x0 = A
    if (ln * ln * xu - (2 * xn * ud + un * xd) * ld2) * L != a * (ld2 * xu):
        return False
    # lam*(x1 - x0) = y1 + y0
    return ln * (xn * ud - un * xd) * (yd * vd) == (yn * vd + vn * yd) * (ld * xu)


def qq_smul(c, n, pt):
    return _smul(qq_add, qq_neg, c, n, pt)


def cubic_disc(A, B, C):
    """The discriminant of x^3 + A x^2 + B x + C, raw and unreduced; the curve's is 16 times it."""
    return A * A * B * B - 4 * B**3 - 4 * A**3 * C - 27 * C * C + 18 * A * B * C


def qq_order(c, pt) -> int:
    """Exact order of ``pt`` by iterated addition; 0 if it is infinite.

    The order shows as in ``_multiples``: j*pt = -(j - 1)*pt gives 2j - 1,
    and y(j*pt) = 0 gives 2j.  Two rules stop the loop before that.  A point
    not killed by its 12th multiple has infinite order (Mazur), so none
    needs a j above 6.  And (x, y) -> (u^2 x, u^3 y), u the lcm of the
    denominators of A, B and C, maps the curve onto y^2 = x^3 + a x^2 + b x
    + c with integer a, b, c and discriminant D.  There a point of finite
    order has integer coordinates, and y = 0 or y | D (Nagell-Lutz;
    Silverman and Tate, Rational Points on Elliptic Curves, ch. II), so the
    loop stops at the first multiple that breaks this, before any number in
    it outgrows D.
    """
    A, B, C = c
    u = lcm(A.denominator, B.denominator, C.denominator)
    u2 = u * u
    u3 = u2 * u
    a, b, c0 = int(A * u2), int(B * u2 * u2), int(C * u2 * u2 * u2)
    D = cubic_disc(a, b, c0)
    j, prev, acc = 1, None, pt
    while True:
        if acc == qq_neg(c, prev):
            return 2 * j - 1
        x, y = acc
        if not y:
            return 2 * j
        if 2 * j >= _MAZUR_BOUND or u2 % x.denominator or u3 % y.denominator:
            return 0
        if D % (y.numerator * (u3 // y.denominator)):
            return 0
        prev, acc = acc, qq_add(c, acc, pt)
        j += 1


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


def gf2_polymod(a: int, m: int) -> int:
    """The remainder of the bit-vector ``a`` modulo ``m`` in GF(2)[x]."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def gf2_inv(a: int, modulus: int) -> int:
    """Inverse of a nonzero bit-vector by the extended Euclid algorithm in GF(2)[x].

    The one-branch loop of Hankerson, Menezes and Vanstone, Guide to
    Elliptic Curve Cryptography, Alg. 2.48: g1*a = u and g2*a = v mod the
    modulus.  g1*v + g2*u = modulus holds throughout, and with k =
    deg(modulus), at the top of the loop deg(g1) + deg(v) = k > deg(g2) +
    deg(u).  (A swap makes it deg(g2) + deg(u) = k > deg(g1) + deg(v); the
    step then gives g1 the degree of x^j*g2, k - deg(v), and lowers deg(u).
    Without a swap, x^j*g2 has degree below deg(g1), which the step keeps.)
    v is the modulus or an earlier u, never 0 (u and v stay coprime, so u = 0
    would need v = 1) and never 1 (u = 1 ends the loop).  So deg(v) >= 1, and
    at u = 1 the answer g1 has degree k - deg(v) < k: no final reduction.
    The modulus must be irreducible, as every field's is, or a u sharing a
    factor with it would never reach 1.
    """
    u, v, g1, g2 = a, modulus, 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v = v, u
            g1, g2 = g2, g1
            j = -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


# Log/antilog tables up to GF(2^10), limb-table products above: the log
# tables grow as 2^k, and at k = 20 would take about 1.3 s and 12 MiB to build.
_TABLE_MAX_K = 10


def _span(images) -> tuple:
    """(lo, hi): the map taking bit j to ``images[j]`` sends c to lo[c & 2047] ^ hi[c >> 11]."""
    lo, hi = [0], [0]
    for j, v in enumerate(images):
        t = lo if j < 11 else hi
        t += [u ^ v for u in t]
    return lo, hi


@cache
def _limb_products() -> list:
    """T[a << 7 | b], the carry-less product of 7-bit limbs a and b: 16,384
    entries, built by the first context above _TABLE_MAX_K and shared by all."""
    T = []
    for a in range(128):
        row = [0]
        for j in range(7):
            row += [u ^ a << j for u in row]
        T += row
    return T


class _GF2k:
    """Int arithmetic of one GF(2^k): ``mul(a, b)``, ``div(a, b)`` for b != 0,
    ``sq(c)``, ``sqrt(c)``, ``trace(c)`` and ``solve(c)``, the root of
    z^2 + z = c with bit 0 clear or -1.  The package has no other.

    Up to k = _TABLE_MAX_K mul and div go through log/antilog tables to the base
    of a primitive element g: ``log[g^i] = i`` and ``exp[i] = g^i``, with
    ``exp`` stored twice over so that neither needs a modulo (Lidl and
    Niederreiter, Finite Fields, ch. 9).  Above that, mul splits each operand
    into three 7-bit limbs, XORs the nine limb products of ``_limb_products()``
    into the unreduced product, and reduces its bits k and up, an F_2-linear
    map, through ``_span`` tables of x^(k+j) mod the modulus (Hankerson,
    Menezes and Vanstone, Guide to Elliptic Curve Cryptography, 2.3); div is
    mul by the Euclid inverse.  sq, sqrt and c -> solve(c) + Tr(c)*2^k are
    F_2-linear too, so each is read from ``_span`` tables (at most 2048 + 512
    entries).  The constructor checks every table on a basis.
    """

    __slots__ = ("k", "log", "exp", "mul", "div", "sq", "sqrt", "trace", "solve", "as_lo", "as_hi")

    def __init__(self, k: int, modulus: int):
        self.k = k
        self.log = self.exp = None
        xp = [1]  # x^i mod the modulus, i <= 2k - 2, by shifts
        for _ in range(2 * k - 2):
            v = xp[-1] << 1
            xp.append(v ^ modulus if v >> k else v)
        if k > _TABLE_MAX_K:
            T, mask = _limb_products(), (1 << k) - 1
            rl, rh = _span(xp[k:])
            for j in range(k - 1):
                r = rl[1 << j & 2047] ^ rh[1 << j >> 11]
                if r != gf2_polymod(1 << k + j, modulus):
                    raise VerificationError(
                        f"GF(2^{k}) mod {modulus:#x}: wrong reduction of x^{k + j}"
                    )

            def mul(a, b):
                a0, a1, a2 = (a & 127) << 7, (a >> 7 & 127) << 7, a >> 14 << 7
                b0, b1, b2 = b & 127, b >> 7 & 127, b >> 14
                p = (
                    T[a0 | b0]
                    ^ (T[a0 | b1] ^ T[a1 | b0]) << 7
                    ^ (T[a0 | b2] ^ T[a1 | b1] ^ T[a2 | b0]) << 14
                    ^ (T[a1 | b2] ^ T[a2 | b1]) << 21
                    ^ T[a2 | b2] << 28
                )
                h = p >> k
                return p & mask ^ rl[h & 2047] ^ rh[h >> 11]

            self.mul = mul
            self.div = lambda a, b: mul(a, gf2_inv(b, modulus))
        else:
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
        mul = self.mul
        ql, qh = _span(xp[::2])
        sq = self.sq = lambda c: ql[c & 2047] ^ qh[c >> 11]
        for j in range(k):
            if sq(1 << j) != mul(1 << j, 1 << j):
                raise VerificationError(f"GF(2^{k}) mod {modulus:#x}: wrong square of x^{j}")
        s = 2  # sqrt(x) = x^(2^(k-1)), and sqrt(x^j) = s^j
        for _ in range(k - 1):
            s = sq(s)
        sl, sh = _span(list(accumulate([s] * (k - 1), mul, initial=1)))
        self.sqrt = lambda c: sl[c & 2047] ^ sh[c >> 11]

        # The image of z -> z^2 + z (kernel {0, 1}) is the trace-0 elements.
        # Reduced by an echelon basis of it (leading bit -> (vector,
        # preimage)) and by 2^b, for the one bit b leading none, bit j goes
        # to z + t*2^k with 2^j = z^2 + z + t*2^b, so that t = Tr(2^j).
        pivots = {}

        def eliminate(cur, pre=0):
            while cur.bit_length() - 1 in pivots:
                pc, pp = pivots[cur.bit_length() - 1]
                cur, pre = cur ^ pc, pre ^ pp
            return cur, pre

        for e in (1 << j for j in range(1, k)):  # 1 is in the kernel: z has bit 0 clear
            cur, pre = eliminate(sq(e) ^ e, e)
            pivots[cur.bit_length() - 1] = (cur, pre)
        b = min(set(range(k)) - set(pivots))
        pivots[b] = (1 << b, 1 << k)
        lo, hi = self.as_lo, self.as_hi = _span([eliminate(1 << j)[1] for j in range(k)])
        self.trace = lambda c: (lo[c & 2047] ^ hi[c >> 11]) >> k
        self.solve = lambda c: -1 if (z := lo[c & 2047] ^ hi[c >> 11]) >> k else z

        for c in (1 << j for j in range(k)):
            r, z, t = self.sqrt(c), (lo[c & 2047] ^ hi[c >> 11]) & ~(1 << k), self.trace(c)
            if sq(r) != c or sq(z) ^ z != c ^ t << b or z & 1:
                raise VerificationError(
                    f"GF(2^{k}) mod {modulus:#x}: wrong square root or root of {c:#x}"
                )
        # Each c + trace(c)*2^b is now some z^2 + z, of trace 0, so Tr(c) =
        # trace(c) * Tr(2^b) for every c: the traces are right iff Tr(2^b) = 1.
        v = tr = 1 << b
        for _ in range(k - 1):
            v = sq(v)
            tr ^= v
        if tr != 1:
            raise VerificationError(f"GF(2^{k}) mod {modulus:#x}: Tr(2^{b}) = {tr:#x}, not 1")


# Built by a field's first curve or arithmetic call; the 32 most recently
# used are kept, as a context holds up to about 0.4 MB (k = 20).
_gf2k = lru_cache(maxsize=32)(_GF2k)


def c2_neg(c, pt):
    return None if pt is None else (pt[0], pt[0] ^ pt[1])


def c2_add(c, pt1, pt2):
    """Chord-and-tangent addition on y^2 + x*y = x^3 + a2*x^2 + a6."""
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    F, a2, _ = c
    x1, y1 = pt1
    x2, y2 = pt2
    div = F.div
    if x1 == x2:
        if y2 == x1 ^ y1 or not x1:  # pt2 = -pt1, or the 2-torsion point doubled
            return None
        lam = x1 ^ div(y1, x1)
        x3 = F.sq(lam) ^ lam ^ a2
    else:
        lam = div(y1 ^ y2, x1 ^ x2)
        x3 = F.sq(lam) ^ lam ^ x1 ^ x2 ^ a2
    return (x3, F.mul(lam, x1 ^ x3) ^ x3 ^ y1)


def c2_tangent(c, q, lam, pt) -> bool:
    """Whether the tangent at the affine point q has slope lam and meets the
    curve again at -pt, i.e. 2q = pt, with no division: x1*lam = x1^2 + y1,
    x0 = lam^2 + lam + a2 and y0 = x1^2 + (lam + 1)*x0 (the doubling of
    ``c2_add`` multiplied out).  The first fails at x1 = 0, where y1^2 = a6
    is nonzero."""
    F, a2, _ = c
    x1, y1 = q
    x0, y0 = pt
    s = F.sq(x1)
    return (F.mul(x1, lam) == s ^ y1
            and F.sq(lam) ^ lam ^ a2 == x0
            and s ^ F.mul(lam ^ 1, x0) == y0)


def c2_smul(c, n, pt):
    return _smul(c2_add, c2_neg, c, n, pt)


def c2_order(c, pt) -> int:
    return _order(c2_add, c2_neg, c, pt, 1 << c[0].k)


def c2_contains(c, pt) -> bool:
    """Whether ``pt`` satisfies y^2 + x*y = x^3 + a2*x^2 + a6, i.e. y(y + x) = x^2(x + a2) + a6."""
    if pt is None:
        return True
    F, a2, a6 = c
    x, y = pt
    return F.mul(y, y ^ x) == F.mul(F.sq(x), x ^ a2) ^ a6


def c2_double_x(c, xs) -> list:
    """x(2P) for each x = x(P) in ``xs``: x^2 + a6/x^2, whatever y(P) and a2.

    x = 0 is skipped: that point has order 2, and its double is O.  For
    x != 0 the tangent at P has slope lam = x + y/x, and x(2P) = lam^2 +
    lam + a2 reduces to x^2 + a6/x^2 once y^2 + x*y is replaced by the
    right-hand side.
    """
    F, _, a6 = c
    sq, div = F.sq, F.div
    out = []
    for x in xs:
        if x:
            s = sq(x)
            out.append(s ^ div(a6, s))
    return out


def c2_points(c):
    """All affine points (infinity not included).

    The 2-torsion point (0, sqrt(a6)) comes first, then the rest by x.  For
    x != 0, y = x*z turns the equation into z^2 + z = x + a2 + a6/x^2; of
    its two roots, the one with bit 0 clear gives the first point of the pair.
    """
    F, a2, a6 = c
    k, lo, hi = F.k, F.as_lo, F.as_hi
    pts = [(0, F.sqrt(a6))]
    if F.log is None:
        mul, sq, div = F.mul, F.sq, F.div
        for x in range(1, 1 << k):
            c = x ^ a2 ^ div(a6, sq(x))
            z = lo[c & 2047] ^ hi[c >> 11]  # F.solve(c), inline
            if not z >> k:
                y = mul(x, z)
                pts += ((x, y), (x, y ^ x))
        return pts
    # The same loop on the log/antilog tables: a6/x^2 and x*z by exponents.
    # It stays because it pays: one loop for every k through the context's
    # solve raised char2_census task_p99_ms 0.404 -> 0.49 ms (5 alternating
    # 10 s pairs, seed 1, 2-vCPU x86_64, Python 3.11).
    exp, log, n = F.exp, F.log, (1 << k) - 1
    la6 = log[a6]
    for x in range(1, n + 1):
        lx = log[x]
        c = x ^ a2 ^ exp[(la6 - 2 * lx) % n]
        z = lo[c & 2047] ^ hi[c >> 11]
        if not z >> k:
            y = exp[lx + log[z]] if z else 0
            pts += ((x, y), (x, y ^ x))
    return pts
