"""The prime-field kernel: square roots and the cubic group law on ints.

Everything here works on plain integers: a curve is the quadruple
``(p, A, B, C)`` for  y^2 = x^3 + A*x^2 + B*x + C  over F_p (p an odd prime),
an affine point is an ``(x, y)`` tuple with coordinates in [0, p), and the
point at infinity is ``None``.
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
