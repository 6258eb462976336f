"""Curve models, the group law, point orders, and 2-torsion enumeration.

Two models cover every characteristic:

* ``CubicCurve``  — y^2 = (x - alpha) * (x^2 + p*x + q) over a field of
  characteristic != 2, kept in factored shape because every halving
  criterion is phrased against the marked 2-torsion point W3 = (alpha, 0).
* ``Char2Curve``  — y^2 + x*y = x^3 + a2*x^2 + a6 over GF(2^k) with a6 != 0
  (the ordinary case, j = 1/a6 != 0).

Points are immutable; the curve is always an explicit argument, so using a
point with the wrong curve is a loud ``OffCurve`` instead of silent garbage.
Over F_p and GF(2^k) the group law, scalar multiples, short order searches
and full enumerations run on plain ints through ``kernel``; only a cubic
curve over Q works on field elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, List, Optional, Tuple

from . import kernel
from .errors import FieldTooLarge, InvalidParams, OffCurve, SingularCurve, VerificationError
from .field import (
    BinaryField,
    Field,
    FieldElement,
    PrimeField,
    Rationals,
    field_from_descriptor,
)
from .quadratic import QuadraticPoly

__all__ = [
    "Point",
    "TorsionWitness",
    "CubicCurve",
    "Char2Curve",
    "curve_from_json",
    "element_to_json",
    "element_from_json",
    "point_to_json",
    "point_from_json",
]

_ENUM_LIMIT = 1 << 16  # largest field we will sweep exhaustively


@dataclass(frozen=True, slots=True)
class Point:
    """An affine point (x, y) or the point at infinity (x = y = None)."""

    x: Optional[FieldElement] = None
    y: Optional[FieldElement] = None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise InvalidParams("affine points need both coordinates")

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    @classmethod
    def infinity(cls) -> "Point":
        return cls(None, None)

    def __repr__(self):
        if self.is_infinity:
            return "infinity"
        return f"({self.x.field.format_element(self.x)}, {self.y.field.format_element(self.y)})"


@dataclass(frozen=True, slots=True)
class TorsionWitness:
    """A point with a claimed order and the result of replaying the claim."""

    point: Point
    claimed_order: int
    verified: bool
    note: str = ""

    def to_json_dict(self, field: Field) -> dict:
        d = {
            "point": point_to_json(self.point),
            "order": self.claimed_order,
            "verified": self.verified,
        }
        if self.note:
            d["note"] = self.note
        return d


def element_to_json(e: FieldElement) -> str:
    return e.field.format_element(e)


def element_from_json(field: Field, v) -> FieldElement:
    if isinstance(v, str):
        return field.parse_element(v)
    if isinstance(v, int):
        return field.element(v)
    raise InvalidParams(f"cannot read a field element from {v!r}")


def point_to_json(P: Point):
    if P.is_infinity:
        return "infinity"
    return {"x": element_to_json(P.x), "y": element_to_json(P.y)}


def point_from_json(field: Field, obj) -> Point:
    if obj == "infinity" or obj is None:
        return Point.infinity()
    if not isinstance(obj, dict) or set(obj) != {"x", "y"}:
        raise InvalidParams(f"point JSON must be \"infinity\" or {{'x','y'}}, got {obj!r}")
    return Point(element_from_json(field, obj["x"]), element_from_json(field, obj["y"]))


def _hasse_interval(q: int) -> Tuple[int, int]:
    """[q + 1 - floor(2*sqrt(q)), q + 1 + ceil(2*sqrt(q))]: #E(F_q) lies here (Hasse)."""
    r = isqrt(4 * q)
    return q + 1 - r, q + 1 + r + (r * r < 4 * q)


def _prime_factors(n: int) -> List[int]:
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


_MAZUR_BOUND = 12  # no point of finite order over Q has order above 12 (Mazur)


def _default_cap(field: Field, cap: Optional[int] = None) -> int:
    """The order search's cap: ``cap`` once checked, else past every possible order.

    Over Q the cap never exceeds Mazur's bound: a point not killed by then
    has infinite order, and further additions only grow the heights.
    """
    if cap is not None and cap < 1:
        raise InvalidParams(f"the order cap must be at least 1, got {cap}")
    q = field.order
    if cap is None:  # over a finite field, safely past the Hasse interval
        return _MAZUR_BOUND if q is None else 2 * _hasse_interval(q)[1]
    return min(cap, _MAZUR_BOUND) if q is None else cap


class _CurveBase:
    """Shared plumbing: boundary checks, the kernel hook, order search.

    A curve over a finite field holds the four curve parameters its kernel
    functions take in ``_kp``, and its class names those functions in
    ``_K_ADD`` .. ``_K_POINTS`` (``cubic_*`` or ``c2_*``), looked up on each
    call so that a wrapped or patched kernel function is the one that runs.
    The methods below convert points to ints, call the kernel and convert
    back.  They pass the parameters unpacked: a starred call costs about
    0.3 us more, and a family sweep makes one such call per witness.
    ``_kp`` is None only over Q, where ``CubicCurve._add`` works on field
    elements and the loops below run on top of it.
    """

    field: Field
    _kp: Optional[tuple]
    _K_ADD: str
    _K_SMUL: str
    _K_ORDER: str
    _K_POINTS: str

    def contains(self, P: Point) -> bool:
        raise NotImplementedError

    def _check(self, P: Point) -> Point:
        if not isinstance(P, Point):
            raise OffCurve(f"expected a Point, got {P!r}")
        if not P.is_infinity and P.x.field != self.field:
            raise OffCurve(
                f"point over {P.x.field.descriptor}, curve over {self.field.descriptor}"
            )
        if not self.contains(P):
            raise OffCurve(f"{P!r} does not satisfy the curve equation")
        return P

    def _add(self, P: Point, Q: Point) -> Point:
        """The group law on points already known to be on this curve."""
        c0, c1, c2, c3 = self._kp
        r = getattr(kernel, self._K_ADD)(c0, c1, c2, c3, _pt_ints(P), _pt_ints(Q))
        return _pt_from_ints(self.field, r)

    def add(self, P: Point, Q: Point) -> Point:
        raise NotImplementedError

    def negate(self, P: Point) -> Point:
        raise NotImplementedError

    def double(self, P: Point) -> Point:
        P = self._check(P)
        return self._add(P, P)

    def _smul(self, n: int, P: Point) -> Point:
        """n*P for n >= 0 by double-and-add, P already known to be on this curve."""
        if self._kp is not None:
            c0, c1, c2, c3 = self._kp
            r = getattr(kernel, self._K_SMUL)(c0, c1, c2, c3, n, _pt_ints(P))
            return _pt_from_ints(self.field, r)
        R = Point.infinity()
        while n:
            if n & 1:
                R = self._add(R, P)
            P = self._add(P, P)
            n >>= 1
        return R

    def scalar_mul(self, n: int, P: Point) -> Point:
        P = self.negate(P) if n < 0 else self._check(P)
        return self._smul(abs(n), P)

    def _order_upto(self, P: Point, cap: int) -> Optional[int]:
        """Order of P by iterated addition if it is at most cap, else None."""
        if self._kp is not None:
            c0, c1, c2, c3 = self._kp
            return getattr(kernel, self._K_ORDER)(c0, c1, c2, c3, _pt_ints(P), cap) or None
        R = P
        for n in range(1, cap + 1):
            if R.is_infinity:
                return n
            R = self._add(R, P)
        return None

    def order_of(self, P: Point, cap: Optional[int] = None) -> Optional[int]:
        """Exact order of P, or None when it exceeds the cap.

        Over a finite field, orders up to m = max(isqrt(hi - lo) + 1, 12)
        come from iterated addition; a larger order costs O(q^(1/4)) group
        operations (see ``_order_bsgs``), whatever the cap.  Over Q, iterated
        addition runs up to the cap or 12, whichever is smaller.
        """
        cap = _default_cap(self.field, cap)
        self._check(P)
        q = self.field.order
        if q is None:
            return self._order_upto(P, cap)
        lo, hi = _hasse_interval(q)
        m = max(isqrt(hi - lo) + 1, 12)
        n = self._order_upto(P, min(cap, m))
        if n is not None or cap <= m:
            return n
        n = self._order_bsgs(P, lo, hi, m)
        return n if n <= cap else None

    def _order_bsgs(self, P: Point, lo: int, hi: int, m: int) -> int:
        """Order of P, known to exceed m, on a curve with #E in [lo, hi].

        Shanks-Mestre baby-step giant-step: #E kills P, so some giant step
        c*P, c = lo + m + i(2m + 1), equals +-j*P with 0 <= j <= m, and
        M = c -+ j is a multiple of the order.  The baby steps are keyed by
        x, which P and -P share.  Each prime l is then stripped from M while
        (M/l)*P = O.
        """
        baby = {}
        R = P
        for j in range(1, m + 1):
            baby.setdefault(R.x.value, (j, R.y.value))
            R = self._add(R, P)
        step = self._smul(2 * m + 1, P)
        c = lo + m
        G = self._smul(c, P)
        while c - m <= hi:
            if G.is_infinity:
                M = c
                break
            hit = baby.get(G.x.value)
            if hit is not None:
                j, y = hit
                M = c - j if G.y.value == y else c + j
                break
            G = self._add(G, step)
            c += 2 * m + 1
        else:
            raise VerificationError(f"no multiple of the order of {P!r} in [{lo}, {hi}]")
        for ell in _prime_factors(M):
            while M % ell == 0 and self._smul(M // ell, P).is_infinity:
                M //= ell
        if not self._smul(M, P).is_infinity:
            raise VerificationError(f"{M} * {P!r} is not the point at infinity")
        return M

    def full_group(self) -> List[Point]:
        """The point at infinity, then every affine point in the kernel's order."""
        q = self.field.order
        if q is None or q > _ENUM_LIMIT:
            raise FieldTooLarge("full enumeration needs a finite field of at most 2^16 elements")
        pts = getattr(kernel, self._K_POINTS)(*self._kp)
        return [Point.infinity()] + [_pt_from_ints(self.field, t) for t in pts]


class CubicCurve(_CurveBase):
    """y^2 = (x - alpha) * g(x) with g = x^2 + p*x + q square-free, g(alpha) != 0."""

    __slots__ = ("field", "alpha", "g", "_kp")
    _K_ADD, _K_SMUL, _K_ORDER, _K_POINTS = "cubic_add", "cubic_smul", "cubic_order", "cubic_points"

    def __init__(self, field: Field, alpha, p, q):
        if field.characteristic == 2:
            raise InvalidParams("this model needs characteristic != 2")
        self.field = field
        self.alpha = field.element(alpha)
        p = field.element(p)
        q = field.element(q)
        if not (p * p - 4 * q):
            raise SingularCurve("repeated root: p^2 - 4q = 0")
        self.g = QuadraticPoly(field, p, q)
        if not self.g(self.alpha):
            raise SingularCurve("repeated root: g(alpha) = 0")
        # Integer coefficients of the expanded cubic for the prime-field kernel.
        if isinstance(field, PrimeField):
            A, B, C = self.coefficients()
            self._kp = (field.p, A.value, B.value, C.value)
        else:
            self._kp = None

    @classmethod
    def from_g(cls, field: Field, alpha, g: QuadraticPoly) -> "CubicCurve":
        return cls(field, alpha, g.p, g.q)

    @classmethod
    def from_weierstrass(cls, field: Field, A, B, C) -> "CubicCurve":
        """Factor y^2 = x^3 + A x^2 + B x + C through a rational root.

        Raises InvalidParams when the cubic has no root in K (no rational
        2-torsion means the (alpha, g) shape does not exist over K).
        """
        A, B, C = field.element(A), field.element(B), field.element(C)
        alpha = _cubic_rational_root(field, A, B, C)
        if alpha is None:
            raise InvalidParams("cubic has no root in K: no rational 2-torsion")
        return cls(field, alpha, A + alpha, B + alpha * (A + alpha))

    def coefficients(self) -> Tuple[FieldElement, FieldElement, FieldElement]:
        """(A, B, C) of the expanded form y^2 = x^3 + A x^2 + B x + C."""
        p, q, a = self.g.p, self.g.q, self.alpha
        return (p - a, q - a * p, -a * q)

    def rhs(self, x: FieldElement) -> FieldElement:
        return (x - self.alpha) * self.g(x)

    @property
    def w3(self) -> Point:
        """The marked rational 2-torsion point (alpha, 0)."""
        return Point(self.alpha, self.field.zero)

    def contains(self, P: Point) -> bool:
        if P.is_infinity:
            return True
        return P.y * P.y == self.rhs(P.x)

    def negate(self, P: Point) -> Point:
        self._check(P)
        if P.is_infinity:
            return P
        return Point(P.x, -P.y)

    def add(self, P: Point, Q: Point) -> Point:
        return self._add(self._check(P), self._check(Q))

    def _add(self, P: Point, Q: Point) -> Point:
        if self._kp is not None:
            return super()._add(P, Q)
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        A, B, _ = self.coefficients()
        if x1 == x2:
            if y1 + y2 == 0:
                return Point.infinity()
            lam = (3 * x1 * x1 + 2 * A * x1 + B) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - A - x1 - x2
        y3 = lam * (x1 - x3) - y1
        return Point(x3, y3)

    # The shared methods under this class's own names, which
    # perfbench/spans.py instruments per class.
    scalar_mul = _CurveBase.scalar_mul
    order_of = _CurveBase.order_of
    full_group = _CurveBase.full_group

    def two_torsion(self) -> List[Point]:
        """All rational points of order 2: (alpha, 0) plus g's roots if any."""
        pts = [self.w3]
        roots = self.g.roots()
        if roots is not None:
            pts += [Point(r, self.field.zero) for r in roots]
        return pts

    def translate_x(self, x0) -> Tuple["CubicCurve", Callable[[Point], Point]]:
        """Shift coordinates by x -> x - x0; returns the new curve and point map."""
        x0 = self.field.element(x0)
        p, q = self.g.p, self.g.q
        shifted = CubicCurve(self.field, self.alpha - x0, p + 2 * x0, self.g(x0))

        def fwd(P: Point) -> Point:
            if P.is_infinity:
                return P
            return Point(P.x - x0, P.y)

        return shifted, fwd

    def j_invariant(self) -> FieldElement:
        A, B, C = self.coefficients()
        b2 = 4 * A
        b4 = 2 * B
        b6 = 4 * C
        b8 = 4 * A * C - B * B
        c4 = b2 * b2 - 24 * b4
        disc = -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        return c4 * c4 * c4 / disc

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.descriptor,
            "model": "cubic",
            "alpha": element_to_json(self.alpha),
            "p": element_to_json(self.g.p),
            "q": element_to_json(self.g.q),
        }

    def __eq__(self, other):
        return (
            isinstance(other, CubicCurve)
            and other.field == self.field
            and other.alpha == self.alpha
            and other.g == self.g
        )

    def __hash__(self):
        return hash((self.field, self.alpha.value, self.g))

    def __repr__(self):
        fmt = self.field.format_element
        return f"y^2 = (x - ({fmt(self.alpha)})) * ({self.g!r})"


def _pt_ints(P: Point):
    return None if P.is_infinity else (P.x.value, P.y.value)


def _pt_from_ints(field: Field, t) -> Point:
    if t is None:
        return Point.infinity()
    return Point(FieldElement(field, t[0]), FieldElement(field, t[1]))


def _cubic_rational_root(field: Field, A, B, C) -> Optional[FieldElement]:
    """Smallest root of x^3 + A x^2 + B x + C in K, or None."""
    if isinstance(field, Rationals):
        # x = X/d with d the common denominator turns the cubic into the monic
        # integer X^3 + a X^2 + b X + c, whose rational roots are integers.
        d = lcm(A.value.denominator, B.value.denominator, C.value.denominator)
        a, b, c = int(A.value * d), int(B.value * d**2), int(C.value * d**3)
        roots = _integer_roots(a, b, c)
        return field.element(Fraction(roots[0], d)) if roots else None
    q = field.order
    if q is None or q > _ENUM_LIMIT:
        raise FieldTooLarge("root search sweeps the field; needs at most 2^16 elements")
    roots = [x for x in field.elements() if not ((x + A) * x + B) * x + C]
    return min(roots, key=lambda e: e.value) if roots else None


def _integer_roots(a: int, b: int, c: int) -> List[int]:
    """The integer roots of F = X^3 + a X^2 + b X + c, ascending.

    Exact bisection on the pieces where F is monotone: F' = 3X^2 + 2aX + b
    vanishes at (-a -+ sqrt(D)) / 3, D = a^2 - 3b, and with s = isqrt(D) the
    integers around those two points are bracketed to within a few, which
    are tried one by one.  Every real root has |X| < R (Cauchy's bound), so
    the work is polynomial in the bit size of the coefficients.
    """

    def F(X):
        return ((X + a) * X + b) * X + c

    def bisect(lo, hi, sign):
        """The root of sign*F, increasing on [lo, hi], if there is one."""
        if lo > hi or sign * F(lo) > 0 or sign * F(hi) < 0:
            return []
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * F(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        return [lo] if not F(lo) else []

    R = 1 + max(abs(a), abs(b), abs(c))
    D = a * a - 3 * b
    if D <= 0:  # F' >= 0 everywhere
        return bisect(-R, R, 1)
    s = isqrt(D)
    lo1, hi1 = (-a - s - 1) // 3, -((a + s) // 3)  # lo1 < first critical point <= hi1
    lo2, hi2 = (-a + s) // 3, -((a - s - 1) // 3)  # lo2 <= second critical point < hi2
    stray = [X for X in (*range(lo1 + 1, hi1), *range(lo2 + 1, hi2)) if not F(X)]
    found = bisect(-R, lo1, 1) + bisect(hi1, lo2, -1) + bisect(hi2, R, 1) + stray
    return sorted(set(found))


class Char2Curve(_CurveBase):
    """y^2 + x*y = x^3 + a2*x^2 + a6 over GF(2^k), a6 != 0 (so j = 1/a6 != 0)."""

    __slots__ = ("field", "a2", "a6", "_kp")
    _K_ADD, _K_SMUL, _K_ORDER, _K_POINTS = "c2_add", "c2_smul", "c2_order", "c2_points"

    def __init__(self, field: Field, a2, a6):
        if not isinstance(field, BinaryField):
            raise InvalidParams("this model lives over GF(2^k)")
        self.field = field
        self.a2 = field.element(a2)
        self.a6 = field.element(a6)
        if not self.a6:
            raise SingularCurve("a6 = 0 is not an ordinary curve (j would be 0)")
        self._kp = (field.k, field.modulus, self.a2.value, self.a6.value)

    def contains(self, P: Point) -> bool:
        if P.is_infinity:
            return True
        for c in (P.x, P.y):
            if c.field is not self.field and c.field != self.field:
                raise InvalidParams(f"mixed fields: {c.field.descriptor} vs {self.field}")
        return kernel.c2_contains(*self._kp, _pt_ints(P))

    def negate(self, P: Point) -> Point:
        self._check(P)
        if P.is_infinity:
            return P
        return Point(P.x, P.y + P.x)

    def add(self, P: Point, Q: Point) -> Point:
        return self._add(self._check(P), self._check(Q))

    @property
    def w3(self) -> Point:
        """The unique rational 2-torsion point (0, sqrt(a6))."""
        return Point(self.field.zero, self.a6.sqrt())

    def j_invariant(self) -> FieldElement:
        return self.a6.inverse()

    def has_order2(self) -> bool:
        """Rational 2-torsion exists iff j is a nonzero square (always here)."""
        j = self.j_invariant()
        return bool(j) and j.is_square()

    # The shared method under this class's own name, which
    # perfbench/spans.py instruments per class.
    full_group = _CurveBase.full_group

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.descriptor,
            "model": "char2",
            "a2": element_to_json(self.a2),
            "a6": element_to_json(self.a6),
        }

    def __eq__(self, other):
        return (
            isinstance(other, Char2Curve)
            and other.field == self.field
            and other.a2 == self.a2
            and other.a6 == self.a6
        )

    def __hash__(self):
        return hash((self.field, self.a2.value, self.a6.value))

    def __repr__(self):
        fmt = self.field.format_element
        return f"y^2 + xy = x^3 + ({fmt(self.a2)})x^2 + ({fmt(self.a6)}) over GF(2^{self.field.k})"


def curve_from_json(obj: dict, field: Optional[Field] = None):
    """Build a curve from its JSON dict; ``field`` fills in a missing descriptor."""
    if not isinstance(obj, dict):
        raise InvalidParams(f"curve JSON must be an object, got {obj!r}")
    if "field" in obj:
        field = field_from_descriptor(obj["field"])
    if field is None:
        raise InvalidParams("curve JSON needs a field descriptor (inline or via --field)")
    model = obj.get("model")
    if model is None:
        model = "char2" if "a6" in obj else "cubic"
    if model == "cubic":
        for k in ("alpha", "p", "q"):
            if k not in obj:
                raise InvalidParams(f"cubic curve JSON missing {k!r}")
        return CubicCurve(
            field,
            element_from_json(field, obj["alpha"]),
            element_from_json(field, obj["p"]),
            element_from_json(field, obj["q"]),
        )
    if model == "char2":
        for k in ("a2", "a6"):
            if k not in obj:
                raise InvalidParams(f"char2 curve JSON missing {k!r}")
        return Char2Curve(
            field,
            element_from_json(field, obj["a2"]),
            element_from_json(field, obj["a6"]),
        )
    raise InvalidParams(f"unknown curve model {model!r}")
