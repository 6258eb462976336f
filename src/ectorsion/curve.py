"""Curve models, the group law, point orders, and 2-torsion enumeration.

Two models cover every characteristic:

* ``CubicCurve``  — y^2 = (x - alpha) * (x^2 + p*x + q) over a field of
  characteristic != 2, kept in factored shape because every halving
  criterion is phrased against the marked 2-torsion point W3 = (alpha, 0).
* ``Char2Curve``  — y^2 + x*y = x^3 + a2*x^2 + a6 over GF(2^k) with a6 != 0
  (the ordinary case, j = 1/a6 != 0).

Points are immutable; the curve is always an explicit argument, so using a
point with the wrong curve is a loud ``OffCurve`` instead of silent garbage.
Prime-field cubic curves route bulk work (scalar multiples, point orders,
full enumerations) through the compiled kernel when it is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable, List, Optional, Tuple

from . import kernel
from .errors import FieldTooLarge, InvalidParams, OffCurve, SingularCurve
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


def _hasse_upper(q: int) -> int:
    """q + 1 + ceil(2*sqrt(q)): no curve over F_q has more points (Hasse)."""
    r = isqrt(4 * q)
    if r * r < 4 * q:
        r += 1
    return q + 1 + r


def _default_cap(field: Field, cap: Optional[int] = None) -> int:
    """The order search's cap: ``cap`` itself once checked, else the default."""
    if cap is not None:
        if cap < 1:
            raise InvalidParams(f"the order cap must be at least 1, got {cap}")
        return cap
    q = field.order
    if q is None:
        return 24  # comfortably above any rational torsion order we build
    return 2 * _hasse_upper(q)  # safely past the Hasse interval


class _CurveBase:
    """Shared plumbing: boundary checks, scalar multiples, order search."""

    field: Field

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
        raise NotImplementedError

    def add(self, P: Point, Q: Point) -> Point:
        raise NotImplementedError

    def negate(self, P: Point) -> Point:
        raise NotImplementedError

    def double(self, P: Point) -> Point:
        P = self._check(P)
        return self._add(P, P)

    def scalar_mul(self, n: int, P: Point) -> Point:
        P = self.negate(P) if n < 0 else self._check(P)
        n = abs(n)
        R = Point.infinity()
        while n:
            if n & 1:
                R = self._add(R, P)
            P = self._add(P, P)
            n >>= 1
        return R

    def order_of(self, P: Point, cap: Optional[int] = None) -> Optional[int]:
        """Exact order of P by iterated addition, or None once past the cap."""
        cap = _default_cap(self.field, cap)
        self._check(P)
        if P.is_infinity:
            return 1
        R = P
        for n in range(1, cap + 1):
            if R.is_infinity:
                return n
            R = self._add(R, P)
        return None

    def full_group(self) -> List[Point]:
        raise NotImplementedError


class CubicCurve(_CurveBase):
    """y^2 = (x - alpha) * g(x) with g = x^2 + p*x + q square-free, g(alpha) != 0."""

    __slots__ = ("field", "alpha", "g", "_ik")

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
            self._ik = (field.p, A.value, B.value, C.value)
        else:
            self._ik = None

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
        if self._ik is not None:
            p_, A, B, C = self._ik
            r = kernel.cubic_add(p_, A, B, C, _pt_ints(P), _pt_ints(Q))
            return _pt_from_ints(self.field, r)
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

    def scalar_mul(self, n: int, P: Point) -> Point:
        if self._ik is None:
            return super().scalar_mul(n, P)
        self._check(P)
        p_, A, B, C = self._ik
        r = kernel.cubic_smul(p_, A, B, C, n, _pt_ints(P))
        return _pt_from_ints(self.field, r)

    def order_of(self, P: Point, cap: Optional[int] = None) -> Optional[int]:
        if self._ik is None:
            return super().order_of(P, cap)
        cap = _default_cap(self.field, cap)
        self._check(P)
        p_, A, B, C = self._ik
        n = kernel.cubic_order(p_, A, B, C, _pt_ints(P), cap)
        return n if n else None

    def two_torsion(self) -> List[Point]:
        """All rational points of order 2: (alpha, 0) plus g's roots if any."""
        pts = [self.w3]
        roots = self.g.roots()
        if roots is not None:
            pts += [Point(r, self.field.zero) for r in roots]
        return pts

    def full_group(self) -> List[Point]:
        q = self.field.order
        if q is None or q > _ENUM_LIMIT:
            raise FieldTooLarge("full enumeration needs a finite field of at most 2^16 elements")
        # Every finite field of characteristic != 2 here is a PrimeField.
        p_, A, B, C = self._ik
        pts = [_pt_from_ints(self.field, t) for t in kernel.cubic_points(p_, A, B, C)]
        return [Point.infinity()] + pts

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

    def f(x):
        return ((x + A) * x + B) * x + C

    if isinstance(field, Rationals):
        # Rational root theorem on the cleared-denominator integer cubic.
        from fractions import Fraction
        from math import gcd

        den = 1
        for e in (A, B, C):
            den = den * e.value.denominator // gcd(den, e.value.denominator)
        c3 = den
        c2 = int(A.value * den)
        c1 = int(B.value * den)
        c0 = int(C.value * den)
        if c0 == 0:
            # x divides the cubic; 0 is a root and the rest is a quadratic.
            candidates = {Fraction(0)}
            d = c2 * c2 - 4 * c3 * c1
            if d >= 0 and isqrt(d) ** 2 == d:
                s = isqrt(d)
                candidates |= {Fraction(-c2 + s, 2 * c3), Fraction(-c2 - s, 2 * c3)}
        else:
            candidates = set()
            for pn in _divisors(abs(c0)):
                for qd in _divisors(abs(c3)):
                    candidates.add(Fraction(pn, qd))
                    candidates.add(Fraction(-pn, qd))
        roots = sorted(c for c in candidates if not f(field.element(c)))
        return field.element(roots[0]) if roots else None
    q = field.order
    if q is None or q > _ENUM_LIMIT:
        raise FieldTooLarge("root search sweeps the field; needs at most 2^16 elements")
    roots = [x for x in field.elements() if not f(x)]
    return min(roots, key=lambda e: e.value) if roots else None


def _divisors(n: int) -> List[int]:
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


class Char2Curve(_CurveBase):
    """y^2 + x*y = x^3 + a2*x^2 + a6 over GF(2^k), a6 != 0 (so j = 1/a6 != 0)."""

    __slots__ = ("field", "a2", "a6")

    def __init__(self, field: Field, a2, a6):
        if not isinstance(field, BinaryField):
            raise InvalidParams("this model lives over GF(2^k)")
        self.field = field
        self.a2 = field.element(a2)
        self.a6 = field.element(a6)
        if not self.a6:
            raise SingularCurve("a6 = 0 is not an ordinary curve (j would be 0)")

    def rhs(self, x: FieldElement) -> FieldElement:
        return x * x * x + self.a2 * x * x + self.a6

    def contains(self, P: Point) -> bool:
        if P.is_infinity:
            return True
        return P.y * P.y + P.x * P.y == self.rhs(P.x)

    def negate(self, P: Point) -> Point:
        self._check(P)
        if P.is_infinity:
            return P
        return Point(P.x, P.y + P.x)

    def add(self, P: Point, Q: Point) -> Point:
        return self._add(self._check(P), self._check(Q))

    def _add(self, P: Point, Q: Point) -> Point:
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        if x1 == x2:
            if y2 == y1 + x1:  # Q = -P (covers the 2-torsion point x = 0)
                return Point.infinity()
            if not x1:
                return Point.infinity()
            lam = x1 + y1 / x1
            x3 = lam * lam + lam + self.a2
            y3 = x1 * x1 + (lam + 1) * x3
            return Point(x3, y3)
        lam = (y1 + y2) / (x1 + x2)
        x3 = lam * lam + lam + x1 + x2 + self.a2
        y3 = lam * (x1 + x3) + x3 + y1
        return Point(x3, y3)

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

    def full_group(self) -> List[Point]:
        q = self.field.order
        if q > _ENUM_LIMIT:
            raise FieldTooLarge("full enumeration needs at most 2^16 elements")
        out = [Point.infinity(), self.w3]
        for x in self.field.elements():
            if not x:
                continue
            # y = x*z turns the equation into z^2 + z = x + a2 + a6/x^2.
            z = self.field.solve_artin_schreier(x + self.a2 + self.a6 / (x * x))
            if z is None:
                continue
            y = x * z
            out.append(Point(x, y))
            out.append(Point(x, y + x))
        return out

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
