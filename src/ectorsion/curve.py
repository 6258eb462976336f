"""Curve models, the group law, point orders, and 2-torsion enumeration.

Two models cover every characteristic:

* ``CubicCurve``  — y^2 = (x - alpha) * (x^2 + p*x + q) over a field of
  characteristic != 2, kept in factored shape because every halving
  criterion is phrased against the marked 2-torsion point W3 = (alpha, 0).
* ``Char2Curve``  — y^2 + x*y = x^3 + a2*x^2 + a6 over GF(2^k) with a6 != 0
  (the ordinary case, j = 1/a6 != 0).

Points are immutable; the curve is always an explicit argument, so using a
point with the wrong curve is a loud ``OffCurve`` instead of silent garbage.
The group law, scalar multiples, point orders and full enumerations all run
on raw coordinates in ``kernel`` (ints over F_p and GF(2^k), ``Fraction``s
over Q); this module checks points, converts them and converts back.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, ClassVar, List, Optional, Tuple

from . import kernel
from .errors import FieldTooLarge, InvalidParams, OffCurve, SingularCurve
from .field import (
    Field,
    FieldElement,
    PrimeField,
    Rationals,
    field_from_descriptor,
    require_binary,
    require_odd_characteristic,
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


class _Record:
    """Base of the records, each a ``dataclass(frozen=True)`` whose ``__slots__``
    name its fields: no instance dict, FrozenInstanceError for any assignment or
    deletion (a class rebuilt by the dataclass slots option answers a name that
    is no field with TypeError on Python 3.11), copies and pickles through the
    constructor.  ``Point`` and ``TorsionWitness``, built in every group-law
    step, have their own ``__init__``, which dataclass keeps: it sets each slot
    through its member descriptor, not through ``object.__setattr__``."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


@dataclass(frozen=True)
class Point(_Record):
    """An affine point (x, y) or the point at infinity (x = y = None)."""

    __slots__ = ("x", "y")
    x: Optional[FieldElement]
    y: Optional[FieldElement]

    def __init__(self, x: Optional[FieldElement], y: Optional[FieldElement]):
        if (x is None) != (y is None):
            raise InvalidParams("affine points need both coordinates")
        _set_x(self, x)
        _set_y(self, y)

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


@dataclass(frozen=True)
class TorsionWitness(_Record):
    """A point with a claimed order, built only once the group law confirms it."""

    __slots__ = ("point", "claimed_order", "note")
    point: Point
    claimed_order: int
    note: str
    verified: ClassVar[bool] = True

    def __init__(self, point: Point, claimed_order: int, note: str):
        _set_point(self, point)
        _set_claimed_order(self, claimed_order)
        _set_note(self, note)

    def to_json_dict(self) -> dict:
        d = {
            "point": point_to_json(self.point),
            "order": self.claimed_order,
            "verified": self.verified,
        }
        if self.note:
            d["note"] = self.note
        return d


_set_x, _set_y, _set_point, _set_claimed_order, _set_note = (
    cls.__dict__[name].__set__ for cls in (Point, TorsionWitness) for name in cls.__slots__)


def element_to_json(e: FieldElement) -> str:
    return e.field.format_element(e)


def element_from_json(field: Field, v) -> FieldElement:
    if isinstance(v, (str, int)):  # Field.element parses strings and refuses bools
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


# One kernel model's functions (``points`` is None over Q), built by tuple.__new__ as _make does.
_Model = namedtuple("_Model", "contains add neg tangent smul order points")


class _CurveBase:
    """The boundary between points and the kernel.

    A curve's constructor picks its kernel model: ``_kp`` holds the model's
    constants and ``_k`` its functions, read from ``kernel`` then, so that
    a kernel function wrapped or patched before the curve is built is the
    one it runs.  Each method below checks its points (``contains``), makes
    one kernel call on their raw coordinates and converts the answer back.
    """

    __slots__ = ()
    field: Field
    _kp: tuple
    _k: _Model

    def contains(self, P: Point) -> bool:
        """Whether P is on the curve, by the kernel's equation; InvalidParams for a foreign field."""
        if P.is_infinity:
            return True
        for c in (P.x, P.y):
            if c.field is not self.field and c.field != self.field:
                raise InvalidParams(
                    f"point over {c.field.descriptor}, curve over {self.field.descriptor}")
        return self._k.contains(self._kp, (P.x.value, P.y.value))

    def _check(self, P: Point) -> Point:
        if not isinstance(P, Point):
            raise OffCurve(f"expected a Point, got {P!r}")
        try:
            if self.contains(P):
                return P
        except InvalidParams as e:
            raise OffCurve(str(e)) from None
        raise OffCurve(f"{P!r} does not satisfy the curve equation")

    def _add(self, P: Point, Q: Point) -> Point:
        """The group law on points already known to be on this curve."""
        return _pt_from_ints(self.field, self._k.add(self._kp, _pt_ints(P), _pt_ints(Q)))

    def add(self, P: Point, Q: Point) -> Point:
        return self._add(self._check(P), self._check(Q))

    def negate(self, P: Point) -> Point:
        return _pt_from_ints(self.field, self._k.neg(self._kp, _pt_ints(self._check(P))))

    def double(self, P: Point) -> Point:
        P = self._check(P)
        return self._add(P, P)

    def scalar_mul(self, n: int, P: Point) -> Point:
        return _pt_from_ints(self.field, self._k.smul(self._kp, n, _pt_ints(self._check(P))))

    def order_of(self, P: Point) -> Optional[int]:
        """Exact order of P; None only for a point of infinite order over Q."""
        return self._k.order(self._kp, _pt_ints(self._check(P))) or None

    def full_group(self) -> List[Point]:
        """The point at infinity, then every affine point in the kernel's order."""
        q = self.field.order
        if q is None or q > _ENUM_LIMIT:
            raise FieldTooLarge("full enumeration needs a finite field of at most 2^16 elements")
        pts = self._k.points(self._kp)
        return [Point.infinity()] + [_pt_from_ints(self.field, t) for t in pts]


class CubicCurve(_CurveBase):
    """y^2 = (x - alpha) * g(x) with g = x^2 + p*x + q square-free, g(alpha) != 0."""

    __slots__ = ("field", "alpha", "g", "_kp", "_k")

    def __init__(self, field: Field, alpha, p, q):
        self.field = field
        g = self.g = QuadraticPoly(field, p, q)  # InvalidParams in char 2, SingularCurve if p^2 = 4q
        self.alpha = field.element(alpha)
        red, a, p, q = field._red, self.alpha.value, g.p.value, g.q.value
        if not red((a + p) * a + q):
            raise SingularCurve("repeated root: g(alpha) = 0")
        A, B, C = red(p - a), red(q - a * p), red(-a * q)
        if isinstance(field, PrimeField):
            self._kp = (field.p, A, B, C)
            self._k = tuple.__new__(_Model, (kernel.cubic_contains, kernel.cubic_add,
                                             kernel.cubic_neg, kernel.cubic_tangent,
                                             kernel.cubic_smul, kernel.cubic_order,
                                             kernel.cubic_points))
        else:
            self._kp = (A, B, C)
            self._k = tuple.__new__(_Model, (kernel.qq_contains, kernel.qq_add, kernel.qq_neg,
                                             kernel.qq_tangent, kernel.qq_smul, kernel.qq_order,
                                             None))

    @classmethod
    def from_weierstrass(cls, field: Field, A, B, C) -> "CubicCurve":
        """Factor y^2 = x^3 + A x^2 + B x + C through a rational root.

        Raises InvalidParams when the cubic has no root in K (no rational
        2-torsion means the (alpha, g) shape does not exist over K), and in
        characteristic 2 before any root is looked for.
        """
        require_odd_characteristic(field, "the cubic model")
        A, B, C = field.element(A).value, field.element(B).value, field.element(C).value
        alpha = _cubic_rational_root(field, A, B, C)
        if alpha is None:
            raise InvalidParams("cubic has no root in K: no rational 2-torsion")
        p = field._red(A + alpha)
        return cls(field, alpha, p, field._red(B + alpha * p))

    def coefficients(self) -> Tuple[FieldElement, FieldElement, FieldElement]:
        """(A, B, C) of the expanded form y^2 = x^3 + A x^2 + B x + C."""
        return tuple(FieldElement(self.field, v) for v in self._kp[-3:])

    def rhs(self, x: FieldElement) -> FieldElement:
        return (x - self.alpha) * self.g(x)

    @property
    def w3(self) -> Point:
        """The marked rational 2-torsion point (alpha, 0)."""
        return Point(self.alpha, self.field.zero)

    # The shared methods under this class's own names, which
    # perfbench/spans.py instruments per class.
    contains = _CurveBase.contains
    add = _CurveBase.add
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
        shifted = CubicCurve(self.field, self.alpha - x0, self.g.p + 2 * x0, self.g(x0))

        def fwd(P: Point) -> Point:
            if P.is_infinity:
                return P
            return Point(P.x - x0, P.y)

        return shifted, fwd

    def j_invariant(self) -> FieldElement:
        """j = c4^3 / Delta = 256 (A^2 - 3B)^3 / disc, with c4 = 16 (A^2 - 3B)
        and Delta = 16 disc, disc the cubic's ``kernel.cubic_disc``."""
        F, (A, B, C) = self.field, self._kp[-3:]
        num = 256 * (A * A - 3 * B) ** 3
        return FieldElement(F, F._red(num * F._inv(kernel.cubic_disc(A, B, C))))

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


def _cubic_rational_root(field: Field, A, B, C):
    """Smallest root of x^3 + A x^2 + B x + C in K, or None; all raw values."""
    if isinstance(field, Rationals):
        # x = X/d with d the common denominator turns the cubic into the monic
        # integer X^3 + a X^2 + b X + c, whose rational roots are integers.
        d = lcm(A.denominator, B.denominator, C.denominator)
        a, b, c = int(A * d), int(B * d**2), int(C * d**3)
        roots = _integer_roots(a, b, c)
        return Fraction(roots[0], d) if roots else None
    p = field.order
    if p > _ENUM_LIMIT:
        raise FieldTooLarge("root search sweeps the field; needs at most 2^16 elements")
    return next((x for x in range(p) if not (((x + A) * x + B) * x + C) % p), None)


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

    __slots__ = ("field", "a2", "a6", "_kp", "_k")

    def __init__(self, field: Field, a2, a6):
        require_binary(field, "the char2 model")
        self.field = field
        self.a2 = field.element(a2)
        self.a6 = field.element(a6)
        if not self.a6:
            raise SingularCurve("a6 = 0 is not an ordinary curve (j would be 0)")
        self._kp = (field._kernel(), self.a2.value, self.a6.value)
        self._k = tuple.__new__(_Model, (kernel.c2_contains, kernel.c2_add, kernel.c2_neg,
                                         kernel.c2_tangent, kernel.c2_smul, kernel.c2_order,
                                         kernel.c2_points))

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

    # The shared methods under this class's own names, which
    # perfbench/spans.py instruments per class.
    contains = _CurveBase.contains
    add = _CurveBase.add
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
    """Build a curve from its JSON dict; its own ``"field"`` and ``field``, when
    both are given, must be equal, and either one is enough."""
    if not isinstance(obj, dict):
        raise InvalidParams(f"curve JSON must be an object, got {obj!r}")
    if "field" in obj:
        inline = field_from_descriptor(obj["field"])
        if field is not None and field != inline:
            raise InvalidParams(f"curve JSON over {inline.descriptor}, given {field.descriptor}")
        field = inline
    if field is None:
        raise InvalidParams("curve JSON needs a field descriptor (inline or via --field)")
    model = obj.get("model")
    if model is None:
        model = "char2" if "a6" in obj else "cubic"
    if model == "cubic":
        cls, keys = CubicCurve, ("alpha", "p", "q")
    elif model == "char2":
        cls, keys = Char2Curve, ("a2", "a6")
    else:
        raise InvalidParams(f"unknown curve model {model!r}")
    for k in keys:
        if k not in obj:
            raise InvalidParams(f"{model} curve JSON missing {k!r}")
    return cls(field, *[element_from_json(field, obj[k]) for k in keys])
