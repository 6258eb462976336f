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
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, ClassVar, List, Optional, Tuple

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
from .quadratic import QuadraticPoly, require_odd_characteristic

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


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen(cls):
    """Refuse every assignment and deletion with FrozenInstanceError.

    ``dataclass(frozen=True, slots=True)`` does so only for its fields: on
    Python 3.11, any other name raises TypeError from the class that
    ``slots=True`` replaced.  ``__init__`` sets fields through
    ``object.__setattr__`` and is untouched.
    """
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    return cls


@_frozen
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


@_frozen
@dataclass(frozen=True, slots=True)
class TorsionWitness:
    """A point with a claimed order, built only once the group law confirms it."""

    point: Point
    claimed_order: int
    note: str = ""
    verified: ClassVar[bool] = True

    def to_json_dict(self) -> dict:
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
        return _MAZUR_BOUND if q is None else 2 * kernel._hasse_interval(q)[1]
    return min(cap, _MAZUR_BOUND) if q is None else cap


# One kernel model's functions (``points`` is None over Q), built by tuple.__new__ as _make does.
_Model = namedtuple("_Model", "contains add neg smul order points")


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

    def order_of(self, P: Point, cap: Optional[int] = None) -> Optional[int]:
        """Exact order of P, or None when it exceeds the cap (see ``kernel._order``)."""
        cap = _default_cap(self.field, cap)
        return self._k.order(self._kp, _pt_ints(self._check(P)), cap) or None

    def multiple_indices(self, G: Point, points, cap: int) -> Tuple[int, List[Optional[int]]]:
        """G's exact order n by iterated addition, and where ``points`` sit among its multiples.

        The list holds, for each of ``points``, the j in [1, n) with P = jG,
        or None when P is no affine multiple of G (or is not a point over
        this curve's field object).  n is 0, and every j None, when n
        exceeds the cap, which is required: the search makes up to cap - 1
        additions.  Only G is checked: a point found equals a multiple of G.
        """
        mults = kernel._multiples(self._k.add, self._kp, _pt_ints(self._check(G)),
                                  _default_cap(self.field, cap))
        if mults is None:
            return 0, [None] * len(points)
        index = {pt: j for j, pt in enumerate(mults[:-1], 1)}
        F = self.field
        return len(mults), [
            index.get((P.x.value, P.y.value))
            if isinstance(P, Point) and P.x is not None and P.x.field is F and P.y.field is F
            else None
            for P in points
        ]

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
        self.alpha = a = field.element(alpha)
        if not g(a):
            raise SingularCurve("repeated root: g(alpha) = 0")
        A, B, C = (g.p - a).value, (g.q - a * g.p).value, (-a * g.q).value
        if isinstance(field, PrimeField):
            self._kp = (field.p, A, B, C)
            self._k = tuple.__new__(_Model, (kernel.cubic_contains, kernel.cubic_add,
                                             kernel.cubic_neg, kernel.cubic_smul,
                                             kernel.cubic_order, kernel.cubic_points))
        else:
            self._kp = (A, B, C)
            self._k = tuple.__new__(_Model, (kernel.qq_contains, kernel.qq_add, kernel.qq_neg,
                                             kernel.qq_smul, kernel.qq_order, None))

    @classmethod
    def from_weierstrass(cls, field: Field, A, B, C) -> "CubicCurve":
        """Factor y^2 = x^3 + A x^2 + B x + C through a rational root.

        Raises InvalidParams when the cubic has no root in K (no rational
        2-torsion means the (alpha, g) shape does not exist over K), and in
        characteristic 2 before any root is looked for.
        """
        require_odd_characteristic(field)
        A, B, C = field.element(A), field.element(B), field.element(C)
        alpha = _cubic_rational_root(field, A, B, C)
        if alpha is None:
            raise InvalidParams("cubic has no root in K: no rational 2-torsion")
        return cls(field, alpha, A + alpha, B + alpha * (A + alpha))

    def coefficients(self) -> Tuple[FieldElement, FieldElement, FieldElement]:
        """(A, B, C) of the expanded form y^2 = x^3 + A x^2 + B x + C."""
        return tuple(self.field._elt(self.field, v) for v in self._kp[-3:])

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
    return Point(field._elt(field, t[0]), field._elt(field, t[1]))


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

    __slots__ = ("field", "a2", "a6", "_kp", "_k")

    def __init__(self, field: Field, a2, a6):
        if not isinstance(field, BinaryField):
            raise InvalidParams("this model lives over GF(2^k)")
        self.field = field
        self.a2 = field.element(a2)
        self.a6 = field.element(a6)
        if not self.a6:
            raise SingularCurve("a6 = 0 is not an ordinary curve (j would be 0)")
        self._kp = (field._kernel(), self.a2.value, self.a6.value)
        self._k = tuple.__new__(_Model, (kernel.c2_contains, kernel.c2_add, kernel.c2_neg,
                                         kernel.c2_smul, kernel.c2_order, kernel.c2_points))

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
