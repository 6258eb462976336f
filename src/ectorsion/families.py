"""Parametrized curve families with a marked torsion point of order 4..12.

Each ``<family>_new`` constructor validates its parameters (raising
InvalidParams naming the violated condition), builds the curve, and attaches
TorsionWitness records for the distinguished points.  Every claimed order
is replayed through the group law before the instance is returned; a
mismatch raises VerificationError rather than producing a bad certificate.
One order search does it: the witness G of largest claimed order N is
checked by iterated addition, which keeps its multiples, and every other
witness equal to some jG has order N / gcd(j, N).  A witness outside them
gets its own ``order_of``, so nothing assumes the group is cyclic.

The validity predicates are exactly the nonsingularity conditions: for each
family the discriminant data factors as

    E4 :  disc(g) = a^2 (a^2 + 4b),                 g(0)  = b^2
    E6 :  disc(g) = t^3 (t + 4),                    g(-1) = 1 - 2t
    E8 :  E4 with a = 2t^2/(1 - t^2), b = -1
    E10:  disc(g) ~ u (u^2 + u - 1),                g(-1) ~ (u-1)(u^2-4u-1)
    E12:  disc(g) ~ (T^2+1)(3T^2-1) (up to squares), g(-1) ~ (3T^2+1)^2

so the listed exclusions reject precisely the singular instances, and the
"not a square" conditions say the 2-torsion is exactly {(alpha, 0)}.

Two witness coordinates are adjusted to their on-curve versions (both fixes
verified symbolically and by exhaustive finite-field sweeps): the order-4
point of E8 reads (1, +-2t^2/(1-t^2)), and the order-4 point of E12 sits at
x = -4T^2/(T^2-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import Callable, Dict, Optional, Tuple, Union

from .curve import (
    Char2Curve,
    CubicCurve,
    Point,
    TorsionWitness,
    element_to_json,
)
from .errors import InvalidParams, VerificationError
from .field import BinaryField, Field, FieldElement

__all__ = [
    "FamilyInstance",
    "e4_new",
    "e4_normalize",
    "e6_new",
    "e6_exactly_one_2torsion",
    "e8_new",
    "e10_new",
    "e12_new",
    "e4char2_new",
    "e8char2_new",
    "iso_e4",
    "iso_e8",
    "iso_e8char2",
    "j_fourth_power_criterion",
    "kubert_to_e4",
    "kubert_to_e8",
    "kubert_to_e6",
    "FAMILY_NAMES",
]

FAMILY_NAMES = ("e4", "e6", "e8", "e10", "e12", "e4char2", "e8char2")


@dataclass(frozen=True)
class FamilyInstance:
    """A constructed family member: parameters, curve, verified witnesses."""

    family: str
    params: Dict[str, FieldElement]
    curve: Union[CubicCurve, Char2Curve]
    witnesses: Tuple[TorsionWitness, ...]

    def witness_of_order(self, n: int) -> TorsionWitness:
        for w in self.witnesses:
            if w.claimed_order == n:
                return w
        raise KeyError(f"no witness of order {n}")

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": {k: element_to_json(v) for k, v in self.params.items()},
            "curve": self.curve.to_json_dict(),
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


def _witnesses(curve, specs) -> Tuple[TorsionWitness, ...]:
    """The witnesses of ``specs``, each (point, claimed order[, note]), in order.

    The point G of largest claimed order N has its order checked by iterated
    addition, which keeps its multiples: a witness equal to jG has order
    N / gcd(j, N).  A witness found among none of them, or every witness when
    G's order is not N, has its order checked on its own by
    ``curve.order_of``; the first wrong claim raises VerificationError.
    """
    G, N = max(specs, key=itemgetter(1))[:2]
    n, js = curve.multiple_indices(G, [s[0] for s in specs], N)
    for s, j in zip(specs, js):
        P, order = s[0], s[1]
        got = N // gcd(j, N) if j and n == N else curve.order_of(P)
        if got != order:
            raise VerificationError(
                f"witness {P!r} claims order {order} but has order {got}"
            )
    return tuple([TorsionWitness(*s) for s in specs])


def _odd_characteristic(field: Field, family: str) -> None:
    # Checked first: every GF(2^k) element is a square, so a square-class
    # condition would otherwise take the blame.
    if field.characteristic == 2:
        raise InvalidParams(f"{family} needs characteristic != 2")


def _nonzero(field: Field, value, name: str, family: str) -> FieldElement:
    v = field.element(value)
    if not v:
        raise InvalidParams(f"{family} needs {name} != 0")
    return v


def e4_new(field: Field, a, b) -> FamilyInstance:
    """y^2 = x(x^2 + (a^2+2b)x + b^2): order-4 points over (0,0).

    Valid iff a != 0, b != 0 and a^2 + 4b is not a square (the latter makes
    (0,0) the only rational 2-torsion point and the curve nonsingular).
    """
    a, b = _e4_params(field, a, b)
    curve = CubicCurve(field, 0, a * a + 2 * b, b * b)
    zero = field.zero
    witnesses = _witnesses(curve, (
        (Point(zero, zero), 2),
        (Point(-b, a * b), 4),
        (Point(-b, -(a * b)), 4),
    ))
    return FamilyInstance("e4", {"a": a, "b": b}, curve, witnesses)


def _e4_params(field: Field, a, b) -> Tuple[FieldElement, FieldElement]:
    """(a, b) as elements once valid for e4; InvalidParams naming the failed condition."""
    _odd_characteristic(field, "e4")
    a = _nonzero(field, a, "a", "e4")
    b = _nonzero(field, b, "b", "e4")
    if (a * a + 4 * b).is_square():
        raise InvalidParams("e4 needs a^2 + 4b to be a non-square")
    return a, b


def e4_normalize(field: Field, a, b) -> Tuple[Tuple[FieldElement, FieldElement], Callable[[Point], Point]]:
    """Scale (a, b) ~ (1, b/a^2) through (x, y) -> (x/a^2, y/a^3)."""
    a = _nonzero(field, a, "a", "e4")
    b = _nonzero(field, b, "b", "e4")
    a2 = a * a
    a3 = a2 * a

    def fwd(P: Point) -> Point:
        if P.is_infinity:
            return P
        return Point(P.x / a2, P.y / a3)

    return (field.one, b / a2), fwd


def e6_new(field: Field, t) -> FamilyInstance:
    """y^2 = (x+1)(x^2 + (t^2+2t)x + t^2): (0, t) has order 3, (-2t, t-2t^2) order 6.

    Valid iff t is outside {0, -4, 1/2} (evaluated in K); a repeated root
    appears exactly at those values.  Three rational 2-torsion points are
    allowed here; see e6_exactly_one_2torsion for the stricter predicate.
    """
    _odd_characteristic(field, "e6")
    t = _nonzero(field, t, "t", "e6")
    if t + 4 == 0:
        raise InvalidParams("e6 needs t != -4")
    if 2 * t - 1 == 0:
        raise InvalidParams("e6 needs t != 1/2")
    curve = CubicCurve(field, -field.one, t * t + 2 * t, t * t)
    zero = field.zero
    witnesses = _witnesses(curve, (
        (Point(-field.one, zero), 2),
        (Point(zero, t), 3),
        (Point(zero, -t), 3),
        (Point(-2 * t, t - 2 * t * t), 6),
        (Point(-2 * t, 2 * t * t - t), 6),
    ))
    return FamilyInstance("e6", {"t": t}, curve, witnesses)


def e6_exactly_one_2torsion(field: Field, t) -> bool:
    """True when ((-1), 0) is the only rational 2-torsion: t^2 + 4t non-square."""
    t = field.element(t)
    return not (t * t + 4 * t).is_square()


def e8_new(field: Field, t) -> FamilyInstance:
    """y^2 = x(x^2 + 2(t^4+2t^2-1)/(t^2-1)^2 x + 1): four points of order 8.

    Valid iff t is outside {0, 1, -1} and 2t^2 - 1 is not a square.  This is
    the e4 family at a = 2t^2/(1-t^2), b = -1.
    """
    t = _e8_param(field, t)
    one = field.one
    curve = CubicCurve(field, 0, _e8_p(t), 1)
    zero = field.zero
    y4 = 2 * t * t / (1 - t * t)
    x8a = (1 + t) / (1 - t)
    y8a = 2 * t / ((1 - t) * (1 - t))
    x8b = (1 - t) / (1 + t)
    y8b = 2 * t / ((1 + t) * (1 + t))
    witnesses = _witnesses(curve, (
        (Point(zero, zero), 2),
        (Point(one, y4), 4),
        (Point(one, -y4), 4),
        (Point(x8a, -y8a), 8),
        (Point(x8a, y8a), 8),
        (Point(x8b, y8b), 8),
        (Point(x8b, -y8b), 8),
    ))
    return FamilyInstance("e8", {"t": t}, curve, witnesses)


def _e8_param(field: Field, t) -> FieldElement:
    """t as an element once valid for e8; InvalidParams naming the failed condition."""
    _odd_characteristic(field, "e8")
    t = _nonzero(field, t, "t", "e8")
    if t * t == 1:
        raise InvalidParams("e8 needs t != 1 and t != -1")
    if (2 * t * t - 1).is_square():
        raise InvalidParams("e8 needs 2t^2 - 1 to be a non-square")
    return t


def _e8_p(t: FieldElement) -> FieldElement:
    """P(t) = 2(t^4 + 2t^2 - 1)/(t^2 - 1)^2, so that E8(t) is y^2 = x(x^2 + P(t)x + 1); t^2 != 1."""
    den = t * t - 1
    return 2 * (t ** 4 + 2 * t * t - 1) / (den * den)


def e10_new(field: Field, u) -> FamilyInstance:
    """The order-10 family: (0, 4u^2/((u-1)(u+1)^2)) has order 5.

    Valid iff u is outside {0, 1, -1}, u^2+u-1 != 0, u^2-4u-1 != 0, and
    u(u^2+u-1) is not a square.
    """
    _odd_characteristic(field, "e10")
    u = _nonzero(field, u, "u", "e10")
    if u * u == 1:
        raise InvalidParams("e10 needs u != 1 and u != -1")
    if u * u + u - 1 == 0:
        raise InvalidParams("e10 needs u^2 + u - 1 != 0")
    if u * u - 4 * u - 1 == 0:
        raise InvalidParams("e10 needs u^2 - 4u - 1 != 0")
    if (u * (u * u + u - 1)).is_square():
        raise InvalidParams("e10 needs u(u^2 + u - 1) to be a non-square")
    D = (u - 1) * (u + 1) * (u + 1)
    p = 8 * u * u * (u ** 3 + u * u - u + 1) / (D * D)
    q = 16 * u ** 4 / (D * D)
    curve = CubicCurve(field, -field.one, p, q)
    zero = field.zero
    w2 = Point(-field.one, zero)
    p5 = Point(zero, 4 * u * u / D)
    p10 = curve.add(p5, w2)
    witnesses = _witnesses(curve, (
        (w2, 2),
        (p5, 5),
        (p10, 10, "sum of the order-5 and order-2 points"),
    ))
    return FamilyInstance("e10", {"u": u}, curve, witnesses)


def e12_new(field: Field, T) -> FamilyInstance:
    """The order-12 family: order-3 points over x = 0, order-4 over x = -4T^2/(T^2-1).

    Valid iff T is outside {0, 1, -1}, T^2+1 != 0, 3T^2+1 != 0, 3T^2-1 != 0,
    and (T^2+1)(3T^2-1) is not a square.
    """
    _odd_characteristic(field, "e12")
    T = _nonzero(field, T, "T", "e12")
    T2 = T * T
    if T2 == 1:
        raise InvalidParams("e12 needs T != 1 and T != -1")
    if T2 + 1 == 0:
        raise InvalidParams("e12 needs T^2 + 1 != 0")
    if 3 * T2 + 1 == 0:
        raise InvalidParams("e12 needs 3T^2 + 1 != 0")
    if 3 * T2 - 1 == 0:
        raise InvalidParams("e12 needs 3T^2 - 1 != 0")
    if ((T2 + 1) * (3 * T2 - 1)).is_square():
        raise InvalidParams("e12 needs (T^2+1)(3T^2-1) to be a non-square")
    den = T2 - 1
    d2 = den * den
    d4 = d2 * d2
    p = 8 * T2 * (T2 + 1) * (T2 * T2 + 4 * T2 - 1) / d4
    q = 16 * T2 * T2 * (T2 + 1) * (T2 + 1) / d4
    curve = CubicCurve(field, -field.one, p, q)
    zero = field.zero
    w2 = Point(-field.one, zero)
    y3 = 4 * T2 * (T2 + 1) / d2
    p3 = Point(zero, y3)
    x4 = -4 * T2 / den
    y4 = 8 * T2 * T * (3 * T2 + 1) / (d2 * den)
    p4 = Point(x4, y4)
    p12 = curve.add(p3, p4)
    witnesses = _witnesses(curve, (
        (w2, 2),
        (p3, 3),
        (Point(zero, -y3), 3),
        (p4, 4),
        (Point(x4, -y4), 4),
        (p12, 12, "sum of the order-3 and order-4 points"),
    ))
    return FamilyInstance("e12", {"T": T}, curve, witnesses)


def e4char2_new(field: Field, gamma) -> FamilyInstance:
    """y^2 + xy = x^3 + gamma^4 over GF(2^k): (gamma, gamma^2) has order 4."""
    if not isinstance(field, BinaryField):
        raise InvalidParams("e4char2 lives over GF(2^k)")
    gamma = _nonzero(field, gamma, "gamma", "e4char2")
    g2 = gamma * gamma
    curve = Char2Curve(field, 0, g2 * g2)
    witnesses = _witnesses(curve, (
        (Point(field.zero, g2), 2),
        (Point(gamma, g2), 4),
    ))
    return FamilyInstance("e4char2", {"gamma": gamma}, curve, witnesses)


def e8char2_new(field: Field, t) -> FamilyInstance:
    """y^2 + xy = x^3 + (t/(t^2+1))^8 over GF(2^k): an order-8 point in closed form."""
    t = _e8char2_param(field, t)
    gamma = (t / (t * t + 1)) ** 2
    g2 = gamma * gamma
    curve = Char2Curve(field, 0, g2 * g2)
    s = t + 1
    s4 = (s * s) * (s * s)
    x8 = t ** 3 / s4
    y8 = (t ** 6 + t ** 5 + t ** 3) / (s4 * s4)
    witnesses = _witnesses(curve, (
        (Point(field.zero, g2), 2),
        (Point(gamma, g2), 4),
        (Point(x8, y8), 8),
    ))
    return FamilyInstance("e8char2", {"t": t}, curve, witnesses)


def _e8char2_param(field: Field, t) -> FieldElement:
    """t as an element once valid for e8char2; InvalidParams naming the failed condition."""
    if not isinstance(field, BinaryField):
        raise InvalidParams("e8char2 lives over GF(2^k)")
    t = _nonzero(field, t, "t", "e8char2")
    if t == field.one:
        raise InvalidParams("e8char2 needs t != 1 (t^2 + 1 would vanish)")
    return t


def iso_e4(field: Field, a, b, c, d) -> Optional[FieldElement]:
    """u with (x,y) -> (u^2 x, u^3 y) mapping E4(a,b) onto E4(c,d), or None.

    The two displayed conditions u^2(a^2+2b) = c^2+2d and u^4 b^2 = d^2
    collapse to the closed form b c^2 = d a^2 with u = c/a.
    """
    a, b = _e4_params(field, a, b)
    c = _nonzero(field, c, "c", "iso_e4")
    d = _nonzero(field, d, "d", "iso_e4")
    if c * c + 4 * d == 0:
        raise InvalidParams("iso_e4 needs c^2 + 4d != 0")
    if b * c * c != d * a * a:
        return None
    u = c / a
    if u * u * (a * a + 2 * b) != c * c + 2 * d or u ** 4 * b * b != d * d:
        raise VerificationError(f"iso_e4: u = {u!r} fails the displayed conditions")
    return u


def iso_e8(field: Field, s, t) -> bool:
    """Whether E8(s) and E8(t) are K-isomorphic: exactly when s = +-t.

    An isomorphism fixes (0, 0), so P(s) = +-P(t), and P(s) = P(t) iff
    (s^2 - t^2)(s^2 + t^2 - 2s^2t^2) = 0, whose second factor would make
    2s^2 - 1 a square, while -P(t) is no P(s): P + 2 is a square, -(P - 2) not.
    """
    s = _e8_param(field, s)
    t = _e8_param(field, t)
    return s == t or s == -t


def iso_e8char2(field: Field, s, t) -> bool:
    """E8char2(s) and E8char2(t) coincide exactly when s = t or s = 1/t."""
    s = _e8char2_param(field, s)
    t = _e8char2_param(field, t)
    return s == t or s * t == field.one


def j_fourth_power_criterion(field: Field, c) -> Optional[FieldElement]:
    """gamma with gamma^4 = 1/c, i.e. the e4char2 parameter whose curve has j = c.

    Over a finite binary field every nonzero element is a fourth power, so
    this always succeeds for c != 0; the result pins down the unique (up to
    K-isomorphism) order-4 curve with the given j-invariant.
    """
    if not isinstance(field, BinaryField):
        raise InvalidParams("the fourth-power criterion applies over GF(2^k)")
    c = _nonzero(field, c, "c", "j_fourth_power_criterion")
    gamma = c.inverse().sqrt().sqrt()
    if gamma ** 4 * c != field.one:
        raise VerificationError(f"gamma = {gamma!r} does not satisfy gamma^4 = 1/c")
    return gamma


def kubert_to_e4(field: Field, t) -> Tuple[FieldElement, FieldElement]:
    """Kubert parameter with a marked order-4 point -> e4 parameters (1/2, t)."""
    if field.characteristic == 2:
        raise InvalidParams("Kubert conversions need characteristic != 2")
    return (field.one / 2, field.element(t))


def kubert_to_e8(field: Field, d) -> FieldElement:
    """Kubert parameter with a marked order-8 point -> e8 parameter 2d - 1."""
    if field.characteristic == 2:
        raise InvalidParams("Kubert conversions need characteristic != 2")
    return 2 * field.element(d) - 1


def kubert_to_e6(field: Field, c) -> FieldElement:
    """Kubert parameter with a marked order-6 point -> e6 parameter (c+1)/(2c)."""
    if field.characteristic == 2:
        raise InvalidParams("Kubert conversions need characteristic != 2")
    c = field.element(c)
    if not c:
        raise InvalidParams("kubert_to_e6 needs c != 0 (denominator 2c)")
    return (c + 1) / (2 * c)
