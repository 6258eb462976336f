"""Parametrized curve families with a marked torsion point of order 4..12.

Each ``<family>_new`` constructor validates its parameters (raising
InvalidParams naming the violated condition), builds the curve, and attaches
TorsionWitness records for the distinguished points.  Every claimed order
is replayed through the group law before the instance is returned; a
mismatch raises VerificationError rather than producing a bad certificate.
One order search does it: the witness G of largest claimed order N is
checked on the kernel's multiples of G, which stop at ceil(N/2)G, and every
other witness equal to some jG or -jG = (N - j)G has order N / gcd(j, N).
A witness outside them gets its own ``order_of``, so nothing assumes the
group is cyclic.

Like the halving criteria, a constructor checks its parameters once, at
the boundary, and then computes on raw values: the curve's constants and
the witnesses' coordinates are ints mod p or ``Fraction``s, through the
field's ``_red`` and ``_inv`` with one formula for both fields, or ints
through the GF(2^k) context's ``sq``, ``mul`` and ``div``.  Over Q every
literal enters through ``_from_int``, so every raw value is a ``Fraction``.
The witnesses' points are built in ``_witnesses`` only.  A family over a
field of characteristic != 2 checks that first: every GF(2^k) element is a
square, so a square-class condition would otherwise take the blame.

Each child family is built from its parent's builder, on raw values:

    E8      = E4 at (a, b) = (2t^2/(t^2 - 1), -1), plus four order-8 points
    E8char2 = E4char2 at gamma = t^2/(t + 1)^4, plus one order-8 point
    E12     lies on E6's curve at t = -y3 = -4T^2(T^2 + 1)/(T^2 - 1)^2

E8 and E8char2 begin with their parent's witnesses; E12 lists its own.

The validity predicates are exactly the nonsingularity conditions: for each
family the discriminant data factors as

    E4 :  disc(g) = a^2 (a^2 + 4b),                 g(0)  = b^2
    E6 :  disc(g) = t^3 (t + 4),                    g(-1) = 1 - 2t
    E10:  disc(g) ~ u (u^2 + u - 1),                g(-1) ~ (u-1)(u^2-4u-1)
    E12:  disc(g) ~ (T^2+1)(3T^2-1) (up to squares), g(-1) ~ (3T^2+1)^2

so the listed exclusions reject precisely the singular instances, and the
"not a square" conditions say the 2-torsion is exactly {(alpha, 0)}.

The order-4 point of E12 sits at x = -4T^2/(T^2-1), its on-curve version
(verified symbolically and by exhaustive finite-field sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import Callable, Dict, Optional, Tuple, Union

from . import kernel
from .curve import (
    Char2Curve,
    CubicCurve,
    Point,
    TorsionWitness,
    _Record,
    _pt_from_ints,
    element_to_json,
)
from .errors import InvalidParams, VerificationError
from .field import Field, FieldElement, require_binary, require_odd_characteristic

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
    "FAMILIES",
    "FAMILY_NAMES",
    "CLASS_WALKS",
]


@dataclass(frozen=True)
class FamilyInstance(_Record):
    """A constructed family member: parameters, curve, verified witnesses."""

    __slots__ = ("family", "params", "curve", "witnesses")
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
    """The witnesses of ``specs``, each ((x, y), claimed order[, note]), in order.

    Each (x, y) is a pair of raw, canonical values of ``curve.field``, and
    the witnesses' points are built here, for the answer, the one place a
    constructor makes them.  The point G of largest claimed order N is
    checked on the curve, and ``kernel._multiples`` gives G, 2G, ...,
    ceil(N/2)G and G's exact order.  When that is N, the multiples jG and
    their negations (N - j)G are all of G's nonzero multiples, and a witness
    equal to jG has order N / gcd(j, N).  A witness found among none of
    them, or every witness when G's order is not N, is checked on the curve
    and has its order checked on its own by ``curve.order_of``.  The first
    witness off the curve or with a wrong claim raises VerificationError.
    """
    F, k, kp = curve.field, curve._k, curve._kp

    def on_curve(xy):
        if not k.contains(kp, xy):
            raise VerificationError(f"witness {_pt_from_ints(F, xy)!r} is not on the curve")
        return xy

    G, N = max(specs, key=itemgetter(1))[:2]
    mults, n = kernel._multiples(k.add, k.neg, kp, on_curve(G), (N + 1) // 2)
    index = {}
    if n == N:
        for j, pt in enumerate(mults, 1):
            index[pt] = j
            index[k.neg(kp, pt)] = N - j
    out = []
    for xy, order, *note in specs:
        j = index.get(xy)
        got = N // gcd(j, N) if j else curve.order_of(_pt_from_ints(F, on_curve(xy)))
        if got != order:
            raise VerificationError(
                f"witness {_pt_from_ints(F, xy)!r} claims order {order} but has order {got}"
            )
        out.append(TorsionWitness(_pt_from_ints(F, xy), order, note[0] if note else ""))
    return tuple(out)


def _nonzero(field: Field, value, name: str, family: str):
    """``value``'s raw value in ``field``; InvalidParams when it is 0."""
    v = field.element(value).value
    if not v:
        raise InvalidParams(f"{family} needs {name} != 0")
    return v


def e4_new(field: Field, a, b) -> FamilyInstance:
    """y^2 = x(x^2 + (a^2+2b)x + b^2): order-4 points over (0,0).

    Valid iff a != 0, b != 0 and a^2 + 4b is not a square (the latter makes
    (0,0) the only rational 2-torsion point and the curve nonsingular).
    """
    a, b = _e4_params(field, a, b)
    curve, specs = _e4(field, a, b)
    return FamilyInstance("e4", {"a": FieldElement(field, a), "b": FieldElement(field, b)},
                          curve, _witnesses(curve, specs))


def _e4(field: Field, a, b):
    """E4(a, b) on raw values: the curve and its witness specs, orders 2, 4, 4."""
    red, zero = field._red, field._from_int(0)
    curve = CubicCurve(field, zero, red(a * a + 2 * b), red(b * b))
    x, y = red(-b), red(a * b)
    return curve, (((zero, zero), 2), ((x, y), 4), ((x, red(-y)), 4))


def _e4_params(field: Field, a, b):
    """(a, b) as raw values once valid for e4; InvalidParams naming the failed condition."""
    require_odd_characteristic(field, "e4")
    a = _nonzero(field, a, "a", "e4")
    b = _nonzero(field, b, "b", "e4")
    if field._sqrt(a * a + 4 * b) is not None:
        raise InvalidParams("e4 needs a^2 + 4b to be a non-square")
    return a, b


def e4_normalize(field: Field, a, b) -> Tuple[Tuple[FieldElement, FieldElement], Callable[[Point], Point]]:
    """Scale (a, b) ~ (1, b/a^2) through (x, y) -> (x/a^2, y/a^3)."""
    a = FieldElement(field, _nonzero(field, a, "a", "e4"))
    b = FieldElement(field, _nonzero(field, b, "b", "e4"))
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
    require_odd_characteristic(field, "e6")
    t = _nonzero(field, t, "t", "e6")
    red = field._red
    if not red(t + 4):
        raise InvalidParams("e6 needs t != -4")
    if not red(2 * t - 1):
        raise InvalidParams("e6 needs t != 1/2")
    zero, m1 = field._from_int(0), field._from_int(-1)
    curve = _e6_curve(field, t)
    x6, y6 = red(-2 * t), red(t - 2 * t * t)
    witnesses = _witnesses(curve, (
        ((m1, zero), 2),
        ((zero, t), 3),
        ((zero, red(-t)), 3),
        ((x6, y6), 6),
        ((x6, red(-y6)), 6),
    ))
    return FamilyInstance("e6", {"t": FieldElement(field, t)}, curve, witnesses)


def _e6_curve(field: Field, t):
    """E6(t) on the raw value t: y^2 = (x+1)(x^2 + (t^2+2t)x + t^2)."""
    red = field._red
    return CubicCurve(field, field._from_int(-1), red(t * t + 2 * t), red(t * t))


def e6_exactly_one_2torsion(field: Field, t) -> bool:
    """True when ((-1), 0) is the only rational 2-torsion: t^2 + 4t non-square."""
    t = field.element(t)
    return not (t * t + 4 * t).is_square()


def e8_new(field: Field, t) -> FamilyInstance:
    """E4 at (a, b) = (2t^2/(t^2-1), -1), plus four points of order 8.

    The curve is y^2 = x(x^2 + 2(t^4+2t^2-1)/(t^2-1)^2 x + 1), E4's order-4
    points are (1, +-2t^2/(1-t^2)); valid iff t is outside {0, 1, -1} and
    2t^2 - 1 is not a square.
    """
    t = _e8_param(field, t)
    red = field._red
    i = field._inv(1 - t * t)
    curve, specs = _e4(field, red(-2 * t * t * i), field._from_int(-1))
    im, ip = (1 + t) * i, (1 - t) * i  # 1/(1 - t) and 1/(1 + t)
    x8a, y8a = red((1 + t) * im), red(2 * t * im * im)
    x8b, y8b = red((1 - t) * ip), red(2 * t * ip * ip)
    witnesses = _witnesses(curve, specs + (
        ((x8a, red(-y8a)), 8),
        ((x8a, y8a), 8),
        ((x8b, y8b), 8),
        ((x8b, red(-y8b)), 8),
    ))
    return FamilyInstance("e8", {"t": FieldElement(field, t)}, curve, witnesses)


def _e8_param(field: Field, t):
    """t as a raw value once valid for e8; InvalidParams naming the failed condition."""
    require_odd_characteristic(field, "e8")
    t = _nonzero(field, t, "t", "e8")
    if not field._red(t * t - 1):
        raise InvalidParams("e8 needs t != 1 and t != -1")
    if field._sqrt(2 * t * t - 1) is not None:
        raise InvalidParams("e8 needs 2t^2 - 1 to be a non-square")
    return t


def e10_new(field: Field, u) -> FamilyInstance:
    """The order-10 family: (0, 4u^2/((u-1)(u+1)^2)) has order 5.

    Valid iff u is outside {0, 1, -1}, u^2+u-1 != 0, u^2-4u-1 != 0, and
    u(u^2+u-1) is not a square.
    """
    require_odd_characteristic(field, "e10")
    u = _nonzero(field, u, "u", "e10")
    red = field._red
    u2 = u * u
    if not red(u2 - 1):
        raise InvalidParams("e10 needs u != 1 and u != -1")
    if not red(u2 + u - 1):
        raise InvalidParams("e10 needs u^2 + u - 1 != 0")
    if not red(u2 - 4 * u - 1):
        raise InvalidParams("e10 needs u^2 - 4u - 1 != 0")
    if field._sqrt(u * (u2 + u - 1)) is not None:
        raise InvalidParams("e10 needs u(u^2 + u - 1) to be a non-square")
    i = field._inv((u - 1) * (u + 1) * (u + 1))  # 1/D
    ii = i * i
    zero, m1 = field._from_int(0), field._from_int(-1)
    curve = CubicCurve(field, m1, red(8 * u2 * (u2 * u + u2 - u + 1) * ii), red(16 * u2 * u2 * ii))
    w2, p5 = (m1, zero), (zero, red(4 * u2 * i))
    witnesses = _witnesses(curve, (
        (w2, 2),
        (p5, 5),
        (curve._k.add(curve._kp, p5, w2), 10, "sum of the order-5 and order-2 points"),
    ))
    return FamilyInstance("e10", {"u": FieldElement(field, u)}, curve, witnesses)


def e12_new(field: Field, T) -> FamilyInstance:
    """The order-12 family on E6's curve at t = -4T^2(T^2+1)/(T^2-1)^2.

    Its order-3 points lie over x = 0, its order-4 points over x = -4T^2/(T^2-1).
    Valid iff T is outside {0, 1, -1}, T^2+1 != 0, 3T^2+1 != 0, 3T^2-1 != 0,
    and (T^2+1)(3T^2-1) is not a square.
    """
    require_odd_characteristic(field, "e12")
    T = _nonzero(field, T, "T", "e12")
    red = field._red
    T2 = T * T
    if not red(T2 - 1):
        raise InvalidParams("e12 needs T != 1 and T != -1")
    if not red(T2 + 1):
        raise InvalidParams("e12 needs T^2 + 1 != 0")
    if not red(3 * T2 + 1):
        raise InvalidParams("e12 needs 3T^2 + 1 != 0")
    if not red(3 * T2 - 1):
        raise InvalidParams("e12 needs 3T^2 - 1 != 0")
    if field._sqrt((T2 + 1) * (3 * T2 - 1)) is not None:
        raise InvalidParams("e12 needs (T^2+1)(3T^2-1) to be a non-square")
    i = field._inv(T2 - 1)
    i2 = i * i
    zero, m1 = field._from_int(0), field._from_int(-1)
    y3 = red(4 * T2 * (T2 + 1) * i2)
    curve = _e6_curve(field, red(-y3))
    x4, y4 = red(-4 * T2 * i), red(8 * T2 * T * (3 * T2 + 1) * i2 * i)
    p3, p4 = (zero, y3), (x4, y4)
    witnesses = _witnesses(curve, (
        ((m1, zero), 2),
        (p3, 3),
        ((zero, red(-y3)), 3),
        (p4, 4),
        ((x4, red(-y4)), 4),
        (curve._k.add(curve._kp, p3, p4), 12, "sum of the order-3 and order-4 points"),
    ))
    return FamilyInstance("e12", {"T": FieldElement(field, T)}, curve, witnesses)


def e4char2_new(field: Field, gamma) -> FamilyInstance:
    """y^2 + xy = x^3 + gamma^4 over GF(2^k): (gamma, gamma^2) has order 4."""
    require_binary(field, "e4char2")
    gamma = _nonzero(field, gamma, "gamma", "e4char2")
    curve, specs = _e4char2(field, gamma)
    return FamilyInstance("e4char2", {"gamma": FieldElement(field, gamma)},
                          curve, _witnesses(curve, specs))


def _e4char2(field: Field, gamma):
    """E4char2(gamma) on the raw value gamma: the curve and its witness specs, orders 2, 4."""
    sq = field._kernel().sq
    g2 = sq(gamma)
    return Char2Curve(field, 0, sq(g2)), (((0, g2), 2), ((gamma, g2), 4))


def e8char2_new(field: Field, t) -> FamilyInstance:
    """E4char2 at gamma = t^2/(t+1)^4, plus a point of order 8 in closed form.

    The curve is y^2 + xy = x^3 + (t/(t^2+1))^8 over GF(2^k); valid iff t is
    outside {0, 1}.
    """
    t = _e8char2_param(field, t)
    gf = field._kernel()
    sq, mul, div = gf.sq, gf.mul, gf.div
    t2 = sq(t)
    t3 = mul(t2, t)
    i4 = div(1, sq(t2 ^ 1))  # 1/(t + 1)^4 in characteristic 2, inverted once
    curve, specs = _e4char2(field, mul(t2, i4))
    witnesses = _witnesses(curve, specs + (
        ((mul(t3, i4), mul(mul(t3, t3 ^ t2 ^ 1), sq(i4))), 8),  # (t^6 + t^5 + t^3)/(t + 1)^8
    ))
    return FamilyInstance("e8char2", {"t": FieldElement(field, t)}, curve, witnesses)


def _e8char2_param(field: Field, t):
    """t as a raw value once valid for e8char2; InvalidParams naming the failed condition."""
    require_binary(field, "e8char2")
    t = _nonzero(field, t, "t", "e8char2")
    if t == 1:
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
    red = field._red
    if not red(c * c + 4 * d):
        raise InvalidParams("iso_e4 needs c^2 + 4d != 0")
    if red(b * c * c - d * a * a):
        return None
    u = red(c * field._inv(a))
    u2 = u * u
    if red(u2 * (a * a + 2 * b) - c * c - 2 * d) or red(u2 * u2 * b * b - d * d):
        raise VerificationError(f"iso_e4: u = {FieldElement(field, u)!r} fails the displayed conditions")
    return FieldElement(field, u)


def iso_e8(field: Field, s, t) -> bool:
    """Whether E8(s) and E8(t) are K-isomorphic: exactly when s = +-t.

    An isomorphism fixes (0, 0), so P(s) = +-P(t), and P(s) = P(t) iff
    (s^2 - t^2)(s^2 + t^2 - 2s^2t^2) = 0, whose second factor would make
    2s^2 - 1 a square, while -P(t) is no P(s): P + 2 is a square, -(P - 2) not.
    """
    s = _e8_param(field, s)
    t = _e8_param(field, t)
    return s == t or s == field._red(-t)


def iso_e8char2(field: Field, s, t) -> bool:
    """E8char2(s) and E8char2(t) coincide exactly when s = t or s = 1/t."""
    s = _e8char2_param(field, s)
    t = _e8char2_param(field, t)
    return s == t or field._kernel().mul(s, t) == 1


def j_fourth_power_criterion(field: Field, c) -> FieldElement:
    """gamma with gamma^4 = 1/c, i.e. the e4char2 parameter whose curve has j = c.

    Over a finite binary field every nonzero element is a fourth power, so
    this always succeeds for c != 0; the result pins down the unique (up to
    K-isomorphism) order-4 curve with the given j-invariant.
    """
    require_binary(field, "j_fourth_power_criterion")
    c = FieldElement(field, _nonzero(field, c, "c", "j_fourth_power_criterion"))
    gamma = c.inverse().sqrt().sqrt()
    if gamma ** 4 * c != field.one:
        raise VerificationError(f"gamma = {gamma!r} does not satisfy gamma^4 = 1/c")
    return gamma


def kubert_to_e4(field: Field, t) -> Tuple[FieldElement, FieldElement]:
    """Kubert parameter with a marked order-4 point -> e4 parameters (1/2, t)."""
    require_odd_characteristic(field, "kubert_to_e4")
    return (field.one / 2, field.element(t))


def kubert_to_e8(field: Field, d) -> FieldElement:
    """Kubert parameter with a marked order-8 point -> e8 parameter 2d - 1."""
    require_odd_characteristic(field, "kubert_to_e8")
    return 2 * field.element(d) - 1


def kubert_to_e6(field: Field, c) -> FieldElement:
    """Kubert parameter with a marked order-6 point -> e6 parameter (c+1)/(2c)."""
    require_odd_characteristic(field, "kubert_to_e6")
    c = field.element(c)
    if not c:
        raise InvalidParams("kubert_to_e6 needs c != 0 (denominator 2c)")
    return (c + 1) / (2 * c)


FAMILIES = {ctor.__name__.removesuffix("_new"): ctor for ctor in (
    e4_new, e6_new, e8_new, e10_new, e12_new, e4char2_new, e8char2_new)}
FAMILY_NAMES = tuple(FAMILIES)

# One argument tuple per isomorphism class, in field order, for the families
# whose classes are not their parameters: (1, b) for e4 (``e4_normalize``);
# the smaller of {t, -t} for e8 and of {t, 1/t}, t != 1, for e8char2 (the iso
# tests); gamma != 0 for e4char2.  Each other family has a class per parameter.
CLASS_WALKS = {
    "e4": lambda F: [(F.one, b) for b in F.elements() if b],
    "e8": lambda F: [(t,) for t in F.elements() if t.value <= (-t).value],
    "e4char2": lambda F: [(g,) for g in F.elements() if g],
    "e8char2": lambda F: [(t,) for t in F.elements() if 1 < t.value < t.inverse().value],
}
