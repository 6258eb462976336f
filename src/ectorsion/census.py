"""Exhaustive finite-field counts and the worked F_3 / F_4 examples.

``sigma_char2`` reproduces the ordinary char-2 census two independent ways:
the family side sweeps the closed-form parametrization (gamma for order 4,
unordered {t, 1/t} pairs for order 8), while the brute-force side enumerates
every (a2, a6) with a6 != 0, groups by K-isomorphism class — same a6, a2
differing by l^2 + l, i.e. equal absolute trace — and counts the classes
whose rational group contains a point of the requested order using nothing
but the group law, run through ``kernel`` on each curve's constants
(F, a2, a6) with no curve object built.  The two counts must agree (q - 1
for order 4, q/2 - 1 for order 8), as must the curves of each class.

``family_sweep`` builds one member of each isomorphism class of one family
over a small finite field, from the class's normal-form parameter (every
parameter where classes are single parameters), verifying every witness it
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from . import kernel
from .curve import Point, point_to_json
from .errors import FieldTooLarge, InvalidParams, VerificationError
from .families import (
    FamilyInstance,
    e4_new,
    e4char2_new,
    e6_new,
    e8char2_new,
    e8_new,
    e10_new,
    e12_new,
)
from .field import BinaryField, Field, PrimeField

__all__ = [
    "CensusReport",
    "sigma_char2",
    "verify_f3_example",
    "verify_f4_example",
    "family_sweep",
]


@dataclass(frozen=True)
class CensusReport:
    field: str
    torsion_order: int
    family_count: int
    brute_force_count: int

    @property
    def agree(self) -> bool:
        return self.family_count == self.brute_force_count

    def to_json_dict(self) -> dict:
        return {
            "field": self.field,
            "torsion_order": self.torsion_order,
            "family_count": self.family_count,
            "brute_force_count": self.brute_force_count,
            "agree": self.agree,
        }


def _has_point_of_order(c: tuple, points: List[tuple], n: int) -> bool:
    """Whether one of ``points`` (kernel ints on the curve of kernel constants
    ``c`` = (F, a2, a6)) has order exactly n = 2^j.

    x(2P) = x^2 + a6/x^2 depends on x(P) alone.  It is 0, so that 2P is
    the 2-torsion point (0, sqrt(a6)), exactly when x(P)^4 = a6.  So P has
    order 2 iff x(P) = 0, and order 2^j, j >= 2, iff j - 2 doublings take
    x(P) to a6^(1/4): the x-coordinates are doubled as a set, and
    ``c2_double_x`` drops x = 0, whose double is O.
    """
    if n < 2 or n & (n - 1):
        raise InvalidParams(f"order {n} is not a power of two")
    xs = {P[0] for P in points}
    for _ in range(n.bit_length() - 3):  # none for n = 2 and 4
        xs = set(kernel.c2_double_x(c, xs))
    F, _, a6 = c
    return (F.sqrt(F.sqrt(a6)) if n > 2 else 0) in xs


def sigma_char2(field: BinaryField, N: int) -> CensusReport:
    """Count ordinary char-2 iso classes with an order-N point, both ways."""
    if not isinstance(field, BinaryField):
        raise InvalidParams("sigma_char2 counts over GF(2^k)")
    if N not in (4, 8):
        raise InvalidParams("the census covers torsion orders 4 and 8")
    if field.k > 6:
        raise FieldTooLarge("brute-force census sweeps all curves: k <= 6")

    # Family side: closed-form parametrization, deduplicated, witnesses checked.
    family_count = len(family_sweep(field, N))

    # Brute-force side: every curve as kernel constants, grouped into
    # (a6, trace a2) classes; a6 runs over 1 .. q - 1, so each is ordinary.
    F = field._kernel()
    q = 1 << field.k
    classes: Dict[tuple, List[bool]] = {}
    a2s = [(a2, F.trace(a2)) for a2 in range(q)]
    for a6 in range(1, q):
        for a2, trace in a2s:
            c = (F, a2, a6)
            found = _has_point_of_order(c, kernel.c2_points(c), N)
            classes.setdefault((a6, trace), []).append(found)
    if len(classes) != 2 * (q - 1):
        raise VerificationError(f"expected 2(q - 1) isomorphism classes, found {len(classes)}")
    for key, flags in classes.items():
        # Isomorphic curves must agree on the presence of order-N points.
        if any(f != flags[0] for f in flags):
            raise VerificationError(f"curves in class (a6, trace a2) = {key} disagree")
    brute = sum(1 for flags in classes.values() if flags[0])
    return CensusReport(field.descriptor, N, family_count, brute)


def verify_f3_example() -> dict:
    """E6 at t = 1 over F_3: six points, cyclic, generated by (-2, -1) = (1, 2)."""
    F = PrimeField(3)
    inst = e6_new(F, 1)
    curve = inst.curve
    points = curve.full_group()
    gen = Point(F(1), F(2))
    gen_order = curve.order_of(gen)
    upper = kernel._hasse_interval(3)[1]
    return {
        "field": F.descriptor,
        "curve": curve.to_json_dict(),
        "group_order": len(points),
        "generator": point_to_json(gen),
        "generator_order": gen_order,
        "cyclic": gen_order == len(points),
        "hasse_upper": upper,
        "hasse_upper_below_12": upper < 12,
        "ok": len(points) == 6 and gen_order == 6 and upper < 12,
    }


def verify_f4_example() -> dict:
    """y^2 + xy = x^3 + 1 over GF(4): eight points, cyclic, generated by (rho, rho)."""
    F = BinaryField(2)  # modulus x^2 + x + 1; rho is the bit-vector 2
    rho = F(2)
    inst8 = e8char2_new(F, rho)
    inst4 = e4char2_new(F, F(1))
    curve = inst8.curve
    points = curve.full_group()
    gen = Point(rho, rho)
    gen_order = curve.order_of(gen)
    return {
        "field": F.descriptor,
        "curve": curve.to_json_dict(),
        "group_order": len(points),
        "generator": point_to_json(gen),
        "generator_order": gen_order,
        "cyclic": gen_order == len(points),
        "equation_is_x3_plus_1": curve.a2 == 0 and curve.a6 == 1,
        "coincides_with_order4_curve": curve == inst4.curve,
        "ok": (
            len(points) == 8
            and gen_order == 8
            and curve.a2 == 0
            and curve.a6 == 1
            and curve == inst4.curve
        ),
    }


def family_sweep(field: Field, N: int) -> List[FamilyInstance]:
    """Every isomorphism class of the order-N family over a small finite field.

    One constructor call per normal-form parameter, in field order:
    (1, b) for e4, since (a, b) ~ (1, b/a^2) (``e4_normalize``); the t of
    {t, -t} with the smaller value for e8; the t of {t, 1/t} with the smaller
    value for e8char2; every parameter for e6, e10, e12 and e4char2 (whose
    gamma -> a6 = gamma^4 is one-to-one).  Validity is the same across a
    class, so a parameter the constructor refuses is a class that is skipped.
    Every instance returned has had its witnesses checked by its constructor.
    The largest fields swept are F_97 and GF(2^6).
    """
    q = field.order
    if q is None:
        raise FieldTooLarge("parameter sweeps need a finite field")
    if q > 97:
        raise FieldTooLarge("parameter sweeps are desk-scale: at most F_97 or GF(2^6)")
    if isinstance(field, BinaryField):
        if N == 4:
            ctor, params = e4char2_new, [(g,) for g in field.elements() if g]
        elif N == 8:  # the smaller t of each pair {t, 1/t}, t != 0, 1 (t = 1/t only at 1)
            ctor, params = e8char2_new, [(t,) for t in field.elements()
                                         if 1 < t.value < t.inverse().value]
        else:
            raise InvalidParams("binary-field sweeps cover N in {4, 8}")
    elif N == 4:
        ctor, params = e4_new, [(field.one, b) for b in field.elements() if b]
    elif N == 8:
        ctor, params = e8_new, [(t,) for t in field.elements() if t.value <= (-t).value]
    elif N in (6, 10, 12):
        ctor = {6: e6_new, 10: e10_new, 12: e12_new}[N]
        params = [(v,) for v in field.elements()]
    else:
        raise InvalidParams("N must be one of {4, 6, 8, 10, 12}")
    out: List[FamilyInstance] = []
    for args in params:
        try:
            out.append(ctor(field, *args))
        except InvalidParams:
            continue
    return out
