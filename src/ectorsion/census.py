"""Exhaustive finite-field counts and the worked F_3 / F_4 examples.

``sigma_char2`` reproduces the ordinary char-2 census two independent ways:
the family side sweeps the closed-form parametrization (gamma for order 4,
unordered {t, 1/t} pairs for order 8), while the brute-force side enumerates
every (a2, a6) with a6 != 0, groups by K-isomorphism class — same a6, a2
differing by l^2 + l, i.e. equal absolute trace — and counts the classes
whose rational group contains a point of the requested order using nothing
but the group law, run on ints through ``kernel``.  The two counts must
agree (q - 1 for order 4, q/2 - 1 for order 8).

``family_sweep`` enumerates all valid parameters of one family over a small
finite field, verifying every witness, deduplicated by the family's
isomorphism criterion where one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from . import kernel
from .curve import Char2Curve, Point, _hasse_interval, point_to_json
from .errors import FieldTooLarge, InvalidParams, VerificationError
from .families import (
    FamilyInstance,
    _e8_isomorphic,
    e4_new,
    e4char2_new,
    e6_new,
    e8char2_new,
    e8_new,
    e10_new,
    e12_new,
)
from .field import BinaryField, Field, FieldElement, PrimeField

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


def _has_point_of_order(curve: Char2Curve, points: List[tuple], n: int) -> bool:
    """Whether one of ``points`` (kernel ints on ``curve``) has order exactly n = 2^j.

    x(2P) depends on x(P) alone, and x(P) = 0 only at the 2-torsion point,
    whose double is O.  So P has order 2^j iff j - 1 doublings take x(P)
    to 0 without passing through 0 on the way: the x-coordinates are
    doubled j - 1 times as a set, and ``c2_double_x`` drops the zeros.
    """
    if n < 2 or n & (n - 1):
        raise InvalidParams(f"order {n} is not a power of two")
    xs = {P[0] for P in points}
    for _ in range(n.bit_length() - 2):
        xs = set(kernel.c2_double_x(*curve._kp, xs))
    return 0 in xs


def sigma_char2(field: BinaryField, N: int) -> CensusReport:
    """Count ordinary char-2 iso classes with an order-N point, both ways."""
    if not isinstance(field, BinaryField):
        raise InvalidParams("sigma_char2 counts over GF(2^k)")
    if N not in (4, 8):
        raise InvalidParams("the census covers torsion orders 4 and 8")
    if field.k > 6:
        raise FieldTooLarge("brute-force census sweeps all curves: k <= 6")

    # Family side: closed-form parametrization, deduplicated.
    family_count = len(family_sweep(field, N, verify=False))

    # Brute-force side: every curve, grouped into (a6, trace a2) classes.
    classes: Dict[tuple, List[bool]] = {}
    a2s = [(a2, field.trace(a2)) for a2 in field.elements()]
    for a6 in field.elements():
        if not a6:
            continue
        for a2, trace in a2s:
            curve = Char2Curve(field, a2, a6)
            found = _has_point_of_order(curve, kernel.c2_points(*curve._kp), N)
            classes.setdefault((a6.value, trace), []).append(found)
    if len(classes) != 2 * ((1 << field.k) - 1):
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
    upper = _hasse_interval(3)[1]
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


def family_sweep(field: Field, N: int, verify: bool = True) -> List[FamilyInstance]:
    """Every valid parameter of the order-N family over a small finite field.

    Deduplicates by the family's isomorphism test where one exists (e4 via
    the b/a^2 normal form, e8 via the explicit criterion, char-2 families by
    coinciding curves); the other families return one instance per parameter.
    """
    if isinstance(field, BinaryField):
        if N == 4:
            out, seen = [], set()
            for g in field.elements():
                if not g:
                    continue
                inst = e4char2_new(field, g, verify=verify)
                if inst.curve.a6 not in seen:
                    seen.add(inst.curve.a6)
                    out.append(inst)
            return out
        if N == 8:
            out, seen = [], set()
            for t in field.elements():
                if not t or t == field.one:
                    continue
                key = frozenset({t.value, (field.one / t).value})
                if key in seen:
                    continue
                seen.add(key)
                out.append(e8char2_new(field, t, verify=verify))
            return out
        raise InvalidParams("binary-field sweeps cover N in {4, 8}")
    q = field.order
    if q is None:
        raise FieldTooLarge("parameter sweeps need a finite field")
    if q > 97:
        raise FieldTooLarge("parameter sweeps are desk-scale: at most F_97")
    out: List[FamilyInstance] = []
    if N == 4:
        seen = set()
        for a in field.elements():
            if not a:
                continue
            for b in field.elements():
                if not b:
                    continue
                try:
                    inst = e4_new(field, a, b, verify=verify)
                except InvalidParams:
                    continue
                key = b / (a * a)  # iso_e4: (a,b) ~ (c,d) iff b/a^2 = d/c^2
                if key in seen:
                    continue
                seen.add(key)
                out.append(inst)
        return out
    if N in (6, 10, 12):
        ctor = {6: e6_new, 10: e10_new, 12: e12_new}[N]
        for v in field.elements():
            try:
                out.append(ctor(field, v, verify=verify))
            except InvalidParams:
                continue
        return out
    if N == 8:
        reps: List[FieldElement] = []
        for t in field.elements():
            try:
                inst = e8_new(field, t, verify=verify)
            except InvalidParams:
                continue
            if any(_e8_isomorphic(r, t) for r in reps):
                continue
            reps.append(t)
            out.append(inst)
        return out
    raise InvalidParams("N must be one of {4, 6, 8, 10, 12}")
