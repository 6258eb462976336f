"""Division by 2: all ways of computing {Q : 2Q = P} rationally.

Four routes, all returning the same point sets on their common domains:

* ``halve_split``    — every root of the cubic is in K; Q is rebuilt from a
  sign-consistent triple r_i with r_i^2 = x0 - alpha_i and r1*r2*r3 = -y0.
* ``halve_quadext``  — g irreducible; decide by whether x0 - X is a square
  in K_g = K[x]/(g) and expand the halves through norm and trace of the root.
* ``halve_rT``       — uniform two-parameter criterion (works either way):
  r^2 = x0 - alpha and T^2 = ((2*x0 + p)*(x0 - alpha) - 2*y0*r) / r^2.
* ``halve_char2``    — binary fields: r = sqrt(x0) plus an Artin-Schreier
  solve of l^2 + l = x0 + a2.

Every candidate half is re-verified against the group law (2Q = P) before
being returned; a formula slip therefore raises VerificationError instead of
propagating silently.  The tangent slope at each half is reported alongside
it: the line y = slope*(x - x0) - y0 through -P touches the curve at Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .curve import Char2Curve, CubicCurve, Point, element_to_json, point_to_json
from .errors import (
    InvalidParams,
    NotHalvable,
    PointIsW3,
    TwoTorsionHalf,
    VerificationError,
    WrongCase,
)
from .field import FieldElement
from .quadratic import QuadExt, QuadExtElement, ext_sqrt

__all__ = [
    "HalvingResult",
    "RootTriple",
    "halve",
    "halve_split",
    "halve_quadext",
    "halve_rT",
    "halve_char2",
    "halvability_criterion_origin",
    "half_to_roots",
]


@dataclass(frozen=True)
class HalvingResult:
    """Halves of one point: ((Q, tangent slope), ...) plus the roots used."""

    criterion: str  # "split" | "quadext" | "rT" | "char2"
    halves: Tuple[Tuple[Point, FieldElement], ...]
    witness: dict

    @property
    def halvable(self) -> bool:
        return bool(self.halves)

    def points(self) -> List[Point]:
        return [Q for Q, _ in self.halves]

    def to_json_dict(self) -> dict:
        return {
            "halvable": self.halvable,
            "criterion": self.criterion,
            "halves": [
                {"point": point_to_json(Q), "slope": element_to_json(l)}
                for Q, l in self.halves
            ],
            "witness": self.witness,
        }


def _require_model(curve, model: type) -> None:
    if not isinstance(curve, model):
        raise WrongCase(f"this halving criterion needs a {model.__name__}, got {curve!r}")


def _require_affine(P: Point) -> None:
    if P.is_infinity:
        raise InvalidParams("halving is defined here for affine points only")


def _verify_half(curve, P: Point, Q: Point) -> None:
    if not curve.contains(Q):
        raise VerificationError(f"computed half {Q!r} is not on the curve")
    if curve._add(Q, Q) != P:
        raise VerificationError(f"computed half {Q!r} does not double to {P!r}")


def _same_slope(Q: Point, seen: FieldElement, slope: FieldElement) -> None:
    if seen != slope:
        raise VerificationError(f"two sign choices give {Q!r} different tangent slopes")


def halve_split(curve: CubicCurve, P: Point) -> HalvingResult:
    """All four halves when every root of the cubic is rational.

    P is halvable iff all three x0 - alpha_i are squares; the four halves
    come from the sign triples whose product matches -y0.
    """
    _require_model(curve, CubicCurve)
    curve._check(P)
    _require_affine(P)
    roots = curve.g.roots()
    if roots is None:
        raise WrongCase("g is irreducible over K; use halve_quadext")
    alphas = (curve.alpha, roots[0], roots[1])
    x0, y0 = P.x, P.y
    base = []
    for a in alphas:
        r = (x0 - a).sqrt()
        if r is None:
            return HalvingResult("split", (), {})
        base.append(r)
    seen = {}
    halves = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            for e3 in (1, -1):
                r1, r2, r3 = e1 * base[0], e2 * base[1], e3 * base[2]
                if r1 * r2 * r3 != -y0:
                    continue
                s1 = r1 + r2 + r3
                s2 = r1 * r2 + r1 * r3 + r2 * r3
                Q = Point(x0 + s2, -y0 - s1 * s2)
                slope = -s1
                if Q in seen:
                    _same_slope(Q, seen[Q], slope)
                    continue
                seen[Q] = slope
                _verify_half(curve, P, Q)
                halves.append((Q, slope))
    witness = {
        "r1": element_to_json(base[0]),
        "r2": element_to_json(base[1]),
        "r3": element_to_json(base[2]),
    }
    return HalvingResult("split", tuple(halves), witness)


def halve_quadext(curve: CubicCurve, P: Point) -> HalvingResult:
    """The two halves when g is irreducible, via the square root of x0 - X.

    With rho^2 = x0 - X in K_g and the unique r in K satisfying
    r^2 = x0 - alpha, r*norm(rho) = -y0, the halves are
    (alpha + norm(r +- rho), -+ trace(rho) * norm(r +- rho)).
    """
    _require_model(curve, CubicCurve)
    curve._check(P)
    _require_affine(P)
    if curve.g.roots() is not None:
        raise WrongCase("g splits over K; use halve_split")
    z = QuadExtElement(curve.g, P.x, -1)  # x0 - X
    rho = ext_sqrt(z)
    if rho is None:
        return HalvingResult("quadext", (), {})
    nrho = rho.norm()  # nonzero: z != 0 since its X-coefficient is -1
    r = -P.y / nrho
    if r * r != P.x - curve.alpha:
        raise VerificationError("r^2 != x0 - alpha")
    tr = rho.trace()
    halves = []
    for sg in (1, -1):
        n = (r + sg * rho).norm()
        Q = Point(curve.alpha + n, -sg * tr * n)
        slope = -(r + sg * tr)
        _verify_half(curve, P, Q)
        halves.append((Q, slope))
    if halves[0][0] == halves[1][0]:
        raise VerificationError("the two halves coincide")
    witness = {
        "rho": {"c0": element_to_json(rho.c0), "c1": element_to_json(rho.c1)},
        "r": element_to_json(r),
    }
    return HalvingResult("quadext", tuple(halves), witness)


def halve_rT(curve: CubicCurve, P: Point) -> HalvingResult:
    """Halving by the (r, T) criterion, uniform in the factorization of g.

    Raises PointIsW3 for P = (alpha, 0) (that case belongs to halve_split /
    halve_quadext) and NotHalvable when neither sign of r admits a square
    discriminant D = (2*x0 + p)*(x0 - alpha) - 2*y0*r.
    """
    _require_model(curve, CubicCurve)
    curve._check(P)
    _require_affine(P)
    x0, y0 = P.x, P.y
    if x0 == curve.alpha:
        raise PointIsW3("P = (alpha, 0) is excluded; halve it in its own case")
    t = x0 - curve.alpha
    r0 = t.sqrt()
    if r0 is None:
        raise NotHalvable("x0 - alpha is not a square in K")
    p = curve.g.p
    branches = []
    seen = {}
    halves = []
    for r in (r0, -r0):
        D = (2 * x0 + p) * t - 2 * y0 * r
        if not D.is_square():
            continue
        if not D:
            raise VerificationError("discriminant cannot vanish on a nonsingular curve")
        T = D.sqrt() / r
        branches.append((r, T))
        for sg in (1, -1):
            xq = x0 + sg * r * T - y0 / r
            slope = -(r + sg * T)
            Q = Point(xq, slope * (xq - x0) - y0)
            if Q in seen:
                _same_slope(Q, seen[Q], slope)
                continue
            seen[Q] = slope
            _verify_half(curve, P, Q)
            halves.append((Q, slope))
    if not halves:
        raise NotHalvable("no sign of r makes the discriminant a square")
    witness = {
        "branches": [
            {"r": element_to_json(r), "T": element_to_json(T)} for r, T in branches
        ]
    }
    return HalvingResult("rT", tuple(halves), witness)


def halvability_criterion_origin(
    y0: FieldElement, r: FieldElement, T: FieldElement
) -> Tuple[CubicCurve, Tuple[Tuple[Point, FieldElement], ...]]:
    """The curve on which (0, y0) is halvable by design, with its halves.

    Given r != 0 and T != 0, builds y^2 = (x + r^2)(x^2 + (T^2 + 2*y0/r)*x +
    (y0/r)^2) and returns it with the two halves Q_{r,+-T} of (0, y0),
    verified against the group law.
    """
    if not r or not T:
        raise InvalidParams("need r != 0 and T != 0")
    field = r.field
    y0 = field.element(y0)
    w = y0 / r
    curve = CubicCurve(field, -(r * r), T * T + 2 * w, w * w)  # may raise SingularCurve
    P = Point(field.zero, y0)
    if not curve.contains(P):
        raise VerificationError(f"{P!r} is not on the curve built for it")
    halves = []
    for sg in (1, -1):
        xq = sg * r * T - w
        slope = -(r + sg * T)
        Q = Point(xq, slope * xq - y0)
        _verify_half(curve, P, Q)
        halves.append((Q, slope))
    return curve, tuple(halves)


def halve_char2(curve: Char2Curve, P: Point) -> HalvingResult:
    """Halving over GF(2^k): r = sqrt(x0) and l with l^2 + l = x0 + a2.

    P is halvable iff the Artin-Schreier equation is solvable (square roots
    and fourth roots always exist in a finite binary field); l and l + 1
    yield the two halves, which differ by W3 = (0, sqrt(a6)).
    """
    _require_model(curve, Char2Curve)
    curve._check(P)
    _require_affine(P)
    x0, y0 = P.x, P.y
    field = curve.field
    l = field.solve_artin_schreier(x0 + curve.a2)
    if l is None:
        return HalvingResult("char2", (), {})
    beta = curve.a6.sqrt()
    r = x0.sqrt()
    halves = []
    if not x0:
        x1 = beta.sqrt()  # fourth root of a6
        for li in (l, l + 1):
            Q = Point(x1, li * x1 + beta)
            _verify_half(curve, P, Q)
            halves.append((Q, li))
    else:
        for li in (l, l + 1):
            m = y0 + (li + 1) * x0
            x1 = (beta + m) / r
            Q = Point(x1, li * x1 + m)
            _verify_half(curve, P, Q)
            halves.append((Q, li))
    witness = {"l": element_to_json(l), "r": element_to_json(r)}
    return HalvingResult("char2", tuple(halves), witness)


def halve(curve, P: Point) -> HalvingResult:
    """Route P to the halving criterion matching the curve's shape."""
    if isinstance(curve, Char2Curve):
        return halve_char2(curve, P)
    if isinstance(curve, CubicCurve):
        if curve.g.roots() is not None:
            return halve_split(curve, P)
        return halve_quadext(curve, P)
    raise InvalidParams(f"not a curve: {curve!r}")


@dataclass(frozen=True)
class RootTriple:
    """r_i with r_i^2 = x0 - alpha_i and r1*r2*r3 = -y0, over K or K_g."""

    alphas: Tuple
    roots: Tuple

    def s1(self):
        r1, r2, r3 = self.roots
        return r1 + r2 + r3

    def s2(self):
        r1, r2, r3 = self.roots
        return r1 * r2 + r1 * r3 + r2 * r3

    def doubled(self) -> Point:
        """The point P = 2Q this triple divides: (r1^2 + alpha_1, -r1*r2*r3)."""
        x0 = self.roots[0] * self.roots[0] + self.alphas[0]
        y0 = -(self.roots[0] * self.roots[1] * self.roots[2])
        return Point(_to_base(x0), _to_base(y0))

    def rebuild_half(self) -> Tuple[Point, FieldElement]:
        """Invert back to (Q, slope) via x1 = x0 + s2, y1 = -y0 - s1*s2."""
        P = self.doubled()
        s1, s2 = self.s1(), self.s2()
        x1 = P.x + _to_base(s2)
        y1 = -P.y - _to_base(s1 * s2)
        return Point(x1, y1), -_to_base(s1)


def _to_base(v) -> FieldElement:
    if isinstance(v, QuadExtElement):
        if not v.in_base_field():
            raise VerificationError(f"{v!r} should lie in the base field")
        return v.c0
    return v


def half_to_roots(curve: CubicCurve, Q: Point, P: Optional[Point] = None) -> RootTriple:
    """The unique root triple mapping Q back onto the halves of P = 2Q.

    Each r_i = -(y1/2) * (-1/(x1 - alpha_i) + 1/(x1 - alpha_j) + 1/(x1 - alpha_k)),
    computed in K when g splits, in K_g otherwise.  Raises TwoTorsionHalf for
    y(Q) = 0 (then 2Q is the point at infinity and no triple exists).
    """
    _require_model(curve, CubicCurve)
    curve._check(Q)
    _require_affine(Q)
    if not Q.y:
        raise TwoTorsionHalf("y(Q) = 0: Q is 2-torsion and 2Q is infinity")
    if P is None:
        P = curve._add(Q, Q)
    else:
        curve._check(P)
        if curve._add(Q, Q) != P:
            raise InvalidParams("P is not 2Q")
    groots = curve.g.roots()
    if groots is not None:
        alphas = (curve.alpha, groots[0], groots[1])

        def lift(e):
            return e

    else:
        ext = QuadExt(curve.g)
        X = ext.x
        alphas = (ext.embed(curve.alpha), X, X.conj())
        lift = ext.embed
    x1, y1 = lift(Q.x), lift(Q.y)
    rs = []
    for i in range(3):
        j, k = {0, 1, 2} - {i}
        ri = -(y1 / 2) * (
            -(1 / (x1 - alphas[i])) + 1 / (x1 - alphas[j]) + 1 / (x1 - alphas[k])
        )
        rs.append(ri)
    triple = RootTriple(alphas, tuple(rs))
    # Replay the defining identities before handing the triple back.
    x0, y0 = lift(P.x), lift(P.y)
    for a, r in zip(triple.alphas, triple.roots):
        if r * r != x0 - a:
            raise VerificationError("r_i^2 != x0 - alpha_i")
    if rs[0] * rs[1] * rs[2] != -y0:
        raise VerificationError("r1*r2*r3 != -y0")
    rebuilt, _ = triple.rebuild_half()
    if rebuilt != Q:
        raise VerificationError("triple does not rebuild Q")
    return triple
