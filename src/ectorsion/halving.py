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

The three criteria for characteristic != 2 check the curve model and the
point once, at their boundary (``curve._check``), then compute on the raw
field values of its coordinates: ints mod p over F_p, ``Fraction``s over Q,
with the field's raw helpers (``_red``, ``_inv``, ``_sqrt``), in one code
path for both fields.  Only the answer's points, slopes and witness strings
are built as field elements.

Every candidate half is replayed on raw coordinates through the curve's
kernel group law (on the curve, and 2Q = P) before being returned; a
formula slip therefore raises VerificationError instead of propagating
silently.  The tangent slope at each half is reported alongside it: the
line y = slope*(x - x0) - y0 through -P touches the curve at Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .curve import (
    Char2Curve,
    CubicCurve,
    Point,
    _pt_from_ints,
    _pt_ints,
    element_to_json,
    point_to_json,
)
from .errors import (
    InvalidParams,
    PointIsW3,
    TwoTorsionHalf,
    VerificationError,
    WrongCase,
)
from .field import FieldElement
from .quadratic import QuadExtElement, ext_sqrt

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


def _verify_half(curve, pt: tuple, q: tuple) -> None:
    """Replay a half q of pt, both raw (x, y), through the curve's kernel model."""
    if not curve._k.contains(curve._kp, q):
        raise VerificationError(f"computed half {_pt_from_ints(curve.field, q)!r} is not on the curve")
    if curve._k.add(curve._kp, q, q) != pt:
        raise VerificationError(f"computed half {_pt_from_ints(curve.field, q)!r} does not double "
                                f"to {_pt_from_ints(curve.field, pt)!r}")


def _same_slope(curve, q: tuple, seen, slope) -> None:
    if seen != slope:
        raise VerificationError(
            f"two sign choices give {_pt_from_ints(curve.field, q)!r} different tangent slopes")


def _answer(F, criterion: str, halves, witness: dict) -> HalvingResult:
    """The result of raw, reduced ((x, y), slope) halves as points and elements."""
    elt = F._elt
    out = []
    for (x, y), slope in halves:
        out.append((Point(elt(F, x), elt(F, y)), elt(F, slope)))
    return HalvingResult(criterion, tuple(out), witness)


def _to_json(F, v) -> str:
    return element_to_json(F._elt(F, v))


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
    F = curve.field
    sqrt = F._sqrt
    x0, y0 = P.x.value, P.y.value
    signed = []
    for a in (curve.alpha.value, roots[0].value, roots[1].value):
        r = sqrt(x0 - a)
        if r is None:
            return HalvingResult("split", (), {})
        signed.append((r, -r))
    red, pt = F._red, (x0, y0)
    seen = {}
    halves = []
    for r1 in signed[0]:
        for r2 in signed[1]:
            r12 = r1 * r2
            for r3 in signed[2]:
                if red(r12 * r3 + y0):  # r1*r2*r3 != -y0
                    continue
                s1 = r1 + r2 + r3
                s2 = r12 + (r1 + r2) * r3
                q = (red(x0 + s2), red(-y0 - s1 * s2))
                slope = red(-s1)
                if q in seen:
                    _same_slope(curve, q, seen[q], slope)
                    continue
                seen[q] = slope
                _verify_half(curve, pt, q)
                halves.append((q, slope))
    if not halves:  # (r1*r2*r3)^2 = y0^2, so one sign triple has product -y0
        raise VerificationError("no sign triple gives r1*r2*r3 = -y0")
    witness = {
        "r1": _to_json(F, signed[0][0]),
        "r2": _to_json(F, signed[1][0]),
        "r3": _to_json(F, signed[2][0]),
    }
    return _answer(F, "split", halves, witness)


def halve_quadext(curve: CubicCurve, P: Point) -> HalvingResult:
    """The two halves when g is irreducible, via the square root of x0 - X.

    With rho^2 = x0 - X in K_g and the unique r in K satisfying
    r^2 = x0 - alpha, r*norm(rho) = -y0, the halves are
    (alpha + norm(r +- rho), -+ trace(rho) * norm(r +- rho)).
    """
    _require_model(curve, CubicCurve)
    curve._check(P)
    _require_affine(P)
    g = curve.g
    if g.roots() is not None:
        raise WrongCase("g splits over K; use halve_split")
    F = curve.field
    rho = ext_sqrt(QuadExtElement(g, P.x, -1))  # x0 - X
    if rho is None:
        return HalvingResult("quadext", (), {})
    red = F._red
    x0, y0, alpha, gp, gq = P.x.value, P.y.value, curve.alpha.value, g.p.value, g.q.value
    c0, c1 = rho.c0.value, rho.c1.value
    nrho = c0 * c0 - c0 * c1 * gp + c1 * c1 * gq  # nonzero: rho != 0 as x0 - X != 0
    r = red(-y0 * F._inv(nrho))
    r2 = r * r
    if red(r2 - x0 + alpha):
        raise VerificationError("r^2 != x0 - alpha")
    tr = 2 * c0 - c1 * gp
    mid = r2 + nrho
    pt = (x0, y0)
    halves = []
    for t in (tr, -tr):  # t = +-trace(rho): norm(r +- rho) = r^2 + r*t + norm(rho)
        n = mid + r * t
        q = (red(alpha + n), red(-t * n))
        _verify_half(curve, pt, q)
        halves.append((q, red(-(r + t))))
    if halves[0][0] == halves[1][0]:
        raise VerificationError("the two halves coincide")
    witness = {
        "rho": {"c0": element_to_json(rho.c0), "c1": element_to_json(rho.c1)},
        "r": _to_json(F, r),
    }
    return _answer(F, "quadext", halves, witness)


def halve_rT(curve: CubicCurve, P: Point) -> HalvingResult:
    """Halving by the (r, T) criterion, uniform in the factorization of g.

    Raises PointIsW3 for P = (alpha, 0) (that case belongs to halve_split /
    halve_quadext).  P has no halves, and the result is empty, when x0 - alpha
    is not a square or neither sign of r admits a square discriminant
    D = (2*x0 + p)*(x0 - alpha) - 2*y0*r.
    """
    _require_model(curve, CubicCurve)
    curve._check(P)
    _require_affine(P)
    F = curve.field
    x0, y0, alpha = P.x.value, P.y.value, curve.alpha.value
    if x0 == alpha:
        raise PointIsW3("P = (alpha, 0) is excluded; halve it in its own case")
    t = x0 - alpha
    r0 = F._sqrt(t)
    if r0 is None:
        return HalvingResult("rT", (), {})
    u, y2 = (2 * x0 + curve.g.p.value) * t, 2 * y0  # D = u - y2*r
    branches = []  # (r, T, s = r*T, w = y0/r)
    for r in (r0, F._red(-r0)):
        s = F._sqrt(u - y2 * r)  # sqrt(D), None when D is not a square
        if s is None:
            continue
        if not s:
            raise VerificationError("discriminant cannot vanish on a nonsingular curve")
        ir = F._inv(r)
        branches.append((r, F._red(s * ir), s, y0 * ir))
    if not branches:
        return HalvingResult("rT", (), {})
    red, pt = F._red, (x0, y0)
    seen = {}
    halves = []
    for r, T, s, w in branches:
        for sg_rT, sg_T in ((s, T), (-s, -T)):
            xq = red(x0 + sg_rT - w)
            slope = red(-(r + sg_T))
            q = (xq, red(slope * (xq - x0) - y0))
            if q in seen:
                _same_slope(curve, q, seen[q], slope)
                continue
            seen[q] = slope
            _verify_half(curve, pt, q)
            halves.append((q, slope))
    witness = {"branches": []}
    for r, T, _, _ in branches:
        witness["branches"].append({"r": _to_json(F, r), "T": _to_json(F, T)})
    return _answer(F, "rT", halves, witness)


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
    pt = _pt_ints(P)
    halves = []
    for sg in (1, -1):
        xq = sg * r * T - w
        slope = -(r + sg * T)
        Q = Point(xq, slope * xq - y0)
        _verify_half(curve, pt, _pt_ints(Q))
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
    pt = _pt_ints(P)
    halves = []
    if not x0:
        x1 = beta.sqrt()  # fourth root of a6
        for li in (l, l + 1):
            Q = Point(x1, li * x1 + beta)
            _verify_half(curve, pt, _pt_ints(Q))
            halves.append((Q, li))
    else:
        for li in (l, l + 1):
            m = y0 + (li + 1) * x0
            x1 = (beta + m) / r
            Q = Point(x1, li * x1 + m)
            _verify_half(curve, pt, _pt_ints(Q))
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


def half_to_roots(curve: CubicCurve, Q: Point) -> RootTriple:
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
    P = curve._add(Q, Q)
    g = curve.g
    groots = g.roots()
    if groots is not None:
        alphas = (curve.alpha, groots[0], groots[1])

        def lift(e):
            return e

    else:
        X = QuadExtElement(g, 0, 1)
        alphas = (QuadExtElement(g, curve.alpha), X, X.conj())

        def lift(e):
            return QuadExtElement(g, e)

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
