"""Division by 2: all ways of computing {Q : 2Q = P} rationally.

Four routes, all returning the same point sets on their common domains.  In
characteristic != 2 every half of P = (x0, y0) comes from a root triple:
r_i^2 = x0 - alpha_i and r1*r2*r3 = -y0.  Three criteria find the triples,
each as (r1, r2 + r3, r2*r3), three values in K even when r2 and r3 lie in
K_g, and one builder, ``_halves``, turns each into its half and tangent slope:

* ``halve_split``    — every root of the cubic is in K; the triples are the
  sign choices of sqrt(x0 - alpha_i) whose product is -y0.
* ``halve_quadext``  — g irreducible; decide by whether x0 - X is a square
  in K_g = K[x]/(g), after x0 - alpha in K, which must be one as well:
  ``ext_sqrt(g, x0, -1)`` gives its root rho as a coordinate pair, and
  r2 + r3 = +-trace(rho), r2*r3 = norm(rho), with r1 = r in K.
* ``halve_rT``       — uniform two-parameter criterion (works either way):
  r^2 = x0 - alpha and T^2 = ((2*x0 + p)*(x0 - alpha) - 2*y0*r) / r^2; the
  triples are (r, +-T, -y0/r).
* ``halve_char2``    — binary fields: r = sqrt(x0) plus an Artin-Schreier
  solve of l^2 + l = x0 + a2.

Each criterion checks the curve model and the point once, at its boundary
(``_affine``), then computes on raw field values: ints mod p over F_p,
``Fraction``s over Q, bit-vectors over GF(2^k).  It hands its candidate
halves, each with the tangent slope of the line y = slope*(x - x0) - y0
through -P that touches the curve there, to one collector, ``_answer``,
which checks what they share: the halves of P are a coset of E(K)[2], each
on the curve, and the reported slope is that of the tangent there, which
meets the curve again at -P.  A formula slip in a point or in a slope
therefore raises VerificationError instead of propagating silently.  Only
the answer's points, slopes and witness strings are built as field elements.

``half_to_roots`` goes the other way: from a half Q it computes the triple,
in K and in the same (r1, r2 + r3, r2*r3) form, as a ``RootTriple``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .curve import (
    Char2Curve,
    CubicCurve,
    Point,
    _Record,
    _pt_from_ints,
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
from .quadratic import ext_sqrt

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
class HalvingResult(_Record):
    """Halves of one point: ((Q, tangent slope), ...) plus the roots used."""

    __slots__ = ("criterion", "halves", "witness")
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


def _affine(curve, model: type, P: Point) -> tuple:
    """The raw (x, y) of P, once P is checked as an affine point of a ``model`` curve."""
    if not isinstance(curve, model):
        raise WrongCase(f"this halving criterion needs a {model.__name__}, got {curve!r}")
    curve._check(P)
    if P.is_infinity:
        raise InvalidParams("halving is defined here for affine points only")
    return P.x.value, P.y.value


def _verify_half(curve, pt: tuple, q: tuple, slope) -> None:
    """Replay a half q of pt with its reported tangent slope, all raw, through
    the curve's kernel model: q is on the curve, and ``tangent`` checks with
    no division that the tangent at q has this slope and meets the curve
    again at -pt, so that 2q = pt."""
    k, kp = curve._k, curve._kp
    if not k.contains(kp, q):
        raise VerificationError(f"computed half {_pt_from_ints(curve.field, q)!r} is not on the curve")
    if not k.tangent(kp, q, slope, pt):
        F = curve.field
        raise VerificationError(
            f"computed half {_pt_from_ints(F, q)!r} with slope {_to_json(F, slope)} is not a "
            f"tangent point doubling to {_pt_from_ints(F, pt)!r}")


def _answer(curve, criterion: str, pt: tuple, candidates: list, witness: dict) -> HalvingResult:
    """The halves of a halvable pt among raw, reduced ((x, y), slope) candidates.

    The halves form a coset of E(K)[2]: each distinct one is replayed with
    its slope through ``_verify_half``, so that every point and slope of the
    answer is checked; a repeated one must repeat its slope; and there must
    be #E(K)[2] of them (4 when g splits, else 2; 2 over GF(2^k)).  They are
    returned as points and elements in the order first seen.
    """
    F = curve.field
    halves = {}
    for q, slope in candidates:
        if q not in halves:
            _verify_half(curve, pt, q, slope)
            halves[q] = slope
        elif halves[q] != slope:
            raise VerificationError(
                f"two sign choices give {_pt_from_ints(F, q)!r} different tangent slopes")
    n2 = 4 if isinstance(curve, CubicCurve) and curve.g.roots() is not None else 2
    if len(halves) != n2:
        raise VerificationError(
            f"{len(halves)} halves found, but the halves of a point are a coset of E(K)[2], "
            f"of {n2} points")
    out = tuple([(_pt_from_ints(F, q), FieldElement(F, slope)) for q, slope in halves.items()])
    return HalvingResult(criterion, out, witness)


def _to_json(F, v) -> str:
    return element_to_json(FieldElement(F, v))


def _halves(red, x0, y0, triples) -> list:
    """The ((x, y), slope) half of (x0, y0) for each root triple (r1, r2 + r3, r2*r3).

    With s1 = r1 + r2 + r3 and s2 = r1*r2 + r1*r3 + r2*r3 the half is
    (x0 + s2, -y0 - s1*s2), of tangent slope -s1; ``red`` maps each of the
    three to its canonical value.
    """
    out = []
    for r1, s, n in triples:
        s1, s2 = r1 + s, r1 * s + n
        out.append(((red(x0 + s2), red(-y0 - s1 * s2)), red(-s1)))
    return out


def halve_split(curve: CubicCurve, P: Point) -> HalvingResult:
    """All four halves when every root of the cubic is rational.

    P is halvable iff all three x0 - alpha_i are squares; the four halves
    come from the sign triples whose product matches -y0.
    """
    x0, y0 = _affine(curve, CubicCurve, P)
    roots = curve.g.roots()
    if roots is None:
        raise WrongCase("g is irreducible over K; use halve_quadext")
    F = curve.field
    sqrt = F._sqrt
    signed = []
    for a in (curve.alpha.value, roots[0].value, roots[1].value):
        r = sqrt(x0 - a)
        if r is None:
            return HalvingResult("split", (), {})
        signed.append((r, -r))
    red = F._red
    triples = []
    for r1 in signed[0]:
        for r2 in signed[1]:
            r12 = r1 * r2
            for r3 in signed[2]:
                if not red(r12 * r3 + y0):  # r1*r2*r3 = -y0
                    triples.append((r1, r2 + r3, r2 * r3))
    witness = {
        "r1": _to_json(F, signed[0][0]),
        "r2": _to_json(F, signed[1][0]),
        "r3": _to_json(F, signed[2][0]),
    }
    return _answer(curve, "split", (x0, y0), _halves(red, x0, y0, triples), witness)


def halve_quadext(curve: CubicCurve, P: Point) -> HalvingResult:
    """The two halves when g is irreducible, via the square root of x0 - X.

    x0 - X has norm g(x0) = y0^2 / (x0 - alpha), so it is a non-square in K_g
    whenever x0 - alpha is one in K: that case answers empty before any
    arithmetic in K_g.  Otherwise, with r^2 = x0 - alpha in K and rho^2 =
    x0 - X in K_g, the sign of r is the one with r*norm(rho) = -y0, and the
    root triples are (r, +-rho, +-conj(rho)): r2 + r3 = +-trace(rho) and
    r2*r3 = norm(rho).
    """
    x0, y0 = _affine(curve, CubicCurve, P)
    g = curve.g
    if g.roots() is not None:
        raise WrongCase("g splits over K; use halve_split")
    F = curve.field
    r = F._sqrt(x0 - curve.alpha.value)
    if r is None:
        return HalvingResult("quadext", (), {})
    rho = ext_sqrt(g, P.x, -1)  # x0 - X
    if rho is None:
        return HalvingResult("quadext", (), {})
    red = F._red
    gp, gq = g.p.value, g.q.value
    c0, c1 = rho[0].value, rho[1].value
    nrho = c0 * c0 - c0 * c1 * gp + c1 * c1 * gq  # nonzero: rho != 0 as x0 - X != 0
    if red(r * nrho + y0):
        r = red(-r)
        if red(r * nrho + y0):
            raise VerificationError("r*norm(rho) != -y0 for both square roots r of x0 - alpha")
    tr = 2 * c0 - c1 * gp
    triples = [(r, tr, nrho), (r, -tr, nrho)]
    witness = {
        "rho": {"c0": element_to_json(rho[0]), "c1": element_to_json(rho[1])},
        "r": _to_json(F, r),
    }
    return _answer(curve, "quadext", (x0, y0), _halves(red, x0, y0, triples), witness)


def halve_rT(curve: CubicCurve, P: Point) -> HalvingResult:
    """Halving by the (r, T) criterion, uniform in the factorization of g.

    Raises PointIsW3 for P = (alpha, 0) (that case belongs to halve_split /
    halve_quadext).  P has no halves, and the result is empty, when x0 - alpha
    is not a square or neither sign of r admits a square discriminant
    D = (2*x0 + p)*(x0 - alpha) - 2*y0*r.  Each branch (r, T) gives the root
    triples (r, +-T, -y0/r).
    """
    x0, y0 = _affine(curve, CubicCurve, P)
    F = curve.field
    alpha = curve.alpha.value
    if x0 == alpha:
        raise PointIsW3("P = (alpha, 0) is excluded; halve it in its own case")
    t = x0 - alpha
    r0 = F._sqrt(t)
    if r0 is None:
        return HalvingResult("rT", (), {})
    red = F._red
    u, y2 = (2 * x0 + curve.g.p.value) * t, 2 * y0  # D = u - y2*r
    triples = []
    branches = []
    for r in (r0, red(-r0)):
        s = F._sqrt(u - y2 * r)  # sqrt(D) = r*T, None when D is not a square
        if s is None:
            continue
        if not s:
            raise VerificationError("discriminant cannot vanish on a nonsingular curve")
        ir = F._inv(r)
        T, n = red(s * ir), -y0 * ir
        triples += [(r, T, n), (r, -T, n)]
        branches.append({"r": _to_json(F, r), "T": _to_json(F, T)})
    if not branches:
        return HalvingResult("rT", (), {})
    return _answer(curve, "rT", (x0, y0), _halves(red, x0, y0, triples), {"branches": branches})


def halvability_criterion_origin(
    y0: FieldElement, r: FieldElement, T: FieldElement
) -> Tuple[CubicCurve, Tuple[Tuple[Point, FieldElement], ...]]:
    """The curve on which (0, y0) is halvable by design, with its halves.

    Given r != 0 and T != 0, builds y^2 = (x + r^2)(x^2 + (T^2 + 2*y0/r)*x +
    (y0/r)^2) and returns it with the two halves Q_{r,+-T} of (0, y0): those
    of ``halve_rT``'s answer with tangent slope -(r +- T).
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
    by_slope = {slope: (Q, slope) for Q, slope in halve_rT(curve, P).halves}
    halves = tuple(by_slope.get(-(r + sg * T)) for sg in (1, -1))
    if None in halves:
        raise VerificationError(f"halve_rT misses a half Q_(r,+-T) of {P!r}")
    return curve, halves


def halve_char2(curve: Char2Curve, P: Point) -> HalvingResult:
    """Halving over GF(2^k): r = sqrt(x0) and l with l^2 + l = x0 + a2.

    P is halvable iff the Artin-Schreier equation is solvable (square roots
    and fourth roots always exist in a finite binary field); l and l + 1
    yield the two halves, which differ by W3 = (0, sqrt(a6)).
    """
    x0, y0 = _affine(curve, Char2Curve, P)
    F = curve.field
    gf, a2, a6 = curve._kp
    l = F.solve_artin_schreier(FieldElement(F, x0 ^ a2))
    if l is None:
        return HalvingResult("char2", (), {})
    l = l.value
    beta, r = gf.sqrt(a6), gf.sqrt(x0)
    mul = gf.mul
    ir = gf.div(1, r) if x0 else 0  # one inverse for both candidates
    candidates = []
    for li in (l, l ^ 1):
        m = y0 ^ mul(li ^ 1, x0)
        # x0 = 0 makes P = W3 and m = y0 = beta: x1 is then the fourth root of a6.
        x1 = mul(beta ^ m, ir) if x0 else gf.sqrt(beta)
        candidates.append(((x1, mul(li, x1) ^ m), li))
    witness = {"l": _to_json(F, l), "r": _to_json(F, r)}
    return _answer(curve, "char2", (x0, y0), candidates, witness)


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
class RootTriple(_Record):
    """A root triple (r1, r2 + r3, r2*r3) over alpha, held in K as ``_halves`` takes it.

    r1^2 = x0 - alpha, and r2, r3 (in K or in K_g) are the roots over g's
    two roots, with r1*r2*r3 = -y0; ``s`` = r2 + r3 and ``n`` = r2*r3.
    """

    __slots__ = ("alpha", "r1", "s", "n")
    alpha: FieldElement
    r1: FieldElement
    s: FieldElement
    n: FieldElement

    def doubled(self) -> Point:
        """The point P = 2Q this triple divides: (r1^2 + alpha, -r1*r2*r3)."""
        return Point(self.r1 * self.r1 + self.alpha, -(self.r1 * self.n))

    def rebuild_half(self) -> Tuple[Point, FieldElement]:
        """Invert back to (Q, slope) through ``_halves``."""
        F, P = self.alpha.field, self.doubled()
        triple = (self.r1.value, self.s.value, self.n.value)
        ((q, slope),) = _halves(F._red, P.x.value, P.y.value, [triple])
        return _pt_from_ints(F, q), FieldElement(F, slope)


def half_to_roots(curve: CubicCurve, Q: Point) -> RootTriple:
    """The unique root triple mapping Q = (x1, y1) back onto the halves of P = 2Q.

    With d_i = 1/(x1 - alpha_i) and S = d1 + d2 + d3, each r_i = -(y1/2)*(S - 2*d_i).
    So r1 = (y1/2)*(d1 - sigma), r2 + r3 = -y1*d1 and r2*r3 = (y1/2)^2*(S^2 -
    2*S*sigma + 4*gamma), where sigma = d2 + d3 = (2*x1 + p)/g(x1) and gamma =
    d2*d3 = 1/g(x1): all in K, whether g splits or not.  The triple is replayed
    against P before it is returned, and must rebuild Q with its tangent
    slope.  Raises TwoTorsionHalf for y(Q) = 0 (then 2Q is the point at
    infinity and no triple exists).
    """
    x1, y1 = _affine(curve, CubicCurve, Q)
    if not y1:
        raise TwoTorsionHalf("y(Q) = 0: Q is 2-torsion and 2Q is infinity")
    F = curve.field
    red, inv = F._red, F._inv
    alpha, gp, gq = curve.alpha.value, curve.g.p.value, curve.g.q.value
    # y1 != 0, so x1 - alpha and g(x1) are nonzero.
    d1, gamma = inv(red(x1 - alpha)), inv(red(x1 * x1 + gp * x1 + gq))
    sigma = (2 * x1 + gp) * gamma
    S, h = d1 + sigma, y1 * inv(F._from_int(2))
    r1, s = red(h * (d1 - sigma)), red(-y1 * d1)
    n = red(h * h * (S * S - 2 * S * sigma + 4 * gamma))
    # Replay the defining identities against P = 2Q before handing the triple back.
    x0, y0 = curve._k.add(curve._kp, (x1, y1), (x1, y1))
    if red(r1 * r1 - x0 + alpha):
        raise VerificationError("r1^2 != x0 - alpha")
    if red(s * s - 2 * n - 2 * x0 - gp):
        raise VerificationError("r2^2 + r3^2 != 2*x0 + p")
    if red(n * n - x0 * x0 - gp * x0 - gq):
        raise VerificationError("(r2*r3)^2 != g(x0)")
    if red(r1 * n + y0):
        raise VerificationError("r1*r2*r3 != -y0")
    ((q, slope),) = _halves(red, x0, y0, [(r1, s, n)])
    if q != (x1, y1) or not curve._k.tangent(curve._kp, q, slope, (x0, y0)):
        raise VerificationError("triple does not rebuild Q with its tangent slope")
    return RootTriple(curve.alpha, *(FieldElement(F, v) for v in (r1, s, n)))
