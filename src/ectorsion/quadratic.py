"""Monic quadratics g = x^2 + px + q, and square roots in K_g = K[x]/(g).

Only characteristic != 2 lives here; the binary-field curve model never needs
a quadratic extension.  The module has no element class for K_g: a value of
K_g is a coordinate pair (c0, c1) standing for c0 + c1*X, where X is the image
of x, so X^2 = -p*X - q.  The conjugation iota swaps the two roots of g:
iota(c0 + c1*X) = (c0 - c1*p) - c1*X, giving

    trace(z) = z + iota(z) = 2*c0 - c1*p      (in K)
    norm(z)  = z * iota(z) = c0^2 - c0*c1*p + c1^2*q   (in K)

``ext_sqrt`` decides squareness constructively.  For a root rho^2 = z write
n = norm(rho) and s = trace(rho), both in K.  Then s^2 = trace(z) + 2*n and,
when s != 0, rho = (z + n) / s, each coordinate of z + n divided by s in K;
so scanning the two candidate norms n = +-sqrt(norm(z)) finds rho.  The only
squares this scan misses have s = 0, i.e. rho = b*(X + p/2); those satisfy
z = b^2*(p^2-4q)/4, which forces z into K, and are recovered from
gamma = sqrt(z/(p^2-4q)) as rho = gamma*(2X + p).

``ext_sqrt`` reads z's coordinates as elements of K at its boundary, then
works on their raw values (ints mod p, ``Fraction``s over Q) with the base
field's raw helpers, one code path for both fields; the root it found is
checked, rho^2 = z, on those raw values before its coordinates are built as
elements.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import InvalidParams, SingularCurve, VerificationError
from .field import Field, FieldElement, require_odd_characteristic

__all__ = [
    "QuadraticPoly",
    "ext_sqrt",
]


class QuadraticPoly:
    """g(x) = x^2 + p*x + q over a field of characteristic != 2, square-free."""

    __slots__ = ("field", "p", "q", "_roots")

    def __init__(self, field: Field, p, q):
        require_odd_characteristic(field, "quadratic-extension machinery")
        self.field = field
        self.p = field.element(p)
        self.q = field.element(q)
        self._roots = False  # not looked for yet
        if not self.disc():
            raise SingularCurve("x^2 + p*x + q must be square-free (p^2 - 4q != 0)")

    def disc(self) -> FieldElement:
        p = self.p.value
        return FieldElement(self.field, self.field._red(p * p - 4 * self.q.value))

    def __call__(self, x):
        """Evaluate g at x, an element of K or an int."""
        if isinstance(x, int):
            x = self.field.element(x)
        return x * x + self.p * x + self.q

    def irreducible(self) -> bool:
        return self.roots() is None

    def roots(self) -> Optional[Tuple[FieldElement, FieldElement]]:
        """The two (distinct) roots in K, or None when g is irreducible; found on the first call."""
        if self._roots is False:
            F, p = self.field, self.p.value
            s = F._sqrt(self.disc().value)
            if s is None:
                self._roots = None
            else:
                half = F._inv(F._from_int(2))
                self._roots = tuple(FieldElement(F, F._red((r - p) * half)) for r in (s, -s))
        return self._roots

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticPoly)
            and other.field == self.field
            and other.p == self.p
            and other.q == self.q
        )

    def __hash__(self):
        return hash((self.field, self.p.value, self.q.value))

    def __repr__(self):
        fmt = self.field.format_element
        return f"x^2 + ({fmt(self.p)})*x + ({fmt(self.q)}) over {self.field.descriptor}"


def _root(g: QuadraticPoly, z0, z1, c0, c1) -> Tuple[FieldElement, FieldElement]:
    """rho = (c0, c1) from raw values, once rho^2 = (z0, z1) is checked on them."""
    F = g.field
    red = F._red
    c0, c1 = red(c0), red(c1)
    cc = c1 * c1  # rho^2 = (c0^2 - c1^2*q) + (2*c0*c1 - c1^2*p)*X
    if red(c0 * c0 - cc * g.q.value - z0) or red(2 * c0 * c1 - cc * g.p.value - z1):
        raise VerificationError(f"ext_sqrt: ({c0}, {c1}) does not square to ({z0}, {z1}) mod {g!r}")
    return FieldElement(F, c0), FieldElement(F, c1)


def ext_sqrt(g: QuadraticPoly, z0, z1) -> Optional[Tuple[FieldElement, FieldElement]]:
    """A root (c0, c1) of w^2 = z0 + z1*X in K_g, or None when z is not a square there.

    Requires g irreducible (so K_g is a field); z0 and z1 are read as
    elements of g's field.  Deterministic: candidate norms are scanned in the
    order +sqrt(norm(z)), -sqrt(norm(z)).
    """
    if not g.irreducible():
        raise InvalidParams("ext_sqrt needs an irreducible modulus")
    F, gp, gq = g.field, g.p.value, g.q.value
    c0, c1 = F.element(z0).value, F.element(z1).value
    if not c0 and not c1:
        return F.zero, F.zero
    sqrt, inv = F._sqrt, F._inv
    n0 = sqrt(c0 * c0 - c0 * c1 * gp + c1 * c1 * gq)
    if n0 is None:
        # norm is multiplicative, so a square z would have square norm.
        return None
    # n0 != 0: a nonzero z has a nonzero norm when g is irreducible.
    tr = 2 * c0 - c1 * gp
    for n in (n0, -n0):
        s = sqrt(tr + 2 * n)
        if s:  # neither None nor 0
            i = inv(s)
            return _root(g, c0, c1, (c0 + n) * i, c1 * i)
    # Trace-zero roots rho = b*(X + p/2) square to base-field values
    # b^2*(p^2-4q)/4; recover b/2 as gamma below.  Only z in K qualifies.
    if not c1:
        gamma = sqrt(c0 * inv(gp * gp - 4 * gq))
        if gamma is not None:
            return _root(g, c0, c1, gamma * gp, 2 * gamma)
    return None
