"""Monic quadratics g = x^2 + px + q and the quadratic extension K_g = K[x]/(g).

Only characteristic != 2 lives here; the binary-field curve model never needs
a quadratic extension.  Elements of K_g are written c0 + c1*X where X is the
image of x, so X^2 = -p*X - q.  The conjugation iota swaps the two roots of g:
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

``ext_sqrt`` takes and returns elements of K_g but works in between on the
raw values of their coordinates (ints mod p, ``Fraction``s over Q) with the
base field's raw helpers, one code path for both fields; the root it found
is checked, rho^2 = z, on those raw values before it is built as an element.

For r in K and eps = +-1, norm(r + eps*rho) = r^2 + eps*r*trace(rho) +
norm(rho), so the halving formulas take their norms in K, never in K_g.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import InvalidParams, SingularCurve, VerificationError
from .field import Field, FieldElement, require_odd_characteristic

__all__ = [
    "QuadraticPoly",
    "QuadExtElement",
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
        """Evaluate g at x; works for base-field and extension elements alike."""
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


class QuadExtElement:
    """c0 + c1*X in K[x]/(g), with g irreducible kept alongside the pair."""

    __slots__ = ("g", "c0", "c1")

    def __init__(self, g: QuadraticPoly, c0, c1=0):
        self.g = g
        self.c0 = g.field.element(c0)
        self.c1 = g.field.element(c1)

    def _coerce(self, other) -> Optional["QuadExtElement"]:
        if isinstance(other, QuadExtElement):
            if other.g is not self.g and other.g != self.g:
                raise InvalidParams("mixing elements of different quadratic extensions")
            return other
        v = self.c0._rhs(other)  # a scalar of K, read as K's own elements read it
        if v is None:
            return None
        return _elt(self.g, FieldElement(self.g.field, v), self.g.field.zero)

    def __add__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return _elt(self.g, self.c0 + w.c0, self.c1 + w.c1)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return _elt(self.g, self.c0 - w.c0, self.c1 - w.c1)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w - self

    def __mul__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        # (c0 + c1 X)(d0 + d1 X) with X^2 = -pX - q.
        cross = self.c1 * w.c1
        return _elt(
            self.g,
            self.c0 * w.c0 - cross * self.g.q,
            self.c0 * w.c1 + self.c1 * w.c0 - cross * self.g.p,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadExtElement":
        """The involution iota exchanging the two roots of g."""
        return _elt(self.g, self.c0 - self.c1 * self.g.p, -self.c1)

    def trace(self) -> FieldElement:
        return 2 * self.c0 - self.c1 * self.g.p

    def norm(self) -> FieldElement:
        return self.c0 * self.c0 - self.c0 * self.c1 * self.g.p + self.c1 * self.c1 * self.g.q

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        n = w.norm()
        if not n:
            raise ZeroDivisionError("division by zero in the quadratic extension")
        return self * w.conj() * n.inverse()

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w / self

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        base = self
        if n < 0:
            base = QuadExtElement(self.g, 1, 0) / base
            n = -n
        r = QuadExtElement(self.g, 1, 0)
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

    def __neg__(self):
        return _elt(self.g, -self.c0, -self.c1)

    def __eq__(self, other):
        if isinstance(other, (QuadExtElement, FieldElement, int)):
            try:
                w = self._coerce(other)
            except InvalidParams:  # another extension or base field
                return False
            return w is not None and self.c0 == w.c0 and self.c1 == w.c1  # None: a bool
        return NotImplemented

    def __hash__(self):
        return hash((self.g, self.c0.value, self.c1.value))

    def __bool__(self):
        return bool(self.c0) or bool(self.c1)

    def in_base_field(self) -> bool:
        return not self.c1

    def __repr__(self):
        fmt = self.g.field.format_element
        return f"({fmt(self.c0)}) + ({fmt(self.c1)})*X"


def _elt(g: QuadraticPoly, c0: FieldElement, c1: FieldElement) -> QuadExtElement:
    """c0 + c1*X from coordinates already in g's field, without coercing them again."""
    z = object.__new__(QuadExtElement)
    z.g, z.c0, z.c1 = g, c0, c1
    return z


def _root(z: QuadExtElement, c0, c1) -> QuadExtElement:
    """rho = c0 + c1*X from raw values, once rho^2 = z is checked on them."""
    g = z.g
    F = g.field
    red = F._red
    c0, c1 = red(c0), red(c1)
    rho = _elt(g, FieldElement(F, c0), FieldElement(F, c1))
    cc = c1 * c1  # rho^2 = (c0^2 - c1^2*q) + (2*c0*c1 - c1^2*p)*X
    if red(c0 * c0 - cc * g.q.value - z.c0.value) or red(2 * c0 * c1 - cc * g.p.value - z.c1.value):
        raise VerificationError(f"ext_sqrt: {rho!r} does not square to {z!r}")
    return rho


def ext_sqrt(z: QuadExtElement) -> Optional[QuadExtElement]:
    """A root of w^2 = z in K_g, or None when z is not a square there.

    Requires g irreducible (so K_g is a field).  Deterministic: candidate
    norms are scanned in the order +sqrt(norm(z)), -sqrt(norm(z)).
    """
    g = z.g
    if not g.irreducible():
        raise InvalidParams("ext_sqrt needs an irreducible modulus")
    if not z:
        return QuadExtElement(g, 0, 0)
    F, gp, gq = g.field, g.p.value, g.q.value
    sqrt, inv = F._sqrt, F._inv
    c0, c1 = z.c0.value, z.c1.value
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
            return _root(z, (c0 + n) * i, c1 * i)
    # Trace-zero roots rho = b*(X + p/2) square to base-field values
    # b^2*(p^2-4q)/4; recover b/2 as gamma below.  Only z in K qualifies.
    if not c1:
        gamma = sqrt(c0 * inv(gp * gp - 4 * gq))
        if gamma is not None:
            return _root(z, gamma * gp, 2 * gamma)
    return None
