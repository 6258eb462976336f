"""The three coefficient fields and their elements.

Everything is integer-exact; no floating point appears anywhere in the
package.  The supported fields are

* ``PrimeField(p)``   — residues mod a prime p < 2**31,
* ``BinaryField(k)``  — GF(2^k) for k <= 20, elements stored as polynomial
  bit-vectors reduced by a modulus that Rabin's test finds irreducible; its
  arithmetic is the kernel's context for (k, modulus), built on the first
  arithmetic call: log/antilog tables up to k = 10, limb-table products
  above, and tabulated squares and square roots at every k,
* ``Rationals()``     — arbitrary-precision reduced fractions.

Square roots are canonicalised so that every algorithm downstream is
deterministic: mod p the root in [0, p/2] is returned, over Q the
nonnegative one, and in GF(2^k) squaring is a bijection so the root is
already unique (x -> x**(2**(k-1))).

F_p and Q also expose the raw helpers that code working on raw values
(ints mod p, ``Fraction``s) needs between its boundary check and its
answer: ``_red(a)`` gives the canonical value of ``a``, an unreduced raw
result; ``_inv(a)`` the inverse, raising ZeroDivisionError on 0; and
``_sqrt(a)`` the canonical square root, or None.  Each field's
element-level ``sqrt`` is a thin wrapper over its ``_sqrt``.  GF(2^k) code
works on ints through the field's kernel context instead, and every path
that would need the three refuses characteristic 2 first.

A field instance doubles as an element factory: ``F = PrimeField(7); F(3)``.
Every field's elements are ``FieldElement``s, one class whose operators
read their operand by one rule and defer to the field's raw arithmetic; an
element hashes as its canonical raw value, so it meets the equal int (or,
over Q, the equal ``Fraction``) in sets and dicts.  The hot paths (the
group law, the halving criteria, the family constructors and curve set-up)
compute on raw values and build elements only for their answers.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import isqrt
from typing import Iterator, Optional

from . import kernel
from .errors import FieldTooLarge, InvalidParams, VerificationError

__all__ = [
    "Field",
    "FieldElement",
    "PrimeField",
    "BinaryField",
    "Rationals",
    "field_from_descriptor",
]

_MR_WITNESSES = (2, 3, 5, 7)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2, 3, 5, 7: exact below
    3,215,031,751 (Jaeschke, Math. Comp. 61 (1993)), so for every p < 2^31."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldElement:
    """One element of a :class:`Field`.

    Supports the usual operators and ``==`` against elements of the same
    field, plain ints, bools excepted, and over Q ``Fraction``s; ``_rhs``
    reads the operand of ``==`` and of ``_op``, which every binary operator
    calls (ints enter through the ring homomorphism from Z, i.e. ``2 * x``
    means ``x + x`` even in characteristic 2).  The hash is the canonical raw
    value's, so F_7's 3 meets the int 3 in a set, but not 10, which also
    compares equal to it; elements of two fields are never equal.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value):
        self.field = field
        self.value = value

    def _rhs(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise InvalidParams(
                    f"mixed fields: {self.field.descriptor} vs {other.field.descriptor}"
                )
            return other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.field._from_int(other)
        if isinstance(other, Fraction) and self.field.characteristic == 0:
            return other
        return None

    def _op(self, other, op, swap=False):
        """The element op(self, other) on raw values (swapped if ``swap``), or NotImplemented."""
        v = self._rhs(other)
        if v is None:
            return NotImplemented
        return self.__class__(self.field, op(v, self.value) if swap else op(self.value, v))

    def __add__(self, other):
        return self._op(other, self.field._add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._op(other, self.field._sub)

    def __rsub__(self, other):
        return self._op(other, self.field._sub, True)

    def __mul__(self, other):
        return self._op(other, self.field._mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._op(other, self.field._div)

    def __rtruediv__(self, other):
        return self._op(other, self.field._div, True)

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        return self.__class__(self.field, self.field._pow(self.value, n))

    def __neg__(self):
        return self.__class__(self.field, self.field._neg(self.value))

    def __eq__(self, other):
        try:
            v = self._rhs(other)  # the operand read as the arithmetic reads it
        except InvalidParams:  # an element of another field
            return False
        return NotImplemented if v is None else self.value == v

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return bool(self.value)

    def __repr__(self):
        return f"{self.field.format_element(self)}::{self.field.descriptor}"

    # Convenience forwards; the field owns the actual logic.
    def is_square(self) -> bool:
        return self.field.is_square(self)

    def sqrt(self) -> Optional["FieldElement"]:
        return self.field.sqrt(self)

    def inverse(self) -> "FieldElement":
        return self.__class__(self.field, self.field._div(self.field._from_int(1), self.value))


class Field:
    """Base of the three fields: the element factory, and what all three share.

    F_p and Q share ``_add``, ``_sub``, ``_neg`` and ``_div`` too, written here
    through their ``_red`` and ``_inv``; GF(2^k) has its own.
    """

    __slots__ = ()

    def _add(self, a, b):
        return self._red(a + b)

    def _sub(self, a, b):
        return self._red(a - b)

    def _neg(self, a):
        return self._red(-a)

    def _div(self, a, b):
        return self._red(a * self._inv(b))

    def _pow(self, a, n: int):
        # Generic square-and-multiply; subclasses may shortcut.
        if n < 0:
            a = self._div(self._from_int(1), a)
            n = -n
        r = self._from_int(1)
        while n:
            if n & 1:
                r = self._mul(r, a)
            a = self._mul(a, a)
            n >>= 1
        return r

    # -- public surface -----------------------------------------------------
    def element(self, value) -> FieldElement:
        """``value`` as an element of this field.

        An element of this field, or of an equal one, is returned as it is; a
        string goes to ``parse_element``; a bool is refused; anything else
        goes to the field's own ``_from_number``.
        """
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise InvalidParams(f"element of {value.field.descriptor}, wanted {self.descriptor}")
            return value
        if isinstance(value, str):
            return self.parse_element(value)
        if isinstance(value, bool):
            raise InvalidParams(f"booleans are not elements of {self.descriptor}")
        return self._from_number(value)

    def __call__(self, value) -> FieldElement:
        return self.element(value)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, self._from_int(0))

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, self._from_int(1))

    @property
    def order(self) -> Optional[int]:
        """Number of elements, or None for an infinite field."""
        return None

    def elements(self) -> Iterator[FieldElement]:
        """Every element, by raw value 0 .. order - 1; FieldTooLarge for Q."""
        if self.order is None:
            raise FieldTooLarge(f"cannot enumerate {self.descriptor}")
        return (FieldElement(self, v) for v in range(self.order))

    def __repr__(self):
        return self.descriptor


class PrimeField(Field):
    """F_p for a prime p < 2**31 (p = 2 is allowed, though curves reject it)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise InvalidParams(f"prime field modulus must be an integer >= 2, got {p!r}")
        if p >= 1 << 31:
            raise InvalidParams(f"prime field modulus {p} exceeds the 2^31 cap")
        if not _is_prime(p):
            raise InvalidParams(f"{p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def _from_int(self, n):
        return n % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _red(self, a):
        return a % self.p

    def _inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in {self.descriptor}")
        return pow(a, -1, self.p)

    def _sqrt(self, a):
        r = kernel.fp_sqrt(a, self.p)
        return None if r < 0 else r

    def _pow(self, a, n):
        if n < 0 and a == 0:
            raise ZeroDivisionError(f"0**{n} in {self.descriptor}")
        return pow(a, n, self.p)

    def _from_number(self, value):
        if isinstance(value, int):
            return FieldElement(self, value % self.p)
        raise InvalidParams(f"cannot make an F_{self.p} element from {value!r}")

    @property
    def characteristic(self):
        return self.p

    @property
    def order(self):
        return self.p

    def is_square(self, a):
        return kernel.fp_is_square(a.value, self.p)

    def sqrt(self, a):
        r = self._sqrt(a.value)
        return None if r is None else FieldElement(self, r)

    @property
    def descriptor(self):
        return f"Fp:{self.p}"

    def parse_element(self, text):
        num, den = _rational_literal(text, "an F_p element")
        if den is None:
            return FieldElement(self, num % self.p)
        if den % self.p == 0:
            raise InvalidParams(f"zero denominator mod p in {text!r}")
        return FieldElement(self, self._div(num, den))

    def format_element(self, a):
        return str(a.value)


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, kernel.gf2_polymod(a, b)
    return a


def _gf2_irreducible(m: int) -> bool:
    """Rabin's test: m of degree k is irreducible iff x^(2^k) = x mod m and
    gcd(x^(2^(k/r)) - x, m) = 1 for every prime r dividing k."""
    deg = m.bit_length() - 1
    if deg < 1 or not m & 1:
        # A zero constant term means x divides m.
        return deg == 1 and m == 2  # the polynomial "x" itself, never used
    if deg == 1:
        return True
    frob = [2]  # x^(2^i) mod m
    for _ in range(deg):
        frob.append(kernel.gf2_mul(frob[-1], frob[-1], m, deg))
    return frob[deg] == 2 and all(
        _gf2_gcd(m, frob[deg // r] ^ 2) == 1 for r in kernel._prime_factors(deg)
    )


def default_modulus(k: int) -> int:
    """Smallest irreducible degree-k modulus (by bit-vector value)."""
    for m in range((1 << k) + 1, 1 << (k + 1), 2):
        if _gf2_irreducible(m):
            return m
    raise AssertionError(f"no irreducible polynomial of degree {k}?")


class BinaryField(Field):
    """GF(2^k), k <= 20, as bit-vectors mod an irreducible polynomial."""

    __slots__ = ("k", "modulus", "_gf")

    def __init__(self, k: int, modulus: Optional[int] = None):
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= 20:
            raise InvalidParams(f"binary field degree must be in 1..20, got {k!r}")
        if modulus is None:
            modulus = default_modulus(k)
        if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 0:
            # A negative int has a bit_length too, and its field would loop in gf2_mul.
            raise InvalidParams(f"binary field modulus must be a non-negative int, got {modulus!r}")
        if modulus.bit_length() != k + 1:
            raise InvalidParams(f"modulus {modulus:#x} does not have degree {k}")
        if not _gf2_irreducible(modulus):
            raise InvalidParams(f"modulus {modulus:#x} is reducible over GF(2)")
        self.k = k
        self.modulus = modulus
        self._gf = None

    def _kernel(self) -> kernel._GF2k:
        """The kernel's context for (k, modulus), fetched on first use; equal fields share it."""
        if self._gf is None:
            self._gf = kernel._gf2k(self.k, self.modulus)
        return self._gf

    def __eq__(self, other):
        return (
            isinstance(other, BinaryField)
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("F2k", self.k, self.modulus))

    def _from_int(self, n):
        return n & 1  # ring homomorphism from Z lands in the prime subfield

    def _add(self, a, b):
        return a ^ b

    _sub = _add

    def _mul(self, a, b):
        return self._kernel().mul(a, b)

    def _div(self, a, b):
        if b == 0:
            raise ZeroDivisionError(f"division by zero in {self.descriptor}")
        return self._kernel().div(a, b)

    def _neg(self, a):
        return a

    def _from_number(self, value):
        if isinstance(value, int):
            if value < 0:
                raise InvalidParams("bit-vector values are nonnegative")
            return FieldElement(self, kernel.gf2_polymod(value, self.modulus))
        raise InvalidParams(f"cannot make a GF(2^{self.k}) element from {value!r}")

    @property
    def characteristic(self):
        return 2

    @property
    def order(self):
        return 1 << self.k

    def is_square(self, a):
        return True  # Frobenius is a bijection on a finite field of char 2

    def sqrt(self, a):
        return FieldElement(self, self._kernel().sqrt(a.value))

    def trace(self, a: FieldElement) -> int:
        """Absolute trace to GF(2): a + a^2 + a^4 + ... (returns 0 or 1)."""
        return self._kernel().trace(a.value)

    def solve_artin_schreier(self, c: FieldElement) -> Optional[FieldElement]:
        """A root of l^2 + l = c, or None (solvable iff trace(c) = 0).

        The two roots differ by 1, i.e. in bit 0; the one with bit 0 clear is
        returned so the choice is deterministic.
        """
        gf = self._kernel()
        l = gf.solve(c.value)
        if l < 0:
            return None
        if gf.sq(l) ^ l != c.value:
            raise VerificationError(f"{l:#x} does not solve l^2 + l = {c.value:#x}")
        return FieldElement(self, l)

    @property
    def descriptor(self):
        return f"F2k:{self.k}:{self.modulus:x}"

    def parse_element(self, text):
        m = _HEX_LITERAL.fullmatch(text.strip())
        if m is None:
            raise InvalidParams(f"a GF(2^k) element is written in hex, got {text!r}")
        if len(m[1]) > _MAX_DIGITS:
            raise InvalidParams(f"a GF(2^k) element has at most {_MAX_DIGITS} hex digits")
        return self._from_number(int(m[1], 16))

    def format_element(self, a):
        return format(a.value, "x")


# Q and F_p literals: [+-]n or [+-]n/d in ASCII digits, each part at most 4300
# digits long (Python's own default limit on int() of a string).
_RATIONAL_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_MAX_DIGITS = 4300
# GF(2^k) literals: ASCII hex digits, after an optional 0x, at most 4300 of
# them: int() takes any number of hex digits, but the reduction mod the
# field's modulus is quadratic in their count.
_HEX_LITERAL = re.compile(r"(?:0[xX])?([0-9a-fA-F]+)")
# Descriptors; a sign is read so that the field's constructor names a negative number.
_DESCRIPTOR = re.compile(r"Q|Fp:(-?[0-9]+)|F2k:(-?[0-9]+):(-?[0-9a-fA-F]+)")


def _rational_literal(text: str, what: str) -> tuple:
    """(n, d) of the literal n/d, d None when ``text`` is n; InvalidParams naming ``what``."""
    m = _RATIONAL_LITERAL.fullmatch(text.strip())
    if m is None:
        raise InvalidParams(f"{what} is written n or n/d, got {text!r}")
    num, den = m.groups()
    if len(num.lstrip("+-")) > _MAX_DIGITS or den is not None and len(den) > _MAX_DIGITS:
        raise InvalidParams(f"{what} has at most {_MAX_DIGITS} digits a part")
    return int(num), None if den is None else int(den)


class Rationals(Field):
    """The rational numbers, backed by ``fractions.Fraction``."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def _from_int(self, n):
        return Fraction(n)

    def _mul(self, a, b):
        return a * b

    def _red(self, a):
        return a  # a Fraction is always in lowest terms

    def _inv(self, a):
        """1/a from a's parts, which are coprime already: no gcd, as in
        ``Fraction``'s own constructor for coprime parts; the sign goes on
        the numerator."""
        n, d = a.numerator, a.denominator
        if not n:
            raise ZeroDivisionError("division by zero in Q")
        if n < 0:
            n, d = -n, -d
        out = object.__new__(Fraction)
        out._numerator, out._denominator = d, n
        return out

    def _sqrt(self, a):
        if a < 0:
            return None
        n, d = a.numerator, a.denominator
        rn = isqrt(n)
        if rn * rn != n:
            return None
        rd = isqrt(d)
        if rd * rd != d:
            return None
        return Fraction(rn, rd)

    def _pow(self, a, n):
        if n < 0 and a == 0:
            raise ZeroDivisionError(f"0**{n} in Q")
        return a**n

    def _from_number(self, value):
        if isinstance(value, (int, Fraction)):
            return FieldElement(self, Fraction(value))
        raise InvalidParams(f"cannot make a rational from {value!r} (floats are rejected)")

    @property
    def characteristic(self):
        return 0

    def is_square(self, a):
        return self._sqrt(a.value) is not None

    def sqrt(self, a):
        r = self._sqrt(a.value)
        return None if r is None else FieldElement(self, r)

    @property
    def descriptor(self):
        return "Q"

    def parse_element(self, text):
        num, den = _rational_literal(text, "a rational")
        if den == 0:
            raise InvalidParams(f"zero denominator in {text!r}")
        return FieldElement(self, Fraction(num, 1 if den is None else den))

    def format_element(self, a):
        # Decimal prints an int of any length; str(int) stops at the interpreter's
        # digit limit (4300 by default), and an output may have several times
        # the digits of the literals it came from.
        n, d = Decimal(a.value.numerator), a.value.denominator
        return str(n) if d == 1 else f"{n}/{Decimal(d)}"


def field_from_descriptor(text: str) -> Field:
    """Parse ``Q``, ``Fp:<p>`` or ``F2k:<k>:<modulus-bits-hex>``, in ASCII digits."""
    if not isinstance(text, str):
        raise InvalidParams(f"a field descriptor is a string, got {text!r}")
    m = _DESCRIPTOR.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"unrecognised field descriptor {text!r}")
    p, k, modulus = m.groups()
    if p is not None:
        return PrimeField(int(p))
    return Rationals() if k is None else BinaryField(int(k), int(modulus, 16))


def require_odd_characteristic(field: Field, who: str) -> None:
    """InvalidParams naming ``who`` unless ``field`` has characteristic != 2."""
    if field.characteristic == 2:
        raise InvalidParams(f"{who} needs characteristic != 2")


def require_binary(field: Field, who: str) -> None:
    """InvalidParams naming ``who`` unless ``field`` is a GF(2^k)."""
    if not isinstance(field, BinaryField):
        raise InvalidParams(f"{who} lives over GF(2^k)")
