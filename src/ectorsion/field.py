"""The three coefficient fields and their elements.

Everything is integer-exact; no floating point appears anywhere in the
package.  The supported fields are

* ``PrimeField(p)``   — residues mod a prime p < 2**31,
* ``BinaryField(k)``  — GF(2^k) for k <= 20, elements stored as polynomial
  bit-vectors reduced by an irreducible modulus; its arithmetic is the
  kernel's context for (k, modulus), built on the first arithmetic call,
* ``Rationals()``     — arbitrary-precision reduced fractions.

Square roots are canonicalised so that every algorithm downstream is
deterministic: mod p the root in [0, p/2] is returned, over Q the
nonnegative one, and in GF(2^k) squaring is a bijection so the root is
already unique (x -> x**(2**(k-1))).

F_p and Q also expose the raw helpers that code working on raw values
(ints mod p, ``Fraction``s) needs between its boundary check and its
answer: ``_red`` (the canonical value), ``_inv`` and ``_sqrt``.  Each
field's element-level ``sqrt`` is a thin wrapper over its ``_sqrt``.

A field instance doubles as an element factory: ``F = PrimeField(7); F(3)``.
F_p elements (each field's ``_elt`` class) have their own ``+ - *``, unary
``-`` and ``==``: one call against the same field object or an int (products
via ``PrimeField._mul``), the generic path otherwise, as Q and GF(2^k) use.
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

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for everything below 3.3e24."""
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

    Supports the usual operators against elements of the same field and
    against plain ints (which enter through the ring homomorphism from Z,
    i.e. ``2 * x`` means ``x + x`` even in characteristic 2).
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

    def __add__(self, other):
        v = self._rhs(other)
        if v is None:
            return NotImplemented
        return self.__class__(self.field, self.field._add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._rhs(other)
        if v is None:
            return NotImplemented
        return self.__class__(self.field, self.field._sub(self.value, v))

    def __rsub__(self, other):
        v = self._rhs(other)
        if v is None:
            return NotImplemented
        return self.__class__(self.field, self.field._sub(v, self.value))

    def __mul__(self, other):
        v = self._rhs(other)
        if v is None:
            return NotImplemented
        return self.__class__(self.field, self.field._mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._rhs(other)
        if v is None:
            return NotImplemented
        return self.__class__(self.field, self.field._div(self.value, v))

    def __rtruediv__(self, other):
        v = self._rhs(other)
        if v is None:
            return NotImplemented
        return self.__class__(self.field, self.field._div(v, self.value))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return self.__class__(self.field, self.field._pow(self.value, n))

    def __neg__(self):
        return self.__class__(self.field, self.field._neg(self.value))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (
                other.field is self.field or other.field == self.field
            ) and self.value == other.value
        if isinstance(other, int):
            return self.value == self.field._from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

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
    """Abstract base: element factory plus the field-specific arithmetic."""

    kind: str = "?"
    _elt = FieldElement  # the class of this field's elements

    # -- raw-value arithmetic, implemented per subclass ---------------------
    def _from_int(self, n: int):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _sub(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _div(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _red(self, a):
        """The canonical raw value equal to ``a``, an unreduced raw result."""
        raise NotImplementedError

    def _inv(self, a):
        """The raw inverse of ``a``; ZeroDivisionError for 0, as ``_div`` refuses it."""
        raise NotImplementedError

    def _sqrt(self, a):
        """The canonical raw square root of ``a``, or None when there is none."""
        raise NotImplementedError

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

    def _from_number(self, value) -> FieldElement:
        """The element a number other than a bool stands for; per field."""
        raise NotImplementedError

    def __call__(self, value) -> FieldElement:
        return self.element(value)

    @property
    def zero(self) -> FieldElement:
        return self._elt(self, self._from_int(0))

    @property
    def one(self) -> FieldElement:
        return self._elt(self, self._from_int(1))

    @property
    def characteristic(self) -> int:
        raise NotImplementedError

    @property
    def order(self) -> Optional[int]:
        """Number of elements, or None for an infinite field."""
        return None

    def elements(self) -> Iterator[FieldElement]:
        raise FieldTooLarge(f"cannot enumerate {self.descriptor}")

    def is_square(self, a: FieldElement) -> bool:
        raise NotImplementedError

    def sqrt(self, a: FieldElement) -> Optional[FieldElement]:
        raise NotImplementedError

    @property
    def descriptor(self) -> str:
        raise NotImplementedError

    def parse_element(self, text: str) -> FieldElement:
        raise NotImplementedError

    def format_element(self, a: FieldElement) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.descriptor


class _PrimeElement(FieldElement):
    """An F_p element, with the fast operators described in the module docstring."""

    __slots__ = ()

    def __add__(self, other):
        if other.__class__ is _PrimeElement and other.field is self.field:
            other = other.value
        elif other.__class__ is not int:
            return FieldElement.__add__(self, other)
        return _PrimeElement(self.field, (self.value + other) % self.field.p)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is _PrimeElement and other.field is self.field:
            other = other.value
        elif other.__class__ is not int:
            return FieldElement.__sub__(self, other)
        return _PrimeElement(self.field, (self.value - other) % self.field.p)

    def __mul__(self, other):
        if other.__class__ is _PrimeElement and other.field is self.field:
            other = other.value
        elif other.__class__ is not int:
            return FieldElement.__mul__(self, other)
        return _PrimeElement(self.field, self.field._mul(self.value, other))

    __rmul__ = __mul__

    def __neg__(self):
        return _PrimeElement(self.field, -self.value % self.field.p)

    def __eq__(self, other):
        if other.__class__ is _PrimeElement and other.field is self.field:
            return self.value == other.value
        if other.__class__ is int:
            return self.value == other % self.field.p
        return FieldElement.__eq__(self, other)

    __hash__ = FieldElement.__hash__


class PrimeField(Field):
    """F_p for a prime p < 2**31 (p = 2 is allowed, though curves reject it)."""

    kind = "prime"
    __slots__ = ("p",)
    _elt = _PrimeElement

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

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _div(self, a, b):
        if b == 0:
            raise ZeroDivisionError(f"division by zero in {self.descriptor}")
        return a * pow(b, self.p - 2, self.p) % self.p

    def _neg(self, a):
        return -a % self.p

    def _red(self, a):
        return a % self.p

    def _inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in {self.descriptor}")
        return pow(a, self.p - 2, self.p)

    def _sqrt(self, a):
        r = kernel.fp_sqrt(a, self.p)
        return None if r < 0 else r

    def _pow(self, a, n):
        if n < 0 and a == 0:
            raise ZeroDivisionError(f"0**{n} in {self.descriptor}")
        return pow(a, n, self.p)

    def _from_number(self, value):
        if isinstance(value, int):
            return _PrimeElement(self, value % self.p)
        raise InvalidParams(f"cannot make an F_{self.p} element from {value!r}")

    @property
    def characteristic(self):
        return self.p

    @property
    def order(self):
        return self.p

    def elements(self):
        for i in range(self.p):
            yield _PrimeElement(self, i)

    def is_square(self, a):
        return kernel.fp_is_square(a.value, self.p)

    def sqrt(self, a):
        r = self._sqrt(a.value)
        return None if r is None else _PrimeElement(self, r)

    @property
    def descriptor(self):
        return f"Fp:{self.p}"

    def parse_element(self, text):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.element(int(num)) / self.element(int(den))
        return _PrimeElement(self, int(text) % self.p)

    def format_element(self, a):
        return str(a.value)


def _gf2_polymod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _gf2_irreducible(m: int) -> bool:
    """Trial division by every polynomial of degree 1 .. deg(m)//2."""
    deg = m.bit_length() - 1
    if deg < 1 or not m & 1:
        # A zero constant term means x divides m.
        return deg == 1 and m == 2  # the polynomial "x" itself, never used
    for d in range(1, deg // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _gf2_polymod(m, q) == 0:
                return False
    return True


def default_modulus(k: int) -> int:
    """Smallest irreducible degree-k modulus (by bit-vector value)."""
    for m in range((1 << k) + 1, 1 << (k + 1), 2):
        if _gf2_irreducible(m):
            return m
    raise AssertionError(f"no irreducible polynomial of degree {k}?")


class BinaryField(Field):
    """GF(2^k), k <= 20, as bit-vectors mod an irreducible polynomial."""

    kind = "binary"
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
            return FieldElement(self, _gf2_polymod(value, self.modulus))
        raise InvalidParams(f"cannot make a GF(2^{self.k}) element from {value!r}")

    @property
    def characteristic(self):
        return 2

    @property
    def order(self):
        return 1 << self.k

    def elements(self):
        for v in range(1 << self.k):
            yield FieldElement(self, v)

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
        if gf.mul(l, l) ^ l != c.value:
            raise VerificationError(f"{l:#x} does not solve l^2 + l = {c.value:#x}")
        return FieldElement(self, l)

    @property
    def descriptor(self):
        return f"F2k:{self.k}:{self.modulus:x}"

    def parse_element(self, text):
        text = text.strip().lower()
        if text.startswith("0x"):
            text = text[2:]
        return self.element(int(text, 16))

    def format_element(self, a):
        return format(a.value, "x")


# Q literals: [+-]n or [+-]n/d in ASCII digits, each part at most 4300 digits
# long (Python's own default limit on int() of a string).
_Q_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_Q_MAX_DIGITS = 4300


class Rationals(Field):
    """The rational numbers, backed by ``fractions.Fraction``."""

    kind = "rational"
    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def _from_int(self, n):
        return Fraction(n)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def _neg(self, a):
        return -a

    def _red(self, a):
        return a  # a Fraction is always in lowest terms

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return Fraction(a.denominator, a.numerator)

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
        m = _Q_LITERAL.fullmatch(text.strip())
        if m is None:
            raise InvalidParams(f"a rational is written n or n/d, got {text!r}")
        num, den = m.group(1), m.group(2) or "1"
        if max(len(num.lstrip("+-")), len(den)) > _Q_MAX_DIGITS:
            raise InvalidParams(f"a rational has at most {_Q_MAX_DIGITS} digits a part")
        if not int(den):
            raise InvalidParams(f"zero denominator in {text!r}")
        return FieldElement(self, Fraction(int(num), int(den)))

    def format_element(self, a):
        # Decimal prints an int of any length; str(int) stops at the interpreter's
        # digit limit (4300 by default), and an output may have several times
        # the digits of the literals it came from.
        n, d = Decimal(a.value.numerator), a.value.denominator
        return str(n) if d == 1 else f"{n}/{Decimal(d)}"


def field_from_descriptor(text: str) -> Field:
    """Parse ``Q``, ``Fp:<p>`` or ``F2k:<k>:<modulus-bits-hex>``."""
    if not isinstance(text, str):
        raise InvalidParams(f"a field descriptor is a string, got {text!r}")
    parts = text.strip().split(":")
    if parts == ["Q"]:
        return Rationals()
    if parts[0] == "Fp" and len(parts) == 2:
        return PrimeField(int(parts[1]))
    if parts[0] == "F2k" and len(parts) == 3:
        return BinaryField(int(parts[1]), int(parts[2], 16))
    raise ValueError(f"unrecognised field descriptor {text!r}")
