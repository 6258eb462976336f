"""Field arithmetic: prime fields, GF(2^k), and exact rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ectorsion import (
    BinaryField,
    FieldTooLarge,
    InvalidParams,
    PrimeField,
    QuadExtElement,
    QuadraticPoly,
    Rationals,
    field_from_descriptor,
)
from ectorsion.field import FieldElement, _gf2_irreducible, _is_prime, default_modulus

import oracles

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 31, 97]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_prime_field_rejects_bad_moduli():
    for bad in (1, 0, -7, 4, 9, 15, 2**31 + 11, 2.0, "7"):
        with pytest.raises(InvalidParams):
            PrimeField(bad)


def test_prime_field_accepts_large_prime_below_cap():
    p = 2147483629  # largest prime below 2^31
    F = PrimeField(p)
    a = F(123456789)
    assert (a * a).sqrt() in (a, -a)


def test_primality_is_exact_on_the_moduli_prime_fields_take():
    """Miller-Rabin to the bases 2, 3, 5, 7 against a sieve below 10^5; the
    least strong pseudoprimes to base 2, to 2 and 3, and to 2, 3 and 5, and
    the Carmichael numbers 561, 1105, 1729, are refused; the two largest
    primes below 2^31 are accepted."""
    n = 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    assert [i for i in range(n) if _is_prime(i)] == [i for i in range(n) if sieve[i]]
    assert not any(_is_prime(c) for c in (2047, 1373653, 25326001, 561, 1105, 1729))
    assert _is_prime(2**31 - 1) and _is_prime(2147483629)


def test_field_instances_have_no_dict():
    for F in (PrimeField(7), BinaryField(3), Rationals()):
        assert not hasattr(F, "__dict__"), F
        with pytest.raises(AttributeError):
            F.extra = 1


def test_binary_field_rejects_bad_degrees_and_moduli():
    for bad_k in (0, 21, -1, "3", True):  # BinaryField(True) would be named "F2k:True:3"
        with pytest.raises(InvalidParams):
            BinaryField(bad_k)
    with pytest.raises(InvalidParams):
        BinaryField(3, modulus=0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1), reducible
    with pytest.raises(InvalidParams):
        BinaryField(3, modulus=0b101)  # degree 2, not 3


@pytest.mark.parametrize("modulus", [-11, -3, -1, True, False, 11.0, "b"])
def test_binary_field_refuses_a_modulus_that_is_no_non_negative_int(modulus):
    # -11 has bit_length 4 and passes the trial division; its field would
    # loop forever in its first product.
    k = 1 if isinstance(modulus, bool) else 3
    with pytest.raises(InvalidParams, match="modulus must be a non-negative int"):
        BinaryField(k, modulus)


def test_negative_modulus_in_a_descriptor_is_refused():
    for desc in ("F2k:3:-b", "F2k:2:-7", "F2k:1:-3"):
        with pytest.raises(InvalidParams, match="non-negative int"):
            field_from_descriptor(desc)


def test_irreducibility_test_agrees_with_the_oracle():
    """Rabin's test against trial division, on every polynomial of degree 1..12."""
    for m in range(2, 1 << 13):
        assert _gf2_irreducible(m) == oracles.gf2_poly_irreducible(m, m.bit_length() - 1), m


def test_default_modulus_is_lowest_odd_irreducible():
    known = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011}
    for k in range(1, 21):
        m = default_modulus(k)
        assert m & 1, "constant term must be 1"
        assert oracles.gf2_poly_irreducible(m, k)
        if k in known:
            assert m == known[k]
        # nothing smaller works
        for cand in range((1 << k) | 1, m, 2):
            assert not oracles.gf2_poly_irreducible(cand, k)


def test_field_equality_and_descriptor_roundtrip():
    for F in (PrimeField(13), BinaryField(4), Rationals(), BinaryField(3, modulus=0b1101)):
        G = field_from_descriptor(F.descriptor)
        assert G == F
        assert G.descriptor == F.descriptor
    assert PrimeField(7) != PrimeField(11)
    assert BinaryField(3, modulus=0b1011) != BinaryField(3, modulus=0b1101)
    with pytest.raises(ValueError):
        field_from_descriptor("F3k:2:7")


# ---------------------------------------------------------------------------
# element construction, parsing, formatting
# ---------------------------------------------------------------------------

def test_prime_field_element_coercion_and_parse():
    F = PrimeField(7)
    assert F(10).value == 3
    assert F(-1).value == 6
    assert F.parse_element("3/2") == F(3) / F(2) == F(5)
    assert F.parse_element("-1") == F(6)
    assert F.format_element(F(5)) == "5"
    with pytest.raises(InvalidParams):
        F.element(1.5)
    with pytest.raises(InvalidParams):
        F.element(PrimeField(11)(3))  # wrong field


def test_binary_field_element_parse_hex():
    F = BinaryField(3)  # x^3 + x + 1
    assert F.element(0b1011).value == 0  # the modulus reduces to zero
    assert F.parse_element("0x5").value == 5
    assert F.parse_element("b").value == 0
    assert F.format_element(F(6)) == "6"
    for bad in (-1, 1.5):
        with pytest.raises(InvalidParams):
            F(bad)
    a6 = BinaryField(5)(0b10110)
    assert BinaryField(5).parse_element(BinaryField(5).format_element(a6)) == a6


def test_rationals_reject_floats_and_bools():
    Q = Rationals()
    with pytest.raises(InvalidParams):
        Q.element(0.5)
    with pytest.raises(InvalidParams):
        Q.element(True)
    assert Q.parse_element("22/7") == Q(Fraction(22, 7))
    assert Q(Fraction(-3, 6)).value == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError, match="in Q"):
        Q(1) / Q(0)
    with pytest.raises(ZeroDivisionError, match="in Q"):
        Q(0) ** -1
    with pytest.raises(FieldTooLarge, match="cannot enumerate Q"):
        Q.elements()


def test_rational_literals_are_n_or_n_over_d():
    Q = Rationals()
    assert Q.parse_element("-3/4") == Q(Fraction(-3, 4))
    assert Q.parse_element(" 7 ") == Q(7)
    assert Q.parse_element("+6/4").value == Fraction(3, 2)
    assert Q.parse_element("9" * 4300).value == int("9" * 4300)
    for text in ("0.5", "1e400", "1e1000000000", "1/0", "-0/0", "1" * 4301,
                 "1/" + "1" * 4301, "3/-4", "1/2/3", "", "nan", "inf", "1_000", "\u0663"):
        with pytest.raises(InvalidParams):
            Q.parse_element(text)
    # F_p literals follow the same grammar, read mod p.
    F = PrimeField(13)
    assert F.parse_element(" -3/4 ") == F(-3) / F(4) and F.parse_element("+20") == F(7)
    for text in ("1_0", "\u0663", "3/-4", "1" * 4301, "1/" + "1" * 4301, "0.5", "1/2/3", "",
                 "0x3", "3 / 4"):
        with pytest.raises(InvalidParams):
            F.parse_element(text)
    # GF(2^k) literals are ASCII hex digits after an optional 0x.
    G = BinaryField(3)
    assert G.parse_element("0x5") == G.parse_element(" 5 ") == G(5)
    assert G.parse_element("0XF") == G.parse_element("f") == G(15)
    for text in ("1_0", "\u0663", "-3", "+3", "0x", "0x-3", "g", "3/4", ""):
        with pytest.raises(InvalidParams):
            G.parse_element(text)
    # Descriptors take ASCII digits, and hex for the modulus.
    for desc in ("Fp:1_3", "Fp:\u0661\u0663", "Fp:+13", "Fp: 13", "F2k:0_3:b", "F2k:\u0663:b",
                 "F2k:3:b_b", "F2k:3:0xb", "F2k:3:+b"):
        with pytest.raises(ValueError, match="unrecognised field descriptor"):
            field_from_descriptor(desc)


def test_cross_field_arithmetic_is_rejected():
    a = PrimeField(7)(3)
    b = PrimeField(11)(3)
    with pytest.raises(InvalidParams):
        a + b
    with pytest.raises(InvalidParams):
        a * BinaryField(3)(3)
    assert a != b


@pytest.mark.parametrize("field", [PrimeField(7), BinaryField(3), Rationals()], ids=repr)
def test_every_field_refuses_bools(field):
    """bool is an int subclass, but True and False stand for no field element."""
    for b in (True, False):
        with pytest.raises(InvalidParams):
            field.element(b)
        with pytest.raises(InvalidParams):
            field(b)
    assert field.element(1) == field.one and field.element(0) == field.zero


def test_no_element_equals_a_bool():
    """Arithmetic and powers refuse bools, and so does ==: F(1) == True is False in every field and in K_g."""
    F = PrimeField(7)
    g = QuadraticPoly(F, 0, 1)  # x^2 + 1 is irreducible mod 7
    for one, zero in [(field(1), field(0)) for field in (F, Rationals(), BinaryField(3))] + [
            (QuadExtElement(g, 1), QuadExtElement(g, 0))]:
        assert one == 1 and zero == 0
        assert one != True and zero != False  # noqa: E712
        assert not (True == one) and not (False == zero)  # noqa: E712
        with pytest.raises(TypeError):
            one + True
        with pytest.raises(TypeError):
            one ** True
    # K_g reads a scalar as K does: a Fraction is a scalar over Q, and no scalar over F_p
    Qi = QuadraticPoly(Rationals(), 0, 1)
    assert QuadExtElement(Qi, 1) + Fraction(1, 2) == QuadExtElement(Qi, Fraction(3, 2))
    assert Rationals()(1) + Fraction(1, 2) == Rationals()(Fraction(3, 2))
    with pytest.raises(TypeError):
        QuadExtElement(g, 1) + Fraction(1, 2)


def test_prime_field_literal_with_a_zero_denominator_mod_p_is_invalid():
    """As Q refuses 1/0, F_p refuses every d = 0 mod p, with InvalidParams."""
    F = PrimeField(7)
    for text in ("1/7", "1/0", "3/14", "-2/700"):
        with pytest.raises(InvalidParams, match="zero denominator mod p in"):
            F.parse_element(text)
    assert F.parse_element("3/8") == F(3) and F.parse_element("0/8") == F(0)


def test_prime_field_and_rationals_share_one_element_arithmetic():
    """F_p and Q add, subtract, negate and divide through ``Field``'s one copy."""
    for cls in (PrimeField, Rationals):
        assert not {"_add", "_sub", "_neg", "_div"} & set(vars(cls)), cls
    assert {"_add", "_sub", "_neg", "_div"} <= set(vars(BinaryField))


def test_element_of_a_foreign_field_is_refused():
    F, Q = PrimeField(7), Rationals()
    for field, foreign in ((F, PrimeField(11)(3)), (F, Q(3)), (Q, F(3)), (Q, BinaryField(3)(3))):
        with pytest.raises(InvalidParams):
            field.element(foreign)
    for field, twin in ((F, PrimeField(7)), (Q, Rationals())):  # twin: equal, built apart
        a, b = field(3), twin(3)
        assert field.element(a) is a and field.element(b) is b


def test_elements_of_equal_field_instances_mix():
    a, b = PrimeField(7)(3), PrimeField(7)(3)
    assert a.field is not b.field
    assert a == b and a + b == PrimeField(7)(6)
    assert BinaryField(3)(5) * BinaryField(3)(1) == BinaryField(3)(5)


# ---------------------------------------------------------------------------
# the F_p operator table
# ---------------------------------------------------------------------------

_FP_BINARY = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
}


@pytest.mark.parametrize("p", [2, 7, 97])
def test_prime_field_operators_match_int_arithmetic(p):
    """Every F_p operator, against an element of the same field, of an equal
    field built apart, and ints of either sign and any size, agrees with
    int arithmetic mod p and stays in the left operand's field."""
    F, G = PrimeField(p), PrimeField(p)
    rng = random.Random(p)
    values = sorted(set(range(min(p, 8))) | {p - 1} | {rng.randrange(p) for _ in range(6)})
    ints = (-5 * p - 2, -p, -1, 0, 1, p - 1, p, p + 3, 7 * p + 5, 2**40 + 1)
    kind = type(F.one)
    for a in values:
        x = F(a)
        neg = -x
        assert neg.value == -a % p and neg.field is F and type(neg) is kind
        for name, op in _FP_BINARY.items():
            cases = [(x, F(b), a, b) for b in values]
            cases += [(x, G(b), a, b) for b in values]
            cases += [(x, n, a, n) for n in ints] + [(n, x, n, a) for n in ints]
            for lhs, rhs, u, v in cases:
                r = op(lhs, rhs)
                assert r.value == op(u, v) % p, (name, lhs, rhs)
                assert r.field is F and type(r) is kind, (name, lhs, rhs)
        for b in values:
            assert (x == F(b)) == (a == b) and (x == G(b)) == (a == b)
            assert (x != F(b)) == (a != b)
        for n in ints:
            assert (x == n) == (n == x) == ((a - n) % p == 0)
            assert (x != n) == ((a - n) % p != 0)


@pytest.mark.parametrize("field", [PrimeField(7), BinaryField(3), Rationals()])
def test_every_field_has_the_one_element_class(field):
    x = field(3)
    made = [x, field.zero, field.one, x + x, x - 1, 2 * x, x * x, -x, x / x, x**3, x.inverse(),
            field.parse_element("3"), x.sqrt() or field.one]
    assert all(type(e) is FieldElement for e in made)


def test_prime_field_operators_refuse_foreign_operands():
    x = PrimeField(7)(3)
    foreign = (PrimeField(11)(3), Rationals()(3))
    for name, op in _FP_BINARY.items():
        for other in (True, False, Fraction(1, 2)):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        for other in foreign:
            with pytest.raises(InvalidParams):
                op(x, other)
            with pytest.raises(InvalidParams):
                op(other, x)
    assert all(x != other for other in foreign)


def test_prime_field_elements_hash_by_value():
    F, G = PrimeField(7), PrimeField(7)
    same = (F(3), G(3), F(10), G(-4), F(1) + 2, 5 * G(2))
    assert len({hash(e) for e in same}) == 1
    assert len(set(same)) == 1
    table = {F(3): "three", F(4): "four"}
    assert table[G(10)] == "three" and table[F(1) * 4] == "four"
    assert G(5) not in table and len({F(v) for v in range(20)}) == 7


@pytest.mark.parametrize("p", [2, 7, 97])
def test_prime_field_division_by_any_multiple_of_p_is_zero_division(p):
    """One zero rule: every raw value = 0 mod p, and every operator that
    inverts, raises ZeroDivisionError."""
    F = PrimeField(p)
    for zero in (0, p, -p, 2 * p):
        with pytest.raises(ZeroDivisionError):
            F._inv(zero)
        with pytest.raises(ZeroDivisionError):
            F._div(1, zero)
        with pytest.raises(ZeroDivisionError):
            F.one / zero
    x, z = F(1), F.zero
    for call in (lambda: x / z, lambda: 1 / z, z.inverse, lambda: z**-1, lambda: z**-3):
        with pytest.raises(ZeroDivisionError):
            call()
    if p > 2:
        assert F._div(3, p + 2) == F._div(3, 2) == 3 * pow(2, -1, p) % p


# ---------------------------------------------------------------------------
# square roots
# ---------------------------------------------------------------------------

def test_every_element_of_f2_is_its_own_square_root():
    F = PrimeField(2)
    assert F.sqrt(F(0)) == F(0) and F.sqrt(F(1)) == F(1)


def test_binary_negative_powers_match_the_oracle():
    k, m = 4, 0b10011
    G = BinaryField(k, m)
    for v in range(1, 1 << k):
        assert (G(v) ** -3).value == oracles.gf2_inv(oracles.gf2_pow(v, 3, m, k), m, k)
    with pytest.raises(ZeroDivisionError):
        G(0) ** -3


def test_binary_literals_have_at_most_4300_hex_digits():
    """Q's and F_p's 4,300-digit rule, counted after an optional 0x: the
    literal's reduction mod the modulus is quadratic in its length."""
    G = BinaryField(8)
    text = "9c" * 2150
    r = 0  # Horner's rule over the bits, one oracle product by x a bit
    for bit in bin(int(text, 16))[2:]:
        r = oracles.gf2_mul(r, 2, G.modulus, G.k) ^ int(bit)
    assert G.parse_element(text).value == G.parse_element("0x" + text).value == r
    for text in ("9" * 4301, "0x" + "9" * 4301):
        with pytest.raises(InvalidParams, match="at most 4300 hex digits"):
            G.parse_element(text)


def test_prime_field_sqrt_known_values():
    F = PrimeField(13)
    r = F(3).sqrt()
    assert r == F(4) and r * r == F(3)
    assert not PrimeField(5)(2).is_square()
    assert PrimeField(5)(2).sqrt() is None
    assert PrimeField(7)(0).sqrt() == PrimeField(7)(0)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_prime_field_squares_match_exhaustive_scan(p):
    F = PrimeField(p)
    squares = oracles.fp_squares(p)
    for v in range(p):
        a = F(v)
        assert a.is_square() == (v in squares)
        r = a.sqrt()
        if v in squares:
            assert r * r == a
            # canonical choice: the smaller of the two residues
            assert r.value <= (p - r.value) % p
        else:
            assert r is None


def test_binary_field_sqrt_is_frobenius_inverse():
    F = BinaryField(2)
    rho = F(0b10)
    assert rho.sqrt() == rho + 1  # (rho+1)^2 = rho^2 + 1 = rho
    for k in (1, 2, 3, 4, 6):
        G = BinaryField(k)
        seen = set()
        for a in G.elements():
            r = a.sqrt()
            assert r * r == a
            seen.add(r.value)
        assert len(seen) == 2**k  # a bijection


def test_rational_squares():
    Q = Rationals()
    assert Q(Fraction(9, 4)).sqrt() == Q(Fraction(3, 2))
    assert Q(0).sqrt() == Q(0)
    for v in (Fraction(2), Fraction(-9, 4), Fraction(8, 9), Fraction(-1)):
        assert not Q(v).is_square()
        assert Q(v).sqrt() is None


# ---------------------------------------------------------------------------
# GF(2^k): trace and Artin-Schreier solving
# ---------------------------------------------------------------------------

def test_trace_gf4():
    F = BinaryField(2)
    rho = F(0b10)
    assert [F.trace(x) for x in (F(0), F(1), rho, rho + 1)] == [0, 0, 1, 1]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 12])
def test_trace_is_balanced_and_additive(k):
    F = BinaryField(k)
    values = [F.trace(a) for a in F.elements()]
    assert values.count(0) == 2 ** (k - 1)
    els = list(F.elements())
    for a, b in zip(els[::3], els[1::3]):
        assert F.trace(a + b) == (F.trace(a) ^ F.trace(b))


def test_artin_schreier_gf4_known_values():
    F = BinaryField(2)
    rho = F(0b10)
    l = F.solve_artin_schreier(F(1))
    assert l == rho  # roots are rho and rho+1; bit 0 clear picks rho
    assert F.solve_artin_schreier(rho) is None  # trace(rho) = 1
    assert F.solve_artin_schreier(F(0)) == F(0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 12])
def test_artin_schreier_exhaustive(k):
    F = BinaryField(k)
    for c in F.elements():
        l = F.solve_artin_schreier(c)
        if F.trace(c) == 0:
            assert l * l + l == c
            assert l.value & 1 == 0  # deterministic pick
        else:
            assert l is None


@pytest.mark.parametrize("k", [16, 20])
def test_trace_roots_and_square_roots_sampled_against_oracle(k):
    """Above k = 11 the tables split c into bits 0-10 and 11 up; sample both halves."""
    F = BinaryField(k)
    m = F.modulus
    rng = random.Random(k)
    for c in [1 << j for j in range(k)] + [rng.randrange(1 << k) for _ in range(300)]:
        tr = oracles.gf2_trace(c, m, k)
        assert F.trace(F(c)) == tr
        l = F.solve_artin_schreier(F(c))
        if tr:
            assert l is None
        else:
            assert oracles.gf2_mul(l.value, l.value, m, k) ^ l.value == c
            assert l.value & 1 == 0
        r = F(c).sqrt().value
        assert oracles.gf2_mul(r, r, m, k) == c


# ---------------------------------------------------------------------------
# field axioms, property-style
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(SMALL_PRIMES),
    xs=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
)
def test_prime_field_axioms(p, xs):
    F = PrimeField(p)
    a, b, c = (F(x) for x in xs)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == F(0)
    if b != 0:
        assert b * b.inverse() == F(1)
        assert (a / b) * b == a
    assert a ** 3 == a * a * a


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3, 5, 8, 11]),
    xs=st.tuples(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1)),
)
def test_binary_field_axioms(k, xs):
    F = BinaryField(k)
    a, b, c = (F(x) for x in xs)
    assert a + a == F(0)  # characteristic 2
    assert a - b == a + b
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if b != 0:
        assert (a / b) * b == a
    assert (a + b) ** 2 == a ** 2 + b ** 2  # Frobenius is additive


@settings(max_examples=60, deadline=None)
@given(
    ns=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    ds=st.tuples(st.integers(1, 50), st.integers(1, 50)),
)
def test_rational_axioms(ns, ds):
    Q = Rationals()
    a = Q(Fraction(ns[0], ds[0]))
    b = Q(Fraction(ns[1], ds[1]))
    assert (a * a).is_square()
    assert (a * a).sqrt() == (a if a.value >= 0 else -a)
    if b != 0:
        assert (a / b) * b == a
    assert a * 0 == Q(0)
    assert a + Fraction(1, 2) == a + Q(Fraction(1, 2))


def test_characteristic_and_order():
    assert PrimeField(13).characteristic == 13
    assert PrimeField(13).order == 13
    assert BinaryField(4).characteristic == 2
    assert BinaryField(4).order == 16
    assert Rationals().characteristic == 0
    assert Rationals().order is None
    assert len(list(BinaryField(3).elements())) == 8
