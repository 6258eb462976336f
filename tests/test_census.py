"""Counting char-2 torsion classes and sweeping family parameters."""

import pytest

from ectorsion import (
    BinaryField,
    Char2Curve,
    FieldTooLarge,
    InvalidParams,
    PrimeField,
    Rationals,
    VerificationError,
    cli,
    e4_new,
    e8_new,
    family_sweep,
    iso_e4,
    sigma_char2,
    verify_f3_example,
    verify_f4_example,
)

import ectorsion.census as census
from ectorsion import families, kernel
import oracles


# ---------------------------------------------------------------------------
# the char-2 census
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_sigma_char2_counts(k):
    F = BinaryField(k)
    q = 2**k
    rep4 = sigma_char2(F, 4)
    assert rep4.agree
    assert rep4.family_count == q - 1
    rep8 = sigma_char2(F, 8)
    assert rep8.agree
    assert rep8.family_count == q // 2 - 1
    assert rep4.field == F.descriptor and rep4.torsion_order == 4
    js = rep8.to_json_dict()
    assert js["agree"] is True
    assert js["brute_force_count"] == q // 2 - 1


def test_sigma_char2_guards():
    with pytest.raises(FieldTooLarge):
        sigma_char2(BinaryField(7), 4)
    with pytest.raises(InvalidParams):
        sigma_char2(BinaryField(3), 6)
    with pytest.raises(InvalidParams):
        sigma_char2(PrimeField(7), 4)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_has_point_of_order_matches_oracle_orders(k):
    """The brute side's x-doubling test against the oracle's orders, on every curve."""
    F = BinaryField(k)
    mod, q = F.modulus, 1 << k
    for a6 in range(1, q):
        for a2 in range(q):
            c = (kernel._gf2k(k, mod), a2, a6)
            pts = kernel.c2_points(c)
            orders = {oracles.char2_order(k, mod, a2, a6, P) for P in pts}
            for n in (2, 4, 8, 16):
                assert census._has_point_of_order(c, pts, n) == (n in orders), (a2, a6, n)


@pytest.mark.parametrize("n", [0, 1, 3, 6, 12])
def test_has_point_of_order_takes_powers_of_two(n):
    c = (BinaryField(2)._kernel(), 0, 1)
    with pytest.raises(InvalidParams):
        census._has_point_of_order(c, kernel.c2_points(c), n)


def test_sigma_char2_class_disagreement_is_a_verification_error(monkeypatch):
    # y^2 + xy = x^3 + a6 and y^2 + xy = x^3 + x^2 + a6 share a class over GF(4).
    monkeypatch.setattr(census, "_has_point_of_order", lambda c, points, n: not c[1])
    with pytest.raises(VerificationError):
        sigma_char2(BinaryField(2), 4)
    assert cli.main(["census", "--field", "F2k:2:7", "--order", "4"]) == 3


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("N", [4, 8])
def test_sigma_char2_checks_the_family_witnesses(monkeypatch, k, N):
    """The family side runs the witness check, whose order search adds points,
    N/2 - 1 per instance (its multiples stop at (N/2)G = -(N/2)G); the brute
    side adds none (it doubles x-coordinates)."""
    calls = []

    def counting(*args, fn=kernel.c2_add):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(kernel, "c2_add", counting)  # before any curve is built
    rep = sigma_char2(BinaryField(k), N)
    assert rep.agree
    assert len(calls) == (N // 2 - 1) * rep.family_count > 0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("N", [4, 8])
def test_sigma_char2_brute_side_builds_no_curve(monkeypatch, k, N):
    """Only the family side builds Char2Curve objects, one per instance."""
    built = []

    def counting(self, *args, fn=Char2Curve.__init__):
        built.append(args)
        fn(self, *args)

    monkeypatch.setattr(Char2Curve, "__init__", counting)
    rep = sigma_char2(BinaryField(k), N)
    assert len(built) == rep.family_count


def test_sigma_char2_brute_side_independently():
    """Recount order-8 classes over GF(8) with the standalone oracle."""
    k, q = 3, 8
    F = BinaryField(k)
    mod = F.modulus
    found = {}
    for a6 in range(1, q):
        for a2 in range(q):
            pts = oracles.char2_points(k, mod, a2, a6) + [None]
            has8 = any(
                oracles.char2_order(k, mod, a2, a6, P) == 8
                for P in pts
                if P is not None
            )
            key = (a6, oracles.gf2_trace(a2, mod, k))
            assert found.setdefault(key, has8) == has8
    brute = sum(1 for v in found.values() if v)
    assert brute == sigma_char2(F, 8).brute_force_count == q // 2 - 1


# ---------------------------------------------------------------------------
# the two tiny worked examples
# ---------------------------------------------------------------------------

def test_f3_example():
    rep = verify_f3_example()
    assert rep["ok"] is True
    assert rep["group_order"] == 6
    assert rep["generator_order"] == 6
    assert rep["cyclic"] is True
    assert rep["hasse_upper"] == 8 and rep["hasse_upper_below_12"]
    assert rep["field"] == "Fp:3"


def test_f4_example():
    rep = verify_f4_example()
    assert rep["ok"] is True
    assert rep["group_order"] == 8
    assert rep["generator"] == {"x": "2", "y": "2"}
    assert rep["equation_is_x3_plus_1"] is True
    assert rep["coincides_with_order4_curve"] is True


def test_f4_example_against_oracle():
    # y^2 + xy = x^3 + 1 over GF(4) really has 8 points and (rho, rho) = 8
    k, mod = 2, 0b111
    pts = oracles.char2_points(k, mod, 0, 1)
    assert len(pts) + 1 == 8
    assert oracles.char2_order(k, mod, 0, 1, (2, 2)) == 8


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

def test_family_sweep_f3_order6():
    F = PrimeField(3)
    insts = family_sweep(F, 6)
    assert len(insts) == 1
    assert insts[0].params["t"] == F(1)
    assert all(w.verified for w in insts[0].witnesses)


def test_family_sweep_f5_order4():
    F = PrimeField(5)
    insts = family_sweep(F, 4)
    # dedup key is b/a^2; representatives must be pairwise non-isomorphic
    keys = [inst.params["b"] / inst.params["a"] ** 2 for inst in insts]
    assert len(keys) == len(set(keys))
    for i, inst in enumerate(insts):
        for j, other in enumerate(insts):
            u = iso_e4(
                F,
                inst.params["a"], inst.params["b"],
                other.params["a"], other.params["b"],
            )
            assert (u is not None) == (i == j)
    # and the u-scan agrees that distinct representatives are distinct
    for i, inst in enumerate(insts):
        for j, other in enumerate(insts):
            if i == j:
                continue
            scan = oracles.iso_scan_e4(
                5,
                inst.params["a"].value, inst.params["b"].value,
                other.params["a"].value, other.params["b"].value,
            )
            assert scan == []


def _e4_sweep_reference(F):
    """Every (a, b) through e4_new, deduplicated by b/a^2 after construction."""
    out, seen = [], set()
    for a in F.elements():
        for b in F.elements():
            if not a or not b:
                continue
            try:
                inst = e4_new(F, a, b)
            except InvalidParams:
                continue
            key = b / (a * a)
            if key not in seen:
                seen.add(key)
                out.append(inst)
    return out


@pytest.mark.parametrize("p", oracles.small_primes(3, 31))
def test_family_sweep_e4_matches_the_full_scan(p):
    F = PrimeField(p)
    assert [inst.params for inst in family_sweep(F, 4)] == \
        [inst.params for inst in _e4_sweep_reference(F)]


def _break_witness_checks(monkeypatch):
    """Make every witness found among G's multiples read as order N, so that
    a witness claiming an order below N fails its check."""
    monkeypatch.setattr(families, "gcd", lambda a, b: 1)


@pytest.mark.parametrize("p", [3, 5, 13, 31, 97])
@pytest.mark.parametrize("broken_check", [True, False])
def test_family_sweep_e4_builds_one_curve_per_class(monkeypatch, p, broken_check):
    """At most one e4_new call per nonzero class b/a^2, not one per (a, b).

    A failed witness check is not skipped like an invalid parameter: it
    stops the sweep at its first instance.
    """
    calls = []

    def counting_e4_new(*args, **kwargs):
        calls.append(args)
        return e4_new(*args, **kwargs)

    monkeypatch.setitem(families.FAMILIES, "e4", counting_e4_new)
    first = family_sweep(PrimeField(p), 4)[0].params["b"]
    calls.clear()
    if broken_check:
        _break_witness_checks(monkeypatch)
        with pytest.raises(VerificationError, match="claims order 2 but has order 4"):
            family_sweep(PrimeField(p), 4)
        assert [args[2].value for args in calls] == list(range(1, first.value + 1))
    else:
        family_sweep(PrimeField(p), 4)
        assert len(calls) <= p - 1


@pytest.mark.parametrize("p", oracles.small_primes(3, 31))
def test_family_sweep_e4_counts_and_verifies_every_class(p):
    # k = b/a^2 is valid iff 1 + 4k is a non-square: (p - 1)/2 of the p - 1
    # nonzero k, since k -> 1 + 4k maps them onto F_p minus the square 1.
    insts = family_sweep(PrimeField(p), 4)
    assert len(insts) == (p - 1) // 2
    assert all(w.verified for inst in insts for w in inst.witnesses)


@pytest.mark.parametrize("p", oracles.small_primes(5, 31))
def test_family_sweep_e4_represents_every_class_once(p):
    """Pairwise non-isomorphic representatives, and every valid (a, b) isomorphic to exactly one."""
    reps = [(inst.params["a"].value, inst.params["b"].value)
            for inst in family_sweep(PrimeField(p), 4)]
    for i, (a, b) in enumerate(reps):
        for j, (c, d) in enumerate(reps):
            assert bool(oracles.iso_scan_e4(p, a, b, c, d)) == (i == j), ((a, b), (c, d))
    sq = oracles.fp_squares(p)
    for a in range(1, p):
        for b in range(1, p):
            if (a * a + 4 * b) % p in sq:  # e4 needs a^2 + 4b to be a non-square
                continue
            assert sum(bool(oracles.iso_scan_e4(p, a, b, c, d)) for c, d in reps) == 1, (a, b)


def _e8_valid(F):
    """The parameters e8_new accepts, in field order."""
    valid = []
    for t in F.elements():
        try:
            valid.append(e8_new(F, t).params["t"])
        except InvalidParams:
            continue
    return valid


@pytest.mark.parametrize("p", oracles.small_primes(5, 97))
def test_e8_key_agrees_with_the_isomorphism_criterion(p):
    """P(s) = P(t) exactly when s = +-t, on valid parameters.

    The curves of P and -P are also isomorphic when -1 is a square, but then
    -P(t) is the key of no valid parameter: P + 2 is a square and P - 2 is
    not, so -P + 2 = -(P - 2) is not either.
    """
    F = PrimeField(p)
    valid = _e8_valid(F)
    keys = {t: e8_new(F, t).curve.g.p for t in valid}
    for t in valid:
        assert (keys[t] + 2).is_square() and not (keys[t] - 2).is_square()
    for s in valid:
        for t in valid:
            # P + 2 = 4(t^2/(t^2 - 1))^2, so P(s) = P(t) iff t^2 = s^2 or t^2 =
            # s^2/(2s^2 - 1), a non-square: each class is {t, -t}
            assert (keys[s] == keys[t]) == (s == t or s == -t), (s, t)


def _e8_oracle_classes(p):
    """Valid e8 parameters mod p, grouped by ``oracles.iso_scan_alpha0``, each class in field order.

    t is valid when t is not in {0, 1, -1} and 2t^2 - 1 is a non-square; E8(t)
    is y^2 = x(x^2 + Px + 1) with P = 2(t^4 + 2t^2 - 1)/(t^2 - 1)^2, in ints mod p.
    """
    sq = oracles.fp_squares(p)
    classes = []
    for t in range(p):
        if t * t % p in (0, 1) or (2 * t * t - 1) % p in sq:
            continue
        P = 2 * (t**4 + 2 * t * t - 1) * pow((t * t - 1) ** 2, -1, p) % p
        for cls in classes:
            if oracles.iso_scan_alpha0(p, cls[0][1], 1, P, 1):
                cls.append((t, P))
                break
        else:
            classes.append([(t, P)])
    return classes


@pytest.mark.parametrize("p", oracles.small_primes(3, 97))
def test_family_sweep_e8_matches_the_pairwise_scan(p):
    """One instance per oracle class, in order, each the first valid t of its class."""
    reps = [cls[0][0] for cls in _e8_oracle_classes(p)]
    assert [inst.params["t"].value for inst in family_sweep(PrimeField(p), 8)] == reps


@pytest.mark.parametrize("p", [5, 13, 31, 97])
@pytest.mark.parametrize("broken_check", [True, False])
def test_family_sweep_e8_builds_one_curve_per_class(monkeypatch, p, broken_check):
    """One successful e8_new call per returned class, not one per valid t,
    and none at all once the witness check fails."""
    built = []

    def counting_e8_new(*args, **kwargs):
        inst = e8_new(*args, **kwargs)
        built.append(inst)
        return inst

    monkeypatch.setitem(families.FAMILIES, "e8", counting_e8_new)
    if broken_check:
        _break_witness_checks(monkeypatch)
        with pytest.raises(VerificationError, match="claims order 2 but has order 8"):
            family_sweep(PrimeField(p), 8)
        assert built == []
    else:
        insts = family_sweep(PrimeField(p), 8)
        assert built == insts
        assert all(w.verified for inst in insts for w in inst.witnesses)


@pytest.mark.parametrize("p,N", [(7, 8), (11, 10), (13, 12), (11, 6)])
def test_family_sweep_instances_are_valid(p, N):
    F = PrimeField(p)
    insts = family_sweep(F, N)
    for inst in insts:
        assert inst.witness_of_order(N).verified
        assert inst.curve.field == F
    if N == 8:
        # representatives pairwise non-isomorphic at curve level
        for i, a in enumerate(insts):
            for j, b in enumerate(insts):
                scan = oracles.iso_scan_alpha0(
                    p, a.curve.g.p.value, 1, b.curve.g.p.value, 1)
                assert bool(scan) == (i == j)


def test_family_sweep_binary_fields():
    F = BinaryField(3)
    i4 = family_sweep(F, 4)
    assert len(i4) == 7  # one class per nonzero a6
    assert len({inst.curve.a6 for inst in i4}) == 7
    i8 = family_sweep(F, 8)
    assert len(i8) == 3  # {t, 1/t} orbits among the six valid t
    with pytest.raises(InvalidParams):
        family_sweep(F, 6)
    for k in range(1, 7):  # gamma -> a6 = gamma^4 is one-to-one: a class per gamma
        q = 1 << k
        i4 = family_sweep(BinaryField(k), 4)
        assert [inst.params["gamma"].value for inst in i4] == list(range(1, q))
        assert len({inst.curve.a6.value for inst in i4}) == q - 1


def test_family_sweep_guards():
    with pytest.raises(FieldTooLarge):
        family_sweep(Rationals(), 4)
    with pytest.raises(FieldTooLarge):
        family_sweep(PrimeField(101), 4)
    for N in (4, 8):  # GF(2^6) is the largest binary field swept
        with pytest.raises(FieldTooLarge):
            family_sweep(BinaryField(7), N)
    with pytest.raises(InvalidParams):
        family_sweep(PrimeField(7), 7)
