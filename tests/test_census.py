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
    family_sweep,
    iso_e4,
    sigma_char2,
    verify_f3_example,
    verify_f4_example,
)

import ectorsion.census as census
from ectorsion import kernel
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
            curve = Char2Curve(F, a2, a6)
            pts = kernel.c2_points(k, mod, a2, a6)
            orders = {oracles.char2_order(k, mod, a2, a6, P) for P in pts}
            for n in (2, 4, 8, 16):
                assert census._has_point_of_order(curve, pts, n) == (n in orders), (a2, a6, n)


@pytest.mark.parametrize("n", [0, 1, 3, 6, 12])
def test_has_point_of_order_takes_powers_of_two(n):
    curve = Char2Curve(BinaryField(2), 0, 1)
    with pytest.raises(InvalidParams):
        census._has_point_of_order(curve, kernel.c2_points(*curve._kp), n)


def test_sigma_char2_class_disagreement_is_a_verification_error(monkeypatch):
    # y^2 + xy = x^3 + a6 and y^2 + xy = x^3 + x^2 + a6 share a class over GF(4).
    monkeypatch.setattr(census, "_has_point_of_order", lambda curve, points, n: not curve.a2)
    with pytest.raises(VerificationError):
        sigma_char2(BinaryField(2), 4)
    assert cli.main(["census", "--field", "F2k:2:7", "--order", "4"]) == 3


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
            tr = 0
            v, acc = a2, a2
            for _ in range(k - 1):
                v = oracles.gf2_mul(v, v, mod, k)
                acc ^= v
            key = (a6, acc)
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


def test_family_sweep_guards():
    with pytest.raises(FieldTooLarge):
        family_sweep(Rationals(), 4)
    with pytest.raises(FieldTooLarge):
        family_sweep(PrimeField(101), 4)
    with pytest.raises(InvalidParams):
        family_sweep(PrimeField(7), 7)
