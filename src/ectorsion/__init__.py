"""Exact-arithmetic elliptic curves with prescribed torsion, and their halvings.

The package builds curves carrying rational points of order 4, 6, 8, 10 or 12
from closed-form parametrized families (characteristic != 2, plus the
ordinary characteristic-2 orders 4 and 8), divides points by 2 through every
criterion the models admit, and verifies all of it — point orders, halving
sets, isomorphism tests, finite-field censuses — against nothing but the
group law.  All arithmetic is exact: prime fields, GF(2^k), and rationals.
"""

from .errors import (
    Error,
    FieldTooLarge,
    InvalidParams,
    NotHalvable,
    OffCurve,
    PointIsW3,
    SingularCurve,
    TwoTorsionHalf,
    VerificationError,
    WrongCase,
)
from .field import (
    BinaryField,
    Field,
    FieldElement,
    PrimeField,
    Rationals,
    field_from_descriptor,
)
from .quadratic import QuadExtElement, QuadraticPoly, ext_sqrt
from .curve import (
    Char2Curve,
    CubicCurve,
    Point,
    TorsionWitness,
    curve_from_json,
    point_from_json,
    point_to_json,
)
from .halving import (
    HalvingResult,
    RootTriple,
    half_to_roots,
    halvability_criterion_origin,
    halve,
    halve_char2,
    halve_quadext,
    halve_rT,
    halve_split,
)
from .families import (
    FamilyInstance,
    e4_new,
    e4_normalize,
    e4char2_new,
    e6_exactly_one_2torsion,
    e6_new,
    e8char2_new,
    e8_new,
    e10_new,
    e12_new,
    iso_e4,
    iso_e8,
    iso_e8char2,
    j_fourth_power_criterion,
    kubert_to_e4,
    kubert_to_e6,
    kubert_to_e8,
)
from .census import CensusReport, family_sweep, sigma_char2, verify_f3_example, verify_f4_example

__version__ = "0.1.0"

__all__ = [
    "BinaryField",
    "CensusReport",
    "Char2Curve",
    "CubicCurve",
    "Error",
    "FamilyInstance",
    "Field",
    "FieldElement",
    "FieldTooLarge",
    "HalvingResult",
    "InvalidParams",
    "NotHalvable",
    "OffCurve",
    "Point",
    "PointIsW3",
    "PrimeField",
    "QuadExtElement",
    "QuadraticPoly",
    "Rationals",
    "RootTriple",
    "SingularCurve",
    "TorsionWitness",
    "TwoTorsionHalf",
    "VerificationError",
    "WrongCase",
    "curve_from_json",
    "e10_new",
    "e12_new",
    "e4_new",
    "e4_normalize",
    "e4char2_new",
    "e6_exactly_one_2torsion",
    "e6_new",
    "e8_new",
    "e8char2_new",
    "ext_sqrt",
    "family_sweep",
    "field_from_descriptor",
    "half_to_roots",
    "halvability_criterion_origin",
    "halve",
    "halve_char2",
    "halve_quadext",
    "halve_rT",
    "halve_split",
    "iso_e4",
    "iso_e8",
    "iso_e8char2",
    "j_fourth_power_criterion",
    "kubert_to_e4",
    "kubert_to_e6",
    "kubert_to_e8",
    "point_from_json",
    "point_to_json",
    "sigma_char2",
    "verify_f3_example",
    "verify_f4_example",
]
