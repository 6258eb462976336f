"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid mathematical input (anything
derived from :class:`InvalidParams`, plus misuse like off-curve points) exits
with 2, an internal re-verification failure (which indicates a bug, not bad
input) exits with 3.
"""


class Error(Exception):
    """Base class for every error raised by this package."""


class InvalidParams(Error):
    """Input violates a stated validity condition (the message names it)."""


class SingularCurve(InvalidParams):
    """The requested cubic has a repeated root and is not an elliptic curve."""


class FieldTooLarge(InvalidParams):
    """An exhaustive operation was asked of a field beyond its size cap."""


class OffCurve(Error):
    """A point argument does not satisfy the curve equation."""


class WrongCase(Error):
    """A case-specific routine was called outside its case.

    For example: the split-root halving on a curve whose quadratic factor is
    irreducible, or the quadratic-extension halving when it splits.
    """


class PointIsW3(Error):
    """The r/T halving criterion was handed the 2-torsion point (alpha, 0)."""


class TwoTorsionHalf(Error):
    """Root recovery needs y(Q) != 0; a 2-torsion half has no root triple."""


class NotHalvable(Error):
    """Raised nowhere: every halving criterion answers a point without halves
    with an empty ``HalvingResult``.

    Kept only because the benchmark's task checker (``perfbench/workloads.py``)
    reads this name whenever a ``halve_rT`` task raised; without it, a failed
    task would crash the benchmark run instead of being counted.
    """


class VerificationError(Error):
    """An internally recomputed fact failed to check out (a bug, not input)."""
