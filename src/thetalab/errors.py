"""Exception types shared across the package."""


class ThetaLabError(Exception):
    """Base class for all errors raised by this package."""


class NotSiegel(ThetaLabError):
    """Period matrix is not in the Siegel upper half-space (Im part not
    symmetric positive definite)."""


class RadiusExceeded(ThetaLabError):
    """The truncation radius needed to hit the requested tolerance exceeds
    the configured maximum."""


class NotDiagonal(ThetaLabError):
    """Operation requires a diagonal period matrix."""


class NotIntegral(ThetaLabError):
    """The pairing is not integer valued on the given lattice."""


class Degenerate(ThetaLabError):
    """A matrix or form that must be nondegenerate is singular."""


class NotHalfTorsion(ThetaLabError):
    """Vector is not a half-torsion point (order dividing 2 modulo the lattice)."""


class OutOfRange(ThetaLabError):
    """Index or size parameter outside the supported range."""


class GenusMismatch(ThetaLabError):
    """Operands live on curves of different genus, or the genus is not
    supported by this operation."""


class ZeroClass(ThetaLabError):
    """The zero two-torsion class was supplied where a nonzero one is required."""


class NotWeightTwo(ThetaLabError):
    """Two-torsion class is not represented by a difference of two marked points."""


class TooLarge(ThetaLabError):
    """Exhaustive enumeration was requested beyond the supported size cap."""


class Inconsistent(ThetaLabError):
    """Input data violates an exact consistency condition."""


class NonIntegerGenus(ThetaLabError):
    """A genus computation produced a non-integer, so the input data is not
    realisable."""
