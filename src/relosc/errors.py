"""Exception and warning types shared across the package."""


class ReloscError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ReloscError):
    """Array lengths do not match the declared grid parameter."""


class NonNegativeOffDiagonal(ReloscError):
    """An interior off-diagonal entry violates a(j) < 0."""


class IndexOutOfRange(ReloscError, IndexError):
    """Index outside the domain of the sequence or matrix."""


class CoefficientMismatch(ReloscError):
    """Two matrices do not share N and the off-diagonal array."""


class EpsOutOfRange(ReloscError):
    """Interpolation parameter outside [0, 1]."""


class LengthMismatch(ReloscError):
    """Sequences of incompatible length were combined."""


class DegenerateSolution(ReloscError):
    """A sequence vanishes at two consecutive points (trivial solution)."""


class BranchAmbiguity(ReloscError):
    """A float angle sits on a pi-branch boundary and the underlying sign
    data cannot resolve the side."""


class InconsistentSigns(ReloscError):
    """Wronskian sign pattern impossible for b_diff = 0; in float mode this
    signals a tolerance failure."""


class PairingDisagreement(ReloscError):
    """The two solution pairings of the relative count disagree."""


class MarginViolation(ReloscError):
    """An eigenvalue lies within the guard margin of the threshold, so a
    float comparison would be unreliable."""


class NoConvergence(ReloscError):
    """The rotation eigensolver failed to converge within the sweep cap."""


class NonFiniteValue(ReloscError, ValueError):
    """A float matrix entry or spectral parameter is NaN or infinite, or an
    exact value is beyond binary64 where a float is needed (a spectral
    parameter in float mode, or an entry or threshold given to the oracle),
    or a float whose sign is needed is NaN or infinite (an overflowed
    solution or Wronskian)."""


class ParseError(ReloscError):
    """A matrix file could not be parsed."""


class NearEigenvalueWarning(UserWarning):
    """Float-mode classification fell inside a tolerance band near zero."""
