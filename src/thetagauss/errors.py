"""Exception types raised across the library.

Every error derives from ThetaGaussError through one of two bases, which
the CLI maps to its exit codes:

* InvalidParameters (exit 2): the input is invalid (a matrix that is not
  positive definite, not symmetric, not unimodular).  One class,
  NonPositiveDefinite, covers every matrix that must be positive definite,
  Re(B) and a covariance target alike.
* NumericalFailure (exit 3): valid input on which the computation fails
  (a tolerance that cannot be certified, a divisor hit, no convergence).
"""


class ThetaGaussError(Exception):
    """Base class for all library errors."""


class InvalidParameters(ThetaGaussError):
    """The input is invalid; the CLI exits with code 2."""


class NumericalFailure(ThetaGaussError):
    """The computation failed on valid input; the CLI exits with code 3."""


# -- validation errors -------------------------------------------------------

class NonPositiveDefinite(InvalidParameters):
    """A matrix that must be real symmetric positive definite is not: Re(B)
    (or B of a real law), or a covariance target sigma, that is not
    positive definite, is numerically degenerate, or is not symmetric,
    square or finite."""


class NotUnimodular(InvalidParameters):
    """An integer matrix does not have determinant +-1."""


# -- numerical failures ------------------------------------------------------

class ToleranceUnreachable(NumericalFailure):
    """The requested value cannot be certified: its lattice ball could
    hold more than the engine's POINT_BUDGET points, the tolerance is below
    the double-precision floor, or the summands, a quantity formed from the
    arguments or the result leave double range."""


class DivisorHit(NumericalFailure):
    """theta(u, B) vanishes (within tolerance), so the distribution with
    these parameters is undefined."""


class NoConvergence(NumericalFailure):
    """Newton iteration did not meet the convergence criterion."""


class DegenerateSample(NumericalFailure):
    """Sample covariance is singular; the MLE does not exist."""


class TooFewSamples(NumericalFailure):
    """No chi-square cell reaches the minimum expected count."""


class NoZeroFound(NumericalFailure):
    """No zero of theta was located inside the search window."""


class SingularDivisorPoint(NumericalFailure):
    """All first partials of theta vanish at a divisor point, so the Gauss
    map (and the statistical maps) are undefined there."""


class IndeterminatePoint(NumericalFailure):
    """All coordinates of a projective image vanish."""


class RankDeficientInput(NumericalFailure):
    """Too few (or too degenerate) points to determine a vanishing form."""
