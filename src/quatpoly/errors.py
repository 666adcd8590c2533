"""Exception hierarchy shared by all quatpoly modules."""


class QuatPolyError(Exception):
    """Base class for all quatpoly errors."""


class NonSquareError(QuatPolyError):
    """Operation requires a square matrix."""


class DimensionMismatchError(QuatPolyError):
    """Operand shapes are incompatible."""


class NoConvergenceError(QuatPolyError):
    """A LAPACK routine or an inverse iteration failed to converge, or a result overflowed."""


class PairingFailureError(QuatPolyError):
    """Lift eigenvalues could not be matched into conjugate pairs; ``rows``: the failing spectra."""

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = rows


class SingularMatrixError(QuatPolyError):
    """Matrix is singular by the invertibility test on the singular values of its lift."""


class SingularLeadingCoefficientError(QuatPolyError):
    """Companion linearization needs an invertible leading coefficient."""


class SingularCoefficientError(QuatPolyError):
    """Annulus bounds need invertible constant and leading coefficients."""


class ZeroLeadingError(QuatPolyError):
    """Reversal would produce a polynomial with zero leading coefficient."""


class ResidualFailureError(QuatPolyError):
    """A computed eigenpair failed its residual check."""


class NotMonicError(QuatPolyError):
    """Scalar polynomial operation requires a monic polynomial."""


class NoSignChangeError(QuatPolyError):
    """Root bracketing requires exactly one sign change in the coefficients."""


class ZeroInOmegaError(QuatPolyError):
    """The derivation rule requires 0 to lie outside the probe set."""


class DegenerateCoefficientsError(QuatPolyError):
    """Every numerical-range sample produced an identically zero polynomial."""
