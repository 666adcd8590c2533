"""Right eigenvalues and stability regions of quaternion matrix polynomials.

The package decides where the right eigenvalues of a polynomial with
quaternion matrix coefficients live: exact spectra through the complex
adjoint lift and companion linearization, modulus bounds through norm
polynomials, stability and hyperstability verdicts against regions of the
quaternions, numerical-range sampling, and derivation rules that obtain
hyperstability from multivariate stability over finite probe sets.
"""

from .errors import (
    DegenerateCoefficientsError,
    DimensionMismatchError,
    NoConvergenceError,
    NonSquareError,
    NoSignChangeError,
    NotMonicError,
    PairingFailureError,
    QuatPolyError,
    ResidualFailureError,
    SingularCoefficientError,
    SingularLeadingCoefficientError,
    SingularMatrixError,
    ZeroInOmegaError,
    ZeroLeadingError,
)
from .quaternion import Quaternion, StandardEigenvalue
from .linalg import (
    QuaternionMatrix,
    complex_adjoint,
    eig_complex,
    inverse,
    qvec,
    rank_decision,
    rank_decisions,
    real_rep_left,
    real_rep_right_scalar,
    spectral_norm,
    vec4_to_qvec,
    vec_entries,
)
from .matpoly import (
    MatrixPolynomial,
    PolynomialZero,
    ScalarQPolynomial,
    companion,
    eigenvector_at,
    evaluate_action,
    is_eigenvalue_oracle,
    polyeig,
    polyeig_with_residuals,
    reversal,
    scalar_char_poly,
    scalar_zeros,
)
from .stability import (
    HyperStatus,
    HyperVerdict,
    NumericalRangeResult,
    Region,
    RegionKind,
    StabilityStatus,
    StabilityVerdict,
    check_hyperstability,
    check_stability,
    eigenvalue_annulus,
    not_hyperstable_search,
    region_sample_grid,
    sample_numerical_range,
    unique_positive_root,
)
from .multivar import (
    MultiPolynomial,
    MultiStabilityVerdict,
    check_stability_multi,
    derive_hyperstability_cubic,
    derive_hyperstability_quadratic,
)

__version__ = "0.1.0"

__all__ = [
    "Quaternion", "StandardEigenvalue",
    "QuaternionMatrix", "qvec", "vec_entries", "vec4_to_qvec",
    "complex_adjoint", "real_rep_left", "real_rep_right_scalar",
    "rank_decision", "rank_decisions", "eig_complex",
    "spectral_norm", "inverse",
    "MatrixPolynomial", "ScalarQPolynomial", "PolynomialZero",
    "evaluate_action", "companion",
    "polyeig", "polyeig_with_residuals", "reversal", "is_eigenvalue_oracle",
    "eigenvector_at", "scalar_char_poly", "scalar_zeros",
    "Region", "RegionKind", "StabilityStatus", "HyperStatus",
    "StabilityVerdict", "HyperVerdict", "NumericalRangeResult",
    "check_stability", "eigenvalue_annulus", "unique_positive_root",
    "sample_numerical_range", "check_hyperstability", "not_hyperstable_search",
    "region_sample_grid",
    "MultiPolynomial", "MultiStabilityVerdict", "check_stability_multi",
    "derive_hyperstability_quadratic", "derive_hyperstability_cubic",
    "QuatPolyError", "NonSquareError", "DimensionMismatchError",
    "NoConvergenceError", "PairingFailureError", "SingularMatrixError",
    "SingularLeadingCoefficientError", "SingularCoefficientError",
    "ZeroLeadingError", "ResidualFailureError", "NotMonicError",
    "NoSignChangeError", "ZeroInOmegaError",
    "DegenerateCoefficientsError",
]
