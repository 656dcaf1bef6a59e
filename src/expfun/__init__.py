"""Fundamental solutions of constant-coefficient ODE operators and their inequalities.

Build an evaluator from a frequency vector, certify sign hypotheses of high
derivatives, test polynomial dominance and Hankel positive-definiteness,
bound the squared-derivative ratio, and push nonnegative measures through the
basis transform into verified truncated moment sequences with recoverable
atomic representatives.
"""

from .frequencies import (
    FrequencyVector,
    as_frequency_vector,
    check_necessary,
    is_conjugate_closed,
    is_symmetric,
    taylor_coefficient,
)
from .fundamental import (
    FundamentalEvaluator,
    basis,
    build_evaluator,
    derivative_grid,
    derivative_table,
    eval_derivative,
    eval_derivative_complex,
    eval_via_partial_fractions,
    eval_via_taylor,
)
from .inequalities import (
    CertificateKind,
    HankelMatrix,
    MonotonicityCertificate,
    PolynomialCoeffs,
    SignReport,
    dominance_gap,
    hankel_matrix,
    identity_residual,
    is_positive_definite,
    monotonicity_certificate,
    polynomial_nonnegative_on,
    turan_ratio,
    verify_sign,
)
from .moments import (
    ConditionCheck,
    HausdorffReport,
    Measure,
    MomentSequence,
    hausdorff_check,
    recover_measure,
    riesz_functional,
    transform,
)

__version__ = "0.1.0"

__all__ = [
    "FrequencyVector",
    "as_frequency_vector",
    "is_conjugate_closed",
    "is_symmetric",
    "taylor_coefficient",
    "check_necessary",
    "FundamentalEvaluator",
    "build_evaluator",
    "derivative_grid",
    "derivative_table",
    "eval_derivative",
    "eval_derivative_complex",
    "basis",
    "eval_via_partial_fractions",
    "eval_via_taylor",
    "PolynomialCoeffs",
    "SignReport",
    "HankelMatrix",
    "CertificateKind",
    "MonotonicityCertificate",
    "verify_sign",
    "identity_residual",
    "dominance_gap",
    "hankel_matrix",
    "is_positive_definite",
    "polynomial_nonnegative_on",
    "turan_ratio",
    "monotonicity_certificate",
    "Measure",
    "MomentSequence",
    "HausdorffReport",
    "ConditionCheck",
    "transform",
    "riesz_functional",
    "hausdorff_check",
    "recover_measure",
    "__version__",
]
