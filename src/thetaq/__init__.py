"""Jacobi theta functions, Gosper q-trigonometry, and identity verification.

The package evaluates theta and q-trigonometric functions by two
independent numeric paths, certifies the underlying identities exactly as
truncated series in the nome, and ships a CLI (``thetaq``) exposing all of
it.  See README.md for a tour.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    GradeMismatch,
    OrderUnderflow,
    PoleError,
    RangeError,
    ThetaQError,
    UnsupportedFormal,
)
from .formal import (
    Gaussian,
    GradedSeries,
    LaurentPoly,
    SeriesMatch,
    SeriesMismatch,
    geometric_factors,
    pochhammer_product,
    series_equal,
    shift_argument,
    shift_margin,
    theta_series,
)
from .identities import (
    IDENTITY_IDS,
    IdentityReport,
    SamplePlan,
    certificate_text,
    classical_residuals,
    constancy_probe,
    formal_certify,
    formal_relations,
    identity_info,
    numeric_residual,
    report_as_dict,
    run_suite,
    thm2_sides,
    verify_numeric,
)
from .params import ModularParam, make_param, param_from_nome, tau_prime
from .qtrig import (
    QTRIG_KINDS,
    qsquared_param,
    qtrig_crosscheck,
    qtrig_product_any,
    qtrig_theta,
)
from .theta import (
    ShiftResult,
    half_period_shift,
    qpochhammer,
    reduce_argument,
    theta_eval,
    theta_pair,
    theta_sum,
)

__version__ = "0.1.0"
