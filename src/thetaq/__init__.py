"""Jacobi theta functions, Gosper q-trigonometry, and identity verification.

The package evaluates theta and q-trigonometric functions by two
independent numeric paths, certifies the underlying identities exactly as
truncated series in the nome, and ships a CLI (``thetaq``) exposing all of
it.  See README.md for a tour.

``import thetaq`` loads no submodule.  Each exported name, and each
submodule read as an attribute, loads its submodule on first use (PEP 562)
and binds all of that submodule's exports at once, so theta and q-trig
callers load ``errors``, ``params``, ``theta`` and ``qtrig`` and never
compile ``identities`` or ``formal``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the exports of each submodule
_EXPORTS = {
    "errors": (
        "ConvergenceError",
        "DomainError",
        "GradeMismatch",
        "OrderUnderflow",
        "PoleError",
        "RangeError",
        "ThetaQError",
        "UnsupportedFormal",
    ),
    "formal": (
        "Gaussian",
        "GradedSeries",
        "LaurentPoly",
        "SeriesMatch",
        "SeriesMismatch",
        "geometric_factors",
        "pochhammer_product",
        "series_equal",
        "shift_argument",
        "shift_margin",
        "theta_series",
    ),
    "identities": (
        "IDENTITY_IDS",
        "IdentityReport",
        "SamplePlan",
        "certificate_text",
        "classical_residuals",
        "constancy_probe",
        "formal_certify",
        "formal_relations",
        "identity_info",
        "numeric_residual",
        "run_suite",
        "thm2_sides",
        "verify_numeric",
    ),
    "params": ("ModularParam", "make_param", "param_from_nome", "tau_prime"),
    "qtrig": (
        "QTRIG_KINDS",
        "qsquared_param",
        "qtrig_crosscheck",
        "qtrig_product_any",
        "qtrig_theta",
    ),
    "theta": (
        "ShiftResult",
        "half_period_shift",
        "qpochhammer",
        "reduce_argument",
        "theta_eval",
        "theta_pair",
        "theta_sum",
    ),
}
# name -> submodule, each submodule its own entry
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULE.update((module, module) for module in _EXPORTS)

__all__ = list(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    loaded = _import_module("." + module, __name__)
    namespace = globals()
    for export in _EXPORTS[module]:
        namespace[export] = getattr(loaded, export)
    return loaded if name == module else namespace[name]


def __dir__():
    return sorted({*globals(), *__all__})
