"""The package namespace: each exported name loads its submodule on first use."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import thetaq

SRC = str(Path(__file__).resolve().parent.parent / "src")

# every name `from thetaq import *` bound when __init__ imported each
# submodule eagerly: the 48 exports and the 6 submodules
STAR_NAMES = {
    "ConvergenceError", "DomainError", "Gaussian", "GradeMismatch", "GradedSeries",
    "IDENTITY_IDS", "IdentityReport", "LaurentPoly", "ModularParam", "OrderUnderflow",
    "PoleError", "QTRIG_KINDS", "RangeError", "SamplePlan", "SeriesMatch",
    "SeriesMismatch", "ShiftResult", "ThetaQError", "UnsupportedFormal",
    "certificate_text", "classical_residuals", "constancy_probe", "errors", "formal",
    "formal_certify", "formal_relations", "geometric_factors", "half_period_shift",
    "identities", "identity_info", "make_param", "numeric_residual", "param_from_nome",
    "params", "pochhammer_product", "qpochhammer", "qsquared_param", "qtrig",
    "qtrig_crosscheck", "qtrig_product_any", "qtrig_theta", "reduce_argument",
    "run_suite", "series_equal", "shift_argument", "shift_margin", "tau_prime", "theta",
    "theta_eval", "theta_pair", "theta_series", "theta_sum", "thm2_sides",
    "verify_numeric",
}
SUBMODULES = {"errors", "formal", "identities", "params", "qtrig", "theta"}

LIGHT_PROBE = """
import sys
import thetaq
def loaded():
    return sorted(m for m in sys.modules if m.startswith("thetaq."))
print(*loaded())
p = thetaq.make_param(0.3 + 1.1j)
for kind in (1, 2, 3, 4):
    thetaq.theta_eval(kind, 0.7, p)
    thetaq.theta_eval(kind, 0.7, p, method="product")
for kind in thetaq.QTRIG_KINDS:
    thetaq.qtrig_theta(kind, 0.7, p)
    thetaq.qtrig_crosscheck(kind, 0.7, p)
print(*loaded())
theta_eval = thetaq.theta_eval
# the first read of a name binds every export of its submodule at once
from thetaq import certificate_text
print("formal" in vars(thetaq), "run_suite" in vars(thetaq),
      certificate_text is thetaq.identities.certificate_text,
      theta_eval is thetaq.theta.theta_eval)
"""

STAR_PROBE = """
namespace = {}
exec("from thetaq import *", namespace)
print(*sorted(set(namespace) - {"__builtins__"}))
"""


def fresh(probe):
    """The output lines of probe, run in a new interpreter on this checkout."""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": SRC})
    return done.stdout.splitlines()


def test_theta_and_qtrig_callers_load_no_identities_formal_or_cli():
    at_import, after_calls, bound = fresh(LIGHT_PROBE)
    assert at_import.split() == []
    assert after_calls.split() == ["thetaq.errors", "thetaq.params", "thetaq.qtrig",
                                   "thetaq.theta"]
    assert bound.split() == ["True", "True", "True", "True"]


def test_star_import_binds_the_eager_package_names():
    assert set(fresh(STAR_PROBE)[0].split()) == STAR_NAMES
    assert len(STAR_NAMES) == 54
    assert set(thetaq.__all__) == STAR_NAMES


@pytest.mark.parametrize("name", sorted(STAR_NAMES))
def test_each_name_is_its_submodules_binding(name):
    value = getattr(thetaq, name)
    namespace = {}
    exec("from thetaq import %s" % name, namespace)
    assert namespace[name] is value
    if name in SUBMODULES:
        assert value is importlib.import_module("thetaq." + name)
    else:
        owners = [m for m in SUBMODULES
                  if getattr(importlib.import_module("thetaq." + m), name, None) is value]
        assert owners, name


def test_dir_lists_every_export():
    assert STAR_NAMES <= set(dir(thetaq))
    assert "__version__" in dir(thetaq)


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as plain:
        types.ModuleType("thetaq").no_such_name
    with pytest.raises(AttributeError) as got:
        thetaq.no_such_name
    assert str(got.value) == str(plain.value)
    with pytest.raises(ImportError):
        exec("from thetaq import no_such_name", {})
