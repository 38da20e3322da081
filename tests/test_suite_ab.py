"""tools/suite_ab.py's report naming, on synthetic suite outputs."""

import importlib.util
import json
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture(scope="module")
def suite_ab():
    # suite_ab imports bench_ab as a sibling module, as when run from tools/
    sys.path.insert(0, TOOLS)
    try:
        spec = importlib.util.spec_from_file_location(
            "suite_ab", os.path.join(TOOLS, "suite_ab.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(TOOLS)
    return module


def suite_output(reports, passed) -> bytes:
    """A `thetaq suite --format json` stdout: the array, then the summary line."""
    return (json.dumps(reports, indent=2, sort_keys=True)
            + "\n%d/%d checks passed\n" % (passed, len(reports))).encode()


def report(ident, mode, residual, status="pass"):
    return {"id": ident, "mode": mode, "status": status, "max_abs_residual": residual,
            "params": {"seed": 7}, "failures": []}


PARENT = [report("thm2", "numeric", 2.455e-16), report("thm2", "formal", 0.0),
          report("cosq_shift", "numeric", 0.0),
          report("f_constancy", "numeric", float("nan"), "fail")]


def test_moved_reports_names_each_report_that_differs(suite_ab):
    change = [report("thm2", "numeric", 2.359e-16), report("thm2", "formal", 0.0),
              report("cosq_shift", "numeric", 0.0),
              report("f_constancy", "numeric", 1.333e-15)]
    old, new = suite_output(PARENT, 3), suite_output(change, 4)
    assert suite_ab.moved_reports(old, new) == [("thm2", "numeric"),
                                                ("f_constancy", "numeric")]
    assert "line" in suite_ab.first_difference(old, new)


def test_moved_reports_sees_added_dropped_and_signed_zero(suite_ab):
    # a NaN residual equal on both sides is no difference; -0.0 is one
    change = [report("thm2", "numeric", 2.455e-16), report("cosq_shift", "numeric", -0.0),
              PARENT[3], report("thm3", "numeric", 0.0)]
    assert suite_ab.moved_reports(suite_output(PARENT, 3), suite_output(change, 3)) == [
        ("thm2", "formal"), ("cosq_shift", "numeric"), ("thm3", "numeric")]
    # outputs that differ only in the summary line name no report
    assert suite_ab.moved_reports(suite_output(PARENT, 3), suite_output(PARENT, 2)) == []
