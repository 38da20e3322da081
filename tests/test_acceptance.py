"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured numbers.  Run with -s to see the lines."""

import math
import random
import time

from thetaq import (
    SamplePlan,
    certificate_text,
    classical_residuals,
    constancy_probe,
    formal_certify,
    make_param,
    qtrig_crosscheck,
    qtrig_product_any,
    qtrig_theta,
    theta_eval,
    verify_numeric,
)

TAU_SET = (1.1j, 0.3 + 1.1j, 0.5 + 0.9j)


def _line(number: int, ok: bool, detail: str) -> bool:
    print("criterion %2d: %s  %s" % (number, "PASS" if ok else "FAIL", detail))
    return ok


def test_criterion_1_thm2_formal_order_12():
    start = time.perf_counter()
    report = formal_certify("thm2", 12)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.certified_order >= 12 and elapsed < 5.0
    assert _line(1, ok, "thm2 exact to q^12 in %.3fs" % elapsed)


def test_criterion_2_duplications_formal_order_20():
    start = time.perf_counter()
    r12 = formal_certify("duplication_12", 20)
    r23 = formal_certify("duplication_23", 20)
    elapsed = time.perf_counter() - start
    ok = (r12.passed and r23.passed
          and r12.certified_order >= 20 and r23.certified_order >= 20
          and elapsed < 2.0)
    assert _line(2, ok, "both duplication rows exact to q^20 in %.3fs" % elapsed)


def test_criterion_3_all_shift_rows_formal_order_12():
    names = (["quasi_period_%d" % k for k in (1, 2, 3, 4)]
             + ["half_period_%d" % k for k in (1, 2, 3, 4)])
    reports = [formal_certify(name, 12) for name in names]
    ok = all(r.passed and r.certified_order >= 12 for r in reports)
    assert _line(3, ok, "8 quasi-period relations + 4 half-period relations "
                        "exact to q^12")


def test_criterion_4_triple_product_formal_and_numeric():
    reports = [formal_certify("triple_product_%d" % k, 12) for k in (1, 2, 3, 4)]
    formal_ok = all(r.passed and r.certified_order >= 12 for r in reports)

    rng = random.Random(42)
    worst = 0.0
    for _ in range(100):
        kind = rng.choice([1, 2, 3, 4])
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        z = complex(rng.uniform(-math.pi / 2, math.pi / 2),
                    rng.uniform(-0.6, 0.6))
        p = make_param(tau)
        a = theta_eval(kind, z, p, method="series")
        b = theta_eval(kind, z, p, method="product")
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    numeric_ok = worst <= 1e-12
    ok = formal_ok and numeric_ok
    assert _line(4, ok, "series==product exact to q^12, numeric worst %.2e "
                        "on 100 samples" % worst)


def test_criterion_5_thm1_numeric_500_samples():
    plan = SamplePlan(seed=42, count=500, tau_set=TAU_SET)
    start = time.perf_counter()
    tan_report = verify_numeric("thm1_tan", plan, 1e-10)
    cot_report = verify_numeric("thm1_cot", plan, 1e-10)
    elapsed = time.perf_counter() - start
    ok = (tan_report.passed and cot_report.passed
          and tan_report.samples == 500 and cot_report.samples == 500
          and elapsed < 10.0)
    assert _line(5, ok, "thm1 residuals %.2e / %.2e over 500 samples in %.2fs"
                 % (tan_report.max_abs_residual, cot_report.max_abs_residual,
                    elapsed))


def test_criterion_6_corollary_numeric_500_samples():
    plan = SamplePlan(seed=42, count=500, tau_set=TAU_SET)
    cot_report = verify_numeric("cor_cot", plan, 1e-10)
    tan_report = verify_numeric("cor_tan", plan, 1e-10)
    ok = (cot_report.passed and tan_report.passed
          and cot_report.samples == 500 and tan_report.samples == 500)
    assert _line(6, ok, "corollary residuals %.2e / %.2e over 500 samples"
                 % (cot_report.max_abs_residual, tan_report.max_abs_residual))


def test_criterion_7_constancy_probe():
    rng = random.Random(42)
    values = []
    while len(values) < 50:
        x = complex(rng.uniform(0.2, 2.2), rng.uniform(0.0, 1.0))
        values.append(constancy_probe(x, 0.7, 1.2j))
    mean = sum(values) / len(values)
    var = sum(abs(v - mean) ** 2 for v in values) / (len(values) - 1)
    std = math.sqrt(var)
    ok = abs(mean - 1) <= 1e-10 and std <= 1e-10
    assert _line(7, ok, "probe mean offset %.2e, std %.2e over 50 samples"
                 % (abs(mean - 1), std))


def test_criterion_8_classical_limits():
    tan_res = classical_residuals("tan")
    cot_res = classical_residuals("cot")
    ok = True
    for res in (tan_res, cot_res):
        ok = ok and res[0] > res[1] > res[2] and res[2] <= 1e-2
    assert _line(8, ok, "tan residuals %s, cot residuals %s at q=0.9/0.99/0.999"
                 % (["%.1e" % float(r) if r > 5e-324 else "<1e-323" for r in tan_res],
                    ["%.1e" % float(r) if r > 5e-324 else "<1e-323" for r in cot_res]))


def test_criterion_9_cross_path_agreement():
    kinds = ("sin_q", "cos_q", "tan_q", "cot_q", "ssn_q", "ccs_q")
    rng = random.Random(42)
    worst = 0.0
    for kind in kinds:
        count = 0
        while count < 100:
            tau = rng.choice(TAU_SET)
            z = complex(rng.uniform(0.15, 1.35), rng.uniform(-0.2, 0.2))
            p = make_param(tau)
            diff = qtrig_crosscheck(kind, z, p)
            rel = diff / max(1.0, abs(qtrig_theta(kind, z, p)))
            worst = max(worst, rel)
            count += 1
    paths_ok = worst <= 1e-11

    p = make_param(1.1j)
    via_theta = qtrig_theta("tan_q", math.pi / 4, p)
    via_product = qtrig_product_any("tan_q", 0.25, p)
    point_ok = abs(via_theta - 1) <= 1e-12 and abs(via_product - 1) <= 1e-12
    ok = paths_ok and point_ok
    assert _line(9, ok, "worst relative path disagreement %.2e over 600 "
                        "samples; tan_q(pi/4) = 1 both ways" % worst)


def test_criterion_10_deliberate_failure_detected(flipped_thm2, monkeypatch):
    report, text = certificate_text("thm2", 12)
    first = report.failures[0] if report.failures else {}
    monkeypatch.undo()
    true_report = formal_certify("thm2", 12)
    ok = (report.status == "fail"
          and report.certified_order == 0
          and first.get("quarter_grade") == 4   # the very first grade
          and "FIRST MISMATCH: q^1" in text
          and true_report.passed)
    assert _line(10, ok, "sign-flipped thm2 fails at lowest grade %s (%s vs %s); "
                         "true identity still certifies"
                 % (first.get("grade"), first.get("lhs"), first.get("rhs")))
