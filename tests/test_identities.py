import cmath
import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from thetaq import (
    DomainError,
    IDENTITY_IDS,
    SamplePlan,
    UnsupportedFormal,
    certificate_text,
    classical_residuals,
    constancy_probe,
    formal_certify,
    formal_relations,
    identity_info,
    make_param,
    numeric_residual,
    qsquared_param,
    qtrig_theta,
    run_suite,
    series_equal,
    theta_series,
    verify_numeric,
)
from thetaq import ConvergenceError, PoleError, formal, identities, params, qtrig, theta

PLAN = SamplePlan(seed=42, count=60)


def test_registry_contents():
    expected = {
        "quasi_period_1", "quasi_period_2", "quasi_period_3", "quasi_period_4",
        "half_period_1", "half_period_2", "half_period_3", "half_period_4",
        "duplication_12", "duplication_23",
        "triple_product_1", "triple_product_2", "triple_product_3",
        "triple_product_4",
        "thm2", "thm1_tan", "thm1_cot", "cor_cot", "cor_tan",
        "cosq_shift", "qtrig_bridge", "f_constancy",
        "classical_limit_tan", "classical_limit_cot",
    }
    assert set(IDENTITY_IDS) == expected
    with pytest.raises(DomainError):
        identity_info("thm3")


def test_thm2_normalization_point():
    # x = y = pi/4 is the point pinning the constant to 1
    res = numeric_residual("thm2", math.pi / 4, math.pi / 4, 1.1j)
    assert res <= 1e-13


def test_thm2_degenerate_point():
    # x = 0 reduces one side to the vanishing combination
    res = numeric_residual("thm2", 0.0, 0.77, 0.3 + 1.1j)
    assert res <= 1e-12


def test_thm1_tan_equal_arguments():
    for tau in (1.1j, 0.5 + 0.9j):
        res = numeric_residual("thm1_tan", 0.62, 0.62, tau)
        assert res <= 1e-11


def test_thm1_cot_follows_from_thm1_tan_by_division():
    rng = random.Random(17)
    p = make_param(1.1j)
    p2 = qsquared_param(p)
    for _ in range(25):
        x = complex(rng.uniform(0.3, 1.1), rng.uniform(-0.2, 0.2))
        y = complex(rng.uniform(0.3, 1.1), rng.uniform(-0.2, 0.2))
        z = math.pi - x - y
        ss = qtrig_theta("ssn_q", x - y, p)
        cc = qtrig_theta("ccs_q", x - y, p)
        tx = qtrig_theta("tan_q", x, p2)
        ty = qtrig_theta("tan_q", y, p2)
        tz = qtrig_theta("tan_q", z, p)
        cx = qtrig_theta("cot_q", x, p2)
        cy = qtrig_theta("cot_q", y, p2)
        cz = qtrig_theta("cot_q", z, p)
        prod = tx * ty * tz
        if abs(prod) < 1e-6:
            continue
        raw_tan = abs((cc * tx + cc * ty + ss * tz) - ss * prod)
        raw_cot = abs((ss * cx * cy + cc * cy * cz + cc * cz * cx) - ss)
        assert raw_cot <= raw_tan / abs(prod) + 1e-12


def test_probe_examples():
    assert abs(constancy_probe(math.pi / 4, math.pi / 4, 1.2j) - 1) <= 1e-12
    rng = random.Random(8)
    values = []
    for _ in range(50):
        x = complex(rng.uniform(0.2, 2.2), rng.uniform(0.0, 1.0))
        values.append(constancy_probe(x, 0.7, 1.2j))
    mean = sum(values) / len(values)
    var = sum(abs(v - mean) ** 2 for v in values) / (len(values) - 1)
    assert abs(mean - 1) <= 1e-10
    assert math.sqrt(var) <= 1e-10
    # periodicity of the quotient
    x = 0.83 + 0.2j
    a = constancy_probe(x, 0.7, 1.2j)
    b = constancy_probe(x + math.pi, 0.7, 1.2j)
    assert abs(a - b) <= 1e-11
    # theta1(0) = 0 zeroes the denominator
    with pytest.raises(PoleError, match="probe denominator ~ 0 at x = 0.0"):
        constancy_probe(0.0, 0.7, 1.2j)


def test_verify_numeric_passes_registry():
    for name in ("quasi_period_2", "half_period_3", "duplication_23",
                 "triple_product_1", "thm2", "thm1_tan", "thm1_cot",
                 "cor_cot", "cor_tan", "cosq_shift", "qtrig_bridge"):
        report = verify_numeric(name, PLAN)
        assert report.passed, (name, report.failures[:2])
        assert report.samples == PLAN.count
        assert report.max_abs_residual <= 1e-10


def test_verify_numeric_is_deterministic():
    a = dataclasses.asdict(verify_numeric("thm1_tan", PLAN))
    b = dataclasses.asdict(verify_numeric("thm1_tan", PLAN))
    assert a == b
    c = dataclasses.asdict(verify_numeric("thm1_tan", SamplePlan(seed=43, count=60)))
    assert c["params"] != a["params"] or c["max_abs_residual"] != a["max_abs_residual"]


def test_verify_numeric_tolerance_floor():
    report = verify_numeric("thm1_tan", SamplePlan(seed=1, count=10),
                            tolerance=1e-18)
    assert not report.passed
    assert report.failures and "residual" in report.failures[0]


def test_tolerance_must_be_finite_and_non_negative():
    # no residual is above nan or inf, so either tolerance passes everything
    plan = SamplePlan(seed=1, count=20)
    for bad in (math.nan, math.inf, -1e-12):
        with pytest.raises(DomainError, match="tolerance"):
            verify_numeric("thm2", plan, tolerance=bad)
        with pytest.raises(DomainError, match="tolerance"):
            verify_numeric("classical_limit_tan", plan, tolerance=bad)
        # raised before the loop, not recorded as 38 per-identity failures
        with pytest.raises(DomainError, match="tolerance"):
            run_suite(plan, bad)
    assert verify_numeric("thm2", plan, tolerance=0.0).status == "fail"


def test_sample_plan_validation():
    # the driver cycles through tau_set and counts whole samples
    # a float seed would be keyed as "%d", drawing the samples of int(seed)
    for bad in ({"count": 0}, {"count": 2.5}, {"count": True}, {"count": "5"},
                {"seed": 2.7}, {"seed": True}, {"seed": "7"},
                {"tau_set": ()}, {"tau_set": (1.1j, -1j)},
                # |q| rounds to 1: make_param would reject it inside the loop
                {"tau_set": (1e-300j,)}):
        with pytest.raises(DomainError):
            SamplePlan(**bad)
    assert SamplePlan(count=3, tau_set=(1j,)).count == 3


IMPORT_PROBE = """
import sys
from thetaq import (SamplePlan, certificate_text, classical_residuals, cli,
                    make_param, qtrig_crosscheck, verify_numeric)
light = ["mpmath" not in sys.modules]
verify_numeric("thm2", SamplePlan(seed=1, count=3))
certificate_text("thm2", 12)
qtrig_crosscheck("tan_q", 0.7, make_param(1.1j))
codes = [cli.main(["eval", "--fn", "theta3", "--z", "0.3,0", "--tau", "0,1"]),
         cli.main(["certify", "--id", "thm2", "--output", sys.argv[1]])]
light.append("mpmath" not in sys.modules)
classical_residuals("tan", (0.9,))
print(light, codes, "mpmath" in sys.modules)
"""


def test_only_the_classical_limits_load_mpmath(tmp_path):
    # a fresh interpreter: this test process has mpmath loaded already
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "cert")],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines()[-1] == "[True, True] [0, 0] True"


def test_report_dict_is_exactly_the_report_fields():
    # the JSON report is dataclasses.asdict: a field added to IdentityReport
    # enters the JSON of every report, so the key set is pinned for each
    # report shape
    keys = {"id", "mode", "status", "samples", "max_abs_residual",
            "certified_order", "params", "failures"}
    for report in (verify_numeric("thm2", SamplePlan(seed=1, count=3)),
                   formal_certify("thm2", 4),
                   verify_numeric("classical_limit_cot")):
        assert set(dataclasses.asdict(report)) == keys, report.id


def test_convergence_failure_is_recorded_not_raised():
    plan = SamplePlan(seed=3, count=5, tau_set=(1e-5j,))
    report = verify_numeric("thm2", plan)
    assert not report.passed
    assert any("error" in f for f in report.failures)
    reports = run_suite(plan)
    assert len(reports) == len(run_suite(SamplePlan(seed=3, count=5)))


def test_formal_certify_registry():
    for name, order in (("thm2", 12), ("duplication_12", 20),
                        ("duplication_23", 20), ("triple_product_2", 12),
                        ("quasi_period_4", 12), ("half_period_1", 12)):
        report = formal_certify(name, order)
        assert report.passed, (name, report.failures)
        assert report.certified_order >= order


def test_thm2_prefactors_are_one_full_power():
    [(_, lhs, rhs)] = formal_relations("thm2", 12)
    assert lhs.quarter_prefactor == 4
    assert rhs.quarter_prefactor == 4
    assert series_equal(lhs, rhs).equal


def test_certified_order_is_the_lowest_relation_boundary(monkeypatch):
    # the z+pi relation is exact to q^(49/4), the z+pi*tau one to q^(53/4)
    report = formal_certify("quasi_period_2", 12)
    assert ([r["compared_through"] for r in report.params["relations"]]
            == ["q^(49/4)", "q^(53/4)"])
    assert report.certified_order == 12 and report.passed
    # relations exact only below the requested order fail it, with no mismatch
    info = identity_info("half_period_1")
    short = dataclasses.replace(info,
                                relations=lambda order: info.relations(order - 3))
    monkeypatch.setitem(identities.REGISTRY, "half_period_1", short)
    report = formal_certify("half_period_1", 6)
    assert (report.status, report.certified_order, report.failures) == ("fail", 3, [])


def test_flipped_sign_fails_with_lowest_grade_mismatch(flipped_thm2):
    report, text = certificate_text("thm2", 12)
    assert (report.status, report.certified_order) == ("fail", 0)
    # nothing below the shared prefactor exists, so the first mismatch sits
    # at the very first grade, one full power of q
    assert [(f["relation"], f["quarter_grade"], f["grade"]) for f in report.failures] \
        == [("thm2", 4, "q^1")]
    assert "status: fail" in text and "FIRST MISMATCH: q^1" in text
    # the sampler reads the same statement
    assert numeric_residual("thm2", 0.4, 0.9, 1.1j) > 1e-3


def test_thm2_table_means_the_same_thetas_in_both_modes():
    # each table entry's exact series, summed at a point with q^(1/4) =
    # exp(i*pi*tau/4) and u^a v^b = exp(i(a*x + b*y)), is the value the
    # sampler evaluates for that entry
    x, y, tau = 0.4 + 0.1j, 0.9 - 0.2j, 0.3 + 1.1j
    values = identities._thm2_thetas(x, y, make_param(tau))
    entries = [(k, scale, ab) for kind, scale, ab in identities.THM2_PAIRS
               for k in (kind, theta.PARTNER[kind])]
    assert len(values) == len(entries) == 8
    for (kind, scale, (a, b)), value in zip(entries, values):
        series = theta_series(kind, scale, (a, b), 24)
        total = sum(complex(c) * cmath.exp(1j * math.pi * tau * grade / 4)
                    * cmath.exp(1j * (m * x + n * y))
                    for grade, terms in series.grades().items()
                    for (m, n), c in terms.items())
        assert abs(total - value) <= 1e-12 * max(1.0, abs(value)), (kind, scale, a, b)


def test_relations_thm2_builds_each_theta_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return theta_series(*args)

    monkeypatch.setattr(identities, "theta_series", counting)
    formal_relations("thm2", 6)
    assert calls == [(k, scale, ab, 6) for kind, scale, ab in identities.THM2_PAIRS
                     for k in (kind, theta.PARTNER[kind])]


def _count_calls(monkeypatch, name, owners):
    """Route every call of name made through owners' globals via a counter;
    returns the list of first arguments, one per call."""
    real = getattr(owners[0], name)
    calls = []

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_thm2_and_thm1_sum_each_theta_pair_once(monkeypatch):
    # theta_sum returns a kind's sum and its partner's, and thm2's eight
    # thetas are four partner pairs; thm1_tan needs ssn, ccs at x - y and
    # three tangents, each a partner pair (the nulls are cached)
    calls = _count_calls(monkeypatch, "theta_sum", (theta, qtrig))
    x, y, tau = 0.4 + 0.1j, 0.9 - 0.1j, 0.3 + 1.1j
    for ident, kinds in (("thm2", [2, 3, 1, 2]), ("thm1_tan", [4, 2, 2, 2])):
        numeric_residual(ident, x, y, tau)      # fills the null caches
        calls.clear()
        numeric_residual(ident, x, y, tau)
        assert calls == kinds, ident
    constancy_probe(x, identities.PROBE_Y, identities.PROBE_TAU)
    calls.clear()
    constancy_probe(x, identities.PROBE_Y, identities.PROBE_TAU)
    assert calls == [2, 3, 1, 2]


def test_qtrig_sample_builds_one_param(monkeypatch):
    # tau' and 2*tau are kept on the ModularParam, so after the first sample
    # at a tau only numeric_residual's own make_param remains
    calls = _count_calls(monkeypatch, "make_param", (params, qtrig, identities))
    tau = 0.5 + 0.9j
    numeric_residual("thm1_tan", 0.4, 0.9, tau)
    calls.clear()
    for ident in ("thm1_tan", "thm1_cot", "cor_cot", "cor_tan"):
        numeric_residual(ident, 0.4, 0.9, tau)
    assert calls == [tau] * 4


def test_verify_numeric_resolves_each_tau_once(monkeypatch):
    # one make_param per plan tau and check, not one per draw; a param and
    # its complex tau give numeric_residual the same residual
    plan = SamplePlan(seed=3, count=40)
    verify_numeric("thm1_tan", plan)
    calls = _count_calls(monkeypatch, "make_param", (params, qtrig, identities))
    for ident in ("quasi_period_1", "thm2", "thm1_tan"):
        calls.clear()
        verify_numeric(ident, plan)
        assert calls == list(plan.tau_set), ident
    for tau in plan.tau_set:
        assert (numeric_residual("thm2", 0.4, 0.9, make_param(tau))
                == numeric_residual("thm2", 0.4, 0.9, tau))


# the first error of each report whose second tau needs more than MAX_TERMS
# terms somewhere, the same as when every theta was summed alone, in its own
# loop (seed 5, count 20): thm2 first sums theta2 at 2*tau, and the thm1
# forms first sum theta4 at tau' = -1/tau
CAPPED_FIRST_ERRORS = {
    (2e-5j, "thm2"): "theta2",
    (2e-5j, "thm1_tan"): None,
    (2e-5j, "thm1_cot"): None,
    (3e4j, "thm2"): None,
    (3e4j, "thm1_tan"): "theta4",
    (3e4j, "thm1_cot"): "theta4",
}


def test_capped_series_reports_the_first_failing_theta():
    for (tau, ident), kind in CAPPED_FIRST_ERRORS.items():
        report = verify_numeric(ident, SamplePlan(seed=5, count=20, tau_set=(1.1j, tau)))
        if kind is None:
            assert report.passed, (tau, ident)
            continue
        first = report.failures[0]
        assert first["error"] == ("%s series did not meet eps=1e-16 in 256 terms "
                                  "(reduce the argument?)" % kind)
        assert first["tau"] == [0.0, tau.imag], (tau, ident)
        assert sorted(first) == ["error", "tau", "x", "y"], (tau, ident)


def test_probe_convergence_failure_is_recorded(monkeypatch):
    # the probe's own tau converges, so make its third quotient fail: each
    # quotient sums its eight thetas in four theta_pair calls
    real = identities.theta_pair
    calls = []

    def failing(*args):
        calls.append(args[0])
        if len(calls) > 8:
            raise ConvergenceError("starved")
        return real(*args)

    monkeypatch.setattr(identities, "theta_pair", failing)
    report = verify_numeric("f_constancy", SamplePlan(seed=5, count=10))
    assert not report.passed and report.samples == 2
    # the probe's failures have the shape of every sampled check's
    assert [sorted(f) for f in report.failures] == [["error", "tau", "x", "y"]]
    assert report.failures[0]["error"] == "starved"
    assert (report.failures[0]["y"], report.failures[0]["tau"]) == (None, [0.0, 1.2])


def test_probe_with_one_sample_has_zero_spread():
    report = verify_numeric("f_constancy", SamplePlan(seed=5, count=1))
    assert (report.status, report.samples, report.params["std"]) == ("pass", 1, 0.0)


def test_sampler_shift_overflow_names_the_shift_and_tau():
    # above Im tau ~ 226 the sampler's own z + pi*tau (or pi*tau/2) leaves
    # double range; x is in the sample box, so "reduce the argument" is wrong
    plan = SamplePlan(seed=7, count=3, tau_set=(1000j,))
    for ident, shift in (("quasi_period_1", "pi*tau"), ("quasi_period_4", "pi*tau"),
                         ("half_period_2", "pi*tau/2"), ("half_period_3", "pi*tau/2")):
        report = verify_numeric(ident, plan)
        error = report.failures[0]["error"]
        assert report.status == "fail" and report.samples == 0
        assert error.startswith("theta%s(z + %s) overflowed double range at z = ("
                                % (ident[-1], shift)), error
        assert error.endswith(", tau = 1000j") and "reduce" not in error
        x = complex(error.split("z = ")[1].split(", tau")[0])
        lo, hi = identities.SAMPLE_BOX
        assert lo.real <= x.real <= hi.real and lo.imag <= x.imag <= hi.imag


def test_unsupported_formal():
    for name in ("thm1_tan", "thm1_cot", "cor_cot", "cor_tan",
                 "cosq_shift", "f_constancy", "classical_limit_tan"):
        with pytest.raises(UnsupportedFormal):
            formal_relations(name, 8)
        with pytest.raises(UnsupportedFormal):
            formal_certify(name, 8)


def test_certificate_text_structure():
    report, text = certificate_text("duplication_23", 6)
    assert report.passed
    assert "status: pass" in text
    assert "lhs (prefactor q^(1/2))" in text and "rhs (prefactor q^(1/2))" in text
    assert "q^(1/2)    u          2" in text    # leading coefficient of each side
    report2, text2 = certificate_text("duplication_23", 6)
    assert text == text2  # byte-stable


# SHA-256 of certificate_text(id)[1] at the default order, for every formal id
CERTIFICATE_SHA256 = {
    "quasi_period_1": "a85827a1b7baeed9d1b37f8f9f9ed3ecc292f5de3e822a9989a6442ce0f98973",
    "quasi_period_2": "944f06910d9e7d28b2e6933fefd44b186bfced4610c7a8ad77131a85acb373a3",
    "quasi_period_3": "7b84864bffb1d2aa6873cf20b607df17ce2e97aa1b5b288be1102c72a6e7e286",
    "quasi_period_4": "471a1e4b5a56c5fed5b018c2be1b7cc31ada5a0ca19498899bf0542b29e1e814",
    "half_period_1": "4f5cbbdb9e2ba317dcdc35b3010203131778434add502af31b77bf33cc0c429f",
    "half_period_2": "23695928f991d61e662423c05c22b15aa4fc78826614408d2836dd4400bd186b",
    "half_period_3": "a3f457d4ec6a1f85243373feb8aa4c3dec7e97373fb3eb28a71fb1a9376d6386",
    "half_period_4": "a48b8e837189b4050a0080ac30c5f0f8e6c2164a71043bd37b784ee9258eccac",
    "duplication_12": "daee3007b9741bf1fbdf9d4831697343fa2728044e2e09c2c1f293057b2c733d",
    "duplication_23": "24628971f28a7036e45244df758ce19e8416fbb62ec7f695ab886ab924956fe1",
    "triple_product_1": "8ff7ecdcabd225a64ef9192b7ce115d205bb9fb11082bf8604b2f340f8a89a31",
    "triple_product_2": "d20b3e2a8726a46987ca5b3d8eaa3ab0b53fe5e173a7dd3f3c4662f9e708cae4",
    "triple_product_3": "2c211c04f28e376afa48d15bd167d0e52c8a2e6e8fed0262e09b5d542cbd3cc4",
    "triple_product_4": "5a21506eb282c01bc6577f8f56bb865e2fb54543019296df2e0b21fa0a6e7003",
    "thm2": "ab46f0e085c0d2b5aaa1b688c449dfc73ac86c9e46d4682b52288cdca1b78d9d",
}


def test_certificates_at_default_order_are_pinned():
    formal_ids = [i for i in IDENTITY_IDS if "formal" in identity_info(i).modes]
    assert formal_ids == list(CERTIFICATE_SHA256)
    for name, digest in CERTIFICATE_SHA256.items():
        report, text = certificate_text(name)
        expected_order = 20 if name.startswith("duplication_") else 12
        assert report.params["requested_order"] == expected_order, name
        assert report.passed, (name, report.failures)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


# SHA-256 of certificate_text(id, order)[1] at the higher orders, as
# (order 48, order 96), for every formal id
HIGH_ORDER_CERTIFICATE_SHA256 = {
    "quasi_period_1": (
        "9855d9647dbf5b390bd31b9cd6f83f4e8b90430478d432c3628811081634070d",
        "a61571cdafd983be190fbe8a9418dc3193937d40de16a73759a85449230b1826"),
    "quasi_period_2": (
        "e51823908f614458804206c4bd8afddb2e27aa8510e6ce48d473dda1f20fa988",
        "f6ebe679b8f2797bfe3c3095f0ea53e5075210a5386c8f91ad312de72bda39dc"),
    "quasi_period_3": (
        "d0e5e540e8045ca37c7109c1e44e53409330759c5d1f033f0b50b5fec27fbdef",
        "5e5441084811a120317c322d1979018184de45203bc681f9d76d66090a604992"),
    "quasi_period_4": (
        "8729c0a20c9231875048cf5b703ef0fde33079c3e0579069360327d31754212c",
        "a3b8baef902391e98261eb1fbe4964c789c174023bdc4c00e95e7714572f8d8f"),
    "half_period_1": (
        "c2ac2dcafbc78102bf3a7a03c2e0c9efbf4b4b43672c80ee1bb7527d89350c45",
        "f87f85d88a9ba860d8da4c63a5f4ed918ecb9841c21a923766f0cb200a71a880"),
    "half_period_2": (
        "657f236b3c210e473786d6a4cf2e67982de5898c95dac74e0b19a1174580b913",
        "d0cb2a41f1653c7af7941261ad794ec9b04ed58c7db5345509485dcead8a2093"),
    "half_period_3": (
        "e22bb52294bf8ff2f76d8108161be16658c7449f37390e86cb1b197f87025a1a",
        "cadd1c794f362b99cbf6208a3feb755116de06d014474c76c711a70eb0720085"),
    "half_period_4": (
        "d28b8cd769947bf26d3ca0ad7ce36a2d033373d6933c8d6b7b8272fa3ed31f37",
        "f22acae801014ce430632150a81ed59bd96fcc3f9a966800aa0d59d4f3b4f51e"),
    "duplication_12": (
        "e46c4a316c51b16cb85539307ff048f4ea922f39de0d833eb7761357d43716e1",
        "df58b1ec056be65da446d708f9e43f6740f2f6dbb1ec2f0342a1b5b38dcaeae5"),
    "duplication_23": (
        "0bafd085afc272d47d879915f50a0fab3c2cbb0352e89dcb033403cf1080df1a",
        "7ccd1bbbc21cdfe9a7674817752937e29685e908f2e9a0502388d3a64e6da489"),
    "triple_product_1": (
        "ca8222fb639602090074144bdde8af67abf535f8f7fe98bc4d23fbb0537a6126",
        "5962a512e55e48d8ce6e0b9cad2c11713311e9fa9937d48d6681bd6f6e92e3b5"),
    "triple_product_2": (
        "0e6ce8dc42ec75ee4e6e7a6dc064e6bc8f0d7e492261735783808fe0de8327ce",
        "0d61a2cd5797c0ff86c83acbbe2a2e468423d102c20b3bf77fedb1ab8a260d27"),
    "triple_product_3": (
        "e84c13d3ec9557fa66bf219ea2fc9026397040ac79b0a49bedeca9497e241c61",
        "5f96d1837d4c8ed581e355f2ceeb82e117e01e0682aa53d8497e4aa787e1a330"),
    "triple_product_4": (
        "bf776744d12f22d084ea65d31d622df6d786e5cd3313f3c90b110f00ccab4c12",
        "6bf2664468b02b2811c1ad228962b0222680a173979c65d2abe3b9e0de5ea0b6"),
    "thm2": (
        "fbdbc63eecb8103d4d9281b6465175b07b24458a7de038aaac6aa085436cd7b1",
        "b3996a9ef95092a715b432d0091e5d8ded046240f9d2aa6995bbe5af888ef5a5"),
}


def test_certificates_at_orders_48_and_96_are_pinned():
    assert list(HIGH_ORDER_CERTIFICATE_SHA256) == list(CERTIFICATE_SHA256)
    for name, digests in HIGH_ORDER_CERTIFICATE_SHA256.items():
        for order, digest in zip((48, 96), digests):
            report, text = certificate_text(name, order)
            assert report.params["requested_order"] == order, name
            assert report.passed, (name, order, report.failures)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, order)


def test_certificate_pins_agree_with_the_benchmark_pins():
    # perfbench/expected.json pins the exact_certify digests at q^12, q^48 and
    # q^96; one re-pinned without the other would pass here and fail there
    bench_pins = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
    bench = json.loads(bench_pins.read_text())["certificate_sha256"]
    shared = [(name, 12, digest) for name, digest in CERTIFICATE_SHA256.items()
              if identity_info(name).formal_order == 12]
    shared += [(name, order, digest)
               for name, digests in HIGH_ORDER_CERTIFICATE_SHA256.items()
               for order, digest in zip((48, 96), digests)]
    assert len(shared) == 43
    for name, order, digest in shared:
        assert bench[name][str(order)] == digest, (name, order)


def test_classical_residuals_strictly_decreasing():
    for which in ("tan", "cot"):
        r = classical_residuals(which)
        assert r[0] > r[1] > r[2]
        assert r[2] < 1e-2
        assert r[0] > 0


@pytest.mark.parametrize("dps", [15, 50])
def test_classical_cot_residual_is_the_tan_residual(dps):
    # the cot-pair sum is sum t / prod t, so both checks measure one number
    with mp.workdps(dps):
        assert (classical_residuals("tan", identities.CLASSICAL_Q)
                == classical_residuals("cot", identities.CLASSICAL_Q))


# log10 of the classical residuals at q = 0.9, 0.99, 0.999 (same for tan, cot)
CLASSICAL_LOG10 = (-80.96292225964498, -852.5676479807125, -8567.940626972595)


def test_classical_residuals_format_at_caller_precision():
    # the residuals must come back at the caller's precision: a residual
    # carrying a working mantissa of thousands of digits makes mp.nstr meet
    # CPython's 4300-digit int->str limit on mpmath's pure-Python backend
    for which in ("tan", "cot"):
        r = classical_residuals(which)
        assert len(r) == len(CLASSICAL_LOG10)
        for value, expected in zip(r, CLASSICAL_LOG10):
            text = mp.nstr(value, 6)
            assert abs(float(mp.log10(mp.mpf(text))) - expected) < 1e-5
            assert abs(float(mp.log10(value)) - expected) < 1e-6


def _brute_tan_q(z, qprime, terms):
    """tan_q as the plain quotient of the prefactor-free theta sums."""
    num = mp.mpf(0)
    den = mp.mpf(0)
    for k in range(terms):
        w = qprime ** (k * (k + 1))
        s = -1 if k % 2 else 1
        num += s * w * mp.sin((2 * k + 1) * z)
        den += w * mp.cos((2 * k + 1) * z)
    return num / den


def _brute_classical_residual(which, qv, terms=8):
    """Reference: subtract the O(1) sides at enough digits to resolve the
    exp(-2*pi^2/|ln q|) gap, then round to the caller's precision; each
    tan_q sums the indices k < terms."""
    digits = int(2 * math.pi ** 2 / -math.log(qv) / math.log(10)) + 80
    with mp.workdps(digits):
        qprime = mp.exp(-mp.pi ** 2 / mp.log(mp.mpf(1) / qv))
        x, y = mp.mpf(0.7), mp.mpf(1.1)
        tx, ty, tz = (_brute_tan_q(v, qprime, terms)
                      for v in (x, y, mp.pi - x - y))
        if which == "tan":
            lhs, rhs = tx + ty + tz, tx * ty * tz
        else:
            cx, cy, cz = 1 / tx, 1 / ty, 1 / tz
            lhs, rhs = cx * cy + cy * cz + cz * cx, mp.mpf(1)
        res = abs(lhs - rhs) / max(mp.mpf(1), abs(lhs), abs(rhs))
    return +res


def test_classical_residuals_match_brute_force_reference():
    # at q = 0.2 the eps are ~1e-5, so the second- and third-order terms
    # and the k >= 2 tails show at 30 digits; q = 0.999 needs ~8,650
    # reference digits, and the log10 pins cover it
    qs = (0.2, 0.9, 0.99)
    with mp.workdps(50):
        for which in ("tan", "cot"):
            fast = classical_residuals(which, qs)
            for qv, value in zip(qs, fast):
                ref = _brute_classical_residual(which, qv)
                assert abs(value - ref) <= mp.mpf("1e-30") * ref, (which, qv)


def _oracle_tan_eps(z, qprime):
    """The classical (tan z, eps) as first written: a fixed eight indices,
    each sine and cosine and nome power formed afresh.  Near q = 1 only the
    k = 1 term reaches the working precision, so at q >= 0.2 the eight
    suffice."""
    s, c = mp.sin(z), mp.cos(z)
    a = mp.mpf(0)
    b = mp.mpf(0)
    for k in range(1, 8):
        w = qprime ** (k * (k + 1))
        a += (-w if k % 2 else w) * mp.sin((2 * k + 1) * z)
        b += w * mp.cos((2 * k + 1) * z)
    a /= s
    b /= c
    return s / c, (a - b) / (1 + b)


@pytest.mark.parametrize("dps", [15, 30, 50])
def test_classical_residuals_equal_the_fixed_term_oracle(dps, monkeypatch):
    # the tail test drops only terms the working precision cannot see, and
    # the angle-addition sines stay within the 25 guard digits, so every
    # residual is the same mpf as the eight-term one
    qs = (0.2, 0.5, 0.9, 0.99, 0.999)
    with mp.workdps(dps):
        fast = {which: classical_residuals(which, qs) for which in ("tan", "cot")}
        monkeypatch.setattr(identities, "_mp_tan_eps", _oracle_tan_eps)
        for which, values in fast.items():
            assert values == classical_residuals(which, qs), which


def test_classical_residuals_hold_precision_at_small_q():
    # at small q the nome' nears 1 and the theta tails run long: eight fixed
    # indices left the residual off by 3.6e-44 at q = 1e-3 and 1.8e-22 at 1e-6
    qs = (1e-3, 1e-6)
    with mp.workdps(50):
        for which in ("tan", "cot"):
            for qv, value in zip(qs, classical_residuals(which, qs)):
                ref = _brute_classical_residual(which, qv, terms=40)
                assert abs(value - ref) <= mp.mpf("1e-45") * ref, (which, qv)


def test_classical_tails_keep_the_truncation_contract():
    # no fixed term count: the tails stop on the tail test, and a nome' too
    # near 1 for MAX_TERMS terms raises like every other sum
    assert not hasattr(identities, "CLASSICAL_TERMS")
    with pytest.raises(ConvergenceError, match="after 256 terms"):
        identities._mp_tan_eps(mp.mpf(0.7), mp.mpf(1) - mp.mpf(2) ** -20)


def test_classical_residuals_validation():
    with pytest.raises(DomainError):
        classical_residuals("sin")
    # the expansion holds only for a real nome strictly between 0 and 1
    for q in (1.0, 0.0, 1.5, -0.5, math.nan):
        with pytest.raises(DomainError, match="0 < q < 1"):
            classical_residuals("tan", (0.9, q))


def test_verify_numeric_classical_limits_pass():
    for name in ("classical_limit_tan", "classical_limit_cot"):
        rep = verify_numeric(name)
        assert rep.status == "pass", rep.failures
        assert len(rep.params["residuals"]) == 3


def test_run_suite_all_pass():
    plan = SamplePlan(seed=11, count=40)
    reports = run_suite(plan)
    modes = {(r.id, r.mode) for r in reports}
    for name in IDENTITY_IDS:
        info = identity_info(name)
        for mode in info.modes:
            assert (name, mode) in modes
    bad = [(r.id, r.mode, r.failures[:1]) for r in reports if not r.passed]
    assert not bad, bad


def test_classical_residuals_that_grow_fail(monkeypatch):
    grown = [mp.mpf("1e-3"), mp.mpf("1e-2"), mp.mpf("1e-5")]
    monkeypatch.setattr(identities, "classical_residuals", lambda which: grown)
    report = verify_numeric("classical_limit_tan")
    assert report.status == "fail"
    assert report.failures == [{"error": "residuals not strictly decreasing",
                                "residuals": ["0.001", "0.01", "1.0e-5"]}]


def test_run_suite_records_an_error_and_goes_on(monkeypatch):
    def starved(which):
        raise ConvergenceError("starved")

    monkeypatch.setattr(identities, "classical_residuals", starved)
    reports = run_suite(SamplePlan(seed=7, count=2))
    failed = {r.id: r.failures for r in reports if not r.passed}
    assert failed == {"classical_limit_tan": [{"error": "starved"}],
                      "classical_limit_cot": [{"error": "starved"}]}
    assert len(reports) == sum(len(identity_info(n).modes) for n in IDENTITY_IDS)


def test_numeric_residual_validation():
    with pytest.raises(DomainError):
        numeric_residual("thm1_tan", 0.5, None, 1.1j)   # needs y
    with pytest.raises(DomainError):
        numeric_residual("classical_limit_tan", 0.5, None, 1.1j)
    # a one-variable identity never reads y, so it must not accept one
    with pytest.raises(DomainError, match="takes x only"):
        numeric_residual("quasi_period_1", 0.3, 0.5, 1.1j)
    assert numeric_residual("quasi_period_1", 0.3, None, 1.1j) <= 1e-10


def test_suite_report_independent_of_warm_caches():
    plan = SamplePlan(seed=7, count=20)
    params._make_param.cache_clear()     # every param and its nome state cold
    cold = [dataclasses.asdict(r) for r in run_suite(plan)]
    warm = [dataclasses.asdict(r) for r in run_suite(plan)]
    assert cold == warm


def test_order_must_be_a_non_negative_integer(monkeypatch):
    for bad in (-1, 2.5, True, "4"):
        with pytest.raises(DomainError, match="order"):
            formal_relations("thm2", bad)
        with pytest.raises(DomainError, match="order"):
            formal_certify("thm2", bad)
    assert formal_certify("thm2", 0).passed

    # the suite checks the order before any identity runs
    def no_work(*args):
        raise AssertionError("ran an identity")

    monkeypatch.setattr(identities, "verify_numeric", no_work)
    with pytest.raises(DomainError, match="order must be >= 0"):
        run_suite(SamplePlan(count=1), order=-1)


def _poles_on(monkeypatch, name, is_pole):
    """Make identities.<name> raise PoleError on the calls whose 1-based
    index satisfies is_pole; returns the argument list of every call."""
    real = getattr(identities, name)
    calls = []

    def patched(*args):
        calls.append(args)
        if is_pole(len(calls)):
            raise PoleError("test pole")
        return real(*args)

    monkeypatch.setattr(identities, name, patched)
    return calls


def test_pole_draws_are_resampled(monkeypatch):
    plan = SamplePlan(seed=5, count=12)
    reports = []
    for _ in range(2):
        calls = _poles_on(monkeypatch, "numeric_residual", lambda i: i % 3 == 0)
        reports.append(dataclasses.asdict(verify_numeric("thm2", plan)))
        monkeypatch.undo()
    assert reports[0] == reports[1]          # same seed, same report
    assert reports[0]["status"] == "pass" and reports[0]["samples"] == 12
    # 12 samples took 17 draws; a pole does not advance the tau cycle, and
    # each draw gets its tau's resolved param
    assert len(calls) == 17
    kept = [args for i, args in enumerate(calls, 1) if i % 3]
    assert [args[3] for args in kept] == [make_param(plan.tau_set[i % 3])
                                          for i in range(12)]
    assert all(isinstance(args[3], params.ModularParam) for args in calls)


def test_all_pole_draws_stop_at_ten_times_count(monkeypatch):
    calls = _poles_on(monkeypatch, "numeric_residual", lambda i: True)
    plan = SamplePlan(seed=5, count=4)
    report = verify_numeric("thm2", plan)
    assert len(calls) == 40
    # no sample is kept, so every draw stays at the first tau
    assert all(args[3] is make_param(plan.tau_set[0]) for args in calls)
    assert (report.status, report.samples) == ("fail", 0)
    assert report.failures == [
        {"error": "only 0 of 4 samples in 40 draws; the rest hit poles"}]


def test_probe_pole_draws(monkeypatch):
    calls = _poles_on(monkeypatch, "constancy_probe", lambda i: i % 2 == 0)
    report = verify_numeric("f_constancy", SamplePlan(seed=5, count=10))
    assert (report.status, report.samples, len(calls)) == ("pass", 10, 19)
    monkeypatch.undo()

    calls = _poles_on(monkeypatch, "constancy_probe", lambda i: True)
    report = verify_numeric("f_constancy", SamplePlan(seed=5, count=10))
    assert len(calls) == 100
    assert (report.status, report.samples) == ("fail", 0)
    assert report.failures == [
        {"error": "only 0 of 10 samples in 100 draws; the rest hit poles"}]


def test_probe_short_of_its_count_fails(monkeypatch):
    # 19 of every 20 draws hit a pole: 100 draws give 5 of the 10 samples
    calls = _poles_on(monkeypatch, "constancy_probe", lambda i: i % 20 != 0)
    report = verify_numeric("f_constancy", SamplePlan(seed=5, count=10))
    assert len(calls) == 100
    assert (report.status, report.samples) == ("fail", 5)
    assert report.failures == [
        {"error": "only 5 of 10 samples in 100 draws; the rest hit poles"}]


def reference_draw(rng, box):
    lo, hi = complex(box[0]), complex(box[1])
    return complex(rng.uniform(lo.real, hi.real), rng.uniform(lo.imag, hi.imag))


def reference_verify(identity, plan):
    """verify_numeric's sampling loop, drawing with random.uniform: the
    stream its hoisted draws must keep, and the report built from it.  Each
    draw passes its tau's param, as verify_numeric does."""
    info = identity_info(identity)
    tolerance = info.tolerance
    rng = random.Random("%d:%s" % (plan.seed, identity))
    taus = [complex(t) for t in plan.tau_set]
    max_res, worst, failures, done, attempts = 0.0, None, [], 0, 0
    while done < plan.count and attempts < 10 * plan.count:
        attempts += 1
        tau = taus[done % len(taus)]
        x = reference_draw(rng, identities.SAMPLE_BOX)
        y = reference_draw(rng, identities.SAMPLE_BOX) if info.nvars == 2 else None
        try:
            res = identities.numeric_residual(identity, x, y, make_param(tau))
        except PoleError:
            continue
        done += 1
        if res > max_res:
            max_res, worst = res, (x, y, tau)
        if res > tolerance:
            failures.append({**identities.sample_point(x, y, tau), "residual": res})
    params = {"seed": plan.seed, "tolerance": tolerance,
              "tau_set": [[t.real, t.imag] for t in taus]}
    if worst is not None:
        params["worst_sample"] = identities.sample_point(*worst)
    return identities.IdentityReport(
        id=identity, mode="numeric",
        status="pass" if done == plan.count and not failures else "fail",
        samples=done, max_abs_residual=max_res, params=params, failures=failures)


def test_sampler_keeps_the_random_uniform_stream(monkeypatch):
    # one and two variables, and pole resamples that skip draws
    for ident in ("quasi_period_2", "thm2"):
        plan = SamplePlan(seed=11, count=30)
        want = dataclasses.asdict(reference_verify(ident, plan))
        assert dataclasses.asdict(verify_numeric(ident, plan)) == want
    plan = SamplePlan(seed=5, count=12)
    runs = []
    for verify in (verify_numeric, reference_verify):
        calls = _poles_on(monkeypatch, "numeric_residual", lambda i: i % 3 == 0)
        runs.append((dataclasses.asdict(verify("cor_tan", plan)), calls))
        monkeypatch.undo()
    assert runs[0] == runs[1] and len(runs[0][1]) == 17


@pytest.mark.parametrize("pairs", [[(1, 1), (math.nan, 1)], [(math.nan, 1), (1, 1)],
                                   [(math.nan, 1)], [(1e308, -1e308)], "f_constancy"])
def test_non_finite_residual_fails_the_identity(monkeypatch, pairs):
    # |lhs - rhs| / max(1, |lhs|, |rhs|) is nan when a side is nan, and inf
    # when the difference overflows; max() and "res > tolerance" let both pass.
    # The constancy probe's quotient fails the same way, at its own tau.
    calls = []
    if pairs == "f_constancy":
        real = identities.constancy_probe

        def probe(x, y, tau):
            calls.append(x)
            return real(x, y, tau) if len(calls) < 3 else math.nan

        monkeypatch.setattr(identities, "constancy_probe", probe)
        report = verify_numeric("f_constancy", SamplePlan(seed=7, count=5))
        bad, tau = math.nan, [0.0, 1.2]
        worst = max(abs(real(x, identities.PROBE_Y, 1.2j) - 1) for x in calls[:2])
    else:
        def builder(x, y, p):
            calls.append(x)
            return [(1, 1)] if len(calls) < 3 else pairs

        info = dataclasses.replace(identities.REGISTRY["cosq_shift"], pairs=builder)
        monkeypatch.setitem(identities.REGISTRY, "cosq_shift", info)
        report = verify_numeric("cosq_shift", SamplePlan(seed=7, count=5))
        bad = numeric_residual("cosq_shift", 0.5, None, 1.1j)
        tau, worst = [0.5, 0.9], 0.0         # tau_set[2], after two samples
    assert math.isnan(bad) or bad == math.inf
    assert (report.status, report.samples, report.max_abs_residual) == ("fail", 2, worst)
    [failure] = report.failures
    assert failure["error"] == "residual is %r" % bad
    x = calls[2]
    assert (failure["x"], failure["y"], failure["tau"]) == ([x.real, x.imag], None, tau)
    json.dumps(dataclasses.asdict(report), allow_nan=False)


def _negate(kinds):
    def mutant(real):
        def qtrig_theta(kind, z, p):
            value = real(kind, z, p)
            return -value if kind in kinds else value
        return qtrig_theta
    return mutant


def _null4_for_null3(real):
    def theta_sum_null(kind, p):
        return real(4 if kind == 3 else kind, p)
    return theta_sum_null


def _tan_power_plus_w(real):
    # q^(1/4 - w) -> q^(1/4 + w) is a further factor q^(2w)
    def qtrig_product_any(kind, w, p):
        value = real(kind, w, p)
        return value * qtrig._nome_power(p, 2 * w) if kind == "tan_q" else value
    return qtrig_product_any


def _sin_exponent_plus_half(real):
    def _sin_q(w, p):
        return real(w, p) * qtrig._nome_power(p, 0.5)
    return _sin_q


# one-line mutations of the q-trig definitions that the thm1 and corollary
# forms cannot see: they are invariant under f -> -f and under a common
# scale of ssn_q and ccs_q, and they never run the product path.  Each is
# (name, the modules that look it up, mutant of the original).
QTRIG_MUTANTS = {
    "tan_q sign": ("qtrig_theta", (qtrig, identities), _negate({"tan_q"})),
    "cot_q sign": ("qtrig_theta", (qtrig, identities), _negate({"cot_q"})),
    "tan_q and cot_q signs": ("qtrig_theta", (qtrig, identities),
                              _negate({"tan_q", "cot_q"})),
    "ssn_q, ccs_q over theta4(0|tau')": ("theta_sum_null", (qtrig,), _null4_for_null3),
    "product tan_q power q^(1/4+w)": ("qtrig_product_any", (qtrig, identities),
                                      _tan_power_plus_w),
    "product sin_q exponent + 1/2": ("_sin_q", (qtrig,), _sin_exponent_plus_half),
}


def test_qtrig_bridge_alone_catches_each_definition_mutant(monkeypatch):
    plan = SamplePlan(seed=7, count=30)
    assert all(r.passed for r in run_suite(plan))
    for label, (name, owners, mutant) in QTRIG_MUTANTS.items():
        wrapped = mutant(getattr(owners[0], name))
        for owner in owners:
            monkeypatch.setattr(owner, name, wrapped)
        failed = [(r.id, r.mode) for r in run_suite(plan) if not r.passed]
        assert failed == [("qtrig_bridge", "numeric")], label
        monkeypatch.undo()


def test_qtrig_bridge_rejects_an_underflowed_nome():
    # at tau = 1000i the theta path converges at tau' = 0.001i, but q
    # underflows to 0 and the product path has no nome to work with
    report = verify_numeric("qtrig_bridge", SamplePlan(seed=7, count=3, tau_set=(1000j,)))
    assert not report.passed and report.samples == 0
    x = reference_draw(random.Random("7:qtrig_bridge"), identities.SAMPLE_BOX)
    assert report.failures == [{"x": [x.real, x.imag], "y": None, "tau": [0.0, 1000.0],
                                "error": "product form needs 0 < |q| < 1, got |q| = 0"}]


# theta_sum and qpochhammer calls per kept sample at warm params (nulls and
# term tables filled), per sampled identity
KERNEL_CALLS_PER_SAMPLE = {
    **{"quasi_period_%d" % k: (3, 0) for k in (1, 2, 3, 4)},
    **{"half_period_%d" % k: (2, 0) for k in (1, 2, 3, 4)},
    "duplication_12": (3, 0), "duplication_23": (3, 0),
    **{"triple_product_%d" % k: (1, 2) for k in (1, 2, 3, 4)},
    "thm2": (4, 0),
    "thm1_tan": (4, 0), "thm1_cot": (4, 0), "cor_cot": (4, 0), "cor_tan": (4, 0),
    "cosq_shift": (3, 0),
    "f_constancy": (4, 0),
}


def test_kernel_calls_per_sample_are_pinned(monkeypatch):
    # a dropped call weakens a check and an added one slows it; either fails
    # here.  A round of perfbench's sampled_residuals (count 500, the probe
    # capped at 50) makes 26,700 theta_sum and 4,000 qpochhammer calls.
    sampled = [i for i in IDENTITY_IDS if not i.startswith("classical_limit")
               and i != "qtrig_bridge"]
    assert sorted(KERNEL_CALLS_PER_SAMPLE) == sorted(sampled)
    assert [sum(calls[j] * (50 if i == "f_constancy" else 500)
                for i, calls in KERNEL_CALLS_PER_SAMPLE.items())
            for j in (0, 1)] == [26700, 4000]
    plan = SamplePlan(seed=3, count=30)
    counts = dict(theta_sum=0, qpochhammer=0)
    for name in ("theta_sum", "qpochhammer"):
        real = getattr(theta, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        for module in (theta, qtrig, identities):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for ident, want in KERNEL_CALLS_PER_SAMPLE.items():
        verify_numeric(ident, plan)             # warms the params
        counts.update(theta_sum=0, qpochhammer=0)
        report = verify_numeric(ident, plan)
        assert report.status == "pass" and report.samples == 30, ident
        assert (counts["theta_sum"], counts["qpochhammer"]) == (
            want[0] * 30, want[1] * 30), ident


def test_thm2_term_products_are_pinned(monkeypatch):
    # thm2_sides folds each 13-14-term scale-2 theta into the 154-term sum;
    # the dense s2 * d3 first made 6,924 term products at q^48, not 3,636.
    count = [0]
    real = formal._mul_into

    def counted(acc, rows1, rows2):
        count[0] += len(rows1) * len(rows2)
        return real(acc, rows1, rows2)

    monkeypatch.setattr(formal, "_mul_into", counted)
    formal_relations("thm2", 48)
    assert count[0] == 3636


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_triple_product_factor_order_is_pinned(kind, monkeypatch):
    # the cheap order for pochhammer_product: the pure-nome factors first,
    # then the u^2 and u^-2 factors by non-increasing c, u^2 first at each c
    # (5,808 or 5,832 shift-add steps at q^96, against 8,300 or 8,986 for
    # the nome, u^2 and u^-2 families each rising in turn)
    seen = []
    real = identities.pochhammer_product

    def recorded(factors, order):
        seen.append(list(factors))
        return real(factors, order)

    monkeypatch.setattr(identities, "pochhammer_product", recorded)
    assert formal_certify("triple_product_%d" % kind, 48).passed
    [factors] = seen
    nome = [f for f in factors if f[2] is None]
    units = factors[len(nome):]
    assert nome == [(-1, c, None) for c in range(2, 49, 2)]
    assert len(units) == 48 and all(f[2] in ((2, 0), (-2, 0)) for f in units)
    assert units == sorted(units, key=lambda f: (-f[1], -f[2][0]))
