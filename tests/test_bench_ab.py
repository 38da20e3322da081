"""tools/bench_ab.py's per-metric verdicts, on synthetic runs."""

import importlib.util
import json
import math
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location(
        "bench_ab", os.path.join(ROOT, "tools", "bench_ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
P50 = {"name": "op_p50_ms", "better": "lower", "bound": 0.25}
PARENT = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 97.0, 105.0, 100.5]


def verdict(bench_ab, parent, change, spec=OPS):
    """summarize's entry for spec, one untraced run per side and seed, plus a
    traced run that must be ignored."""
    runs = []
    for side, values in (("parent", parent), ("change", change)):
        for seed, value in enumerate(values, start=11):
            result = {"metrics": {spec["name"]: {"value": value}},
                      "failed": 0, "correct": True}
            runs.append({"side": side, "workload": "w", "seed": seed, "trace": 0,
                         "result": result})
        runs.append({"side": side, "workload": "w", "seed": 11, "trace": 1,
                     "result": {"metrics": {spec["name"]: {"value": 0.0}}}})
    return bench_ab.summarize(runs, "w", [spec])[spec["name"]]


def test_clear_gain_is_shown(bench_ab):
    line = verdict(bench_ab, PARENT, [v * 1.2 for v in PARENT])
    assert line["change_wins"] == "10 of 10"
    assert line["gain_shown"] and not line["unresolved"]
    assert not line["worse_beyond_bound"]
    # the same gain in a lower-is-better metric
    line = verdict(bench_ab, PARENT, [v / 1.2 for v in PARENT], P50)
    assert line["gain_shown"] and not line["unresolved"]


def test_tie_shows_no_gain(bench_ab):
    line = verdict(bench_ab, PARENT, PARENT[::-1])
    assert line["change_over_parent"] == 1.0
    assert not line["gain_shown"] and not line["unresolved"]


def test_nine_of_ten_wins_need_a_gap_beyond_the_parent_iqr(bench_ab):
    # nine wins by 1 and one loss: the medians differ by less than the IQR
    inside = [v + 1.0 for v in PARENT[:9]] + [PARENT[9] - 1.0]
    line = verdict(bench_ab, PARENT, inside)
    assert line["change_wins"] == "9 of 10"
    assert 0 < line["change_median"] - line["parent_median"] < line["parent_iqr"]
    assert not line["gain_shown"]
    # nine wins by 10 clear it; the same gain over nine pairs does not
    outside = [v + 10.0 for v in PARENT[:9]] + [PARENT[9] - 1.0]
    assert verdict(bench_ab, PARENT, outside)["gain_shown"]
    assert not verdict(bench_ab, PARENT[:9], outside[:9])["gain_shown"]


def test_noisy_metric_is_unresolved(bench_ab):
    # the parent's IQR is far beyond the bound of 25% of its median
    noisy = [40.0, 160.0, 70.0, 130.0, 55.0, 145.0, 90.0, 110.0, 60.0, 150.0]
    line = verdict(bench_ab, noisy, [v + 5.0 for v in noisy])
    assert line["parent_iqr"] > 0.25 * line["parent_median"]
    assert line["unresolved"] and not line["gain_shown"]
    # unless every change run beats every parent run
    line = verdict(bench_ab, noisy, [v + 200.0 for v in noisy])
    assert not line["unresolved"] and line["gain_shown"]


def test_traced_layers_are_medians_per_side(bench_ab):
    # three traced runs per side, one an outlier, plus untraced runs that
    # must be ignored; the parent's runs come first in `correct`
    runs = []
    for side, values, correct in (("parent", [1.29, 1.78, 1.31], [True, True, True]),
                                  ("change", [1.25, 1.30, 0.90], [True, False, True])):
        for seed, (value, ok) in enumerate(zip(values, correct), start=11):
            for trace in (0, 1):
                metrics = {"layer.us": {"value": value + 10 * (1 - trace)},
                           "layer.calls": {"value": 4000}}
                runs.append({"side": side, "workload": "w", "seed": seed, "trace": trace,
                             "result": {"metrics": metrics, "correct": ok}})
    runs.append({"side": "parent", "workload": "other", "seed": 11, "trace": 1,
                 "result": {"metrics": {"layer.us": {"value": 99.0}}, "correct": False}})
    traced = bench_ab.summarize_traced(runs, "w")
    assert traced["correct"] == [True, True, True, True, False, True]
    assert traced["metrics"] == {"layer.us": [1.31, 1.25], "layer.calls": [4000, 4000]}
    assert bench_ab.TRACED_PAIRS == 4


def test_medians_keep_four_significant_digits(bench_ab):
    # a per-layer time in seconds, a start-up IQR and a rate in thousands
    # keep four digits each; 0 and non-finite values pass through
    assert bench_ab.sig(0.000287) == 0.000287
    assert bench_ab.sig(0.00028749) == 0.0002875
    assert bench_ab.sig(47325.4) == 47330.0
    assert bench_ab.sig(4000) == 4000 and bench_ab.sig(0.0) == 0.0
    assert math.isnan(bench_ab.sig(math.nan))
    runs = [{"side": side, "workload": "w", "seed": 11, "trace": 1,
             "result": {"metrics": {"layer.self_s": {"value": value}}, "correct": True}}
            for side, value in (("parent", 0.000287), ("change", 0.00012345))]
    assert bench_ab.summarize_traced(runs, "w")["metrics"] == {
        "layer.self_s": [0.000287, 0.0001234]}
    line = verdict(bench_ab, [0.0251 + 0.000287 * k for k in range(10)],
                   [0.024] * 10, {"name": "setup_s", "better": "lower", "bound": 0.25})
    assert (line["parent_median"], line["parent_iqr"]) == (0.02639, 0.001579)


def test_traced_pairs_lead_with_each_side_equally(bench_ab, monkeypatch, tmp_path):
    # the second run of a pair can read a layer higher, so over a workload's
    # traced pairs the parent must go first as often as the change
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    def fake_run(tree, workload, seed, seconds, trace, tiny):
        metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
        return {"metrics": metrics, "failed": 0, "correct": True}

    monkeypatch.setattr(bench_ab, "run_bench", fake_run)
    monkeypatch.setattr(bench_ab, "unpack", lambda rev, dest: dest)
    monkeypatch.setattr(bench_ab, "git", lambda *args: b"abc1234\n")
    out = tmp_path / "ab.json"
    assert bench_ab.main(["--parent", "p", "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    for w in spec["workloads"]:
        traced = [r for r in runs if r["trace"] and r["workload"] == w["name"]]
        assert len(traced) == 2 * bench_ab.TRACED_PAIRS
        leads = [a["side"] for a, b in zip(traced[::2], traced[1::2])]
        assert all(a["seed"] == b["seed"] and a["side"] != b["side"]
                   for a, b in zip(traced[::2], traced[1::2]))
        assert leads.count("parent") == leads.count("change"), (w["name"], leads)

