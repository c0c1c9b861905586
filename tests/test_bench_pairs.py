"""tools/bench_pairs.py: the pair counts and the gain and bound rules."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def runs(values, failed=0):
    return [{"attempted": 10, "failed": failed, "metrics": {"op_p50_ref": v}}
            for v in values]


METRIC = {"name": "op_p50_ref", "unit": "ref", "better": "lower", "bound": 0.25}
PARENT = [7.0, 7.1, 6.9, 7.2, 7.0, 6.8, 7.1, 7.0, 6.9, 7.0]


def test_gain_needs_nine_tenths_won_and_medians_beyond_the_parent_spread():
    summarize = load_tool().summarize
    s = summarize(runs(PARENT), runs([1.5] * 9 + [7.0]), METRIC)
    assert (s["pairs_won"], s["pairs"]) == (9, 10)  # the tie counts for neither
    assert s["gain"] and s["bound_check"] == "within"
    assert s["parent"]["median"] == 7.0 and s["change"]["median"] == 1.5
    s = summarize(runs(PARENT), runs([1.5] * 8 + [7.5, 7.5]), METRIC)
    assert s["pairs_won"] == 8 and not s["gain"]
    s = summarize(runs(PARENT), runs([p - 0.01 for p in PARENT]), METRIC)
    assert s["pairs_won"] == 10 and not s["gain"]  # inside the parent's quartiles


def test_gain_needs_ten_pairs():
    summarize = load_tool().summarize
    s = summarize(runs(PARENT[:9]), runs([1.5] * 9), METRIC)
    assert s["pairs_won"] == 9 and s["share_won"] == 1.0 and not s["gain"]
    assert summarize(runs(PARENT[:3]), runs([1.5] * 3), METRIC)["gain"] is False


def test_gain_needs_no_larger_share_of_failed_ops():
    summarize = load_tool().summarize
    assert summarize(runs(PARENT, failed=1), runs([1.5] * 10, failed=1),
                     METRIC)["gain"]
    s = summarize(runs(PARENT), runs([1.5] * 10, failed=1), METRIC)
    assert s["pairs_won"] == 10 and not s["gain"]


def test_gain_needs_the_better_direction():
    summarize = load_tool().summarize
    higher = dict(METRIC, better="higher")
    s = summarize(runs(PARENT), runs([1.5] * 10), higher)
    assert s["pairs_won"] == 0 and not s["gain"]
    assert summarize(runs([1.5] * 10), runs(PARENT), higher)["gain"]


def test_bound_is_relative_to_the_parent_median():
    summarize = load_tool().summarize
    parent = [1.0] * 4
    assert summarize(runs(parent), runs([1.2] * 4), METRIC)["bound_check"] == "within"
    assert summarize(runs(parent), runs([1.3] * 4), METRIC)["bound_check"] == "beyond"
    higher = dict(METRIC, better="higher")
    assert summarize(runs(parent), runs([0.8] * 4), higher)["bound_check"] == "within"
    assert summarize(runs(parent), runs([0.7] * 4), higher)["bound_check"] == "beyond"


@pytest.mark.parametrize("change, check", [
    ([1.0, 1.0, 1.0, 1.0, 1.0], "unresolved"),  # 1.0 > the parent's best 0.5
    ([0.4, 0.4, 0.4, 0.4, 0.45], "within"),    # every run better than every parent run
    ([0.4, 0.4, 0.4, 0.4, 0.5], "unresolved"),  # 0.5 ties the parent's best
    ([3.0] * 5, "unresolved"),                  # even a median far beyond the bound
])
def test_bound_is_unresolved_when_the_parent_spreads_wider_than_it(change, check):
    summarize = load_tool().summarize
    parent = [0.5, 0.8, 1.0, 1.2, 1.5]  # quartile spread 0.4 = 40% of the median
    assert summarize(runs(parent), runs(change), METRIC)["bound_check"] == check


def quality_runs(rel_stderr, speedup):
    return [{"attempted": 10, "failed": 0,
             "metrics": {"op_p50_ref": 1.0, "rel_stderr": a, "rel_err": None,
                         "crude_speedup": b}}
            for a, b in zip(rel_stderr, speedup)]


def test_quality_metrics_are_summarized_ungated():
    tool = load_tool()
    runs = {"parent": quality_runs([0.02] * 10, [100.0] * 10),
            "change": quality_runs([0.01] * 10, [300.0] * 9 + [50.0])}
    s = tool.summarize_workload(runs, [METRIC])
    assert s["summary"]["op_p50_ref"]["bound_check"] == "within"
    # rel_err is null in every run and work_norm_var absent: both are left out
    assert sorted(s["quality"]) == ["crude_speedup", "rel_stderr"]
    q = s["quality"]["rel_stderr"]
    assert q["ungated"] and "bound" not in q and "bound_check" not in q
    assert q["pairs_won"] == 10 and q["gain"]
    assert q["parent"]["median"] == 0.02 and q["change"]["median"] == 0.01
    q = s["quality"]["crude_speedup"]  # higher is better: 9 of 10 won
    assert q["better"] == "higher" and q["pairs_won"] == 9 and q["gain"]


def test_rescore_reproduces_stored_summaries(tmp_path):
    tool = load_tool()
    runs = {"parent": quality_runs([0.02] * 10, [100.0] * 10),
            "change": quality_runs([0.021] * 10, [90.0] * 10)}
    for r in runs["parent"] + runs["change"]:
        r["metrics"].update(setup_s=0.5, peak_rss_mb=80.0)
    stored = tmp_path / "BENCH.json"
    stored.write_text(json.dumps({"workloads": {"w": {"runs": runs}}}))
    out = tmp_path / "rescored.json"
    assert tool.main(["--rescore", str(stored), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())["workloads"]["w"]
    assert doc["runs"] == runs
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert doc["summary"] == tool.summarize_workload(runs, gated)["summary"]
    assert sorted(doc["summary"]) == ["op_p50_ref", "peak_rss_mb", "setup_s"]
    q = doc["quality"]["rel_stderr"]
    assert q["ungated"] and q["pairs_won"] == 0 and not q["gain"]
