"""tools/bench_pairs.py: the pair counts and the gain and bound rules."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


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
