"""tools/inproc_pairs.py: the paired figures it prints."""

import importlib.util
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def summarize(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("inproc_pairs",
                                                  TOOLS / "inproc_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


def test_median_and_quartiles_of_the_paired_ratios(summarize):
    parent = [10.0, 10.0, 20.0, 8.0, 5.0]
    change = [9.0, 11.0, 10.0, 8.0, 4.0]
    # ratios 0.9, 1.1, 0.5, 1.0, 0.8; the ratio of the medians would read 0.9
    # too, so op 2's halving must not reach the median
    s = summarize(parent, change, [700, 690, 710, 0, 0], [40, 50, 60, 0, 0])
    assert (s["ratio"], s["q1"], s["q3"]) == (0.9, 0.8, 1.0)
    assert s["ops"] == 5
    assert s["won"] == 3  # the tie at op 3 counts for neither side
    assert s["minflt"] == {"parent": 420.0, "change": 30.0}


def test_ratios_pair_ops_not_medians(summarize):
    # each side's median is 2.0, but every op of the change is twice as slow
    s = summarize([1.0, 2.0, 4.0], [2.0, 4.0, 8.0], [0, 0, 0], [0, 0, 0])
    assert (s["ratio"], s["q1"], s["q3"], s["won"]) == (2.0, 2.0, 2.0, 0)


def test_needs_two_paired_ops(summarize):
    with pytest.raises(ValueError):
        summarize([1.0], [1.0], [0], [0])
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], [0, 0], [0])
