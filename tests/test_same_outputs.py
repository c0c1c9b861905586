"""tools/same_outputs.py: the comparison of two runs' exit codes and files,
and the paired figures of their op times."""

import importlib.util
import os
import pathlib
import re
import sys
from types import SimpleNamespace

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  TOOLS / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def differences(tool):
    return tool.differences


@pytest.fixture
def summarize(tool):
    return tool.summarize


def write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


OUTPUTS = {"report.json": "{}", "trace.csv": "1,0.5\n", "sub/frontier.json": "[]"}


def test_equal_outputs_ignore_the_manifest(differences, tmp_path):
    a = write(tmp_path / "a", dict(OUTPUTS, **{"manifest.json": "t=1"}))
    b = write(tmp_path / "b", dict(OUTPUTS, **{"manifest.json": "t=2"}))
    assert differences(a, 0, b, 0) == ([], [])
    assert differences(str(tmp_path / "none"), 4, str(tmp_path / "gone"), 4) == ([], [])


def test_a_differing_file(differences, tmp_path):
    a = write(tmp_path / "a", OUTPUTS)
    b = write(tmp_path / "b", dict(OUTPUTS, **{"sub/frontier.json": "[1]"}))
    assert differences(a, 0, b, 0) == (["sub/frontier.json differs"], [])


def test_a_missing_file(differences, tmp_path):
    a = write(tmp_path / "a", OUTPUTS)
    b = write(tmp_path / "b", {k: v for k, v in OUTPUTS.items() if k != "trace.csv"})
    assert differences(a, 0, b, 0) == (["trace.csv only in the first"], [])
    assert differences(b, 0, a, 0) == (["trace.csv only in the second"], [])


def test_a_differing_exit_code(differences, tmp_path):
    a = write(tmp_path / "a", OUTPUTS)
    b = write(tmp_path / "b", OUTPUTS)
    assert differences(a, 0, b, 4) == (["exit 0 vs 4"], [])


def test_relative_difference(tool):
    rel = tool.relative_difference
    assert rel('{"p": 1.5e-06, "n": 7}', '{"p": 1.5e-06, "n": 7}') == 0.0
    assert rel("x,-2.0\n", "x,-2.0000000000000004\n") == pytest.approx(2.2e-16, rel=0.01)
    assert rel("1,2.5e-3\n", "1,2.4e-3\n") == pytest.approx(0.04)
    assert rel("0.5,inf\n", "0.5,nan\n") is None          # non-numeric text
    assert rel("rare,1\n", "safe,1\n") is None
    assert rel("1,2\n", "1,2,3\n") is None                # one more number
    assert rel("[1.0]", "[1.00]") == 0.0


def test_numbers_within_rtol(differences, tmp_path):
    """Only .json and .csv numbers may move, each by at most rtol relative;
    exit codes and every other byte must still match.  The files that moved
    within rtol come back as notes of their own."""
    moved = {"report.json": '{"p_hat": 1.0000000000000002e-06}',
             "trace.csv": "1,0.5000000000000001\n"}
    a = write(tmp_path / "a", dict(OUTPUTS, **{"report.json": '{"p_hat": 1e-06}',
                                               "notes.txt": "0.5"}))
    b = write(tmp_path / "b", dict(OUTPUTS, **moved, **{"notes.txt": "0.5000000000000001"}))
    moved = ["report.json max relative difference 2.1e-16",
             "trace.csv max relative difference 2.2e-16"]
    assert differences(a, 0, b, 0, rtol=1e-12) == (["notes.txt differs"], moved)
    assert differences(a, 0, b, 0) == (["notes.txt differs"] + moved, [])
    assert differences(a, 0, b, 4, rtol=1e-12) == (["exit 0 vs 4", "notes.txt differs"],
                                                   moved)
    assert differences(a, 0, b, 0, rtol=1e-17) == (["notes.txt differs"] + moved, [])


# A stand-in tree: set-up writes model.json (its text given per tree) and a
# fixed data.csv, and each op's CLI copies the model to report.json.
TOY_WORKLOADS = """
import os
from types import SimpleNamespace

def toy(seed, work, cli_main):
    model, data = os.path.join(work, "model.json"), os.path.join(work, "data.csv")
    with open(model, "w") as fh:
        fh.write(%r)
    with open(data, "w") as fh:
        fh.write("1,2\\n")
    out = os.path.join(work, "out")
    ops = [SimpleNamespace(args=["run", model, "--seed", str(s), "--out", out],
                           out_dir=out) for s in range(3)]
    return SimpleNamespace(ops=ops, files=[data, model])

SETUPS = {"toy": toy}
"""
TOY_CLI = """
import os, shutil, sys

def main(args=None, standalone_mode=True):
    args = sys.argv[1:] if args is None else args
    os.makedirs(args[-1], exist_ok=True)
    shutil.copyfile(args[1], os.path.join(args[-1], "report.json"))

if __name__ == "__main__":
    main()
"""


def toy_tree(root, model_text):
    return write(root, {"bench/workloads.py": TOY_WORKLOADS % model_text,
                        "src/rareis/__init__.py": "",
                        "src/rareis/cli.py": TOY_CLI})


def test_setup_differences(tool, tmp_path):
    a = write(tmp_path / "a", {"model.json": "{}", "events.csv": "1\n"})
    b = write(tmp_path / "b", {"model.json": "{ }", "events.csv": "1\n",
                               "av.json": "{}"})
    assert tool.setup_differences(a, a) == []
    assert tool.setup_differences(a, b) == ["setup differs: av.json",
                                            "setup differs: model.json"]


def test_each_tree_builds_its_own_setup(tool, tmp_path, capsys):
    """A set-up fit that moves shows as a set-up and an output difference,
    although both trees' CLI arguments are the same."""
    trees = {"parent": toy_tree(tmp_path / "p", "{}"),
             "change": toy_tree(tmp_path / "c", "{}")}
    assert tool.compare(trees, "toy", 0, 1, str(tmp_path / "same")) == 0
    assert capsys.readouterr().out.splitlines() == [
        "toy op 0: same (exit 0, 1 files)"]
    trees["change"] = toy_tree(tmp_path / "c2", '{"K": 1}')
    assert tool.compare(trees, "toy", 0, 1, str(tmp_path / "moved")) == 2
    assert capsys.readouterr().out.splitlines() == [
        "setup differs: model.json", "toy op 0: report.json differs"]


def test_all_workloads_of_the_change_tree(tool, tmp_path, capsys):
    """--workload all compares each of the change tree's workloads in turn."""
    trees = {"parent": toy_tree(tmp_path / "p", "{}"),
             "change": toy_tree(tmp_path / "c", '{"K": 1}')}
    for tree in trees.values():
        with open(pathlib.Path(tree) / "bench" / "workloads.py", "a") as fh:
            fh.write("SETUPS['other'] = toy\n")
    assert tool.workload_names(trees["change"]) == ["toy", "other"]
    assert tool.compare_workloads(trees, "all", 0, 1, str(tmp_path / "all")) == 4
    assert capsys.readouterr().out.splitlines() == [
        "setup differs: model.json", "toy op 0: report.json differs",
        "setup differs: model.json", "other op 0: report.json differs"]
    trees["parent"] = trees["change"]
    assert tool.compare_workloads(trees, "all", 0, 1, str(tmp_path / "same")) == 0
    assert tool.compare_workloads(trees, "toy", 0, 1, str(tmp_path / "one")) == 0
    assert capsys.readouterr().out.splitlines() == [
        "toy op 0: same (exit 0, 1 files)", "other op 0: same (exit 0, 1 files)",
        "toy op 0: same (exit 0, 1 files)"]


def test_compare_names_files_within_rtol(tool, tmp_path, capsys):
    """A set-up file must match byte for byte; an output that moves within
    rtol is named in the op's line, and beyond it is a difference."""
    trees = {"parent": toy_tree(tmp_path / "p", '{"p": 0.1}'),
             "change": toy_tree(tmp_path / "c", '{"p": 0.10000000000000002}')}
    assert tool.compare(trees, "toy", 0, 1, str(tmp_path / "r"), rtol=1e-12) == 1
    assert capsys.readouterr().out.splitlines() == [
        "setup differs: model.json",
        "toy op 0: same (exit 0, 1 files; report.json max relative difference 1.4e-16)"]
    assert tool.compare(trees, "toy", 0, 1, str(tmp_path / "s"), rtol=1e-17) == 2
    assert capsys.readouterr().out.splitlines()[1] == (
        "toy op 0: report.json max relative difference 1.4e-16")


def test_ops_cycle_and_are_timed(tool, tmp_path, capsys):
    """Past the workload's 3 ops, op 3 re-runs op 0; each tree's arguments
    name its own work directory, which is not an argument difference."""
    trees = {"parent": toy_tree(tmp_path / "p", "{}"),
             "change": toy_tree(tmp_path / "c", "{}")}
    assert tool.compare(trees, "toy", 0, 4, str(tmp_path / "cycle")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["toy op %d: same (exit 0, 1 files)" % i for i in range(4)]
    assert len(lines) == 5
    assert re.fullmatch(r"toy: 4 ops, median time ratio change/parent \d+\.\d{3} "
                        r"\(quartiles \d+\.\d{3}-\d+\.\d{3}\), change faster on [0-4]",
                        lines[4])


def test_each_op_compares_its_outputs_once(tool, tmp_path, capsys, monkeypatch):
    """One _compare of the set-up files, then one per op serves both the
    op's differences and its within-rtol notes."""
    calls = []

    def spy(dir_a, dir_b, rtol=0.0):
        calls.append(os.path.relpath(dir_a, tmp_path))
        return compare_files(dir_a, dir_b, rtol)

    compare_files = tool._compare
    monkeypatch.setattr(tool, "_compare", spy)
    trees = {"parent": toy_tree(tmp_path / "p", '{"p": 0.1}'),
             "change": toy_tree(tmp_path / "c", '{"p": 0.10000000000000002}')}
    assert tool.compare(trees, "toy", 0, 3, str(tmp_path / "r"), rtol=1e-12) == 1
    assert calls == [os.path.join("r", "setup", "parent")] + [
        os.path.join("r", "out", "parent", str(i)) for i in range(3)]
    assert capsys.readouterr().out.splitlines()[1:4] == [
        "toy op %d: same (exit 0, 1 files; report.json max relative difference "
        "1.4e-16)" % i for i in range(3)]


class UsageError(Exception):
    exit_code = 2  # as click's own errors carry theirs


def test_run_op_gives_seconds_and_exit_code(tool, capsys):
    """A CLI call's return value, sys.exit code or error's exit_code is its
    exit code, 1 for any other error; its output is swallowed."""
    def usage_error():
        raise UsageError()

    for action, code in [(lambda: print("p_hat"), 0), (lambda: 3, 3),
                         (lambda: sys.exit(4), 4), (lambda: sys.exit("no"), 1),
                         (usage_error, 2), (lambda: 1 / 0, 1)]:
        cli = SimpleNamespace(main=lambda args, standalone_mode: action())
        seconds, exit_code = tool.run_op(cli, ["run"])
        assert exit_code == code and 0 <= seconds < 1
    assert capsys.readouterr().out == ""


def test_median_and_quartiles_of_the_paired_ratios(summarize):
    parent = [10.0, 10.0, 20.0, 8.0, 5.0]
    change = [9.0, 11.0, 10.0, 8.0, 4.0]
    # ratios 0.9, 1.1, 0.5, 1.0, 0.8; the ratio of the medians would read 0.9
    # too, so op 2's halving must not reach the median
    s = summarize(parent, change)
    assert s == {"ops": 5, "ratio": 0.9, "q1": 0.8, "q3": 1.0,
                 "won": 3}  # the tie at op 3 counts for neither side


def test_ratios_pair_ops_not_medians(summarize):
    # each side's median is 2.0, but every op of the change is twice as slow
    s = summarize([1.0, 2.0, 4.0], [2.0, 4.0, 8.0])
    assert (s["ratio"], s["q1"], s["q3"], s["won"]) == (2.0, 2.0, 2.0, 0)


def test_needs_two_paired_ops(summarize):
    with pytest.raises(ValueError):
        summarize([1.0], [1.0])
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0])
