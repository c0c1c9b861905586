"""tools/same_outputs.py: the comparison of two runs' exit codes and files."""

import importlib.util
import pathlib

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
    assert differences(a, 0, b, 0) == []
    assert differences(str(tmp_path / "none"), 4, str(tmp_path / "gone"), 4) == []


def test_a_differing_file(differences, tmp_path):
    a = write(tmp_path / "a", OUTPUTS)
    b = write(tmp_path / "b", dict(OUTPUTS, **{"sub/frontier.json": "[1]"}))
    assert differences(a, 0, b, 0) == ["sub/frontier.json differs"]


def test_a_missing_file(differences, tmp_path):
    a = write(tmp_path / "a", OUTPUTS)
    b = write(tmp_path / "b", {k: v for k, v in OUTPUTS.items() if k != "trace.csv"})
    assert differences(a, 0, b, 0) == ["trace.csv only in the first"]
    assert differences(b, 0, a, 0) == ["trace.csv only in the second"]


def test_a_differing_exit_code(differences, tmp_path):
    a = write(tmp_path / "a", OUTPUTS)
    b = write(tmp_path / "b", OUTPUTS)
    assert differences(a, 0, b, 4) == ["exit 0 vs 4"]


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
    exit codes and every other byte must still match."""
    moved = {"report.json": '{"p_hat": 1.0000000000000002e-06}',
             "trace.csv": "1,0.5000000000000001\n"}
    a = write(tmp_path / "a", dict(OUTPUTS, **{"report.json": '{"p_hat": 1e-06}',
                                               "notes.txt": "0.5"}))
    b = write(tmp_path / "b", dict(OUTPUTS, **moved, **{"notes.txt": "0.5000000000000001"}))
    assert differences(a, 0, b, 0, rtol=1e-12) == ["notes.txt differs"]
    assert differences(a, 0, b, 0) == ["notes.txt differs",
                                       "report.json max relative difference 2.1e-16",
                                       "trace.csv max relative difference 2.2e-16"]
    assert differences(a, 0, b, 4, rtol=1e-12) == ["exit 0 vs 4", "notes.txt differs"]
    assert differences(a, 0, b, 0, rtol=1e-17) == [
        "notes.txt differs", "report.json max relative difference 2.1e-16",
        "trace.csv max relative difference 2.2e-16"]


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
