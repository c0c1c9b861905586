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
