"""tools/same_outputs.py: the comparison of two runs' exit codes and files."""

import importlib.util
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def differences(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  TOOLS / "same_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
