"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import rareis  # noqa: E402
import rareis.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work():
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(run.WORK_ROOT, "test-%d" % os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _inputs(name, seed, path):
    os.makedirs(path)
    inputs = workloads.SETUPS[name](seed, path, rareis.cli.main)
    files = {os.path.relpath(f, path): open(f, "rb").read() for f in inputs.files}
    args = [[a.replace(path, "<work>") for a in op.args] for op in inputs.ops]
    return files, args


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_are_byte_identical_for_a_seed(name, work):
    first = _inputs(name, 7, os.path.join(work, "a"))
    assert first == _inputs(name, 7, os.path.join(work, "b"))
    other = _inputs(name, 8, os.path.join(work, "c"))
    # these two are the same fixed job under every seed
    fixed = name in ("fit-lanechange", "lanechange-cutin")
    assert (first == other) == fixed


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_match_benchmark_json():
    doc = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert set(w["name"] for w in doc["workloads"]) <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "tail-halfspace", "--seed", "3",
                         "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == (2 if trace else 1)
    expected = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())


def _bindings():
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "rareis" or name.startswith("rareis.")):
            for attr, value in vars(mod).items():
                if callable(value):
                    found[(name, attr)] = value
    for attr, _ in spans.CLI_COMMANDS:
        found[("callback", attr)] = getattr(rareis.cli, attr).callback
    return found


def test_traced_run_restores_module_attributes(work):
    before = _bindings()
    inputs = workloads.tail_trunc(0, work, rareis.cli.main)
    tracer = spans.Tracer()
    with tracer.installed("rareis"):
        assert rareis.accel.rect_prob is not before[("rareis.accel", "rect_prob")]
        record = run.run_op(inputs.ops[0], rareis, workloads, tracer)
    assert _bindings() == before
    calls, self_s, _ = record.layers
    assert record.reason is None
    # accel, tgmm and gauss each resolve rect_prob by their own name
    assert calls["gauss.rect_prob"] > calls["gauss.sample_truncated"] > 0
    assert calls["cli.run"] == 1 and self_s["cli.run"] > 0


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()

    def child():
        time.sleep(0.05)

    def parent():
        time.sleep(0.02)
        tracer.call("child", child, (), {}, None)

    tracer.call("parent", parent, (), {}, None)
    calls, self_s, _ = tracer.take()
    assert calls == {"parent": 1, "child": 1}
    assert 0.02 <= self_s["parent"] < 0.045
    assert self_s["child"] >= 0.05
    assert tracer.take() == ({}, {}, {})


def test_failing_op_is_counted_with_its_exit(work):
    inputs = workloads.tail_halfspace_d5(0, work, rareis.cli.main)
    record = run.run_op(inputs.ops[0], rareis, workloads)
    assert record.exit_code == 1
    assert record.reason.startswith("exit 1: PieceBlowupError")


def _write_run_outputs(out, p_hat, stderr, zero_hits):
    os.makedirs(out)
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump({"p_hat": p_hat, "stderr": stderr, "zero_hits": zero_hits,
                   "n_samples": 1000, "crude_equiv_n": 10}, fh)
    with open(os.path.join(out, "state.json"), "w") as fh:
        json.dump({"simulator_calls": 100}, fh)


@pytest.mark.parametrize("p_hat,stderr,zero_hits,reason", [
    (1.0e-6, 1e-7, False, None),
    (1.6e-6, 1e-7, False, "|p_hat - p|"),
    (0.0, 0.0, True, "zero hits"),
])
def test_tail_check(work, p_hat, stderr, zero_hits, reason):
    out = os.path.join(work, "out")
    _write_run_outputs(out, p_hat, stderr, zero_hits)
    op = workloads.Op([], out, "run", 1.0e-6)
    got, quality = workloads.check(op, rareis.tgmm)
    assert (got is None) if reason is None else got.startswith(reason)
    assert quality["evals"] == 1100


def test_fit_check_rejects_non_finite_bic(work):
    out = os.path.join(work, "out")
    os.makedirs(out)
    with open(os.path.join(out, "bic.csv"), "w") as fh:
        fh.write("K,bic,loglik,iterations\n1,nan,-1.0,3\n")
    got, _ = workloads.check(workloads.Op([], out, "fit"), rareis.tgmm)
    assert got == "bic.csv has a non-finite entry"


def test_exits_without_result_when_the_program_is_missing(work):
    """A directory holding only BENCHMARK.json and bench/ must not pass."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work)
    shutil.copytree(BENCH, os.path.join(work, "bench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tail-halfspace",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=work, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
