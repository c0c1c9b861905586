import csv
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from rareis import accel, cli, dompoints, scenario, tgmm
from rareis.cli import main, parse_support
from rareis.dompoints import SolverError
from rareis.frontier import NonMonotoneOutcomeError
from rareis.gauss import GaussComponent, Rect
from rareis.tgmm import TruncatedGMM


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def model_1d(tmp_path):
    gmm = TruncatedGMM([1.0], [GaussComponent([0.0], [[1.0]])],
                       Rect.unbounded(1))
    path = tmp_path / "model.json"
    path.write_text(tgmm.model_to_json(gmm))
    return str(path)


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(7)
    y = np.vstack([rng.normal([0, 0], 0.6, size=(150, 2)),
                   rng.normal([3, 2], 0.8, size=(150, 2))])
    path = tmp_path / "data.csv"
    np.savetxt(path, y, delimiter=",")
    return str(path)


def run_outputs(out_dir):
    return sorted(os.listdir(out_dir))


class TestParseSupport:
    def test_basic(self):
        r = parse_support("0:1,-inf:inf", 2)
        assert r.lower.tolist() == [0.0, -np.inf]
        assert r.upper.tolist() == [1.0, np.inf]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse_support("0:1", 2)

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_support("0;1", 1)


class TestFit:
    def test_bic_table_and_model(self, runner, data_csv, tmp_path):
        out = tmp_path / "fit"
        r = runner.invoke(main, ["fit", data_csv, "--k-list", "1,2,3",
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert "best K = 2" in r.output
        lines = (out / "bic.csv").read_text().splitlines()
        assert lines[0] == "K,bic,loglik,iterations"
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3"]
        bics = [float(row.split(",")[1]) for row in lines[1:]]
        assert min(bics) == bics[1]
        model = tgmm.model_from_json((out / "model.json").read_text())
        assert model.n_components == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["options"]["k_list"] == [1, 2, 3]

    def test_lane_change_coords(self, runner, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "events.csv"
        with open(path, "w") as fh:
            fh.write("v,ttc,range\n")
            for _ in range(120):
                fh.write("%f,%f,%f\n" % (rng.uniform(5, 30),
                                         rng.uniform(0.5, 5),
                                         rng.uniform(5, 80)))
        out = tmp_path / "fit"
        r = runner.invoke(main, ["fit", str(path), "--k-list", "1",
                                 "--coords", "lane-change", "--out", str(out)])
        assert r.exit_code == 0, r.output
        model = tgmm.model_from_json((out / "model.json").read_text())
        assert model.dim == 3

    @pytest.mark.parametrize("rows", ["1.0,2.0\n3.0,4.0\n",
                                      "20.0,2.0,30.0\n20.0,0.0,30.0\n"],
                             ids=["two_columns", "zero_ttc"])
    def test_lane_change_bad_rows_exit_2(self, runner, tmp_path, rows):
        path = tmp_path / "events.csv"
        path.write_text("v,ttc,range\n" + rows)
        r = runner.invoke(main, ["fit", str(path), "--coords", "lane-change",
                                 "--out", str(tmp_path / "fit")])
        assert r.exit_code == cli.EXIT_INPUT
        assert isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output

    def test_missing_file_exit_2(self, runner, tmp_path):
        r = runner.invoke(main, ["fit", str(tmp_path / "nope.csv")])
        assert r.exit_code == cli.EXIT_INPUT

    def test_bad_k_list_exit_2(self, runner, data_csv):
        r = runner.invoke(main, ["fit", data_csv, "--k-list", "two"])
        assert r.exit_code == cli.EXIT_INPUT

    @pytest.mark.parametrize("k_list", ["1,1", "2,1,2"])
    def test_repeated_k_exit_2(self, runner, data_csv, tmp_path, k_list):
        r = runner.invoke(main, ["fit", data_csv, "--k-list", k_list,
                                 "--out", str(tmp_path / "fit")])
        assert r.exit_code == cli.EXIT_INPUT
        assert "K values must be distinct, got %r" % k_list in r.output
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("k_list, message", [
        ("1,2,3", "K=2: component 1 weight collapsed to 0"),
        ("1,3,2", "K=3: need at least 10*K observations (heuristic floor)")])
    def test_first_failing_k_in_list_order_exit_3(self, runner, tmp_path,
                                                  monkeypatch, k_list,
                                                  message):
        # 25 rows: K = 3 is below the 10*K floor, and every K = 2 start
        # model has a component at -60 whose weight dies; all K share one
        # lockstep, and the error is the first failing K's, in list order
        path = tmp_path / "small.csv"
        np.savetxt(path, np.random.default_rng(3).normal(size=(25, 2)),
                   delimiter=",")
        real = tgmm._init_model

        def spoiled(y, K, rng):
            w, comps = real(y, K, rng)
            if K == 2:
                comps[1] = comps[1].moved_to(np.full(y.shape[1], -60.0))
            return w, comps
        monkeypatch.setattr(tgmm, "_init_model", spoiled)
        r = runner.invoke(main, ["fit", str(path), "--k-list", k_list,
                                 "--out", str(tmp_path / "fit")])
        assert r.exit_code == cli.EXIT_FIT
        assert r.output == "error: fit failed at %s\n" % message
        assert not (tmp_path / "fit").exists()

    def test_non_numeric_csv_exit_2(self, runner, tmp_path):
        # line numbers are the file's own, blank lines counted
        good = "1.0,2.0\n3.0,1.0\n"
        for text, message in [("1.0,2.0\n1.0,oops\n", "line 2: non-numeric"),
                              ("1,2\n\n1,oops\n", "line 3: non-numeric"),
                              (good + "5.0,inf\n" + good, "line 3: non-finite"),
                              (good * 2 + "\nnan,4.0\n", "line 6: non-finite")]:
            path = tmp_path / "bad.csv"
            path.write_text(text)
            r = runner.invoke(main, ["fit", str(path)])
            assert r.exit_code == cli.EXIT_INPUT, text
            assert isinstance(r.exception, SystemExit)
            assert "bad.csv: %s value" % message in r.output

    def test_data_outside_support_exit_2(self, runner, data_csv, tmp_path):
        r = runner.invoke(main, ["fit", data_csv, "--support", "0:1,0:1"])
        assert r.exit_code == cli.EXIT_INPUT

    def test_too_few_observations_exit_3(self, runner, tmp_path):
        path = tmp_path / "tiny.csv"
        with open(path, "w") as fh:
            for i in range(12):
                fh.write("%d,%d\n" % (i % 3, (2 * i) % 5))
        r = runner.invoke(main, ["fit", str(path), "--k-list", "3"])
        assert r.exit_code == cli.EXIT_FIT

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_loglik_exit_3(self, runner, data_csv, monkeypatch):
        far = TruncatedGMM([1.0], [GaussComponent([1e200, 0.0], np.eye(2))],
                           Rect.unbounded(2))
        def to_far(y, m, resp):
            return far
            yield  # a generator, like the EM update task it stands in for
        monkeypatch.setattr(tgmm, "_em_update", to_far)
        r = runner.invoke(main, ["fit", data_csv, "--k-list", "1"])
        assert r.exit_code == cli.EXIT_FIT
        assert "non-finite log-likelihood" in r.output

    def test_unrepairable_covariance_exit_3(self, runner, data_csv,
                                            monkeypatch):
        # calls 1-3 factor the three restarts' start covariances; call 4,
        # restart 0's first M-step, raises as if no jitter repaired it
        real, calls = tgmm._spd_factor, []

        def failing(cov):
            calls.append(cov)
            if len(calls) == 4:
                raise np.linalg.LinAlgError(
                    "covariance could not be regularized to SPD")
            return real(cov)
        monkeypatch.setattr(tgmm, "_spd_factor", failing)
        r = runner.invoke(main, ["fit", data_csv, "--k-list", "2"])
        assert r.exit_code == cli.EXIT_FIT
        assert isinstance(r.exception, SystemExit)
        assert r.output == ("error: fit failed at K=2: covariance could not "
                            "be regularized to SPD\n")
        assert "non-finite log-likelihood" not in r.output

    def test_degenerate_restart_exit_3(self, runner, data_csv, monkeypatch):
        # restart 1's start model puts component 1 where the support has no
        # mass; the error names that component, not its place in the
        # restarts' shared kernel call
        real = tgmm._init_model

        def spoiled(y, K, rng):
            w, comps = real(y, K, rng)
            if rng.bit_generator.seed_seq.spawn_key == (1,):
                comps[1] = comps[1].moved_to(np.full(y.shape[1], -60.0))
            return w, comps
        monkeypatch.setattr(tgmm, "_init_model", spoiled)
        r = runner.invoke(main, ["fit", data_csv, "--k-list", "2",
                                 "--support", "-5:10,-5:10"])
        assert r.exit_code == cli.EXIT_FIT
        assert ("fit failed at K=2: component 1: rectangle probability"
                in r.output)


def reference_read_csv(path, expect_header=None):
    """cli._read_csv before its rows went through one numpy conversion:
    float() on each cell, row by row."""
    with open(path) as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if any(c.strip() for c in r)]
    header = None
    if rows:
        try:
            [float(c) for c in rows[0][1]]
        except ValueError:
            header = [c.strip() for c in rows.pop(0)[1]]
    if not rows:
        raise ValueError("%s: no data rows" % path)
    width = len(rows[0][1])
    data = []
    for lineno, r in rows:
        try:
            values = [float(c) for c in r]
        except ValueError:
            raise ValueError("%s: line %d: non-numeric value" % (path, lineno))
        if len(values) != width:
            raise ValueError("%s: line %d: expected %d columns"
                             % (path, lineno, width))
        if not all(map(math.isfinite, values)):
            raise ValueError("%s: line %d: non-finite value" % (path, lineno))
        data.append(values)
    if expect_header is not None and header != expect_header:
        raise ValueError("%s: expected header %s" % (path, expect_header))
    return header, np.array(data)


CSV_TEXTS = {
    "blank and empty-cell lines": "a,b\n\n1.5,2\n,,\n \n-3e-5,4\n",
    "quoted cells": '"x","y"\n"1.5","2"\n"-0.0",3\n',
    "spaces and underscores": "1.0,2\n 1.5, 2 \n1_000,\t7\n",
    "no header, full precision": "0.1,1e-300\n2.5e+10,%r\n" % (1 / 3),
    "inf": "1,2\n3,inf\n",
    "nan in the first row": "nan,1\n2,3\n",
    "-Infinity after a blank line": "1,2\n\n-Infinity,2\n",
    "ragged, short": "1,2\n3\n4,5\n",
    "ragged, long": "v,w\n1,2\n3,4,5\n",
    "empty cell": "1,2\n3,\n",
    "non-numeric after non-finite": "1,2\n3,nan\n4,x\n",
    "non-finite after non-numeric": "1,2\n4,x\n3,nan\n",
    "ragged after non-finite": "1,2\ninf,2\n5\n",
    "non-numeric in a ragged row": "1,2\nx\n",
    "header only": "v,ttc,range\n",
    "blank file": "\n\n",
    "header, then a bad header-like row": "v,ttc\nv,ttc\n",
}


class TestReadCsv:
    @pytest.mark.parametrize("name", list(CSV_TEXTS))
    @pytest.mark.parametrize("expect_header", [None, ["a", "b"]])
    def test_matches_row_by_row_reader(self, tmp_path, name, expect_header):
        path = tmp_path / "data.csv"
        path.write_text(CSV_TEXTS[name])
        try:
            want = reference_read_csv(str(path), expect_header)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                cli._read_csv(str(path), expect_header)
            assert str(got.value) == str(err)
            return
        header, data = cli._read_csv(str(path), expect_header)
        assert header == want[0]
        assert data.dtype == want[1].dtype and data.shape == want[1].shape
        assert data.tobytes() == want[1].tobytes()


class TestRun:
    ARGS = ["--analytic", "mixture-tail", "--analytic-params",
            '{"gamma": 3.0}', "--n", "5000", "--n-per-iter", "300",
            "--max-iter", "3", "--seed", "4"]

    def test_outputs_and_accuracy(self, runner, model_1d, tmp_path):
        out = tmp_path / "run"
        r = runner.invoke(main, ["run", model_1d, "--out", str(out)] + self.ARGS)
        assert r.exit_code == 0, r.output
        assert run_outputs(out) == ["dominating_points.csv", "frontier.json",
                                    "manifest.json", "report.json",
                                    "state.json", "trace.csv"]
        report = json.loads((out / "report.json").read_text())
        from scipy.special import ndtr
        truth = float(ndtr(-3.0))
        assert abs(report["p_hat"] / truth - 1.0) < 0.1
        assert report["method"] == "is"
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "sample_index,running_p_hat,running_ci_half_width"
        final = float(trace[-1].split(",")[1])
        assert final == pytest.approx(report["p_hat"], rel=1e-12)

    def test_bounds_populates_bounds(self, runner, model_1d, tmp_path):
        out = tmp_path / "run"
        r = runner.invoke(main, ["run", model_1d, "--out", str(out),
                                 "--bounds"] + self.ARGS)
        assert r.exit_code == 0, r.output
        report = json.loads((out / "report.json").read_text())
        lo, up = report["bounds"]
        assert 0.0 < lo <= report["p_hat"] <= up < 1.0
        assert all(se > 0.0 for se in report["bounds_stderr"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"]["bounds"] is True

    def test_bounds_reuse_final_dominating_sets(self, runner, model_1d,
                                                tmp_path, monkeypatch):
        # one inner and one outer set per procedure iteration; the bounds
        # come from the final estimate's draws and solve no set of their own
        calls = []
        for name in ("inner_dominating", "outer_dominating"):
            def counted(*args, real=getattr(dompoints, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(dompoints, name, counted)
        out = tmp_path / "run"
        r = runner.invoke(main, ["run", model_1d, "--out", str(out),
                                 "--bounds"] + self.ARGS)
        assert r.exit_code == 0, r.output
        assert json.loads((out / "report.json").read_text())["bounds"] != [0.0, 1.0]
        assert calls.count("inner_dominating") == 3
        assert calls.count("outer_dominating") == 3

    def test_bounds_leave_the_estimate_unchanged(self, runner, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(tgmm.model_to_json(TruncatedGMM(
            [1.0], [GaussComponent(np.zeros(3), np.eye(3))], Rect.unbounded(3))))
        args = ["run", str(model), "--analytic", "halfspace",
                "--analytic-params", '{"w": [0.5, 0.6, 0.7], "gamma": 4.0}',
                "--n", "20000", "--n-per-iter", "1000", "--seed", "2"]
        outs = [tmp_path / "plain", tmp_path / "bounds"]
        for out, flag in zip(outs, ([], ["--bounds"])):
            r = runner.invoke(main, args + ["--out", str(out)] + flag)
            assert r.exit_code == 0, r.output
        for fname in ("trace.csv", "frontier.json", "dominating_points.csv",
                      "state.json"):
            assert filecmp.cmp(outs[0] / fname, outs[1] / fname,
                               shallow=False), fname
        plain, bounded = (json.loads((out / "report.json").read_text())
                          for out in outs)
        assert plain["bounds"] == [0.0, 1.0] and "bounds_stderr" not in plain
        assert set(bounded) == set(plain) | {"bounds_stderr"}
        for key in ("p_hat", "stderr"):
            assert repr(plain[key]) == repr(bounded[key])

    @pytest.mark.parametrize("outcome", [0, 1])
    def test_bounds_check_final_outcomes(self, runner, model_1d, tmp_path,
                                         monkeypatch, outcome):
        """One draw of the final stream, inside the inner set or strictly
        below a safe frontier point, gets the other outcome."""
        real, flipped = scenario.analytic_scenario, []

        def flipping(kind, params):
            ind, truth_fn, mask = real(kind, params)

            def flip(X):
                hits = ind(X)
                if X.shape[0] == 5000:  # --n: the final estimate's draws
                    decided = X[:, 0] > 4.5 if outcome == 0 else X[:, 0] < 2.0
                    i = np.flatnonzero(decided)[0]
                    hits[i] = outcome
                    flipped.append(X[i])
                return hits
            return flip, truth_fn, mask
        monkeypatch.setattr(scenario, "analytic_scenario", flipping)
        codes = []
        for flag in ([], ["--bounds"]):
            r = runner.invoke(main, ["run", model_1d, "--out",
                                     str(tmp_path / "run")] + flag + self.ARGS)
            codes.append(r.exit_code)
        assert codes == [0, cli.EXIT_MONOTONE], r.output
        assert "non-monotone outcome" in r.output
        assert str(flipped[-1].tolist()) in r.output
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("params", ['[1]', '{"w": [[1.0]], "gamma": 3}',
                                        '{"w": [1.0], "gamma": NaN}'])
    def test_malformed_analytic_params_exit_2(self, runner, model_1d,
                                              tmp_path, params):
        r = runner.invoke(main, ["run", model_1d, "--analytic", "halfspace",
                                 "--analytic-params", params,
                                 "--out", str(tmp_path / "run")])
        assert r.exit_code == cli.EXIT_INPUT
        assert isinstance(r.exception, SystemExit)
        assert "error: bad analytic scenario" in r.output
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("kind, params, key", [
        ("halfspace", {"gamma": 3.0}, "w"), ("halfspace", {"w": [1.0]}, "gamma"),
        ("orthant", {}, "corner"), ("mixture-tail", {}, "gamma")])
    def test_missing_analytic_param_exit_2(self, runner, model_1d, tmp_path,
                                           kind, params, key):
        r = runner.invoke(main, ["run", model_1d, "--analytic", kind,
                                 "--analytic-params", json.dumps(params),
                                 "--out", str(tmp_path / "run")])
        assert r.exit_code == cli.EXIT_INPUT
        assert isinstance(r.exception, SystemExit)
        assert r.output.splitlines() == [
            "error: bad analytic scenario: missing parameter '%s'" % key]

    def test_byte_identical_reruns(self, runner, model_1d, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = runner.invoke(main, ["run", model_1d, "--out", str(out)]
                              + self.ARGS)
            assert r.exit_code == 0, r.output
            outs.append(out)
        for fname in run_outputs(outs[0]):
            if fname == "manifest.json":
                continue  # carries wall-clock duration
            assert filecmp.cmp(outs[0] / fname, outs[1] / fname,
                               shallow=False), fname

    def test_missing_scenario_exit_2(self, runner, model_1d):
        r = runner.invoke(main, ["run", model_1d])
        assert r.exit_code == cli.EXIT_INPUT

    def test_both_scenarios_exit_2(self, runner, model_1d, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        r = runner.invoke(main, ["run", model_1d, "--scenario-config",
                                 str(cfg), "--analytic", "mixture-tail"])
        assert r.exit_code == cli.EXIT_INPUT

    def test_dimension_mismatch_exit_2(self, runner, model_1d):
        r = runner.invoke(main, ["run", model_1d, "--analytic", "halfspace",
                                 "--analytic-params",
                                 '{"w": [1.0, 1.0], "gamma": 2.0}'])
        assert r.exit_code == cli.EXIT_INPUT

    def test_corrupt_model_exit_2(self, runner, model_1d, tmp_path):
        doc = json.loads(open(model_1d).read())
        zero_mass = dict(doc, support={"lower": [40.0], "upper": ["inf"]})
        comp = doc["components"][0]
        # a 2-D model, whose standardizer must hold two entries per vector
        doc_2d = json.loads(tgmm.model_to_json(TruncatedGMM(
            [1.0], [GaussComponent([0.0, 0.0], np.eye(2))], Rect.unbounded(2))))
        nan, inf = float("nan"), float("inf")
        path = tmp_path / "corrupt.json"
        for text in ["{not json", json.dumps(dict(doc, components=5)),
                     json.dumps([doc]), json.dumps(zero_mass),
                     json.dumps(dict(doc, weights=[nan])),
                     json.dumps(dict(doc, components=[dict(comp, mean=[nan])])),
                     json.dumps(dict(doc, components=[dict(comp, cov=[[inf]])])),
                     json.dumps(dict(doc, components=[dict(comp, cov=[[1e308]])])),
                     json.dumps(dict(doc, components=[dict(comp, cov=[[1e-320]])])),
                     json.dumps(dict(doc, standardizer={"shift": [0.0],
                                                        "scale": [inf]})),
                     json.dumps(dict(doc, standardizer={"shift": [nan],
                                                        "scale": [1.0]})),
                     json.dumps(dict(doc_2d, standardizer={"shift": [0.0],
                                                           "scale": [1.0]})),
                     json.dumps(dict(doc_2d, standardizer={
                         "shift": [0.0] * 3, "scale": [1.0] * 3}))]:
            path.write_text(text)
            for command in ("run", "crude"):
                r = runner.invoke(main, [command, str(path), "--analytic",
                                         "mixture-tail", "--analytic-params",
                                         '{"gamma": 3.0}', "--out",
                                         str(tmp_path / "out")])
                assert r.exit_code == cli.EXIT_INPUT, (command, text)
                assert isinstance(r.exception, SystemExit)
                assert "error: cannot load model" in r.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "crude"])
    @pytest.mark.parametrize("cov", [1e308, 1e-320])
    def test_overflowing_covariance_one_line_exit_2(self, runner, model_1d,
                                                    tmp_path, command, cov):
        doc = json.loads(open(model_1d).read())
        doc["components"][0]["cov"] = [[cov]]
        path = tmp_path / "scale.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = runner.invoke(main, [command, str(path), "--analytic",
                                     "mixture-tail", "--analytic-params",
                                     '{"gamma": 3.0}', "--n", "1000", "--out",
                                     str(tmp_path / "out")])
        assert r.exit_code == cli.EXIT_INPUT and isinstance(r.exception, SystemExit)
        assert r.output == ("error: cannot load model %s: component 0: the squares "
                            "of its draws (within 40 sd of its mean) or its "
                            "precision matrix overflow\n" % path)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "crude"])
    def test_indicator_input_error_exit_2(self, runner, tmp_path, command):
        """Proposals with 1/ttc <= 0 end in exit 2 with a message."""
        gmm = TruncatedGMM([1.0], [GaussComponent([20.0, 0.0, 0.2],
                                                  np.diag([4.0, 0.01, 0.01]))],
                           Rect.unbounded(3))
        model = tmp_path / "model.json"
        model.write_text(tgmm.model_to_json(gmm))
        cfg = tmp_path / "av.json"
        cfg.write_text("{}")
        r = runner.invoke(main, [command, str(model), "--scenario-config",
                                 str(cfg), "--n", "100"])
        assert r.exit_code == cli.EXIT_INPUT
        assert isinstance(r.exception, SystemExit)
        assert "error: 1/ttc and 1/range must be positive" in r.output
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("config", ['{"horizon": Infinity}', '{"dt": NaN}',
                                        '{"dt": 1e-300, "horizon": 1e10}'])
    def test_non_finite_scenario_config_exit_2(self, runner, tmp_path, config):
        gmm = TruncatedGMM([1.0], [GaussComponent([20.0, 0.3, 0.2],
                                                  np.diag([4.0, 0.01, 0.01]))],
                           Rect.unbounded(3))
        model = tmp_path / "model.json"
        model.write_text(tgmm.model_to_json(gmm))
        cfg = tmp_path / "av.json"
        cfg.write_text(config)
        r = runner.invoke(main, ["run", str(model), "--scenario-config",
                                 str(cfg), "--n", "100"])
        assert r.exit_code == cli.EXIT_INPUT
        assert isinstance(r.exception, SystemExit)
        assert "error: cannot load scenario config" in r.output
        assert "must be finite" in r.output
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("command", ["run", "crude"])
    @pytest.mark.parametrize("config,message", [
        ('"abc"', "AVConfig must be a JSON object, not str"),
        ("[1]", "AVConfig must be a JSON object, not list"),
        ("null", "AVConfig must be a JSON object, not NoneType"),
        ("5", "AVConfig must be a JSON object, not int"),
        ('{"dt": true}', "AVConfig.dt must be a number, not bool"),
        ('{"horizon": "15"}', "AVConfig.horizon must be a number, not str"),
        ('{"aeb_decel": null}', "AVConfig.aeb_decel must be a number, not NoneType"),
        ('{"max_decel": [8.0]}', "AVConfig.max_decel must be a number, not list")])
    def test_malformed_scenario_config_exit_2(self, runner, tmp_path, command,
                                              config, message):
        model = tmp_path / "model.json"
        model.write_text(tgmm.model_to_json(TruncatedGMM(
            [1.0], [GaussComponent([20.0, 0.3, 0.2], np.diag([4.0, 0.01, 0.01]))],
            Rect.unbounded(3))))
        cfg = tmp_path / "av.json"
        cfg.write_text(config)
        r = runner.invoke(main, [command, str(model), "--scenario-config",
                                 str(cfg), "--n", "100",
                                 "--out", str(tmp_path / "out")])
        assert r.exit_code == cli.EXIT_INPUT
        assert isinstance(r.exception, SystemExit)
        assert r.output.splitlines() == [
            "error: cannot load scenario config: " + message]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "crude"])
    @pytest.mark.parametrize("params", ['{"gamma": 3.0}', "", "{}"])
    def test_analytic_params_without_analytic_exit_2(self, runner, tmp_path,
                                                     command, params):
        model = tmp_path / "model.json"
        model.write_text(tgmm.model_to_json(TruncatedGMM(
            [1.0], [GaussComponent([20.0, 0.3, 0.2], np.diag([4.0, 0.01, 0.01]))],
            Rect.unbounded(3))))
        cfg = tmp_path / "av.json"
        cfg.write_text("{}")
        r = runner.invoke(main, [command, str(model), "--scenario-config",
                                 str(cfg), "--analytic-params", params,
                                 "--n", "100", "--out", str(tmp_path / "out")])
        assert r.exit_code == cli.EXIT_INPUT
        assert isinstance(r.exception, SystemExit)
        assert r.output.splitlines() == [
            "error: --analytic-params needs --analytic"]
        assert not (tmp_path / "out").exists()

    def test_non_monotone_exit_4(self, runner, model_1d, monkeypatch):
        def boom(*a, **kw):
            raise NonMonotoneOutcomeError(np.array([0.5]), np.array([1.0]))
        monkeypatch.setattr(cli.accel, "run_procedure", boom)
        r = runner.invoke(main, ["run", model_1d] + self.ARGS)
        assert r.exit_code == cli.EXIT_MONOTONE

    def test_solver_failure_exit_5(self, runner, model_1d, monkeypatch):
        def boom(*a, **kw):
            raise SolverError("did not converge")
        monkeypatch.setattr(cli.accel, "run_procedure", boom)
        r = runner.invoke(main, ["run", model_1d] + self.ARGS)
        assert r.exit_code == cli.EXIT_SOLVER

    def test_kkt_failure_exit_5_names_component_and_corner(self, runner,
                                                           tmp_path, monkeypatch):
        gmm = TruncatedGMM([0.5, 0.5], [GaussComponent([0.0], [[1.0]]),
                                        GaussComponent([0.5], [[2.0]])],
                           Rect.unbounded(1))
        model = tmp_path / "model.json"
        model.write_text(tgmm.model_to_json(gmm))
        kernel = dompoints._box_qp

        def off_optimum(H, mu, lower, upper):
            # component 1's first piece gets a point 1 away from its optimum
            x = kernel(H, mu, lower, upper)
            if mu[0] == 0.5:
                x[:1] += 1.0
            return x
        monkeypatch.setattr(dompoints, "_box_qp", off_optimum)
        r = runner.invoke(main, ["run", str(model), "--out",
                                 str(tmp_path / "run")] + self.ARGS)
        assert r.exit_code == cli.EXIT_SOLVER
        assert isinstance(r.exception, SystemExit)
        assert re.search(r"error: (inner|outer)_dominating: component 1, corner "
                         r"\[[^]]+\]: KKT residual \S+ exceeds 1e-6", r.output)
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("command", ["run"])
    def test_piece_blowup_exit_5(self, runner, tmp_path, command):
        # the default --max-frontier 12 at d = 5: 5^12 outer pieces
        model = tmp_path / "model.json"
        model.write_text(tgmm.model_to_json(TruncatedGMM(
            [1.0], [GaussComponent(np.zeros(5), np.eye(5))], Rect.unbounded(5))))
        params = json.dumps({"w": [5 ** -0.5] * 5, "gamma": 4.0})
        r = runner.invoke(main, [command, str(model), "--analytic", "halfspace",
                                 "--analytic-params", params,
                                 "--out", str(tmp_path / "run")])
        assert r.exit_code == cli.EXIT_SOLVER
        assert isinstance(r.exception, SystemExit)
        assert "error: d^|s0| = 5^12 exceeds 1e6" in r.output
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("command", ["run", "crude"])
    def test_degenerate_sampling_exit_5(self, runner, model_1d, tmp_path,
                                        command):
        """N(0,1) on [10, inf): the model loads, but rejection sampling from
        it accepts 7.6e-24 of its draws; run samples only the proposal."""
        doc = json.loads(open(model_1d).read())
        model = tmp_path / "tail.json"
        model.write_text(json.dumps(dict(doc, support={"lower": [10.0],
                                                       "upper": ["inf"]})))
        r = runner.invoke(main, [command, str(model), "--analytic", "halfspace",
                                 "--analytic-params", '{"w": [1.0], "gamma": 11.0}',
                                 "--n", "1000", "--out", str(tmp_path / "out")])
        if command == "run":
            assert r.exit_code == 0, r.output
            return
        assert r.exit_code == cli.EXIT_SOLVER
        assert isinstance(r.exception, SystemExit)
        assert "error: acceptance rate estimate 7.62e-24 below 1e-8" in r.output
        assert "Traceback" not in r.output


def reference_trace_rows(values):
    """trace.csv data rows for every sample index, one Python float at a time."""
    rows, s, sq = [], 0.0, 0.0
    for i, v in enumerate(map(float, values), start=1):
        s += v
        sq += v * v
        mean = s / i
        var = max(sq / i - mean * mean, 0.0)
        se = math.sqrt(var / (i - 1)) if i > 1 else 0.0
        rows.append("%d,%r,%r" % (i, mean, 1.96 * se))
    return rows


class TestTrace:
    CRUDE_ARGS = ["--analytic", "halfspace", "--analytic-params",
                  '{"w": [1.0], "gamma": 1.0}', "--seed", "3"]

    @pytest.mark.parametrize("command,n", [("run", 5000), ("run", 800),
                                           ("crude", 1000), ("crude", 1001),
                                           ("crude", 20000)])
    def test_checkpoint_rows(self, runner, model_1d, tmp_path, monkeypatch,
                             command, n):
        real, values = accel.estimate, []

        def spy(*args, **kwargs):
            report = real(*args, **kwargs)
            values.append(report.values)
            return report
        monkeypatch.setattr(accel, "estimate", spy)
        args = TestRun.ARGS if command == "run" else self.CRUDE_ARGS
        out = tmp_path / "out"
        r = runner.invoke(main, [command, model_1d, "--out", str(out)] + args
                          + ["--n", str(n)])
        assert r.exit_code == 0, r.output
        assert len(values) == 1 and len(values[0]) == n
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "sample_index,running_p_hat,running_ci_half_width"
        rows = trace[1:]
        index = [int(row.split(",")[0]) for row in rows]
        assert index[0] == 1 and index[-1] == n
        assert all(a < b for a, b in zip(index, index[1:]))
        if n <= 1000:
            assert index == list(range(1, n + 1))
        else:
            assert len(rows) <= 1000
        reference = reference_trace_rows(values[0])
        assert rows == [reference[i - 1] for i in index]
        report = json.loads((out / "report.json").read_text())
        assert float(rows[-1].split(",")[1]) == pytest.approx(report["p_hat"],
                                                              rel=1e-12)


class TestCrude:
    def test_outputs(self, runner, model_1d, tmp_path):
        out = tmp_path / "crude"
        r = runner.invoke(main, ["crude", model_1d, "--analytic", "halfspace",
                                 "--analytic-params",
                                 '{"w": [1.0], "gamma": 1.0}',
                                 "--n", "20000", "--out", str(out)])
        assert r.exit_code == 0, r.output
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "crude"
        assert abs(report["p_hat"] - 0.1587) < 0.01
        assert (out / "trace.csv").exists()

    def test_deterministic(self, runner, model_1d, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = runner.invoke(main, ["crude", model_1d, "--analytic",
                                     "mixture-tail", "--analytic-params",
                                     '{"gamma": 1.0}', "--n", "3000",
                                     "--seed", "9", "--out", str(out)])
            assert r.exit_code == 0, r.output
            outs.append(out)
        assert filecmp.cmp(outs[0] / "report.json", outs[1] / "report.json",
                           shallow=False)

    def test_no_likelihood_ratio(self, runner, model_1d, tmp_path,
                                 monkeypatch):
        # with the model as its own proposal each hit's ratio is 1.0, given
        # without a density evaluation; run's estimate still makes the call
        real, calls = accel.likelihood_ratio, []

        def spy(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(accel, "likelihood_ratio", spy)
        out = tmp_path / "crude"
        r = runner.invoke(main, ["crude", model_1d, "--out", str(out)]
                          + TestTrace.CRUDE_ARGS)
        assert r.exit_code == 0, r.output
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "crude" and not report["zero_hits"]
        assert report["max_likelihood_ratio"] == 1.0
        assert calls == []
        r = runner.invoke(main, ["run", model_1d, "--out", str(tmp_path / "run")]
                          + TestRun.ARGS)
        assert r.exit_code == 0, r.output
        assert len(calls) == 1


COMMANDS = sorted(main.commands)

# Out-of-range or removed options, by command; a command missing here fails
# this module's collection.
BAD_OPTIONS = {
    "run": [("--workers", "1"), ("--max-iter", "0"), ("--max-iter", "-1"),
            ("--bound-n", "99"), ("--bound-n", "-5"), ("--n-per-iter", "0"),
            ("--rho", "2"), ("--rho", "-0.1"), ("--seed", "-1"),
            ("--max-frontier", "-3"), ("--n", "99")],
    "crude": [("--seed", "-1"), ("--workers", "1"), ("--n", "0"),
              ("--n", "99")],
    "fit": [("--seed", "-1"), ("--k-list", "0"), ("--k-list", "-1")],
}


def test_commands_are_fit_run_and_crude():
    assert set(main.commands) == {"fit", "run", "crude"}


@pytest.mark.parametrize("command, option, value", [
    (command, option, value) for command in COMMANDS
    for option, value in BAD_OPTIONS[command]])
def test_out_of_range_option_exit_2(runner, model_1d, data_csv, tmp_path,
                                    command, option, value):
    if command == "fit":
        args = ["fit", data_csv]
    else:
        args = [command, model_1d, "--analytic", "mixture-tail",
                "--analytic-params", '{"gamma": 3.0}']
    r = runner.invoke(main, args + ["--out", str(tmp_path / "out"), option,
                                    value])
    assert r.exit_code == cli.EXIT_INPUT, r.output
    assert "Traceback" not in r.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_unusable_out_exit_2(runner, model_1d, data_csv, tmp_path, command,
                             monkeypatch):
    """--out naming a file, or a path below one, is rejected as the options
    are parsed, before any fit, procedure or sampling runs."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before --out was checked")
    for module, name in [(accel, "run_procedure"), (accel, "estimate"),
                         (tgmm, "fit")]:
        monkeypatch.setattr(module, name, must_not_run)
    afile = tmp_path / "afile"
    afile.write_text("")
    if command == "fit":
        args = ["fit", data_csv, "--k-list", "1"]
    else:
        args = [command, model_1d, "--analytic", "mixture-tail",
                "--analytic-params", '{"gamma": 3.0}', "--n", "500"]
    for out, message in [(afile, "is a file"), (afile / "sub", "lies below the file"),
                         (afile / "sub" / "deeper", "lies below the file")]:
        r = runner.invoke(main, args + ["--out", str(out)])
        assert r.exit_code == cli.EXIT_INPUT, r.output
        assert isinstance(r.exception, SystemExit)
        assert message in r.output
    assert afile.read_text() == ""


@pytest.mark.parametrize("failing_call", [1, 3])
def test_failed_replace_exit_2_leaves_no_tmp(runner, model_1d, tmp_path,
                                             monkeypatch, failing_call):
    real, calls = os.replace, []

    def replace(src, dst):
        calls.append(src)
        if len(calls) == failing_call:
            raise OSError("disk full")
        real(src, dst)
    monkeypatch.setattr(os, "replace", replace)
    out = tmp_path / "out"
    r = runner.invoke(main, ["run", model_1d, "--out", str(out)]
                      + TestRun.ARGS + ["--n", "500"])
    assert r.exit_code == cli.EXIT_INPUT, r.output
    assert "cannot write --out" in r.output and "Traceback" not in r.output
    assert len(calls) == failing_call
    assert not list(out.glob("*.tmp"))
    assert len(os.listdir(out)) == failing_call - 1


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_records_click_options(runner, model_1d, data_csv, tmp_path,
                                        command):
    out = tmp_path / "out"
    if command == "fit":
        args = ["fit", data_csv, "--k-list", "1,2"]
    else:
        args = [command, model_1d, "--analytic", "mixture-tail",
                "--analytic-params", '{"gamma": 3.0}', "--n", "500"]
    r = runner.invoke(main, args + ["--out", str(out)])
    assert r.exit_code == 0, r.output
    manifest = json.loads((out / "manifest.json").read_text())
    params = [p.name for p in main.commands[command].params]
    assert manifest["command"] == command
    assert sorted(manifest["options"]) == sorted(params)
    assert manifest["options"]["out"] == str(out)
    if command == "fit":
        assert manifest["options"]["k_list"] == [1, 2]


def test_standardized_model_round_trip(runner, data_csv, tmp_path):
    """fit + run: the indicator is evaluated in original coordinates even
    though the model lives in standardized ones."""
    out = tmp_path / "fit"
    r = runner.invoke(main, ["fit", data_csv, "--k-list", "2",
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    run_out = tmp_path / "run"
    r = runner.invoke(main, ["run", str(out / "model.json"),
                             "--analytic", "halfspace", "--analytic-params",
                             '{"w": [1.0, 1.0], "gamma": 7.0}',
                             "--n", "4000", "--n-per-iter", "300",
                             "--max-iter", "3", "--out", str(run_out)])
    assert r.exit_code == 0, r.output
    report = json.loads((run_out / "report.json").read_text())
    assert 0.0 < report["p_hat"] < 1.0


def test_import_loads_no_scipy_stats_or_integrate():
    # both are slow to import; only d >= 4 rectangle probabilities need
    # scipy.stats (its Sobol points), and nothing needs scipy.integrate
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rareis.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
