import filecmp
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from rareis import accel, cli, tgmm
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

    def test_missing_file_exit_2(self, runner, tmp_path):
        r = runner.invoke(main, ["fit", str(tmp_path / "nope.csv")])
        assert r.exit_code == cli.EXIT_INPUT

    def test_bad_k_list_exit_2(self, runner, data_csv):
        r = runner.invoke(main, ["fit", data_csv, "--k-list", "two"])
        assert r.exit_code == cli.EXIT_INPUT

    def test_non_numeric_csv_exit_2(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n1.0,oops\n")
        r = runner.invoke(main, ["fit", str(path)])
        assert r.exit_code == cli.EXIT_INPUT
        assert "line 2" in r.output

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
        monkeypatch.setattr(tgmm, "em_step", lambda y, m, resp=None: far)
        r = runner.invoke(main, ["fit", data_csv, "--k-list", "1"])
        assert r.exit_code == cli.EXIT_FIT
        assert "non-finite log-likelihood" in r.output


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
        assert len(trace) == 5001
        final = float(trace[-1].split(",")[1])
        assert final == pytest.approx(report["p_hat"], rel=1e-12)

    def test_bound_n_populates_bounds(self, runner, model_1d, tmp_path):
        out = tmp_path / "run"
        r = runner.invoke(main, ["run", model_1d, "--out", str(out),
                                 "--bound-n", "2000"] + self.ARGS)
        assert r.exit_code == 0, r.output
        report = json.loads((out / "report.json").read_text())
        lo, up = report["bounds"]
        assert 0.0 <= lo <= up <= 1.0

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

    def test_workers_two_deterministic(self, runner, model_1d, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = runner.invoke(main, ["run", model_1d, "--out", str(out),
                                     "--workers", "2"] + self.ARGS)
            assert r.exit_code == 0, r.output
            outs.append(out)
        assert filecmp.cmp(outs[0] / "report.json", outs[1] / "report.json",
                           shallow=False)
        assert filecmp.cmp(outs[0] / "trace.csv", outs[1] / "trace.csv",
                           shallow=False)

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

    def test_corrupt_model_exit_2(self, runner, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        r = runner.invoke(main, ["run", str(path), "--analytic", "mixture-tail",
                                 "--analytic-params", '{"gamma": 3.0}'])
        assert r.exit_code == cli.EXIT_INPUT

    @pytest.mark.parametrize("command", ["run", "crude", "bench"])
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

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_piece_blowup_exit_5(self, runner, tmp_path, command):
        # the default --max-frontier 12 at d = 5: 5^12 outer pieces
        model = tmp_path / "model.json"
        model.write_text(tgmm.model_to_json(TruncatedGMM(
            [1.0], [GaussComponent(np.zeros(5), np.eye(5))], Rect.unbounded(5))))
        params = json.dumps({"w": [5 ** -0.5] * 5, "gamma": 4.0})
        extra = ["--out", str(tmp_path / "run")] if command == "run" else []
        r = runner.invoke(main, [command, str(model), "--analytic", "halfspace",
                                 "--analytic-params", params] + extra)
        assert r.exit_code == cli.EXIT_SOLVER
        assert isinstance(r.exception, SystemExit)
        assert "error: d^|s0| = 5^12 exceeds 1e6" in r.output
        assert "Traceback" not in r.output


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


class TestBench:
    def test_table_and_efficiency(self, runner, model_1d):
        r = runner.invoke(main, ["bench", model_1d, "--analytic",
                                 "mixture-tail", "--analytic-params",
                                 '{"gamma": 3.0}', "--n", "5000",
                                 "--n-per-iter", "300", "--max-iter", "3",
                                 "--seed", "4"])
        assert r.exit_code == 0, r.output
        lines = r.output.strip().splitlines()
        assert lines[0] == "estimator,p_hat,stderr,crude_equiv_n,efficiency"
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert set(rows) == {"is", "crude"}
        assert float(rows["is"][4]) > 10 * float(rows["crude"][4])

    def test_small_n_exit_2(self, runner, model_1d):
        r = runner.invoke(main, ["bench", model_1d, "--analytic",
                                 "mixture-tail", "--analytic-params",
                                 '{"gamma": 3.0}', "--n", "50"])
        assert r.exit_code == cli.EXIT_INPUT


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
