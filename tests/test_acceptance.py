"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or rely on the
captured-output section of a failure) so the release checklist can be read
straight off the log.
"""

import contextlib
import filecmp
import json
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import ndtr, ndtri

from rareis import accel, tgmm
from rareis.accel import build_is, crude_equiv_n, estimate, run_procedure
from rareis.cli import main
from rareis.dompoints import solve_piece
from rareis.frontier import (DirectionMask, FrontierStore, bound_indicators,
                             insert)
from rareis.gauss import GaussComponent, Rect, trunc_moments
from rareis.scenario import analytic_scenario
from rareis.tgmm import TruncatedGMM, fit, gmm_sample


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print("[FAIL] %s" % name)
        raise
    print("[PASS] %s" % name)


def std_gmm(d):
    return TruncatedGMM([1.0], [GaussComponent(np.zeros(d), np.eye(d))],
                        Rect.unbounded(d))


def test_criterion_1_analytic_tail_reproduction():
    """Full pipeline on the N(0,1) gamma=4 tail: 5% accuracy, CI coverage."""
    with criterion("analytic tail reproduction"):
        truth = 3.16712e-5
        gmm = std_gmm(1)
        ind, _, mask = analytic_scenario("mixture-tail", {"gamma": 4.0})
        t0 = time.time()
        covered = 0
        p_hats = []
        for seed in range(100):
            _, q = run_procedure(ind, gmm, mask, n_per_iter=300, max_iter=3,
                                 seed=seed)
            rep = estimate(ind, gmm, q, 10_000, seed=10_000 + seed)
            p_hats.append(rep.p_hat)
            if rep.ci95[0] <= truth <= rep.ci95[1]:
                covered += 1
        elapsed = time.time() - t0
        assert abs(p_hats[0] / truth - 1.0) < 0.05
        assert covered >= 90, "CI covered truth in %d/100 replications" % covered
        assert elapsed < 10.0, "runtime %.1fs" % elapsed


def test_criterion_2_desk_scale_efficiency(tmp_path):
    """run's efficiency, crude_equiv_n / n_samples, >= 10 on the 3-D monotone
    scenario, truth ~1e-5."""
    with criterion("desk-scale efficiency (3-D scenario)"):
        t0 = time.time()
        model_path = tmp_path / "model.json"
        model_path.write_text(tgmm.model_to_json(std_gmm(3)))
        w = float(1.0 / np.sqrt(3.0))
        gamma = float(-ndtri(1e-5))
        params = json.dumps({"w": [w, w, w], "gamma": gamma})
        out = tmp_path / "run"
        r = CliRunner().invoke(main, ["run", str(model_path), "--analytic",
                                      "halfspace", "--analytic-params", params,
                                      "--n", "10000", "--seed", "1",
                                      "--out", str(out)])
        assert r.exit_code == 0, r.output
        report = json.loads((out / "report.json").read_text())
        efficiency = report["crude_equiv_n"] / report["n_samples"]
        p_hat = report["p_hat"]
        assert efficiency >= 10.0, "efficiency %.1f" % efficiency
        # truth ~1e-5, pinned once by a 1e8-sample crude MC sweep
        assert abs(p_hat / 1.0e-5 - 1.0) < 0.3
        assert time.time() - t0 < 300.0


def test_criterion_3_crude_equivalent_sample_size():
    """Eq-style crude-equivalent n reproduces the ~2.56e7 reference figure."""
    with criterion("crude-equivalent sample size"):
        ci = (1.02e-6, 1.97e-6)
        p_mid = 0.5 * (ci[0] + ci[1])
        half_width = 0.5 * (ci[1] - ci[0])
        n_eq = crude_equiv_n(p_mid, half_width / 1.96)
        assert abs(n_eq / 2.56e7 - 1.0) < 0.10, "n_eq %.3g" % n_eq


def fit_one(y, K, support, **kw):
    """The (model, FitReport) of fit(y, [K], support, **kw); raises the
    error that failed K."""
    out, = fit(y, [K], support, **kw)
    if isinstance(out, Exception):
        raise out
    return out


def test_criterion_4_em_parameter_recovery(truncated_2comp_2d):
    """EM on 1e5 truncated-GMM samples recovers all parameters to 0.05."""
    with criterion("EM parameter recovery"):
        t0 = time.time()
        true = truncated_2comp_2d
        rng = np.random.default_rng(42)
        y = gmm_sample(100_000, true, rng)
        model, report = fit_one(y, 2, true.support, init_seed=0)
        ll = np.array(report.loglik_trace)
        assert np.all(np.diff(ll) >= -1e-9), "log-likelihood decreased"
        # match fitted components to the generators by mean distance
        order = min(((0, 1), (1, 0)), key=lambda p: sum(
            np.linalg.norm(model.components[p[i]].mean - true.components[i].mean)
            for i in range(2)))
        for i in range(2):
            j = order[i]
            assert abs(model.weights[j] - true.weights[i]) < 0.05
            assert np.all(np.abs(model.components[j].mean
                                 - true.components[i].mean) < 0.05)
            assert np.all(np.abs(model.components[j].cov
                                 - true.components[i].cov) < 0.05)
        assert time.time() - t0 < 120.0


def _leggauss_moments(c, r, nodes=48):
    """Independent oracle: tensor Gauss-Legendre quadrature on a finite box."""
    from rareis.gauss import log_densities
    x1, w1 = np.polynomial.legendre.leggauss(nodes)
    axes, wts = [], []
    for lo, up in zip(r.lower, r.upper):
        axes.append(0.5 * (up - lo) * x1 + 0.5 * (up + lo))
        wts.append(0.5 * (up - lo) * w1)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    wmesh = np.meshgrid(*wts, indexing="ij")
    weight = np.prod(np.stack([m.ravel() for m in wmesh], axis=1), axis=1)
    dens = weight * np.exp(log_densities(pts, [c])[0])
    z = dens.sum()
    m1 = (dens[:, None] * pts).sum(axis=0) / z
    m2 = (dens[:, None, None] * pts[:, :, None] * pts[:, None, :]).sum(axis=0) / z
    return m1, m2


def test_criterion_5_truncated_moments():
    """trunc_moments vs quadrature on 20 randomized cases; exact half-normal."""
    with criterion("truncated-moment correctness"):
        (m1,), (m2,) = trunc_moments([GaussComponent([0.0], [[1.0]])],
                                     Rect([0.0], [np.inf]))
        assert abs(m1[0] - np.sqrt(2.0 / np.pi)) < 1e-10
        assert abs(m2[0, 0] - 1.0) < 1e-10
        rng = np.random.default_rng(314)
        dims = [1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3]
        for case, d in enumerate(dims):
            A = rng.standard_normal((d, d))
            c = GaussComponent(rng.normal(0, 1, d), A @ A.T + 0.5 * np.eye(d))
            sd = np.sqrt(np.diag(c.cov))
            lo = c.mean - rng.uniform(0.3, 2.0, d) * sd
            r = Rect(lo, lo + rng.uniform(0.8, 3.0, d) * sd)
            (dev1,), (dev2,) = trunc_moments([c], r)
            got1 = c.mean + dev1
            got2 = (dev2 + np.outer(c.mean, dev1) + np.outer(dev1, c.mean)
                    + np.outer(c.mean, c.mean))
            ref1, ref2 = _leggauss_moments(c, r)
            scale1 = np.linalg.norm(ref1) + 1.0
            scale2 = np.linalg.norm(ref2) + 1.0
            assert np.linalg.norm(got1 - ref1) / scale1 < 1e-3, "case %d" % case
            assert np.linalg.norm(got2 - ref2) / scale2 < 1e-3, "case %d" % case


def _brute_minima(points):
    pts = [tuple(p) for p in points]
    return {p for p in pts
            if not any(q != p and all(a <= b for a, b in zip(q, p))
                       for q in pts)}


def _brute_maxima(points):
    pts = [tuple(p) for p in points]
    return {p for p in pts
            if not any(q != p and all(a >= b for a, b in zip(q, p))
                       for q in pts)}


def test_criterion_6_monotone_learner_exactness():
    """Frontier equals brute-force Pareto scans; sandwich has no violations."""
    with criterion("monotone learner exactness"):
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            w = rng.uniform(0.2, 1.0, d)
            thresh = float(rng.uniform(1.0, 3.0))
            pts = rng.uniform(0, 4, size=(int(rng.integers(1, 30)), d))
            hits = (pts @ w >= thresh).astype(int)
            rare = [tuple(p) for p, h in zip(pts, hits) if h]
            safe = [tuple(p) for p, h in zip(pts, hits) if not h]
            s = insert(FrontierStore(DirectionMask(np.ones(d))), pts, hits)
            assert {tuple(r) for r in s.s1} == _brute_minima(rare)
            assert {tuple(r) for r in s.s0} == _brute_maxima(safe)
        for rep in range(10):
            d = int(rng.integers(2, 4))
            w = rng.uniform(0.3, 1.5, d)
            thresh = float(rng.uniform(2.0, 4.0))
            truth = lambda X: (np.atleast_2d(X) @ w >= thresh).astype(int)
            pts = rng.uniform(0, 4, size=(300, d))
            s = insert(FrontierStore(DirectionMask(np.ones(d))), pts, truth(pts))
            X = rng.uniform(0, 4, size=(10_000, d))
            inner, outer = bound_indicators(s, X)
            t = truth(X)
            assert np.all(inner <= t), "inner violation, set %d" % rep
            assert np.all(t <= outer), "outer violation, set %d" % rep


def _grid_argmax(c, lower, upper, span=6.0, stages=4, coarse=60):
    from rareis.gauss import log_densities
    lo = np.where(np.isfinite(lower), lower, c.mean - span)
    hi = np.where(np.isfinite(upper), upper, c.mean + span)
    best = None
    width = hi - lo
    for _ in range(stages):
        axes = [np.linspace(l, h, coarse) for l, h in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        best = pts[np.argmax(log_densities(pts, [c])[0])]
        width = width / coarse * 4.0
        lo = np.maximum(np.where(np.isfinite(lower), lower, -np.inf),
                        best - width)
        hi = np.minimum(np.where(np.isfinite(upper), upper, np.inf),
                        best + width)
    # polish the grid point with an off-the-shelf bounded quasi-Newton solver
    from scipy.optimize import minimize
    H = np.linalg.inv(c.cov)
    res = minimize(lambda x: 0.5 * (x - c.mean) @ H @ (x - c.mean), best,
                   jac=lambda x: H @ (x - c.mean),
                   bounds=[(l if np.isfinite(l) else None,
                            h if np.isfinite(h) else None)
                           for l, h in zip(lower, upper)],
                   method="L-BFGS-B",
                   options={"ftol": 1e-15, "gtol": 1e-12})
    return res.x


def test_criterion_7_dominating_points():
    """solve_piece vs grid argmax on 50 correlated cases; diagonal clamps."""
    with criterion("dominating-point correctness"):
        for seed in range(50):
            rng = np.random.default_rng(5000 + seed)
            d = int(rng.integers(2, 4))
            A = rng.standard_normal((d, d))
            c = GaussComponent(rng.normal(0, 1, d), A @ A.T + 0.4 * np.eye(d))
            lo = np.where(rng.random(d) < 0.7, rng.normal(0.5, 1, d), -np.inf)
            base = np.where(np.isfinite(lo), lo, rng.normal(0.5, 1, d))
            hi = np.where(rng.random(d) < 0.4, base + rng.uniform(1, 3, d),
                          np.inf)
            dp = solve_piece(c, lo, hi)
            ref = _grid_argmax(c, lo, hi)
            assert np.linalg.norm(dp.point - ref) < 2e-3, "case %d" % seed
            assert dp.kkt_residual <= 1e-6
        rng = np.random.default_rng(77)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            c = GaussComponent(rng.normal(0, 2, d),
                               np.diag(rng.uniform(0.2, 3, d)))
            lo = rng.normal(0, 1, d)
            hi = lo + rng.uniform(0.5, 3, d)
            dp = solve_piece(c, lo, hi)
            assert np.allclose(dp.point, np.clip(c.mean, lo, hi), atol=1e-9)


def _suite_is_distributions():
    """The IS distributions exercised across the test suite, rebuilt here.

    Shifts are kept moderate so the empirical stderr of the likelihood
    ratio is a meaningful yardstick for the total-mass identity.
    """
    out = []
    g1 = std_gmm(1)
    out.append((g1, build_is(g1, [[]], [[np.array([0.5])]], 0.0)))
    out.append((g1, build_is(g1, [[]],
                             [[np.array([0.5]), np.array([1.0])]], 0.0)))
    out.append((g1, build_is(g1, [[np.array([1.0])]],
                             [[np.array([0.5])]], 0.5)))
    trunc = TruncatedGMM([1.0], [GaussComponent([0.5], [[1.0]])],
                         Rect([0.0], [np.inf]))
    out.append((trunc, build_is(trunc, [[]], [[np.array([1.0])]], 0.0)))
    comps = [GaussComponent([0.0, 0.0], np.eye(2)),
             GaussComponent([2.0, 1.0], [[1.0, 0.3], [0.3, 1.0]])]
    g2 = TruncatedGMM([0.4, 0.6], comps, Rect.unbounded(2))
    out.append((g2, build_is(g2, [[]],
                             [[np.array([0.7, 0.7])], [np.array([2.0, 1.5])]],
                             0.0)))
    return out


def test_criterion_8_estimator_soundness():
    """Total-mass identity on every suite IS distribution; tail bias check."""
    with criterion("estimator soundness"):
        one = lambda X: np.ones(np.atleast_2d(X).shape[0], dtype=int)
        for i, (gmm, q) in enumerate(_suite_is_distributions()):
            rep = estimate(one, gmm, q, 20_000, seed=60 + i)
            assert abs(rep.p_hat - 1.0) <= 3 * rep.stderr, "distribution %d" % i
        gmm = std_gmm(1)
        ind, truth_fn, mask = analytic_scenario("mixture-tail", {"gamma": 4.0})
        truth = truth_fn(gmm)
        _, q = run_procedure(ind, gmm, mask, n_per_iter=300, max_iter=3, seed=8)
        p_hats = np.array([estimate(ind, gmm, q, 1000, seed=3000 + r).p_hat
                           for r in range(200)])
        se_mean = p_hats.std(ddof=1) / np.sqrt(200)
        assert abs(p_hats.mean() - truth) < 3 * se_mean


def _rerun_from_manifest(out_dir, new_out):
    """Replay a command exactly as recorded in its manifest."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        doc = json.load(fh)
    args = [doc["command"]]
    opts = dict(doc["options"])
    for positional in ("csv_path", "model_path"):
        if positional in opts:
            args.append(opts.pop(positional))
    opts["out"] = new_out
    for key, value in sorted(opts.items()):
        if value is None or value is False:
            continue
        if value is True:  # a switch such as --bounds
            args.append("--%s" % key.replace("_", "-"))
            continue
        if key == "k_list":
            value = ",".join(str(k) for k in value)
        args += ["--%s" % key.replace("_", "-"), str(value)]
    r = CliRunner().invoke(main, args)
    assert r.exit_code == 0, r.output
    return r


def _assert_dirs_match(a, b):
    for fname in sorted(os.listdir(a)):
        if fname == "manifest.json":
            continue  # carries a wall-clock duration field
        assert filecmp.cmp(os.path.join(a, fname), os.path.join(b, fname),
                           shallow=False), fname


def test_criterion_9_cli_determinism(tmp_path):
    """Every command replayed from its manifest is byte-identical."""
    with criterion("CLI determinism"):
        rng = np.random.default_rng(17)
        data = tmp_path / "data.csv"
        np.savetxt(data, rng.normal(0, 1, size=(300, 1)), delimiter=",")
        runner = CliRunner()

        fit_a = str(tmp_path / "fit_a")
        r = runner.invoke(main, ["fit", str(data), "--k-list", "1,2",
                                 "--out", fit_a])
        assert r.exit_code == 0, r.output
        _rerun_from_manifest(fit_a, str(tmp_path / "fit_b"))
        _assert_dirs_match(fit_a, str(tmp_path / "fit_b"))

        model = str(tmp_path / "model.json")
        with open(model, "w") as fh:
            fh.write(tgmm.model_to_json(std_gmm(1)))
        scenario_args = ["--analytic", "mixture-tail", "--analytic-params",
                         '{"gamma": 3.0}']
        run_a = str(tmp_path / "run_a")
        r = runner.invoke(main, ["run", model, "--n", "4000",
                                 "--n-per-iter", "300", "--max-iter", "3",
                                 "--seed", "5", "--bounds", "--out", run_a]
                           + scenario_args)
        assert r.exit_code == 0, r.output
        _rerun_from_manifest(run_a, str(tmp_path / "run_b"))
        _assert_dirs_match(run_a, str(tmp_path / "run_b"))

        crude_a = str(tmp_path / "crude_a")
        r = runner.invoke(main, ["crude", model, "--n", "4000", "--seed", "5",
                                 "--out", crude_a] + scenario_args)
        assert r.exit_code == 0, r.output
        _rerun_from_manifest(crude_a, str(tmp_path / "crude_b"))
        _assert_dirs_match(crude_a, str(tmp_path / "crude_b"))
