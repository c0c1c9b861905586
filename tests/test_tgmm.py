import numpy as np
import pytest
from click.testing import CliRunner

from rareis import gauss, tgmm
from rareis.cli import main
from rareis.gauss import GaussComponent, Rect, log_density
from rareis.tgmm import (AffineStandardizer, TruncatedGMM, bic, em_step, fit,
                         gmm_log_density, gmm_sample, model_from_json,
                         model_to_json, n_free_parameters, responsibilities,
                         standardize)


def single_gaussian(mu=0.0, var=1.0):
    return TruncatedGMM([1.0], [GaussComponent([mu], [[var]])], Rect.unbounded(1))


def updates_to(model):
    """An EM update task, like tgmm._em_update, that returns model."""
    def update(y, m, resp):
        return model
        yield  # a generator, like the tasks it stands in for
    return update


def count_calls(monkeypatch, *names):
    """Wraps each named tgmm function; returns name -> calls so far."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(tgmm, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(tgmm, name, counted)
    return calls


class TestGmmLogDensity:
    def test_single_component_unbounded(self):
        m = single_gaussian(0.3, 1.5)
        x = np.array([0.9])
        assert gmm_log_density(x, m) == pytest.approx(
            log_density(x, m.components[0]), abs=1e-12)

    def test_outside_support_sentinel(self):
        support = Rect([0.0], [np.inf])
        m = TruncatedGMM([1.0], [GaussComponent([1.0], [[1.0]])], support)
        assert gmm_log_density(np.array([-0.5]), m) == -np.inf

    def test_symmetric_two_component(self):
        comps = [GaussComponent([-1.0], [[1.0]]), GaussComponent([1.0], [[1.0]])]
        m = TruncatedGMM([0.5, 0.5], comps, Rect.unbounded(1))
        # both components contribute the same density at the midpoint
        expected = log_density(np.array([0.0]), comps[0])
        assert gmm_log_density(np.array([0.0]), m) == pytest.approx(expected, rel=1e-12)


def random_components(rng, d, n_factors, per_factor):
    """n_factors covariances, each shared by per_factor components."""
    comps = []
    for _ in range(n_factors):
        A = rng.standard_normal((d, d))
        cov = A @ A.T + 0.3 * np.eye(d)
        comps += [GaussComponent(rng.normal(0.0, 1.5, d), cov)
                  for _ in range(per_factor)]
    return comps


def oracle_log_density(X, c):
    """Explicit inverse covariance and determinant: independent of the kernel."""
    dev = X - c.mean
    _, logdet = np.linalg.slogdet(c.cov)
    quad = np.einsum("ni,ij,nj->n", dev, np.linalg.inv(c.cov), dev)
    return -0.5 * (c.dim * np.log(2 * np.pi) + logdet + quad)


class TestLogDensityKernel:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n_factors,per_factor", [(1, 7), (5, 1), (3, 4)])
    def test_matches_explicit_inverse(self, d, n_factors, per_factor):
        rng = np.random.default_rng(100 * d + n_factors)
        comps = random_components(rng, d, n_factors, per_factor)
        X = rng.normal(0.0, 2.0, size=(9000, d))  # three row blocks
        got = gauss.log_densities(X, comps)
        assert got.shape == (len(comps), X.shape[0])
        for k, c in enumerate(comps):
            assert np.allclose(got[k], oracle_log_density(X, c), rtol=1e-12, atol=0)
        w = rng.uniform(0.5, 1.5, len(comps))
        support = Rect(np.full(d, -np.inf), np.full(d, np.inf))
        m = TruncatedGMM(w / w.sum(), comps, support)
        want = np.log(sum(wk * np.exp(oracle_log_density(X, c))
                          for wk, c in zip(m.weights, comps)))
        assert np.allclose(gmm_log_density(X, m), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_batch_invariant(self, d):
        """Row i and component k are bit for bit the same whatever else is
        in the call: one row, seven, 1000 or the rows reversed, and the
        component alone or with others sharing its factor."""
        rng = np.random.default_rng(200 + d)
        comps = random_components(rng, d, 3, 4)
        support = Rect(np.full(d, -2.5), np.full(d, np.inf))
        m = TruncatedGMM(np.full(len(comps), 1.0 / len(comps)), comps, support)
        X = rng.normal(0.0, 1.5, size=(1000, d))
        full = gmm_log_density(X, m)
        assert np.isneginf(full).any() and np.isfinite(full).any()
        many = np.concatenate([rng.normal(0.0, 1.5, size=(8000, d)), X])  # row blocks
        assert gmm_log_density(many, m)[8000:].tobytes() == full.tobytes()
        assert gmm_log_density(X[:7], m).tobytes() == full[:7].tobytes()
        assert gmm_log_density(X[::-1], m).tobytes() == full[::-1].tobytes()
        for i in range(20):
            assert gmm_log_density(X[i], m) == full[i]
            assert gmm_log_density(X[i:i + 1], m).tobytes() == full[i:i + 1].tobytes()
        ld = gauss.log_densities(X, comps)
        for k in (0, 5, 11):
            assert gauss.log_densities(X, comps[k:k + 1])[0].tobytes() == ld[k].tobytes()

    def test_dimension_mismatch(self):
        comps = [GaussComponent(np.zeros(2), np.eye(2))]
        with pytest.raises(ValueError, match="dimension mismatch"):
            gauss.log_densities(np.zeros((4, 3)), comps)


class TestResponsibilities:
    def test_single_component_all_ones(self, rng):
        m = single_gaussian()
        y = rng.standard_normal((50, 1))
        assert np.allclose(responsibilities(y, m), 1.0)

    def test_symmetric_midpoint(self):
        comps = [GaussComponent([-1.0], [[1.0]]), GaussComponent([1.0], [[1.0]])]
        m = TruncatedGMM([0.5, 0.5], comps, Rect.unbounded(1))
        r = responsibilities(np.array([[0.0]]), m)
        assert np.allclose(r, [[0.5, 0.5]])

    def test_three_component_hand_oracle(self):
        mus = [-2.0, 0.0, 1.5]
        w = np.array([0.2, 0.5, 0.3])
        comps = [GaussComponent([mu], [[1.0]]) for mu in mus]
        m = TruncatedGMM(w, comps, Rect.unbounded(1))
        x = 0.7
        dens = w * np.array([np.exp(-0.5 * (x - mu) ** 2) / np.sqrt(2 * np.pi)
                             for mu in mus])
        r = responsibilities(np.array([[x]]), m)
        assert np.allclose(r[0], dens / dens.sum(), rtol=1e-10)

    def test_rows_sum_to_one(self, rng, truncated_2comp_2d):
        y = gmm_sample(500, truncated_2comp_2d, rng)
        r = responsibilities(y, truncated_2comp_2d)
        assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)

    def test_totals_are_the_log_density(self, rng, truncated_2comp_2d):
        y = gmm_sample(500, truncated_2comp_2d, rng)
        r, tot = responsibilities(y, truncated_2comp_2d, return_totals=True)
        assert r.tobytes() == responsibilities(y, truncated_2comp_2d).tobytes()
        assert np.allclose(tot, gmm_log_density(y, truncated_2comp_2d),
                           rtol=0, atol=1e-12)


def test_logsumexp_rows_matches_scipy(rng):
    """One value per observation, from the (K, n) component-major layout."""
    from scipy.special import logsumexp
    a = rng.normal(0.0, 30.0, size=(1000, 3))
    a[0] = -np.inf
    a[1, 0] = -np.inf
    got = tgmm._logsumexp(a.T.copy())
    want = logsumexp(a, axis=1)
    assert got[0] == -np.inf
    assert np.allclose(got[1:], want[1:], rtol=1e-14, atol=0)


class TestEmStep:
    def test_unbounded_k1_matches_sample_moments(self, rng):
        y = rng.normal(0.5, 1.3, size=(2000, 1))
        m = single_gaussian()
        out = em_step(y, m)
        assert out.components[0].mean[0] == pytest.approx(y.mean(), abs=1e-10)
        assert out.components[0].cov[0, 0] == pytest.approx(y.var(), rel=1e-8)

    def test_unbounded_reduces_to_ordinary_m_step(self, rng):
        # corrections vanish: compare to an independent ordinary GMM M-step
        comps = [GaussComponent([-1.0, 0.0], np.eye(2)),
                 GaussComponent([1.5, 0.5], np.eye(2))]
        m = TruncatedGMM([0.5, 0.5], comps, Rect.unbounded(2))
        y = rng.standard_normal((400, 2)) + rng.choice([-1.0, 1.0], size=(400, 1))
        resp = responsibilities(y, m)
        out = em_step(y, m)
        for k in range(2):
            nk = resp[:, k].sum()
            mu = resp[:, k] @ y / nk
            dev = y - mu
            cov = (resp[:, k][:, None] * dev).T @ dev / nk
            assert np.allclose(out.weights[k], nk / 400, atol=1e-12)
            assert np.allclose(out.components[k].mean, mu, atol=1e-8)
            assert np.allclose(out.components[k].cov, cov, atol=1e-8)

    def test_truncated_1d_fixed_point_matches_grid_mle(self, rng):
        # oracle: grid search of the truncated-normal log-likelihood, step 0.01
        support = Rect([0.0], [np.inf])
        true = TruncatedGMM([1.0], [GaussComponent([0.4], [[1.0]])], support)
        y = gmm_sample(20_000, true, rng)
        m, _ = fit(y, 1, support, init_seed=0, restarts=1)

        from scipy.special import ndtr
        best = None
        for mu in np.arange(-0.5, 1.3, 0.01):
            for sd in np.arange(0.6, 1.5, 0.01):
                z = (y[:, 0] - mu) / sd
                ll = (-0.5 * z ** 2 - np.log(sd) - 0.5 * np.log(2 * np.pi)
                      - np.log(ndtr(mu / sd))).sum()
                if best is None or ll > best[0]:
                    best = (ll, mu, sd)
        assert m.components[0].mean[0] == pytest.approx(best[1], abs=0.02)
        assert np.sqrt(m.components[0].cov[0, 0]) == pytest.approx(best[2], abs=0.02)

    def test_precomputed_responsibilities(self, rng, truncated_2comp_2d):
        y = gmm_sample(400, truncated_2comp_2d, rng)
        a = em_step(y, truncated_2comp_2d)
        b = em_step(y, truncated_2comp_2d, responsibilities(y, truncated_2comp_2d))
        assert model_to_json(a) == model_to_json(b)

    def test_spd_cholesky_tries_every_jitter(self):
        # the jitters run 1e-8..1e-3 times the mean diagonal (about 5e-9 to
        # 5e-4 here): only the largest one lifts an eigenvalue of -1e-4
        repaired = tgmm._spd_cholesky(np.diag([1.0, -1e-4]))
        assert np.all(np.linalg.eigvalsh(repaired) > 0)
        assert repaired[1, 1] == pytest.approx(-1e-4 + 1e-3 * (1 - 1e-4) / 2)
        with pytest.raises(np.linalg.LinAlgError, match="regularized to SPD"):
            tgmm._spd_cholesky(np.diag([1.0, -1e-2]))

    def test_dying_component_error(self, rng):
        comps = [GaussComponent([0.0], [[1.0]]), GaussComponent([500.0], [[1.0]])]
        m = TruncatedGMM([0.5, 0.5], comps, Rect.unbounded(1))
        y = rng.standard_normal((100, 1))
        with pytest.raises(tgmm.DyingComponentError):
            em_step(y, m)


class TestFit:
    def test_k1_standard_normal_consistency(self, rng):
        y = rng.standard_normal((100_000, 2))
        m, rep = fit(y, 1, Rect.unbounded(2), init_seed=1, restarts=1)
        assert np.all(np.abs(m.components[0].mean) < 0.02)
        assert np.abs(m.components[0].cov - np.eye(2)).max() < 0.05
        assert np.all(np.diff(rep.loglik_trace) >= -1e-9)

    def test_loop_contract(self, rng):
        y = rng.standard_normal((200, 1))
        _, rep = fit(y, 1, Rect.unbounded(1), init_seed=0, max_iter=5, tol=0.0,
                     restarts=1)
        assert rep.iterations == 5
        assert len(rep.loglik_trace) == 6
        assert not rep.converged

    def test_determinism(self, rng, truncated_2comp_2d):
        y = gmm_sample(2000, truncated_2comp_2d, rng)
        m1, r1 = fit(y, 2, truncated_2comp_2d.support, init_seed=5)
        m2, r2 = fit(y, 2, truncated_2comp_2d.support, init_seed=5)
        assert r1.loglik_trace == r2.loglik_trace
        for a, b in zip(m1.components, m2.components):
            assert a.mean.tobytes() == b.mean.tobytes()
            assert a.cov.tobytes() == b.cov.tobytes()

    def test_loglik_trace_and_bic_from_the_e_step(self, rng, truncated_2comp_2d):
        y = gmm_sample(1000, truncated_2comp_2d, rng)
        m, rep = fit(y, 2, truncated_2comp_2d.support, init_seed=1, restarts=1)
        ll = float(np.sum(gmm_log_density(y, m)))
        assert rep.loglik_trace[-1] == pytest.approx(ll, rel=1e-13)
        assert rep.bic == pytest.approx(bic(m, y), rel=1e-13)

    def test_trace_records_only_em_updates(self, rng, truncated_2comp_2d,
                                           monkeypatch):
        # two SQUAREM cycles and one more EM update: 7 EM updates, 8 entries,
        # and the extrapolated models are scored but not recorded
        calls = count_calls(monkeypatch, "_em_update", "_e_step")
        y = gmm_sample(500, truncated_2comp_2d, rng)
        _, rep = fit(y, 2, truncated_2comp_2d.support, max_iter=7, tol=0.0,
                     restarts=1)
        assert rep.iterations == calls["_em_update"] == 7
        assert len(rep.loglik_trace) == 8
        assert calls["_e_step"] > 8
        assert not rep.converged

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_loglik_raises(self, rng, monkeypatch):
        # a component mean so far out that every row's density is 0
        far = TruncatedGMM([1.0], [GaussComponent([1e200], [[1.0]])], Rect.unbounded(1))
        monkeypatch.setattr(tgmm, "_em_update", updates_to(far))
        with pytest.raises(RuntimeError, match="non-finite log-likelihood at iter"):
            fit(rng.standard_normal((50, 1)), 1, Rect.unbounded(1), restarts=1)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one(self, rng, restarts):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            fit(rng.standard_normal((50, 1)), 1, Rect.unbounded(1),
                restarts=restarts)

    def test_sample_floor(self, rng):
        with pytest.raises(ValueError):
            fit(rng.standard_normal((15, 1)), 2, Rect.unbounded(1))


def plain_em(y, K, support, init_seed=0, max_iter=500, tol=1e-7, restarts=3):
    """fit's restarts, start models and stop rule around unaccelerated EM.

    Returns the best restart's model and log-likelihood trace, and the EM
    steps of all restarts.
    """
    best, steps = None, 0
    for child in np.random.SeedSequence(init_seed).spawn(restarts):
        m = TruncatedGMM(*tgmm._init_model(y, K, np.random.default_rng(child)),
                         support)
        resp, tot = responsibilities(y, m, return_totals=True)
        trace = [float(np.sum(tot))]
        for _ in range(max_iter):
            m = em_step(y, m, resp)
            steps += 1
            resp, tot = responsibilities(y, m, return_totals=True)
            trace.append(float(np.sum(tot)))
            if abs(trace[-1] - trace[-2]) < tol * abs(trace[-1]):
                break
        if best is None or trace[-1] > best[1][-1]:
            best = (m, trace)
    return best + (steps,)


# K = 2 fits on 1,000 draws of conftest's truncated_2comp_2d mixture, on its
# support and on a box bounded on both sides in the first coordinate and
# below in the second, like the lane-change cut-in support.
PLAIN_EM_SUPPORTS = {"orthant": Rect([0.0, 0.0], [np.inf, np.inf]),
                     "cut-in box": Rect([0.0, 0.0], [3.5, np.inf])}


@pytest.fixture(scope="module")
def plain_em_fits():
    """support name -> (y, support) + plain_em(y, 2, support)."""
    comps = [GaussComponent([1.0, 0.8], [[0.5, 0.2], [0.2, 0.4]]),
             GaussComponent([3.0, 2.5], [[0.6, -0.15], [-0.15, 0.5]])]
    fits = {}
    for name, support in PLAIN_EM_SUPPORTS.items():
        y = gmm_sample(1000, TruncatedGMM([0.4, 0.6], comps, support),
                       np.random.default_rng(7))
        fits[name] = (y, support) + plain_em(y, 2, support)
    return fits


def assert_plain_em_answer(m, rep, plain_model, plain_trace):
    ll, plain_ll = rep.loglik_trace[-1], plain_trace[-1]
    assert ll >= plain_ll - 1e-6 * abs(plain_ll)
    assert ll == pytest.approx(plain_ll, rel=1e-6)
    # restarts may end with the components in another order
    order, plain_order = (np.argsort([c.mean[0] for c in x.components])
                          for x in (m, plain_model))
    assert np.allclose(m.weights[order], plain_model.weights[plain_order],
                       atol=1e-3)
    for i, j in zip(order, plain_order):
        assert np.allclose(m.components[i].mean,
                           plain_model.components[j].mean, atol=1e-2)
    assert np.all(np.diff(rep.loglik_trace) >= -1e-9 * abs(ll))


class TestSquarem:
    @pytest.mark.parametrize("support", sorted(PLAIN_EM_SUPPORTS))
    def test_beats_plain_em_in_fewer_steps(self, plain_em_fits, support,
                                           monkeypatch):
        y, rect, plain_model, plain_trace, plain_steps = plain_em_fits[support]
        calls = count_calls(monkeypatch, "_em_update")
        m, rep = fit(y, 2, rect)
        assert_plain_em_answer(m, rep, plain_model, plain_trace)
        assert calls["_em_update"] < plain_steps


# Ways to make fit's first extrapolated model invalid, each with the error it
# must raise: a huge step length, or values written into the extrapolated
# parameter vector (K = 2 in 2-D: weights [0:2], means [2:6], covariances
# [6:14]).  A mean at -60, in the data's or the standardized coordinates,
# leaves no mass on the cut-in box.
SPOILERS = {
    "huge step length": (tgmm.DyingComponentError, None, None),
    "non-positive weight": (tgmm.DyingComponentError, slice(0, 1), [-0.1]),
    "non-SPD covariance": (np.linalg.LinAlgError, slice(6, 10),
                           [1.0, 2.0, 2.0, 1.0]),
    "no mass on the support": (gauss.DegenerateTruncationError, slice(2, 4),
                               [-60.0, -60.0]),
}


def spoil_first_extrapolation(monkeypatch, spoiler, start=None):
    """Applies SPOILERS[spoiler]; returns the first extrapolation's errors.

    With start, the _params vector of a restart's start model, only that
    restart's first extrapolation is spoiled.
    """
    error, where, values = SPOILERS[spoiler]
    if where is None:
        monkeypatch.setattr(tgmm, "_s3_step_length", lambda r, v: -1e6)
    real = tgmm._from_params
    calls, raised = [], []

    def spoiled(m, t):
        if calls or (start is not None
                     and tgmm._params(m).tobytes() != start.tobytes()):
            return (yield from real(m, t))
        calls.append(None)
        if where is not None:
            t = t.copy()
            t[where] = values
        try:
            return (yield from real(m, t))
        except error as err:
            raised.append(err)
            raise
    monkeypatch.setattr(tgmm, "_from_params", spoiled)
    return raised


class TestSquaremSafeguard:
    @pytest.mark.parametrize("spoiler", list(SPOILERS))
    def test_invalid_extrapolation_falls_back(self, plain_em_fits, spoiler,
                                              monkeypatch):
        y, rect, plain_model, plain_trace, _ = plain_em_fits["cut-in box"]
        raised = spoil_first_extrapolation(monkeypatch, spoiler)
        m, rep = fit(y, 2, rect)
        assert len(raised) == 1
        assert_plain_em_answer(m, rep, plain_model, plain_trace)

    @pytest.mark.parametrize("spoiler", list(SPOILERS))
    def test_cli_fit_does_not_fail(self, plain_em_fits, spoiler, monkeypatch,
                                   tmp_path):
        path = tmp_path / "data.csv"
        np.savetxt(path, plain_em_fits["cut-in box"][0], delimiter=",")
        raised = spoil_first_extrapolation(monkeypatch, spoiler)
        r = CliRunner().invoke(main, ["fit", str(path), "--support",
                                      "0:3.5,0:inf", "--k-list", "2", "--out",
                                      str(tmp_path / "fit")])
        assert r.exit_code == 0, r.output
        assert len(raised) == 1


def loop_scored(y, m):
    resp, tot = responsibilities(y, m, return_totals=True)
    return m, resp, float(np.sum(tot))


def loop_squarem_update(y, s0, s1, s2):
    t0, t1, t2 = (tgmm._params(s[0]) for s in (s0, s1, s2))
    r, v = t1 - t0, t2 - 2.0 * t1 + t0
    alpha = tgmm._s3_step_length(r, v)
    while alpha < -1.0:
        try:
            m = tgmm._run(y, s0[0].support, tgmm._from_params(
                s0[0], t0 - 2.0 * alpha * r + alpha ** 2 * v))
            m, resp, ll = loop_scored(y, m)
            if ll >= s2[2]:
                return loop_scored(y, em_step(y, m, resp))
        except (ValueError, gauss.DegenerateTruncationError,
                tgmm.DyingComponentError):
            pass
        alpha = (alpha - 1.0) / 2.0 if alpha < -1.1 else -1.0
    return loop_scored(y, em_step(y, *s2[:2]))


def loop_restart(y, K, support, rng, max_iter, tol):
    cycle = [loop_scored(y, TruncatedGMM(*tgmm._init_model(y, K, rng), support))]
    trace = [cycle[0][2]]
    converged = False
    while len(trace) <= max_iter and not converged:
        try:
            if len(cycle) < 3:
                cycle.append(loop_scored(y, em_step(y, *cycle[-1][:2])))
            else:
                cycle = [loop_squarem_update(y, *cycle)]
        except ValueError as err:
            raise RuntimeError("non-finite log-likelihood at iteration %d: %s"
                               % (len(trace), err))
        trace.append(cycle[-1][2])
        converged = abs(trace[-1] - trace[-2]) < tol * abs(trace[-1])
    return cycle[-1][0], trace, converged


def loop_fit(y, K, support, init_seed=0, max_iter=500, tol=1e-7, restarts=3):
    """fit with its restarts run one after another, each model alone through
    em_step and responsibilities: the reference for the lockstep restarts."""
    best = None
    for child in np.random.SeedSequence(init_seed).spawn(restarts):
        out = loop_restart(y, K, support, np.random.default_rng(child),
                           max_iter, tol)
        if best is None or out[1][-1] > best[1][-1]:
            best = out
    model, trace, converged = best
    return model, tgmm.FitReport(trace, converged,
                                 bic(model, y, loglik=trace[-1]))


def assert_same_fit(got, want):
    (m, rep), (m0, rep0) = got, want
    assert rep.loglik_trace == rep0.loglik_trace
    assert (rep.iterations, rep.converged, rep.bic) == (
        rep0.iterations, rep0.converged, rep0.bic)
    assert m.weights.tobytes() == m0.weights.tobytes()
    for c, c0 in zip(m.components, m0.components, strict=True):
        assert c.mean.tobytes() == c0.mean.tobytes()
        assert c.cov.tobytes() == c0.cov.tobytes()


def watch_restarts(monkeypatch):
    """Gives restart i's models their own standardizer tags[i] and records
    each restart's outcome, (model, trace, converged) or its error."""
    tags, outcomes = [], []
    real = tgmm._restart

    def watched(y, K, support, rng, standardizer, *args):
        i = len(tags)
        tags.append(AffineStandardizer(np.zeros(y.shape[1]), np.ones(y.shape[1])))
        outcomes.append(None)
        try:
            outcomes[i] = yield from real(y, K, support, rng, tags[i], *args)
        except Exception as err:
            outcomes[i] = err
            raise
        return outcomes[i]
    monkeypatch.setattr(tgmm, "_restart", watched)
    return tags, outcomes


def spoil_start_model(monkeypatch, restart, component):
    """Moves one component of one restart's start model to (-60, -60)."""
    real = tgmm._init_model

    def spoiled(y, K, rng):
        w, comps = real(y, K, rng)
        if rng.bit_generator.seed_seq.spawn_key == (restart,):
            comps[component] = comps[component].moved_to(np.full(y.shape[1], -60.0))
        return w, comps
    monkeypatch.setattr(tgmm, "_init_model", spoiled)


def start_params(y, K, support, restart, init_seed=0):
    child = np.random.SeedSequence(init_seed).spawn(restart + 1)[restart]
    w, comps = tgmm._init_model(y, K, np.random.default_rng(child))
    return tgmm._params(TruncatedGMM(w, comps, support))


# Draws of the plain-EM mixture on the cut-in box, so inside every support;
# an odd row count puts each restart's rows of a lockstep kernel call at an
# offset that is not a multiple of 16 bytes.
LOCKSTEP_SUPPORTS = dict(PLAIN_EM_SUPPORTS, unbounded=Rect.unbounded(2))
# Four SQUAREM cycles; a few fits converge before the cap.
LOCKSTEP_MAX_ITER = 12


@pytest.fixture(scope="module")
def lockstep_rows():
    comps = [GaussComponent([1.0, 0.8], [[0.5, 0.2], [0.2, 0.4]]),
             GaussComponent([3.0, 2.5], [[0.6, -0.15], [-0.15, 0.5]])]
    return gmm_sample(201, TruncatedGMM([0.4, 0.6], comps,
                                        PLAIN_EM_SUPPORTS["cut-in box"]),
                      np.random.default_rng(11))


@pytest.fixture(scope="module")
def clean_restarts(lockstep_rows):
    """Each restart's outcome of a K = 2 fit of lockstep_rows on the cut-in box."""
    with pytest.MonkeyPatch.context() as mp:
        _, outcomes = watch_restarts(mp)
        fit(lockstep_rows, 2, PLAIN_EM_SUPPORTS["cut-in box"],
            max_iter=LOCKSTEP_MAX_ITER)
    return outcomes


class TestLockstepRestarts:
    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("support", sorted(LOCKSTEP_SUPPORTS))
    def test_matches_loop_fit(self, lockstep_rows, support, K, restarts):
        rect = LOCKSTEP_SUPPORTS[support]
        kw = dict(init_seed=1, max_iter=LOCKSTEP_MAX_ITER, restarts=restarts)
        assert_same_fit(fit(lockstep_rows, K, rect, **kw),
                        loop_fit(lockstep_rows, K, rect, **kw))

    @pytest.mark.parametrize("spoiler", [s for s in SPOILERS
                                         if SPOILERS[s][1] is not None])
    def test_spoiled_restart_leaves_the_others(self, lockstep_rows,
                                               clean_restarts, spoiler,
                                               monkeypatch):
        # only restart 1's first extrapolation is spoiled; restarts 0 and 2
        # share its kernel calls
        y, rect = lockstep_rows, PLAIN_EM_SUPPORTS["cut-in box"]
        start = start_params(y, 2, rect, 1)
        with monkeypatch.context() as mp:
            raised = spoil_first_extrapolation(mp, spoiler, start)
            want = loop_fit(y, 2, rect, max_iter=LOCKSTEP_MAX_ITER)
            assert len(raised) == 1
        with monkeypatch.context() as mp:
            raised = spoil_first_extrapolation(mp, spoiler, start)
            _, spoiled = watch_restarts(mp)
            assert_same_fit(fit(y, 2, rect, max_iter=LOCKSTEP_MAX_ITER), want)
            assert len(raised) == 1
        if SPOILERS[spoiler][0] is gauss.DegenerateTruncationError:
            # component 0 of restart 1, the call's component 2
            assert str(raised[0]).startswith("component 0: ")
        for i in (0, 2):
            assert spoiled[i][1] == clean_restarts[i][1]

    def test_degenerate_restart_fails_alone(self, lockstep_rows, clean_restarts,
                                            monkeypatch):
        y, rect = lockstep_rows, PLAIN_EM_SUPPORTS["cut-in box"]
        spoil_start_model(monkeypatch, restart=1, component=1)
        with pytest.raises(gauss.DegenerateTruncationError) as want:
            loop_fit(y, 2, rect, max_iter=LOCKSTEP_MAX_ITER)
        _, outcomes = watch_restarts(monkeypatch)
        with pytest.raises(gauss.DegenerateTruncationError) as got:
            fit(y, 2, rect, max_iter=LOCKSTEP_MAX_ITER)
        # the call's component 3 is component 1 of restart 1
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("component 1: rectangle probability")
        assert outcomes[1] is got.value
        for i in (0, 2):
            assert outcomes[i][1] == clean_restarts[i][1]

    def test_error_naming_no_component_reruns_each_restart(
            self, lockstep_rows, clean_restarts, monkeypatch):
        y, rect = lockstep_rows, PLAIN_EM_SUPPORTS["cut-in box"]
        real = tgmm.rect_prob

        def picky(components, r):
            if any(c.mean[0] < -50 for c in components):
                raise ValueError("a mean below -50")
            return real(components, r)
        monkeypatch.setattr(tgmm, "rect_prob", picky)
        spoil_start_model(monkeypatch, restart=1, component=1)
        _, outcomes = watch_restarts(monkeypatch)
        with pytest.raises(ValueError, match="a mean below -50"):
            fit(y, 2, rect, max_iter=LOCKSTEP_MAX_ITER)
        for i in (0, 2):
            assert outcomes[i][1] == clean_restarts[i][1]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_lowest_failing_restart_raises(self, lockstep_rows, monkeypatch):
        # restart 2 fails first, at iteration 1; restart 1 fails at
        # iteration 2, and the one-after-another loop would raise its error
        y, rect = lockstep_rows, PLAIN_EM_SUPPORTS["cut-in box"]
        far = TruncatedGMM([1.0], [GaussComponent([1e200, 0.0], np.eye(2))],
                           Rect.unbounded(2))
        tags, outcomes = watch_restarts(monkeypatch)
        real, updates, fail_at = tgmm._em_update, [0, 0, 0], {1: 2, 2: 1}

        def failing(y, m, resp):
            i = tags.index(m.standardizer)
            updates[i] += 1
            if updates[i] == fail_at.get(i):
                return far
            return (yield from real(y, m, resp))
        monkeypatch.setattr(tgmm, "_em_update", failing)
        with pytest.raises(RuntimeError,
                           match="non-finite log-likelihood at iteration 2: "):
            fit(y, 2, rect, max_iter=LOCKSTEP_MAX_ITER)
        assert "at iteration 1: " in str(outcomes[2])
        assert len(outcomes[0][1]) > 3


class TestBic:
    def test_parameter_counts(self):
        assert n_free_parameters(1, 1) == 2
        assert n_free_parameters(9, 3) == 89

    def test_formula(self, rng):
        m = single_gaussian()
        y = rng.standard_normal((500, 1))
        ll = np.sum(gmm_log_density(y, m))
        assert bic(m, y) == pytest.approx(-2 * ll + 2 * np.log(500))
        assert bic(m, y, loglik=-100.0) == pytest.approx(200 + 2 * np.log(500))

    def test_sweep_selects_true_k(self, rng, truncated_2comp_2d):
        y = gmm_sample(20_000, truncated_2comp_2d, rng)
        bics = {}
        for K in (1, 2, 3):
            m, rep = fit(y, K, truncated_2comp_2d.support, init_seed=3)
            bics[K] = rep.bic
        assert min(bics, key=bics.get) == 2


class TestGmmSample:
    def test_component_frequencies(self, rng):
        comps = [GaussComponent([-4.0], [[0.25]]), GaussComponent([4.0], [[0.25]])]
        m = TruncatedGMM([0.3, 0.7], comps, Rect.unbounded(1))
        y = gmm_sample(100_000, m, rng)
        frac = np.mean(y[:, 0] > 0)
        assert abs(frac - 0.7) < 3 * np.sqrt(0.3 * 0.7 / 100_000)

    def test_mean_matches_weighted_trunc_moments(self, rng, truncated_2comp_2d):
        m = truncated_2comp_2d
        n = 100_000
        y = gmm_sample(n, m, rng)
        m1 = np.zeros(2)
        var = np.zeros(2)
        dev1, dev2 = gauss.trunc_moments(m.components, m.support)
        for w, c, d1, d2 in zip(m.weights, m.components, dev1, dev2):
            a = c.mean + d1
            b = d2 + np.outer(c.mean, d1) + np.outer(d1, c.mean) + np.outer(c.mean, c.mean)
            m1 += w * a
            var += w * np.diag(b)
        var -= m1 ** 2
        se = np.sqrt(var / n)
        assert np.all(np.abs(y.mean(axis=0) - m1) < 3 * se)

    def test_all_rows_inside_support(self, rng, truncated_2comp_2d):
        y = gmm_sample(5000, truncated_2comp_2d, rng)
        assert np.all(truncated_2comp_2d.support.contains(y))

    def test_draws_use_cached_normalizers(self, truncated_2comp_2d, monkeypatch):
        # same draws as sample_truncated integrating each part itself, with
        # no rectangle integral at sampling time
        m = truncated_2comp_2d
        rng = np.random.default_rng(5)
        counts = rng.multinomial(300, m.weights)
        parts = [gauss.sample_truncated(k, c, m.support, rng)
                 for k, c in zip(counts, m.components)]
        want = np.concatenate(parts)[rng.permutation(300)]

        def no_integral(*args, **kwargs):
            raise AssertionError("rect_prob called while sampling")
        monkeypatch.setattr(gauss, "rect_prob", no_integral)
        y = gmm_sample(300, m, np.random.default_rng(5))
        assert y.tobytes() == want.tobytes()


class TestStandardize:
    def test_columns_standardized(self, rng):
        y = rng.normal(3.0, 5.0, size=(1000, 3))
        z, _ = standardize(y)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_round_trip(self, rng):
        y = rng.normal(2.0, 0.5, size=(200, 2))
        z, std = standardize(y)
        assert np.allclose(std.invert(z), y, atol=1e-12)

    def test_constant_column_error(self):
        y = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        with pytest.raises(ValueError, match="column 1"):
            standardize(y)

    def test_rect_transforms_with_data(self):
        std = AffineStandardizer([1.0, 2.0], [2.0, 0.5])
        r = Rect([0.0, -np.inf], [3.0, 4.0])
        zr = std.apply_rect(r)
        assert zr.lower.tolist() == [-0.5, -np.inf]
        assert zr.upper.tolist() == [1.0, 4.0]

    def test_equivariance_of_fitted_density(self, rng):
        # density in original coordinates = standardized density / prod(scale)
        y = rng.normal(5.0, 2.0, size=(5000, 2)) * np.array([1.0, 3.0])
        z, std = standardize(y)
        m, _ = fit(z, 1, Rect.unbounded(2), init_seed=0, restarts=1)
        probe = y[:50]
        lz = gmm_log_density(std.apply(probe), m) - np.log(std.scale).sum()
        direct, _ = fit(y, 1, Rect.unbounded(2), init_seed=0, restarts=1)
        ly = gmm_log_density(probe, direct)
        assert np.allclose(lz, ly, atol=1e-6)


class TestSerialization:
    def test_round_trip_with_infinities(self, truncated_2comp_2d):
        text = model_to_json(truncated_2comp_2d)
        assert '"inf"' in text
        back = model_from_json(text)
        assert back.n_components == 2
        assert np.allclose(back.weights, truncated_2comp_2d.weights)
        for a, b in zip(back.components, truncated_2comp_2d.components):
            assert np.allclose(a.mean, b.mean)
            assert np.allclose(a.cov, b.cov)
        assert np.isposinf(back.support.upper).all()

    def test_standardizer_preserved(self, truncated_2comp_2d):
        m = TruncatedGMM(truncated_2comp_2d.weights,
                         truncated_2comp_2d.components,
                         truncated_2comp_2d.support,
                         AffineStandardizer([1.0, 2.0], [3.0, 4.0]))
        back = model_from_json(model_to_json(m))
        assert np.allclose(back.standardizer.shift, [1.0, 2.0])
        assert np.allclose(back.standardizer.scale, [3.0, 4.0])

    def test_norm_consts_are_per_component_rect_probs(self, truncated_2comp_2d):
        m = truncated_2comp_2d
        for k, c in enumerate(m.components):
            assert (m.norm_consts[k].tobytes()
                    == gauss.rect_prob([c], m.support)[0].tobytes())

    def test_norm_consts_recomputed(self, truncated_2comp_2d):
        back = model_from_json(model_to_json(truncated_2comp_2d))
        for k, c in enumerate(back.components):
            assert back.norm_consts[k] == pytest.approx(
                gauss.rect_prob([c], back.support)[0], abs=1e-6)
