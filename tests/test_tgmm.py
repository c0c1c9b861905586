import numpy as np
import pytest

from rareis import gauss, tgmm
from rareis.gauss import GaussComponent, Rect, log_density
from rareis.tgmm import (AffineStandardizer, TruncatedGMM, bic, em_step, fit,
                         gmm_log_density, gmm_sample, model_from_json,
                         model_to_json, n_free_parameters, responsibilities,
                         standardize)


def single_gaussian(mu=0.0, var=1.0):
    return TruncatedGMM([1.0], [GaussComponent([mu], [[var]])], Rect.unbounded(1))


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
    from scipy.special import logsumexp
    a = rng.normal(0.0, 30.0, size=(1000, 3))
    a[0] = -np.inf
    a[1, 0] = -np.inf
    got = tgmm._logsumexp_rows(a)
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_loglik_raises(self, rng, monkeypatch):
        # a component mean so far out that every row's density is 0
        far = TruncatedGMM([1.0], [GaussComponent([1e200], [[1.0]])], Rect.unbounded(1))
        monkeypatch.setattr(tgmm, "em_step", lambda y, m, resp=None: far)
        with pytest.raises(RuntimeError, match="non-finite log-likelihood at iter"):
            fit(rng.standard_normal((50, 1)), 1, Rect.unbounded(1), restarts=1)

    def test_sample_floor(self, rng):
        with pytest.raises(ValueError):
            fit(rng.standard_normal((15, 1)), 2, Rect.unbounded(1))


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
        for w, c in zip(m.weights, m.components):
            a, b = gauss.trunc_moments(c, m.support)
            m1 += w * a
            var += w * np.diag(b)
        var -= m1 ** 2
        se = np.sqrt(var / n)
        assert np.all(np.abs(y.mean(axis=0) - m1) < 3 * se)

    def test_all_rows_inside_support(self, rng, truncated_2comp_2d):
        y = gmm_sample(5000, truncated_2comp_2d, rng)
        assert np.all(truncated_2comp_2d.support.contains(y))


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
        back = std.invert_rect(zr)
        assert np.allclose(back.lower[0], 0.0) and np.allclose(back.upper, [3.0, 4.0])

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

    def test_norm_consts_recomputed(self, truncated_2comp_2d):
        back = model_from_json(model_to_json(truncated_2comp_2d))
        for k, c in enumerate(back.components):
            assert back.norm_consts[k] == pytest.approx(
                gauss.rect_prob(c, back.support), abs=1e-6)
