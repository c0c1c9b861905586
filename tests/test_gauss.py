import hashlib

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from rareis import gauss
from rareis.gauss import (DegenerateTruncationError, GaussComponent, Rect,
                          log_densities, rect_prob, sample, sample_truncated,
                          trunc_moments)


class TestRect:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Rect([1.0], [0.0])

    def test_unbounded_detection(self):
        assert Rect.unbounded(3).is_unbounded()
        assert not Rect([0.0], [np.inf]).is_unbounded()

    def test_contains_matrix(self):
        r = Rect([0.0, 0.0], [1.0, np.inf])
        got = r.contains(np.array([[0.5, 10.0], [-0.1, 0.0], [2.0, 0.0]]))
        assert got.tolist() == [True, False, False]

    @pytest.mark.parametrize("lower, upper", [
        ([0.0, -1.0, 0.5], [1.0, 2.0, 3.0]),
        ([-np.inf, -1.0, 0.5], [np.inf, np.inf, 3.0]),
        ([-np.inf] * 3, [np.inf] * 3)])
    def test_contains_matches_whole_array_expression(self, lower, upper):
        # the column-at-a-time test against the (n, d) expression it replaced,
        # on (d,), (n, d) and (0, d) inputs, rows on the bounds, NaN and +-inf
        r = Rect(lower, upper)

        def whole(x):
            return np.all((x >= r.lower) & (x <= r.upper), axis=-1)

        rng = np.random.default_rng(4)
        X = rng.uniform(-2.0, 4.0, (500, 3))
        X[:20] = np.where(rng.random((20, 3)) < 0.5, r.lower, r.upper)
        X[20:40, 1] = np.nan
        X[40:60] = np.nan
        X[60:70, 0], X[70:80, 2] = -np.inf, np.inf
        for x in [X, X[:0], X[5], X[25], X[45], X[65], X[75],
                  np.asfortranarray(X), X[::-3]]:
            got, want = r.contains(x), whole(x)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert isinstance(r.contains(X[0]), np.bool_)

    def test_contains_rejects_other_dimensions(self):
        with pytest.raises(ValueError, match="dimension 2"):
            Rect([0.0, 0.0], [1.0, 1.0]).contains(np.zeros((4, 3)))


class TestGaussComponent:
    def test_cholesky_roundtrip(self, rng):
        A = rng.standard_normal((4, 4))
        cov = A @ A.T + 0.5 * np.eye(4)
        c = GaussComponent(np.zeros(4), cov)
        err = np.linalg.norm(c.chol @ c.chol.T - cov) / np.linalg.norm(cov)
        assert err < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GaussComponent([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_moved_to_shares_the_factor(self, rng):
        A = rng.standard_normal((3, 3))
        c = GaussComponent(np.zeros(3), A @ A.T + 0.5 * np.eye(3))
        inv = c.chol_inv
        moved = c.moved_to([1.0, -2.0, 0.5])
        fresh = GaussComponent([1.0, -2.0, 0.5], c.cov)
        assert moved.mean.tolist() == [1.0, -2.0, 0.5] and c.mean.tolist() == [0, 0, 0]
        assert moved.chol is c.chol and moved.chol_inv is inv
        assert moved.chol.tobytes() == fresh.chol.tobytes()
        X = rng.standard_normal((50, 3))
        assert log_densities(X, [moved]).tobytes() == log_densities(X, [fresh]).tobytes()
        with pytest.raises(ValueError):
            c.moved_to([1.0, 2.0])


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        c = GaussComponent([0.0], [[1.0]])
        assert log_densities([[0.0]], [c])[0, 0] == pytest.approx(-0.9189385332046727)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_at_mean_identity_cov(self, d):
        c = GaussComponent(np.zeros(d), np.eye(d))
        assert log_densities(np.zeros((1, d)), [c])[0, 0] == pytest.approx(-0.5 * d * np.log(2 * np.pi))

    def test_bivariate_hand_formula(self):
        # oracle: explicit 2x2 inverse and determinant
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        c = GaussComponent([0.0, 0.0], cov)
        x = np.array([1.0, 1.0])
        inv = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        expected = -0.5 * (2 * np.log(2 * np.pi) + np.log(3.0) + x @ inv @ x)
        assert log_densities([x], [c])[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        c = GaussComponent([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            log_densities(np.zeros((1, 3)), [c])


class TestSample:
    def test_mean_convergence(self, rng):
        c = GaussComponent(np.zeros(2), np.eye(2))
        x = sample(100_000, c, rng)
        assert np.all(np.abs(x.mean(axis=0)) < 0.02)

    def test_covariance_convergence(self, rng):
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        c = GaussComponent(np.zeros(2), cov)
        x = sample(100_000, c, rng)
        assert np.abs(np.cov(x, rowvar=False) - cov).max() < 0.05

    def test_seed_determinism(self):
        c = GaussComponent([1.0, -1.0], [[1.0, 0.3], [0.3, 2.0]])
        a = sample(100, c, np.random.default_rng(7))
        b = sample(100, c, np.random.default_rng(7))
        assert a.tobytes() == b.tobytes()

    def test_writes_into_out(self):
        c = GaussComponent([1.0, -1.0], [[1.0, 0.3], [0.3, 2.0]])
        want = sample(100, c, np.random.default_rng(7))
        buf = np.full((120, 2), np.nan)
        got = sample(100, c, np.random.default_rng(7), out=buf[10:110])
        assert got.base is buf and got.tobytes() == want.tobytes()
        assert np.isnan(buf[:10]).all() and np.isnan(buf[110:]).all()


class TestRectProb:
    def test_half_line(self):
        c = GaussComponent([0.0], [[1.0]])
        assert rect_prob([c], Rect([0.0], [np.inf]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_unbounded_is_one(self):
        c = GaussComponent(np.zeros(3), np.eye(3))
        assert rect_prob([c], Rect.unbounded(3))[0] == 1.0

    def test_quarter_plane(self):
        c = GaussComponent(np.zeros(2), np.eye(2))
        assert rect_prob([c], Rect([0.0, 0.0], [np.inf, np.inf]))[0] == pytest.approx(
            0.25, rel=1e-4)

    def test_monotone_under_inclusion(self, rng):
        cov = np.array([[1.0, 0.4], [0.4, 1.0]])
        c = GaussComponent([0.2, -0.1], cov)
        for _ in range(10):
            lo = rng.uniform(-2, 0, 2)
            hi = rng.uniform(0.5, 2.5, 2)
            inner = Rect(lo + 0.3, hi - 0.3)
            outer = Rect(lo, hi)
            assert rect_prob([c], inner)[0] <= rect_prob([c], outer)[0] + 1e-6

    def test_underflow_signals(self):
        c = GaussComponent([0.0], [[1.0]])
        with pytest.raises(DegenerateTruncationError):
            rect_prob([c], Rect([40.0], [41.0]))

    def test_underflow_names_first_degenerate_component(self):
        comps = [GaussComponent([m], [[1.0]]) for m in (40.0, 38.0, 0.0, -5.0)]
        with pytest.raises(DegenerateTruncationError,
                           match="^component 2: ") as err:
            rect_prob(comps, Rect([40.0], [41.0]))
        assert err.value.component == 2


def _grid_moments_2d(c, r, hi=6.0, step=0.005):
    xs = np.arange(max(r.lower[0], -hi), min(r.upper[0], hi), step) + step / 2
    ys = np.arange(max(r.lower[1], -hi), min(r.upper[1], hi), step) + step / 2
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    w = np.exp(log_densities(pts, [c])[0]) * step * step
    Z = w.sum()
    m1 = (pts * w[:, None]).sum(axis=0) / Z
    m2 = (pts[:, :, None] * pts[:, None, :] * w[:, None, None]).sum(axis=0) / Z
    return m1, m2


def _raw_moments(c, r, mass=None):
    """Raw first and second moments of one component from its batch call."""
    (m1,), (m2,) = trunc_moments([c], r, mass=mass)
    mu = c.mean
    return mu + m1, m2 + np.outer(mu, m1) + np.outer(m1, mu) + np.outer(mu, mu)


class TestTruncMoments:
    def test_half_normal_closed_form(self):
        c = GaussComponent([0.0], [[1.0]])
        (m1,), (m2,) = trunc_moments([c], Rect([0.0], [np.inf]))
        assert m1[0] == pytest.approx(np.sqrt(2 / np.pi), abs=1e-10)
        assert m2[0, 0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("a", [-7.0, 5.0, 7.0])
    def test_far_tail_closed_form(self, a):
        # mean phi(a) / Q(a) and raw second moment 1 + a phi(a) / Q(a) on
        # [a, inf) (mirrored for a < 0), with Q(a) taken in the thin tail
        c = GaussComponent([0.0], [[1.0]])
        r = Rect([a], [np.inf]) if a > 0 else Rect([-np.inf], [a])
        (m1,), (m2,) = trunc_moments([c], r)
        ratio = np.exp(-0.5 * a * a) / np.sqrt(2 * np.pi) / ndtr(-abs(a))
        assert m1[0] == pytest.approx(np.sign(a) * ratio, rel=1e-12, abs=0)
        assert m2[0, 0] == pytest.approx(1 + abs(a) * ratio, rel=1e-12, abs=0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    def test_symmetric_interval_zero_mean(self, a):
        c = GaussComponent([0.0], [[1.0]])
        (m1,), _ = trunc_moments([c], Rect([-a], [a]))
        assert m1[0] == pytest.approx(0.0, abs=1e-12)

    def test_2d_grid_oracle(self):
        c = GaussComponent([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        r = Rect([0.0, 0.0], [np.inf, np.inf])
        (m1,), (m2,) = trunc_moments([c], r)
        gm1, gm2 = _grid_moments_2d(c, r)
        assert np.allclose(m1, gm1, rtol=1e-3)
        assert np.allclose(m2, gm2, rtol=1e-3)

    def test_unbounded_returns_model_moments(self):
        mu = np.array([0.7, -0.3])
        cov = np.array([[1.2, 0.4], [0.4, 0.9]])
        c = GaussComponent(mu, cov)
        m1, m2 = _raw_moments(c, Rect.unbounded(2))
        assert np.allclose(m1, mu, atol=1e-10)
        assert np.allclose(m2, cov + np.outer(mu, mu), atol=1e-10)

    def test_second_central_moment_psd(self, rng):
        for _ in range(5):
            A = rng.standard_normal((3, 3))
            c = GaussComponent(rng.normal(0, 0.5, 3), A @ A.T + 0.5 * np.eye(3))
            r = Rect(rng.uniform(-2, -0.5, 3), rng.uniform(0.5, 2, 3))
            m1, m2 = _raw_moments(c, r)
            eigs = np.linalg.eigvalsh(m2 - np.outer(m1, m1))
            assert eigs.min() > -1e-8

    def test_given_mass_is_used(self):
        cov = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        c = GaussComponent([0.2, 0.0, -0.1], cov)
        r = Rect([-1.0, -1.0, -np.inf], [np.inf, 1.5, 1.0])
        p = rect_prob([c], r)[0]
        m1, m2 = _raw_moments(c, r)
        g1, g2 = _raw_moments(c, r, mass=p)
        assert np.allclose(g1, m1, rtol=1e-14) and np.allclose(g2, m2, rtol=1e-14)
        h1, _ = _raw_moments(c, r, mass=2 * p)
        assert np.allclose(h1 - c.mean, (m1 - c.mean) / 2, rtol=1e-12)

    def test_vanishing_mass_error(self):
        c = GaussComponent([0.0, 0.0], np.eye(2))
        with pytest.raises(DegenerateTruncationError):
            trunc_moments([c], Rect([12.0, 12.0], [13.0, 13.0]))

    def test_vanishing_mass_names_first_degenerate_component(self):
        comps = [GaussComponent([m, m], np.eye(2)) for m in (12.0, 0.0, 7.0)]
        r = Rect([12.0, 12.0], [13.0, 13.0])
        with pytest.raises(DegenerateTruncationError,
                           match="^component 1: ") as err:
            trunc_moments(comps, r)
        assert err.value.component == 1
        with pytest.raises(DegenerateTruncationError,
                           match="^component 2: ") as err:
            trunc_moments(comps, r, mass=[0.5, 0.5, 1e-13])
        assert err.value.component == 2


class TestSampleTruncated:
    def test_unbounded_matches_sample(self):
        c = GaussComponent([0.5], [[2.0]])
        r = Rect.unbounded(1)
        a = sample_truncated(50, c, r, np.random.default_rng(3))
        b = sample(50, c, np.random.default_rng(3))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("r", [Rect.unbounded(2),
                                   Rect([0.0, -1.0], [np.inf, 1.0])])
    def test_writes_into_out(self, r):
        c = GaussComponent([0.5, 0.0], [[2.0, 0.3], [0.3, 1.0]])
        want = sample_truncated(300, c, r, np.random.default_rng(3))
        buf = np.full((310, 2), np.nan)
        got = sample_truncated(300, c, r, np.random.default_rng(3), out=buf[5:305])
        assert got.base is buf and got.tobytes() == want.tobytes()
        assert np.isnan(buf[:5]).all() and np.isnan(buf[305:]).all()

    def test_half_normal_mean(self, rng):
        c = GaussComponent([0.0], [[1.0]])
        x = sample_truncated(100_000, c, Rect([0.0], [np.inf]), rng)
        assert abs(x.mean() - 0.79788) < 0.01

    def test_rows_inside_region(self, rng):
        c = GaussComponent([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])
        r = Rect([-0.5, 0.0], [2.0, 1.5])
        x = sample_truncated(5000, c, r, rng)
        assert np.all(r.contains(x))

    def test_3d_mean_matches_trunc_moments(self, rng):
        cov = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        c = GaussComponent([0.2, 0.0, -0.1], cov)
        r = Rect([-1.0, -1.0, -np.inf], [np.inf, 1.5, 1.0])
        n = 100_000
        x = sample_truncated(n, c, r, rng)
        m1, m2 = _raw_moments(c, r)
        se = np.sqrt(np.diag(m2 - np.outer(m1, m1)) / n)
        assert np.all(np.abs(x.mean(axis=0) - m1) < 3 * se)

    def test_degenerate_region_error(self, rng):
        c = GaussComponent([0.0], [[1.0]])
        with pytest.raises(DegenerateTruncationError) as err:
            sample_truncated(10, c, Rect([8.0], [8.1]), rng)
        assert err.value.component is None  # names no component


def test_truncated_density_normalizes_on_grid():
    # truncated log-density = log density - log rect_prob integrates to 1
    c = GaussComponent([0.3, -0.2], [[1.0, 0.4], [0.4, 0.8]])
    r = Rect([-1.0, -1.5], [2.0, 1.0])
    p = rect_prob([c], r)[0]
    step = 0.005
    xs = np.arange(r.lower[0], r.upper[0], step) + step / 2
    ys = np.arange(r.lower[1], r.upper[1], step) + step / 2
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    mass = np.sum(np.exp(log_densities(pts, [c])[0] - np.log(p))) * step * step
    assert mass == pytest.approx(1.0, abs=1e-3)


def _interval(lo, hi):
    """P(lo <= Z <= hi) for standard normal Z, differenced in the thinner tail."""
    lo, hi = float(lo), float(hi)
    if lo + hi > 0:
        return float(ndtr(-lo) - ndtr(-hi))
    return float(ndtr(hi) - ndtr(lo))


def _window(lo, hi, sd):
    # the +-12 sd cut drops mass below 1e-32
    return max(float(lo), -12.0 * sd), min(float(hi), 12.0 * sd)


def _quad_rect2(cov, lo, hi):
    """Oracle: adaptive quad of phi(x0) P(x1 in [lo1, hi1] | x0) over [lo0, hi0]."""
    s0 = np.sqrt(cov[0, 0])
    beta = cov[1, 0] / cov[0, 0]
    sd = np.sqrt(cov[1, 1] - beta * cov[1, 0])

    def f(x):
        return (np.exp(-0.5 * (x / s0) ** 2) / (np.sqrt(2 * np.pi) * s0)
                * _interval((lo[1] - beta * x) / sd, (hi[1] - beta * x) / sd))
    a, b = _window(lo[0], hi[0], s0)
    if a >= b:
        return 0.0
    # break where the conditional interval's edges cross the conditional mean
    pts = [e / beta for e in (lo[1], hi[1]) if beta != 0 and np.isfinite(e)]
    pts = [p for p in pts if a < p < b] or None
    return integrate.quad(f, a, b, points=pts, epsabs=0, epsrel=1e-12, limit=400)[0]


def _quad_rect3(cov, lo, hi):
    """Oracle: nested adaptive quad over x0 and x1 | x0, with ndtr for x2 | x0, x1."""
    s0 = np.sqrt(cov[0, 0])
    b1 = cov[1, 0] / cov[0, 0]
    sd1 = np.sqrt(cov[1, 1] - b1 * cov[1, 0])
    g = np.linalg.solve(cov[:2, :2], cov[:2, 2])   # E[x2 | x0, x1] = g . (x0, x1)
    sd2 = np.sqrt(cov[2, 2] - cov[2, :2] @ g)

    def middle(x0):
        m1 = b1 * x0

        def inner(x1):
            m2 = g[0] * x0 + g[1] * x1
            return (np.exp(-0.5 * ((x1 - m1) / sd1) ** 2) / (np.sqrt(2 * np.pi) * sd1)
                    * _interval((lo[2] - m2) / sd2, (hi[2] - m2) / sd2))
        a, b = _window(lo[1] - m1, hi[1] - m1, sd1)
        if a >= b:
            return 0.0
        return integrate.quad(inner, m1 + a, m1 + b, epsabs=0, epsrel=1e-11,
                              limit=200)[0]

    def outer(x0):
        return np.exp(-0.5 * (x0 / s0) ** 2) / (np.sqrt(2 * np.pi) * s0) * middle(x0)
    a, b = _window(lo[0], hi[0], s0)
    if a >= b:
        return 0.0
    return integrate.quad(outer, a, b, epsabs=0, epsrel=1e-10, limit=200)[0]


def _random_corr(rng, d, rho_max=0.99):
    while True:
        R = np.eye(d)
        iu = np.triu_indices(d, 1)
        R[iu] = rng.uniform(-rho_max, rho_max, iu[0].size)
        R = R + R.T - np.eye(d)
        if np.linalg.eigvalsh(R).min() > 1e-3:
            return R


def _random_case(rng, d):
    """Covariance with |rho| up to 0.99; rectangle with some infinite or 0 bounds."""
    sd = rng.uniform(0.3, 3.0, d)
    cov = _random_corr(rng, d) * np.outer(sd, sd)
    lo = rng.uniform(-2.0, 6.0, d)
    hi = lo + rng.exponential(2.0, d)
    lo[rng.random(d) < 0.25] = -np.inf
    hi[rng.random(d) < 0.25] = np.inf
    if rng.random() < 0.2:
        lo[rng.integers(d)] = 0.0
    return cov, lo * sd, hi * sd


def _assert_rect_accurate(cov, lo, hi, truth):
    # relative error <= 1e-7 wherever the truth is >= 1e-10
    mean = np.zeros(cov.shape[0])
    if truth >= 1e-10:
        got = rect_prob([GaussComponent(mean, cov)], Rect(lo, hi))[0]
        assert abs(got - truth) <= 1e-7 * truth, (cov, lo, hi, got, truth)
        return True
    return False


class TestRectProbAccuracy:
    """rect_prob against adaptive-quadrature oracles and closed forms."""

    def test_bivariate_random_rectangles(self):
        rng = np.random.default_rng(11)
        checked = 0
        tiny = 1.0
        for _ in range(300):
            cov, lo, hi = _random_case(rng, 2)
            truth = _quad_rect2(cov, lo, hi)
            if _assert_rect_accurate(cov, lo, hi, truth):
                checked += 1
                tiny = min(tiny, truth)
        assert checked > 200 and tiny < 1e-8

    def test_trivariate_random_rectangles(self):
        rng = np.random.default_rng(100)
        checked = 0
        tiny = 1.0
        for _ in range(60):
            cov, lo, hi = _random_case(rng, 3)
            truth = _quad_rect3(cov, lo, hi)
            if _assert_rect_accurate(cov, lo, hi, truth):
                checked += 1
                tiny = min(tiny, truth)
        assert checked > 30 and tiny < 1e-9

    def test_trivariate_near_singular_conditional(self):
        # conditioning on any one coordinate leaves the other two with
        # correlation about 0.999; one 64-point panel was 1.3% off here
        R = np.array([[1.0, 0.59799214, -0.54020526],
                      [0.59799214, 1.0, 0.34914222],
                      [-0.54020526, 0.34914222, 1.0]])
        lo = np.array([-0.52709701, 0.33258823, -np.inf])
        hi = np.array([0.21674188, 0.8342752, 5.19860542])
        assert _assert_rect_accurate(R, lo, hi, _quad_rect3(R, lo, hi))

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_trivariate_nearly_singular_covariance(self):
        # smallest eigenvalue 3.9e-6: a single 64-point panel is 2.7e-4 to
        # 2.7e-2 off whichever coordinate it conditions on
        R = np.array([[1.0, 0.0263, 0.6381],
                      [0.0263, 1.0, -0.7529],
                      [0.6381, -0.7529, 1.0]])
        lo = np.array([-0.56, 0.289, 0.15])
        hi = np.array([0.636, np.inf, np.inf])
        assert _assert_rect_accurate(R, lo, hi, _quad_rect3(R, lo, hi))

    @pytest.mark.parametrize("rho", [-0.9999, -0.999, -0.99, -0.95, 0.95, 0.99,
                                     0.999, 0.9999])
    def test_bivariate_near_singular(self, rho):
        cov = np.array([[1.0, rho], [rho, 1.0]])
        for lo, hi in (([-0.3, 0.2], [1.5, np.inf]), ([1.0, -np.inf], [2.5, 1.2]),
                       ([-np.inf, -2.0], [-1.0, -0.5]), ([3.0, 2.5], [np.inf, 4.0])):
            lo, hi = np.array(lo), np.array(hi)
            _assert_rect_accurate(cov, lo, hi, _quad_rect2(cov, lo, hi))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lower_tail_mirrors_upper_tail(self, d):
        # N(0, cov) is symmetric: [-hi, -lo] has the mass of [lo, hi], and far
        # in the tail neither may be a difference of numbers near 1
        cov = (np.array([[1.0, 0.3, -0.2], [0.3, 1.5, 0.4], [-0.2, 0.4, 0.8]])
               [:d, :d])
        c = GaussComponent(np.zeros(d), cov)
        for shift in np.arange(3.0, 6.0) + 3 - d:      # p from 1e-5 down to 1e-18
            lo = shift * np.sqrt(np.diag(cov))
            hi = lo + np.array([0.5, np.inf, 2.0])[:d]
            p = rect_prob([c], Rect(lo, hi))[0]
            assert rect_prob([c], Rect(-hi, -lo))[0] == pytest.approx(p, rel=1e-9, abs=0)
            if d == 1:
                truth = _interval(lo[0], hi[0])
            elif d == 2:
                truth = _quad_rect2(cov, lo, hi)
            else:
                truth = _quad_rect3(cov, lo, hi)
            assert p == pytest.approx(truth, rel=1e-7, abs=0)

    def test_bound_at_zero_and_far_tail(self):
        cov = np.array([[1.0, -0.6], [-0.6, 2.0]])
        for lo, hi in (([0.0, 0.0], [np.inf, 1.3]), ([0.0, -np.inf], [2.0, 0.0]),
                       ([5.0, 0.5], [np.inf, np.inf])):
            lo, hi = np.array(lo), np.array(hi)
            assert _assert_rect_accurate(cov, lo, hi, _quad_rect2(cov, lo, hi))

    def test_unbounded_middle_coordinate_regression(self):
        # the middle coordinate is free, so the truth is the (x1, x3) marginal
        cov = np.array([[4.28, -0.56, -1.85], [-0.56, 0.99, -0.37],
                        [-1.85, -0.37, 1.73]])
        lo = np.array([4.0, -np.inf, 2.5])
        hi = np.array([11.0, np.inf, 5.25])
        keep = [0, 2]
        truth = _quad_rect2(cov[np.ix_(keep, keep)], lo[keep], hi[keep])
        assert truth == pytest.approx(5.53605e-8, rel=1e-5, abs=0)
        assert _assert_rect_accurate(cov, lo, hi, truth)

    @pytest.mark.parametrize("rho", [-0.99, -0.7, -0.2, 0.0, 0.4, 0.93, 0.999])
    def test_bivariate_orthant(self, rho):
        c = GaussComponent(np.zeros(2), [[1.0, rho], [rho, 1.0]])
        got = rect_prob([c], Rect([0.0, 0.0], [np.inf, np.inf]))[0]
        truth = 0.25 + np.arcsin(rho) / (2 * np.pi)
        assert got == pytest.approx(truth, rel=1e-12, abs=0)

    def test_trivariate_orthant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            R = _random_corr(rng, 3)
            got = rect_prob([GaussComponent(np.zeros(3), R)],
                            Rect(np.zeros(3), np.full(3, np.inf)))[0]
            truth = 0.125 + np.arcsin(R[np.triu_indices(3, 1)]).sum() / (4 * np.pi)
            assert got == pytest.approx(truth, rel=1e-10, abs=0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_diagonal_covariance_is_a_product(self, d):
        rng = np.random.default_rng(d)
        for _ in range(10):
            sd = rng.uniform(0.5, 2.0, d)
            lo = rng.uniform(-3.0, 3.0, d) * sd
            hi = lo + rng.exponential(1.5, d) * sd
            truth = np.prod([_interval(lo[i] / sd[i], hi[i] / sd[i]) for i in range(d)])
            got = rect_prob([GaussComponent(np.zeros(d), np.diag(sd ** 2))], Rect(lo, hi))[0]
            assert got == pytest.approx(truth, rel=1e-10, abs=0)

    def test_qmc_only_from_d4(self, monkeypatch):
        calls = []
        qmc = gauss._qmc_rect_prob
        monkeypatch.setattr(gauss, "_qmc_rect_prob",
                            lambda *a: calls.append(a[1].size) or qmc(*a))
        for d in (1, 2, 3, 4, 5):
            c = GaussComponent(np.zeros(d), 0.5 * np.eye(d) + 0.5)
            r = Rect(np.full(d, -1.0), np.full(d, 2.0))
            rect_prob([c], r)
            trunc_moments([c], r)
        # d = 4: rect_prob, alpha and 8 edge terms; d = 5: the same, 3-d pairs exact
        assert calls == [4] * 2 + [5] * 2 + [4] * 10


def test_trunc_moments_3d_match_rect_prob_derivatives():
    # m1 = cov grad(alpha) / alpha and m2 = cov + cov H cov / alpha for a
    # zero-mean Gaussian, with alpha(mu) = P(a <= X <= b) differenced in mu
    cov = np.array([[1.0, 0.6, -0.3], [0.6, 2.0, 0.4], [-0.3, 0.4, 0.8]])
    r = Rect([-0.5, -np.inf, -1.0], [1.5, 1.0, np.inf])

    def alpha(mu):
        return rect_prob([GaussComponent(mu, cov)], r)[0]
    h = 1e-3
    e = np.eye(3) * h
    a0 = alpha(np.zeros(3))
    grad = np.array([(alpha(e[i]) - alpha(-e[i])) / (2 * h) for i in range(3)])
    H = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            H[i, j] = (alpha(e[i] + e[j]) - alpha(e[i] - e[j])
                       - alpha(e[j] - e[i]) + alpha(-e[i] - e[j])) / (4 * h * h)
    (m1,), (m2,) = trunc_moments([GaussComponent(np.zeros(3), cov)], r)
    assert np.allclose(m1, cov @ grad / a0, rtol=0, atol=1e-6)
    assert np.allclose(m2, cov + cov @ H @ cov / a0, rtol=0, atol=1e-5)


def test_trunc_moments_diagonal_3d_are_products():
    # independent coordinates: 1-d closed forms on the diagonal, products off it
    sd = np.array([0.7, 1.3, 2.0])
    r = Rect([-0.4, 0.5, -np.inf], [1.2, np.inf, 1.0])
    (m1,), (m2,) = trunc_moments([GaussComponent(np.zeros(3), np.diag(sd ** 2))], r)
    one = [trunc_moments([GaussComponent([0.0], [[s * s]])], Rect([lo], [hi]))
           for s, lo, hi in zip(sd, r.lower, r.upper)]
    mu = np.array([o[0][0, 0] for o in one])
    assert np.allclose(m1, mu, rtol=1e-10, atol=1e-12)
    assert np.allclose(np.diag(m2), [o[1][0, 0, 0] for o in one], rtol=1e-10)
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(m2[off], np.outer(mu, mu)[off], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_batch_invariance(d):
    # component i of a 5-component call is bit for bit a call with it alone
    rng = np.random.default_rng(40 + d)
    comps = []
    for _ in range(5):
        A = rng.standard_normal((d, d))
        comps.append(GaussComponent(rng.normal(0.0, 1.0, d),
                                    A @ A.T + 0.3 * np.eye(d)))
    lo = rng.uniform(-1.5, 0.0, d)
    hi = lo + rng.uniform(0.5, 3.0, d)
    lo[0] = -np.inf
    r = Rect(lo, hi)
    p = rect_prob(comps, r)
    m1, m2 = trunc_moments(comps, r)
    assert p.shape == (5,) and m1.shape == (5, d) and m2.shape == (5, d, d)
    for i, c in enumerate(comps):
        (q,), (n1,), (n2,) = rect_prob([c], r), *trunc_moments([c], r)
        assert q.tobytes() == p[i].tobytes()
        assert n1.tobytes() == m1[i].tobytes()
        assert n2.tobytes() == m2[i].tobytes()


def test_batch_invariance_with_one_sided_rectangles(monkeypatch):
    # Component 0 integrates over coordinate 0 and component 1, whose
    # coordinate 0 is close to coordinate 1, over another one: so the shared
    # bivariate call holds rectangles with and without a +inf corner
    kinds = []
    rect2 = gauss._rect_probs2

    def record(a, b, r):
        one_sided = np.isinf(b).any(axis=-1)
        kinds.append((one_sided.any(), (~one_sided).any()))
        return rect2(a, b, r)
    monkeypatch.setattr(gauss, "_rect_probs2", record)
    comps = [GaussComponent(np.zeros(3), np.eye(3)),
             GaussComponent([0.2, 0.0, 0.1], [[1.0, 0.95, 0.1], [0.95, 1.0, 0.1],
                                              [0.1, 0.1, 1.0]])]
    r = Rect([0.5, -1.0, -0.5], [np.inf, 1.0, 1.5])
    p = rect_prob(comps, r)
    assert kinds == [(True, True)]
    for i, c in enumerate(comps):
        assert rect_prob([c], r)[0].tobytes() == p[i].tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_rectangle_kernel_rows_mix_one_and_two_sided(d):
    # the row kernel that rect_prob and trunc_moments share: a row's value
    # does not depend on whether the other rows' rectangles are one-sided
    rng = np.random.default_rng(70 + d)
    n = 12
    A = rng.standard_normal((n, d, d))
    cov = A @ A.transpose(0, 2, 1) + 0.3 * np.eye(d)
    a = rng.uniform(-1.5, 0.5, (n, d))
    b = a + rng.uniform(0.5, 2.5, (n, d))
    one_sided = np.arange(n) % 3 > 0
    b[one_sided & (np.arange(n) % 3 == 1), 0] = np.inf
    a[one_sided & (np.arange(n) % 3 == 2), d - 1] = -np.inf
    p = gauss._rect_probs(cov, a, b)
    assert np.all((p > 0) & (p < 1))
    for rows in (one_sided, ~one_sided):
        q = gauss._rect_probs(cov[rows], a[rows], b[rows])
        assert q.tobytes() == p[rows].tobytes()
    for i in range(n):
        q = gauss._rect_probs(cov[i:i + 1], a[i:i + 1], b[i:i + 1])
        assert q.tobytes() == p[i:i + 1].tobytes()


# float.hex of rect_prob and trunc_moments values recorded before the Genz
# node terms were computed in place (numpy 2.4 on x86-64; another numpy or
# CPU may round exp and sin differently in the last bit).  The cases put correlations on both
# sides of _bvnu's 0.925 switch, at d = 2 directly and at d = 3 through the
# conditional bivariates (test_pinned_cases_reach_both_bvnu_branches).
def pinned_cases():
    two = [GaussComponent([0.3, -0.2], [[1.0, 0.5], [0.5, 2.0]]),
           GaussComponent([0.1, 0.4], [[1.0, 0.97], [0.97, 1.0]]),
           GaussComponent([-0.2, 0.0], [[2.0, -1.92], [-1.92, 2.0]])]
    three = [GaussComponent([0.2, -0.1, 0.3],
                            [[1.0, 0.3, 0.2], [0.3, 1.5, -0.4], [0.2, -0.4, 0.8]]),
             GaussComponent([0.0, 0.1, -0.2],
                            [[1.0, 0.9, 0.85], [0.9, 1.0, 0.95], [0.85, 0.95, 1.0]]),
             GaussComponent([0.1, 0.0, 0.2],
                            [[1.0, 0.1, -0.1], [0.1, 1.0, -0.97], [-0.1, -0.97, 1.0]])]
    return {"d2": (two, Rect([-1.0, -np.inf], [0.5, 1.5])),
            "d2tail": (two, Rect([0.5, -1.5], [np.inf, np.inf])),
            "d3": (three, Rect([-0.5, -np.inf, -1.0], [1.0, 0.8, np.inf])),
            "d3tail": (three, Rect([1.0, 0.9, 0.7], [np.inf, np.inf, np.inf]))}


PINNED_HEX = {
    "d2": {
        "p": [
            "0x1.c9059b08accafp-2", "0x1.0a1758b8af168p-1",
            "0x1.9c3c002b9de93p-2"],
        "m1": [
            "-0x1.dbccf74991ca8p-2", "-0x1.baaf535a7bd17p-2",
            "-0x1.28674dfcf245cp-2", "-0x1.1f96a761510d2p-2",
            "-0x1.64799948729c0p-5", "0x1.3b062119cca6cp-5"],
        "m2": [
            "0x1.8a7816f336f50p-2", "0x1.1018e4ed2ba71p-2",
            "0x1.1018e4ed2ba71p-2", "0x1.8afa8dbd396a2p+0",
            "0x1.05ab7bfb07b3ap-2", "0x1.fb96d619a0436p-3",
            "0x1.fb96d619a0436p-3", "0x1.329d48ec8f7f8p-2",
            "0x1.74499969ad190p-3", "-0x1.6117d6ebfbb88p-3",
            "-0x1.6117d6ebfbb88p-3", "0x1.44f30b2c51eacp-2"],
    },
    "d2tail": {
        "p": [
            "0x1.858bdab9ae77ap-2", "0x1.60d91f7ac901ap-2",
            "0x1.5530ca95427dap-3"],
        "m1": [
            "0x1.e5c1c7f6ff7c7p-1", "0x1.6ffe7a214807cp-1",
            "0x1.119a01250bac9p+0", "0x1.0964be8ce4ec8p+0",
            "0x1.256505c293b99p+0", "-0x1.e83fea3ac0117p-1"],
        "m2": [
            "0x1.3b062eb74b682p+0", "0x1.9d2fbafb6a126p-1",
            "0x1.9d2fbafb6a126p-1", "0x1.d5f8b38cb1ee7p+0",
            "0x1.6d70cd4204ab6p+0", "0x1.627a37bd7a4a2p+0",
            "0x1.627a37bd7a4a2p+0", "0x1.66f90240e82ebp+0",
            "0x1.6c344a5a94b10p+0", "-0x1.268518e2b11d6p+0",
            "-0x1.268518e2b11d6p+0", "0x1.0a9433b24f08ep+0"],
    },
    "d3": {
        "p": [
            "0x1.9defd1aa90bbcp-2", "0x1.97bb735061989p-2",
            "0x1.b2fcd2c8560bdp-2"],
        "m1": [
            "0x1.d9c9e2512348bp-6", "-0x1.e97bccf589e0ap-2",
            "0x1.da397f5ddb66ep-3", "0x1.194bdbae161e9p-3",
            "0x1.baa05fe1cceefp-5", "0x1.32c27c1388a1cp-4",
            "0x1.e0fb4f4ab7a02p-4", "-0x1.6fec8477bebe9p-2",
            "0x1.656dd32de4a6ap-2"],
        "m2": [
            "0x1.6409533c833bcp-3", "0x1.25373888f0dc0p-6",
            "0x1.53b956ba973dap-5", "0x1.25373888f0dc0p-6",
            "0x1.05e98cc7cba32p+0", "-0x1.50b1d98b89ed8p-2",
            "0x1.53b956ba973dap-5", "-0x1.50b1d98b89ed8p-2",
            "0x1.48f0564f9fd81p-1", "0x1.501f8cc8feaa8p-3",
            "0x1.5459226f66fe0p-4", "0x1.2ab688f29077cp-4",
            "0x1.5459226f66fe0p-4", "0x1.397ce886c97dcp-3",
            "0x1.0df999ba06416p-3", "0x1.2ab688f29077cp-4",
            "0x1.0df999ba06416p-3", "0x1.9feb9605a1718p-3",
            "0x1.7ee6bb9589c9cp-3", "-0x1.094142d40973ep-5",
            "0x1.fb712c8377e04p-6", "-0x1.094142d40973ep-5",
            "0x1.62203abec6568p-1", "-0x1.56fdcfb856bcap-1",
            "0x1.fb712c8377e04p-6", "-0x1.56fdcfb856bcap-1",
            "0x1.6a316b641cf2cp-1"],
    },
    "d3tail": {
        "p": [
            "0x1.0ea05ddcc7523p-6", "0x1.c85f9bdc8a9fap-4",
            "0x1.2162f851214cfp-36"],
        "m1": [
            "0x1.8ce9235e8d91cp+0", "0x1.9a45b63ccbb41p+0",
            "0x1.c6405a9e7fd5dp-1", "0x1.a17f9119140b4p+0",
            "0x1.a046f6586ba42p+0", "0x1.9a495927e62afp+0",
            "0x1.723a510a6370ap+0", "0x1.e108b9e23c203p-1",
            "0x1.14474d331ff26p-1"],
        "m2": [
            "0x1.5cc2f75e5daddp+1", "0x1.41c11e4c26848p+1",
            "0x1.663a3d7d7a1cfp+0", "0x1.41c11e4c26848p+1",
            "0x1.69dfeed1dca7dp+1", "0x1.675cafd87f534p+0",
            "0x1.663a3d7d7a1cfp+0", "0x1.675cafd87f534p+0",
            "0x1.e56a082bf7f7dp-1", "0x1.70d44e073048cp+1",
            "0x1.6726e39e0a525p+1", "0x1.5eed278fbdd78p+1",
            "0x1.6726e39e0a525p+1", "0x1.70deaa1b35b26p+1",
            "0x1.66c6d3d35146ap+1", "0x1.5eed278fbdd78p+1",
            "0x1.66c6d3d35146ap+1", "0x1.67bdc4b5d1f2bp+1",
            "0x1.26b8f5793b1c8p+1", "0x1.5bd72d998422ep+0",
            "0x1.8f8bd1d8a6eaep-1", "0x1.5bd72d998422ep+0",
            "0x1.c4b42970096b4p-1", "0x1.038d186130b06p-1",
            "0x1.8f8bd1d8a6eaep-1", "0x1.038d186130b06p-1",
            "0x1.2bb1fe61d45fep-2"],
    },
}


def hexes(a):
    return [float(v).hex() for v in np.ravel(a)]


@pytest.mark.parametrize("name", sorted(PINNED_HEX))
def test_pinned_rect_prob_and_moments(name):
    comps, r = pinned_cases()[name]
    m1, m2 = trunc_moments(comps, r)
    got = {"p": hexes(rect_prob(comps, r)), "m1": hexes(m1), "m2": hexes(m2)}
    assert got == PINNED_HEX[name]


@pytest.mark.parametrize("name", sorted(PINNED_HEX))
def test_pinned_cases_reach_both_bvnu_branches(name, monkeypatch):
    seen, bvnu = set(), gauss._bvnu

    def spy(h, k, r):
        seen.update(np.abs(r[:, 0]) < 0.925)
        return bvnu(h, k, r)
    monkeypatch.setattr(gauss, "_bvnu", spy)
    comps, r = pinned_cases()[name]
    rect_prob(comps, r)
    trunc_moments(comps, r)
    assert seen == {True, False}


def test_pinned_bvnu_values():
    # _bvnu itself on rows of both branches, |r| 0.5 and 0.3 below the
    # 0.925 switch and 0.95 and 0.97 above it: its terms reach the rectangle
    # probabilities only after cancellation, which can hide a last bit
    h = np.array([[-1.5, -0.2, 0.0, 0.7, 1.9, 3.1]] * 4)
    k = np.array([[0.4, -1.1, 0.0, 2.2, 1.5, -np.inf]] * 4)
    r = np.repeat([[0.5], [-0.3], [0.95], [-0.97]], 6, axis=1)
    assert hexes(gauss._bvnu(h, k, r)) == [
        "0x1.5cad85dfa6d20p-2", "0x1.1735122614e0fp-1", "0x1.5555555555556p-2",
        "0x1.528ef36b3c521p-7", "0x1.41f8a81d84e30p-7", "0x1.fb4d81400e579p-11",
        "0x1.3986ba8ca5075p-2", "0x1.e78345a7cb6d7p-2", "0x1.9caf85cfef4f5p-3",
        "0x1.cc617b94f344cp-11", "0x1.557c2912f8a6cp-12", "0x1.fb4d81400e579p-11",
        "0x1.60d91f7a81a7dp-2", "0x1.288bf411c23a4p-1", "0x1.cc3ee5f68e82ep-2",
        "0x1.c7967f03fe019p-7", "0x1.befe25a98f552p-6", "0x1.fb4d81400e579p-11",
        "0x1.1c7007218c28ap-2", "0x1.c63d69e2fbc02p-2", "0x1.402aeb94e08a5p-5",
        "0x1.91224709640afp-114", "0x1.a272baac74140p-152", "0x1.fb4d81400e579p-11"]


def test_pinned_bvnu_digest():
    # a last-bit change in a few node terms moves few outputs, so 8,000
    # values, half of them with |r| >= 0.925, are pinned by their digest
    rng = np.random.default_rng(26)
    h, k = rng.normal(0.0, 2.0, (2, 200, 40))
    absr = np.concatenate([rng.uniform(0.0, 0.925, 100), rng.uniform(0.925, 1.0, 100)])
    r = np.repeat((absr * rng.choice([-1.0, 1.0], 200))[:, None], 40, axis=1)
    assert hashlib.sha256(gauss._bvnu(h, k, r).tobytes()).hexdigest() == (
        "1bd6e01fae55e46f942923b66f4cd248311ec130151802d6ab7475ebd4dfde29")


def _rng():
    return np.random.default_rng(0)


def _c(d):
    return GaussComponent(np.zeros(d), np.eye(d))


@pytest.mark.parametrize("make, message", [
    (lambda: Rect([0.0, 0.0], [1.0]),
     r"^lower and upper must be 1-d vectors of equal length$"),
    (lambda: Rect([[0.0]], [[1.0]]),
     r"^lower and upper must be 1-d vectors of equal length$"),
    (lambda: GaussComponent([0.0, 0.0], np.eye(3)),
     r"^mean must be a d-vector and cov a d x d matrix$"),
    (lambda: sample(0, _c(2), _rng()), r"^n must be >= 1$"),
    # a far tail, so that without the check the mass test would fail first
    (lambda: sample_truncated(0, _c(1), Rect([10.0], [11.0]), _rng()),
     r"^n must be >= 1$"),
    (lambda: rect_prob([_c(2)], Rect.unbounded(3)),
     r"^rectangle and component dimension mismatch$"),
    (lambda: rect_prob([_c(11)], Rect(np.zeros(11), np.ones(11))),
     r"^rect_prob supports d <= 10$"),
], ids=["rect_lengths", "rect_2d_bounds", "component_shapes", "sample_n",
        "sample_truncated_n", "stack_dimension", "rect_prob_dimension"])
def test_rejects_malformed_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()
