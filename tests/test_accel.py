import numpy as np
import pytest
from scipy.special import ndtr

from rareis import accel, analytic_scenario, dompoints
from rareis.accel import (build_is, crude_equiv_n, estimate, likelihood_ratio,
                          run_procedure, sample_is)
from rareis.frontier import DirectionMask, FrontierStore, insert
from rareis.gauss import GaussComponent, Rect, log_densities, rect_prob
from rareis.tgmm import TruncatedGMM, gmm_log_density, gmm_sample


def gauss1d(mu=0.0, var=1.0):
    return TruncatedGMM([1.0], [GaussComponent([mu], [[var]])], Rect.unbounded(1))


def two_comp():
    comps = [GaussComponent([0.0, 0.0], np.eye(2)),
             GaussComponent([2.0, 1.0], [[1.0, 0.3], [0.3, 1.0]])]
    return TruncatedGMM([0.3, 0.7], comps, Rect.unbounded(2))


class TestBuildIs:
    def test_rho_zero_uses_outer_only(self):
        gmm = gauss1d()
        q = build_is(gmm, [[np.array([9.0])]], [[np.array([3.0])]], 0.0)
        assert q.n_components == 1
        assert q.components[0].mean[0] == 3.0

    def test_unshifted_mean_equals_base(self, rng):
        gmm = gauss1d(0.5, 2.0)
        q = build_is(gmm, [[np.array([0.5])]], [[np.array([0.5])]], 0.5)
        x = rng.standard_normal((50, 1)) * 2
        assert np.allclose(gmm_log_density(x, q), gmm_log_density(x, gmm), atol=1e-12)

    def test_part_weight_arithmetic(self):
        gmm = two_comp()
        gmm.weights[:] = [0.3, 0.7]
        a_outer = [[np.zeros(2), np.ones(2)], [np.full(2, 2.0)]]
        q = build_is(gmm, [[], []], a_outer, 0.0)
        weights = sorted(q.weights)
        assert np.allclose(weights, [0.15, 0.15, 0.7])

    def test_rho_one_with_empty_inner_errors(self):
        gmm = gauss1d()
        with pytest.raises(ValueError):
            build_is(gmm, [[]], [[np.array([1.0])]], 1.0)

    def test_mean_outside_support_rejected(self):
        support = Rect([0.0], [1.0])
        gmm = TruncatedGMM([1.0], [GaussComponent([0.5], [[1.0]])], support)
        with pytest.raises(ValueError):
            build_is(gmm, [[]], [[np.array([2.0])]], 0.0)

    def test_first_mean_outside_support_named(self):
        gmm = TruncatedGMM([1.0], [GaussComponent([0.5, 0.5], np.eye(2))],
                           Rect([0.0, 0.0], [1.0, np.inf]))
        a = [[np.array([0.2, 3.0]), np.array([0.5, -1.0]), np.array([2.0, 0.5])]]
        with pytest.raises(ValueError, match=r"IS part mean \[0.5, -1.0\] lies "
                                             "outside the support"):
            build_is(gmm, [[]], a, 0.0)


# Dominating sets of two_comp: 2 points for component 0, 1 for component 1.
INNER = [[[0.5, 1.5], [1.25, -0.75]], [[3.0, 2.0]]]
OUTER = [[[0.25, 0.5], [0.75, -0.5]], [[2.5, 1.75]]]
SHARE_1 = ["0x1.3333333333333p-3", "0x1.3333333333333p-3",
           "0x1.6666666666666p-1"]
SHARE_HALF = ["0x1.3333333333334p-4", "0x1.3333333333334p-4",
              "0x1.6666666666667p-2"]


def as_sets(points):
    return [[np.array(p) for p in pts] for pts in points]


class TestBuildIsPinned:
    """Weights, means and base components of build_is's parts, recorded bit
    for bit: inner parts before outer ones, each set in component order."""

    @pytest.mark.parametrize("rho, hexes, means, base", [
        (0.0, SHARE_1, OUTER[0] + OUTER[1], [0, 0, 1]),
        (0.5, SHARE_HALF * 2, INNER[0] + INNER[1] + OUTER[0] + OUTER[1],
         [0, 0, 1, 0, 0, 1]),
        (1.0, SHARE_1, INNER[0] + INNER[1], [0, 0, 1])])
    def test_parts(self, rho, hexes, means, base):
        gmm = two_comp()
        q = build_is(gmm, as_sets(INNER), as_sets(OUTER), rho)
        assert [float(w).hex() for w in q.weights] == hexes
        assert ([c.mean.tobytes() for c in q.components]
                == [np.array(m, dtype=float).tobytes() for m in means])
        assert ([c.cov.tobytes() for c in q.components]
                == [gmm.components[i].cov.tobytes() for i in base])
        assert q.support is gmm.support

    @pytest.mark.parametrize("inner, outer, message", [
        ([[], [[3.0, 2.0]]], OUTER, "rho > 0 requires nonempty inner dominating sets"),
        (INNER, [[[0.25, 0.5]], []], "rho < 1 requires nonempty outer dominating sets"),
        ([[], []], [[], []], "rho > 0 requires nonempty inner dominating sets")])
    def test_empty_set_errors(self, inner, outer, message):
        with pytest.raises(ValueError) as err:
            build_is(two_comp(), as_sets(inner), as_sets(outer), 0.5)
        assert str(err.value) == message


class TestIsLogDensity:
    def test_single_part_truncated_gaussian(self):
        support = Rect([0.0], [np.inf])
        gmm = TruncatedGMM([1.0], [GaussComponent([0.5], [[1.0]])], support)
        q = build_is(gmm, [[]], [[np.array([1.0])]], 0.0)
        x = np.array([0.7])
        c = GaussComponent([1.0], [[1.0]])
        expected = log_densities([x], [c])[0, 0] - np.log(rect_prob([c], support)[0])
        assert gmm_log_density(x[None], q)[0] == pytest.approx(expected, abs=1e-10)

    def test_outside_support(self):
        support = Rect([0.0], [np.inf])
        gmm = TruncatedGMM([1.0], [GaussComponent([0.5], [[1.0]])], support)
        q = build_is(gmm, [[]], [[np.array([1.0])]], 0.0)
        assert gmm_log_density(np.array([[-1.0]]), q)[0] == -np.inf

    def test_three_part_hand_composition(self):
        gmm = gauss1d()
        means = [0.0, 1.0, 2.5]
        q = build_is(gmm, [[]], [[np.array([m]) for m in means]], 0.0)
        x = 0.8
        direct = np.mean([np.exp(-0.5 * (x - m) ** 2) / np.sqrt(2 * np.pi)
                          for m in means])
        assert gmm_log_density(np.array([[x]]), q)[0] == pytest.approx(np.log(direct),
                                                                       rel=1e-12)


class TestLikelihoodRatio:
    def test_base_model_ratio_is_one(self, rng):
        gmm = two_comp()
        a = [[c.mean.copy()] for c in gmm.components]
        q = build_is(gmm, a, a, 0.0)
        x = rng.standard_normal((20, 2))
        assert np.allclose(likelihood_ratio(x, gmm, q), 1.0, atol=1e-12)

    def test_mean_shift_scalar_algebra(self):
        gmm = gauss1d()
        a = 3.0
        q = build_is(gmm, [[]], [[np.array([a])]], 0.0)
        got = likelihood_ratio(np.array([[a]]), gmm, q)[0]
        assert got == pytest.approx(np.exp(-a * a / 2), rel=1e-12)

    def test_two_part_mixture_hand_oracle(self, rng):
        gmm = gauss1d()
        means = [1.0, 2.0]
        q = build_is(gmm, [[]], [[np.array([m]) for m in means]], 0.0)
        for x in rng.normal(1.0, 1.0, 5):
            num = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
            den = np.mean([np.exp(-0.5 * (x - m) ** 2) / np.sqrt(2 * np.pi)
                           for m in means])
            got = likelihood_ratio(np.array([[x]]), gmm, q)[0]
            assert got == pytest.approx(num / den, rel=1e-10)

    def test_support_mismatch_names_first_bad_row(self):
        gmm = gauss1d()
        q = TruncatedGMM([1.0], [GaussComponent([3.0], [[1.0]])],
                         Rect([0.0], [np.inf]))
        x = np.abs(np.linspace(-3.0, 5.0, 100_000))[:, None]
        x[[70_000, 70_001, 90_000]] = -1.5
        with pytest.raises(ValueError) as err:
            likelihood_ratio(x, gmm, q)
        msg = str(err.value)
        assert len(msg) < 200
        assert "in 3 rows, first bad row 70000 of the 100000 given: x=[-1.5]" in msg


    def test_truncated_parts_with_component_covariances(self, rng):
        # Each part keeps its own base component's covariance and its own
        # normalizer on the bounded support; the oracle composes both
        # mixtures from gauss primitives alone.
        support = Rect([-1.0, -0.5], [3.0, 2.5])
        base = [GaussComponent([0.0, 0.5], [[1.0, 0.4], [0.4, 0.8]]),
                GaussComponent([1.5, 1.0], [[0.3, -0.1], [-0.1, 1.6]])]
        weights = [0.35, 0.65]
        gmm = TruncatedGMM(weights, base, support)
        a_inner = [[np.array([1.0, 1.5])],
                   [np.array([2.5, 0.0]), np.array([0.5, 2.0])]]
        a_outer = [[np.array([-0.5, 2.0]), np.array([2.0, -0.2])],
                   [np.array([2.8, 2.2]), np.array([0.0, 0.0]),
                    np.array([1.0, 2.4])]]
        rho = 0.3
        q = build_is(gmm, a_inner, a_outer, rho)
        assert q.n_components == 8

        def trunc_dens(X, c):
            return np.exp(log_densities(X, [c])[0]) / rect_prob([c], support)[0]

        X = rng.uniform(support.lower, support.upper, size=(200, 2))
        num = sum(w * trunc_dens(X, c) for w, c in zip(weights, base))
        den = np.zeros(X.shape[0])
        for share, sets in ((rho, a_inner), (1.0 - rho, a_outer)):
            for w, c, pts in zip(weights, base, sets):
                for p in pts:
                    den += (share * w / len(pts)
                            * trunc_dens(X, GaussComponent(p, c.cov)))
        assert np.allclose(likelihood_ratio(X, gmm, q), num / den,
                           rtol=1e-10, atol=0)


def interleaved_models(q_support):
    """A K = 2 base model and a proposal whose parts alternate between the
    two base components' factors, on the support q_support."""
    base = [GaussComponent([0.0, 0.5], [[1.0, 0.4], [0.4, 0.8]]),
            GaussComponent([1.5, 1.0], [[0.3, -0.1], [-0.1, 1.6]])]
    gmm = TruncatedGMM([0.35, 0.65], base, Rect([-1.0, -np.inf], [np.inf, 3.0]))
    means = [[1.0, 1.5], [2.5, 0.0], [-0.5, 2.0], [0.5, 2.0], [2.0, -0.2]]
    parts = [base[i % 2].moved_to(np.array(m)) for i, m in enumerate(means)]
    return gmm, TruncatedGMM([0.1, 0.3, 0.2, 0.25, 0.15], parts, q_support)


def two_density_ratio(x, gmm, q):
    with np.errstate(invalid="ignore"):
        return np.exp(gmm_log_density(x, gmm) - gmm_log_density(x, q))


class TestLikelihoodRatioBitwise:
    """One log_densities call for both mixtures against two gmm_log_density
    calls."""

    def test_equals_two_density_calls(self, rng):
        gmm, q = interleaved_models(Rect.unbounded(2))
        x = rng.uniform(-1.0, 3.0, (300, 2))
        x[7] = [-2.0, 0.0]  # outside the base's support only
        got = likelihood_ratio(x, gmm, q)
        assert got[7] == 0.0
        assert got.tobytes() == two_density_ratio(x, gmm, q).tobytes()

    def test_rows_outside_the_proposal_support(self, rng):
        gmm, q = interleaved_models(Rect([-np.inf, -np.inf], [2.5, np.inf]))
        x = rng.uniform(-1.0, 2.4, (50, 2))
        # outside q's support; outside both; outside the base's only
        x[[11, 30, 40]] = [[2.8, 1.0], [3.0, 5.0], [-2.0, 0.0]]
        want = two_density_ratio(x, gmm, q)
        assert np.flatnonzero(~np.isfinite(want)).tolist() == [11, 30]
        with pytest.raises(ValueError) as err, np.errstate(invalid="ignore"):
            likelihood_ratio(x, gmm, q)
        assert str(err.value) == ("non-finite likelihood ratio (support mismatch) "
                                  "in 2 rows, first bad row 11 of the 50 given: "
                                  "x=[2.8, 1.0]")
        good = np.isfinite(want)
        got = likelihood_ratio(x[good], gmm, q)
        assert got.tobytes() == want[good].tobytes() and 0.0 in got


CORRELATED = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, -0.1], [0.2, -0.1, 1.0]])


@pytest.fixture(scope="module")
def halfspace_proposal():
    """The final proposal of a 3-D halfspace procedure, gamma 4.75 sd along
    the diagonal, with correlated coordinates: 25 or more parts sharing
    one factor, and 1000 draws from it."""
    d = 3
    gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(d), CORRELATED)],
                       Rect.unbounded(d))
    ind, _, mask = analytic_scenario("halfspace", {"w": [d ** -0.5] * d,
                                                   "gamma": 4.753424308822899})
    _, q = run_procedure(ind, gmm, mask, n_per_iter=2000, seed=1)
    X = sample_is(1000, q, np.random.default_rng(3))
    return gmm, q, X


class TestProposalLikelihoodRatio:
    def test_matches_explicit_mixture(self, halfspace_proposal):
        from scipy.special import logsumexp
        gmm, q, X = halfspace_proposal
        assert q.n_components >= 25
        assert len({c.chol.tobytes() for c in q.components}) == 1
        inv, const = np.linalg.inv(CORRELATED), 3 * np.log(2 * np.pi)
        const += np.log(np.linalg.det(CORRELATED))
        log_f = -0.5 * (const + np.einsum("ni,ij,nj->n", X, inv, X))
        dev = X[:, None, :] - np.array([c.mean for c in q.components])
        quad = np.einsum("nki,ij,nkj->nk", dev, inv, dev)
        log_q = logsumexp(np.log(q.weights) - 0.5 * (const + quad), axis=1)
        assert np.allclose(likelihood_ratio(X, gmm, q), np.exp(log_f - log_q),
                           rtol=1e-12, atol=0)

    def test_batch_invariant(self, halfspace_proposal):
        """Row i's ratio is bit for bit the same in a call of 1, 7 or 1000
        rows and with the rows reversed, as the exact ordering of the
        frontier bounds around the estimate requires."""
        gmm, q, X = halfspace_proposal
        full = likelihood_ratio(X, gmm, q)
        assert likelihood_ratio(X[:7], gmm, q).tobytes() == full[:7].tobytes()
        assert likelihood_ratio(X[::-1], gmm, q).tobytes() == full[::-1].tobytes()
        for i in range(50):
            assert likelihood_ratio(X[i:i + 1], gmm, q).tobytes() == full[i:i + 1].tobytes()
            assert gmm_log_density(X[i:i + 1], q)[0] == gmm_log_density(X, q)[i]


def tail_setup(gamma=4.0):
    gmm = gauss1d()
    ind, truth_fn, mask = analytic_scenario("halfspace", {"w": [1.0], "gamma": gamma})
    q = build_is(gmm, [[]], [[np.array([gamma])]], 0.0)
    return gmm, ind, truth_fn(gmm), q, mask


class TestEstimate:
    def test_total_mass_identity(self):
        gmm = gauss1d()
        q = build_is(gmm, [[]], [[np.array([0.5])]], 0.0)
        one = lambda X: np.ones(np.atleast_2d(X).shape[0], dtype=int)
        rep = estimate(one, gmm, q, 5000, seed=1)
        assert abs(rep.p_hat - 1.0) <= 4 * rep.stderr

    def test_zero_indicator(self):
        gmm, _, _, q, _ = tail_setup()
        zero = lambda X: np.zeros(np.atleast_2d(X).shape[0], dtype=int)
        rep = estimate(zero, gmm, q, 500, seed=1)
        assert rep.p_hat == 0.0
        assert rep.zero_hits

    def test_tail_case_accuracy(self):
        gmm, ind, truth, q, _ = tail_setup()
        rep = estimate(ind, gmm, q, 10_000, seed=7)
        assert abs(rep.p_hat / truth - 1.0) < 0.05
        assert rep.ci95[0] <= truth <= rep.ci95[1]

    def test_ci_definition(self):
        gmm, ind, _, q, _ = tail_setup()
        rep = estimate(ind, gmm, q, 1000, seed=3)
        assert rep.ci95 == (rep.p_hat - 1.96 * rep.stderr,
                            rep.p_hat + 1.96 * rep.stderr)

    def test_determinism_and_worker_layout(self):
        gmm, ind, _, q, _ = tail_setup()
        a = estimate(ind, gmm, q, 2000, seed=5)
        b = estimate(ind, gmm, q, 2000, seed=5)
        assert a.to_json() == b.to_json()

    def test_draws_are_child_zero_of_the_seed(self):
        """The estimate averages over gmm_sample(n, proposal, rng) with rng
        from child 0 of SeedSequence(seed), for an IS proposal and for the
        base model; another stream fails this."""
        gmm, ind, _, q, _ = tail_setup(gamma=2.0)
        n, seed = 3000, 12

        def draws(proposal):
            child = np.random.SeedSequence(seed).spawn(1)[0]
            X = gmm_sample(n, proposal, np.random.default_rng(child))
            return X, ind(X) == 1

        X, hit = draws(q)
        il = np.zeros(n)
        il[hit] = np.exp(gmm_log_density(X[hit], gmm)
                         - gmm_log_density(X[hit], q))
        rep = estimate(ind, gmm, q, n, seed=seed)
        assert 100 < hit.sum() < n
        assert rep.p_hat == pytest.approx(il.mean(), rel=1e-12)
        assert rep.stderr == pytest.approx(il.std(ddof=1) / np.sqrt(n),
                                           rel=1e-12)
        _, hit = draws(gmm)
        assert 10 < hit.sum() < n
        assert estimate(ind, gmm, gmm, n, seed=seed).p_hat == hit.mean()

    def test_minimum_n(self):
        gmm, ind, _, q, _ = tail_setup()
        with pytest.raises(ValueError):
            estimate(ind, gmm, q, 50, seed=0)


class TestCrudeMc:
    def test_constant_indicator(self):
        gmm = gauss1d()
        one = lambda X: np.ones(np.atleast_2d(X).shape[0], dtype=int)
        rep = estimate(one, gmm, gmm, 1000, seed=0)
        assert rep.p_hat == 1.0 and rep.stderr == 0.0

    def test_median_set(self):
        gmm = gauss1d()
        ind, _, _ = analytic_scenario("halfspace", {"w": [1.0], "gamma": 0.0})
        rep = estimate(ind, gmm, gmm, 100_000, seed=2)
        assert abs(rep.p_hat - 0.5) < 0.005

    def test_cross_check_with_is_at_base(self):
        gmm = gauss1d()
        gamma = 2.33  # p ~ 1e-2
        ind, truth_fn, _ = analytic_scenario("halfspace", {"w": [1.0], "gamma": gamma})
        a = [[c.mean.copy()] for c in gmm.components]
        q = build_is(gmm, a, a, 0.0)
        r1 = estimate(ind, gmm, q, 50_000, seed=4)
        r2 = estimate(ind, gmm, gmm, 50_000, seed=5)
        joint = np.hypot(r1.stderr, r2.stderr)
        assert abs(r1.p_hat - r2.p_hat) < 3 * joint

    def test_base_model_proposal_is_crude(self):
        """With q the base model every likelihood ratio is exactly 1, so the
        values are the hits and the ESS is their count."""
        gmm = two_comp()
        ind, _, _ = analytic_scenario("halfspace", {"w": [1.0, 1.0],
                                                    "gamma": 4.0})
        n, seed = 5000, 7
        child = np.random.SeedSequence(seed).spawn(1)[0]
        hits = ind(gmm_sample(n, gmm, np.random.default_rng(child)))
        assert 10 < hits.sum() < n
        rep = estimate(ind, gmm, gmm, n, seed=seed)
        assert rep.method == "crude"
        assert rep.max_likelihood_ratio == 1.0
        assert rep.values.dtype == float
        assert np.array_equal(rep.values, hits.astype(float))
        assert rep.effective_sample_size == hits.sum()
        assert rep.stderr == rep.values.std(ddof=1) / np.sqrt(n)
        assert not rep.zero_hits


class TestCrudeEquivN:
    def test_formula(self):
        p, se = 1e-3, 1e-5
        assert crude_equiv_n(p, se) == int(np.ceil(p * (1 - p) / se ** 2))

    def test_degenerate(self):
        assert crude_equiv_n(0.0, 0.1) == 0
        assert crude_equiv_n(0.5, 0.0) == 0


class TestApplyIndicator:
    def test_wrong_shape_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match=r"\(4, 1\)"):
            accel.apply_indicator(lambda X: np.zeros((4, 1)), X)

    def test_indicator_errors_propagate_without_row_reruns(self):
        calls = []

        def failing(X):
            calls.append(X.shape)
            raise RuntimeError("bad row")

        with pytest.raises(RuntimeError, match="bad row"):
            accel.apply_indicator(failing, np.zeros((5, 2)))
        assert calls == [(5, 2)]

    @pytest.mark.parametrize("bad, shown", [(0.9, "0.9"), (2, "2"),
                                            (np.nan, "nan")])
    def test_outcomes_other_than_0_or_1_rejected(self, bad, shown):
        vals = np.array([1, 0, bad, 1, bad])
        with pytest.raises(ValueError, match=r"^indicator returned %s at row 2; "
                           r"want 0 or 1$" % shown):
            accel.apply_indicator(lambda X: vals, np.zeros((5, 2)))

    def test_boolean_outcomes_are_valid(self):
        out = accel.apply_indicator(lambda X: X[:, 0] > 0, np.array([[1.0], [-1.0]]))
        assert out.tolist() == [1, 0] and out.dtype.kind == "i"

    def test_estimate_and_procedure_reject_fractional_outcomes(self):
        """0.9 outcomes were once cast to misses, so both ran to an answer."""
        gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(2), np.eye(2))],
                           Rect.unbounded(2))

        def ind(X):
            return (X.sum(axis=1) > 2) * 0.9
        with pytest.raises(ValueError, match="returned 0.9 at row .*; want 0 or 1"):
            estimate(ind, gmm, gmm, 10000, 0)
        with pytest.raises(ValueError, match="returned 0.9 at row .*; want 0 or 1"):
            run_procedure(ind, gmm, DirectionMask([1.0, 1.0]), n_per_iter=100,
                          max_iter=1)


@pytest.mark.parametrize("rho", [-0.1, 1.5, np.nan])
def test_build_is_rejects_rho_outside_the_unit_interval(rho):
    sets = [[np.array([3.0])]]
    with pytest.raises(ValueError, match=r"^rho must lie in \[0, 1\]$"):
        build_is(gauss1d(), sets, sets, rho)


class TestRunProcedure:
    def test_zero_iterations_returns_base(self, rng):
        gmm = gauss1d()
        ind, _, mask = analytic_scenario("halfspace", {"w": [1.0], "gamma": 4.0})
        state, q = run_procedure(ind, gmm, mask, max_iter=0, seed=0)
        assert state.simulator_calls == 0
        x = rng.standard_normal((30, 1))
        assert np.allclose(gmm_log_density(x, q), gmm_log_density(x, gmm), atol=1e-12)

    def test_1d_threshold_one_iteration(self):
        gmm = gauss1d()
        ind, _, mask = analytic_scenario("halfspace", {"w": [1.0], "gamma": 1.0})
        state, _ = run_procedure(ind, gmm, mask, n_per_iter=200, max_iter=1, seed=3)
        assert state.frontier.s1.shape[0] == 1
        min_rare = state.frontier.s1[0, 0]
        assert min_rare >= 1.0
        # inner dominating point is the clamp of the mean onto [s1, inf)
        assert state.a_inner[0][0][0] == pytest.approx(min_rare, abs=1e-9)

    def test_2d_linear_threshold_estimate(self):
        gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(2), np.eye(2))],
                           Rect.unbounded(2))
        w = np.array([1.0, 1.0]) / np.sqrt(2)
        gamma = 3.719  # p ~ 1e-4 for the projected standard normal
        ind, truth_fn, mask = analytic_scenario("halfspace",
                                                {"w": w, "gamma": gamma})
        truth = truth_fn(gmm)
        state, q = run_procedure(ind, gmm, mask, n_per_iter=500, max_iter=3, seed=11)
        rep = estimate(ind, gmm, q, 20_000, seed=12)
        assert abs(rep.p_hat / truth - 1.0) < 0.10

    def test_simulator_call_accounting(self):
        gmm = gauss1d()
        ind, _, mask = analytic_scenario("halfspace", {"w": [1.0], "gamma": 2.0})
        state, _ = run_procedure(ind, gmm, mask, n_per_iter=150, max_iter=3, seed=0)
        assert state.simulator_calls == 450
        assert len(state.history) == 3

    def test_rho_policy_activates_after_first_rare(self):
        gmm = gauss1d()
        ind, _, mask = analytic_scenario("halfspace", {"w": [1.0], "gamma": 1.5})
        state, _ = run_procedure(ind, gmm, mask, n_per_iter=300, max_iter=3, seed=2)
        rhos = [h["rho"] for h in state.history]
        assert rhos[0] == 0.0
        assert 0.5 in rhos


class TestThinFrontier:
    def test_under_cap_unchanged(self):
        store = FrontierStore(DirectionMask([1.0, 1.0]), [[1.0, 2.0]], [[0.0, 0.0]])
        thinned = accel.thin_frontier(two_comp(), store, 1)
        assert np.array_equal(thinned.s1, store.s1)
        assert np.array_equal(thinned.s0, store.s0)

    def test_keeps_densest_rare_and_farthest_safe_in_row_order(self):
        gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(2), np.eye(2))],
                           Rect.unbounded(2))
        mask = DirectionMask([1.0, -1.0])
        s1 = [[3.0, 3.0], [0.5, 0.5], [1.0, 0.0], [4.0, 0.0]]
        s0 = [[0.0, 1.0], [2.0, -1.0], [1.0, 1.0], [-3.0, 5.0]]
        thinned = accel.thin_frontier(gmm, FrontierStore(mask, s1, s0), 2)
        assert thinned.mask is mask
        assert thinned.s1.tolist() == [[0.5, 0.5], [1.0, 0.0]]
        # coordinate sums 1, 1, 2, 2: both 2s, then the earlier 1 at cap 3
        thinned = accel.thin_frontier(gmm, FrontierStore(mask, s1, s0), 3)
        assert thinned.s0.tolist() == [[0.0, 1.0], [1.0, 1.0], [-3.0, 5.0]]


def _bounds(gmm, store, ind, n, seed):
    """estimate on the store, drawing from its own rho = 0.5 proposal."""
    q = build_is(gmm, dompoints.inner_dominating(gmm, store),
                 dompoints.outer_dominating(gmm, store), 0.5)
    return estimate(ind, gmm, q, n, seed, frontier=store)


# Exact P(X >= corner) under this model on [0, inf)^3 is 6.9307e-07.
TRUNC_MODEL = TruncatedGMM(
    [0.4, 0.6],
    [GaussComponent([1.0, 0.8, 0.6], [[0.5, 0.2, 0.1], [0.2, 0.4, 0.1],
                                      [0.1, 0.1, 0.3]]),
     GaussComponent([3.0, 2.5, 1.77], [[0.6, -0.15, 0.1], [-0.15, 0.5, 0.05],
                                       [0.1, 0.05, 0.4]])],
    Rect(np.zeros(3), np.full(3, np.inf)))


class TestBoundProbabilities:
    def test_empty_frontier(self):
        gmm = gauss1d()
        ind, _, mask = analytic_scenario("halfspace", {"w": [1.0], "gamma": 2.0})
        rep = _bounds(gmm, FrontierStore(mask), ind, 1000, seed=0)
        assert rep.bounds == (0.0, 1.0)
        assert rep.bounds_stderr == (0.0, 0.0)

    def test_collapsed_1d_threshold(self):
        gmm = gauss1d()
        ind, _, mask = analytic_scenario("halfspace", {"w": [1.0], "gamma": 2.0})
        store = insert(FrontierStore(mask), np.array([[2.0], [1.999]]), [1, 0])
        rep = _bounds(gmm, store, ind, 20_000, seed=1)
        p_lo, p_up = rep.bounds
        joint = 3 * np.hypot(*rep.bounds_stderr)
        assert p_up - p_lo < joint + 1e-4

    def test_2d_truth_within_widened_bounds(self, rng):
        gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(2), np.eye(2))],
                           Rect.unbounded(2))
        w = np.array([1.0, 1.0])
        gamma = 3.0
        ind, truth_fn, mask = analytic_scenario("halfspace",
                                                {"w": w, "gamma": gamma})
        truth = truth_fn(gmm)
        pts = rng.uniform(0, 2.5, size=(60, 2))
        store = insert(FrontierStore(mask), pts, ind(pts))
        rep = _bounds(gmm, store, ind, 20_000, seed=2)
        (p_lo, p_up), (se_lo, se_up) = rep.bounds, rep.bounds_stderr
        assert p_lo - 3 * se_lo <= truth <= p_up + 3 * se_up
        assert p_lo <= rep.p_hat <= p_up

    def test_estimate_does_not_move(self, rng):
        gmm = two_comp()
        ind, _, mask = analytic_scenario("halfspace", {"w": [1.0, 1.0],
                                                       "gamma": 5.0})
        pts = rng.uniform(0, 4, size=(200, 2))
        store = insert(FrontierStore(mask), pts, ind(pts))
        q = build_is(gmm, dompoints.inner_dominating(gmm, store),
                     dompoints.outer_dominating(gmm, store), 0.5)
        plain = estimate(ind, gmm, q, 5000, 3)
        rep = estimate(ind, gmm, q, 5000, 3, frontier=store)
        assert np.array_equal(plain.values, rep.values)
        doc, doc_b = plain.to_dict(), rep.to_dict()
        assert "bounds_stderr" not in doc
        for k in ("bounds", "bounds_stderr"):
            doc_b.pop(k)
        assert doc == doc_b | {"bounds": [0.0, 1.0]}

    @pytest.mark.parametrize("kind", ["halfspace", "trunc"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rare_tails_within_widened_bounds(self, kind, seed):
        """The 3-D halfspace at p = 1e-6 and the truncated orthant at
        p = 6.93e-7, through the procedure as run gives them."""
        if kind == "halfspace":
            gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(3), np.eye(3))],
                               Rect.unbounded(3))
            params = {"w": [3 ** -0.5] * 3, "gamma": 4.753424308822899}
            ind, truth_fn, mask = analytic_scenario("halfspace", params)
            n_per_iter = 2000
        else:
            gmm = TRUNC_MODEL
            ind, truth_fn, mask = analytic_scenario(
                "orthant", {"corner": [4.70, 4.06, 3.39]})
            n_per_iter = 1000
        p = truth_fn(gmm)
        state, q = run_procedure(ind, gmm, mask, n_per_iter=n_per_iter,
                                 seed=seed)
        rep = estimate(ind, gmm, q, 100_000, seed + 1, frontier=state.frontier)
        (p_lo, p_up), (se_lo, se_up) = rep.bounds, rep.bounds_stderr
        assert p_lo - 3 * se_lo <= p <= p_up + 3 * se_up
        assert p_lo <= rep.p_hat <= p_up
        if kind == "halfspace":
            assert p_up <= 10 * p


class TestEfficiencyProperties:
    def test_variance_reduction_100x_on_tail(self):
        gmm, ind, truth, q, _ = tail_setup(4.0)
        rep = estimate(ind, gmm, q, 10_000, seed=21)
        crude_se = np.sqrt(truth * (1 - truth) / 10_000)
        assert 100 * rep.stderr ** 2 < crude_se ** 2
        assert rep.crude_equiv_n > 100 * rep.n_samples

    def test_relative_stderr_stays_flat_across_gamma(self):
        rels = []
        crude_rels = []
        for gamma in (3.0, 4.0, 5.0):
            gmm, ind, truth, q, _ = tail_setup(gamma)
            rep = estimate(ind, gmm, q, 10_000, seed=31)
            rels.append(rep.stderr / truth)
            crude_rels.append(np.sqrt((1 - truth) / (truth * 10_000)))
        assert max(rels) / min(rels) < 10
        assert crude_rels[2] / crude_rels[0] > 50

    def test_unbiasedness_200_replications(self):
        gmm, ind, truth, q, _ = tail_setup(4.0)
        p_hats = np.array([estimate(ind, gmm, q, 1000, seed=1000 + r).p_hat
                           for r in range(200)])
        se_mean = p_hats.std(ddof=1) / np.sqrt(200)
        assert abs(p_hats.mean() - truth) < 3 * se_mean


def test_procedure_state_serializes(rng):
    gmm = gauss1d()
    ind, _, mask = analytic_scenario("halfspace", {"w": [1.0], "gamma": 2.0})
    state, _ = run_procedure(ind, gmm, mask, n_per_iter=100, max_iter=2, seed=1)
    import json
    doc = json.loads(state.to_json())
    assert set(doc) == {"iteration", "simulator_calls", "history"}
    assert doc["simulator_calls"] == 200
    assert doc["history"] == state.history
