import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from rareis.frontier import DirectionMask
from rareis.gauss import GaussComponent, Rect
from rareis import scenario
from rareis.accel import apply_indicator
from rareis.scenario import (STANDSTILL_MARGIN, AVConfig, analytic_scenario,
                             lane_change_coords, lane_change_indicator,
                             lane_change_mask, simulate, simulate_batch)
from rareis.tgmm import TruncatedGMM


def _reference_simulate(v_lead, ttc, gap, cfg):
    """The per-event loop that simulate_batch vectorizes, kept as its oracle.

    cfg fields are read once and min/max are written as comparisons, which
    changes no float operation and keeps the oracle fast enough for tier 1.
    """
    dt, crash, trigger = cfg.dt, cfg.crash_range, cfg.aeb_ttc_trigger
    spacing, time_gap, speed = (cfg.acc_spacing_gain, cfg.acc_time_gap,
                                cfg.acc_speed_gain)
    delay, max_decel, aeb_decel = (cfg.reaction_delay, cfg.max_decel,
                                   cfg.aeb_decel)
    v_f = v_lead + gap / ttc
    aeb_at = None
    t = 0.0
    for step in range(int(round(cfg.horizon / dt))):
        if gap <= crash:
            return 1
        range_rate = v_lead - v_f
        if range_rate < 0:
            ttc_inst = -gap / range_rate
            if ttc_inst < trigger and aeb_at is None:
                aeb_at = t + delay
        accel = (spacing * (gap - v_f * time_gap - STANDSTILL_MARGIN)
                 + speed * range_rate)
        if accel < -max_decel:
            accel = -max_decel
        elif accel > 2.0:
            accel = 2.0
        if aeb_at is not None and t >= aeb_at:
            accel = -aeb_decel
        v_f = v_f + accel * dt
        if v_f < 0.0:
            v_f = 0.0
        gap += (v_lead - v_f) * dt
        t += dt
        if not (math.isfinite(gap) and math.isfinite(v_f)):
            raise RuntimeError("non-finite simulator state at step %d" % step)
    return 1 if gap <= crash else 0


class TestEvent:
    def test_model_round_trip(self, monkeypatch):
        """lane_change_coords maps events to the model coordinates and the
        indicator hands the simulator the events back."""
        events = np.array([[20.0, 2.5, 40.0], [8.0, 0.5, 5.0]])
        x = lane_change_coords(events)
        assert np.allclose(x, [[20.0, 0.4, 0.025], [8.0, 2.0, 0.2]])
        seen = []

        def record(v, ttc, range_, cfg):
            seen.append(np.column_stack([v, ttc, range_]))
            return np.zeros(len(v), dtype=int)
        monkeypatch.setattr(scenario, "simulate_batch", record)
        lane_change_indicator()(x)
        assert seen[0] == pytest.approx(events)

    def test_invalid_event(self):
        for bad in ([10.0, -1.0, 5.0], [10.0, 1.0, 0.0], [0.0, 1.0, 5.0],
                    [10.0, 1.0]):
            with pytest.raises(ValueError):
                lane_change_coords([bad])


class TestSimulate:
    # outcomes pinned as regressions for the default configuration
    CASES = [
        ((25.0, 5.0, 50.0), 0),
        ((20.0, 2.0, 30.0), 0),
        ((15.0, 1.0, 12.0), 0),
        ((20.0, 1.5, 25.0), 0),
        ((30.0, 3.0, 40.0), 0),
        ((10.0, 0.8, 8.0), 1),
        ((8.0, 0.5, 5.0), 1),
        ((12.0, 0.6, 6.0), 1),
        ((5.0, 0.4, 3.0), 1),
        ((3.0, 0.3, 2.0), 1),
    ]

    @pytest.mark.parametrize("params,expected", CASES)
    def test_pinned_outcomes(self, params, expected):
        assert simulate(*params) == expected

    def test_deterministic(self):
        assert simulate(10.0, 0.9, 9.0) == simulate(10.0, 0.9, 9.0)

    def test_huge_gap_is_safe(self):
        assert simulate(25.0, 10.0, 500.0) == 0

    def test_tiny_gap_is_crash(self):
        cfg = AVConfig(crash_range=0.5)
        assert simulate(10.0, 1.0, 0.4, cfg) == 1

    def test_step_size_robustness(self):
        """Halving dt flips almost no outcomes across a broad event sweep."""
        rng = np.random.default_rng(99)
        fine = AVConfig(dt=0.005)
        coarse = AVConfig()
        events = np.array([(rng.uniform(3, 30), rng.uniform(0.3, 4),
                            rng.uniform(2, 60)) for _ in range(200)])
        a = simulate_batch(*events.T, coarse)
        crashes = int(a.sum())
        flips = int(np.sum(a != simulate_batch(*events.T, fine)))
        assert 20 < crashes < 180  # the sweep straddles the crash boundary
        assert flips <= 2

    def test_indicator_wraps_batches(self):
        ind = lane_change_indicator()
        X = lane_change_coords([p for p, _ in self.CASES])
        expected = np.array([o for _, o in self.CASES])
        assert np.array_equal(ind(X), expected)
        assert np.array_equal(ind(X[:1]), expected[:1])

    def test_indicator_rejects_nonpositive_reciprocals(self):
        ind = lane_change_indicator()
        for bad in ([20.0, 0.0, 0.1], [20.0, 0.5, -0.1]):
            with pytest.raises(ValueError):
                ind(np.array([[20.0, 0.5, 0.1], bad]))


class TestSimulateBatch:
    @pytest.mark.parametrize("cfg", [AVConfig(), AVConfig(crash_range=3.0),
                                     AVConfig(dt=0.005)],
                             ids=["default", "crash_range_3", "dt_0.005"])
    def test_matches_per_event_loop(self, cfg):
        rng = np.random.default_rng(2026)
        n = 2000
        v, ttc, range_ = (rng.uniform(3, 30, n), rng.uniform(0.3, 2.0, n),
                          rng.uniform(1, 40, n))
        expected = np.array([_reference_simulate(*e, cfg) for e in
                             zip(v.tolist(), ttc.tolist(), range_.tolist())])
        got = simulate_batch(v, ttc, range_, cfg)
        assert got.shape == (n,)
        assert 0.2 * n < expected.sum() < 0.8 * n  # straddles the boundary
        assert np.count_nonzero(got != expected) == 0

    def test_edge_rows(self):
        cfg = AVConfig(crash_range=0.5)
        # crash at step 0, never closes, crash after braking, safe
        events = [(10.0, 1.0, 0.4), (20.0, 1e9, 100.0), (8.0, 0.5, 5.0),
                  (25.0, 5.0, 50.0)]
        got = simulate_batch(*np.array(events).T, cfg)
        assert got.tolist() == [1, 0, 1, 0]
        assert got.tolist() == [_reference_simulate(*e, cfg) for e in events]
        assert [simulate(*e, cfg) for e in events] == [1, 0, 1, 0]

    def test_nonpositive_ttc_or_range_rejected(self):
        with pytest.raises(ValueError):
            simulate_batch([10.0, 10.0], [1.0, 0.0], [5.0, 5.0])
        with pytest.raises(ValueError):
            simulate_batch([10.0, 10.0], [1.0, -2.0], [5.0, 5.0])
        with pytest.raises(ValueError):
            simulate_batch([10.0], [1.0], [0.0])

    @pytest.mark.parametrize("events", [
        ([20.0, 20.0], [3.0], [10.0, 2.0]), ([20.0], [3.0, 3.0], [10.0]),
        (20.0, 3.0, 10.0), ([[20.0]], [[3.0]], [[10.0]])],
        ids=["one_ttc", "two_ttc", "scalars", "2d"])
    def test_other_shapes_name_the_shapes(self, events):
        # no broadcasting: the lone ttc of one_ttc is not paired with both rows
        shapes = tuple(np.shape(a) for a in events)
        with pytest.raises(ValueError, match=re.escape(
                "want three 1-D arrays of one length; got shapes %s, %s and %s"
                % shapes)):
            simulate_batch(*events)

    def test_non_finite_state_raises(self):
        with pytest.raises(RuntimeError):
            simulate_batch([10.0, 10.0], [1.0, 1e-300], [5.0, 1e300])


def _cutin_events(rng, n):
    """(v, ttc, range) rows like the cut-in workload's proposals, which sit
    near its crash boundary: v 15-25 m/s, ttc 2-6.7 s and range 3-20 m,
    drawn in (v, 1/ttc, 1/range)."""
    lo, up = np.array([15.0, 0.15, 0.05]), np.array([25.0, 0.5, 0.33])
    x = np.array([20.0, 0.3, 0.27]) + np.array([2.0, 0.05, 0.04]) * \
        rng.standard_normal((4 * n, 3))
    x = x[np.all((x > lo) & (x < up), axis=1)][:n]
    return x[:, 0], 1.0 / x[:, 1], 1.0 / x[:, 2]


def _oracle(v, ttc, range_, cfg):
    return np.array([_reference_simulate(*e, cfg) for e in
                     zip(np.ravel(v).tolist(), np.ravel(ttc).tolist(),
                         np.ravel(range_).tolist())])


@pytest.fixture
def checks(monkeypatch):
    """(aeb_at, retired) of every retirement check simulate_batch makes."""
    seen = []
    settled = scenario._settled

    def spy(cert, cfg, t, v_lead, v_f, gap, aeb_at):
        done = settled(cert, cfg, t, v_lead, v_f, gap, aeb_at)
        seen.append((aeb_at.copy(), done.copy()))
        return done
    monkeypatch.setattr(scenario, "_settled", spy)
    return seen


class TestRetirement:
    """Settled rows retire early with exactly the outcomes of the full loop."""

    CUTIN = AVConfig(crash_range=3.0)

    def test_cutin_events_match_oracle(self, checks):
        v, ttc, range_ = _cutin_events(np.random.default_rng(12), 600)
        expected = _oracle(v, ttc, range_, self.CUTIN)
        assert 0.05 * v.size < expected.sum() < 0.5 * v.size
        assert np.array_equal(simulate_batch(v, ttc, range_, self.CUTIN), expected)
        assert sum(np.count_nonzero(done) for _, done in checks) > 0

    def test_settled_rows_retire_before_the_horizon(self, checks):
        """Every safe cut-in row retires, and the loop ends long before the
        horizon's 1,500 steps: at most 3 checks, 25 steps apart."""
        v, ttc, range_ = _cutin_events(np.random.default_rng(3), 300)
        out = simulate_batch(v, ttc, range_, self.CUTIN)
        retired = sum(np.count_nonzero(done) for _, done in checks)
        assert retired == np.count_nonzero(out == 0) > 0
        assert len(checks) <= 3

    @pytest.mark.parametrize("cfg", [
        AVConfig(acc_spacing_gain=0.0, acc_speed_gain=0.0),
        AVConfig(acc_spacing_gain=0.0, crash_range=3.0)],
        ids=["zero_gains", "zero_spacing_gain"])
    def test_config_without_certificate(self, cfg, checks):
        """An eigenvalue at 1: no certificate, so only braking rows retire."""
        assert scenario._certificate(cfg) is None
        rng = np.random.default_rng(4)
        n = 200
        v, ttc, range_ = (rng.uniform(3, 30, n), rng.uniform(0.5, 6.0, n),
                          rng.uniform(1, 40, n))
        expected = _oracle(v, ttc, range_, cfg)
        assert 0.05 * n < expected.sum() < 0.95 * n
        assert np.array_equal(simulate_batch(v, ttc, range_, cfg), expected)
        assert sum(np.count_nonzero(done) for _, done in checks) > 0
        assert all(np.all(np.isfinite(aeb_at[done])) for aeb_at, done in checks)

    def test_overdamped_config(self, checks):
        """(kp h + kv)^2 > 4 kp: M has two real eigenvalues."""
        cfg = AVConfig(acc_speed_gain=1.0, crash_range=1.0)
        kp = cfg.acc_spacing_gain
        assert (kp * cfg.acc_time_gap + cfg.acc_speed_gain) ** 2 > 4 * kp
        rng = np.random.default_rng(5)
        n = 600
        v, ttc, range_ = (rng.uniform(3, 30, n), rng.uniform(0.5, 6.0, n),
                          rng.uniform(1.5, 40, n))
        expected = _oracle(v, ttc, range_, cfg)
        assert 0.05 * n < expected.sum() < 0.8 * n
        assert np.array_equal(simulate_batch(v, ttc, range_, cfg), expected)
        assert sum(np.count_nonzero(done) for _, done in checks) > n // 4

    def test_aeb_rows_match_oracle_and_retire_once_opening(self, checks):
        """Initial ttc below the 1.2 s trigger: AEB fires at step 0, and a
        braking row retires only once it is opening and clear of the crash
        range."""
        cfg = AVConfig()
        rng = np.random.default_rng(6)
        n = 400
        v, ttc, range_ = (rng.uniform(3, 30, n), rng.uniform(0.6, 1.15, n),
                          rng.uniform(1, 15, n))
        expected = _oracle(v, ttc, range_, cfg)
        assert 0.2 * n < expected.sum() < 0.8 * n
        assert np.array_equal(simulate_batch(v, ttc, range_, cfg), expected)
        assert 1 < len(checks) < 20
        assert all(np.all(np.isfinite(aeb_at)) for aeb_at, _ in checks[1:])
        assert not np.any(checks[0][1])  # the trigger has only just fired
        retired = sum(np.count_nonzero(done) for _, done in checks)
        assert retired == np.count_nonzero(expected == 0)

    def test_pending_aeb_blocks_retirement(self):
        """At the fixed point every bound holds; a fired AEB still blocks."""
        cfg = AVConfig()
        v = np.array([20.0, 20.0])
        gap = cfg.acc_time_gap * v + STANDSTILL_MARGIN
        done = scenario._settled(scenario._certificate(cfg), cfg, 0.0, v,
                                 v.copy(), gap, np.array([np.inf, 0.5]))
        assert done.tolist() == [True, False]

    # (config, lead speed, offset direction (gap, follower speed), and the
    # functional that binds first: 0 crash gap, 1 AEB trigger, 2 ACC cap,
    # 3 ACC floor, 4 follower speed)
    BOUNDARY = [(AVConfig(crash_range=14.0), 10.0, (1.0, 0.22), 0),
                (AVConfig(aeb_ttc_trigger=8.0), 10.0, (1.0, 0.12), 1),
                (AVConfig(), 20.0, (1.0, 0.01), 2),
                (AVConfig(), 20.0, (1.0, 0.22), 3),
                (AVConfig(), 0.2, (-1.0, 0.04), 4)]

    @pytest.mark.parametrize("cfg,v,d,binding", BOUNDARY,
                             ids=["crash", "aeb", "accel", "brake", "speed"])
    def test_rows_at_the_certificate_margin(self, cfg, v, d, binding, checks):
        """Rows whose trajectory supremum sits just inside the binding bound
        retire at step 0, rows just outside do not, and both keep the
        oracle's outcome."""
        gap_star = cfg.acc_time_gap * v + STANDSTILL_MARGIN
        bounds = np.array([gap_star - cfg.crash_range, gap_star,
                           scenario.ACC_MAX_ACCEL, cfg.max_decel, v])
        d = np.array(d)
        sup = scenario._trajectory_sup(scenario._certificate(cfg), d[:1],
                                       d[1:])[:, 0]
        # the supremum scales with the offset s d, and the slack is
        # RETIRE_MARGIN (1 + gap* + v + s |d|_1)
        margin = scenario.RETIRE_MARGIN
        scales = ((bounds - margin * (1.0 + gap_star + v))
                  / (sup + margin * np.abs(d).sum()))
        assert np.argmin(scales) == binding
        s = scales.min() * np.array([1 - 1e-9, 1 + 1e-9])
        gap = gap_star + s * d[0]
        ttc = gap / (s * d[1])
        got = simulate_batch([v, v], ttc, gap, cfg)
        assert checks[0][1].tolist() == [True, False]
        assert got.tolist() == _oracle([v, v], ttc, gap, cfg).tolist()


def _stepped_functionals(cfg, d_gap, d_v, steps):
    """(5, steps) functionals of _settled along the unsaturated ACC step,
    iterated in floats from the offset (d_gap, d_v) from the fixed point."""
    kp, dt = cfg.acc_spacing_gain, cfg.dt
    kd = kp * cfg.acc_time_gap + cfg.acc_speed_gain
    traj = []
    for _ in range(steps):
        accel = kp * d_gap - kd * d_v
        traj.append((-d_gap, -d_gap + cfg.aeb_ttc_trigger * d_v, accel,
                     -accel, -d_v))
        d_v += accel * dt
        d_gap -= d_v * dt
    return np.array(traj).T


class TestTrajectorySup:
    CONFIGS = [AVConfig(), AVConfig(dt=0.005), AVConfig(acc_speed_gain=1.0)]
    # subnormal offsets carry no relative precision: their float steps round
    # to zero and stall, so neither side of a relative bound means anything
    OFFSET = st.floats(-50.0, 50.0, allow_subnormal=False)

    @given(st.sampled_from(CONFIGS), OFFSET, OFFSET)
    @settings(max_examples=60, deadline=None)
    def test_bounds_the_stepped_map_tightly(self, cfg, d_gap, d_v):
        """The supremum over real t is at least the maximum over 20,000
        float steps of the affine map, up to 1e-10 of the largest
        |functional| for rounding (far inside RETIRE_MARGIN), and exceeds
        it by at most 1e-5 of that; the first peak falls inside those
        steps for all three configs."""
        f = _stepped_functionals(cfg, d_gap, d_v, 20_000)
        sup = scenario._trajectory_sup(scenario._certificate(cfg),
                                       np.array([d_gap]), np.array([d_v]))
        scale = np.max(np.abs(f), axis=1)
        assert np.all(sup[:, 0] >= f.max(axis=1) - 1e-10 * scale)
        assert np.all(sup[:, 0] <= f.max(axis=1) + 1e-5 * scale)


# An analytic scenario's params lacking one key, and that key.
MISSING_PARAMS = [("halfspace", {"gamma": 3.0}, "w"),
                  ("halfspace", {"w": [1.0]}, "gamma"),
                  ("orthant", {}, "corner"),
                  ("mixture-tail", {}, "gamma")]


class TestAVConfig:
    def test_json_round_trip(self):
        cfg = AVConfig(aeb_decel=7.0, dt=0.02)
        assert AVConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            AVConfig.from_json('{"aeb_decel": 7.0, "turbo": true}')

    @pytest.mark.parametrize("text,message", [
        ('"abc"', "a JSON object, not str"), ("[1]", "a JSON object, not list"),
        ("null", "a JSON object, not NoneType"), ("5", "a JSON object, not int"),
        ('{"dt": true}', "AVConfig.dt must be a number, not bool"),
        ('{"dt": "0.01"}', "AVConfig.dt must be a number, not str"),
        ('{"horizon": null}', "AVConfig.horizon must be a number, not NoneType"),
        ('{"crash_range": [3]}', "AVConfig.crash_range must be a number, not list")])
    def test_malformed_json_rejected(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            AVConfig.from_json(text)

    def test_integer_fields_accepted(self):
        assert AVConfig.from_json('{"horizon": 15, "dt": 1e-2}') == AVConfig()

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            AVConfig(dt=-0.01)
        with pytest.raises(ValueError):
            AVConfig(aeb_decel=9.0, max_decel=8.0)

    def test_step_count_must_be_finite(self):
        with pytest.raises(ValueError, match="step count .* must be finite"):
            AVConfig(dt=1e-300, horizon=1e10)
        AVConfig(dt=1e-290, horizon=1e10)  # huge but finite: the caller's cost

    @pytest.mark.parametrize("field", [f.name for f in
                                       dataclasses.fields(AVConfig)])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            AVConfig(**{field: value})

    @pytest.mark.parametrize("kwargs", [{"reaction_delay": -0.1},
                                        {"aeb_ttc_trigger": 0.0},
                                        {"acc_time_gap": -1.0}])
    def test_out_of_range_field_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AVConfig(**kwargs)

    def test_zero_delay_and_time_gap_allowed(self):
        AVConfig(reaction_delay=0.0, acc_time_gap=0.0)


def monotone_violations(indicator, mask, probes, rng, box):
    """(point, coordinate) of each probe that a step of 5% of the bounded
    box's span deeper into the rare direction takes out of the rare set, or
    a step out of it takes in."""
    lo, up = box.lower, box.upper
    span = up - lo
    X = lo + rng.random((probes, box.dim)) * span
    base = apply_indicator(indicator, X)
    violations = []
    for i in range(box.dim):
        delta = mask.signs[i] * 0.05 * span[i]
        for direction in (1.0, -1.0):
            Xs = X.copy()
            Xs[:, i] = np.clip(Xs[:, i] + direction * delta, lo[i], up[i])
            stepped = apply_indicator(indicator, Xs)
            if direction > 0:
                bad = (base == 1) & (stepped == 0)
            else:
                bad = (base == 0) & (stepped == 1)
            for j in np.flatnonzero(bad):
                violations.append((X[j].copy(), i))
    return violations


class TestCheckMonotone:
    def test_lane_change_nearly_monotone(self):
        """The surrogate is monotone in v and 1/ttc; the 1/range coordinate
        carries a mild ambiguity (a shorter range at fixed TTC also means a
        lower closing speed), so a few boundary probes flip there."""
        ind = lane_change_indicator()
        box = Rect([3.0, 0.25, 1.0 / 60.0], [30.0, 3.0, 0.5])
        rng = np.random.default_rng(5)
        violations = monotone_violations(ind, lane_change_mask(), 60, rng,
                                        box)
        assert len(violations) <= 3
        assert all(coord == 2 for _, coord in violations)


class TestAnalyticScenarios:
    def test_1d_tail_truth(self):
        gmm = TruncatedGMM([1.0], [GaussComponent([0.0], [[1.0]])],
                           Rect.unbounded(1))
        _, truth_fn, _ = analytic_scenario("mixture-tail", {"gamma": 4.0})
        assert truth_fn(gmm) == pytest.approx(float(ndtr(-4.0)), rel=1e-12)

    def test_halfspace_mixture_truth(self):
        comps = [GaussComponent([0.0], [[1.0]]), GaussComponent([1.0], [[4.0]])]
        gmm = TruncatedGMM([0.25, 0.75], comps, Rect.unbounded(1))
        _, truth_fn, _ = analytic_scenario("halfspace", {"w": [1.0], "gamma": 3.0})
        expected = 0.25 * ndtr(-3.0) + 0.75 * ndtr(-(3.0 - 1.0) / 2.0)
        assert truth_fn(gmm) == pytest.approx(float(expected), rel=1e-12)

    def test_halfspace_projection_truth_2d(self):
        gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(2), np.eye(2))],
                           Rect.unbounded(2))
        w = np.array([1.0, 1.0]) / np.sqrt(2)
        _, truth_fn, _ = analytic_scenario("halfspace", {"w": w, "gamma": 2.0})
        assert truth_fn(gmm) == pytest.approx(float(ndtr(-2.0)), rel=1e-12)

    def test_orthant_truth_independent_gaussian(self):
        gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(2), np.eye(2))],
                           Rect.unbounded(2))
        ind, truth_fn, _ = analytic_scenario("orthant", {"corner": [1.0, 2.0]})
        expected = float(ndtr(-1.0) * ndtr(-2.0))
        assert truth_fn(gmm) == pytest.approx(expected, rel=1e-4)
        assert ind(np.array([[1.5, 2.5]])).tolist() == [1]
        assert ind(np.array([[1.5, 1.5]])).tolist() == [0]

    def test_indicator_truth_agree_with_mc(self, rng):
        gmm = TruncatedGMM([1.0], [GaussComponent([0.5], [[2.0]])],
                           Rect.unbounded(1))
        ind, truth_fn, _ = analytic_scenario("halfspace", {"w": [1.0], "gamma": 2.0})
        from rareis.tgmm import gmm_sample
        X = gmm_sample(200_000, gmm, rng)
        p_mc = ind(X).mean()
        truth = truth_fn(gmm)
        se = np.sqrt(truth * (1 - truth) / 200_000)
        assert abs(p_mc - truth) < 4 * se

    def test_negative_halfspace_weights_rejected(self):
        with pytest.raises(ValueError):
            analytic_scenario("halfspace", {"w": [1.0, -1.0], "gamma": 1.0})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            analytic_scenario("ellipse", {})

    @pytest.mark.parametrize("kind, params, key", MISSING_PARAMS)
    def test_missing_parameter_named(self, kind, params, key):
        with pytest.raises(ValueError, match="missing parameter '%s'" % key):
            analytic_scenario(kind, params)


def _halfspace_truth_on(support):
    _, truth_fn, _ = analytic_scenario("halfspace", {"w": [1.0, 1.0], "gamma": 2.0})
    return truth_fn(TruncatedGMM([1.0], [GaussComponent(np.zeros(2), np.eye(2))],
                                 support))


@pytest.mark.parametrize("make, message", [
    (lambda: AVConfig(crash_range=-0.1), r"^crash_range must be >= 0$"),
    # events are (n, 3) rows; one event is a (1, 3) row, not a 3-vector
    (lambda: lane_change_coords([20.0, 2.0, 10.0]),
     r"^want \(n, 3\) rows; got shape \(3,\)$"),
    (lambda: _halfspace_truth_on(Rect([0.0, -np.inf], [np.inf, np.inf])),
     r"^halfspace truth needs an unbounded support$"),
    (lambda: _halfspace_truth_on(Rect([-1.0, -1.0], [3.0, 3.0])),
     r"^halfspace truth needs an unbounded support$"),
], ids=["crash_range", "one_event", "halfspace_truth_half_bounded",
        "halfspace_truth_box"])
def test_rejects_malformed_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()
