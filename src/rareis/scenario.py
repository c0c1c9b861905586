"""Crash indicators: the lane-change ACC/AEB surrogate and analytic scenarios.

The surrogate integrates two-vehicle longitudinal dynamics with an adaptive
cruise controller and an emergency-braking override.  Analytic scenarios
supply monotone indicators with known probabilities for validating the
estimation machinery.
"""

import functools
import json
import math
import numbers
from dataclasses import dataclass, asdict, fields

import numpy as np

from .frontier import DirectionMask
from .gauss import Rect, _floats, _rows, ndtr, rect_prob

# desired standstill gap for the cruise controller, m
STANDSTILL_MARGIN = 2.0
# largest acceleration the cruise controller commands, m/s^2
ACC_MAX_ACCEL = 2.0
# simulate_batch tests its rows for retirement every CHECK_EVERY steps; each
# certified bound must clear RETIRE_MARGIN times the row's scale
CHECK_EVERY = 25
RETIRE_MARGIN = 1e-6


@dataclass(frozen=True)
class AVConfig:
    acc_time_gap: float = 1.4
    acc_speed_gain: float = 0.4
    acc_spacing_gain: float = 0.1
    aeb_ttc_trigger: float = 1.2
    aeb_decel: float = 6.0
    max_decel: float = 8.0
    reaction_delay: float = 0.2
    dt: float = 0.01
    horizon: float = 15.0
    crash_range: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError("AVConfig.%s must be a number, not %s"
                                 % (f.name, type(value).__name__))
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise ValueError("AVConfig.%s must be finite" % f.name)
        if self.dt <= 0 or self.horizon < 10 * self.dt:
            raise ValueError("need dt > 0 and horizon >= 10*dt")
        if not math.isfinite(self.horizon / self.dt):
            raise ValueError("step count horizon / dt = %g / %g must be finite"
                             % (self.horizon, self.dt))
        if not 0 < self.aeb_decel <= self.max_decel:
            raise ValueError("need 0 < aeb_decel <= max_decel")
        if self.crash_range < 0:
            raise ValueError("crash_range must be >= 0")
        if self.reaction_delay < 0 or self.acc_time_gap < 0:
            raise ValueError("reaction_delay and acc_time_gap must be >= 0")
        if self.aeb_ttc_trigger <= 0:
            raise ValueError("aeb_ttc_trigger must be > 0")

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("AVConfig must be a JSON object, not %s"
                             % type(doc).__name__)
        names = {f.name for f in fields(cls)}
        unknown = set(doc) - names
        if unknown:
            raise ValueError("unknown AVConfig fields: %s" % sorted(unknown))
        return cls(**doc)


def simulate_batch(v, ttc, range_, cfg=AVConfig()):
    """Deterministic crash (1) / safe (0) outcomes for three 1-D event arrays
    of one length.

    Lead vehicles hold speed v; each follower starts range_ behind, closing at
    range_/ttc, under ACC with an AEB override that engages reaction_delay
    after instantaneous TTC first drops below the trigger.  All rows step
    together; a row leaves the active set once its gap reaches crash_range,
    and a settled row retires early with outcome 0.  The loop returns once
    every row has crashed or retired, or at the horizon.

    Retirement is exact, not an approximation.  Every CHECK_EVERY steps,
    _settled retires two kinds of row.  A row whose AEB has not fired
    retires when its own unsaturated trajectory is safe for good: while AEB
    is off and the ACC command is inside (-max_decel, ACC_MAX_ACCEL), one
    step is the affine map d' = M d of the offset d = (gap - gap*, v_f - v)
    from the fixed point gap* = acc_time_gap v + STANDSTILL_MARGIN,
    v_f* = v, so the row's later states are M^t d.  _trajectory_sup bounds
    five functionals over all real t >= 0 of that trajectory: the gap stays
    above crash_range (no crash), gap + aeb_ttc_trigger range_rate above 0
    (AEB never fires), the command below ACC_MAX_ACCEL and above -max_decel
    and v_f above 0 (no clamp acts).  Then the affine map holds at every
    later step by induction and the row cannot crash.  Each bound must
    clear RETIRE_MARGIN times the row's scale, which covers float rounding:
    _certificate refuses configs whose contraction is too slow for that.
    A row whose AEB is engaged retires once range_rate >= 0 and the gap is
    above crash_range: v_f can only fall, so range_rate and the gap can only
    rise, and float rounding is monotone, so the gap never shrinks.  That
    rule needs no certificate, so it holds for every config.
    """
    v_lead, ttc, gap = (np.array(a, dtype=float) for a in (v, ttc, range_))
    if not (v_lead.ndim == 1 and v_lead.shape == ttc.shape == gap.shape):
        raise ValueError("want three 1-D arrays of one length; got shapes %s, "
                         "%s and %s" % (v_lead.shape, ttc.shape, gap.shape))
    if np.any(ttc <= 0) or np.any(gap <= 0):
        raise ValueError("range and ttc must be positive (closing events only)")
    cert = _certificate(cfg)
    out = np.zeros(gap.size, dtype=int)
    rows = np.arange(gap.size)
    aeb_at = np.full(gap.size, np.inf)  # inf until the AEB trigger fires
    t = 0.0
    with np.errstate(all="ignore"):  # non-finite states raise below
        v_f = v_lead + gap / ttc
        range_rate = v_lead - v_f
        for step in range(int(round(cfg.horizon / cfg.dt))):
            crashed = gap <= cfg.crash_range
            done = crashed
            if step % CHECK_EVERY == 0:
                done = crashed | _settled(cert, cfg, t, v_lead, v_f, gap, aeb_at)
            if np.count_nonzero(done):
                out[rows[crashed]] = 1
                keep = ~done
                rows, v_lead, v_f, gap, aeb_at, range_rate = (a[keep] for a in (
                    rows, v_lead, v_f, gap, aeb_at, range_rate))
                if rows.size == 0:
                    return out
            fire = ((range_rate < 0) & (-gap / range_rate < cfg.aeb_ttc_trigger)
                    & (aeb_at == np.inf))
            aeb_at[fire] = t + cfg.reaction_delay
            accel = (cfg.acc_spacing_gain
                     * (gap - v_f * cfg.acc_time_gap - STANDSTILL_MARGIN)
                     + cfg.acc_speed_gain * range_rate)
            accel = np.minimum(np.maximum(accel, -cfg.max_decel), ACC_MAX_ACCEL)
            accel[t >= aeb_at] = -cfg.aeb_decel
            v_f = np.maximum(v_f + accel * cfg.dt, 0.0)
            range_rate = v_lead - v_f
            gap += range_rate * cfg.dt
            t += cfg.dt
            # a non-finite v_f makes gap non-finite in the same step
            if np.count_nonzero(np.isfinite(gap)) < gap.size:
                raise RuntimeError("non-finite simulator state at step %d" % step)
    out[rows[gap <= cfg.crash_range]] = 1
    return out


@functools.lru_cache(maxsize=32)
def _certificate(cfg):
    """cfg's trajectory certificate (V^-1, G, log_lam, theta), or None.

    V is the real-Jordan basis of the unsaturated ACC step M, and one step
    moves the coordinates z = V^-1 d of an offset to R z.  For a complex
    pair m +- iw = rho e^(+-i theta) with eigenvector x + iy, V = [x, y] and
    R turns z by -theta and scales it by rho; log_lam is (ln rho, ln rho).
    For real eigenvalues 0 < lam_1, lam_2 < 1, V holds unit eigenvectors,
    R = diag(lam), log_lam is (ln lam_1, ln lam_2) and theta is 0.  Row i of
    G = C V maps z to _settled's i-th bounded functional c_i^T d.  There is
    no certificate when rho >= 1, when an eigenvalue is real and <= 0 (lam^t
    has no real-t extension to take a supremum over), or when M contracts
    so slowly that the rounding it accumulates, at most a few ulp of the
    state per step summed over 1/(1 - rho) steps, could reach
    RETIRE_MARGIN / 10 of the state's scale.  The 2 x 2 algebra is written
    out: LAPACK's eigen-solvers would add about 1 MB to the resident set.
    """
    dt, kp = cfg.dt, cfg.acc_spacing_gain
    accel_grad = np.array([kp, -(kp * cfg.acc_time_gap + cfg.acc_speed_gain)])
    keep = 1.0 + dt * accel_grad[1]
    a, b, c, e = 1.0 - dt * dt * kp, -dt * keep, dt * kp, keep  # M, row-major
    mid, disc = 0.5 * (a + e), 0.25 * (a - e) ** 2 + b * c
    theta = 0.0
    if disc < 0:  # eigenvalues mid +- iw, eigenvectors (mid - e +- iw, c)
        w = math.sqrt(-disc)
        rho, V = math.hypot(mid, w), np.array([[mid - e, w], [c, 0.0]])
        theta = math.atan2(w, mid)
        lam = np.array([rho, rho])
    else:  # eigenvalues lam, unit eigenvectors along (lam - e, c)
        lam = mid + np.array([1.0, -1.0]) * math.sqrt(disc)
        rho, V = float(np.max(np.abs(lam))), np.array([lam - e, [c, c]])
        if rho < 1.0:  # so kp != 0, and no column is zero
            V /= np.hypot(*V)
    det = V[0, 0] * V[1, 1] - V[0, 1] * V[1, 0]
    if not (rho < 1.0 and det and np.min(lam) > 0.0):
        return None  # no contraction, no eigenvector basis, or oscillation
    V_inv = np.array([[V[1, 1], -V[0, 1]], [-V[1, 0], V[0, 0]]]) / det
    # in _settled's order: crash gap, AEB trigger, ACC cap, ACC floor, speed
    C = np.array([[-1.0, 0.0], [-1.0, cfg.aeb_ttc_trigger], accel_grad,
                  -accel_grad, [0.0, -1.0]])
    G = C @ V
    drift = (8.0 * np.finfo(float).eps * math.sqrt(np.sum(V_inv ** 2))
             * np.max(np.hypot(G[:, 0], G[:, 1])) / (1.0 - rho))
    if not drift <= 0.1 * RETIRE_MARGIN:
        return None
    log_lam = np.log(lam)
    for arr in (V_inv, G, log_lam):
        arr.flags.writeable = False  # shared by the cache
    return V_inv, G, log_lam, theta


def _trajectory_sup(cert, d_gap, d_v):
    """(5, n) suprema over real t >= 0 of the certificate's functionals
    along the unsaturated trajectories M^t d of the offsets d = (d_gap, d_v).
    """
    V_inv, G, (l1, l2), theta = cert
    z0 = V_inv[0, 0] * d_gap + V_inv[0, 1] * d_v
    z1 = V_inv[1, 0] * d_gap + V_inv[1, 1] * d_v
    p, q = G[:, :1] * z0, G[:, 1:] * z1
    with np.errstate(all="ignore"):
        if theta:
            # f(t) = A rho^t cos(alpha - t theta) peaks first at
            # t* = ((alpha - beta) mod 2 pi) / theta, beta = atan(-ln rho / theta),
            # with value A rho^t* cos(beta) > 0; later peaks are smaller
            kappa = -l1 / theta
            beta = math.atan(kappa)
            alpha = np.arctan2(z1, z0) - np.arctan2(G[:, 1:], G[:, :1])
            peak = (np.hypot(G[:, :1], G[:, 1:]) * np.hypot(z0, z1)
                    * np.exp(-kappa * np.mod(alpha - beta, 2.0 * math.pi))
                    * math.cos(beta))
            return np.maximum(p + q, peak)
        # f(t) = p lam_1^t + q lam_2^t is stationary at most once, and tends
        # to 0; a NaN or non-positive t_c is replaced by 0
        t_c = np.log(-(q * l2) / (p * l1)) / (l1 - l2)
        t_c = np.where(t_c > 0.0, t_c, 0.0)
        at_t_c = p * np.exp(l1 * t_c) + q * np.exp(l2 * t_c)
        return np.maximum(np.maximum(p + q, at_t_c), 0.0)


def _settled(cert, cfg, t, v_lead, v_f, gap, aeb_at):
    """Rows that simulate_batch can retire with outcome 0 at time t; without
    a certificate only braking ones."""
    braking = (t >= aeb_at) & (v_lead - v_f >= 0.0) & (gap > cfg.crash_range)
    if cert is None:
        return braking
    gap_star = cfg.acc_time_gap * v_lead + STANDSTILL_MARGIN
    d_gap, d_v = gap - gap_star, v_f - v_lead
    slack = RETIRE_MARGIN * (1.0 + gap_star + v_lead + np.abs(d_gap) + np.abs(d_v))
    crash, aeb, cap, floor, speed = _trajectory_sup(cert, d_gap, d_v) + slack
    steady = ((aeb_at == np.inf) & (crash < gap_star - cfg.crash_range)
              & (aeb < gap_star) & (cap < ACC_MAX_ACCEL) & (floor < cfg.max_decel)
              & (speed < v_lead))
    return steady | braking


def simulate(v, ttc, range_, cfg=AVConfig()):
    """Crash/safe outcome of one event (lead speed v in m/s, ttc in s, gap
    range_ in m): a 1-row simulate_batch."""
    return int(simulate_batch([v], [ttc], [range_], cfg)[0])


def lane_change_mask():
    """Crash set is non-increasing in (v, ttc, range); reciprocals flip the last two."""
    return DirectionMask([-1.0, 1.0, 1.0])


def lane_change_coords(events):
    """Model coordinates (v, 1/ttc, 1/range) of (n, 3) rows of (v, ttc, range)."""
    E = _rows(events, 3)
    if np.any(E <= 0):
        raise ValueError("lane-change columns must be positive")
    return np.column_stack([E[:, 0], 1.0 / E[:, 1], 1.0 / E[:, 2]])


def lane_change_indicator(cfg=AVConfig()):
    """Batch crash indicator over (n, 3) rows (v, 1/ttc, 1/range)."""
    def indicator(X):
        if np.any(X[:, 1:] <= 0):
            raise ValueError("1/ttc and 1/range must be positive (closing events only)")
        return simulate_batch(X[:, 0], 1.0 / X[:, 1], 1.0 / X[:, 2], cfg)
    return indicator


def _mixture_halfspace_tail(gmm, w, gamma):
    w = np.asarray(w, dtype=float)
    total = 0.0
    for eta, c in zip(gmm.weights, gmm.components):
        mu = float(w @ c.mean)
        sd = float(np.sqrt(w @ c.cov @ w))
        total += eta * ndtr(-(gamma - mu) / sd)
    return total


def _param(params, key, ndim):
    """params[key] as a finite number (ndim 0) or a nonempty finite 1-D vector."""
    if key not in params:
        raise ValueError("missing parameter %r" % key)
    try:
        v = _floats(params[key], key)
        ok = v.ndim == ndim and v.size > 0 and np.all(np.isfinite(v))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError("%s must be a finite %s"
                         % (key, "number" if ndim == 0 else "1-D vector"))
    return v


def analytic_scenario(kind, params):
    """Monotone validation scenarios with exact probability functions.

    Returns (indicator, truth_fn, mask).  The indicator maps (n, d) rows to
    (n,) 0/1 outcomes; truth_fn takes a TruncatedGMM.  Kinds: halfspace
    (w, gamma; closed form, on unbounded supports only), orthant (corner;
    exact via rectangle probabilities at any supported d), mixture-tail
    (gamma; 1-d halfspace).  Malformed params raise ValueError.
    """
    if not isinstance(params, dict):
        raise ValueError("scenario params must be a JSON object, not %s"
                         % type(params).__name__)
    if kind == "mixture-tail":
        kind, params = "halfspace", {"w": [1.0], "gamma": _param(params, "gamma", 0)}
    if kind == "halfspace":
        w = _param(params, "w", 1)
        gamma = float(_param(params, "gamma", 0))
        if np.any(w < 0):
            raise ValueError("halfspace weights must be nonnegative (monotone set)")

        def indicator(X):
            return (X @ w >= gamma).astype(int)

        def truth_fn(gmm):
            if not gmm.support.is_unbounded():
                raise ValueError("halfspace truth needs an unbounded support")
            return _mixture_halfspace_tail(gmm, w, gamma)

        return indicator, truth_fn, DirectionMask(np.ones(w.size))
    if kind == "orthant":
        corner = _param(params, "corner", 1)

        def indicator(X):
            return np.all(X >= corner, axis=1).astype(int)

        def truth_fn(gmm):
            lo = np.maximum(corner, gmm.support.lower)
            if np.any(lo >= gmm.support.upper):
                return 0.0
            probs = rect_prob(gmm.components, Rect(lo, gmm.support.upper))
            # Python sum: the components add up in order, from 0
            return float(sum(gmm.weights * probs / gmm.norm_consts))

        return indicator, truth_fn, DirectionMask(np.ones(corner.size))
    raise ValueError("unsupported analytic scenario kind %r" % kind)
