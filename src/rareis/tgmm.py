"""Truncated Gaussian mixture models: EM fitting, BIC selection, sampling.

The M-step follows the truncated-data EM with mean/covariance correction
terms built from moments of the rectangle-truncated components; with an
unbounded support the corrections vanish and the update reduces to the
ordinary GMM M-step.

Mixture densities and the E-step take all components' log densities from
one gauss.log_densities call, grouped by Cholesky factor (an IS proposal's
parts share their base component's), so a row's value does not depend on
the other rows in the call.

fit runs its restarts in lockstep.  A restart's EM code is a generator
that yields the gauss kernel calls it needs: a new or extrapolated model's
normalizers (rect_prob), an M-step's truncation corrections
(trunc_moments) and an E-step's log densities (log_densities).  _lockstep
serves each round's pending requests of a kind with one call on all their
components.  Those kernels are batch invariant, so every restart takes,
bit for bit, the path it takes alone; its logsumexp, M-step, SQUAREM
safeguard and stop rule stay its own.  A DegenerateTruncationError names
its component: the restart that owns it receives the error with its own
component index, and the call is repeated without that restart.
em_step and responsibilities are the one-model case.
"""

import json
import re

import numpy as np

from .gauss import (DegenerateTruncationError, GaussComponent, Rect,
                    log_densities, rect_prob, sample_truncated, trunc_moments)


class DyingComponentError(RuntimeError):
    """A mixture weight collapsed below the viability floor."""


class AffineStandardizer:
    """Per-coordinate shift/scale map z = (y - shift) / scale."""

    def __init__(self, shift, scale):
        shift = np.asarray(shift, dtype=float)
        scale = np.asarray(scale, dtype=float)
        if np.any(scale <= 0):
            raise ValueError("all scale entries must be positive")
        self.shift = shift
        self.scale = scale

    def apply(self, y):
        return (np.asarray(y, dtype=float) - self.shift) / self.scale

    def invert(self, z):
        return np.asarray(z, dtype=float) * self.scale + self.shift

    def apply_rect(self, r):
        return Rect((r.lower - self.shift) / self.scale,
                    (r.upper - self.shift) / self.scale)


def standardize(y):
    """Center/scale each column to mean 0, sd 1. Errors on constant columns."""
    y = np.asarray(y, dtype=float)
    shift = y.mean(axis=0)
    scale = y.std(axis=0)
    bad = np.flatnonzero(scale == 0)
    if bad.size:
        raise ValueError("column %d has zero variance; cannot standardize" % bad[0])
    std = AffineStandardizer(shift, scale)
    return std.apply(y), std


class TruncatedGMM:
    """Mixture of rectangle-truncated Gaussians with cached normalizers."""

    def __init__(self, weights, components, support, standardizer=None):
        self._assign(weights, components, support, standardizer)
        self.norm_consts = rect_prob(self.components, support)

    def _assign(self, weights, components, support, standardizer):
        """Checks and sets everything but the normalizers."""
        weights = np.asarray(weights, dtype=float)
        if abs(weights.sum() - 1.0) > 1e-10 or np.any(weights <= 0):
            raise ValueError("weights must be positive and sum to 1")
        if len(components) != weights.size:
            raise ValueError("weights/components length mismatch")
        d = components[0].dim
        if support.dim != d:
            raise ValueError("support dimension mismatch")
        self.weights = weights
        self.components = list(components)
        self.support = support
        self.standardizer = standardizer

    @property
    def dim(self):
        return self.components[0].dim

    @property
    def n_components(self):
        return self.weights.size


def _log_joint(ld, m):
    """m's (K, n) log densities ld at rows inside the support, turned in place
    into log weight plus truncated log density per component and row."""
    ld -= np.log(m.norm_consts)[:, None]
    ld += np.log(m.weights)[:, None]
    return ld


def _logsumexp(a):
    """log(sum(exp(a), axis=0)) for a (K, n) matrix, shifted by each column's max.

    The components are summed one after another, so column i's value does
    not depend on the other columns (a numpy sum over a single column would
    be pairwise).
    """
    top = a.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    e = a - shift
    np.exp(e, out=e)
    total = e[0].copy()
    for row in e[1:]:
        total += row
    with np.errstate(divide="ignore"):
        return shift + np.log(total)


def gmm_log_density(x, m):
    """Log mixture density; -inf outside the support."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    out = np.full(X.shape[0], -np.inf)
    inside = m.support.contains(X)
    if np.any(inside):
        out[inside] = _logsumexp(_log_joint(log_densities(X[inside], m.components), m))
    return float(out[0]) if single else out


def _lockstep(y, support, tasks):
    """Runs EM tasks together; returns each one's value or the error it raised.

    A task is a generator that yields the requests ("mass", components),
    ("moments", components, mass) and ("densities", components), and is
    sent the rect_prob, trunc_moments or log_densities values of its
    components, on the rows y and the rectangle support that all tasks
    share.  Each round serves the pending requests kind by kind, in the
    order of an EM update, with one kernel call per kind.  An error that
    names a component goes to the task that owns it and the call is
    repeated without that task; any other error of a call with several
    tasks repeats it for each task alone.
    """
    outcomes = [None] * len(tasks)
    pending = {}

    def advance(i, step, value):
        try:
            pending[i] = step(value)
        except StopIteration as stop:
            outcomes[i] = stop.value
        except Exception as err:
            outcomes[i] = err

    for i, task in enumerate(tasks):
        advance(i, task.send, None)
    while pending:
        for kind in ("moments", "mass", "densities"):
            queue = [[(i, pending.pop(i)) for i in sorted(pending)
                      if pending[i][0] == kind]]
            while queue:
                batch = queue.pop()
                if not batch:
                    continue
                try:
                    values = _kernel(kind, y, support, [r for _, r in batch])
                except Exception as err:
                    blamed = _blame(err, [len(r[1]) for _, r in batch])
                    if blamed is None and len(batch) > 1:
                        queue += [[one] for one in batch]
                        continue
                    j, err = blamed or (0, err)
                    i, _ = batch.pop(j)
                    advance(i, tasks[i].throw, err)
                    queue.append(batch)
                    continue
                for (i, _), value in zip(batch, values):
                    advance(i, tasks[i].send, value)
    return outcomes


def _kernel(kind, y, support, requests):
    """One kernel call on all the requests' components, split per request."""
    components = [c for r in requests for c in r[1]]
    if kind == "mass":
        out = rect_prob(components, support)
    elif kind == "densities":
        out = log_densities(y, components)
    else:
        out = trunc_moments(components, support,
                            mass=np.concatenate([r[2] for r in requests]))
    cuts = np.cumsum([len(r[1]) for r in requests])[:-1]
    if kind == "moments":
        return list(zip(*(np.split(a, cuts) for a in out)))
    return np.split(out, cuts)


def _blame(err, sizes):
    """The request that err names, in a call whose requests have sizes components.

    Returns the request's position and err with the request's own component
    index, or None when err is not a DegenerateTruncationError naming one.
    """
    hit = re.match(r"component (\d+): ", str(err))
    if not isinstance(err, DegenerateTruncationError) or hit is None:
        return None
    k = int(hit.group(1))
    starts = np.cumsum([0] + sizes)
    j = int(np.searchsorted(starts, k, side="right")) - 1
    return j, DegenerateTruncationError("component %d: %s" % (
        k - starts[j], str(err)[hit.end():]))


def _run(y, support, task):
    """The value of one lockstep task run alone; raises its error."""
    out, = _lockstep(y, support, [task])
    if isinstance(out, Exception):
        raise out
    return out


def _mixture(weights, components, support, standardizer):
    """TruncatedGMM(weights, components, support, standardizer), a lockstep task."""
    m = TruncatedGMM.__new__(TruncatedGMM)
    m._assign(weights, components, support, standardizer)
    m.norm_consts = yield "mass", m.components
    return m


def _e_step(y, m):
    """Responsibilities and per-row log mixture densities, a lockstep task.

    Rows are assumed inside the support.
    """
    ld = _log_joint((yield "densities", m.components), m)
    tot = _logsumexp(ld)
    if not np.all(np.isfinite(tot)):
        bad = int(np.flatnonzero(~np.isfinite(tot))[0])
        raise ValueError("row %d has zero density under every component" % bad)
    ld -= tot
    return np.exp(ld, out=ld).T, tot


def responsibilities(y, m, return_totals=False):
    """Posterior component memberships, one row per observation.

    With return_totals, also the per-row log mixture densities, whose sum is
    the log-likelihood of y.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if not np.all(m.support.contains(y)):
        bad = int(np.flatnonzero(~m.support.contains(y))[0])
        raise ValueError("row %d lies outside the support" % bad)
    resp, tot = _run(y, m.support, _e_step(y, m))
    return (resp, tot) if return_totals else resp


def _spd_cholesky(cov):
    """Cholesky with escalating diagonal jitter; returns repaired covariance."""
    cov = 0.5 * (cov + cov.T)
    step = 1e-8 * np.trace(cov) / cov.shape[0] * np.eye(cov.shape[0])
    for jitter in (0.0, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5):
        try:
            np.linalg.cholesky(cov + jitter * step)
            return cov + jitter * step
        except np.linalg.LinAlgError:
            pass
    raise np.linalg.LinAlgError("covariance could not be regularized to SPD")


def _em_update(y, m, resp):
    """The EM update of m, a lockstep task; resp must be responsibilities(y, m)."""
    n = y.shape[0]
    nk = resp.sum(axis=0)
    new_w = nk / n
    for k, w in enumerate(new_w):
        if w < 1e-8:
            raise DyingComponentError("component %d weight collapsed to %.3g" % (k, w))
    # the truncation corrections, one batch with every restart's components;
    # with an unbounded support they are exactly 0
    mk, m2 = yield "moments", m.components, m.norm_consts
    new_components = []
    for k, c in enumerate(m.components):
        ybar = resp[:, k] @ y / nk[k]
        mu = ybar - mk[k]
        dev = y - mu
        scatter = (resp[:, k][:, None] * dev).T @ dev / nk[k]
        cov = _spd_cholesky(scatter + (c.cov - m2[k]))
        new_components.append(GaussComponent(mu, cov))
    return (yield from _mixture(new_w, new_components, m.support, m.standardizer))


def em_step(y, m, resp=None):
    """One EM update; returns a new TruncatedGMM.

    resp, when given, must be responsibilities(y, m); it spares the E-step.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if y.shape[0] < m.n_components:
        raise ValueError("need at least K observations")
    if resp is None:
        resp = responsibilities(y, m)
    return _run(y, m.support, _em_update(y, m, resp))


class FitReport:
    """The best restart of a fit.

    loglik_trace holds the log-likelihood of the start and of each EM update
    but not of SQUAREM's extrapolations; iterations counts the EM updates.
    """

    def __init__(self, loglik_trace, converged, bic):
        self.loglik_trace = list(loglik_trace)
        self.iterations = len(self.loglik_trace) - 1
        self.converged = converged
        self.bic = bic


def _kmeanspp_means(y, K, rng):
    n = y.shape[0]
    means = [y[rng.integers(n)]]
    for _ in range(1, K):
        d2 = np.min([np.sum((y - mu) ** 2, axis=1) for mu in means], axis=0)
        total = d2.sum()
        if total == 0:
            means.append(y[rng.integers(n)])
            continue
        means.append(y[rng.choice(n, p=d2 / total)])
    return np.array(means)


def _init_model(y, K, rng):
    """Weights and components of a restart's start model."""
    means = _kmeanspp_means(y, K, rng)
    pooled = np.cov(y, rowvar=False, bias=True).reshape(y.shape[1], y.shape[1])
    pooled = _spd_cholesky(pooled / K)
    return np.full(K, 1.0 / K), [GaussComponent(mu, pooled.copy()) for mu in means]


def _scored(y, m):
    """(m, responsibilities, log-likelihood), a lockstep task."""
    resp, tot = yield from _e_step(y, m)
    return m, resp, float(np.sum(tot))


def _params(m):
    return np.concatenate([m.weights] + [c.mean for c in m.components]
                          + [c.cov.ravel() for c in m.components])


def _from_params(m, t):
    """The model of _params vector t, like m, a lockstep task; raises when t
    is not valid."""
    K, d = m.n_components, m.dim
    w, means, covs = np.split(t, [K, K + K * d])
    if not (np.all(np.isfinite(t)) and np.all(w > 1e-8)):
        raise DyingComponentError("extrapolated weights %s" % w)
    comps = [GaussComponent(mu, cov)
             for mu, cov in zip(means.reshape(K, d), covs.reshape(K, d, d))]
    return (yield from _mixture(w / w.sum(), comps, m.support, m.standardizer))


def _s3_step_length(r, v):
    """SQUAREM S3 step length min(-1, -|r|/|v|); -1 when v vanishes."""
    norm_v = np.linalg.norm(v)
    return min(-1.0, -np.linalg.norm(r) / norm_v) if norm_v > 0 else -1.0


def _squarem_update(y, s0, s1, s2):
    """EM update of the SQUAREM S3 extrapolation of EM steps s0 -> s1 -> s2.

    Each s is (model, resp, loglik); a lockstep task.  The step length moves
    halfway toward -1 (to -1 once within 0.1 of it), where the extrapolation
    is s2, until the extrapolated model is valid, scores no lower than s2
    and takes an EM step (Varadhan & Roland 2008).
    """
    t0, t1, t2 = (_params(s[0]) for s in (s0, s1, s2))
    r, v = t1 - t0, t2 - 2.0 * t1 + t0
    alpha = _s3_step_length(r, v)
    while alpha < -1.0:
        try:
            # the coefficients of t0, t1, t2 sum to 1, and so do the weights
            m = yield from _from_params(s0[0], t0 - 2.0 * alpha * r + alpha ** 2 * v)
            m, resp, ll = yield from _scored(y, m)
            if ll >= s2[2]:
                m = yield from _em_update(y, m, resp)
                return (yield from _scored(y, m))
        except (ValueError, DegenerateTruncationError, DyingComponentError):
            pass  # np.linalg.LinAlgError is a ValueError
        alpha = (alpha - 1.0) / 2.0 if alpha < -1.1 else -1.0
    m = yield from _em_update(y, *s2[:2])
    return (yield from _scored(y, m))


def _restart(y, K, support, rng, standardizer, max_iter, tol):
    """One restart of fit, a lockstep task: (model, loglik trace, converged)."""
    m = yield from _mixture(*_init_model(y, K, rng), support, standardizer)
    cycle = [(yield from _scored(y, m))]
    trace = [cycle[0][2]]
    converged = False
    while len(trace) <= max_iter and not converged:
        try:
            if len(cycle) < 3:
                m = yield from _em_update(y, *cycle[-1][:2])
                cycle.append((yield from _scored(y, m)))
            else:
                cycle = [(yield from _squarem_update(y, *cycle))]
        except ValueError as err:
            raise RuntimeError("non-finite log-likelihood at iteration %d: %s"
                               % (len(trace), err))
        trace.append(cycle[-1][2])
        converged = abs(trace[-1] - trace[-2]) < tol * abs(trace[-1])
    return cycle[-1][0], trace, converged


def fit(y, K, support, init_seed=0, max_iter=500, tol=1e-7, restarts=3,
        standardizer=None):
    """EM fit with restarts; deterministic given (y, K, init_seed, options).

    Every third EM update starts from an extrapolation (_squarem_update);
    max_iter caps the EM updates.  The restarts run in lockstep (see the
    module docstring) and the best one is returned, the first of equals.
    When restarts fail, the lowest-index failure is raised.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n = y.shape[0]
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if n < 10 * K:
        raise ValueError("need at least 10*K observations (heuristic floor)")
    if not np.all(support.contains(y)):
        raise ValueError("data rows must lie inside the support")
    tasks = [_restart(y, K, support, np.random.default_rng(child), standardizer,
                      max_iter, tol)
             for child in np.random.SeedSequence(init_seed).spawn(restarts)]
    outcomes = _lockstep(y, support, tasks)
    for out in outcomes:
        if isinstance(out, Exception):
            raise out
    model, trace, converged = max(outcomes, key=lambda out: out[1][-1])
    return model, FitReport(trace, converged, bic(model, y, loglik=trace[-1]))


def n_free_parameters(K, d):
    return (K - 1) + K * d + K * d * (d + 1) // 2


def bic(m, y, loglik=None):
    """Bayesian information criterion; truncation bounds are not counted.

    loglik, when given, must be the log-likelihood of y under m.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, d = y.shape
    ll = float(np.sum(gmm_log_density(y, m))) if loglik is None else loglik
    return -2.0 * ll + n_free_parameters(m.n_components, d) * np.log(n)


def gmm_sample(n, m, rng):
    """n draws from the truncated mixture; all rows inside the support."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = rng.multinomial(n, m.weights)
    parts = []
    for k, c in enumerate(m.components):
        if counts[k] > 0:
            parts.append(sample_truncated(counts[k], c, m.support, rng,
                                          mass=m.norm_consts[k]))
    out = np.concatenate(parts, axis=0)
    return np.take(out, rng.permutation(n), axis=0)


def _encode_bounds(v):
    return [("-inf" if np.isneginf(x) else "inf" if np.isposinf(x) else float(x))
            for x in v]


def _decode_bounds(v):
    return np.array([float(x) for x in v])


def model_to_json(m):
    doc = {
        "d": m.dim,
        "K": m.n_components,
        "support": {"lower": _encode_bounds(m.support.lower),
                    "upper": _encode_bounds(m.support.upper)},
        "weights": [float(w) for w in m.weights],
        "components": [{"mean": c.mean.tolist(), "cov": c.cov.tolist()}
                       for c in m.components],
        "standardizer": (None if m.standardizer is None else
                         {"shift": m.standardizer.shift.tolist(),
                          "scale": m.standardizer.scale.tolist()}),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def model_from_json(text):
    doc = json.loads(text)
    support = Rect(_decode_bounds(doc["support"]["lower"]),
                   _decode_bounds(doc["support"]["upper"]))
    comps = [GaussComponent(np.array(c["mean"]), np.array(c["cov"]))
             for c in doc["components"]]
    std = doc.get("standardizer")
    standardizer = (None if std is None else
                    AffineStandardizer(np.array(std["shift"]), np.array(std["scale"])))
    return TruncatedGMM(np.array(doc["weights"]), comps, support, standardizer)
