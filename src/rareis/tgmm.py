"""Truncated Gaussian mixture models: EM fitting, BIC selection, sampling.

The M-step follows the truncated-data EM with mean/covariance correction
terms built from moments of the rectangle-truncated components; with an
unbounded support the corrections vanish and the update reduces to the
ordinary GMM M-step.

Mixture densities and the E-step take all components' log densities from
one gauss.log_densities call, grouped by Cholesky factor (an IS proposal's
parts share their base component's), so a row's value does not depend on
the other rows in the call.  log_mixture and _logsumexp consume the (K, n)
matrix they are given: they work in its rows and return a view of one.
gmm_sample hands each component's slice of its output to
gauss.sample_truncated to fill.

fit runs every restart of every K of a BIC sweep in one lockstep.  It
takes (n, d) rows only, as do bic, responsibilities, em_step and
gmm_log_density.  A restart's EM code is a generator that yields
the gauss kernel calls it needs: a new or extrapolated model's normalizers
(rect_prob), an M-step's truncation corrections (trunc_moments) and an
E-step's log densities (log_densities).  _lockstep serves each round's
pending requests of a kind with one call on all their components, whatever
their K.  Those kernels are batch invariant, so every restart takes, bit
for bit, the path it takes alone; its logsumexp, M-step, SQUAREM safeguard
and stop rule stay its own.  A call that raises is repeated once per
restart, so each restart receives the error, with its own component index,
that its own call raises.  em_step and responsibilities are the one-model
case.  The M-step builds each component from the Cholesky factor that its
covariance repair took, so no component is factored twice.
"""

import json

import numpy as np

from .gauss import (DegenerateTruncationError, GaussComponent, Rect, _rows,
                    log_densities, rect_prob, sample_truncated, trunc_moments)


class DyingComponentError(RuntimeError):
    """A mixture weight collapsed below the viability floor."""


class _ZeroDensityError(ValueError):
    """A row has zero density under every component: the log-likelihood is -inf."""


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

    # model.json's AffineStandardizer, set by cli.cmd_fit and model_from_json
    standardizer = None

    def __init__(self, weights, components, support):
        self._assign(weights, components, support)
        self.norm_consts = rect_prob(self.components, support)

    def _assign(self, weights, components, support):
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

    Consumes a: the work is done in a's own rows, and the result is a view
    of its first row.  The components are summed one after another, so
    column i's value does not depend on the other columns (a numpy sum over
    a single column would be pairwise).
    """
    shift = a.max(axis=0)
    shift[~np.isfinite(shift)] = 0.0
    a -= shift
    np.exp(a, out=a)
    total = a[0]
    for row in a[1:]:
        total += row
    with np.errstate(divide="ignore"):
        np.log(total, out=total)
    total += shift
    return total


def log_mixture(ld, m, X):
    """(n,) log mixture densities of m at the (n, d) rows X, -inf outside the
    support, from the (K, n) log densities ld of m's components at X.

    Consumes ld, and the result is a view of it.  Row i's value depends on
    column i of ld alone.
    """
    out = _logsumexp(_log_joint(ld, m))
    out[~m.support.contains(X)] = -np.inf
    return out


def gmm_log_density(X, m):
    """(n,) log mixture densities at the (n, d) rows X; -inf outside the support."""
    X = _rows(X, m.dim)
    return log_mixture(log_densities(X, m.components), m, X)


def _lockstep(y, support, tasks):
    """Runs EM tasks together; returns each one's value or the error it raised.

    A task is a generator that yields the requests ("mass", components),
    ("moments", components, mass) and ("densities", components), and is
    sent the rect_prob, trunc_moments or log_densities values of its
    components, on the rows y and the rectangle support that all tasks
    share.  Each round serves the pending requests kind by kind, in the
    order of an EM update, with one kernel call per kind.  A call with
    several tasks that raises is repeated for each task alone, and a task's
    own call sends it the error.
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
                    if len(batch) > 1:
                        queue += [[one] for one in batch]
                    else:
                        (i, _), = batch
                        advance(i, tasks[i].throw, err)
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
    ends = np.cumsum([len(r[1]) for r in requests]).tolist()
    parts = [slice(a, b) for a, b in zip([0] + ends, ends)]
    if kind == "moments":
        return [(out[0][s], out[1][s]) for s in parts]
    return [out[s] for s in parts]


def _run(y, support, task):
    """The value of one lockstep task run alone; raises its error."""
    out, = _lockstep(y, support, [task])
    if isinstance(out, Exception):
        raise out
    return out


def _mixture(weights, components, support):
    """TruncatedGMM(weights, components, support), a lockstep task."""
    m = TruncatedGMM.__new__(TruncatedGMM)
    m._assign(weights, components, support)
    m.norm_consts = yield "mass", m.components
    return m


def _e_step(y, m):
    """Responsibilities and per-row log mixture densities, a lockstep task.

    Rows are assumed inside the support.
    """
    ld = _log_joint((yield "densities", m.components), m)
    tot = _logsumexp(ld.copy())
    if not np.all(np.isfinite(tot)):
        bad = int(np.flatnonzero(~np.isfinite(tot))[0])
        raise _ZeroDensityError("row %d has zero density under every component"
                                % bad)
    ld -= tot
    return np.exp(ld, out=ld).T, tot


def responsibilities(y, m, return_totals=False):
    """Posterior component memberships, one row per observation.

    With return_totals, also the per-row log mixture densities, whose sum is
    the log-likelihood of y.
    """
    y = _rows(y, m.dim)
    if not np.all(m.support.contains(y)):
        bad = int(np.flatnonzero(~m.support.contains(y))[0])
        raise ValueError("row %d lies outside the support" % bad)
    resp, tot = _run(y, m.support, _e_step(y, m))
    return (resp, tot) if return_totals else resp


def _spd_factor(cov):
    """Cholesky with escalating diagonal jitter; returns the repaired
    covariance and its factor."""
    cov = 0.5 * (cov + cov.T)
    step = 1e-8 * np.trace(cov) / cov.shape[0] * np.eye(cov.shape[0])
    for jitter in (0.0, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5):
        repaired = cov + jitter * step
        try:
            return repaired, np.linalg.cholesky(repaired)
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
        cov, chol = _spd_factor(scatter + (c.cov - m2[k]))
        new_components.append(GaussComponent.factored(mu, cov, chol))
    return (yield from _mixture(new_w, new_components, m.support))


def em_step(y, m, resp=None):
    """One EM update; returns a new TruncatedGMM.

    resp, when given, must be responsibilities(y, m); it spares the E-step.
    """
    y = _rows(y, m.dim)
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
    cov, chol = _spd_factor(pooled / K)
    return (np.full(K, 1.0 / K),
            [GaussComponent.factored(mu, cov, chol) for mu in means])


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
    return (yield from _mixture(w / w.sum(), comps, m.support))


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


def _restart(y, K, support, rng, max_iter, tol):
    """One restart of fit, a lockstep task: (model, loglik trace, converged).

    A row of zero density after an update is reported as a non-finite
    log-likelihood; any other error is raised as it is.
    """
    m = yield from _mixture(*_init_model(y, K, rng), support)
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
        except _ZeroDensityError as err:
            raise RuntimeError("non-finite log-likelihood at iteration %d: %s"
                               % (len(trace), err))
        trace.append(cycle[-1][2])
        converged = abs(trace[-1] - trace[-2]) < tol * abs(trace[-1])
    return cycle[-1][0], trace, converged


def _fit_error(y, K, support):
    """The error that fit gives K before any EM, or None."""
    if not (isinstance(K, (int, np.integer)) and K >= 1):
        return ValueError("K must be an integer >= 1; got %r" % (K,))
    if y.shape[0] < 10 * K:
        return ValueError("need at least 10*K observations (heuristic floor)")
    if not np.all(support.contains(y)):
        return ValueError("data rows must lie inside the support")
    return None


def fit(y, k_list, support, init_seed=0, max_iter=500, tol=1e-7, restarts=3):
    """EM fits of the (n, d) rows y, for each K of k_list in list order: its
    (model, FitReport), or the error that failed it; deterministic given
    (y, K, init_seed, options).

    Every third EM update starts from an extrapolation (_squarem_update);
    max_iter caps the EM updates.  The restarts of every K run in one
    lockstep (see the module docstring), so a K's result is bit for bit
    that of fit(y, [K], ...), and a K's best restart is returned, the first
    of equals.  When restarts fail, the lowest-index failure is the K's
    result; a K that is not an integer >= 1 gets a ValueError.
    """
    y = _rows(y, support.dim)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    errors = [_fit_error(y, K, support) for K in k_list]
    runs = [[] if err else
            [_restart(y, K, support, np.random.default_rng(child), max_iter, tol)
             for child in np.random.SeedSequence(init_seed).spawn(restarts)]
            for K, err in zip(k_list, errors)]
    outcomes = iter(_lockstep(y, support, [task for run in runs for task in run]))
    results = []
    for err, run in zip(errors, runs):
        outs = [next(outcomes) for _ in run]
        err = err or next((o for o in outs if isinstance(o, Exception)), None)
        if err:
            results.append(err)
            continue
        model, trace, converged = max(outs, key=lambda out: out[1][-1])
        results.append((model, FitReport(trace, converged,
                                         bic(model, y, loglik=trace[-1]))))
    return results


def n_free_parameters(K, d):
    return (K - 1) + K * d + K * d * (d + 1) // 2


def bic(m, y, loglik=None):
    """Bayesian information criterion; truncation bounds are not counted.

    loglik, when given, must be the log-likelihood of y under m.
    """
    n, d = _rows(y, m.dim).shape
    ll = float(np.sum(gmm_log_density(y, m))) if loglik is None else loglik
    return -2.0 * ll + n_free_parameters(m.n_components, d) * np.log(n)


def gmm_sample(n, m, rng):
    """n draws from the truncated mixture; all rows inside the support."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = rng.multinomial(n, m.weights)
    out = np.empty((n, m.dim))
    end = 0
    for k, c in enumerate(m.components):
        if counts[k] > 0:
            sample_truncated(counts[k], c, m.support, rng, mass=m.norm_consts[k],
                             out=out[end:end + counts[k]])
            end += counts[k]
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


# A standard normal exceeds 40 with probability below 1e-340, so a draw
# lies within 40 sd of its component's mean.
_DRAW_SDS = 40.0


def _component(k, mean, cov):
    """GaussComponent(mean, cov), component k of a model file.  Raises
    ValueError unless the squares of its draws and its precision matrix
    are finite."""
    with np.errstate(over="ignore"):
        c = GaussComponent(mean, cov)
        reach = (np.abs(c.mean) + _DRAW_SDS * np.sqrt(np.diag(c.cov))) ** 2
        finite = np.all(np.isfinite(reach)) and np.all(np.isfinite(c.precision))
    if not finite:
        raise ValueError("component %d: the squares of its draws (within %g sd "
                         "of its mean) or its precision matrix overflow"
                         % (k, _DRAW_SDS))
    return c


def model_from_json(text):
    """The model of model_to_json's text.  Raises ValueError unless the
    weights, means and covariances are finite, each component's draws have
    finite squares and its precision matrix is finite, and the
    standardizer's shift and scale, if any, are finite d-vectors."""
    doc = json.loads(text)
    support = Rect(_decode_bounds(doc["support"]["lower"]),
                   _decode_bounds(doc["support"]["upper"]))
    weights = np.array(doc["weights"], dtype=float)
    means, covs = ([np.array(c[key], dtype=float) for c in doc["components"]]
                   for key in ("mean", "cov"))
    if not all(np.all(np.isfinite(a)) for a in [weights, *means, *covs]):
        raise ValueError("weights, means and covariances must be finite")
    m = TruncatedGMM(weights, list(map(_component, range(len(means)), means, covs)),
                     support)
    std = doc.get("standardizer")
    if std is not None:
        shift, scale = (np.array(std[key], dtype=float)
                        for key in ("shift", "scale"))
        if not (shift.shape == scale.shape == (m.dim,)
                and np.all(np.isfinite([shift, scale]))):
            raise ValueError("standardizer shift and scale must be finite "
                             "%d-vectors" % m.dim)
        m.standardizer = AffineStandardizer(shift, scale)
    return m
