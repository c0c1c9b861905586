"""Truncated Gaussian mixture models: EM fitting, BIC selection, sampling.

The M-step follows the truncated-data EM with mean/covariance correction
terms built from moments of the rectangle-truncated components; with an
unbounded support the corrections vanish and the update reduces to the
ordinary GMM M-step.
"""

import json

import numpy as np

from .gauss import (GaussComponent, Rect, log_density, rect_prob,
                    sample_truncated, trunc_moments)


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

    def invert_rect(self, r):
        return Rect(r.lower * self.scale + self.shift,
                    r.upper * self.scale + self.shift)


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
        self.norm_consts = np.array([rect_prob(c, support) for c in components])

    @property
    def dim(self):
        return self.components[0].dim

    @property
    def n_components(self):
        return self.weights.size


def _component_log_dens(y, m):
    """(n, K) matrix of truncated per-component log densities (rows assumed inside)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    cols = [log_density(y, c) - np.log(m.norm_consts[k])
            for k, c in enumerate(m.components)]
    return np.column_stack(cols)


def _logsumexp_rows(a):
    """log(sum(exp(a), axis=1)) for an (n, K) matrix, shifted by each row's max."""
    top = a.max(axis=1)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.exp(a - shift[:, None]).sum(axis=1))


def gmm_log_density(x, m):
    """Log mixture density; -inf outside the support."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    out = np.full(X.shape[0], -np.inf)
    inside = m.support.contains(X)
    if np.any(inside):
        ld = _component_log_dens(X[inside], m)
        out[inside] = _logsumexp_rows(ld + np.log(m.weights))
    return float(out[0]) if single else out


def responsibilities(y, m, return_totals=False):
    """Posterior component memberships, one row per observation.

    With return_totals, also the per-row log mixture densities, whose sum is
    the log-likelihood of y.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if not np.all(m.support.contains(y)):
        bad = int(np.flatnonzero(~m.support.contains(y))[0])
        raise ValueError("row %d lies outside the support" % bad)
    ld = _component_log_dens(y, m) + np.log(m.weights)
    tot = _logsumexp_rows(ld)
    if not np.all(np.isfinite(tot)):
        bad = int(np.flatnonzero(~np.isfinite(tot))[0])
        raise ValueError("row %d has zero density under every component" % bad)
    resp = np.exp(ld - tot[:, None])
    return (resp, tot) if return_totals else resp


def _spd_cholesky(cov):
    """Cholesky with escalating diagonal jitter; returns repaired covariance."""
    cov = 0.5 * (cov + cov.T)
    jitter = 1e-8 * np.trace(cov) / cov.shape[0]
    for attempt in range(6):
        try:
            np.linalg.cholesky(cov)
            return cov
        except np.linalg.LinAlgError:
            cov = cov + jitter * np.eye(cov.shape[0])
            jitter *= 10.0
    raise np.linalg.LinAlgError("covariance could not be regularized to SPD")


def em_step(y, m, resp=None):
    """One EM update; returns a new TruncatedGMM.

    resp, when given, must be responsibilities(y, m); it spares the E-step.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, d = y.shape
    if n < m.n_components:
        raise ValueError("need at least K observations")
    if resp is None:
        resp = responsibilities(y, m)
    nk = resp.sum(axis=0)
    new_w = nk / n
    for k, w in enumerate(new_w):
        if w < 1e-8:
            raise DyingComponentError("component %d weight collapsed to %.3g" % (k, w))
    new_components = []
    unbounded = m.support.is_unbounded()
    for k, c in enumerate(m.components):
        ybar = resp[:, k] @ y / nk[k]
        if unbounded:
            mk = np.zeros(d)
            Hk = np.zeros((d, d))
        else:
            zero = GaussComponent(np.zeros(d), c.cov)
            shifted = Rect(m.support.lower - c.mean, m.support.upper - c.mean)
            m1, m2 = trunc_moments(zero, shifted, mass=m.norm_consts[k])
            mk = m1
            Hk = c.cov - m2
        mu = ybar - mk
        dev = y - mu
        scatter = (resp[:, k][:, None] * dev).T @ dev / nk[k]
        cov = _spd_cholesky(scatter + Hk)
        new_components.append(GaussComponent(mu, cov))
    return TruncatedGMM(new_w, new_components, m.support, m.standardizer)


class FitReport:
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


def _init_model(y, K, support, rng, standardizer):
    means = _kmeanspp_means(y, K, rng)
    pooled = np.cov(y, rowvar=False, bias=True).reshape(y.shape[1], y.shape[1])
    pooled = _spd_cholesky(pooled / K)
    comps = [GaussComponent(mu, pooled.copy()) for mu in means]
    return TruncatedGMM(np.full(K, 1.0 / K), comps, support, standardizer)


def fit(y, K, support, init_seed=0, max_iter=500, tol=1e-7, restarts=3,
        standardizer=None):
    """EM fit with restarts; deterministic given (y, K, init_seed, options)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n = y.shape[0]
    if n < 10 * K:
        raise ValueError("need at least 10*K observations (heuristic floor)")
    if not np.all(support.contains(y)):
        raise ValueError("data rows must lie inside the support")
    best = None
    for child in np.random.SeedSequence(init_seed).spawn(restarts):
        rng = np.random.default_rng(child)
        model = _init_model(y, K, support, rng, standardizer)
        resp, tot = responsibilities(y, model, return_totals=True)
        trace = [float(np.sum(tot))]
        converged = False
        for it in range(max_iter):
            model = em_step(y, model, resp)
            try:
                resp, tot = responsibilities(y, model, return_totals=True)
            except ValueError as err:
                raise RuntimeError("non-finite log-likelihood at iteration %d: %s"
                                   % (it + 1, err))
            ll = float(np.sum(tot))
            prev = trace[-1]
            trace.append(ll)
            if abs(ll - prev) < tol * abs(ll):
                converged = True
                break
        if best is None or trace[-1] > best[1].loglik_trace[-1]:
            report = FitReport(trace, converged, None)
            best = (model, report)
    model, report = best
    report.bic = bic(model, y, loglik=report.loglik_trace[-1])
    return model, report


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
            parts.append(sample_truncated(counts[k], c, m.support, rng))
    out = np.concatenate(parts, axis=0)
    return out[rng.permutation(n)]


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
