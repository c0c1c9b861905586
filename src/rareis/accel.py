"""Mixture importance sampling and the iterative rare-event procedure.

Builds mean-shifted mixture sampling distributions from dominating-point
sets, evaluates exact truncated likelihood ratios, and wraps everything in
the frontier-driven construction loop plus one estimator with confidence
intervals, which with the base model as its proposal is crude Monte Carlo.
"""

import json

import numpy as np

from . import dompoints, frontier as fr
from .gauss import log_densities
# rect_prob stays bound here: bench/test_bench.py checks that the tracer
# rebinds it at accel.rect_prob.
from .gauss import rect_prob  # noqa: F401
from .tgmm import TruncatedGMM, gmm_log_density, gmm_sample, log_mixture


def build_is(gmm, a_inner, a_outer, rho):
    """rho-blend of the inner-set and outer-set mean-shifted mixtures.

    The proposal is itself a TruncatedGMM: one part per dominating point,
    the base component moved to that point and truncated to the base support.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    parts = []
    for share, sets, empty in (
            (rho, a_inner, "rho > 0 requires nonempty inner dominating sets"),
            (1.0 - rho, a_outer, "rho < 1 requires nonempty outer dominating sets")):
        if share > 0.0:
            if any(len(s) == 0 for s in sets):
                raise ValueError(empty)
            parts += [(share * gmm.weights[i] / len(pts), p, i)
                      for i, pts in enumerate(sets) for p in pts]
    means = np.array([mean for _, mean, _ in parts], dtype=float)
    outside = np.flatnonzero(~gmm.support.contains(means))
    if outside.size:
        raise ValueError("IS part mean %s lies outside the support"
                         % means[outside[0]].tolist())
    # Python sum, not a numpy reduction: the multinomial draws in sample_is
    # depend on the last bits of these weights.
    total = sum(w for w, _, _ in parts)
    return TruncatedGMM([w / total for w, _, _ in parts],
                        [gmm.components[i].moved_to(mean) for _, mean, i in parts],
                        gmm.support)


def likelihood_ratio(x, gmm, q):
    """dF/dF* at the (n, d) rows x, as (n,); exact for the truncated densities
    on both sides.

    One log_densities call serves both mixtures, so a base component and
    its proposal parts whiten x once; that kernel is batch invariant in the
    components, so each side's values are bit for bit gmm_log_density's.
    """
    x = np.asarray(x, dtype=float)
    k = gmm.n_components
    ld = log_densities(x, gmm.components + q.components)
    ratio = log_mixture(ld[:k], gmm, x)
    ratio -= log_mixture(ld[k:], q, x)
    np.exp(ratio, out=ratio)
    bad = np.flatnonzero(~np.isfinite(ratio))
    if bad.size:
        raise ValueError("non-finite likelihood ratio (support mismatch) in %d "
                         "rows, first bad row %d of the %d given: x=%s"
                         % (bad.size, bad[0], ratio.size, x[bad[0]].tolist()))
    return ratio


def sample_is(n, q, rng):
    """n draws from the IS proposal q (any TruncatedGMM), all inside its support."""
    return gmm_sample(n, q, rng)


class EstimateReport:
    """Summary of an estimate's weighted outcomes il, kept as values: each
    draw's likelihood ratio where it hit, else 0."""

    def __init__(self, il, method="is"):
        self.values = il
        self.n_samples = il.size
        self.p_hat = float(il.mean())
        self.stderr = float(il.std(ddof=1) / np.sqrt(il.size))
        self.ci95 = (self.p_hat - 1.96 * self.stderr, self.p_hat + 1.96 * self.stderr)
        self.zero_hits = not np.any(il > 0)
        self.max_likelihood_ratio = 0.0 if self.zero_hits else float(il.max())
        self.effective_sample_size = (
            0.0 if self.zero_hits else float(il.sum() ** 2 / np.sum(il ** 2)))
        self.crude_equiv_n = crude_equiv_n(self.p_hat, self.stderr)
        self.bounds, self.bounds_stderr = (0.0, 1.0), None  # see estimate
        self.method = method

    def to_dict(self):
        doc = {
            "p_hat": self.p_hat,
            "stderr": self.stderr,
            "ci95": list(self.ci95),
            "n_samples": self.n_samples,
            "max_likelihood_ratio": self.max_likelihood_ratio,
            "effective_sample_size": self.effective_sample_size,
            "crude_equiv_n": self.crude_equiv_n,
            "bounds": list(self.bounds),
            "zero_hits": self.zero_hits,
            "method": self.method,
        }
        if self.bounds_stderr is not None:
            doc["bounds_stderr"] = list(self.bounds_stderr)
        return doc

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def apply_indicator(indicator, X):
    """(n,) int outcomes of a batch indicator at the sampler's (n, d) rows X;
    an outcome array of another shape, or a value not 0 or 1, raises ValueError."""
    vals = np.asarray(indicator(X))
    if vals.shape != (X.shape[0],):
        raise ValueError("indicator returned shape %s for %d rows; want (%d,)"
                         % (vals.shape, X.shape[0], X.shape[0]))
    bad = np.flatnonzero((vals != 0) & (vals != 1))
    if bad.size:
        raise ValueError("indicator returned %r at row %d; want 0 or 1"
                         % (vals[bad[0]].item(), bad[0]))
    return vals.astype(int)


def crude_equiv_n(p_hat, stderr):
    """Crude-MC sample size whose binomial stderr matches the given stderr."""
    if stderr <= 0 or p_hat <= 0:
        return 0
    return int(np.ceil(p_hat * (1.0 - p_hat) / stderr ** 2))


def estimate(indicator, gmm, q, n, seed, frontier=None):
    """Importance-sampling estimate of P(indicator = 1) under the base model.

    With q the base model itself every likelihood ratio is exactly 1: this
    is crude Monte Carlo, and the report's method reads "crude".  Given a
    FrontierStore, the same draws also estimate its inner and outer
    probabilities (report.bounds) and must not contradict it.
    """
    if n < 100:
        raise ValueError("n must be >= 100")
    # spawn(1)[0], not the seed itself: seeded outputs match earlier releases.
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    X = sample_is(n, q, rng)
    hits = apply_indicator(indicator, X)
    rows = hits == 1
    if frontier is not None:
        # the likelihood ratio then covers the outer rows, every hit among them
        inner, rows = fr.bound_indicators(frontier, X)
        bad = np.flatnonzero((inner & (hits == 0)) | (~rows & (hits == 1)))
        if bad.size:
            # the store holds no conflict, so insert raises for this draw
            fr.insert(frontier, X[bad[:1]], hits[bad[:1]])
    lr = np.zeros(n)
    if q is gmm:
        lr[rows] = 1.0  # what exp(a - a) gives, at no density evaluation
    elif np.any(rows):
        lr[rows] = likelihood_ratio(X[rows], gmm, q)
    # without a frontier the rows are the hits, and lr is 0 elsewhere
    il = lr if frontier is None else np.where(hits == 1, lr, 0.0)
    report = EstimateReport(il, "crude" if q is gmm else "is")
    if frontier is not None:
        # lr is 0 outside the outer rows; an empty s1 gives exactly 0
        sides = [(min(float(v.mean()), 1.0), float(v.std(ddof=1) / np.sqrt(n)))
                 for v in (np.where(inner, lr, 0.0), lr)]
        if frontier.s0.shape[0] == 0:
            sides[1] = (1.0, 0.0)
        report.bounds, report.bounds_stderr = zip(*sides)
    return report


class ProcedureState:
    def __init__(self, frontier, a_inner, a_outer, iteration, simulator_calls,
                 history):
        self.frontier = frontier
        self.a_inner = a_inner
        self.a_outer = a_outer
        self.iteration = iteration
        self.simulator_calls = simulator_calls
        self.history = history

    def to_dict(self):
        """The procedure's own record; the frontier and the sets are written apart."""
        return {
            "iteration": self.iteration,
            "simulator_calls": self.simulator_calls,
            "history": self.history,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _top(score, cap):
    """Row indices of the cap highest scores, ties to the earlier row, in row order."""
    return np.sort(np.argsort(-score, kind="stable")[:cap])


def thin_frontier(gmm, store, cap):
    """The store with at most cap rare and cap safe frontier points.

    Keeps the rare points with the highest base density (most mass nearby)
    and the safe points reaching farthest into the canonical cone. Dropping
    frontier points only loosens the inner and outer approximations, never
    invalidates them.
    """
    s1, s0 = store.s1, store.s0
    if s1.shape[0] > cap:
        s1 = s1[_top(gmm_log_density(store.mask.canonicalize(s1), gmm), cap)]
    if s0.shape[0] > cap:
        s0 = s0[_top(s0.sum(axis=1), cap)]
    return fr.FrontierStore(store.mask, s1, s0)


def run_procedure(indicator, gmm, mask, n_per_iter=500, max_iter=4,
                  max_frontier=12, final_rho=0.0, seed=0):
    """Iterative frontier learning and dominating-point IS construction.

    Thinning: Pareto fronts in d >= 3 routinely exceed any small cap after a
    single batch, so the frontier cap acts as a construction-time thinning
    limit (thin_frontier) rather than a hard stop.  The proposal blends in
    the inner part (rho = 0.5) once a rare point has been seen.
    """
    store = fr.FrontierStore(mask)
    a_inner = a_outer = dompoints.initial_sets(gmm)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    history = []
    calls = 0
    it = 0
    for it in range(1, max_iter + 1):
        rho = 0.0 if store.s1.shape[0] == 0 else 0.5
        q = build_is(gmm, a_inner, a_outer, rho)
        X = sample_is(n_per_iter, q, rng)
        hits = apply_indicator(indicator, X)
        store = fr.insert(store, X, hits)
        calls += n_per_iter
        thinned = thin_frontier(gmm, store, max_frontier)
        a_inner = dompoints.inner_dominating(gmm, thinned)
        a_outer = dompoints.outer_dominating(gmm, thinned)
        history.append({
            "iteration": it,
            "rho": rho,
            "rare_hits": int(hits.sum()),
            "s1_size": int(store.s1.shape[0]),
            "s0_size": int(store.s0.shape[0]),
            "inner_parts": sum(len(s) for s in a_inner),
            "outer_parts": sum(len(s) for s in a_outer),
        })
    state = ProcedureState(store, a_inner, a_outer, it, calls, history)
    q_final = build_is(gmm, a_inner, a_outer, final_rho)
    return state, q_final
