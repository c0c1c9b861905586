"""Dominating points: Gaussian density maximizers over box pieces.

Each orthant piece intersected with the truncation rectangle is a box, so
density maximization reduces to a box-constrained quadratic program solved
with a primal active-set method whose KKT conditions are checked exactly.
"""

import warnings

import numpy as np

from . import frontier as fr


class SolverError(RuntimeError):
    """Active-set iteration failed to converge."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class DominatingPoint:
    def __init__(self, point, kkt_residual):
        self.point = np.asarray(point, dtype=float)
        self.kkt_residual = float(kkt_residual)


def _box_qp(H, mu, lower, upper):
    """argmin 0.5 (x-mu)' H (x-mu)  s.t. lower <= x <= upper, H SPD.

    Ties in the ratio and release tests go to the lowest coordinate index,
    lower bounds before upper ones.
    """
    d = mu.size
    max_iter = 10 * d * d + 10
    x = np.clip(mu, lower, upper)
    at_lo = x <= lower
    at_hi = x >= upper
    tol = 1e-12
    for _ in range(max_iter):
        free = ~(at_lo | at_hi)
        f = np.flatnonzero(free)
        if f.size:
            c = np.flatnonzero(~free)
            rhs = -H[np.ix_(f, c)] @ (x[c] - mu[c]) if c.size else np.zeros(f.size)
            # step from x[f] toward the equality-constrained optimum
            step = mu[f] + np.linalg.solve(H[np.ix_(f, f)], rhs) - x[f]
            up = step > 0
            bound = np.where(up, upper[f], lower[f])
            hits = np.where(up, step > tol, step < -tol) & np.isfinite(bound)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(hits, (bound - x[f]) / step, np.inf)
            k = np.argmin(ratio)
            alpha = min(ratio[k], 1.0)
            x[f] = x[f] + alpha * step
            if ratio[k] < 1.0:
                j = f[k]
                if up[k]:
                    x[j] = upper[j]
                    at_hi[j] = True
                else:
                    x[j] = lower[j]
                    at_lo[j] = True
                continue
        # full step taken: check multiplier signs on the working set
        g = H @ (x - mu)
        signed = np.concatenate([np.where(at_lo, g, np.inf),
                                 np.where(at_hi, -g, np.inf)])
        k = np.argmin(signed)
        if signed[k] >= -tol:
            return np.clip(x, lower, upper)
        at_lo[k % d] = False
        at_hi[k % d] = False
    raise SolverError("active-set solver did not converge in %d iterations" % max_iter,
                      last_iterate=x)


def _kkt_residual(H, mu, lower, upper, x):
    """Largest gradient entry not excused by an active bound, or complementarity gap."""
    g = H @ (x - mu)
    gap_lo = np.abs(x - lower)
    gap_hi = np.abs(x - upper)
    on_lo = np.isfinite(lower) & (gap_lo <= 1e-9) & (g >= 0)
    on_hi = ~on_lo & np.isfinite(upper) & (gap_hi <= 1e-9) & (g <= 0)
    with np.errstate(invalid="ignore"):  # 0 * inf off the active bounds
        slack = np.where(on_lo, g * gap_lo, np.where(on_hi, -g * gap_hi, 0.0))
    r = np.max(np.abs(g), where=~(on_lo | on_hi), initial=0.0)
    return max(r, slack.max(initial=0.0))


def solve_piece(c, lower, upper):
    """Dominating point of a Gaussian component on the box lower <= x <= upper.

    lower and upper are (d,) vectors of extended reals, d = c.dim.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (c.dim,) or upper.shape != (c.dim,):
        raise ValueError("piece bounds have shapes %s and %s; the component has "
                         "dimension %d" % (lower.shape, upper.shape, c.dim))
    if not (np.all(lower <= upper) and np.all(lower < np.inf)
            and np.all(upper > -np.inf)):
        raise ValueError("infeasible piece: lower exceeds upper")
    x = _box_qp(c.precision, c.mean, lower, upper)
    res = _kkt_residual(c.precision, c.mean, lower, upper, x)
    if res > 1e-6:
        raise SolverError("KKT residual %.3g exceeds 1e-6" % res, last_iterate=x)
    return DominatingPoint(x, res)


def _dedup(points):
    """Drop points within 1e-6 Euclidean distance of an earlier point."""
    kept = []
    for p in points:
        if all(np.linalg.norm(p - q) > 1e-6 for q in kept):
            kept.append(p)
    return kept


def _solve_set(gmm, corners, mask, context):
    """Per-component dominating points for an array of canonical corners."""
    lower, upper, nonempty = mask.boxes(corners, gmm.support)
    for corner in corners[~nonempty]:
        warnings.warn("%s: piece at corner %s lies outside the support; dropped"
                      % (context, corner.tolist()))
    kept = np.flatnonzero(nonempty)
    sets = []
    for i, c in enumerate(gmm.components):
        pts = []
        for k in kept:
            try:
                dp = solve_piece(c, lower[k], upper[k])
            except SolverError as err:
                raise SolverError("%s: component %d, corner %s: %s"
                                  % (context, i, corners[k].tolist(), err),
                                  last_iterate=err.last_iterate) from err
            pts.append(dp.point)
        pts.sort(key=lambda p: tuple(p))
        sets.append([np.asarray(p) for p in _dedup(pts)])
    return sets


def initial_sets(gmm):
    """Initialization: each component contributes its own (support-clipped) mean."""
    lo, up = gmm.support.lower, gmm.support.upper
    return [[np.clip(c.mean, lo, up)] for c in gmm.components]


def inner_dominating(gmm, store):
    """Dominating sets of the inner approximation: a piece per rare frontier point."""
    if store.s1.shape[0] == 0:
        return initial_sets(gmm)
    return _solve_set(gmm, store.s1, store.mask, "inner_dominating")


def outer_dominating(gmm, store):
    """Dominating sets of the outer approximation: a piece per outer_pieces corner."""
    if store.s0.shape[0] == 0:
        return initial_sets(gmm)
    corners, _ = fr.outer_pieces(store)
    return _solve_set(gmm, corners, store.mask, "outer_dominating")
