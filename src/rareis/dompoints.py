"""Dominating points: Gaussian density maximizers over box pieces.

Each orthant piece intersected with the truncation rectangle is a box, so
density maximization reduces to a box-constrained quadratic program.  One
component's boxes are solved together by a primal active-set method run in
lockstep, and every solution's KKT conditions are checked exactly.
"""

import numpy as np

from . import frontier as fr


class SolverError(RuntimeError):
    """A dominating point failed its KKT check."""


class DominatingPoint:
    def __init__(self, point, kkt_residual):
        self.point = np.asarray(point, dtype=float)
        self.kkt_residual = float(kkt_residual)


def _box_qp(H, mu, lower, upper):
    """Rows of argmin 0.5 (x-mu)' H (x-mu)  s.t. lower <= x <= upper, H SPD.

    lower and upper are (m, d), a box per row.  The rows take the steps of one
    active-set method in lockstep, each on its own arithmetic, so that a row's
    result does not depend on the other rows; a row retires once its
    multipliers have the right signs.  Ties in the ratio and release tests go
    to the lowest coordinate index, lower bounds before upper ones.  Rows still
    moving after 10 d^2 + 10 steps are returned as they stand, for the KKT
    check to judge.
    """
    d = mu.size
    x = np.clip(mu, lower, upper)
    at_lo, at_hi = x <= lower, x >= upper
    live = np.arange(len(x))
    tol = 1e-12
    for _ in range(10 * d * d + 10):
        if not live.size:
            break
        xr, alo, ahi = x[live], at_lo[live], at_hi[live]
        free = ~(alo | ahi)
        # step from x[free] toward the equality-constrained optimum: the free
        # block of H, with identity rows and columns at the fixed coordinates
        A = np.where(free[:, :, None] & free[:, None, :], H, np.eye(d))
        rhs = -np.sum(H * np.where(free, 0.0, xr - mu)[:, None, :], axis=2)
        y = np.linalg.solve(A, np.where(free, rhs, 0.0)[:, :, None])[:, :, 0]
        step = np.where(free, mu + y - xr, 0.0)
        up = step > 0
        bound = np.where(up, upper[live], lower[live])
        hits = np.where(up, step > tol, step < -tol) & np.isfinite(bound)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(hits, (bound - xr) / step, np.inf)
        k, rk = np.argmin(ratio, axis=1), np.min(ratio, axis=1)
        xr = np.where(free, xr + np.minimum(rk, 1.0)[:, None] * step, xr)
        i = np.flatnonzero(rk < 1.0)
        j = k[i]
        xr[i, j] = bound[i, j]
        ahi[i, j] |= up[i, j]
        alo[i, j] |= ~up[i, j]
        # rows that took the full step: check multiplier signs on the working set
        g = np.sum(H * (xr - mu)[:, None, :], axis=2)
        signed = np.concatenate([np.where(alo, g, np.inf),
                                 np.where(ahi, -g, np.inf)], axis=1)
        k = np.argmin(signed, axis=1)
        done = (rk >= 1.0) & (np.min(signed, axis=1) >= -tol)
        r = np.flatnonzero((rk >= 1.0) & ~done)
        alo[r, k[r] % d] = ahi[r, k[r] % d] = False
        x[live], at_lo[live], at_hi[live] = xr, alo, ahi
        live = live[~done]
    return np.clip(x, lower, upper)


def _kkt_residual(H, mu, lower, upper, x):
    """Per row: largest gradient entry not excused by an active bound, or complementarity gap."""
    g = np.sum(H * (x - mu)[:, None, :], axis=2)
    gap_lo = np.abs(x - lower)
    gap_hi = np.abs(x - upper)
    on_lo = np.isfinite(lower) & (gap_lo <= 1e-9) & (g >= 0)
    on_hi = ~on_lo & np.isfinite(upper) & (gap_hi <= 1e-9) & (g <= 0)
    with np.errstate(invalid="ignore"):  # 0 * inf off the active bounds
        slack = np.where(on_lo, g * gap_lo, np.where(on_hi, -g * gap_hi, 0.0))
    r = np.max(np.abs(g), axis=1, where=~(on_lo | on_hi), initial=0.0)
    return np.maximum(r, slack.max(axis=1, initial=0.0))


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
    lower, upper = lower[None], upper[None]
    x = _box_qp(c.precision, c.mean, lower, upper)[0]
    res = _kkt_residual(c.precision, c.mean, lower, upper, x[None])[0]
    if not res <= 1e-6:
        raise SolverError("KKT residual %.3g exceeds 1e-6" % res)
    return DominatingPoint(x, res)


def _dedup(points):
    """The lexicographically sorted (n, d) points less each row equal to the
    row before it, so one copy of each exact duplicate."""
    keep = np.ones(len(points), dtype=bool)
    keep[1:] = np.any(points[1:] != points[:-1], axis=1)
    return points[keep]


def _solve_set(gmm, corners, mask, context):
    """Per-component dominating points for an array of canonical corners.

    Each component's set is an (n, d) array in lexicographic row order.  A
    piece whose box misses the support holds no mass and is dropped.
    """
    lower, upper, nonempty = mask.boxes(corners, gmm.support)
    corners, lower, upper = corners[nonempty], lower[nonempty], upper[nonempty]
    sets = []
    for i, c in enumerate(gmm.components):
        x = _box_qp(c.precision, c.mean, lower, upper)
        res = _kkt_residual(c.precision, c.mean, lower, upper, x)
        bad = np.flatnonzero(~(res <= 1e-6))
        if bad.size:
            raise SolverError("%s: component %d, corner %s: KKT residual %.3g "
                              "exceeds 1e-6" % (context, i, corners[bad[0]].tolist(),
                                                res[bad[0]]))
        sets.append(_dedup(x[np.lexsort(x.T[::-1])]))
    return sets


def initial_sets(gmm):
    """Initialization: each component's set is its own (support-clipped) mean,
    a (1, d) array."""
    lo, up = gmm.support.lower, gmm.support.upper
    return [np.clip(c.mean, lo, up)[None] for c in gmm.components]


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
