"""Dominating points: Gaussian density maximizers over box pieces.

Each orthant piece intersected with the truncation rectangle is a box, so
density maximization reduces to a box-constrained quadratic program solved
with a primal active-set method whose KKT conditions are checked exactly.
"""

import warnings

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import frontier as fr


class SolverError(RuntimeError):
    """Active-set iteration failed to converge."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class OrthantPiece:
    """Box {x : lower <= x <= upper} with extended-real bounds."""

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower/upper must be equal-length vectors")
        self.lower = lower
        self.upper = upper

    @property
    def dim(self):
        return self.lower.size

    def is_feasible(self):
        return bool(np.all(self.lower <= self.upper)
                    and np.all(self.lower < np.inf)
                    and np.all(self.upper > -np.inf))


class DominatingPoint:
    def __init__(self, point, kkt_residual):
        self.point = np.asarray(point, dtype=float)
        self.kkt_residual = float(kkt_residual)


def _box_qp(H, mu, lower, upper, max_iter):
    """argmin 0.5 (x-mu)' H (x-mu)  s.t. lower <= x <= upper, H SPD."""
    d = mu.size
    x = np.clip(mu, lower, upper)
    at_lo = x <= lower
    at_hi = x >= upper
    tol = 1e-12
    for _ in range(max_iter):
        free = ~(at_lo | at_hi)
        if np.any(free):
            f = np.flatnonzero(free)
            c = np.flatnonzero(~free)
            rhs = -H[np.ix_(f, c)] @ (x[c] - mu[c]) if c.size else np.zeros(f.size)
            target = mu[f] + np.linalg.solve(H[np.ix_(f, f)], rhs)
        else:
            f = np.array([], dtype=int)
            target = np.zeros(0)
        # step from x[f] toward the equality-constrained optimum
        step = target - x[f] if f.size else np.zeros(0)
        alpha = 1.0
        blocker = -1
        block_low = False
        for idx, j in enumerate(f):
            if step[idx] > tol and np.isfinite(upper[j]):
                a = (upper[j] - x[j]) / step[idx]
                if a < alpha:
                    alpha, blocker, block_low = a, j, False
            elif step[idx] < -tol and np.isfinite(lower[j]):
                a = (lower[j] - x[j]) / step[idx]
                if a < alpha:
                    alpha, blocker, block_low = a, j, True
        if f.size:
            x[f] = x[f] + alpha * step
        if blocker >= 0:
            if block_low:
                x[blocker] = lower[blocker]
                at_lo[blocker] = True
            else:
                x[blocker] = upper[blocker]
                at_hi[blocker] = True
            continue
        # full step taken: check multiplier signs on the working set
        g = H @ (x - mu)
        release = -1
        worst = -tol
        for j in np.flatnonzero(at_lo):
            if g[j] < worst:
                worst, release = g[j], j
        for j in np.flatnonzero(at_hi):
            if -g[j] < worst:
                worst, release = -g[j], j
        if release < 0:
            return np.clip(x, lower, upper)
        at_lo[release] = False
        at_hi[release] = False
    raise SolverError("active-set solver did not converge in %d iterations" % max_iter,
                      last_iterate=x)


def _kkt_residual(H, mu, lower, upper, x):
    g = H @ (x - mu)
    r = 0.0
    slack = 0.0
    for j in range(mu.size):
        at_lo = np.isfinite(lower[j]) and abs(x[j] - lower[j]) <= 1e-9
        at_hi = np.isfinite(upper[j]) and abs(x[j] - upper[j]) <= 1e-9
        if at_lo and g[j] >= 0:
            slack = max(slack, g[j] * abs(x[j] - lower[j]))
        elif at_hi and g[j] <= 0:
            slack = max(slack, -g[j] * abs(x[j] - upper[j]))
        else:
            r = max(r, abs(g[j]))
    return max(r, slack)


def solve_piece(c, piece, max_iter=None):
    """Dominating point of a Gaussian component on a box piece."""
    if not piece.is_feasible():
        raise ValueError("infeasible piece: lower exceeds upper")
    d = c.dim
    if max_iter is None:
        max_iter = 10 * d * d + 10
    factor = cho_factor(c.cov, lower=True)
    H = cho_solve(factor, np.eye(d))
    H = 0.5 * (H + H.T)
    x = _box_qp(H, c.mean, piece.lower, piece.upper, max_iter)
    res = _kkt_residual(H, c.mean, piece.lower, piece.upper, x)
    if res > 1e-6:
        raise SolverError("KKT residual %.3g exceeds 1e-6" % res, last_iterate=x)
    return DominatingPoint(x, res)


def canonical_corner_to_box(corner, signs, support):
    """Map a canonical-coordinate orthant corner to an original-coordinate box.

    The canonical constraint signs*x >= corner becomes a per-coordinate lower
    or upper bound depending on the sign; the box is intersected with the
    support.  Returns None when the intersection is empty.
    """
    corner = np.asarray(corner, dtype=float)
    lo = np.array(support.lower, copy=True)
    up = np.array(support.upper, copy=True)
    for i, s in enumerate(signs):
        if s > 0:
            lo[i] = max(lo[i], corner[i])
        else:
            up[i] = min(up[i], -corner[i])
    if np.any(lo > up):
        return None
    return OrthantPiece(lo, up)


def _dedup(points, tol=1e-6):
    """Drop points within tol Euclidean distance of an earlier point."""
    kept = []
    for p in points:
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    return kept


def _solve_set(gmm, corners, mask, context):
    """Per-component dominating points for an array of canonical corners."""
    boxes = []
    for corner in corners:
        box = canonical_corner_to_box(corner, mask.signs, gmm.support)
        if box is None:
            warnings.warn("%s: piece at corner %s lies outside the support; dropped"
                          % (context, corner.tolist()))
        else:
            boxes.append((corner, box))
    sets = []
    for i, c in enumerate(gmm.components):
        pts = []
        for corner, box in boxes:
            try:
                dp = solve_piece(c, box)
            except SolverError as err:
                raise SolverError("%s: component %d, corner %s: %s"
                                  % (context, i, corner.tolist(), err),
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
