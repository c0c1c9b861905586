"""Monotone rare-event set learning via Pareto frontiers.

Rare observations are reduced to their Pareto-minimal elements (s1), safe
observations to their Pareto-maximal elements (s0); together they define an
inner approximation (union of upper orthants at s1) and an outer
approximation (intersection over s0 of unions of coordinate half-spaces) of
the underlying monotone set.  Coordinates are canonicalized by a sign mask
so the set is non-decreasing internally.
"""

import numpy as np

from .gauss import _rows


class NonMonotoneOutcomeError(RuntimeError):
    """A rare point sits componentwise below a safe point: outcomes are not monotone."""

    def __init__(self, rare_point, safe_point):
        self.rare_point = np.asarray(rare_point)
        self.safe_point = np.asarray(safe_point)
        super().__init__(
            "non-monotone outcome: rare point %s <= safe point %s (canonical coords)"
            % (self.rare_point.tolist(), self.safe_point.tolist()))


class PieceBlowupError(RuntimeError):
    """Outer-piece enumeration d^{|s0|} exceeds the tractable limit."""


class DirectionMask:
    """Signs (+1/-1) per coordinate; +1 means the rare set is non-decreasing there."""

    def __init__(self, signs):
        signs = np.asarray(signs, dtype=float)
        if not np.all(np.isin(signs, (-1.0, 1.0))):
            raise ValueError("mask entries must be +1 or -1")
        self.signs = signs

    @property
    def dim(self):
        return self.signs.size

    def canonicalize(self, x):
        return np.asarray(x, dtype=float) * self.signs

    def boxes(self, corners, support):
        """Model-coordinate boxes of the canonical orthants {x : signs * x >= corner}.

        corners is (n, d).  Where the sign is +1 a corner entry c bounds the
        coordinate from below by c, where it is -1 from above by -c; each box
        is intersected with the support Rect.  Returns (lower, upper), both
        (n, d), and the (n,) mask of nonempty boxes.
        """
        corners = np.asarray(corners, dtype=float)
        pos = self.signs > 0
        # where, not np.maximum/np.minimum: a tie keeps the support's bound,
        # signed zero included
        lower = np.where(pos & (corners > support.lower), corners, support.lower)
        upper = np.where(~pos & (-corners < support.upper), -corners, support.upper)
        return lower, upper, np.all(lower <= upper, axis=1)


def _empty(d):
    return np.empty((0, d))


class FrontierStore:
    """Immutable frontier pair; insert returns a new store."""

    def __init__(self, mask, s1=None, s0=None):
        self.mask = mask
        d = mask.dim
        self.s1 = _empty(d) if s1 is None else _rows(s1, d)
        self.s0 = _empty(d) if s0 is None else _rows(s0, d)

    @property
    def dim(self):
        return self.mask.dim


# Rows taken per round of _minimal.  With _leq comparing contiguous columns,
# 64 and 128 timed within 3% of each other on the inserts of tail-halfspace
# runs, and 32 was 6-10% slower.
_BLOCK = 64


def _leq(A, B, strict=False):
    """(len(A), len(B)) matrix of A[i] <= B[j] (< if strict) in every coordinate."""
    op = np.less if strict else np.less_equal
    cols = np.ascontiguousarray(B.T)  # B's coordinates as contiguous rows
    out = op(A[:, 0, None], cols[0])
    scratch = np.empty_like(out)
    for k in range(1, A.shape[1]):
        out &= op(A[:, k, None], cols[k], out=scratch)
    return out


def _minimal(P, old=None):
    """Rows of old, then of P, that no other row is <= componentwise, in row order.

    old, if given, must itself be minimal, as a store's frontier is; the
    result then equals _minimal(np.vstack([old, P])), where of equal rows
    only the first is kept.  Rows of P that an old row is <= go in one call.
    The rest are taken in stable lexicographic order, in which a row that is
    <= another and differs from it comes first, and equal rows keep their
    row order; so a row that no earlier row is <= is final.  Each round
    keeps those of the next _BLOCK live rows that no earlier row of the
    block is <=, and drops the later live rows that a kept row is <=.  Last,
    the old rows that a kept row is <= go.
    """
    fresh = old is None or not old.shape[0]  # no old rows to test against
    live = (np.arange(P.shape[0]) if fresh
            else np.flatnonzero(~_leq(old, P).any(axis=0)))
    live = live[np.lexsort(P[live].T[::-1])]
    kept = [live[:0]]
    while live.size:
        blk, live = live[:_BLOCK], live[_BLOCK:]
        earlier = np.arange(blk.size)[:, None] < np.arange(blk.size)  # [j, i]: j < i
        kept.append(blk[~np.any(_leq(P[blk], P[blk]) & earlier, axis=0)])
        if live.size:
            live = live[~_leq(P[kept[-1]], P[live]).any(axis=0)]
    new = P[np.sort(np.concatenate(kept))]
    if fresh:
        return new
    return np.concatenate([old[~_leq(new, old).any(axis=0)], new])


def insert(store, X, hits):
    """Add a batch of (n, d) draws with their (n,) 0/1 outcomes; returns a new store.

    The rare frontier keeps the minimal points, the safe frontier the maximal
    ones, the earlier of equal points in both.  Raises NonMonotoneOutcomeError
    for the first rare point <= some safe point.
    """
    X = _rows(X, store.dim)
    hits = np.asarray(hits)
    if not np.all(np.isfinite(X)):
        raise ValueError("inserted points must be finite")
    if hits.shape != (X.shape[0],) or not np.all((hits == 0) | (hits == 1)):
        raise ValueError("want (n,) outcomes in {0, 1} for %d points; got shape %s"
                         % (X.shape[0], hits.shape))
    Z = store.mask.canonicalize(X)
    s1 = _minimal(Z[hits == 1], store.s1)
    s0 = -_minimal(-Z[hits == 0], -store.s0)
    conflict = _leq(s1, s0)
    if np.any(conflict):
        i, j = np.argwhere(conflict)[0]
        raise NonMonotoneOutcomeError(s1[i], s0[j])
    return FrontierStore(store.mask, s1, s0)


# Draws per block of bound_indicators.  Its _leq matrices hold the draws
# along rows: numpy compares a row against a broadcast scalar about 7 times
# faster per entry once the row has 2,731 entries or more (numpy 2.4, timed
# on 356 x 1,024..8,192).
_DRAWS = 4096


def bound_indicators(store, X):
    """(n,) boolean masks of the (n, d) draws X inside the inner and the
    outer approximation; inner implies outer.

    A draw z is inside the inner one when some rare point is <= z, and
    outside the outer one when z < some safe point s, that is -s < -z, in
    every coordinate.  The draws go in blocks of _DRAWS rows.
    """
    Z = store.mask.canonicalize(_rows(X, store.dim))
    inner, outer = np.empty((2, Z.shape[0]), dtype=bool)
    neg = -store.s0
    for lo in range(0, Z.shape[0], _DRAWS):
        z = Z[lo:lo + _DRAWS]
        inner[lo:lo + _DRAWS] = _leq(store.s1, z).any(axis=0)
        outer[lo:lo + _DRAWS] = _leq(neg, -z, strict=True).any(axis=0)
    return inner, np.logical_not(outer, out=outer)


def outer_pieces(store, cap=4096):
    """Lower corners of the orthant pieces whose union is the outer approximation.

    Enumerates the coordinate selections over s0 with incremental pruning of
    dominated pieces (the pruned result equals the brute-force enumeration).
    Returns (corners, truncated) where truncated flags a cap cut.
    """
    n0, d = store.s0.shape
    if n0 < 1:
        raise ValueError("outer_pieces requires at least one safe frontier point")
    if d ** n0 > 10 ** 6:
        raise PieceBlowupError(
            "d^|s0| = %d^%d exceeds 1e6; reduce |s0| (frontier stop criterion)"
            % (d, n0))
    corners = np.full((1, d), -np.inf)
    for b in store.s0:
        expanded = np.repeat(corners, d, axis=0)
        for i in range(d):
            rows = slice(i, expanded.shape[0], d)
            expanded[rows, i] = np.maximum(expanded[rows, i], b[i])
        corners = _minimal(expanded)
    # sorted before the stable score sort, so score ties break lexicographically
    corners = corners[np.lexsort(corners.T[::-1])]
    if corners.shape[0] <= cap:
        return corners, False
    # keep the pieces closest to the origin of the canonical coordinates:
    # lower corners with the smallest finite-coordinate sum retain the most
    # density potential under any centered base model
    score = np.where(np.isfinite(corners), corners, 0.0).sum(axis=1)
    return corners[np.sort(np.argsort(score, kind="stable")[:cap])], True


def _json_list(items, level):
    """json.dumps(list, indent=2) text, level lists deep, of encoded items."""
    pad = "\n" + "  " * level
    if not items:
        return "[]"
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def _json_rows(a):
    """_json_list text, one level deep, of the (n, d) array a's rows."""
    cells, d = list(map(repr, a.ravel().tolist())), a.shape[1]
    return _json_list([_json_list(cells[i:i + d], 2)
                       for i in range(0, len(cells), d)], 1)


def frontier_to_json(store):
    """json.dumps({mask, s1, s0}, sort_keys=True, indent=2), without json's
    pure-Python indenting encoder: finite floats encode as their repr."""
    mask = _json_list(list(map(repr, store.mask.signs.tolist())), 1)
    return '{\n  "mask": %s,\n  "s0": %s,\n  "s1": %s\n}' % (
        mask, _json_rows(store.s0), _json_rows(store.s1))
