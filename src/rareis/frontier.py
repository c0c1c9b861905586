"""Monotone rare-event set learning via Pareto frontiers.

Rare observations are reduced to their Pareto-minimal elements (s1), safe
observations to their Pareto-maximal elements (s0); together they define an
inner approximation (union of upper orthants at s1) and an outer
approximation (intersection over s0 of unions of coordinate half-spaces) of
the underlying monotone set.  Coordinates are canonicalized by a sign mask
so the set is non-decreasing internally.
"""

import json
from enum import Enum

import numpy as np


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


class Region(Enum):
    InnerRare = "inner_rare"
    OuterSafe = "outer_safe"
    Unknown = "unknown"


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


def _empty(d):
    return np.empty((0, d))


class FrontierStore:
    """Immutable frontier pair; insert returns a new store."""

    def __init__(self, mask, s1=None, s0=None):
        self.mask = mask
        d = mask.dim
        self.s1 = _empty(d) if s1 is None else np.atleast_2d(np.asarray(s1, dtype=float))
        self.s0 = _empty(d) if s0 is None else np.atleast_2d(np.asarray(s0, dtype=float))

    @property
    def dim(self):
        return self.mask.dim


def _dominated_by_any(x, front):
    # some frontier point <= x componentwise
    return front.shape[0] > 0 and bool(np.any(np.all(front <= x, axis=1)))


def _dominates_any(x, front):
    return front.shape[0] > 0 and bool(np.any(np.all(front >= x, axis=1)))


def insert(store, x, label):
    """Add a labeled observation, pruning so both frontiers stay minimal/maximal."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("inserted point must be finite")
    z = store.mask.canonicalize(x)
    if label == "rare":
        if store.s0.shape[0]:
            below = np.all(z <= store.s0, axis=1)
            if np.any(below):
                raise NonMonotoneOutcomeError(z, store.s0[np.argmax(below)])
        if _dominated_by_any(z, store.s1):
            return store
        keep = ~np.all(store.s1 >= z, axis=1) if store.s1.shape[0] else np.zeros(0, bool)
        s1 = np.vstack([store.s1[keep], z])
        return FrontierStore(store.mask, s1, store.s0)
    elif label == "safe":
        if store.s1.shape[0]:
            above = np.all(store.s1 <= z, axis=1)
            if np.any(above):
                raise NonMonotoneOutcomeError(store.s1[np.argmax(above)], z)
        if _dominates_any(z, store.s0):
            return store
        keep = ~np.all(store.s0 <= z, axis=1) if store.s0.shape[0] else np.zeros(0, bool)
        s0 = np.vstack([store.s0[keep], z])
        return FrontierStore(store.mask, store.s1, s0)
    raise ValueError("label must be 'rare' or 'safe'")


def classify(store, x):
    """InnerRare / OuterSafe / Unknown for a single point (original coordinates)."""
    z = store.mask.canonicalize(x)
    if store.s1.shape[0] and np.any(np.all(z >= store.s1, axis=1)):
        return Region.InnerRare
    if store.s0.shape[0] and np.any(np.all(z < store.s0, axis=1)):
        return Region.OuterSafe
    return Region.Unknown


def _inner_mask(store, Z):
    if store.s1.shape[0] == 0:
        return np.zeros(Z.shape[0], dtype=bool)
    return np.any(np.all(Z[:, None, :] >= store.s1[None], axis=2), axis=1)


def _outer_safe_mask(store, Z):
    if store.s0.shape[0] == 0:
        return np.zeros(Z.shape[0], dtype=bool)
    return np.any(np.all(Z[:, None, :] < store.s0[None], axis=2), axis=1)


def bound_indicators(store):
    """Cheap inner/outer indicator functions with inner <= outer pointwise.

    Both map an (n, d) matrix to (n,) values in {0, 1}.
    """
    def inner_fn(X):
        return _inner_mask(store, store.mask.canonicalize(X)).astype(int)

    def outer_fn(X):
        return (~_outer_safe_mask(store, store.mask.canonicalize(X))).astype(int)

    return inner_fn, outer_fn


def _prune_corners(corners):
    """Drop duplicate corners and corners whose orthant is contained in another's."""
    if corners.shape[0] <= 1:
        return corners
    corners = np.unique(corners, axis=0)
    n = corners.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        leq = np.all(corners <= corners[i], axis=1)
        geq = np.all(corners >= corners[i], axis=1)
        # strictly-smaller corner elsewhere means orthant i is contained
        contained = leq & ~(leq & geq)
        contained[i] = False
        if np.any(contained & keep):
            keep[i] = False
    return corners[keep]


def outer_pieces(store, cap=4096):
    """Lower corners of the orthant pieces whose union is the outer approximation.

    Enumerates the coordinate selections over s0 with incremental pruning of
    dominated pieces (the pruned result equals the brute-force enumeration).
    Returns (corners, truncated) where truncated flags a cap cut.
    """
    n0, d = store.s0.shape
    if n0 < 1:
        raise ValueError("outer_pieces requires at least one safe frontier point")
    if n0 * np.log(d if d > 1 else 2) > np.log(1e6) and d ** min(n0, 64) > 10 ** 6:
        raise PieceBlowupError(
            "d^|s0| = %d^%d exceeds 1e6; reduce |s0| (frontier stop criterion)"
            % (d, n0))
    corners = np.full((1, d), -np.inf)
    for b in store.s0:
        expanded = np.repeat(corners, d, axis=0)
        for i in range(d):
            rows = slice(i, expanded.shape[0], d)
            expanded[rows, i] = np.maximum(expanded[rows, i], b[i])
        corners = _prune_corners(expanded)
    truncated = False
    if corners.shape[0] > cap:
        # keep the pieces closest to the origin of the canonical coordinates:
        # lower corners with the smallest finite-coordinate sum retain the
        # most density potential under any centered base model
        score = np.where(np.isfinite(corners), corners, 0.0).sum(axis=1)
        corners = corners[np.argsort(score, kind="stable")[:cap]]
        truncated = True
    order = np.lexsort(corners.T[::-1])
    return corners[order], truncated


def frontier_to_json(store):
    return json.dumps({
        "mask": store.mask.signs.tolist(),
        "s1": store.s1.tolist(),
        "s0": store.s0.tolist(),
    }, sort_keys=True, indent=2)


def frontier_from_json(text):
    doc = json.loads(text)
    mask = DirectionMask(np.array(doc["mask"]))
    d = mask.dim
    s1 = np.array(doc["s1"], dtype=float).reshape(-1, d)
    s0 = np.array(doc["s0"], dtype=float).reshape(-1, d)
    return FrontierStore(mask, s1, s0)
