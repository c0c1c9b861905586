import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rareis.frontier import (DirectionMask, FrontierStore,
                             NonMonotoneOutcomeError, PieceBlowupError, Region,
                             bound_indicators, classify, frontier_from_json,
                             frontier_to_json, insert, outer_pieces)


def store2d():
    return FrontierStore(DirectionMask([1.0, 1.0]))


def brute_minima(points):
    pts = [tuple(p) for p in points]
    out = []
    for p in pts:
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts):
            out.append(p)
    return set(out)


def brute_maxima(points):
    pts = [tuple(p) for p in points]
    out = []
    for p in pts:
        if not any(q != p and all(a >= b for a, b in zip(q, p)) for q in pts):
            out.append(p)
    return set(out)


class TestInsert:
    def test_dominated_rare_point_pruned(self):
        s = store2d()
        for p in [(1, 2), (2, 1), (2, 2)]:
            s = insert(s, np.array(p, dtype=float), "rare")
        assert {tuple(r) for r in s.s1} == {(1.0, 2.0), (2.0, 1.0)}

    def test_safe_insert(self):
        s = insert(store2d(), np.zeros(2), "safe")
        assert {tuple(r) for r in s.s0} == {(0.0, 0.0)}

    def test_insert_is_persistent(self):
        s = store2d()
        s2 = insert(s, np.array([1.0, 1.0]), "rare")
        assert s.s1.shape[0] == 0 and s2.s1.shape[0] == 1

    def test_mask_canonicalizes(self):
        s = FrontierStore(DirectionMask([-1.0, 1.0]))
        s = insert(s, np.array([2.0, 3.0]), "rare")
        assert s.s1.tolist() == [[-2.0, 3.0]]

    def test_non_monotone_conflict(self):
        s = insert(store2d(), np.array([1.0, 1.0]), "safe")
        with pytest.raises(NonMonotoneOutcomeError):
            insert(s, np.array([0.5, 0.5]), "rare")
        s = insert(store2d(), np.array([1.0, 1.0]), "rare")
        with pytest.raises(NonMonotoneOutcomeError):
            insert(s, np.array([2.0, 2.0]), "safe")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            insert(store2d(), np.array([np.inf, 0.0]), "rare")

    def test_frontier_never_grows_on_dominated_insert(self):
        s = store2d()
        s = insert(s, np.array([1.0, 1.0]), "rare")
        before = s.s1.shape[0]
        s = insert(s, np.array([2.0, 2.0]), "rare")
        assert s.s1.shape[0] == before

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                              st.booleans()), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_scan(self, seq):
        # rare points drawn from the upper region, safe from the lower, so
        # outcomes are consistent with a monotone set x+y >= 7
        s = store2d()
        rare, safe = [], []
        for a, b, is_rare in seq:
            if is_rare:
                p = (float(a + 4), float(b + 4))
                rare.append(p)
            else:
                p = (float(a), float(b))
                if a + b >= 7:
                    continue
                safe.append(p)
            s = insert(s, np.array(p), "rare" if is_rare else "safe")
        assert {tuple(r) for r in s.s1} == brute_minima(rare)
        assert {tuple(r) for r in s.s0} == brute_maxima(safe)


class TestClassify:
    def test_inner_rare(self):
        s = insert(store2d(), np.array([1.0, 1.0]), "rare")
        assert classify(s, np.array([2.0, 2.0])) is Region.InnerRare

    def test_outer_safe(self):
        s = insert(store2d(), np.array([3.0, 3.0]), "safe")
        assert classify(s, np.array([2.0, 2.0])) is Region.OuterSafe

    def test_unknown_between_frontiers(self):
        s = insert(store2d(), np.array([1.0, 3.0]), "rare")
        s = insert(s, np.array([0.5, 2.0]), "safe")
        # neither x >= (1,3) nor x strictly below (0.5,2)
        assert classify(s, np.array([2.0, 1.0])) is Region.Unknown

    def test_boundary_of_safe_point_is_unknown(self):
        # the outer test is strict in every coordinate
        s = insert(store2d(), np.array([3.0, 3.0]), "safe")
        assert classify(s, np.array([3.0, 2.0])) is Region.Unknown

    def test_classification_monotone(self, rng):
        s = store2d()
        for p in rng.uniform(2, 4, size=(5, 2)):
            s = insert(s, p, "rare")
        for p in rng.uniform(0, 2, size=(5, 2)):
            s = insert(s, p, "safe")
        for _ in range(200):
            x = rng.uniform(0, 4, 2)
            y = x + rng.uniform(0, 1, 2)
            if classify(s, x) is Region.InnerRare:
                assert classify(s, y) is Region.InnerRare
            if classify(s, y) is Region.OuterSafe:
                assert classify(s, x) is Region.OuterSafe


class TestOuterPieces:
    def test_single_safe_point_d3(self):
        s = FrontierStore(DirectionMask([1.0, 1.0, 1.0]))
        s = insert(s, np.array([1.0, 2.0, 3.0]), "safe")
        corners, truncated = outer_pieces(s)
        got = {tuple(c) for c in corners}
        inf = -np.inf
        assert got == {(1.0, inf, inf), (inf, 2.0, inf), (inf, inf, 3.0)}
        assert not truncated

    def test_duplicate_safe_points_idempotent(self):
        s = FrontierStore(DirectionMask([1.0, 1.0]))
        s1 = insert(s, np.array([1.0, 2.0]), "safe")
        s2 = insert(s1, np.array([1.0, 2.0]), "safe")
        a, _ = outer_pieces(s1)
        b, _ = outer_pieces(s2)
        assert a.tolist() == b.tolist()

    def test_two_point_enumeration(self):
        s = FrontierStore(DirectionMask([1.0, 1.0]))
        s = insert(s, np.array([1.0, 2.0]), "safe")
        s = insert(s, np.array([2.0, 1.0]), "safe")
        corners, _ = outer_pieces(s)
        inf = -np.inf
        assert {tuple(c) for c in corners} == {(2.0, inf), (inf, 2.0), (1.0, 1.0)}

    def test_union_equals_outer_indicator_on_grid(self, rng):
        s = FrontierStore(DirectionMask([1.0, 1.0]))
        for p in rng.uniform(0, 3, size=(6, 2)):
            s = insert(s, p, "safe")
        corners, _ = outer_pieces(s)
        _, outer_fn = bound_indicators(s)
        X = rng.uniform(-1, 4, size=(10_000, 2))
        in_union = np.zeros(X.shape[0], dtype=bool)
        for c in corners:
            in_union |= np.all(X >= c, axis=1)
        assert np.array_equal(in_union.astype(int), outer_fn(X))

    def test_blowup_error(self):
        s = FrontierStore(DirectionMask([1.0, 1.0]))
        # 25 mutually non-dominated safe points: 2^25 selections
        for i in range(25):
            s = insert(s, np.array([float(i), float(25 - i)]), "safe")
        with pytest.raises(PieceBlowupError):
            outer_pieces(s)

    def test_cap_truncation_flag(self, rng):
        s = FrontierStore(DirectionMask([1.0, 1.0, 1.0]))
        for i in range(8):
            p = np.array([float(i), float(8 - i), float((3 * i) % 7)])
            try:
                s = insert(s, p, "safe")
            except NonMonotoneOutcomeError:
                pass
        corners, truncated = outer_pieces(s, cap=2)
        assert corners.shape[0] == 2
        assert truncated


class TestBoundIndicators:
    def test_empty_store_vacuous(self):
        inner_fn, outer_fn = bound_indicators(store2d())
        x = np.array([0.3, -1.0])
        assert inner_fn(x[None])[0] == 0 and outer_fn(x[None])[0] == 1

    def test_inner_rare_point(self):
        s = insert(store2d(), np.array([1.0, 1.0]), "rare")
        inner_fn, outer_fn = bound_indicators(s)
        x = np.array([2.0, 2.0])
        assert (inner_fn(x[None])[0], outer_fn(x[None])[0]) == (1, 1)

    def test_grid_agreement_with_set_formulas(self, rng):
        s = store2d()
        for p in rng.uniform(2, 4, size=(5, 2)):
            s = insert(s, p, "rare")
        for p in rng.uniform(0, 2, size=(5, 2)):
            s = insert(s, p, "safe")
        inner_fn, outer_fn = bound_indicators(s)
        X = rng.uniform(-1, 5, size=(10_000, 2))
        inner_direct = np.array([int(np.any(np.all(x >= s.s1, axis=1))) for x in X])
        outer_direct = np.array([int(not np.any(np.all(x < s.s0, axis=1))) for x in X])
        assert np.array_equal(inner_fn(X), inner_direct)
        assert np.array_equal(outer_fn(X), outer_direct)
        assert np.all(inner_fn(X) <= outer_fn(X))


class TestSandwich:
    @pytest.mark.parametrize("seed", range(5))
    def test_inner_below_truth_below_outer(self, seed):
        rng = np.random.default_rng(seed)
        d = 2
        w = rng.uniform(0.5, 2.0, d)
        thresh = float(rng.uniform(2.0, 4.0))
        truth = lambda X: (X @ w >= thresh).astype(int)
        s = FrontierStore(DirectionMask(np.ones(d)))
        pts = rng.uniform(0, 4, size=(300, d))
        for p in pts:
            s = insert(s, p, "rare" if truth(p[None])[0] else "safe")
        inner_fn, outer_fn = bound_indicators(s)
        X = rng.uniform(0, 4, size=(10_000, d))
        t = truth(X)
        assert np.all(inner_fn(X) <= t)
        assert np.all(t <= outer_fn(X))


def test_json_round_trip():
    s = FrontierStore(DirectionMask([-1.0, 1.0]))
    s = insert(s, np.array([2.0, 3.0]), "rare")
    s = insert(s, np.array([5.0, 1.0]), "safe")
    back = frontier_from_json(frontier_to_json(s))
    assert back.mask.signs.tolist() == [-1.0, 1.0]
    assert back.s1.tolist() == s.s1.tolist()
    assert back.s0.tolist() == s.s0.tolist()


def test_canonicalize_involution(rng):
    mask = DirectionMask([-1.0, 1.0, -1.0])
    x = rng.standard_normal(3)
    assert np.allclose(mask.canonicalize(mask.canonicalize(x)), x)
