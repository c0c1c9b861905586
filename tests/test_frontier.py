import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rareis import frontier
from rareis.frontier import (DirectionMask, FrontierStore,
                             NonMonotoneOutcomeError, PieceBlowupError,
                             bound_indicators, frontier_to_json, insert,
                             outer_pieces)
from rareis.gauss import Rect


def store2d():
    return FrontierStore(DirectionMask([1.0, 1.0]))


def rows(*points):
    return np.array(points, dtype=float)


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


def ordered_minima(points):
    """First occurrence of each point that no other point is <=, in order."""
    out = []
    for i, p in enumerate(points):
        if not any(all(a <= b for a, b in zip(q, p)) and (q != p or j < i)
                   for j, q in enumerate(points) if j != i):
            out.append(p)
    return out


def ordered_maxima(points):
    neg = ordered_minima([tuple(-v for v in p) for p in points])
    return [tuple(-v for v in p) for p in neg]


class TestInsert:
    def test_dominated_rare_point_pruned(self):
        s = insert(store2d(), rows((1, 2), (2, 1), (2, 2)), [1, 1, 1])
        assert {tuple(r) for r in s.s1} == {(1.0, 2.0), (2.0, 1.0)}

    def test_safe_insert(self):
        s = insert(store2d(), np.zeros((1, 2)), [0])
        assert {tuple(r) for r in s.s0} == {(0.0, 0.0)}

    def test_insert_is_persistent(self):
        s = store2d()
        s2 = insert(s, rows((1, 1)), [1])
        assert s.s1.shape[0] == 0 and s2.s1.shape[0] == 1

    def test_mask_canonicalizes(self):
        s = FrontierStore(DirectionMask([-1.0, 1.0]))
        s = insert(s, rows((2, 3)), [1])
        assert s.s1.tolist() == [[-2.0, 3.0]]

    def test_non_monotone_conflict(self):
        s = insert(store2d(), rows((1, 1)), [0])
        with pytest.raises(NonMonotoneOutcomeError):
            insert(s, rows((0.5, 0.5)), [1])
        s = insert(store2d(), rows((1, 1)), [1])
        with pytest.raises(NonMonotoneOutcomeError):
            insert(s, rows((2, 2)), [0])

    def test_conflict_within_one_batch_names_the_pair(self):
        with pytest.raises(NonMonotoneOutcomeError) as err:
            insert(store2d(), rows((3, 3), (1, 1), (0, 2), (0.5, 4)), [0, 1, 1, 0])
        assert err.value.rare_point.tolist() == [1.0, 1.0]
        assert err.value.safe_point.tolist() == [3.0, 3.0]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            insert(store2d(), rows((np.inf, 0.0)), [1])

    @pytest.mark.parametrize("X, hits", [
        (rows((1, 1), (2, 2)), [1]),
        (rows((1, 1)), [[1]]),
        (np.ones(2), [1, 1]),
        (rows((1, 1)), [2]),
        (np.array([[2.0], [0.5]]), [1, 0]),  # once broadcast to (2, 2) rows
    ], ids=["short-hits", "2-d-hits", "1-d-points", "outcome-2", "narrow-rows"])
    def test_rejects_bad_shapes_and_outcomes(self, X, hits):
        with pytest.raises(ValueError):
            insert(store2d(), X, hits)

    def test_frontier_never_grows_on_dominated_insert(self):
        s = store2d()
        s = insert(s, rows((1, 1)), [1])
        before = s.s1.shape[0]
        s = insert(s, rows((2, 2)), [1])
        assert s.s1.shape[0] == before

    def test_equal_points_keep_the_first(self):
        s = insert(store2d(), rows((1, 2), (0, 3), (1, 2)), [1, 1, 1])
        assert s.s1.tolist() == [[1.0, 2.0], [0.0, 3.0]]
        s = insert(s, rows((0, 3), (1, 1)), [1, 1])
        assert s.s1.tolist() == [[0.0, 3.0], [1.0, 1.0]]

    def test_batch_larger_than_one_block(self, rng):
        X = rng.integers(0, 12, size=(600, 3)).astype(float)
        hits = (X.sum(axis=1) >= 16).astype(int)
        s = insert(FrontierStore(DirectionMask(np.ones(3))), X, hits)
        assert [tuple(r) for r in s.s1] == ordered_minima([tuple(x) for x in X[hits == 1]])
        assert [tuple(r) for r in s.s0] == ordered_maxima([tuple(x) for x in X[hits == 0]])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_batch_and_chunks_match_ordered_oracle(self, data):
        d = data.draw(st.integers(1, 3))
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                   min_size=d, max_size=d))
        pts = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=d,
                                          max_size=d), max_size=80))
        X = np.array(pts, dtype=float).reshape(-1, d)
        Z = X * signs
        if data.draw(st.booleans()):
            # monotone outcomes: rare iff the canonical sum reaches t
            t = data.draw(st.integers(-8, 8))
            hits = (Z.sum(axis=1) >= t).astype(int)
        else:
            hits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(pts),
                                               max_size=len(pts))), dtype=int)
        rare = [tuple(z) for z, h in zip(Z, hits) if h]
        safe = [tuple(z) for z, h in zip(Z, hits) if not h]
        conflict = any(all(a <= b for a, b in zip(r, q)) for r in rare for q in safe)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(pts)), max_size=5)))
        for chunks in ([np.arange(len(pts))], np.split(np.arange(len(pts)), cuts)):
            s = FrontierStore(DirectionMask(signs))
            try:
                for idx in chunks:
                    s = insert(s, X[idx], hits[idx])
            except NonMonotoneOutcomeError as err:
                assert conflict
                assert np.all(err.rare_point <= err.safe_point)
                continue
            assert not conflict
            assert [tuple(r) for r in s.s1] == ordered_minima(rare)
            assert [tuple(r) for r in s.s0] == ordered_maxima(safe)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                              st.booleans()), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_scan(self, seq):
        # rare points drawn from the upper region, safe from the lower, so
        # outcomes are consistent with a monotone set x+y >= 7
        rare, safe, X, hits = [], [], [], []
        for a, b, is_rare in seq:
            if is_rare:
                p = (float(a + 4), float(b + 4))
                rare.append(p)
            else:
                p = (float(a), float(b))
                if a + b >= 7:
                    continue
                safe.append(p)
            X.append(p)
            hits.append(int(is_rare))
        s = insert(store2d(), np.array(X).reshape(-1, 2), hits)
        assert {tuple(r) for r in s.s1} == brute_minima(rare)
        assert {tuple(r) for r in s.s0} == brute_maxima(safe)


class TestScreeningFilter:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_joint_filter_and_ordered_oracle(self, data):
        # blocks of 2 to 4 rows make a batch cross many rounds; -inf entries
        # are as in outer_pieces corners
        d = data.draw(st.integers(1, 3))
        value = st.one_of(st.integers(0, 4).map(float), st.just(-np.inf))
        row = st.lists(value, min_size=d, max_size=d).map(tuple)
        old = ordered_minima(data.draw(st.lists(row, max_size=12)))
        # duplicate rows, and rows equal to old rows
        new = data.draw(st.lists(st.one_of(row, st.sampled_from(old)) if old else row,
                                 max_size=40))
        O = np.array(old, dtype=float).reshape(-1, d)
        P = np.array(new, dtype=float).reshape(-1, d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(frontier, "_BLOCK", data.draw(st.integers(2, 4)))
            got = frontier._minimal(P, O)
            joint = frontier._minimal(np.vstack([O, P]))
        assert got.tobytes() == joint.tobytes()
        assert [tuple(r) for r in got] == ordered_minima(old + new)
        assert [tuple(r) for r in frontier._minimal(P)] == ordered_minima(new)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_no_old_rows_keeps_the_rows_bit_for_bit(self, data):
        # 0.0 and -0.0 compare equal, so of such rows only the first stays,
        # with its own sign bits
        d = data.draw(st.integers(1, 3))
        value = st.sampled_from([0.0, -0.0, 1.0, 2.0, -np.inf])
        P = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                        max_size=40)), dtype=float).reshape(-1, d)
        keep = [i for i, p in enumerate(P)
                if not any(np.all(q <= p) and (np.any(q != p) or j < i)
                           for j, q in enumerate(P) if j != i)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(frontier, "_BLOCK", data.draw(st.integers(2, 4)))
            for got in (frontier._minimal(P), frontier._minimal(P, P[:0])):
                assert got.shape == (len(keep), d)
                assert got.tobytes() == P[keep].tobytes()


def region(store, x):
    """(inner, outer) bound indicators at one point: (1, 1) is inside the
    inner set, (0, 0) outside the outer set, (0, 1) between them."""
    inner, outer = bound_indicators(store, x[None])
    return int(inner[0]), int(outer[0])


class TestClassify:
    def test_inner_rare(self):
        s = insert(store2d(), rows((1, 1)), [1])
        assert region(s, np.array([2.0, 2.0]))[0] == 1

    def test_outer_safe(self):
        s = insert(store2d(), rows((3, 3)), [0])
        assert region(s, np.array([2.0, 2.0]))[1] == 0

    def test_unknown_between_frontiers(self):
        s = insert(store2d(), rows((1, 3)), [1])
        s = insert(s, rows((0.5, 2.0)), [0])
        # neither x >= (1,3) nor x strictly below (0.5,2)
        assert region(s, np.array([2.0, 1.0])) == (0, 1)

    def test_boundary_of_safe_point_is_unknown(self):
        # the outer test is strict in every coordinate
        s = insert(store2d(), rows((3, 3)), [0])
        assert region(s, np.array([3.0, 2.0])) == (0, 1)

    def test_classification_monotone(self, rng):
        s = insert(store2d(), rng.uniform(2, 4, size=(5, 2)), np.ones(5))
        s = insert(s, rng.uniform(0, 2, size=(5, 2)), np.zeros(5))
        for _ in range(200):
            x = rng.uniform(0, 4, 2)
            y = x + rng.uniform(0, 1, 2)
            if region(s, x)[0] == 1:
                assert region(s, y)[0] == 1
            if region(s, y)[1] == 0:
                assert region(s, x)[1] == 0


class TestOuterPieces:
    def test_single_safe_point_d3(self):
        s = FrontierStore(DirectionMask([1.0, 1.0, 1.0]))
        s = insert(s, rows((1, 2, 3)), [0])
        corners, truncated = outer_pieces(s)
        got = {tuple(c) for c in corners}
        inf = -np.inf
        assert got == {(1.0, inf, inf), (inf, 2.0, inf), (inf, inf, 3.0)}
        assert not truncated

    def test_duplicate_safe_points_idempotent(self):
        s = FrontierStore(DirectionMask([1.0, 1.0]))
        s1 = insert(s, rows((1, 2)), [0])
        s2 = insert(s1, rows((1, 2)), [0])
        a, _ = outer_pieces(s1)
        b, _ = outer_pieces(s2)
        assert a.tolist() == b.tolist()

    def test_two_point_enumeration(self):
        s = FrontierStore(DirectionMask([1.0, 1.0]))
        s = insert(s, rows((1, 2), (2, 1)), [0, 0])
        corners, _ = outer_pieces(s)
        inf = -np.inf
        assert {tuple(c) for c in corners} == {(2.0, inf), (inf, 2.0), (1.0, 1.0)}

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_union_equals_outer_indicator_on_grid(self, rng, d):
        s = FrontierStore(DirectionMask(np.ones(d)))
        s = insert(s, rng.uniform(0, 3, size=(6, d)), np.zeros(6))
        corners, _ = outer_pieces(s)
        X = rng.uniform(-1, 4, size=(10_000, d))
        _, outer = bound_indicators(s, X)
        in_union = np.zeros(X.shape[0], dtype=bool)
        for c in corners:
            in_union |= np.all(X >= c, axis=1)
        assert np.array_equal(in_union.astype(int), outer)

    def test_blowup_error(self):
        s = FrontierStore(DirectionMask([1.0, 1.0]))
        # 25 mutually non-dominated safe points: 2^25 selections
        s = insert(s, np.array([[float(i), float(25 - i)] for i in range(25)]),
                   np.zeros(25))
        with pytest.raises(PieceBlowupError):
            outer_pieces(s)

    @pytest.mark.parametrize("d,largest", [(10, 6), (3, 12), (2, 19)])
    def test_blowup_bound_is_d_to_the_s0(self, d, largest):
        """d^|s0| <= 1e6 passes and one more safe point raises; equal safe
        points keep the enumeration itself at d corners."""
        mask = DirectionMask(np.ones(d))
        corners, _ = outer_pieces(FrontierStore(mask, s0=np.zeros((largest, d))))
        assert corners.shape == (d, d)
        with pytest.raises(PieceBlowupError, match=r"d\^\|s0\| = %d\^%d exceeds"
                           % (d, largest + 1)):
            outer_pieces(FrontierStore(mask, s0=np.zeros((largest + 1, d))))

    def test_blowup_bound_never_binds_at_d_1(self):
        store = FrontierStore(DirectionMask([1.0]), s0=np.zeros((199, 1)))
        corners, _ = outer_pieces(store)
        assert corners.tolist() == [[0.0]]

    def test_cap_truncation_flag(self, rng):
        s = FrontierStore(DirectionMask([1.0, 1.0, 1.0]))
        P = np.array([[float(i), float(8 - i), float((3 * i) % 7)] for i in range(8)])
        s = insert(s, P, np.zeros(8))
        corners, truncated = outer_pieces(s, cap=2)
        assert corners.shape[0] == 2
        assert truncated

    def test_cap_breaks_score_ties_in_lexicographic_order(self):
        # 8 corners: one with score 2, six tied at 3, one at 4; a cap of 4
        # keeps the first three of the tied six in lexicographic order,
        # whatever the order of the safe points
        P = rows([1, 3, 2], [3, 1, 2], [2, 2, 1], [0, 2, 3])
        inf = np.inf
        want = rows([-inf, -inf, 3], [-inf, 3, -inf], [0, -inf, 2], [1, 1, 1])
        for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            s = FrontierStore(DirectionMask([1.0, 1.0, 1.0]), None, P[perm])
            assert outer_pieces(s)[0].shape[0] == 8
            corners, truncated = outer_pieces(s, cap=4)
            assert truncated
            np.testing.assert_array_equal(corners, want)


class TestBoundIndicators:
    def test_empty_store_vacuous(self):
        x = np.array([0.3, -1.0])
        inner, outer = bound_indicators(store2d(), x[None])
        assert inner[0] == 0 and outer[0] == 1

    def test_inner_rare_point(self):
        s = insert(store2d(), rows((1, 1)), [1])
        x = np.array([2.0, 2.0])
        inner, outer = bound_indicators(s, x[None])
        assert (inner[0], outer[0]) == (1, 1)

    def test_grid_agreement_with_set_formulas(self, rng):
        for d in range(2, 7):
            s = FrontierStore(DirectionMask(np.ones(d)))
            s = insert(s, rng.uniform(2, 4, size=(5, d)), np.ones(5))
            s = insert(s, rng.uniform(0, 2, size=(5, d)), np.zeros(5))
            X = rng.uniform(-1, 5, size=(10_000, d))
            # the outer test is strict: draws just below safe points, some
            # of their coordinates set exactly on the safe point's
            base = s.s0[rng.integers(s.s0.shape[0], size=2000)]
            edge = base - rng.uniform(0, 0.5, size=base.shape)
            on = rng.random(base.shape) < 0.3
            edge[on] = base[on]
            X = np.vstack([X, edge, s.s0, s.s1])
            inner, outer = bound_indicators(s, X)
            inner_direct = np.array([int(np.any(np.all(x >= s.s1, axis=1))) for x in X])
            outer_direct = np.array([int(not np.any(np.all(x < s.s0, axis=1))) for x in X])
            assert np.array_equal(inner, inner_direct)
            assert np.array_equal(outer, outer_direct)
            assert np.all(inner <= outer)
            assert 0 < outer_direct[10_000:12_000].sum() < 2000

    @pytest.mark.parametrize("X, shape", [(np.array([2.0, 2.0, 2.0]), r"\(3,\)"),
                                          (np.ones((4, 2)), r"\(4, 2\)")],
                             ids=["one_point", "wrong_width"])
    def test_wants_rows_of_the_store_dimension(self, X, shape):
        """A 1-D point once gave masks over its coordinates, and (4, 2) rows
        numpy's broadcast error."""
        s = FrontierStore(DirectionMask(np.ones(3)), [[1.0, 1.0, 1.0]],
                          [[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"^want \(n, 3\) rows; got shape %s$"
                           % shape):
            bound_indicators(s, X)


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
        s = insert(s, pts, truth(pts))
        X = rng.uniform(0, 4, size=(10_000, d))
        inner, outer = bound_indicators(s, X)
        t = truth(X)
        assert np.all(inner <= t)
        assert np.all(t <= outer)


class TestBoxes:
    def test_positive_signs(self):
        support = Rect([-1.0, -1.0], [5.0, 5.0])
        lower, upper, nonempty = DirectionMask([1.0, 1.0]).boxes(
            rows([1.0, -np.inf]), support)
        assert lower.tolist() == [[1.0, -1.0]]
        assert upper.tolist() == [[5.0, 5.0]]
        assert nonempty.tolist() == [True]

    def test_flipped_sign_becomes_upper_bound(self):
        support = Rect.unbounded(2)
        lower, upper, _ = DirectionMask([-1.0, 1.0]).boxes(rows([1.0, 2.0]),
                                                           support)
        assert upper[0, 0] == -1.0 and lower[0, 1] == 2.0

    def test_outside_support_is_empty(self):
        support = Rect([0.0], [1.0])
        _, _, nonempty = DirectionMask([1.0]).boxes(rows([2.0]), support)
        assert nonempty.tolist() == [False]

    def test_rows_are_independent_and_ties_keep_the_support_bound(self):
        support = Rect([0.0, -np.inf], [1.0, 0.0])
        mask = DirectionMask([1.0, -1.0])
        corners = rows([-0.0, 0.0], [0.5, -2.0], [2.0, 1.0])
        lower, upper, nonempty = mask.boxes(corners, support)
        for k, corner in enumerate(corners):
            lo, up, ok = mask.boxes(corner[None], support)
            assert lower[k].tolist() == lo[0].tolist()
            assert upper[k].tolist() == up[0].tolist() and nonempty[k] == ok[0]
        assert nonempty.tolist() == [True, True, False]
        assert lower.tolist() == [[0.0, -np.inf], [0.5, -np.inf], [2.0, -np.inf]]
        assert upper.tolist() == [[1.0, 0.0], [1.0, 0.0], [1.0, -1.0]]
        # -0.0 against the support's 0.0 bounds: the support's sign survives
        assert not np.signbit(lower[0, 0]) and not np.signbit(upper[0, 1])


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("n1, n0", [(0, 0), (0, 3), (4, 0), (5, 7)])
def test_json_is_indented_dumps(d, n1, n0):
    rng = np.random.default_rng(10 * d + n1 + n0)
    special = [-0.0, 0.0, 5e-324, -2.2e-308, 1e308, -1e308, 1.0 / 3.0]
    s1, s0 = (rng.normal(size=(k, d)) for k in (n1, n0))
    for a in (s1, s0):
        a.flat[:len(special)] = special[:a.size]
    signs = np.where(np.arange(d) % 2 == 1, -1.0, 1.0)
    store = FrontierStore(DirectionMask(signs), s1, s0)
    want = json.dumps({"mask": signs.tolist(), "s1": store.s1.tolist(),
                       "s0": store.s0.tolist()}, sort_keys=True, indent=2)
    assert frontier_to_json(store) == want


def leq_reference(A, B, strict=False):
    op = np.less if strict else np.less_equal
    out = op(A[:, None, 0], B[None, :, 0])
    for k in range(1, A.shape[1]):
        out &= op(A[:, None, k], B[None, :, k])
    return out


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("na, nb", [(0, 4), (5, 0), (0, 0), (1, 1), (9, 13)])
def test_leq_matches_broadcast_reference(strict, d, na, nb):
    # small integers make ties in single coordinates and whole rows
    rng = np.random.default_rng(100 * d + 10 * na + nb)
    A = rng.integers(0, 3, size=(na, d)).astype(float)
    B = rng.integers(0, 3, size=(nb, d)).astype(float)
    if na and nb:
        B[0] = A[0]
    got = frontier._leq(A, B, strict)
    want = leq_reference(A, B, strict)
    assert got.shape == want.shape == (na, nb)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, frontier._DRAWS - 1, frontier._DRAWS,
                               2 * frontier._DRAWS + 5])
@pytest.mark.parametrize("sizes", [(40, 50), (0, 50), (40, 0), (0, 0)])
def test_bound_indicators_match_whole_matrix_tests(n, sizes):
    # the row-blocked masks against the whole (|s|, n) matrices they
    # replaced, with ties on frontier coordinates, NaN and +-inf draws
    rng = np.random.default_rng(n + 7 * sizes[0] + sizes[1])
    mask = DirectionMask([1.0, -1.0, 1.0])
    pts = rng.integers(0, 6, size=(sum(sizes), 3)).astype(float)
    s = FrontierStore(mask, pts[:sizes[0]] + 3.0, pts[sizes[0]:])
    X = mask.canonicalize(rng.integers(0, 10, size=(n, 3)).astype(float))
    X[3:6] = np.nan
    X[6:9, 1] = np.nan
    X[9:12, 0], X[12:15, 2] = -np.inf, np.inf
    Z = mask.canonicalize(X)
    inner, outer = bound_indicators(s, X)
    assert inner.shape == outer.shape == (n,) and inner.dtype == outer.dtype == bool
    assert np.array_equal(inner, leq_reference(s.s1, Z).any(axis=0))
    assert np.array_equal(outer, ~leq_reference(Z, s.s0, strict=True).any(axis=1))
    if n > 100 and all(sizes):
        assert 0 < inner.sum() < outer.sum() < n


@pytest.mark.parametrize("make, message", [
    (lambda: DirectionMask([1.0, 0.0]), r"^mask entries must be \+1 or -1$"),
    (lambda: outer_pieces(store2d()),
     r"^outer_pieces requires at least one safe frontier point$"),
    # a store takes (n, d) rows of its mask's dimension, never one point
    (lambda: FrontierStore(DirectionMask(np.ones(3)), [[1.0, 2.0]]),
     r"^want \(n, 3\) rows; got shape \(1, 2\)$"),
    (lambda: FrontierStore(DirectionMask(np.ones(3)), s0=[1.0, 2.0, 3.0]),
     r"^want \(n, 3\) rows; got shape \(3,\)$"),
], ids=["mask_entry", "outer_pieces_without_s0", "store_s1_width", "store_s0_point"])
def test_rejects_malformed_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_canonicalize_involution(rng):
    mask = DirectionMask([-1.0, 1.0, -1.0])
    x = rng.standard_normal(3)
    assert np.allclose(mask.canonicalize(mask.canonicalize(x)), x)
