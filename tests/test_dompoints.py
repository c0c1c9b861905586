import itertools

import numpy as np
import pytest

from rareis import dompoints, gauss
from rareis.dompoints import (SolverError, _box_qp, _dedup, _solve_set,
                              inner_dominating, outer_dominating, solve_piece)
from rareis.frontier import DirectionMask, FrontierStore, insert, outer_pieces
from rareis.gauss import GaussComponent, Rect, log_densities
from rareis.tgmm import TruncatedGMM


def grid_argmax(c, lower, upper, span=6.0, stages=3, coarse=60):
    """Independent multi-stage grid search for the density maximizer on a box."""
    lo = np.where(np.isfinite(lower), lower, c.mean - span)
    hi = np.where(np.isfinite(upper), upper, c.mean + span)
    center = None
    width = hi - lo
    for _ in range(stages):
        axes = [np.linspace(l, h, coarse) for l, h in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        best = pts[np.argmax(log_densities(pts, [c])[0])]
        width = width / coarse * 4.0
        lo = np.maximum(np.where(np.isfinite(lower), lower, -np.inf), best - width)
        hi = np.minimum(np.where(np.isfinite(upper), upper, np.inf), best + width)
        center = best
    return center


class TestSolvePiece:
    def test_identity_cov_is_clamp(self):
        c = GaussComponent([0.5, -2.0, 3.0], np.eye(3))
        dp = solve_piece(c, [1.0, -np.inf, -np.inf], [np.inf, 0.0, 2.0])
        assert np.allclose(dp.point, [1.0, -2.0, 2.0], atol=1e-9)
        assert dp.kkt_residual <= 1e-6

    def test_mean_inside_piece(self):
        c = GaussComponent([0.5, 0.5], [[1.0, 0.7], [0.7, 1.0]])
        dp = solve_piece(c, [0.0, 0.0], [1.0, 1.0])
        assert np.allclose(dp.point, c.mean, atol=1e-9)
        assert dp.kkt_residual <= 1e-12

    def test_correlated_halfplane_vs_grid(self):
        c = GaussComponent([0.0, 0.0], [[1.0, 0.8], [0.8, 1.0]])
        lower, upper = np.array([1.0, -np.inf]), np.array([np.inf, np.inf])
        dp = solve_piece(c, lower, upper)
        ref = grid_argmax(c, lower, upper)
        assert np.linalg.norm(dp.point - ref) < 2e-3
        # correlation pulls the free coordinate toward the bound
        assert dp.point[0] == pytest.approx(1.0, abs=1e-9)
        assert dp.point[1] == pytest.approx(0.8, abs=1e-6)

    def test_diagonal_cov_exact_clamp(self, rng):
        for _ in range(10):
            d = rng.integers(2, 5)
            c = GaussComponent(rng.normal(0, 2, d), np.diag(rng.uniform(0.2, 3, d)))
            lo = rng.normal(0, 1, d)
            hi = lo + rng.uniform(0.5, 3, d)
            dp = solve_piece(c, lo, hi)
            assert np.allclose(dp.point, np.clip(c.mean, lo, hi), atol=1e-9)

    def test_density_dominance(self, rng):
        A = rng.standard_normal((3, 3))
        c = GaussComponent(rng.normal(0, 1, 3), A @ A.T + 0.3 * np.eye(3))
        dp = solve_piece(c, [0.5, 0.0, -np.inf], [np.inf, 3.0, 1.0])
        best = log_densities([dp.point], [c])[0, 0]
        X = np.column_stack([rng.uniform(0.5, 4, 1000),
                             rng.uniform(0.0, 3, 1000),
                             rng.uniform(-4, 1, 1000)])
        assert np.all(best >= log_densities(X, [c])[0] - 1e-9)

    def test_scale_equivariance(self, rng):
        c = GaussComponent([1.0, -0.5], [[2.0, 0.6], [0.6, 1.5]])
        lower, upper = np.array([2.0, 0.5]), np.array([np.inf, np.inf])
        dp = solve_piece(c, lower, upper)
        # solve the standardized problem and map the solution back
        scale = np.array([2.0, 0.5])
        shift = np.array([-1.0, 3.0])
        c2 = GaussComponent((c.mean - shift) / scale,
                            c.cov / np.outer(scale, scale))
        dp2 = solve_piece(c2, (lower - shift) / scale, (upper - shift) / scale)
        assert np.allclose(dp2.point * scale + shift, dp.point, atol=1e-8)

    def test_infeasible_piece(self):
        c = GaussComponent([0.0], [[1.0]])
        with pytest.raises(ValueError):
            solve_piece(c, [2.0], [1.0])

    def test_one_inverted_coordinate_is_infeasible(self):
        c = GaussComponent(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="infeasible piece"):
            solve_piece(c, [0.0, 2.0, -np.inf], [1.0, 1.5, np.inf])

    def test_wrong_length_bounds_name_both_dimensions(self):
        c = GaussComponent(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match=r"\(1,\) and \(1,\).*dimension 2"):
            solve_piece(c, [1.0], [np.inf])
        with pytest.raises(ValueError, match=r"\(2,\) and \(3,\).*dimension 2"):
            solve_piece(c, [1.0, 0.0], [np.inf, np.inf, np.inf])


def store(s1=None, s0=None, signs=None):
    """Frontier store of canonical points under the given mask (default all +1)."""
    d = np.shape(s1 if s1 is not None else s0)[1]
    return FrontierStore(DirectionMask(np.ones(d) if signs is None else signs),
                         s1, s0)


class TestDominatingSets:
    def gmm(self):
        comps = [GaussComponent([0.0, 0.0], np.eye(2)),
                 GaussComponent([1.0, 1.0], [[1.0, 0.5], [0.5, 1.0]])]
        return TruncatedGMM([0.3, 0.7], comps, Rect.unbounded(2))

    def test_empty_s1_initializes_at_means(self):
        sets = inner_dominating(self.gmm(), store(s0=[[5.0, 5.0]]))
        assert np.allclose(sets[0][0], [0.0, 0.0])
        assert np.allclose(sets[1][0], [1.0, 1.0])

    def test_empty_s0_initializes_at_means(self):
        sets = outer_dominating(self.gmm(), store(s1=[[5.0, 5.0]]))
        assert np.allclose(sets[0][0], [0.0, 0.0])
        assert np.allclose(sets[1][0], [1.0, 1.0])

    def test_empty_store_gives_one_row_arrays(self):
        # like every other set: an (n, d) array per component
        gmm = self.gmm()
        empty = FrontierStore(DirectionMask(np.ones(2)))
        for sets in (inner_dominating(gmm, empty), outer_dominating(gmm, empty)):
            assert [type(s) for s in sets] == [np.ndarray, np.ndarray]
            assert [s.tolist() for s in sets] == [[[0.0, 0.0]], [[1.0, 1.0]]]

    def test_rejects_a_store_of_another_dimension(self):
        """A 1-D store once broadcast its corners against a 3-D model's
        support, giving [[2, 2, 2]] inner and [[0.5, 0.5, 0.5]] outer."""
        gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(3), np.eye(3))],
                           Rect.unbounded(3))
        mask = DirectionMask([1.0])
        for solve, s in ((inner_dominating, FrontierStore(mask, s1=[[2.0]])),
                         (outer_dominating, FrontierStore(mask, s0=[[0.5]]))):
            with pytest.raises(ValueError, match=r"^%s: the model has dimension 3, "
                               r"the frontier store 1$" % solve.__name__):
                solve(gmm, s)

    def test_identity_cov_clamp(self):
        gmm = TruncatedGMM([1.0], [GaussComponent([0.0, 0.0], np.eye(2))],
                           Rect.unbounded(2))
        sets = inner_dominating(gmm, store(s1=[[1.0, 2.0]]))
        assert np.allclose(sets[0][0], [1.0, 2.0], atol=1e-9)

    def test_dedup_collapses_equal_optima(self):
        # both rare points clamp to the same corner of the support
        gmm = TruncatedGMM([1.0], [GaussComponent([2.0, 2.0], np.eye(2))],
                           gauss.Rect([-np.inf, -np.inf], [1.0, 1.0]))
        sets = inner_dominating(gmm, store(s1=[[0.9, 0.9], [0.95, 0.95]]))
        assert len(sets[0]) == 1

    def test_outer_piece_count_single_safe_point(self):
        # pieces {x0 >= 2}, {x1 >= 2}, {x2 >= 2}
        gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(3), np.eye(3))],
                           Rect.unbounded(3))
        sets = outer_dominating(gmm, store(s0=[[2.0, 2.0, 2.0]]))
        assert len(sets[0]) == 3

    def test_pieces_containing_mean_collapse_to_mean(self):
        # pieces {x0 >= -5}, {x1 >= -5}
        gmm = self.gmm()
        sets = outer_dominating(gmm, store(s0=[[-5.0, -5.0]]))
        for i, pts in enumerate(sets):
            assert len(pts) == 1
            assert np.allclose(pts[0], gmm.components[i].mean, atol=1e-9)

    def test_outer_solutions_match_grid(self, rng):
        # pieces {x0 >= 2}, {x1 >= 2}, {x >= (1, 1)}
        gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(2), np.eye(2))],
                           Rect.unbounded(2))
        sets = outer_dominating(gmm, store(s0=[[1.0, 2.0], [2.0, 1.0]]))
        expected = {(2.0, 0.0), (0.0, 2.0), (1.0, 1.0)}
        got = {tuple(np.round(p, 6)) for p in sets[0]}
        assert got == expected

    def test_flipped_coordinate_is_an_upper_bound(self):
        # a rare and a safe point at x = (-1, 2) under mask (-1, +1): the
        # canonical bound -x0 >= 1 reads x0 <= -1 in the model coordinates
        gmm = TruncatedGMM([1.0], [GaussComponent(np.zeros(2), np.eye(2))],
                           Rect.unbounded(2))
        mask = DirectionMask([-1.0, 1.0])
        x = np.array([[-1.0, 2.0]])
        rare = insert(FrontierStore(mask), x, np.array([1]))
        safe = insert(FrontierStore(mask), x, np.array([0]))
        inner = inner_dominating(gmm, rare)[0]
        assert len(inner) == 1 and np.allclose(inner[0], [-1.0, 2.0], atol=1e-9)
        outer = {tuple(np.round(p, 6)) for p in outer_dominating(gmm, safe)[0]}
        assert outer == {(-1.0, 0.0), (0.0, 2.0)}

    def test_dedup_idempotent(self, rng):
        pts = rng.standard_normal((10, 2))

        def lexsorted(rows):
            return rows[np.lexsort(rows.T[::-1])]
        once = _dedup(lexsorted(np.vstack([pts, pts[0]])))
        twice = _dedup(once)
        assert len(once) == len(twice) == 10
        # only exact duplicates go: a row 1e-9 away stays
        assert len(_dedup(lexsorted(np.vstack([pts, pts[0] + 1e-9])))) == 11


@pytest.mark.parametrize("seed", range(10))
def test_randomized_correlated_cases_match_grid(seed):
    rng = np.random.default_rng(1000 + seed)
    d = int(rng.integers(2, 4))
    A = rng.standard_normal((d, d))
    c = GaussComponent(rng.normal(0, 1, d), A @ A.T + 0.4 * np.eye(d))
    lo = np.where(rng.random(d) < 0.7, rng.normal(0.5, 1, d), -np.inf)
    base = np.where(np.isfinite(lo), lo, rng.normal(0.5, 1, d))
    hi = np.where(rng.random(d) < 0.4, base + rng.uniform(1, 3, d), np.inf)
    dp = solve_piece(c, lo, hi)
    ref = grid_argmax(c, lo, hi)
    assert np.linalg.norm(dp.point - ref) < 2e-3
    assert dp.kkt_residual <= 1e-6


def face_oracle(c, lower, upper):
    """Exact box-QP optimum: the best feasible optimum over all 3^d faces.

    On each face every coordinate is free, at its lower or at its upper
    bound; the free ones solve the equality-constrained problem.  The
    objective is strictly convex, so its optimum is the face optimum of
    least objective that lies in the box.
    """
    d = c.dim
    H = np.linalg.inv(c.cov)
    best, best_val = None, np.inf
    for face in itertools.product((0, 1, 2), repeat=d):
        face = np.array(face)
        if (np.any(~np.isfinite(lower[face == 1]))
                or np.any(~np.isfinite(upper[face == 2]))):
            continue
        x = np.where(face == 1, lower, np.where(face == 2, upper, 0.0))
        f, k = np.flatnonzero(face == 0), np.flatnonzero(face != 0)
        x[f] = c.mean[f] - np.linalg.solve(H[np.ix_(f, f)],
                                           H[np.ix_(f, k)] @ (x[k] - c.mean[k]))
        if np.any(x < lower - 1e-12) or np.any(x > upper + 1e-12):
            continue
        val = 0.5 * (x - c.mean) @ H @ (x - c.mean)
        if val < best_val:
            best, best_val = x, val
    return best


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_matches_exact_face_enumeration(d):
    # 5 boxes per component, 8 components up to d = 4 and 3 from d = 5 on,
    # where the oracle visits 243 and 729 faces per box
    rng = np.random.default_rng(2000 + d)
    for comp in range(8 if d <= 4 else 3):
        A = rng.standard_normal((d, d))
        c = GaussComponent(rng.normal(0, 1, d), A @ A.T + 0.2 * np.eye(d))
        lows, highs = [], []
        for case in range(5 * comp, 5 * comp + 5):
            lo = rng.normal(0.3, 1, d)
            hi = lo + rng.uniform(0.2, 2, d)
            # 0 finite, 1 no lower, 2 no upper, 3 lo == hi; from d = 2 on
            # every box has an infinite bound and an equal pair
            kind = rng.integers(0, 4, d) if d > 1 else np.array([case % 4])
            if d > 1:
                i, j = rng.permutation(d)[:2]
                kind[i], kind[j] = rng.integers(1, 3), 3
            lows.append(np.where(kind == 1, -np.inf, lo))
            highs.append(np.where(kind == 2, np.inf, np.where(kind == 3, lo, hi)))
        lows, highs = np.array(lows), np.array(highs)
        stacked = _box_qp(c.precision, c.mean, lows, highs)
        for r in range(5):
            dp = solve_piece(c, lows[r], highs[r])
            ref = face_oracle(c, lows[r], highs[r])
            assert np.max(np.abs(dp.point - ref)) <= 1e-10, (d, comp, r)
            assert np.max(np.abs(stacked[r] - ref)) <= 1e-10, (d, comp, r)
            assert dp.kkt_residual <= 1e-9, (d, comp, r)


def loop_box_qp(H, mu, lower, upper):
    """Reference: the one-box active-set loop that _box_qp runs in lockstep."""
    d = mu.size
    x = np.clip(mu, lower, upper)
    at_lo, at_hi = x <= lower, x >= upper
    tol = 1e-12
    for _ in range(10 * d * d + 10):
        free = ~(at_lo | at_hi)
        f = np.flatnonzero(free)
        if f.size:
            c = np.flatnonzero(~free)
            rhs = -H[np.ix_(f, c)] @ (x[c] - mu[c]) if c.size else np.zeros(f.size)
            step = mu[f] + np.linalg.solve(H[np.ix_(f, f)], rhs) - x[f]
            up = step > 0
            bound = np.where(up, upper[f], lower[f])
            hits = np.where(up, step > tol, step < -tol) & np.isfinite(bound)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(hits, (bound - x[f]) / step, np.inf)
            k = np.argmin(ratio)
            x[f] = x[f] + min(ratio[k], 1.0) * step
            if ratio[k] < 1.0:
                j = f[k]
                x[j] = upper[j] if up[k] else lower[j]
                (at_hi if up[k] else at_lo)[j] = True
                continue
        g = H @ (x - mu)
        signed = np.concatenate([np.where(at_lo, g, np.inf),
                                 np.where(at_hi, -g, np.inf)])
        k = np.argmin(signed)
        if signed[k] >= -tol:
            return np.clip(x, lower, upper)
        at_lo[k % d] = at_hi[k % d] = False
    raise AssertionError("reference loop did not converge")


def loop_solve_set(gmm, corners, mask):
    """Reference: one loop_box_qp per (component, kept piece), sorted and deduplicated."""
    lower, upper, nonempty = mask.boxes(corners, gmm.support)
    sets = []
    for c in gmm.components:
        pts = sorted((loop_box_qp(c.precision, c.mean, lower[k], upper[k])
                      for k in np.flatnonzero(nonempty)), key=tuple)
        kept = []
        for p in pts:
            if not any(np.array_equal(p, q) for q in kept):
                kept.append(p)
        sets.append(kept)
    return sets


def random_boxes(rng, d, m):
    lo = rng.normal(0.3, 1, (m, d))
    hi = lo + rng.uniform(0.2, 2, (m, d))
    kind = rng.integers(0, 5, (m, d))  # 0 and 4 finite, 1 no lower, 2 no upper, 3 lo == hi
    return (np.where(kind == 1, -np.inf, lo),
            np.where(kind == 2, np.inf, np.where(kind == 3, lo, hi)))


class TestLockstepKernel:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_rows_match_the_loop_reference(self, d):
        rng = np.random.default_rng(3000 + d)
        for _ in range(4):
            A = rng.standard_normal((d, d))
            c = GaussComponent(rng.normal(0, 1, d), A @ A.T + 0.2 * np.eye(d))
            lo, hi = random_boxes(rng, d, 50)
            x = _box_qp(c.precision, c.mean, lo, hi)
            for r in range(50):
                ref = loop_box_qp(c.precision, c.mean, lo[r], hi[r])
                np.testing.assert_allclose(x[r], ref, rtol=0, atol=1e-12)

    def test_identity_precision_matches_the_loop_bit_for_bit(self, rng):
        c = GaussComponent(rng.normal(0, 1, 3), np.eye(3))
        lo, hi = random_boxes(rng, 3, 200)
        x = _box_qp(c.precision, c.mean, lo, hi)
        for r in range(200):
            np.testing.assert_array_equal(
                x[r], loop_box_qp(c.precision, c.mean, lo[r], hi[r]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_batch_invariant(self, d, monkeypatch):
        rng = np.random.default_rng(4000 + d)
        A = rng.standard_normal((d, d))
        c = GaussComponent(rng.normal(0, 1, d), A @ A.T + 0.2 * np.eye(d))
        H, mu = c.precision, c.mean
        lo, hi = random_boxes(rng, d, 120)
        lo[0], hi[0] = mu - 1.0, mu + 1.0  # the mean inside: retires at once
        sizes = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: sizes.append(len(a)) or solve(a, b))
        x = _box_qp(H, mu, lo, hi)
        monkeypatch.undo()
        # rows retire at different iterations: the stack shrinks more than once
        assert sizes[0] == 120 and len(set(sizes)) > 2
        rev = _box_qp(H, mu, lo[::-1].copy(), hi[::-1].copy())[::-1]
        np.testing.assert_array_equal(rev, x)
        for r in range(120):
            np.testing.assert_array_equal(
                _box_qp(H, mu, lo[r:r + 1], hi[r:r + 1])[0], x[r])

    def test_empty_stack(self):
        c = GaussComponent(np.zeros(2), np.eye(2))
        assert _box_qp(c.precision, c.mean, np.empty((0, 2)),
                       np.empty((0, 2))).shape == (0, 2)


def test_solve_set_matches_the_per_piece_loop():
    # two correlated components, mask (-1, +1, +1), and a support that
    # drops the pieces starting above x1 = 1.5: one corner and two rare points
    comps = [GaussComponent([0.2, -0.3, 0.5], [[1.0, 0.6, -0.3], [0.6, 1.5, 0.4],
                                               [-0.3, 0.4, 0.8]]),
             GaussComponent([-1.0, 0.8, 0.0], [[0.7, -0.2, 0.1], [-0.2, 0.9, 0.5],
                                                [0.1, 0.5, 1.2]])]
    support = Rect([-np.inf, -np.inf, -2.0], [np.inf, 1.5, np.inf])
    gmm = TruncatedGMM([0.4, 0.6], comps, support)
    mask = DirectionMask([-1.0, 1.0, 1.0])
    rng = np.random.default_rng(11)
    X = rng.normal(0, 1.5, (30, 3))
    hits = (mask.canonicalize(X) @ np.array([1.0, 0.7, 0.5]) > 2.0).astype(int)
    s = insert(FrontierStore(mask), X, hits)
    corners, _ = outer_pieces(s)
    dropped = 0
    for cs in (s.s1, corners):
        _, _, nonempty = mask.boxes(cs, support)
        dropped += np.sum(~nonempty)
        got = _solve_set(gmm, cs, mask, "test")
        want = loop_solve_set(gmm, cs, mask)
        for g, w in zip(got, want):
            assert g.shape == (len(w), 3)
            np.testing.assert_allclose(g, np.array(w), rtol=0, atol=1e-12)
    assert dropped == 3
    # some pieces share their optimum: the sets are smaller than the corners
    assert len(_solve_set(gmm, corners, mask, "test")[0]) < len(corners) - 1


class TestKKTFailure:
    def gmm(self):
        comps = [GaussComponent([0.0, 0.0], np.eye(2)),
                 GaussComponent([1.0, -1.0], [[1.0, 0.5], [0.5, 1.0]])]
        return TruncatedGMM([0.5, 0.5], comps, Rect.unbounded(2))

    def test_names_the_failing_component_and_corner(self, monkeypatch):
        gmm = self.gmm()
        kernel = dompoints._box_qp

        def off_by_one_on_row_1(H, mu, lower, upper):
            x = kernel(H, mu, lower, upper)
            if np.array_equal(mu, gmm.components[1].mean):
                x[1] += 1.0
            return x
        monkeypatch.setattr(dompoints, "_box_qp", off_by_one_on_row_1)
        s1 = [[1.0, 2.0], [2.0, 0.5], [3.0, -1.0]]
        with pytest.raises(SolverError, match=r"^inner_dominating: component 1, "
                           r"corner \[2\.0, 0\.5\]: KKT residual .* exceeds 1e-6"):
            inner_dominating(gmm, store(s1=s1))

    def test_solve_piece_names_the_residual(self, monkeypatch):
        """A _box_qp whose answer is off by one in every coordinate: (2, 1)
        where the optimum on {x0 >= 1} is (1, 0), with gradient (2, 1)."""
        kernel = dompoints._box_qp
        monkeypatch.setattr(dompoints, "_box_qp",
                            lambda H, mu, lo, up: kernel(H, mu, lo, up) + 1.0)
        with pytest.raises(SolverError, match=r"^KKT residual 2 exceeds 1e-6$"):
            solve_piece(GaussComponent(np.zeros(2), np.eye(2)), [1.0, -np.inf],
                        [np.inf, np.inf])
