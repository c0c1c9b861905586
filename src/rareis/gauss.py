"""Dense multivariate Gaussian primitives.

Densities, sampling, rectangle probabilities and first/second moments of
rectangle-truncated Gaussians.  Everything here is deterministic given its
inputs; sampling routines take an explicit numpy Generator.

Rectangle probabilities by dimension: d = 1 and d = 2 are exact to rounding
(the bivariate normal of Genz 2004); d = 3 integrates the exact conditional
bivariate over one coordinate with 64-point Gauss-Legendre panels; d >= 4
uses quasi-random integration with a fixed point count.  Truncated moments
follow the Manjunath-Wilhelm (2012) recursion, whose lower-dimensional terms
go through the same rules.
"""

import numpy as np
from scipy.special import ndtr, ndtri

_LOG_2PI = np.log(2.0 * np.pi)

# Fixed point count for the quasi-random rectangle probabilities (d >= 4).
# Seedless and reproducible; accuracy degrades toward d = 10.
QMC_POINTS = 2 ** 14

MAX_RECT_DIM = 10


class DegenerateTruncationError(RuntimeError):
    """Raised when a truncation region carries (numerically) no mass."""


class Rect:
    """Axis-aligned hyper-rectangle with possibly infinite bounds."""

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-d vectors of equal length")
        if not np.all(lower < upper):
            raise ValueError("require lower[i] < upper[i] for all i")
        self.lower = lower
        self.upper = upper

    @property
    def dim(self):
        return self.lower.size

    def is_unbounded(self):
        return bool(np.all(np.isneginf(self.lower)) and np.all(np.isposinf(self.upper)))

    def contains(self, x):
        """Pointwise membership; x may be a vector or an (n, d) matrix."""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lower) & (x <= self.upper), axis=-1)

    @classmethod
    def unbounded(cls, d):
        return cls(np.full(d, -np.inf), np.full(d, np.inf))

    def __repr__(self):
        return "Rect(lower=%s, upper=%s)" % (self.lower.tolist(), self.upper.tolist())


class GaussComponent:
    """A single Gaussian N(mean, cov) with a cached Cholesky factor.

    The covariance is symmetrized before factorization; EM updates can
    accumulate small asymmetries.
    """

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must be a d-vector and cov a d x d matrix")
        sym_err = np.abs(cov - cov.T).max()
        scale = max(np.abs(cov).max(), 1.0)
        if sym_err > 1e-12 * scale * 1e4:
            raise ValueError("covariance is not symmetric (max asymmetry %.3g)" % sym_err)
        cov = 0.5 * (cov + cov.T)
        self.mean = mean
        self.cov = cov
        self.chol = np.linalg.cholesky(cov)

    @property
    def dim(self):
        return self.mean.size

    def log_det_cov(self):
        return 2.0 * np.sum(np.log(np.diag(self.chol)))


def log_density(x, c):
    """Log density of N(mean, cov) at x (vector) or each row of x (matrix).

    Uses the Cholesky factor; never forms the covariance inverse.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if x.shape[-1] != c.dim:
        raise ValueError("dimension mismatch: x has %d coordinates, component has %d"
                         % (x.shape[-1], c.dim))
    dev = np.atleast_2d(x) - c.mean
    w = _solve_lower(c.chol, dev.T)
    quad = np.sum(w * w, axis=0)
    out = -0.5 * (c.dim * _LOG_2PI + c.log_det_cov() + quad)
    return float(out[0]) if single else out


def _solve_lower(L, b):
    from scipy.linalg import solve_triangular
    return solve_triangular(L, b, lower=True, check_finite=False)


def sample(n, c, rng):
    """n i.i.d. draws from N(mean, cov) via mean + chol @ z."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = rng.standard_normal((n, c.dim))
    return c.mean + z @ c.chol.T


_sobol_cache = {}


def _sobol_points(d, n):
    key = (d, n)
    if key not in _sobol_cache:
        from scipy.stats import qmc  # only d >= 4 needs it; slow to import
        eng = qmc.Sobol(d, scramble=False)
        pts = eng.random(n)
        # nudge off exact 0 so inverse-CDF stays finite
        _sobol_cache[key] = np.clip(pts, 1e-12, 1 - 1e-12)
    return _sobol_cache[key]


def _qmc_rect_prob(cov, a, b, n_points=QMC_POINTS):
    """P(a <= Y <= b) for Y ~ N(0, cov), sequential-conditioning QMC (d >= 4)."""
    d = a.size
    L = np.linalg.cholesky(0.5 * (cov + cov.T))
    lo0 = ndtr(a[0] / L[0, 0])
    hi0 = ndtr(b[0] / L[0, 0])
    w = _sobol_points(d - 1, n_points)
    n = n_points
    f = np.full(n, hi0 - lo0)
    lo = np.full(n, lo0)
    hi = np.full(n, hi0)
    y = np.empty((n, d - 1))
    for i in range(1, d):
        u = lo + w[:, i - 1] * (hi - lo)
        y[:, i - 1] = ndtri(np.clip(u, 1e-15, 1 - 1e-15))
        shift = y[:, :i] @ L[i, :i]
        lo = ndtr((a[i] - shift) / L[i, i])
        hi = ndtr((b[i] - shift) / L[i, i])
        f *= hi - lo
    return float(np.mean(f))


_GL20 = np.polynomial.legendre.leggauss(20)
_GL20_AT = (_GL20[0] + 1) / 2         # the 20 nodes mapped to [0, 1]
_GL64 = np.polynomial.legendre.leggauss(64)
# The trivariate rule integrates its conditioning coordinate over +-9 sd.
_CLIP = 9.0


def _interval_probs(a, b):
    """P(a <= Z <= b) for standard normal Z, differenced in the thinner tail."""
    with np.errstate(invalid="ignore"):  # -inf + inf: not flipped
        upper = a + b > 0
    return np.where(upper, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))


def _bvnu(h, k, r):
    """P(X > h, Y > k) for standard normals with correlation r.

    h, k and r are (g, m) arrays, and |r| must be the same along each row:
    the node terms that depend on |r| alone are computed once per row.
    Genz (2004, Stat. Comput. 14:251): the Drezner-Wesolowsky integral over
    asin(r) for |r| < 0.925, otherwise the near-singular expansion around
    |r| = 1; both with a 20-point Gauss-Legendre rule.
    """
    fin = np.isfinite(h) & np.isfinite(k)
    h0 = np.where(fin, h, 0.0)
    k0 = np.where(fin, k, 0.0)
    neg = r < 0
    absr = np.minimum(np.abs(r[:, 0]), 1.0)
    w = _GL20[1]
    out = np.empty(h.shape)
    mid = absr < 0.925
    if mid.any():
        h1, k1 = h0[mid], k0[mid]
        asr = np.arcsin(absr[mid])[:, None]
        sn = np.sin(asr * _GL20_AT)[:, None, :]
        q = 1 / (1 - sn * sn)
        hk = np.where(neg[mid], -h1 * k1, h1 * k1)[..., None]
        hs = ((h1 * h1 + k1 * k1) / 2)[..., None]
        f = np.exp((hk * sn - hs) * q) @ w * asr / (4 * np.pi)
        out[mid] = np.where(neg[mid], -f, f) + ndtr(-h1) * ndtr(-k1)
    near = ~mid
    if near.any():
        h1, neg1 = h0[near], neg[near]
        k1 = np.where(neg1, -k0[near], k0[near])
        s2 = ((1 - absr[near]) * (1 + absr[near]))[:, None]
        sing = s2 <= 0
        s2 = np.where(sing, 1.0, s2)
        a = np.sqrt(s2)
        hk = h1 * k1
        bs = (h1 - k1) ** 2
        c = (4 - hk) / 8
        d = (12 - hk) / 16
        bvn = a * np.exp(-(bs / s2 + hk) / 2) * (
            1 - c * (bs - s2) * (1 - d * bs / 5) / 3 + c * d * s2 * s2 / 5)
        b = np.sqrt(bs)
        with np.errstate(over="ignore", invalid="ignore"):
            tail = (np.exp(-hk / 2) * np.sqrt(2 * np.pi) * ndtr(-b / a) * b
                    * (1 - c * bs * (1 - d * bs / 5) / 3))
        bvn -= np.where(hk > -100, tail, 0.0)
        xs = ((a * _GL20_AT) ** 2)[:, None, :]
        rs = np.sqrt(1 - xs)
        hk, bs, c, d = hk[..., None], bs[..., None], c[..., None], d[..., None]
        ep = np.exp(-hk * xs / (2 * (1 + rs) ** 2)) / rs
        sp = 1 + c * xs * (1 + d * xs)
        bvn += a / 2 * ((np.exp(-(bs / xs + hk) / 2) * (ep - sp)) @ w)
        bvn = np.where(sing, 0.0, -bvn / (2 * np.pi))
        lower = np.where(h1 < 0, ndtr(k1) - ndtr(h1), ndtr(-h1) - ndtr(-k1))
        out[near] = np.where(neg1, np.maximum(lower, 0.0) - bvn,
                             bvn + ndtr(-np.maximum(h1, k1)))
    if not fin.all():
        out = np.where(fin, out, np.where(h == -np.inf, ndtr(-k),
                                          np.where(k == -np.inf, ndtr(-h), 0.0)))
    return out


def _rect_probs2(a, b, r):
    """P(a <= Z <= b) for standard bivariate normals Z with correlations r.

    a and b are (g, m, 2), r is (g,): m rectangles per correlation.  Each
    coordinate is reflected, if need be, so that its interval's midpoint is
    >= 0; the four upper-orthant corner terms then stay as small as the
    rectangle allows and inclusion-exclusion keeps its relative accuracy far
    in the tail.
    """
    with np.errstate(invalid="ignore"):  # -inf + inf: not flipped
        flip = a + b < 0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    r = np.where(flip[..., 0] ^ flip[..., 1], -r[:, None], r[:, None])
    g, m = r.shape
    h = np.stack([lo[..., 0], lo[..., 0], hi[..., 0], hi[..., 0]], 1)
    k = np.stack([lo[..., 1], hi[..., 1], lo[..., 1], hi[..., 1]], 1)
    u = _bvnu(h.reshape(g, -1), k.reshape(g, -1), np.tile(r, 4)).reshape(g, 4, m)
    return np.clip(u[:, 0] - u[:, 1] - u[:, 2] + u[:, 3], 0.0, 1.0)


# Row j: coordinate j first, then the other two.
_FIRST = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])
# A 64-point Gauss-Legendre panel integrates a smoothed step to 1e-14 relative
# while the panel spans up to 30 step widths; panels span at most 20.
_PANEL_WIDTHS = 20.0
_MAX_PANELS = 64


def _rect_probs3(cov, a, b):
    """Trivariate rectangle probabilities, (n, 3, 3) covariances.

    Conditions on one coordinate Z_0 and integrates its density times the
    exact conditional bivariate rectangle with 64-point Gauss-Legendre
    panels over its range, clipped to +-9 sd.  As Z_0 moves, the conditional
    rectangle's edges and its corner ridge (sharp when the conditional
    correlation is near +-1) sweep past at known rates; the panel count keeps
    every such feature at least 1/20 of a panel wide, and Z_0 is the
    coordinate that needs the fewest panels (one, for most covariances; none
    when its clipped range is empty and the probability is 0).
    """
    n = a.shape[0]
    s = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    R = cov / (s[:, :, None] * s[:, None, :])
    # every quantity below has a leading (n, 3) shape: rectangle, choice of Z_0
    R = R[:, _FIRST[:, :, None], _FIRST[:, None, :]]
    A, B = (a / s)[:, _FIRST], (b / s)[:, _FIRST]
    beta = R[..., 0, 1:]                      # E[Z_r | Z_0 = x] = beta_r x
    sd = np.sqrt(1 - beta * beta)
    rc = (R[..., 1, 2] - beta[..., 0] * beta[..., 1]) / (sd[..., 0] * sd[..., 1])
    lo = np.maximum(A[..., 0], -_CLIP)
    hi = np.minimum(B[..., 0], _CLIP)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = beta / sd                          # bound drift per unit x, in sd
        ridge = (np.sqrt(2 * (1 - np.abs(rc)))
                 / np.abs(v[..., 0] - np.sign(rc) * v[..., 1]))
        # fmin: a 0/0 ridge (no drift across it) sets no width
        width = np.fmin(np.fmin(1.0, ridge), 1 / np.abs(v).max(axis=-1))
    panels = np.where(lo < hi, np.clip(np.ceil((hi - lo) / (_PANEL_WIDTHS * width)),
                                       1, _MAX_PANELS), 0).astype(int)
    rows = np.arange(n)
    j = np.argmin(panels, axis=1)
    panels, lo, hi = panels[rows, j], lo[rows, j], hi[rows, j]
    A, B, beta, sd, rc = A[rows, j], B[rows, j], beta[rows, j], sd[rows, j], rc[rows, j]

    rect = np.repeat(rows, panels)
    if not rect.size:
        return np.zeros(n)
    step = (hi - lo) / np.maximum(panels, 1)
    first = np.repeat(np.cumsum(panels) - panels, panels)
    start = lo[rect] + (np.arange(rect.size) - first) * step[rect]
    t, w = _GL64
    x = start[:, None] + (step[rect, None] / 2) * (t + 1)        # (panels, 64)
    bx = beta[rect, None, :] * x[:, :, None]
    ca = (A[rect, None, 1:] - bx) / sd[rect, None, :]            # (panels, 64, 2)
    cb = (B[rect, None, 1:] - bx) / sd[rect, None, :]
    p2 = _rect_probs2(ca, cb, rc[rect])
    dens = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    return np.bincount(rect, step[rect] / 2 * ((dens * p2) @ w), minlength=n)


def _rect_probs(cov, a, b):
    """P(a_i <= Y_i <= b_i) for Y_i ~ N(0, cov_i): (n, d, d), (n, d) -> (n,).

    Exact at d <= 2, 64-point Gauss-Legendre over an exact bivariate at
    d = 3, quasi-random integration at d >= 4.
    """
    n, d = a.shape
    if d == 0:
        return np.ones(n)
    s = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    if d == 1:
        return _interval_probs(a[:, 0] / s[:, 0], b[:, 0] / s[:, 0])
    if d == 2:
        return _rect_probs2((a / s)[:, None], (b / s)[:, None],
                            cov[:, 0, 1] / (s[:, 0] * s[:, 1]))[:, 0]
    if d == 3:
        return _rect_probs3(cov, a, b)
    return np.array([_qmc_rect_prob(*args) for args in zip(cov, a, b)])


def _rect_prob_zero(cov, a, b):
    """P(a <= Y <= b) for Y ~ N(0, cov)."""
    return float(_rect_probs(cov[None], a[None], b[None])[0])


def rect_prob(c, r):
    """P(lower <= X <= upper) for X ~ N(mean, cov).

    Deterministic. d = 1 and d = 2 are exact to rounding (the bivariate
    normal of Genz 2004, corner terms taken in the thinner tail); d = 3
    integrates the exact conditional bivariate over one coordinate, clipped
    to +-9 sd, with 64-point Gauss-Legendre panels (one panel unless the
    conditional correlations are near +-1); against adaptive quadrature the
    relative error stays below 1e-7 wherever p >= 1e-10 at d <= 3.  d >= 4
    uses quasi-random integration with a fixed point count, whose accuracy
    degrades toward d = 10 (documented limit).  Returns exactly 1.0 for an
    unbounded rectangle.
    """
    if r.dim != c.dim:
        raise ValueError("rectangle and component dimension mismatch")
    if c.dim > MAX_RECT_DIM:
        raise ValueError("rect_prob supports d <= %d" % MAX_RECT_DIM)
    if r.is_unbounded():
        return 1.0
    p = _rect_prob_zero(c.cov, r.lower - c.mean, r.upper - c.mean)
    if p < 1e-300:
        raise DegenerateTruncationError(
            "rectangle probability underflow: numerically zero region")
    return min(p, 1.0)


def _pinned_densities(cov, a, b, pins, vals):
    """Density of Y[pins] at vals times P(the other coordinates in [a, b] | it).

    Y ~ N(0, cov); pins is an (m, p) array of coordinate indices and vals the
    (m, p) values they are pinned at.  A row with an infinite value is 0.
    All m conditional rectangles go to one _rect_probs call.
    """
    m, p = pins.shape
    out = np.zeros(m)
    ok = np.all(np.isfinite(vals), axis=1)
    if not ok.any():
        return out
    pins, vals = pins[ok], vals[ok]
    free = np.ones((pins.shape[0], a.size), dtype=bool)
    free[np.arange(pins.shape[0])[:, None], pins] = False
    rest = np.nonzero(free)[1].reshape(pins.shape[0], -1)
    s_pp = cov[pins[:, :, None], pins[:, None, :]]
    s_rp = cov[rest[:, :, None], pins[:, None, :]]
    g = np.linalg.solve(s_pp, np.concatenate([vals[:, :, None],
                                              s_rp.transpose(0, 2, 1)], axis=2))
    quad = np.sum(vals * g[:, :, 0], axis=1)
    dens = np.exp(-0.5 * quad) / np.sqrt((2 * np.pi) ** p * np.linalg.det(s_pp))
    live = dens > 0
    if rest.shape[1] and live.any():
        rest, s_rp, g = rest[live], s_rp[live], g[live]
        cmean = np.einsum("mrp,mp->mr", s_rp, g[:, :, 0])
        ccov = cov[rest[:, :, None], rest[:, None, :]] - s_rp @ g[:, :, 1:]
        dens[live] *= np.maximum(_rect_probs(ccov, a[rest] - cmean,
                                             b[rest] - cmean), 0.0)
    out[ok] = dens
    return out


def _xF(x, F):
    # x * F with the convention inf * 0 = 0 (F decays faster than x grows)
    return np.where(F == 0.0, 0.0, np.where(np.isfinite(x), x, 0.0) * F)


def _trunc_moments_zero(cov, a, b, mass=None):
    """First and raw second moment of N(0, cov) truncated to [a, b].

    The Manjunath-Wilhelm (2012) recursion: one batch of 2d edge terms (one
    coordinate pinned at a bound) and one of d(d-1)/2 x 4 pair terms.
    mass, when given, is the probability of [a, b].
    """
    d = a.size
    alpha = _rect_prob_zero(cov, a, b) if mass is None else mass
    if alpha < 1e-12:
        raise DegenerateTruncationError(
            "truncation mass %.3g below 1e-12; moments unreliable" % alpha)
    coord = np.arange(d)
    F = _pinned_densities(cov, a, b, np.tile(coord, 2)[:, None],
                          np.concatenate([a, b])[:, None])
    Fa, Fb = F[:d], F[d:]
    m1 = cov @ (Fa - Fb) / alpha

    k, q = np.triu_indices(d, 1)
    corners = np.concatenate([np.column_stack([xk, xq]) for xk, xq in
                              ((a[k], a[q]), (a[k], b[q]), (b[k], a[q]), (b[k], b[q]))])
    F2 = _pinned_densities(cov, a, b, np.tile(np.column_stack([k, q]), (4, 1)),
                           corners).reshape(4, k.size)
    D2 = np.zeros((d, d))
    D2[k, q] = D2[q, k] = F2[0] - F2[1] - F2[2] + F2[3]
    edge = _xF(a, Fa) - _xF(b, Fb)
    T = cov / np.diag(cov) * (edge - np.sum(cov * D2, axis=1)) + cov @ D2
    m2 = cov + cov @ T.T / alpha
    m2 = 0.5 * (m2 + m2.T)
    return m1, m2


def _trunc_moments_1d(var, a, b):
    s = np.sqrt(var)
    za, zb = a / s, b / s
    alpha = float(_interval_probs(za, zb))
    if alpha < 1e-12:
        raise DegenerateTruncationError("1-d truncation mass %.3g below 1e-12" % alpha)
    pa = 0.0 if not np.isfinite(za) else np.exp(-0.5 * za * za) / np.sqrt(2 * np.pi)
    pb = 0.0 if not np.isfinite(zb) else np.exp(-0.5 * zb * zb) / np.sqrt(2 * np.pi)
    m1 = s * (pa - pb) / alpha
    edge = (0.0 if pa == 0.0 else za * pa) - (0.0 if pb == 0.0 else zb * pb)
    m2 = var * (1.0 + edge / alpha)
    return np.array([m1]), np.array([[m2]])


def trunc_moments(c, r, mass=None):
    """First moment and raw second moment of N(mean, cov) truncated to r.

    Computed through the standard recursion expressing truncated-normal
    moments via lower-dimensional rectangle probabilities; closed form at
    d = 1.  mass, when given, must be rect_prob(c, r); it spares that
    integral.  Raises DegenerateTruncationError when the truncation mass is
    below 1e-12.
    """
    if r.dim != c.dim:
        raise ValueError("rectangle and component dimension mismatch")
    if r.is_unbounded():
        return c.mean.copy(), c.cov + np.outer(c.mean, c.mean)
    a = r.lower - c.mean
    b = r.upper - c.mean
    if c.dim == 1:
        m1z, m2z = _trunc_moments_1d(c.cov[0, 0], a[0], b[0])
    else:
        m1z, m2z = _trunc_moments_zero(c.cov, a, b, mass)
    m1 = c.mean + m1z
    m2 = m2z + np.outer(c.mean, m1z) + np.outer(m1z, c.mean) + np.outer(c.mean, c.mean)
    return m1, m2


def sample_truncated(n, c, r, rng, max_batches=10000):
    """Rejection sampling of N(mean, cov) conditioned on the rectangle.

    Plain rejection; viable only while the acceptance probability stays
    above ~1e-8.  Callers with thinner regions must reparameterize.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if r.is_unbounded():
        return sample(n, c, rng)
    p = rect_prob(c, r)
    if p < 1e-8:
        raise DegenerateTruncationError(
            "acceptance rate estimate %.3g below 1e-8: degenerate truncation; "
            "reparameterize instead of rejection sampling" % p)
    out = np.empty((n, c.dim))
    filled = 0
    batch = max(int(1.5 * n / p), n)
    batch = min(batch, 10_000_000)
    for _ in range(max_batches):
        cand = sample(batch, c, rng)
        keep = cand[r.contains(cand)]
        take = min(n - filled, keep.shape[0])
        out[filled:filled + take] = keep[:take]
        filled += take
        if filled == n:
            return out
    raise DegenerateTruncationError("rejection sampling failed to fill %d draws" % n)
