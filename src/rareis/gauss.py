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

rect_prob and trunc_moments are batch-only: each takes a sequence of K
components and one rectangle and returns per-component arrays, computing
all K with one integral batch per kind of term.  Their results are batch
invariant: a component's value is bit for bit the one a call with that
component alone returns.  So contractions over quadrature nodes are
einsum, not a BLAS matrix-vector product, whose rounding of one row can
depend on how many rows it is given.

log_densities is the one log-density kernel: n rows against K components.
Components that share a Cholesky factor (an IS proposal's parts all keep
their base component's covariance) form one group, which whitens the rows
and its means once with the inverse factor; the (K, n) squared distances
then follow one coordinate at a time.  Every step is an elementwise
product or sum in a fixed order, so row i's values are bit for bit those
of a call with row i alone, and rows go in fixed blocks at no cost in
accuracy.

No function here consumes its arguments.  sample and sample_truncated
write their draws into the caller's out array when one is given, and the
kernels work in place only on arrays they allocate themselves.
"""

import copy
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtrtri
from scipy.special import ndtr, ndtri

_LOG_2PI = np.log(2.0 * np.pi)

# Fixed point count for the quasi-random rectangle probabilities (d >= 4).
# Seedless and reproducible; accuracy degrades toward d = 10.
QMC_POINTS = 2 ** 14

MAX_RECT_DIM = 10


class DegenerateTruncationError(RuntimeError):
    """Raised when a truncation region carries (numerically) no mass."""
    component = None  # index of the component the message names, if any


def _rows(X, d):
    """X as an (n, d) float array; raises ValueError naming any other shape."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError("want (n, %d) rows; got shape %s" % (d, X.shape))
    return X


def _floats(value, name):
    """value as a float array.  Raises ValueError naming name if value, or
    an item of its nested lists, is a bool or a string, which np.asarray
    would read as a number, or an int beyond the float range."""
    items = [value]
    while items:
        v = items.pop()
        if isinstance(v, (list, tuple)):
            items.extend(v)
        elif isinstance(v, (bool, np.bool_, str)):
            raise ValueError("%s must hold numbers, not %s"
                             % (name, type(v).__name__))
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError("%s holds an integer too large for a float" % name) from None


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
        self._unbounded = bool(np.all(np.isneginf(lower)) and np.all(np.isposinf(upper)))

    @property
    def dim(self):
        return self.lower.size

    def is_unbounded(self):
        return self._unbounded

    def contains(self, x):
        """(n,) membership of the (n, d) rows x.

        Compares one column at a time, with no (n, d) temporaries; a NaN
        coordinate is outside, whatever the bounds.
        """
        cols = _rows(x, self.dim).T
        ok = cols[0] >= self.lower[0]
        ok &= cols[0] <= self.upper[0]
        for j in range(1, self.dim):
            ok &= cols[j] >= self.lower[j]
            ok &= cols[j] <= self.upper[j]
        return ok

    @classmethod
    def unbounded(cls, d):
        return cls(np.full(d, -np.inf), np.full(d, np.inf))

    def __repr__(self):
        return "Rect(lower=%s, upper=%s)" % (self.lower.tolist(), self.upper.tolist())


class GaussComponent:
    """A single Gaussian N(mean, cov) with a cached Cholesky factor.

    The covariance is symmetrized before factorization; EM updates can
    accumulate small asymmetries.  The precision matrix (the symmetrized
    inverse covariance) is computed on first use and cached.
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

    @classmethod
    def factored(cls, mean, cov, chol):
        """N(mean, cov) for a symmetric float cov whose lower Cholesky factor
        chol the caller has already taken: no checks, no factorization."""
        c = cls.__new__(cls)
        c.mean, c.cov, c.chol = mean, cov, chol
        return c

    @property
    def dim(self):
        return self.mean.size

    def moved_to(self, mean):
        """N(mean, cov): shares this component's covariance and factors."""
        mean = np.asarray(mean, dtype=float)
        if mean.shape != self.mean.shape:
            raise ValueError("mean must be a %d-vector" % self.dim)
        moved = copy.copy(self)
        moved.mean = mean
        return moved

    @cached_property
    def precision(self):
        H = cho_solve(cho_factor(self.cov, lower=True), np.eye(self.dim))
        return 0.5 * (H + H.T)

    @cached_property
    def chol_inv(self):
        """The inverse Cholesky factor: chol_inv @ (x - mean) whitens x."""
        inv, info = dtrtri(self.chol, lower=1)
        if info:
            raise np.linalg.LinAlgError("singular Cholesky factor")
        return inv

    def log_det_cov(self):
        return 2.0 * np.sum(np.log(np.diag(self.chol)))


# Rows per block of log_densities: its temporaries stay O(block x K).
_ROW_BLOCK = 4096


def _whiten(inv, z):
    """inv @ z for a lower-triangular inv, (d, d), and z, (d, m).

    Column j of the result is column j of z through elementwise products
    summed in a fixed order, whatever the other columns are.
    """
    out = inv[:, :1] * z[0]
    for j in range(1, inv.shape[0]):
        out[j:] += inv[j:, j:j + 1] * z[j]
    return out


def log_densities(x, components):
    """(K, n) log densities of N(mean_k, cov_k) at the n rows of x, (n, d).

    Batch invariant in both the rows and the components.  Never forms a
    covariance inverse: each group of components with one Cholesky factor
    whitens by that factor's inverse.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or any(c.dim != x.shape[1] for c in components):
        raise ValueError("dimension mismatch: x has shape %s, components have "
                         "dimensions %s" % (x.shape, sorted({c.dim for c in components})))
    n, d = x.shape
    groups = {}
    for k, c in enumerate(components):
        groups.setdefault(c.chol.tobytes(), []).append(k)
    out = np.empty((len(components), n))
    for ks in groups.values():
        inv = components[ks[0]].chol_inv
        means = _whiten(inv, np.array([components[k].mean for k in ks]).T)
        const = d * _LOG_2PI + components[ks[0]].log_det_cov()
        # in-place arithmetic on two block buffers: fresh pages for
        # temporaries cost more than the arithmetic itself
        quad = np.empty((len(ks), min(n, _ROW_BLOCK)))
        diff = np.empty_like(quad)
        for lo in range(0, n, _ROW_BLOCK):
            w = _whiten(inv, x[lo:lo + _ROW_BLOCK].T)
            q, dq = quad[:, :w.shape[1]], diff[:, :w.shape[1]]
            q[:] = 0.0
            for i in range(d):
                np.subtract(w[i], means[i][:, None], out=dq)
                q += np.square(dq, out=dq)
            q += const
            q *= -0.5
            out[ks, lo:lo + _ROW_BLOCK] = q
    return out


def sample(n, c, rng, out=None):
    """n i.i.d. draws from N(mean, cov) via mean + chol @ z, written into
    out, an (n, d) array, when given."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = rng.standard_normal((n, c.dim))
    return np.add(c.mean, z @ c.chol.T, out=out)


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


def _qmc_rect_prob(cov, a, b):
    """P(a <= Y <= b) for Y ~ N(0, cov), sequential-conditioning QMC (d >= 4)."""
    d = a.size
    L = np.linalg.cholesky(0.5 * (cov + cov.T))
    lo0 = ndtr(a[0] / L[0, 0])
    hi0 = ndtr(b[0] / L[0, 0])
    n = QMC_POINTS
    w = _sobol_points(d - 1, n)
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
        t = hk * sn                            # (g, m, 20), worked in place
        t -= hs
        t *= q
        f = (np.einsum("gmi,i->gm", np.exp(t, out=t), w)
             * asr / (4 * np.pi))
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
        bvn += a / 2 * np.einsum("gmi,i->gm",
                                 np.exp(-(bs / xs + hk) / 2) * (ep - sp), w)
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
    in the tail.  A corner at +inf in either coordinate is exactly 0, so a
    corner that is there in every rectangle is not evaluated.
    """
    with np.errstate(invalid="ignore"):  # -inf + inf: not flipped
        flip = a + b < 0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    r = np.where(flip[..., 0] ^ flip[..., 1], -r[:, None], r[:, None])
    g, m = r.shape
    h = np.stack([lo[..., 0], lo[..., 0], hi[..., 0], hi[..., 0]], 1)
    k = np.stack([lo[..., 1], hi[..., 1], lo[..., 1], hi[..., 1]], 1)
    live = np.any((h < np.inf) & (k < np.inf), axis=(0, 2))
    u = np.zeros(h.shape)
    u[:, live] = _bvnu(h[:, live].reshape(g, -1), k[:, live].reshape(g, -1),
                       np.tile(r, live.sum())).reshape(g, -1, m)
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
    return np.bincount(rect, step[rect] / 2 * np.einsum("pi,i->p", dens * p2, w),
                       minlength=n)


def _rect_probs(cov, a, b):
    """P(a_i <= Y_i <= b_i) for Y_i ~ N(0, cov_i): (n, d, d), (n, d) -> (n,).

    Exact at d <= 2, 64-point Gauss-Legendre over an exact bivariate at
    d = 3, quasi-random integration at d >= 4.
    """
    d = a.shape[1]
    s = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    if d == 1:
        return _interval_probs(a[:, 0] / s[:, 0], b[:, 0] / s[:, 0])
    if d == 2:
        return _rect_probs2((a / s)[:, None], (b / s)[:, None],
                            cov[:, 0, 1] / (s[:, 0] * s[:, 1]))[:, 0]
    if d == 3:
        return _rect_probs3(cov, a, b)
    return np.array([_qmc_rect_prob(*args) for args in zip(cov, a, b)])


def _stack(components, r):
    """Means (K, d) and covariances (K, d, d) of K components of r's dimension."""
    if any(c.dim != r.dim for c in components):
        raise ValueError("rectangle and component dimension mismatch")
    means = np.array([c.mean for c in components]).reshape(-1, r.dim)
    covs = np.array([c.cov for c in components]).reshape(-1, r.dim, r.dim)
    return means, covs


def _check_mass(p, floor, message):
    """Raises DegenerateTruncationError naming the first component below floor."""
    low = np.flatnonzero(p < floor)
    if low.size:
        err = DegenerateTruncationError("component %d: " % low[0]
                                        + message % p[low[0]])
        err.component = int(low[0])
        raise err


def rect_prob(components, r):
    """P(lower <= X_k <= upper) for X_k ~ N(mean_k, cov_k): K components -> (K,).

    All K rectangles go through one integral batch, and the result is batch
    invariant: a component's value does not depend on the others in the
    call.  Deterministic. d = 1 and d = 2 are exact to rounding (the
    bivariate normal of Genz 2004, corner terms taken in the thinner tail);
    d = 3 integrates the exact conditional bivariate over one coordinate,
    clipped to +-9 sd, with 64-point Gauss-Legendre panels (one panel unless
    the conditional correlations are near +-1); against adaptive quadrature
    the relative error stays below 1e-7 wherever p >= 1e-10 at d <= 3.
    d >= 4 uses quasi-random integration with a fixed point count, whose
    accuracy degrades toward d = 10 (documented limit).  Returns exactly 1.0
    for an unbounded rectangle.  Raises DegenerateTruncationError, naming
    the first such component, when a probability underflows.
    """
    means, covs = _stack(components, r)
    if r.dim > MAX_RECT_DIM:
        raise ValueError("rect_prob supports d <= %d" % MAX_RECT_DIM)
    if r.is_unbounded():
        return np.ones(means.shape[0])
    p = _rect_probs(covs, r.lower - means, r.upper - means)
    _check_mass(p, 1e-300, "rectangle probability %.3g underflows: "
                "numerically zero region")
    return np.minimum(p, 1.0)


def _pinned_densities(cov, a, b, pins, vals):
    """Density of Y[pins] at vals times P(the other coordinates in [a, b] | it).

    Row i has its own Y ~ N(0, cov[i]) and rectangle [a[i], b[i]]: cov is
    (m, d, d), a and b (m, d), pins an (m, p) array of coordinate indices
    and vals the (m, p) values they are pinned at.  A row with an infinite
    value is 0.  All m conditional rectangles go to one _rect_probs call.
    """
    out = np.zeros(pins.shape[0])
    ok = np.all(np.isfinite(vals), axis=1)
    if not ok.any():
        return out
    cov, a, b, pins, vals = cov[ok], a[ok], b[ok], pins[ok], vals[ok]
    n, p = pins.shape
    row = np.arange(n)[:, None]
    free = np.ones(a.shape, dtype=bool)
    free[row, pins] = False
    rest = np.nonzero(free)[1].reshape(n, -1)
    s_pp = cov[row[:, :, None], pins[:, :, None], pins[:, None, :]]
    s_rp = cov[row[:, :, None], rest[:, :, None], pins[:, None, :]]
    g = np.linalg.solve(s_pp, np.concatenate([vals[:, :, None],
                                              s_rp.transpose(0, 2, 1)], axis=2))
    quad = np.sum(vals * g[:, :, 0], axis=1)
    dens = np.exp(-0.5 * quad) / np.sqrt((2 * np.pi) ** p * np.linalg.det(s_pp))
    live = dens > 0
    if rest.shape[1] and live.any():
        row, rest, s_rp, g = row[live], rest[live], s_rp[live], g[live]
        cmean = np.einsum("mrp,mp->mr", s_rp, g[:, :, 0])
        ccov = (cov[row[:, :, None], rest[:, :, None], rest[:, None, :]]
                - s_rp @ g[:, :, 1:])
        dens[live] *= np.maximum(_rect_probs(ccov, a[row, rest] - cmean,
                                             b[row, rest] - cmean), 0.0)
    out[ok] = dens
    return out


def _xF(x, F):
    # x * F with the convention inf * 0 = 0 (F decays faster than x grows)
    return np.where(F == 0.0, 0.0, np.where(np.isfinite(x), x, 0.0) * F)


def _trunc_moments_zero(cov, a, b, mass=None):
    """First and raw second moments of N(0, cov_k) truncated to [a_k, b_k].

    cov is (K, d, d), a and b (K, d).  The Manjunath-Wilhelm (2012)
    recursion: one batch of K x 2d edge terms (one coordinate pinned at a
    bound) and one of K x d(d-1)/2 x 4 pair terms.  mass, when given, holds
    the K probabilities of [a_k, b_k].
    """
    K, d = a.shape
    alpha = _rect_probs(cov, a, b) if mass is None else np.broadcast_to(mass, K)
    _check_mass(alpha, 1e-12, "truncation mass %.3g below 1e-12; "
                "moments unreliable")
    comp = np.arange(K)
    edges = np.repeat(comp, 2 * d)
    F = _pinned_densities(cov[edges], a[edges], b[edges],
                          np.tile(np.arange(d), 2 * K)[:, None],
                          np.concatenate([a, b], axis=1).reshape(-1, 1))
    F = F.reshape(K, 2, d)
    Fa, Fb = F[:, 0], F[:, 1]
    m1 = (cov @ (Fa - Fb)[:, :, None])[:, :, 0] / alpha[:, None]

    k, q = np.triu_indices(d, 1)
    corners = np.stack([np.stack([xk, xq], axis=-1) for xk, xq in
                        ((a[:, k], a[:, q]), (a[:, k], b[:, q]),
                         (b[:, k], a[:, q]), (b[:, k], b[:, q]))], axis=1)
    pairs = np.repeat(comp, 4 * k.size)
    F2 = _pinned_densities(cov[pairs], a[pairs], b[pairs],
                           np.tile(np.column_stack([k, q]), (4 * K, 1)),
                           corners.reshape(-1, 2)).reshape(K, 4, k.size)
    D2 = np.zeros((K, d, d))
    D2[:, k, q] = D2[:, q, k] = F2[:, 0] - F2[:, 1] - F2[:, 2] + F2[:, 3]
    edge = _xF(a, Fa) - _xF(b, Fb)
    diag = np.diagonal(cov, axis1=1, axis2=2)[:, None, :]
    T = (cov / diag * (edge - np.sum(cov * D2, axis=2))[:, None, :]
         + cov @ D2)
    m2 = cov + cov @ T.transpose(0, 2, 1) / alpha[:, None, None]
    m2 = 0.5 * (m2 + m2.transpose(0, 2, 1))
    return m1, m2


def trunc_moments(components, r, mass=None):
    """Moments about each component's mean of N(mean_k, cov_k) truncated to r.

    For K components returns E[X_k - mean_k], (K, d), and
    E[(X_k - mean_k)(X_k - mean_k)'], (K, d, d), X_k conditioned on r: the
    zero-mean Manjunath-Wilhelm recursion's own output, which expresses
    truncated-normal moments via lower-dimensional rectangle probabilities
    at every d.  Raw moments are mean + m1 and
    m2 + mean m1' + m1 mean' + mean mean'.  All K components go through one
    batch per kind of term, and the result is batch invariant.  mass, when
    given, must be rect_prob(components, r); it spares those integrals.
    Raises DegenerateTruncationError, naming the first such component, when
    a truncation mass is below 1e-12.
    """
    means, covs = _stack(components, r)
    if r.is_unbounded():
        return np.zeros(means.shape), covs
    return _trunc_moments_zero(covs, r.lower - means, r.upper - means, mass)


def sample_truncated(n, c, r, rng, mass=None, out=None):
    """Rejection sampling of N(mean, cov) conditioned on the rectangle.

    Plain rejection; viable only while the acceptance probability stays
    above ~1e-8, and given up after 10,000 batches.  Callers with thinner
    regions must reparameterize.  mass, when given, must be
    rect_prob([c], r)[0]; it spares that integral.  The draws are written
    into out, an (n, d) array, when given.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if r.is_unbounded():
        return sample(n, c, rng, out)
    p = rect_prob([c], r)[0] if mass is None else mass
    if p < 1e-8:
        raise DegenerateTruncationError(
            "acceptance rate estimate %.3g below 1e-8: degenerate truncation; "
            "reparameterize instead of rejection sampling" % p)
    kept, filled = [], 0
    batch = max(int(1.5 * n / p), n)
    batch = min(batch, 10_000_000)
    for _ in range(10000):
        cand = sample(batch, c, rng)
        kept.append(cand[r.contains(cand)][:n - filled])
        filled += kept[-1].shape[0]
        if filled == n:
            return np.concatenate(kept, out=out)
    raise DegenerateTruncationError("rejection sampling failed to fill %d draws" % n)
