"""Kernel estimation of a smooth signal and its derivatives from noisy samples.

Implements local-polynomial weight rows, exact on the design: each row is
an envelope times a polynomial of degree below L, fitted by one Gram solve
so that it reproduces the j-th derivative of every such polynomial at the
observations (the design-corrected form of the moment-vanishing kernels of
``kernels``). A data-driven global bandwidth selector compares estimates
at the observations across a geometric bandwidth grid and keeps the
largest bandwidth that is statistically indistinguishable from all smaller
ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import make_kernel

__all__ = [
    "AdaptationError",
    "BandwidthGrid",
    "DerivativeEstimate",
    "DesignWeights",
    "EstimationError",
    "NoisySample",
    "check_bandwidth",
    "estimate_derivative",
    "estimate_sigma",
    "lepski_select",
    "pc_estimate",
]

# Ratio a of the geometric bandwidth grid (``BandwidthGrid``); a finite
# n / (sigma^2 T^2) keeps the depth J below log_a(DBL_MAX) = 3893.2
_GRID_RATIO = 1.2

# Multiplier of the comparison threshold (``_lepski_batch``): 3.0 is the
# empirically tuned value, 4.0 the conservative theoretical one
_THRESHOLD_MULT = 3.0

# A design is a lattice (``_lattice_step``) when every time lies within this
# fraction of T of t_0 + i * step: sixteen units of rounding, where times
# formed as i * (T / n) or by ``np.linspace`` lie within one
_LATTICE_TOL = 16 * np.finfo(float).eps


DEFAULT_GRID_SIZE = 1024  # points of the evaluation grid on [0, T]


class EstimationError(RuntimeError):
    """An estimate cannot be formed from the given design and bandwidth."""


class AdaptationError(EstimationError):
    """Adaptive bandwidth selection is impossible for the given noise level."""


@dataclass(frozen=True)
class NoisySample:
    """Noisy observations y_i = q(t_i) + sigma*eps_i on a design in [0, T].

    The design is deterministic with the convention t_0 = 0, so the first
    spacing is t_1 - 0.
    """

    times: np.ndarray
    values: np.ndarray
    T: float
    sigma: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.shape != times.shape:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if times.size < 2:
            raise ValueError("need at least two observations")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError("T must be positive and finite")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("times and values must be finite")
        if np.any(np.diff(times) < 0):
            raise ValueError("times must be sorted in increasing order")
        if times[0] < 0 or times[-1] > self.T * (1 + 1e-12):
            raise ValueError("times must lie in [0, T]")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be a nonnegative finite number")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def n(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class BandwidthGrid:
    """Geometric bandwidth grid a^0 > a^-1 > ... > a^-J for derivative order j,
    a = ``_GRID_RATIO``."""

    j: int
    levels: np.ndarray

    @classmethod
    def build(cls, j: int, n: int, sigma: float, T: float) -> "BandwidthGrid":
        """The levels a^-k for k = 0..J, J from ``_grid_depth``."""
        depth = _grid_depth(j, n, sigma, T)
        levels = _GRID_RATIO ** (-np.arange(depth + 1, dtype=float))
        return cls(j=int(j), levels=levels)


def _grid_depth(j: int, n: int, sigma: float, T: float) -> int:
    """Grid depth J = floor(log_a(n / (sigma^2 T^2)) / (2j+1)), clamped at 0,
    with a = ``_GRID_RATIO``.

    Raises AdaptationError when sigma^2 T^2 >= n (the depth formula turns
    nonpositive) or when sigma == 0, sigma^2 T^2 underflows to 0 or
    n / (sigma^2 T^2) overflows (it diverges): in either case the caller
    must supply a fixed bandwidth instead of adapting.
    """
    if j < 0:
        raise ValueError("derivative order j must be nonnegative")
    if sigma == 0.0:
        raise AdaptationError(
            "sigma = 0 gives an unbounded bandwidth grid; adaptive selection "
            "is impossible, supply a fixed bandwidth instead"
        )
    scale = sigma * sigma * T * T
    if scale >= n:
        raise AdaptationError(
            "sigma^2*T^2 >= n leaves no room for a bandwidth grid; adaptive "
            "selection is impossible at this noise level, supply a fixed "
            "bandwidth or collect more samples"
        )
    if scale == 0.0 or not math.isfinite(n / scale):
        raise AdaptationError(
            "sigma = %g is so small that n/(sigma^2*T^2) is not a finite number, "
            "which gives an unbounded bandwidth grid; adaptive selection is "
            "impossible, supply a fixed bandwidth instead" % sigma
        )
    depth = math.floor(math.log(n / scale, _GRID_RATIO) / (2 * j + 1))
    return max(depth, 0)


@dataclass(frozen=True)
class DerivativeEstimate:
    """Estimated j-th derivative of the signal on an evaluation grid."""

    j: int
    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    kernel_order: int

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise EstimationError("estimate produced non-finite values")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@functools.lru_cache(maxsize=None)
def _orthonormal(L: int) -> np.ndarray:
    """Q (L x L): row k holds the monomial coefficients, lowest first, of
    p_k, the polynomials of degree k < L orthonormal for the weight
    (1 - u^2)^2 on [-1, 1]. They are the Gegenbauer polynomials C_k of
    index 5/2, C_k = (2u (k + 3/2) C_(k-1) - (k + 3) C_(k-2)) / k from
    C_0 = 1, scaled by their norms h_k = pi Gamma(k + 5) / (16 k! (k + 5/2)
    Gamma(5/2)^2). In this basis the Gram matrices of ``_rows_at`` are near
    a multiple of the identity on a dense design; in monomials they would
    have a condition number of about 1.7e5 at L = 8."""
    C = np.zeros((L, L))
    C[0, 0] = 1.0
    if L > 1:
        C[1, 1] = 5.0
    for k in range(2, L):
        C[k, 1:] = 2.0 * (k + 1.5) / k * C[k - 1, :-1]
        C[k] -= (k + 3.0) / k * C[k - 2]
    h = [math.pi * math.gamma(k + 5.0) / (16.0 * math.factorial(k) * (k + 2.5)
                                          * math.gamma(2.5) ** 2) for k in range(L)]
    Q = C / np.sqrt(h)[:, None]
    Q.flags.writeable = False
    return Q


def _rows_at(d: np.ndarray, lo: np.ndarray, hi: np.ndarray, lam: float, L: int,
             orders) -> np.ndarray:
    """Local-polynomial weight rows of each order in orders at a stack of points.

    d (... x S) holds (t - x)/lam for the observations a point may see, and
    lo, hi (... x 1) its support, [max(-1, -x/lam), min(1, (T - x)/lam)];
    d is overwritten. In u = (d - mid)/half, the support's centred
    variable, the envelope (d - lo)^2 (hi - d)^2 is half^4 v with
    v = (1 - u^2)^2 strictly inside the support and 0 outside (half^4 is
    dropped: no row depends on the envelope's scale). With U the values
    p_k(u_i) of the orthonormal basis of ``_orthonormal``, the row of order
    j is w = v o (U^T c), where A c = e for the Gram A = U diag(v) U^T and
    e_k = d^j/dt^j p_k(u(t)) at t = x. Then sum_i w_i P(t_i) = P^(j)(x) for
    every polynomial P of degree below L, and A, which does not depend on
    j, is solved once for every order. U carries sqrt(v) = 1 - u^2 on each
    side, so A is one product. Returns ... x len(orders) x S.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    u = d
    u -= mid
    u /= half
    s = u * u
    np.subtract(1.0, s, out=s)
    np.maximum(s, 0.0, out=s)
    # the powers s u^k, k < L, each one contiguous slab, then the basis
    # values by one product with Q; Ut views them point by point
    powers = np.empty((L,) + u.shape)
    powers[0] = s
    for k in range(1, L):
        np.multiply(powers[k - 1], u, out=powers[k])
    Us = np.matmul(_orthonormal(L), powers.reshape(L, -1)).reshape(powers.shape)
    Ut = np.moveaxis(Us, 0, -2)
    A = np.matmul(Ut, np.swapaxes(Ut, -1, -2))
    # d^j/du^j u^k at u0 = -mid/half, then d/dt = d/du / (lam half)
    u0 = -mid / half
    E = np.zeros(u0.shape[:-1] + (L, len(orders)))
    for q, j in enumerate(orders):
        for k in range(j, L):
            E[..., k, q] = math.perm(k, j) * u0[..., 0] ** (k - j)
        E[..., q] /= (lam * half) ** j
    C = np.linalg.solve(A, np.matmul(_orthonormal(L), E))
    W = np.matmul(np.swapaxes(C, -1, -2), Ut)
    W *= s[..., None, :]
    return W


# Points of one block of ``_row_blocks``: they share one span of observations
_BLOCK_ROWS = 16

# Elements of the basis array of one chunk of blocks in ``_row_blocks``
# (blocks x rows x L x span): 1 MB. 2^16 to 2^18 measured alike in time;
# 2^18 raised the peak of the benchmark's in-process workloads by 4 MB
_ROW_CHUNK = 1 << 17


def _blocked(a: np.ndarray) -> np.ndarray:
    """a cut into blocks of ``_BLOCK_ROWS`` along its first axis, the
    last one padded with a[-1]."""
    pad = np.repeat(a[-1:], -len(a) % _BLOCK_ROWS, axis=0)
    return np.concatenate((a, pad)).reshape((-1, _BLOCK_ROWS) + a.shape[1:])


def _row_blocks(times: np.ndarray, T: float, x: np.ndarray, lam: float, L: int, orders):
    """The rows of ``_rows_at`` at the sorted points x, a chunk of blocks at a time.

    The points are cut into blocks (``_blocked``); each block sees one span
    of observations, common in length to every block: from the first
    observation inside its lowest point's window (x - lam, x + lam) to the
    last inside its highest point's, shifted left where it would run past
    the last observation. Yields (b0, idx, W): the index of the chunk's
    first block, the observation indices of its blocks (blocks x span) and
    their rows (blocks x ``_BLOCK_ROWS`` x len(orders) x span).
    """
    n = times.size
    xb = _blocked(x)
    a = np.searchsorted(times, xb[:, 0] - lam, side="right")
    b = np.searchsorted(times, xb[:, -1] + lam, side="left")
    span = max(int(np.max(b - a)), 1)
    first = np.minimum(a, n - span)
    lo = np.maximum(-1.0, -xb / lam)[..., None]
    hi = np.minimum(1.0, (T - xb) / lam)[..., None]
    chunk = max(1, _ROW_CHUNK // (_BLOCK_ROWS * L * span))
    for b0 in range(0, xb.shape[0], chunk):
        blk = slice(b0, b0 + chunk)
        idx = first[blk, None] + np.arange(span)
        d = (times[idx][:, None, :] - xb[blk, :, None]) / lam
        yield b0, idx, _rows_at(d, lo[blk], hi[blk], lam, L, orders)


def _apply_rows(times: np.ndarray, T: float, x: np.ndarray, lam: float, L: int,
                V: np.ndarray, columns: dict) -> dict:
    """{j: the order-j estimates at the points x of V[:, columns[j]]} for
    every order j of columns, from one Gram per point (``_row_blocks``).
    x may be unsorted. Each chunk gathers the union of the orders' columns
    on its observations once and reaches them with the rows of every
    order by one stacked product."""
    orders = sorted(columns)
    union = np.array(sorted(set(np.concatenate([columns[j] for j in orders]).tolist())))
    where = [np.searchsorted(union, columns[j]) for j in orders]
    Vu = V[:, union]
    order = np.argsort(x, kind="stable")
    out = {j: np.empty((x.size, len(columns[j]))) for j in orders}
    for b0, idx, W in _row_blocks(times, T, x[order], lam, L, orders):
        nb, span = idx.shape
        est = np.matmul(W.reshape(nb, -1, span), Vu[idx]).reshape(-1, len(orders), union.size)
        rows = order[b0 * _BLOCK_ROWS : (b0 + nb) * _BLOCK_ROWS]
        for q, j in enumerate(orders):
            out[j][rows] = est[: rows.size, q, where[q]]
    return out


class DesignWeights:
    """The local-polynomial rows of one fixed observation design.

    A plain forwarder to the row builder that stores nothing between calls;
    every method first checks its orders and bandwidth (``check_bandwidth``)
    and its evaluation points, which must be finite and in [0, T].
    ``apply_orders`` evaluates the rows of several derivative orders at one
    bandwidth on data columns, forming each point's Gram once, as the
    deconvolution pipeline does for every distinct selected bandwidth;
    ``apply`` does it for one order, and ``weight_matrix`` returns one
    order's rows as a dense grid.size x n matrix, which the pipeline never
    forms.
    """

    def __init__(self, times: np.ndarray, T: float):
        self.times = np.ascontiguousarray(times, dtype=float)
        self.T = float(T)

    def weight_matrix(self, j: int, L: int, lam: float, grid: np.ndarray) -> np.ndarray:
        check_bandwidth(self.times, self.T, j, L, lam)
        grid = _check_points(grid, self.T)
        order = np.argsort(grid, kind="stable")
        W = np.zeros((-(-grid.size // _BLOCK_ROWS) * _BLOCK_ROWS, self.times.size))
        for b0, idx, rows in _row_blocks(self.times, self.T, grid[order], lam, L, (j,)):
            r = b0 * _BLOCK_ROWS + np.arange(idx.shape[0] * _BLOCK_ROWS).reshape(-1, _BLOCK_ROWS)
            W[r[:, :, None], idx[:, None, :]] = rows[:, :, 0, :]
        out = np.empty((grid.size, self.times.size))
        out[order] = W[: grid.size]
        return out

    def apply(self, j: int, L: int, lam: float, grid: np.ndarray,
              V: np.ndarray) -> np.ndarray:
        """``weight_matrix(j, L, lam, grid) @ V`` (grid.size x R) without
        forming the matrix, up to the rounding of the summation order."""
        return self.apply_orders(L, lam, grid, V, {j: np.arange(V.shape[1])})[j]

    def apply_orders(self, L: int, lam: float, grid: np.ndarray, V: np.ndarray,
                     columns: dict) -> dict:
        """{j: ``apply(j, L, lam, grid, V[:, columns[j]])``} for every order
        j of columns, with one Gram per grid point shared by all of them.
        The window count of lam, which no order changes, is read once."""
        if not columns:
            raise ValueError("columns must name at least one derivative order")
        for j in columns:
            _check_range(self.T, j, L, lam)
        grid = _check_points(grid, self.T)
        _check_count(self.times, self.T, next(iter(columns)), L, lam)
        return _apply_rows(self.times, self.T, grid, lam, L, V, columns)


def _check_points(grid, T: float) -> np.ndarray:
    """grid as a float array; ValueError unless it is nonempty and every
    point is finite and in [0, T], where the rows' supports are defined."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    inside = (grid >= 0.0) & (grid <= T)
    if not np.all(inside):
        raise ValueError("evaluation point %g is not a finite point of [0, T] = [0, %g]"
                         % (grid[~inside].flat[0], T))
    return grid


def _fewest(times: np.ndarray, lo: float, hi: float, half: float) -> tuple[int, float]:
    """(count, x): the fewest observations strictly inside (x - half, x + half)
    over x in [lo, hi], and a point x where that count is met. The count of
    an open window changes only where an observation crosses one of its
    ends, and is no larger there than on either side, so reading it at lo,
    hi and the points t_i -/+ half in [lo, hi] is exact; a grid of points
    would miss a thin stretch between two of them. Either set of points
    alone would do in exact arithmetic (a window of least count keeps its
    count while it slides until an end meets an observation); reading both
    also covers a window end x -/+ half that rounds across the observation
    it was placed on."""
    best = None
    for x in (np.array([lo, hi]), times - half, times + half):
        x = x[(x >= lo) & (x <= hi)]
        if x.size:
            counts = (np.searchsorted(times, x + half, side="left")
                      - np.searchsorted(times, x - half, side="right"))
            i = int(np.argmin(counts))
            if best is None or counts[i] < best[0]:
                best = int(counts[i]), float(x[i])
    return best


def _short_window(times: np.ndarray, T: float, lam: float, L: int,
                  zone: bool = True) -> str | None:
    """Why the bandwidth lam is not admissible with L observation times per
    window, or None when it is. Every window (x - lam, x + lam) of a point x
    in [0, T] must hold at least L distinct observation times inside
    (0, T), where a point's rows weigh them: then its Gram matrix is
    positive definite (a repeated time adds no rank to it). With ``zone``,
    every half window (x - lam/2, x + lam/2) of a point x in the interior
    zone [lam, T - lam] must hold L distinct times as well, so that no
    interior estimate rests on observations at one side of a design gap
    only. Both counts are exact (``_fewest``)."""
    inside = times[(times > 0.0) & (times < T)]
    what = "observations"
    if np.any(inside[1:] == inside[:-1]):
        inside, what = np.unique(inside), "distinct observation times"
    count, x = _fewest(inside, 0.0, T, lam)
    if count < L:
        return ("the window (x - lam, x + lam) at x = %g holds %d %s in (0, T), "
                "fewer than L = %d" % (x, count, what, L))
    if zone and lam <= T - lam:
        count, x = _fewest(inside, lam, T - lam, lam / 2)
        if count < L:
            return ("the half window (x - lam/2, x + lam/2) at x = %g holds %d %s, "
                    "fewer than L = %d" % (x, count, what, L))
    return None


def _check_range(T: float, j: int, L: int, lam: float) -> None:
    if not 0 <= j < L:
        raise ValueError("derivative order j=%d outside [0, L) for L=%d" % (j, L))
    if not (0.0 < lam <= T / 2):
        raise ValueError("bandwidth %g for j=%d outside (0, T/2]" % (lam, j))


def check_bandwidth(times: np.ndarray, T: float, j: int, L: int, lam: float) -> None:
    """ValueError unless 0 <= j < L and 0 < lam <= T/2; EstimationError
    unless the window (x - lam, x + lam) of every point x in [0, T] holds at
    least L distinct observation times inside (0, T) (``_short_window``),
    which every row needs."""
    _check_range(T, j, L, lam)
    _check_count(times, T, j, L, lam)


def _check_count(times: np.ndarray, T: float, j: int, L: int, lam: float) -> None:
    why = _short_window(times, T, lam, L, zone=False)
    if why is not None:
        raise EstimationError("bandwidth %g for j=%d: %s; increase the bandwidth or "
                              "the sample size" % (lam, j, why))


def pc_estimate(data: NoisySample, j: int, L: int, lam: float, grid) -> DerivativeEstimate:
    """Weighted-sum estimate of q^(j) at the given bandwidth.

    Each value is the local-polynomial row of its point (``_rows_at``):
    the observations in the point's window, weighted by an envelope that
    vanishes at the ends of its support and corrected by one L x L Gram
    solve so that the row reproduces the j-th derivative of every
    polynomial of degree below L exactly on the design. Near an endpoint
    the support is cut at it. The map y -> estimate is exactly linear; no
    grid.size x n matrix is formed. ValueError unless 0 <= j < L and every
    point of the nonempty grid is finite and in [0, T]; EstimationError
    when a window holds fewer than L distinct observation times
    (``check_bandwidth``).
    """
    values = DesignWeights(data.times, data.T).apply(j, L, lam, grid, data.values[:, None])[:, 0]
    return DerivativeEstimate(
        j=j, grid=grid, values=values, bandwidth=float(lam), kernel_order=L
    )


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros(x.size)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def _lattice_step(times: np.ndarray, T: float) -> float | None:
    """The spacing of the design when it is a lattice, every t_i within
    ``_LATTICE_TOL`` * T of t_0 + i * step, else None."""
    n = times.size
    step = (times[-1] - times[0]) / (n - 1)
    if not step > 0.0:
        return None
    off = np.abs(times - (times[0] + step * np.arange(n)))
    return float(step) if float(np.max(off)) <= _LATTICE_TOL * T else None


def _toeplitz_apply(w: np.ndarray, V: np.ndarray, k0: int, k1: int, out: np.ndarray) -> None:
    """out[k - k0] = sum_o w[o] V[k - m + o] for k0 <= k < k1, with w of
    2m + 1 weights: one ``np.correlate`` for a single column, else one
    banded Toeplitz product per block of rows, whose matrix is the same for
    every block."""
    m = (w.size - 1) // 2
    if V.shape[1] == 1:
        out[:, 0] = np.correlate(V[k0 - m : k1 + m, 0], w, "valid")
        return
    B = min(max(4 * m, 32), 256, k1 - k0)
    z = np.concatenate((np.zeros(B - 1), w, np.zeros(B - 1)))
    band = np.lib.stride_tricks.sliding_window_view(z, B + 2 * m)[::-1].copy()
    for r0 in range(k0, k1, B):
        b = min(B, k1 - r0)
        np.matmul(band[:b, : b + 2 * m], V[r0 - m : r0 + b + m], out=out[r0 - k0 : r0 - k0 + b])


def _zone(times: np.ndarray, T: float, lam: float) -> tuple[int, int]:
    """[i0, i1): the observations in the interior zone [lam, T - lam], up to
    a rounding margin of 1e-12 T."""
    tol = 1e-12 * T
    return (int(np.searchsorted(times, lam - tol, side="left")),
            int(np.searchsorted(times, T - lam + tol, side="right")))


def _zone_estimates(times: np.ndarray, T: float, zone: tuple[int, int], lam: float,
                    j: int, L: int, V: np.ndarray, step: float | None) -> np.ndarray:
    """The order-j estimates of V's columns at the observations of the
    interior zone [i0, i1) of lam.

    In the zone every support is [-1, 1], so on a lattice design (step not
    None) the row of an observation t_k depends only on the offsets i - k
    of the observations in its window: one row of 2m + 1 weights
    (``_rows_at`` at d = o * step / lam) serves every observation whose
    window lies on the design, applied by ``_toeplitz_apply``. m is the
    widest offset of any zone window, read from the design's own
    observations, so a bandwidth that is a whole number of spacings up to
    rounding never reaches past the design. The other observations, and
    all of them on any other design, get rows of their own
    (``_apply_rows``).
    """
    n = times.size
    i0, i1 = zone
    est = np.empty((i1 - i0, V.shape[1]))
    rest = np.arange(i0, i1)
    if step is not None:
        x = times[i0:i1]
        a = np.searchsorted(times, x - lam, side="right")
        b = np.searchsorted(times, x + lam, side="left")
        m = int(max(np.max(rest - a), np.max(b - 1 - rest), 0))
        k0, k1 = max(i0, m), min(i1, n - m)
        if k1 > k0:
            o = np.arange(-m, m + 1)
            w = _rows_at((o * (step / lam))[None, :], np.array([[-1.0]]), np.array([[1.0]]),
                         lam, L, (j,))[0, 0]
            _toeplitz_apply(w, V, k0, k1, est[k0 - i0 : k1 - i0])
            rest = rest[(rest < k0) | (rest >= k1)]
    if rest.size:
        est[rest - i0] = _apply_rows(times, T, times[rest], lam, L, V,
                                     {j: np.arange(V.shape[1])})[j]
    return est


def _admissible(times: np.ndarray, T: float, levels: np.ndarray, L: int, j: int):
    """(levels, zones): the grid, risen above its top where that fails, and
    the observation zone (``_zone``) of each admissible level by index.

    Levels above T/2, or whose interior zone holds fewer than two
    observations to compare on, are passed over; below them, the levels
    that ``_short_window`` admits are a top run of the grid, since both its
    counts only grow with lam. The end of the run is found by bisection,
    so the counts are read at about log2(J) levels. When the top level
    a^0 = 1 is refused, the grid rises to the first a^k <= T/2 that
    passes, keeping a^k .. a^1 as its new top levels. EstimationError
    names the count that refused the largest level tried, or why no level
    was tried.
    """
    first = int(np.count_nonzero(levels > T / 2))
    while first < levels.size and np.subtract(*_zone(times, T, levels[first])[::-1]) < 2:
        first += 1
    if first == levels.size:
        if levels[-1] > T / 2:
            reason = "every level of the grid, from %g down to %g, exceeds T/2 = %g" % (
                levels[0], levels[-1], T / 2)
        else:
            reason = ("the design leaves fewer than two observations in the interior "
                      "zone [lam, T - lam] of every level up to T/2 = %g" % (T / 2))
        raise EstimationError("no admissible bandwidth level for j=%d: %s" % (j, reason))
    refused = (levels[first], _short_window(times, T, levels[first], L))
    if refused[1] is None:
        good, bad = first, levels.size
        while bad - good > 1:
            mid = (good + bad) // 2
            if _short_window(times, T, levels[mid], L) is None:
                good = mid
            else:
                bad = mid
        return levels, {li: _zone(times, T, levels[li]) for li in range(first, good + 1)}
    k = 1
    while first == 0 and levels[0] * _GRID_RATIO**k <= T / 2:
        lam = levels[0] * _GRID_RATIO**k
        zone = _zone(times, T, lam)
        if zone[1] - zone[0] < 2:
            break
        why = _short_window(times, T, lam, L)
        if why is None:
            top = levels[0] * _GRID_RATIO ** np.arange(k, 0, -1, dtype=float)
            return np.concatenate((top, levels)), {0: zone}
        refused = (lam, why)
        k += 1
    raise EstimationError(
        "no admissible bandwidth level for j=%d: at lam = %g, the largest level tried "
        "up to T/2 = %g, %s" % (j, refused[0], T / 2, refused[1]))


def _lepski_batch(times: np.ndarray, T: float, V: np.ndarray, sigma: float,
                  j: int, L: int):
    """Adaptive bandwidth per column of the observation matrix V (n x R).

    Returns (lam_hat (R,), selected_index (R,), details dict). Admissibility
    of a bandwidth level is a property of the design alone, read by exact
    counts (``_admissible``, ``_short_window``): the level fits in T/2,
    every window (x - lam, x + lam) on [0, T] holds at least L
    observations, and every half window in the interior zone [lam, T - lam]
    does too. When the grid's top level fails, the grid rises to the first
    a^k <= T/2 that passes. Nothing else is checked: the local-polynomial
    rows (``_rows_at``) reproduce every polynomial of degree below L on the
    design itself.

    Each admissible level estimates V's columns at the observations in its
    interior zone (``_zone_estimates``): on a lattice design
    (``_lattice_step``) by one row of 2m + 1 weights for all of them, else
    by a row per observation. Distances between estimates are integrated
    over the observations in the interior zone of the larger bandwidth,
    with trapezoid weights on the t_i, where neither estimate is
    boundary-affected, against ``_THRESHOLD_MULT`` * C^2 sigma^2 T^2 /
    (n h^(2j+1)) with C = ||K_j|| (``details["C"]``), the paper's mu ||K_j||
    at mesh ratio mu = 1. ``details["comparison_grid_size"]`` is the number
    of observations in the widest zone compared, that of the smallest
    admissible level.

    The comparisons run candidate by candidate, largest level first. Each
    candidate's squared differences (Ec - Eh)^2 against every smaller
    admissible level are formed in one buffer, sized for the largest
    candidate and reused for every pair of levels: ``np.subtract`` and
    ``np.square`` into it, then one product with the trapezoid weights.
    """
    n = times.size
    levels, zones = _admissible(times, T, BandwidthGrid.build(j, n, sigma, T).levels, L, j)
    C = math.sqrt(make_kernel(L, j).norm2)
    step = _lattice_step(times, T)
    R = V.shape[1]
    admissible = sorted(zones)
    estimates = {li: _zone_estimates(times, T, zones[li], levels[li], j, L, V, step)
                 for li in admissible}
    selected = np.full(R, -1, dtype=int)
    noise_scale = _THRESHOLD_MULT * C * C * sigma * sigma * T * T / n
    # one buffer of the largest candidate's size; the smallest level has
    # nothing smaller to be compared with and takes the undecided columns
    diff = np.empty(max((estimates[ci].size for ci in admissible[:-1]), default=0))
    for ci in admissible[:-1]:
        ok = selected < 0
        if not np.any(ok):
            break
        i0c, i1c = zones[ci]
        Ec = estimates[ci]
        tw = _trapezoid_weights(times[i0c:i1c])
        diff2 = diff[: Ec.size].reshape(Ec.shape)
        for hi in admissible:
            if hi <= ci:
                continue
            i0h = zones[hi][0]
            Eh = estimates[hi][i0c - i0h : i1c - i0h]
            np.subtract(Ec, Eh, out=diff2)
            np.square(diff2, out=diff2)
            dist2 = tw @ diff2
            ok &= dist2 <= noise_scale / levels[hi] ** (2 * j + 1)
            if not np.any(ok):
                break
        selected[ok & (selected < 0)] = ci
    selected[selected < 0] = admissible[-1]
    i0, i1 = zones[admissible[-1]]
    details = {
        "levels": levels,
        "admissible": admissible,
        "selected_index": selected,
        "C": C,
        "hmin": (sigma * sigma * T * T / n) ** (1.0 / (2 * j + 1)),
        "comparison_grid_size": i1 - i0,
    }
    return levels[selected], selected, details


def lepski_select(data: NoisySample, j: int, L: int, *, return_details: bool = False):
    """Largest admissible bandwidth whose estimate stays within the
    noise-level threshold of every smaller admissible estimate on the grid.

    A level is admissible when its windows hold enough observations for the
    local-polynomial rows, by exact counts (see ``_lepski_batch``); the
    estimates are compared at the observations of each level's interior
    zone. The smallest admissible level has nothing smaller to be compared
    with, so it is selected when no larger level passes. The grid ratio
    (``_GRID_RATIO``) and the threshold multiplier (``_THRESHOLD_MULT``)
    are fixed. EstimationError when no level is admissible, naming the
    count that refused the largest level tried.
    """
    lam_hat, _, details = _lepski_batch(
        data.times, data.T, data.values[:, None], data.sigma, j, L
    )
    lam = float(lam_hat[0])
    if return_details:
        return lam, details
    return lam


def estimate_derivative(data: NoisySample, j: int, L: int, grid=None) -> DerivativeEstimate:
    """Adaptive-bandwidth estimate of q^(j): select, then evaluate. The
    grid is checked as in ``pc_estimate`` before the selection runs."""
    if grid is None:
        grid = np.linspace(0.0, data.T, DEFAULT_GRID_SIZE)
    grid = _check_points(grid, data.T)
    lam = lepski_select(data, j, L)
    return pc_estimate(data, j, L, lam, grid)


def estimate_sigma(data: NoisySample) -> float:
    """First-difference noise scale estimate, provided as plumbing only.

    sigma_hat^2 = sum (y_i - y_{i-1})^2 / (2(n-1)); valid when the signal
    varies slowly across neighboring design points. The estimators here
    treat sigma as known; use this when no external value is available.
    Differences or squares beyond the float range are formed from the
    values scaled by their largest magnitude instead, so no step overflows;
    the result is inf only when sigma_hat itself exceeds the float range.
    """
    with np.errstate(over="ignore"):
        d = np.diff(data.values)
        ss = np.sum(d * d)
    if np.isfinite(ss):
        return float(np.sqrt(ss / (2.0 * (data.n - 1))))
    scale = float(np.max(np.abs(data.values)))
    d = np.diff(data.values / scale)
    return scale * float(np.sqrt(np.sum(d * d) / (2.0 * (data.n - 1))))
