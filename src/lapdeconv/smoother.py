"""Kernel estimation of a smooth signal and its derivatives from noisy samples.

Implements a Priestley-Chao type estimator with moment-vanishing polynomial
kernels, plus a data-driven global bandwidth selector that compares estimates
across a geometric bandwidth grid and keeps the largest bandwidth that is
statistically indistinguishable from all smaller ones.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .kernels import SmoothingKernel, kernel_primitives, make_kernel

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

# Boundary kernels are parameterized by the relative distance rho to the
# nearer endpoint, quantized to 1e-3 (``_supports``). At the exact endpoint
# rho is 0; the floor gives that point the lowest kernel of the grid,
# [-1, 1e-3], which ``make_boundary_kernel`` builds too (it rejects rho = 0),
# so every row stays the row of an exact kernel the tests can rebuild.
_RHO_MIN = 1e-3

# Largest moment deviation (``_moment_worst``) of an admissible bandwidth level
_PROBE_TOL = 0.1

# Ratio a of the geometric bandwidth grid (``BandwidthGrid``); a finite
# n / (sigma^2 T^2) keeps the depth J below log_a(DBL_MAX) = 3893.2
_GRID_RATIO = 1.2

# Multiplier of the comparison threshold (``_lepski_batch``): 3.0 is the
# empirically tuned value, 4.0 the conservative theoretical one
_THRESHOLD_MULT = 3.0


def _comparison_size(n: int) -> int:
    """Points of the comparison grid on [0, T] over which ``_lepski_batch``
    integrates its distances, for n observations: one per observation, and
    at least 500."""
    return max(n, 500)


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


def _cell_edges(times: np.ndarray) -> np.ndarray:
    """Partition of [0, t_n] into one cell per observation, split at midpoints."""
    edges = np.empty(times.size + 1)
    edges[0] = 0.0
    edges[1:-1] = 0.5 * (times[:-1] + times[1:])
    edges[-1] = times[-1]
    return edges


def _rho(v: np.ndarray) -> np.ndarray:
    """max(round(v, 3), ``_RHO_MIN``) elementwise, with Python's ``round``."""
    q = np.round(v, 3)
    # np.round rounds v * 1000, which can land on a tie that v itself misses
    near = np.flatnonzero(np.abs(v * 1000.0 % 1.0 - 0.5) < 1e-6)
    q[near] = [round(t, 3) for t in v[near].tolist()]
    return np.maximum(q, _RHO_MIN)


def _supports(grid: np.ndarray, T: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of each point's kernel support in tau = (x - t)/lam.

    A point within lam of 0 gets [-1, rho] and one within lam of T (and not
    of 0) [-rho, 1], with rho its relative distance to that endpoint; every
    other point gets [-1, 1]. rho is quantized to the 1e-3 grid, floored at
    ``_RHO_MIN``. That no longer shares any exact build; it stays so that
    every row is the row of an exact kernel ``make_boundary_kernel`` builds,
    which the tests check the rows against, and so that the boundary
    estimates keep the kernels they had. The kernel varies smoothly in rho
    and vanishes at its support edge, so the quantization error is
    negligible against the estimation error.
    """
    lo, hi = np.full(grid.size, -1.0), np.ones(grid.size)
    left = grid < lam
    right = ~left & (T - grid < lam)
    hi[left] = _rho(grid[left] / lam)
    lo[right] = -_rho((T - grid[right]) / lam)
    return lo, hi


def _row_blocks(times: np.ndarray, T: float, grid: np.ndarray, j: int, L: int,
                lam: float, R: int = 1):
    """The band rows of q^(j) at the points of grid, a chunk of blocks at a time.

    Each point gets the kernel of its own support (``_supports``): the
    interior kernel, or within lam of an endpoint the boundary kernel of
    its relative distance. Their primitives come from one exact solve per L
    (``kernel_primitives``), in the support-centred variable u. Yields
    (rows, cells, D) per chunk: the grid indices of its blocks (blocks x
    ``_BAND_BLOCK_ROWS``, the last block padded with the last index, whose
    row it repeats) and the cells and weights ``_band_blocks`` yields, sized
    for R data columns.
    """
    lo, hi = _supports(grid, T, lam)
    P = kernel_primitives(L, j, lo, hi)
    rows = _blocked(np.arange(grid.size))
    for blk, cells, D in _band_blocks(times, grid, lam, j, P, (lo + hi) / 2, (hi - lo) / 2, R):
        yield rows[blk], cells, D


def _weight_matrix(times: np.ndarray, T: float, grid: np.ndarray, j: int, L: int,
                   lam: float) -> np.ndarray:
    """Design matrix W with (W @ y)[k] the estimate of q^(j) at grid[k],
    written from the blocks of ``_row_blocks``, one assignment per chunk."""
    grid = np.asarray(grid, dtype=float)
    W = np.zeros((grid.size, times.size))
    for rows, cells, D in _row_blocks(times, T, grid, j, L, lam):
        W[rows[:, :, None], cells[:, None, :]] = D
    return W


def _apply_rows(times: np.ndarray, T: float, grid: np.ndarray, j: int, L: int,
                lam: float, V: np.ndarray) -> np.ndarray:
    """``_weight_matrix(...) @ V`` without forming W: each chunk of
    ``_row_blocks`` reaches V's columns by one stacked product, so no array
    grows with grid.size * n. Equal to W @ V up to the rounding of another
    summation order."""
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.size, V.shape[1]))
    for rows, cells, D in _row_blocks(times, T, grid, j, L, lam, V.shape[1]):
        out[rows] = np.matmul(D, V[cells])
    return out


# Rows of one block of ``_band_blocks``; 8, 16 and 32 measured alike
_BAND_BLOCK_ROWS = 16

# Elements of the largest array of one chunk of blocks in ``_band_blocks``:
# 512 KB, so a chunk's arrays stay in cache; 2^18 and 2^20 were slower at
# one data column
_BAND_CHUNK = 1 << 16


def _horner(U: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The polynomials of coefficients P (lowest first along the last axis,
    which broadcasts against U) at U."""
    H = U * P[..., -1:]
    for i in range(P.shape[-1] - 2, -1, -1):
        H += P[..., i : i + 1]
        if i:
            H *= U
    return H


def _blocked(a: np.ndarray) -> np.ndarray:
    """a cut into blocks of ``_BAND_BLOCK_ROWS`` along its first axis, the
    last one padded with a[-1]."""
    pad = np.repeat(a[-1:], -len(a) % _BAND_BLOCK_ROWS, axis=0)
    return np.concatenate((a, pad)).reshape((-1, _BAND_BLOCK_ROWS) + a.shape[1:])


def _band_blocks(times: np.ndarray, x: np.ndarray, lam: float, j: int, P: np.ndarray,
                 c=0.0, h=1.0, R: int = 1):
    """Dense cell weights of kernels at the points x, a chunk of blocks at a time.

    Row k's kernel has the primitive of coefficients P[k] (lowest first) in
    u = (tau - c[k])/h[k], tau = (x[k] - t)/lam, on its support u in
    [-1, 1]. A 1-D P with scalars c and h serves every row, which saves
    the per-row broadcast; the selection passes the interior kernel's own
    primitive at c = 0, h = 1, where u is tau. Weight i of row k is lam^-j
    times that primitive differenced over the edges of cell i. Each block
    of rows (``_blocked``) covers the cells from its lowest point minus lam
    to its highest point plus lam, in one span of w cells common to all
    blocks, shifted left where it would run past cell n-1; so x need not
    be sorted. A row's cells outside its support clip to one support bound
    at both edges and weigh exactly 0.

    Yields (blk, cells, D) per chunk: the slice blk of the blocks, their
    cell indices (blocks x w) and the weights D (blocks x rows x w). A
    chunk keeps its weights, and R data columns gathered on its cells,
    within ``_BAND_CHUNK`` elements (or holds one block).
    """
    n = times.size
    edges = _cell_edges(times)
    xb = _blocked(x)
    # past lam by a rounding margin, so every cell the kernel reaches is kept
    reach = lam * (1.0 + 1e-6)
    lo = np.searchsorted(edges, xb.min(axis=1) - reach, side="right") - 1
    hi = np.searchsorted(edges, xb.max(axis=1) + reach, side="left") + 1
    lo, hi = np.maximum(lo, 0), np.minimum(hi, n + 1)
    span = int(np.max(hi - lo))  # edges of a block, one more than its cells
    first = np.minimum(lo, n + 1 - span)
    # u = (x - lam c - t) / (lam h); c = 0 and h = 1 give (x - t) / lam
    shared = P.ndim == 1
    x0 = _blocked(x - lam * c)[..., None]
    scale = lam * h if shared else _blocked(lam * h)[..., None]
    if not shared:
        P = _blocked(P)
    chunk = max(1, _BAND_CHUNK // (span * max(_BAND_BLOCK_ROWS, R)))
    for b0 in range(0, xb.shape[0], chunk):
        blk = slice(b0, b0 + chunk)
        idx = first[blk, None] + np.arange(span)
        U = x0[blk] - edges[idx][:, None, :]
        U /= scale if shared else scale[blk]
        np.clip(U, -1.0, 1.0, out=U)
        H = _horner(U, P if shared else P[blk])
        D = H[..., :-1] - H[..., 1:]
        D /= lam**j
        yield blk, idx[:, :-1], D


def _band_rows(times: np.ndarray, x: np.ndarray, lam: float, j: int, L: int,
               ker: SmoothingKernel, V: np.ndarray, moments: bool = True,
               out=np.empty) -> tuple[np.ndarray, np.ndarray | None]:
    """The band path's estimates and moment deviations, O(G (w + B n/G) deg K).

    Returns (estimates of V's columns at the points x, x.size x R; the
    deviations E, x.size x L, or None without ``moments``) from the block
    weights of ``_band_blocks`` with the kernel ``ker``; each chunk reaches
    V by one stacked product. E[k, m] is sum_i w_i(x_k) ((t_i - x_k)/lam)^m
    over the block's span in units of j!/lam^j, less 1 at m = j: the
    deviation from the kernel's defining moments in the level's own
    variable, which ``_moment_worst`` reads. The estimates are written into
    ``out(shape)``, a fresh array by default.
    """
    R = V.shape[1]
    xb = _blocked(x)
    est = out(xb.shape + (R,))
    E = np.empty(xb.shape + (L,)) if moments else None
    for blk, cells, D in _band_blocks(times, x, lam, j, ker.antiderivative(), R=R):
        np.matmul(D, V[cells], out=est[blk])
        if not moments:
            continue
        d = (times[cells][:, None, :] - xb[blk, :, None]) / lam
        P = D * (lam**j / math.factorial(j))
        for m in range(L):
            E[blk, :, m] = np.sum(P, axis=2)
            P *= d
    if moments:
        E = E.reshape(-1, L)[: x.size]
        E[:, j] -= 1.0
    return est.reshape(-1, R)[: x.size], E


class DesignWeights:
    """The band rows of one fixed observation design.

    A plain forwarder to the row-block builder that stores nothing between
    calls. ``apply`` evaluates the rows on data columns chunk by chunk, as
    the deconvolution pipeline does for every order; ``weight_matrix``
    returns the same rows as a dense grid.size x n matrix, which the
    pipeline never forms.
    """

    def __init__(self, times: np.ndarray, T: float):
        self.times = np.ascontiguousarray(times, dtype=float)
        self.T = float(T)

    def weight_matrix(self, j: int, L: int, lam: float, grid: np.ndarray) -> np.ndarray:
        return _weight_matrix(self.times, self.T, grid, j, L, lam)

    def apply(self, j: int, L: int, lam: float, grid: np.ndarray,
              V: np.ndarray) -> np.ndarray:
        """``weight_matrix(j, L, lam, grid) @ V`` (grid.size x R) without
        forming the matrix, up to the rounding of the summation order."""
        return _apply_rows(self.times, self.T, grid, j, L, lam, V)


def _check_windows(times: np.ndarray, grid: np.ndarray, lam: float) -> np.ndarray:
    """Count observations in the open window (t - lam, t + lam) per grid point."""
    lo = np.searchsorted(times, grid - lam, side="right")
    hi = np.searchsorted(times, grid + lam, side="left")
    return hi - lo


def check_bandwidth(times: np.ndarray, T: float, grid: np.ndarray, j: int,
                    lam: float) -> None:
    """ValueError unless 0 < lam <= T/2; EstimationError when a point of
    grid has no observation in its open window (x - lam, x + lam)."""
    if not (0.0 < lam <= T / 2):
        raise ValueError("bandwidth %g for j=%d outside (0, T/2]" % (lam, j))
    if np.any(_check_windows(times, grid, lam) == 0):
        raise EstimationError(
            "bandwidth %g leaves an empty observation window at some evaluation "
            "points; increase the bandwidth or the sample size" % lam
        )


def pc_estimate(data: NoisySample, j: int, L: int, lam: float, grid) -> DerivativeEstimate:
    """Weighted-sum estimate of q^(j) at the given bandwidth.

    Each value is a kernel-weighted combination of the observations, with the
    kernel swapped for the matching boundary variant within one bandwidth of
    either endpoint (``_supports``). Every row's kernel primitive comes from
    ``kernel_primitives``, one exact solve per L, so no exact kernel is
    built per point. The map y -> estimate is exactly linear. The weight
    rows are applied to the observations a chunk of rows at a time
    (``_apply_rows``); no grid.size x n matrix is formed. ValueError
    unless 0 <= j < L.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    check_bandwidth(data.times, data.T, grid, j, lam)
    values = _apply_rows(data.times, data.T, grid, j, L, lam, data.values[:, None])[:, 0]
    return DerivativeEstimate(
        j=j, grid=grid, values=values, bandwidth=float(lam), kernel_order=L
    )


def _widest_gap(times: np.ndarray, T: float) -> tuple[float, float, float]:
    """(start, end, need) of the stretch of [0, T] that needs the largest lam
    for every point to see an observation within lam: half a gap between
    observations, all of [0, t_1] or [t_n, T]. No lam <= need is admissible."""
    pts = np.concatenate(([0.0], times, [T]))
    need = np.diff(pts) / 2
    need[0] *= 2
    need[-1] *= 2
    i = int(np.argmax(need))
    return float(pts[i]), float(pts[i + 1]), float(need[i])


def _no_level_reason(times: np.ndarray, T: float, levels: np.ndarray,
                     checked: float | None) -> str:
    """Why no bandwidth level reached the moment check in ``_lepski_batch``.

    A level is tested only when it fits in T/2 and leaves two comparison
    points in its interior zone [lam, T - lam]; ``checked`` is the largest
    level that did (None when none did); every tested level then met an empty
    observation window, so ``_widest_gap``'s need is at least ``checked``.
    """
    if levels[-1] > T / 2:
        return "every level of the grid, from %g down to %g, exceeds T/2 = %g" % (
            levels[0], levels[-1], T / 2)
    if checked is None:
        return ("the comparison grid of %d points leaves fewer than two points in "
                "the interior zone [lam, T - lam] of every level up to T/2 = %g"
                % (_comparison_size(times.size), T / 2))
    start, end, need = _widest_gap(times, T)
    return ("the widest design gap, from t=%g to t=%g, needs a bandwidth above %g, "
            "and the largest level tested (within T/2 = %g and the comparison "
            "grid) is %g" % (start, end, need, T / 2, checked))


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros(x.size)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def _moment_worst(E: np.ndarray, x: np.ndarray, lam: float, j: int, T: float) -> float:
    """The larger of two readings of the moment deviations E (x.size x L).

    One is max |e_m| itself. The other carries e to the monomial probes
    (t/T)^m on [0, T], whose estimated j-th derivative errs by
    j!/T^j * sum_p C(m, p) (x/T)^(m-p) (lam/T)^(p-j) e_p: moments below j
    are amplified by (T/lam)^(j-p) there. Each probe error is measured
    against its probe's own scale, floored at the generic output scale
    j!/T^j.
    """
    worst = float(np.max(np.abs(E)))
    u = x / T
    for m in range(E.shape[1]):
        err = sum(math.comb(m, p) * (lam / T) ** (p - j) * u ** (m - p) * E[:, p]
                  for p in range(m + 1))
        scale = 1.0
        if m >= j:
            scale = max(math.comb(m, j) * float(np.max(u)) ** (m - j), 1.0)
        worst = max(worst, float(np.max(np.abs(err))) / scale)
    return worst


# A single-column level is estimated by windowed prefix sums
# (``_windowed_rows``) when its widest observation window holds more than
# this many observations per degree of the kernel; narrower levels keep the
# band rows, which are cheaper there. For L = 8 that is 60 (even j) or 66
# (odd j) observations; ``_probe_level`` scales it with the column count.
_WINDOW_OBS_PER_DEGREE = 6

# Elements of the largest array of one chunk of blocks in ``_windowed_rows``:
# 2 MB. At n = 1000-4000, 2^19 and 2^20 gave first selections alike and
# repeats up to 6% faster, but 1.8x and 3.2x the traced peak of an estimate
_WINDOW_CHUNK = 1 << 18


def _windowed_rows(times: np.ndarray, x: np.ndarray, lam: float, j: int, L: int,
                   ker: SmoothingKernel, V: np.ndarray, moments: bool = True,
                   out=np.empty) -> tuple[np.ndarray, np.ndarray | None]:
    """``_band_rows``' estimates and moment deviations, O((n + G) deg K) per column.

    The columns are V's R data columns and, when ``moments`` is set, L
    moment columns.

    Returns (estimates of V's columns at the sorted points x, x.size x R;
    the deviations E, x.size x L, that ``_band_rows`` forms from the block
    weights, or None without ``moments``). x must lie in the interior zone
    [lam, T - lam], where ``ker`` is the only kernel.
    With cell edges e_k, P the kernel primitive and y_-1 = y_n = 0,
    summation by parts turns a band row into
    lam^-j [P(1) y_(a-1) + sum_{a <= k < b} P((x - e_k)/lam) (y_k - y_(k-1))]
    over the edges e_a .. e_(b-1) inside (x - lam, x + lam). The points are
    cut into blocks less than lam/4 wide, each anchored at its first point
    c. For a fixed edge, P((x - e_k)/lam) is a polynomial of degree deg P
    in the offset (x - c)/lam, so the prefix sums along the block's edges
    are too: they are formed at deg P + 1 Chebyshev nodes of [0, 1/4], with
    P evaluated directly (Horner, arguments within 1.25 of 0), and each
    point reads its window as the difference of two prefix sums,
    interpolated barycentrically. Expanding P in powers of the offset
    instead would lose up to six digits at j = 5. The moment deviations
    run the same plan on the columns ((t - c)/lam)^q, q < L, and are
    re-centred at x by the binomial theorem. They are summed in arrays of
    their own over the same chunks of blocks, so the estimates are the same
    to the bit with or without them.
    A chunk takes as many blocks as keep each of its arrays within
    ``_WINDOW_CHUNK`` elements (or one block): per block, the prefix sums F
    of ``_window_sums`` hold at most span edges by deg P + 1 nodes by
    max(R, L) columns, and the sums gathered at the window ends F[hi] and
    F[lo] as many rows as the block has points, so a block counts
    max(span, points) * (deg P + 1) * max(R, L) elements; P at the nodes
    and the gathered columns are smaller. Every point is summed within its
    own block, so the chunking changes no bit. The estimates are written
    into ``out(shape)``, as in ``_band_rows``.
    """
    n, G, R = times.size, x.size, V.shape[1]
    edges = _cell_edges(times)
    prim = ker.antiderivative()
    nodes_n = prim.size
    p_one = float(_horner(np.ones(1), prim)[0])
    d = np.arange(nodes_n)
    nodes = 0.125 * (1.0 - np.cos((2 * d + 1) * math.pi / (2 * nodes_n)))
    bary = (-1.0) ** d * np.sin((2 * d + 1) * math.pi / (2 * nodes_n))
    dY = np.diff(np.vstack((np.zeros((1, R)), V, np.zeros((1, R)))), axis=0)
    Vlo = np.vstack((np.zeros((1, R)), V))  # row a is y_(a-1)
    a = np.searchsorted(edges, x - lam, side="right")
    b = np.searchsorted(edges, x + lam, side="left")
    blk = np.floor((x - x[0]) / (0.25 * lam)).astype(int)
    starts = np.flatnonzero(np.diff(blk, prepend=-1))
    stops = np.append(starts[1:], G)
    est = out((G, R))
    E = np.empty((G, L)) if moments else None
    span = int(np.max(b[stops - 1] - a[starts])) + 1
    # a block adds at most span edges and its points to a chunk's arrays;
    # the chunks do not depend on ``moments``
    per_block = max(span, int(np.max(stops - starts))) * nodes_n * max(R, L)
    chunk = max(1, _WINDOW_CHUNK // per_block)
    for s0 in range(0, starts.size, chunk):
        first, last = starts[s0 : s0 + chunk], stops[s0 : s0 + chunk]
        c = x[first]
        A = a[first]
        width = int(np.max(b[last - 1] - A))
        K = A[:, None] + np.arange(width)
        K[K >= b[last - 1][:, None]] = n + 1  # past the block's windows
        Kc = np.minimum(K, n)
        v = (edges[Kc] - c[:, None]) / lam
        Pv = _horner(nodes[None, None, :] - v[:, :, None], prim)
        Pv[K > n] = 0.0
        pts = np.arange(first[0], last[-1])
        bi = np.repeat(np.arange(first.size), last - first)
        delta = (x[pts] - c[bi]) / lam
        off = delta[:, None] - nodes
        hit = off == 0.0
        off[hit] = 1.0
        ell = bary / off
        rows = np.any(hit, axis=1)
        ell[rows] = hit[rows]
        ell /= np.sum(ell, axis=1, keepdims=True)
        ends = (bi, b[pts] - A[bi]), (bi, a[pts] - A[bi])
        # the edges left of the window all sit at P(1)
        ap = a[pts]
        M = _window_sums(Pv, dY[Kc], ell, *ends)
        M += p_one * Vlo[ap]
        est[pts] = M / lam**j
        if not moments:
            continue
        # differenced moment columns ((t - c)/lam)^q at each edge
        hi = (times[np.minimum(K, n - 1)] - c[:, None]) / lam
        lo = (times[np.clip(K - 1, 0, n - 1)] - c[:, None]) / lam
        cols = _powers(hi, L, K < n) - _powers(lo, L, K >= 1)
        M = _window_sums(Pv, cols, ell, *ends)
        base = (times[np.maximum(ap - 1, 0)] - c[bi]) / lam
        M += p_one * _powers(base, L, ap >= 1)
        # re-centre at x: ((t - x)/lam)^m = sum_q C(m, q) ((t - c)/lam)^q (-delta)^(m-q)
        shift = _powers(-delta, L, True)
        Mq = M / math.factorial(j)
        for m in range(L):
            E[pts, m] = sum(math.comb(m, p) * shift[:, m - p] * Mq[:, p] for p in range(m + 1))
    if moments:
        E[:, j] -= 1.0
    return est, E


def _window_sums(Pv: np.ndarray, cols: np.ndarray, ell: np.ndarray, hi: tuple,
                 lo: tuple) -> np.ndarray:
    """Each point's interpolated sum of P((x - e_k)/lam) times the differenced
    columns over its window, for one chunk of ``_windowed_rows``.

    Pv holds P at the interpolation nodes (blocks x edges x nodes), cols the
    differenced columns at the same edges (blocks x edges x C), ell each
    point's barycentric weights (points x nodes); hi and lo index a point's
    block and its window's end and start in the prefix sums.
    """
    F = np.empty((Pv.shape[0], Pv.shape[1] + 1, Pv.shape[2], cols.shape[-1]))
    F[:, 0] = 0.0
    np.multiply(Pv[..., None], cols[:, :, None, :], out=F[:, 1:])
    np.cumsum(F, axis=1, out=F)
    return np.einsum("gd,gdc->gc", ell, F[hi] - F[lo])


def _powers(s: np.ndarray, L: int, keep) -> np.ndarray:
    """s^q for q < L along a new last axis, zero where ``keep`` is False."""
    out = np.empty(s.shape + (L,))
    out[..., 0] = np.where(keep, 1.0, 0.0)
    for q in range(1, L):
        np.multiply(out[..., q - 1], s, out=out[..., q])
    return out


# Designs whose level facts ``_design_facts`` keeps, least recently used out
# first. The benchmark's large-n workload cycles through four designs (their
# facts take about 0.2 MB), and the simulation table has two.
_DESIGN_CAP = 8


@dataclass
class _Level:
    """Design-only facts of one bandwidth level on the comparison grid.

    obs is the observation count of the widest comparison window, 0 when
    the window of some point of [0, T] holds none; rel maps
    a probe path, "band" or "windowed", to the moment error it found.
    """

    obs: int
    rel: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=_DESIGN_CAP)
def _design_store(times_bytes: bytes, T: float) -> dict:
    """The dict of level facts of one design, kept by ``functools.lru_cache``."""
    return {}


def _design_facts(times: np.ndarray, T: float) -> dict:
    """The level facts stored for the design (times, T): (j, L, lam) -> ``_Level``.

    The design is keyed by the bytes of times and by T, so a change of one
    time by one ulp or of T starts an empty dict; hashing the bytes is the
    one pass over the design a call makes, and a copy of them (8 bytes per
    observation) is kept with the facts. ``_design_store`` keeps at most
    ``_DESIGN_CAP`` designs, least recently used out first. Two concurrent
    first calls on one design may each fill a dict of their own; the facts
    are deterministic functions of the design, so the store changes no
    result, only whether a fact is computed or read.
    """
    return _design_store(np.ascontiguousarray(times, dtype=float).tobytes(), float(T))


def _open_windows(times: np.ndarray, x: np.ndarray, lam: float, T: float) -> int:
    """Observations in the widest window (t - lam, t + lam) over the points
    x, or 0 when the window of some point of [0, T] holds none, which is
    when lam is at most ``_widest_gap``'s need. The need is exact: a grid
    of points x would miss an empty window that falls between two of them."""
    if lam <= _widest_gap(times, T)[2]:
        return 0
    return int(np.max(_check_windows(times, x, lam)))


def _probe_path(obs: int, L: int, ker: SmoothingKernel, R: int) -> str:
    """"windowed" when the cost rule of ``_probe_level`` picks the windowed
    prefix sums for a level whose widest window holds obs observations."""
    deg = ker.degree
    if obs * (1 + L + deg) > _WINDOW_OBS_PER_DEGREE * deg * (R + L + deg):
        return "windowed"
    return "band"


def _probe_level(times: np.ndarray, x: np.ndarray, lam: float, j: int, L: int,
                 T: float, ker: SmoothingKernel, V: np.ndarray, tol: float,
                 level: _Level, out=np.empty):
    """Moment error of one level on the comparison points x, and its
    estimates of V's columns there when that error is within tol (else None).

    The cheaper of two paths computes them. The band rows
    (``_band_rows``) form every block's dense weights at about
    G * (w + B n/G) * deg K for G points, w observations in the widest
    window and blocks of B = ``_BAND_BLOCK_ROWS`` rows, plus
    G * (w + B n/G) * L for the moment sums, and reach V's R columns by
    one stacked product per chunk of blocks, whose share of that stays
    small, so their cost hardly grows with R. Windowed prefix sums
    (``_windowed_rows``) cost about (n + G) per column and step over
    R + L + deg K of them: the data, the moment columns and the Horner
    steps of the primitive. So the
    single-column switch, w > 6 deg K (``_WINDOW_OBS_PER_DEGREE``), is
    scaled by (R + L + deg K) / (1 + L + deg K): for L = 8 and R = 100 a
    level goes windowed from 373 (even j) or 393 (odd j) observations on.

    ``level`` holds the level's design-only facts (``_design_facts``); it
    is read first and completed here. When it holds the moment error of
    the chosen path, that error is not formed again: a level beyond tol
    returns at once, and either path sums the R data columns only. On a
    first probe both paths form the estimates together with the moment
    error, also for a level that then fails it. The estimates are the same
    to the bit either way; they are written into ``out(shape)``.
    """
    path = _probe_path(level.obs, L, ker, V.shape[1])
    rel = level.rel.get(path)
    if rel is not None and rel > tol:
        return rel, None
    rows = _windowed_rows if path == "windowed" else _band_rows
    est, E = rows(times, x, lam, j, L, ker, V, moments=rel is None, out=out)
    if rel is None:
        rel = level.rel[path] = _moment_worst(E, x, lam, j, T)
    return rel, (est if rel <= tol else None)


# Floats of selection workspace (``_Workspace``) a thread keeps between
# ``_lepski_batch`` calls: 64 MB. The benchmark's mc-cells workload (n = 250,
# 100 columns) needs 0.75M of them, a single column at n = 8000 0.27M
_WORKSPACE_KEEP = 1 << 23


class _Workspace:
    """A bump allocator of float arrays over one buffer, for one
    ``_lepski_batch`` call at a time on one thread.

    ``take`` hands out the next ``math.prod(shape)`` floats of the buffer
    as an array of that shape, or a fresh array once the buffer is used
    up; ``top`` is the floats handed out so far and ``high`` its largest
    value in the call. Setting ``top`` back to an earlier value gives what
    was taken since then back, for the caller to reuse.
    """

    def __init__(self):
        self.buf = np.empty(0)
        self.top = self.high = 0

    def take(self, shape) -> np.ndarray:
        start = self.top
        self.top += math.prod(shape)
        self.high = max(self.high, self.top)
        if self.top > self.buf.size:
            return np.empty(shape)
        return self.buf[start : self.top].reshape(shape)


_THREAD = threading.local()


@contextlib.contextmanager
def _workspace():
    """The calling thread's ``_Workspace``, empty, for one selection.

    A thread keeps its workspace between calls. When the last call
    overflowed the buffer, it is replaced by one buffer of that call's
    high-water size; when a call needs more than ``_WORKSPACE_KEEP`` floats,
    the thread drops the workspace at its end, as it would drop fresh
    arrays.
    """
    ws = getattr(_THREAD, "workspace", None)
    if ws is None:
        ws = _THREAD.workspace = _Workspace()
    elif ws.high > ws.buf.size:
        ws.buf = None  # freed before its successor is allocated
        ws.buf = np.empty(ws.high)
    ws.top = ws.high = 0
    try:
        yield ws
    finally:
        if ws.high > _WORKSPACE_KEEP:
            del _THREAD.workspace


def _lepski_batch(times: np.ndarray, T: float, V: np.ndarray, sigma: float,
                  j: int, L: int):
    """Adaptive bandwidth per column of the observation matrix V (n x R).

    Returns (lam_hat (R,), selected_index (R,), details dict). Admissibility
    of a bandwidth level is a property of the design alone: the level must
    fit in half the interval, every comparison-grid window in its interior
    zone must contain an observation, and the design weights there must
    meet the kernel's moment conditions in the level's own variable,
    sum_i w_i(x) ((t_i - x)/lam)^m = delta_mj j!/lam^j for m < L, both at
    that scale and as carried to the monomials (t/T)^m on [0, T], within
    ``_PROBE_TOL`` (see ``_band_rows`` and ``_moment_worst``). Only levels
    that pass it are applied to V. When no level passes, the least-biased
    one (the smallest such error) is the only admissible level and
    ``details["fallback"]`` is "least_biased"; otherwise it is None.
    Distances between estimates are integrated over the interior zone of
    the larger bandwidth, where neither estimate is boundary-affected, against
    ``_THRESHOLD_MULT`` * C^2 sigma^2 T^2 / (n h^(2j+1)) with C = ||K_j||
    (``details["C"]``), the paper's mu ||K_j|| at mesh ratio mu = 1; a
    constant c as C would select as ``_THRESHOLD_MULT`` * c^2 / ||K_j||^2
    does. The probe tolerance and the comparison grid of max(n, 500)
    points (``_comparison_size``) are fixed too.

    A level's comparison-grid estimates and moment check are computed one
    of two ways, chosen by ``_probe_level`` by a cost rule in the
    observation count of its widest window and the column count R. Narrow
    levels read the band rows their estimates are formed from
    (``_band_rows``): dense weights of blocks of B points, formed at
    O(G * (w + B n/G)) for G interior points and w observations per band,
    and applied to V by one stacked product per chunk of blocks,
    O(G * (w + B n/G) * R) at BLAS speed. Wide levels
    use windowed prefix sums (``_windowed_rows``) at O(n + G) per column:
    their estimates agree with the band rows' to about 1e-12 of a row's
    sum of |w_i| |y_i|, and their moment errors to about 1e-7 relative or
    better, the band rows' own rounding, so the same levels are admitted
    and selected. The final evaluation on the output grid always uses the band
    rows, applied to the data chunk by chunk (``DesignWeights.apply``).

    The design-only facts of each probed level are kept per design
    (``_design_facts``: keyed by the bytes of times and by T,
    at most ``_DESIGN_CAP`` = 8 designs) and per (j, L, lam): whether every
    window sees an observation, the widest window's observation count, and
    the moment error per path. A repeated call on the same design, as in
    every Monte-Carlo replication of a cell, reads them: a level that failed
    is skipped, and one that passed is only applied to V, with no moment
    sums. A first call computes and stores them, so a single cold call
    gains nothing and pays one hash of the design. The facts do not
    depend on V and the estimates are the same to the bit either way, so
    the store never changes a result. The level loop stops at the first
    level with an empty window: as lam falls every window shrinks and the
    comparison points only grow, so no smaller level can see an observation
    in all of them. ``details["levels_probed"]`` counts the levels that
    reached the window check, up to and including that first empty one,
    and ``details["levels_reused"]`` those of them whose facts all came
    from the store.

    The comparisons run candidate by candidate, largest level first. Each
    candidate's squared differences (Ec - Eh)^2 against every smaller
    admissible level are formed in one buffer, sized for the largest
    candidate and reused for every pair of levels: ``np.subtract`` and
    ``np.square`` into it, then one product with the trapezoid weights.
    These are the operations of ``tw @ (Ec - Eh) ** 2`` in the same order,
    so the distances are the same to the bit, without two new arrays per
    pair of levels.

    The comparison estimates of every probed level and that buffer come
    from a workspace the calling thread keeps between calls (``_workspace``,
    a bump allocator over one float buffer), so repeated selections, as in
    the Monte-Carlo replications of a table, reuse the same memory instead
    of asking the allocator for fresh pages. A level that fails the moment
    check gives its space back to the next level. The workspace is emptied
    at the start of each call; when a call needed more than its buffer, the
    rest came from fresh arrays and the next call starts with one buffer of
    that call's high-water size. A call that needs more than
    ``_WORKSPACE_KEEP`` floats (64 MB) leaves no workspace behind. The
    estimates are written by the same operations into the workspace as
    into fresh arrays, and none of the workspace is returned, so it changes
    no result.
    """
    n = times.size
    levels = BandwidthGrid.build(j, n, sigma, T).levels
    cgrid = np.linspace(0.0, T, _comparison_size(n))
    ker = make_kernel(L, j)
    C = math.sqrt(ker.norm2)

    facts = _design_facts(times, T)
    R = V.shape[1]
    spans: list[tuple[int, int] | None] = [None] * levels.size
    estimates: list[np.ndarray | None] = [None] * levels.size
    best_bad = None
    checked = None
    probed = reused = 0
    with _workspace() as ws:
        for li, lam in enumerate(levels):
            if lam > T / 2:
                continue
            i0 = int(np.searchsorted(cgrid, lam - 1e-12, side="left"))
            i1 = int(np.searchsorted(cgrid, T - lam + 1e-12, side="right"))
            if i1 - i0 < 2:
                continue
            if checked is None:
                checked = float(lam)
            probed += 1
            level = facts.get((j, L, float(lam)))
            if level is None:
                # windows must be nonempty on the whole interval, endpoints
                # included, so that the selected level remains usable on a
                # full [0, T] grid
                level = facts.setdefault((j, L, float(lam)),
                                         _Level(_open_windows(times, cgrid[i0:i1], lam, T)))
            elif not level.obs or _probe_path(level.obs, L, ker, R) in level.rel:
                reused += 1
            if not level.obs:
                break
            mark = ws.top
            rel, est = _probe_level(times, cgrid[i0:i1], lam, j, L, T, ker, V, _PROBE_TOL,
                                    level, ws.take)
            if est is not None:
                spans[li] = (i0, i1)
                estimates[li] = est
            else:
                ws.top = mark  # the level failed: its estimates are not kept
                if best_bad is None or rel < best_bad[0]:
                    best_bad = (rel, li, (i0, i1))
        admissible = [i for i, s in enumerate(spans) if s is not None]
        fallback = None
        if not admissible and best_bad is not None:
            # No level meets the moment conditions (coarse designs at high j);
            # estimating at the least-biased level beats refusing outright.
            _, li, (i0, i1) = best_bad
            spans[li] = (i0, i1)
            estimates[li] = _probe_level(times, cgrid[i0:i1], levels[li], j, L, T, ker, V,
                                         math.inf, facts[(j, L, float(levels[li]))],
                                         ws.take)[1]
            admissible = [li]
            fallback = "least_biased"
        if not admissible:
            raise EstimationError("no admissible bandwidth level for j=%d: %s" % (
                j, _no_level_reason(times, T, levels, checked)))

        selected = np.full(R, -1, dtype=int)
        noise_scale = _THRESHOLD_MULT * C * C * sigma * sigma * T * T / n
        # one buffer of the largest candidate's size; the smallest level has
        # nothing smaller to be compared with and takes the undecided columns
        diff = ws.take((max((estimates[ci].size for ci in admissible[:-1]), default=0),))
        for ci in admissible[:-1]:
            ok = selected < 0
            if not np.any(ok):
                break
            i0c, i1c = spans[ci]
            Ec = estimates[ci]
            tw = _trapezoid_weights(cgrid[i0c:i1c])
            diff2 = diff[: Ec.size].reshape(Ec.shape)
            for hi in admissible:
                if hi <= ci:
                    continue
                h = levels[hi]
                i0h, _ = spans[hi]
                Eh = estimates[hi][i0c - i0h : i1c - i0h]
                np.subtract(Ec, Eh, out=diff2)
                np.square(diff2, out=diff2)
                dist2 = tw @ diff2
                ok &= dist2 <= noise_scale / h ** (2 * j + 1)
                if not np.any(ok):
                    break
            selected[ok & (selected < 0)] = ci
        selected[selected < 0] = admissible[-1]
    lam_hat = levels[selected]
    details = {
        "levels": levels,
        "admissible": admissible,
        "selected_index": selected,
        "C": C,
        "hmin": (sigma * sigma * T * T / n) ** (1.0 / (2 * j + 1)),
        "comparison_grid_size": _comparison_size(n),
        "fallback": fallback,
        "levels_probed": probed,
        "levels_reused": reused,
    }
    return lam_hat, selected, details


def lepski_select(data: NoisySample, j: int, L: int, *, return_details: bool = False):
    """Largest admissible bandwidth whose estimate stays within the
    noise-level threshold of every smaller admissible estimate on the grid.

    A level is admissible when its design weights meet the kernel's moment
    conditions at the level's own scale within ``_PROBE_TOL``. When no
    level is admissible, the least-biased level (the one that misses the
    moment conditions least) is used and ``details["fallback"]`` reads
    "least_biased". The smallest admissible level has nothing smaller to
    be compared with, so it is selected when no larger level passes. The
    grid ratio (``_GRID_RATIO``) and the threshold multiplier
    (``_THRESHOLD_MULT``) are fixed.
    Admissibility is read from a store of design facts when the same
    design (times and T) was selected on before, among the last 8 designs;
    that saves time on repeated calls only and never changes the result
    (see ``_lepski_batch``).
    """
    lam_hat, _, details = _lepski_batch(
        data.times, data.T, data.values[:, None], data.sigma, j, L
    )
    lam = float(lam_hat[0])
    if return_details:
        return lam, details
    return lam


def estimate_derivative(data: NoisySample, j: int, L: int, grid=None) -> DerivativeEstimate:
    """Adaptive-bandwidth estimate of q^(j): select, then evaluate."""
    if grid is None:
        grid = np.linspace(0.0, data.T, DEFAULT_GRID_SIZE)
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
