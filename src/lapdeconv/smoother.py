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
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import make_kernel

__all__ = [
    "AdaptationError",
    "DerivativeEstimate",
    "EstimationError",
    "NoisySample",
    "RowStore",
    "apply_rows",
    "check_bandwidth",
    "check_integer",
    "estimate_derivative",
    "estimate_sigma",
    "lepski_select",
    "pc_estimate",
]

# Ratio a of the geometric bandwidth grid (``_admissible``); a finite
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
        _check_times(times, self.T)
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be a nonnegative finite number")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def n(self) -> int:
        return self.times.size


def _check_times(times, T: float) -> np.ndarray:
    """times as a float array; ValueError unless it is 1-D, finite,
    nondecreasing and in [0, T], up to a rounding margin of 1e-12 T at T."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D array, not one of shape %s" % (times.shape,))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be sorted in increasing order")
    if times.size and (times[0] < 0 or times[-1] > T * (1 + 1e-12)):
        raise ValueError("times must lie in [0, T] = [0, %g]" % T)
    return times


def check_integer(value, name: str) -> int:
    """value as an int; ValueError naming it unless it is an integer, a
    numpy one included, and not a bool."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, not %r" % (name, value))
    return int(value)


def _grid_depth(j: int, n: int, sigma: float, T: float) -> int:
    """Grid depth J = floor(log_a(n / (sigma^2 T^2)) / (2j+1)), clamped at 0,
    with a = ``_GRID_RATIO``.

    Raises AdaptationError when sigma^2 T^2 >= n (the depth formula turns
    nonpositive) or when sigma == 0, sigma^2 T^2 underflows to 0 or
    n / (sigma^2 T^2) overflows (it diverges): in either case the caller
    must supply a fixed bandwidth instead of adapting.
    """
    check_integer(j, "derivative order j")
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


class _Targets(NamedTuple):
    """What ``_rows_at`` needs of a stack of points beside their offsets,
    formed once per call (``_targets``); ``take`` slices it by the
    leading axes, as a chunk of the points needs it."""

    orders: tuple  # the derivative orders, one column of rhs each
    mid: np.ndarray  # ... x 1: the centre of each point's support
    half: np.ndarray  # ... x 1: its half width
    rhs: np.ndarray  # ... x L x len(orders): the Gram solve's right-hand sides
    cut: np.ndarray  # ...: whether the support is other than [-1, 1]

    def take(self, at) -> _Targets:
        return _Targets(self.orders, self.mid[at], self.half[at], self.rhs[at], self.cut[at])


def _targets(lo: np.ndarray, hi: np.ndarray, lam: float | np.ndarray, L: int,
             orders) -> _Targets:
    """The targets of ``_rows_at`` at points whose supports are [lo, hi]
    (... x 1) at bandwidth lam, for each order j of orders: each support's
    centre mid and half width half, whether it is cut (other than
    [-1, 1]), and Q e, Q the basis of ``_orthonormal`` and e_k the j-th
    derivative of u^k at the point, u0 = -mid/half, over (lam half)^j, as
    d/dt = d/du / (lam half). A lone order is solved as two identical
    columns, (j, j): numpy's one-column solve and products round apart from
    its many-column ones, which agree bit for bit, so an order's rows are
    the same bits whichever orders are built beside it."""
    orders = tuple(orders) * (2 if len(orders) == 1 else 1)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    u0 = -mid / half
    E = np.zeros(u0.shape[:-1] + (L, len(orders)))
    for q, j in enumerate(orders):
        for k in range(j, L):
            E[..., k, q] = math.perm(k, j) * u0[..., 0] ** (k - j)
        E[..., q] /= (lam * half) ** j
    cut = (lo != -1.0)[..., 0] | (hi != 1.0)[..., 0]
    return _Targets(orders, mid, half, np.matmul(_orthonormal(L), E), cut)


def _rows_at(d: np.ndarray, targets: _Targets, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """Local-polynomial weight rows of each order of targets at a stack of points.

    d (... x S) holds (t - x)/lam for the observations a point may see, and
    targets (``_targets``) the points' supports, [max(-1, -x/lam),
    min(1, (T - x)/lam)], and orders; d is overwritten. In u = (d - mid)/half,
    the support's centred variable (u = d when every support is [-1, 1]),
    the envelope (d - lo)^2 (hi - d)^2 is half^4 v with v = (1 - u^2)^2
    strictly inside the support and 0 outside (half^4 is dropped: no row
    depends on the envelope's scale). With U the values p_k(u_i) of the
    orthonormal basis of ``_orthonormal``, the row of order j is
    w = v o (U^T c), where A c = e for the Gram A = U diag(v) U^T and
    e_k = d^j/dt^j p_k(u(t)) at t = x, so that Q e is targets.rhs. Then
    sum_i w_i P(t_i) = P^(j)(x) for every polynomial P of degree below L,
    and A, which does not depend on j, is solved once for every order. U
    carries sqrt(v) = 1 - u^2 on each side, so A is one product. Returns
    ... x len(orders) x S, written into out when given; work, a float
    array of at least 2 L d.size elements, holds the powers of u and the
    basis values when given. A singular Gram raises LinAlgError whose
    argument is the index of the first one.
    """
    L = targets.rhs.shape[-2]
    u = d
    if targets.cut.any():
        u -= targets.mid
        u /= targets.half
    # the powers s u^k, k < L, each one contiguous slab, then the basis
    # values by one product with Q; Ut views them point by point
    size = L * u.size
    if work is None:
        work = np.empty(2 * size)
    powers = work[:size].reshape((L,) + u.shape)
    Us = work[size : 2 * size].reshape(powers.shape)
    s = powers[0]
    np.multiply(u, u, out=s)
    np.subtract(1.0, s, out=s)
    np.maximum(s, 0.0, out=s)
    for k in range(1, L):
        np.multiply(powers[k - 1], u, out=powers[k])
    np.matmul(_orthonormal(L), powers.reshape(L, -1), out=Us.reshape(L, -1))
    Ut = Us.transpose(tuple(range(1, u.ndim)) + (0, u.ndim))
    A = np.matmul(Ut, np.swapaxes(Ut, -1, -2))
    try:
        C = np.linalg.solve(A, targets.rhs)
    except np.linalg.LinAlgError:
        # the stacked solve does not say which matrix failed: one at a time,
        # by the LU of A alone, which the right-hand side does not enter
        for k in np.ndindex(A.shape[:-2]):
            try:
                np.linalg.solve(A[k], targets.rhs[k])
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(k) from None
        raise
    W = np.matmul(np.swapaxes(C, -1, -2), Ut, out=out)
    W *= s[..., None, :]
    return W


# Points of one block of ``_apply_rows``: they share one span of observations
_BLOCK_ROWS = 16

# Elements of the basis array of one chunk of blocks in ``_apply_rows``
# (blocks x rows x L x span): 1 MB. 2^16 to 2^18 measured alike in time;
# 2^18 raised the peak of the benchmark's in-process workloads by 4 MB
_ROW_CHUNK = 1 << 17

# Bytes of rows one ``RowStore`` keeps; a bandwidth whose rows pass them streams
_ROW_KEEP = 32 << 20


class RowStore:
    """Output-grid rows kept across ``apply_rows`` calls on one design.

    A caller that applies the rows of one design (times, T, L and grid) to
    several data matrices passes one store to each call. At each bandwidth,
    the first call whose rows, for every order of ``orders``, fit in what
    is left of ``_ROW_KEEP`` bytes builds them whole, applies them and
    keeps them; every later call applies them without a build. A
    bandwidth that does not fit is built for the call's orders and dropped
    once applied, as without a store. The store is bound to the design of
    its first call and refuses another; it lives as long as its owner
    keeps it.
    """

    def __init__(self, orders):
        self.orders = tuple(sorted({check_integer(j, "derivative order j") for j in orders}))
        self.nbytes = 0
        self._design = None
        # bandwidth -> rows (blocks x rows x orders x span) of every block
        self._rows = {}

    def _bind(self, times: np.ndarray, T: float, L: int, grid: np.ndarray) -> None:
        """ValueError unless the store's orders are below L and it is
        unused or was first used on this design."""
        if self._design is None:
            if self.orders and not (0 <= self.orders[0] and self.orders[-1] < L):
                raise ValueError("the RowStore's orders %s are not all in [0, L) for L=%d"
                                 % (list(self.orders), L))
            self._design = (times.copy(), T, L, grid.copy())
            return
        t0, T0, L0, g0 = self._design
        if not (T == T0 and L == L0 and np.array_equal(times, t0)
                and np.array_equal(grid, g0)):
            raise ValueError("a RowStore serves the design of its first call only")


def _blocked(a: np.ndarray) -> np.ndarray:
    """a cut into blocks of ``_BLOCK_ROWS`` along its first axis, the
    last one padded with a[-1]."""
    pad = np.repeat(a[-1:], -len(a) % _BLOCK_ROWS, axis=0)
    return np.concatenate((a, pad)).reshape((-1, _BLOCK_ROWS) + a.shape[1:])


def _apply_rows(times: np.ndarray, T: float, x: np.ndarray, lam: float, L: int,
                V: np.ndarray, orders, store: RowStore | None = None) -> dict:
    """{j: the order-j estimates at the points x of every column of V} for
    each j of the sorted orders, from one Gram per point (``_rows_at``).

    x may be unsorted. The sorted points are cut into blocks
    (``_blocked``); each block sees one span of observations, common in
    length to every block: from the first observation inside its lowest
    point's window (x - lam, x + lam) to the last inside its highest
    point's, shifted left where it would run past the last observation.
    The rows are formed a chunk of blocks at a time: each point's support
    and the right-hand sides of its Gram solve (``_targets``) once per call,
    the chunk's offsets, powers, basis values and rows in arrays of one
    chunk's size, allocated once per call and written by every chunk in
    turn. Each chunk reaches V on its observations by one product per order
    (one of several orders' rows rounds by its row count), so an order's
    estimates are the same bits whichever orders are applied beside it; they
    fill an order-major buffer in sorted point order, whence each order is
    returned by a slice when x is sorted, else gathered once by whole rows.
    With a store, a call applies the rows the store keeps at lam; when it
    keeps none and they fit, they are built whole for the store's orders as
    the call applies them, and kept once the last chunk is built
    (``RowStore``). Otherwise each chunk is built for the call's orders and
    dropped once applied. A singular Gram is an EstimationError naming the
    first point whose window gives one.
    """
    order = None if np.all(x[:-1] <= x[1:]) else np.argsort(x, kind="stable")
    xb = _blocked(x if order is None else x[order])
    n = times.size
    a = np.searchsorted(times, xb[:, 0] - lam, side="right")
    b = np.searchsorted(times, xb[:, -1] + lam, side="left")
    span = max(int(np.max(b - a)), 1)
    first = np.minimum(a, n - span)
    lo = np.maximum(-1.0, -xb / lam)[..., None]
    hi = np.minimum(1.0, (T - xb) / lam)[..., None]
    nblocks = xb.shape[0]
    chunk = min(max(1, _ROW_CHUNK // (_BLOCK_ROWS * L * span)), nblocks)

    def built(targets, store=None):
        """(blk, rows) per chunk of blocks: targets' rows, in one chunk's array
        that every chunk writes in turn, as are its offsets, powers and basis
        values; with a store, in one array of all blocks, kept at lam last."""
        d = np.empty(chunk * _BLOCK_ROWS * span)
        work = np.empty(2 * L * d.size)
        W = np.empty((nblocks if store is not None else chunk, _BLOCK_ROWS,
                      len(targets.orders), span))
        for b0 in range(0, nblocks, chunk):
            blk = slice(b0, b0 + chunk)
            idx = first[blk, None] + np.arange(span)
            dk = d[: idx.size * _BLOCK_ROWS].reshape(idx.shape[0], _BLOCK_ROWS, span)
            np.subtract(times[idx][:, None, :], xb[blk, :, None], out=dk)
            dk /= lam
            Wk = W[blk] if store is not None else W[: idx.shape[0]]
            try:
                _rows_at(dk, targets.take(blk), Wk, work)
            except np.linalg.LinAlgError as exc:
                raise EstimationError("bandwidth %g: the window (x - lam, x + lam) of the point "
                                      "x = %g gives a singular Gram matrix"
                                      % (lam, xb[blk][exc.args[0]])) from None
            yield blk, Wk
        if store is not None:
            store._rows[float(lam)] = W
            store.nbytes += W.nbytes

    kept = None if store is None else store._rows.get(float(lam))
    if kept is not None:
        parts = ((slice(b0, b0 + chunk), kept[b0 : b0 + chunk]) for b0 in range(0, nblocks, chunk))
    else:
        targets = _targets(lo, hi, lam, L, orders if store is None else store.orders)
        if store is not None and (store.nbytes + 8 * nblocks * _BLOCK_ROWS
                                  * len(targets.orders) * span > _ROW_KEEP):
            store, targets = None, _targets(lo, hi, lam, L, orders)
        parts = built(targets, store)
    have = targets.orders if store is None else store.orders
    est = np.empty((len(orders), nblocks, _BLOCK_ROWS, V.shape[1]))
    for blk, W in parts:
        Vb = V[first[blk, None] + np.arange(span)]
        for q, j in enumerate(orders):
            np.matmul(W[:, :, have.index(j)], Vb, out=est[q, blk])
    est = est.reshape(len(orders), -1, V.shape[1])
    at = slice(0, x.size) if order is None else np.argsort(order)
    return {j: est[q, at] for q, j in enumerate(orders)}


def apply_rows(times: np.ndarray, T: float, L: int, lam: float, grid, V: np.ndarray,
               orders, store: RowStore | None = None) -> dict:
    """{j: the order-j estimates at the grid points of every column of V}
    for every derivative order j of orders, from the local-polynomial rows
    at bandwidth lam on the design times of [0, T] (``_apply_rows``): each
    point's Gram is solved once for all the orders, and no grid.size x n
    weight matrix is formed. A caller that wants some columns only passes
    them as V. A store (``RowStore``) keeps the rows of a whole bandwidth
    between calls on one design, so later calls at lam apply them without
    a build; the estimates are the same bit for bit. Checks, in this order:
    ValueError when orders is a mapping or names no order, or unless each
    order j and L are integers with 0 <= j < L and 0 < lam <= T/2;
    ValueError unless the times are a 1-D array of finite, nondecreasing
    points of [0, T], as in ``NoisySample``; ValueError unless V is 2-D
    with one row per observation time and a column; ValueError unless the
    grid is a nonempty 1-D array of finite points of [0, T]; with a store,
    ValueError unless every order is one of the store's, the store's
    orders are below L and the design is the one of its first call;
    EstimationError when a window holds fewer than L distinct observation
    times (``check_bandwidth``), counted once.
    """
    if isinstance(orders, Mapping):
        raise ValueError("orders must be a sequence, not a mapping of orders to columns: "
                         "every order applies to every column of V; pass V[:, columns]")
    orders = sorted(set(orders))
    if not orders:
        raise ValueError("orders must name at least one derivative order")
    for j in orders:
        _check_range(T, j, L, lam)
    times = _check_times(times, T)
    V = np.asarray(V)
    if V.ndim != 2 or V.shape[0] != times.size or V.shape[1] == 0:
        raise ValueError("V must be a 2-D array of one row per observation time (%d) and at "
                         "least one column, not one of shape %s" % (times.size, V.shape))
    grid = _check_points(grid, T)
    if store is not None:
        missing = sorted(set(orders) - set(store.orders))
        if missing:
            raise ValueError("order j=%d is not one of the RowStore's orders %s"
                             % (missing[0], list(store.orders)))
        store._bind(times, T, L, grid)
    _check_count(times, T, orders[0], L, lam)
    return _apply_rows(times, T, grid, lam, L, V, orders, store)


def _check_points(grid, T: float) -> np.ndarray:
    """grid as a float array; ValueError unless it is 1-D and nonempty and
    every point is finite and in [0, T], where the rows' supports are
    defined."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("evaluation grid must be a 1-D array, not one of shape %s"
                         % (grid.shape,))
    if grid.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    inside = (grid >= 0.0) & (grid <= T)
    if not np.all(inside):
        raise ValueError("evaluation point %g is not a finite point of [0, T] = [0, %g]"
                         % (grid[~inside].flat[0], T))
    return grid


def _pairs(times: np.ndarray, T: float, L: int):
    """(S, full, zone, what): S holds -inf, the distinct observation times
    s_1 < ... < s_m inside (0, T), neighbours closer than 1e-6 T counting as
    one (a Gram matrix needing both has a condition near (lam/gap)^2), and
    L times +inf; pair i = 0..m is (a, b) = (S[i], S[i + L]). A window
    (x - h, x + h) holds fewer than L of the s exactly when it fits in
    [a, b] for some pair. That happens for a window (x - lam, x + lam) of
    some x in [0, T] exactly when lam <= full[i] = min((b - a)/2, T - a, b)
    for some i, and for a half window (x - lam/2, x + lam/2) of some x in
    [lam, T - lam], lam <= T/2, exactly when lam <= zone[i] = min(b - a,
    2(T - a)/3, 2b/3). what names the s."""
    s = times[(times > 0.0) & (times < T)]
    what = "observations"
    apart = s[1:] - s[:-1] > 1e-6 * T
    if not np.all(apart):
        s, what = s[np.concatenate(([True], apart))], "distinct observation times"
    S = np.concatenate(([-np.inf], s, np.full(L, np.inf)))
    a, b = S[: s.size + 1], S[L:]
    full = np.minimum(np.minimum((b - a) / 2, T - a), b)
    zone = np.minimum(np.minimum(b - a, 2 * (T - a) / 3), 2 * b / 3)
    return S, full, zone, what


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
    only. Each count is one threshold on lam (``_pairs``). A refusal names
    an x whose window fits in a pair (a, b): an end of [0, T], or of the
    zone, where a window is short, else the middle of where it fits in the
    pair that sets the threshold. Its count is read among the pair's own
    L - 1 times, so it stays below L whatever the rounding of x -/+ lam."""
    S, full, inner, what = _pairs(times, T, L)
    checks = [(full, lam, 0.0, T, "the window (x - lam, x + lam) at x = %g holds %d %s "
                                  "in (0, T)")]
    if zone and lam <= T - lam:
        checks.append((inner, lam / 2, lam, T - lam,
                       "the half window (x - lam/2, x + lam/2) at x = %g holds %d %s"))
    for cut, h, z0, z1, why in checks:
        # the pairs (-inf, s_L) and (s_(m-L+1), +inf) first, then the widest
        short = [i for i in (0, max(S.size - 2 * L, 0), int(np.argmax(cut))) if lam <= cut[i]]
        if not short:
            continue
        i = short[0]
        a, b = S[i], S[i + L]
        lo, hi = max(a + h, z0), min(b - h, z1)
        x = lo if a == -np.inf else hi if b == np.inf else (lo + hi) / 2
        held = S[i + 1 : i + L]
        count = int(np.count_nonzero((held > x - h) & (held < x + h)))
        return (why + ", fewer than L = %d") % (x, count, what, L)
    return None


def _check_range(T: float, j: int, L: int, lam: float) -> None:
    check_integer(j, "derivative order j")
    check_integer(L, "kernel order L")
    if not 0 <= j < L:
        raise ValueError("derivative order j=%d outside [0, L) for L=%d" % (j, L))
    if not (0.0 < lam <= T / 2):
        raise ValueError("bandwidth %g for j=%d outside (0, T/2]" % (lam, j))


def check_bandwidth(times: np.ndarray, T: float, j: int, L: int, lam: float) -> None:
    """ValueError unless the integers j and L have 0 <= j < L, 0 < lam <= T/2
    and the times follow ``NoisySample``'s rule; EstimationError unless the
    window (x - lam, x + lam) of every point x in [0, T] holds at least L
    distinct observation times inside (0, T), which every row needs: lam
    must exceed the design's threshold lam_full (``_short_window``)."""
    _check_range(T, j, L, lam)
    _check_count(_check_times(times, T), T, j, L, lam)


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
    point of the nonempty 1-D grid is finite and in [0, T]; EstimationError
    when a window holds fewer than L distinct observation times, that is
    when lam is at most the design's threshold (``check_bandwidth``).
    """
    values = apply_rows(data.times, data.T, L, lam, grid, data.values[:, None], (j,))[j][:, 0]
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
    every block. ``np.correlate`` takes one 1-D column, so many columns
    would take a call each, where the band product serves them all at BLAS
    speed; for one column it is the faster (1.4-61 us against 23-183 us at
    n = 250-2000 and m = 5-200, one BLAS thread on a 2-core Xeon). A block
    of B rows multiplies B + 2m weights per row, of which 2m + 1 are not
    0, so B = 2m does a third fewer products than B = 4m for one more
    call per 4m rows: at n = 250, R = 100 columns and m = 25-30 a call took
    146-159 us against 226-234 us at 4m, and at m <= 10, where B is 32
    either way, the same."""
    m = (w.size - 1) // 2
    if V.shape[1] == 1:
        out[:, 0] = np.correlate(V[k0 - m : k1 + m, 0], w, "valid")
        return
    B = min(max(2 * m, 32), 256, k1 - k0)
    # row i of the band holds w in its columns i..i + 2m: one strided
    # write, 10 us where a sliding window over padded w took 26 us
    band = np.zeros((B, B + 2 * m))
    s0, s1 = band.strides
    np.lib.stride_tricks.as_strided(band, (B, 2 * m + 1), (s0 + s1, s1))[:] = w
    for r0 in range(k0, k1, B):
        b = min(B, k1 - r0)
        np.matmul(band[:b, : b + 2 * m], V[r0 - m : r0 + b + m], out=out[r0 - k0 : r0 - k0 + b])


def _zone(times: np.ndarray, T: float, lam: float | np.ndarray):
    """[i0, i1): the observations in the interior zone [lam, T - lam], up to
    a rounding margin of 1e-12 T; lam a level or an array of them."""
    tol = 1e-12 * T
    return (np.searchsorted(times, lam - tol, side="left"),
            np.searchsorted(times, T - lam + tol, side="right"))


def _zone_estimates(times: np.ndarray, T: float, zones: dict, levels: np.ndarray, j: int,
                    L: int, V: np.ndarray, shared: dict | None = None) -> dict:
    """{li: the order-j estimates of V's columns at the observations of the
    interior zone zones[li] = [i0, i1) of the level levels[li]}.

    In a zone every support is [-1, 1], so on a lattice design
    (``_lattice_step``) the row of t_k depends only on the offsets i - k of
    the observations in its window: one row of 2m + 1 weights (``_rows_at``
    at d = o * step / lam), applied by ``_toeplitz_apply``, serves every t_k
    whose window lies on the design. m, the widest offset of a zone window,
    is read from the design, so a bandwidth of a whole number of spacings
    up to rounding never reaches past it. One ``_rows_at`` call forms the
    row of every level not yet formed, its offsets beyond the level's m at
    d = 1, outside the support, where they weigh 0. The other ("rest")
    observations, and all of them off a lattice, get rows of their own
    (``_apply_rows``).

    All but the Toeplitz product depends on the design and the level, not
    on j. shared, a dict one caller passes to the selection of each order
    of shared["orders"] once, keeps it for them under the level's value:
    the first order to reach a level forms its row and its rest estimates
    for every one of them, and each order takes its rest estimates out, so
    off a lattice the dict holds the zone estimates of the orders still to
    come. An order's estimates are the same bit for bit whichever orders
    share the dict, or none (``_targets``, ``_apply_rows``).
    """
    if shared is None:
        shared = {"orders": (j,)}
    if "step" not in shared:
        shared["step"] = _lattice_step(times, T)
    n, step, orders = times.size, shared["step"], tuple(shared["orders"])
    new = {li: float(levels[li]) for li in zones if float(levels[li]) not in shared}
    spans, rows = {}, {}
    for li in (new if step is not None else ()):
        i0, i1 = zones[li]
        x, k = times[i0:i1], np.arange(i0, i1)
        m = int(max(np.max(k - np.searchsorted(times, x - levels[li], side="right")),
                    np.max(np.searchsorted(times, x + levels[li], side="left") - 1 - k), 0))
        if max(i0, m) < min(i1, n - m):
            spans[li] = m
    if spans:
        m = np.array(list(spans.values()))
        M, lam, one = int(m.max()), levels[list(spans)][:, None], np.ones((m.size, 1))
        o = np.arange(-M, M + 1)
        W = _rows_at(np.where(np.abs(o) <= m[:, None], o * (step / lam), 1.0),
                     _targets(-one, one, lam, L, orders))
        rows = {li: w[:, M - mi : M + mi + 1] for (li, mi), w in zip(spans.items(), W)}
    for li, key in new.items():
        m, rest = spans.get(li), np.arange(*zones[li])
        if m is not None:
            rest = rest[(rest < m) | (rest >= n - m)]
        own = _apply_rows(times, T, times[rest], levels[li], L, V, orders) if rest.size else {}
        shared[key] = (m, rows.get(li), rest, own)
    est, q = {}, orders.index(j)
    for li, (i0, i1) in zones.items():
        m, w, rest, own = shared[float(levels[li])]
        est[li] = np.empty((i1 - i0, V.shape[1]))
        if m is not None:
            k0, k1 = max(i0, m), min(i1, n - m)
            _toeplitz_apply(w[q], V, k0, k1, est[li][k0 - i0 : k1 - i0])
        if rest.size:
            est[li][rest - i0] = own.pop(j)
    return est


def _admissible(times: np.ndarray, T: float, j: int, sigma: float, L: int):
    """(levels, zones): the bandwidth grid a^top > ... > a^-J of order j,
    a = ``_GRID_RATIO`` and J from ``_grid_depth``, and the observation
    zone (``_zone``) of each admissible level by index.

    The admissible levels are those in (lam_min, T/2] whose zone holds two
    observations to compare on; lam_min is the larger of the two
    thresholds of ``_pairs``, computed once. top is 0 unless the level
    a^0 = 1 would be admissible but for lam_min >= 1: then it is the first
    k >= 1 with a^k > lam_min, at most log_a T. EstimationError names the
    count that refused the largest level tried, or why none was tried.
    """
    depth = _grid_depth(j, times.size, sigma, T)
    check_integer(L, "kernel order L")
    _, full, inner, _ = _pairs(times, T, L)
    lam_min = max(full.max(), inner.max())
    top = 0
    i0, i1 = _zone(times, T, 1.0)
    if 1.0 <= min(T / 2, lam_min) and i1 - i0 >= 2:
        # a^0 fits in T/2 and its zone, but its windows are short
        rise = _GRID_RATIO ** np.arange(1.0, math.log(T, _GRID_RATIO) + 1)
        top = min(int(np.count_nonzero(rise <= lam_min)) + 1, rise.size)
    levels = _GRID_RATIO ** np.arange(float(top), -depth - 1.0, -1.0)
    i0, i1 = _zone(times, T, levels)
    # both conditions hold from some level down: zones grow as levels fall
    first = levels.size - int(np.count_nonzero((levels <= T / 2) & (i1 - i0 >= 2)))
    if first == levels.size:
        if levels[-1] > T / 2:
            reason = "every level of the grid, from %g down to %g, exceeds T/2 = %g" % (
                levels[0], levels[-1], T / 2)
        else:
            reason = ("the design leaves fewer than two observations in the interior "
                      "zone [lam, T - lam] of every level up to T/2 = %g" % (T / 2))
        raise EstimationError("no admissible bandwidth level for j=%d: %s" % (j, reason))
    last = first + int(np.count_nonzero(levels[first:] > lam_min))
    if last == first:
        raise EstimationError(
            "no admissible bandwidth level for j=%d: at lam = %g, the largest level tried "
            "up to T/2 = %g, %s" % (j, levels[first], T / 2,
                                    _short_window(times, T, levels[first], L)))
    return levels, {li: (int(i0[li]), int(i1[li])) for li in range(first, last)}


def _lepski_batch(times: np.ndarray, T: float, V: np.ndarray, sigma: float,
                  j: int, L: int, shared: dict | None = None):
    """Adaptive bandwidth per column of the observation matrix V (n x R).

    Returns (lam_hat (R,), selected_index (R,), details), details holding
    the grid ("levels") and the indices of its admissible levels
    ("admissible"), with C and the comparison size below. Admissibility
    of a level is a property of the design alone (``_admissible``): it fits
    in T/2 and exceeds the thresholds above which every window (x - lam,
    x + lam) on [0, T] holds L observations, and every half window in the
    interior zone [lam, T - lam] does too. Nothing else is checked: the
    local-polynomial rows (``_rows_at``) reproduce every polynomial of
    degree below L on the design itself.

    Each admissible level estimates V's columns at the observations in its
    interior zone (``_zone_estimates``): on a lattice design
    (``_lattice_step``) by one row of 2m + 1 weights for all of them, else
    by a row per observation; with shared, once per level for the orders
    of one call, with the same bits as without. Distances between
    estimates are integrated over the observations in the interior zone
    of the larger bandwidth, with trapezoid weights on the t_i, where
    neither estimate is boundary-affected, against ``_THRESHOLD_MULT`` *
    C^2 sigma^2 T^2 / (n h^(2j+1)) with C = ||K_j|| (``details["C"]``), the
    paper's mu ||K_j|| at mesh ratio mu = 1.
    ``details["comparison_grid_size"]`` is the number of observations in
    the widest zone compared, that of the smallest admissible level.

    The comparisons run candidate by candidate, largest level first. Each
    candidate's squared differences (Ec - Eh)^2 against every smaller
    admissible level are formed in one buffer, sized for the largest
    candidate and reused for every pair of levels: ``np.subtract`` and
    ``np.square`` into it, then one product with the trapezoid weights.
    """
    n = times.size
    levels, zones = _admissible(times, T, j, sigma, L)
    C = math.sqrt(make_kernel(L, j).norm2)
    R = V.shape[1]
    admissible = sorted(zones)
    estimates = _zone_estimates(times, T, zones, levels, j, L, V, shared)
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
        "C": C,
        "comparison_grid_size": i1 - i0,
    }
    return levels[selected], selected, details


def lepski_select(data: NoisySample, j: int, L: int) -> float:
    """Largest admissible bandwidth whose estimate stays within the
    noise-level threshold of every smaller admissible estimate on the grid.

    A level is admissible when it exceeds the design's thresholds, above
    which its windows hold enough observations for the rows (see
    ``_lepski_batch``); the estimates are compared at the observations of
    each level's interior zone. The smallest admissible level has nothing
    smaller to be compared with, so it is selected when no larger level
    passes. The grid ratio (``_GRID_RATIO``) and the threshold multiplier
    (``_THRESHOLD_MULT``) are fixed. EstimationError when no level is
    admissible, naming the count that refused the largest level tried.
    """
    lam_hat = _lepski_batch(data.times, data.T, data.values[:, None], data.sigma, j, L)[0]
    return float(lam_hat[0])


def estimate_derivative(data: NoisySample, j: int, L: int, grid=None) -> DerivativeEstimate:
    """Adaptive-bandwidth estimate of q^(j): select, then evaluate. The
    grid is checked as in ``pc_estimate`` before the selection runs."""
    if grid is None:
        grid = np.linspace(0.0, data.T, DEFAULT_GRID_SIZE)
    grid = _check_points(grid, data.T)
    lam = lepski_select(data, j, L)
    return pc_estimate(data, j, L, lam, grid)


# Order k of the differences in ``estimate_sigma``, the default kernel
# order L: over 50 runs the mean sigma_hat / sigma of every builtin cell of
# the benchmark table (both n, every noise level) lies within 3% of 1,
# where first differences read up to 1.5e4 times sigma
_SIGMA_ORDER = 8


def estimate_sigma(data: NoisySample) -> float:
    """Noise scale estimate from k-th differences, k = ``_SIGMA_ORDER`` = 8.

    sigma_hat^2 = sum (Delta^k y)^2 / (C(2k, k) (n - k)), Delta^k y the
    n - k differences of order k of the values: the k-th differences of
    white noise of scale sigma have variance C(2k, k) sigma^2, and those of
    a signal smooth on the scale of the spacing are of order spacing^k, so
    a slowly varying signal barely enters. The estimators here treat sigma
    as known; use this when no external value is available. Differences or
    squares beyond the float range are formed from the values scaled by
    their largest magnitude instead, so no step overflows; the result is
    inf only when sigma_hat itself exceeds the float range.
    EstimationError when n <= k, which leaves no difference.
    """
    k, n = _SIGMA_ORDER, data.n
    if n <= k:
        raise EstimationError("estimating sigma from differences of order %d needs more "
                              "than %d observations, not %d" % (k, k, n))
    norm = math.comb(2 * k, k) * (n - k)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diff(data.values, n=k)
        ss = np.sum(d * d)
    if np.isfinite(ss):
        return float(np.sqrt(ss / norm))
    scale = float(np.max(np.abs(data.values)))
    d = np.diff(data.values / scale, n=k)
    return scale * float(np.sqrt(np.sum(d * d) / norm))
