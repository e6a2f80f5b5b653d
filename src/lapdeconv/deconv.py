"""Recovery of f from noisy observations of the Volterra convolution g * f.

The estimator inverts the convolution explicitly: with r the pole order of
the transfer function at infinity and B_r its limiting coefficient,

    f_hat = (q_r - sum_j b_j q_{r-1-j} - int q_0(t-x) phi1^(r)(x) dx) / B_r

where q_j denotes the estimated j-th derivative of the observed response and
the b_j / phi1 data come from the partial-fraction decomposition layer. Each
derivative gets its own adaptively selected bandwidth.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ._expalg import ExpPoly
from .resolvent import RationalLaplaceKernel, ResolventDecomposition, decompose
from .smoother import (
    DEFAULT_GRID_SIZE,
    EstimationError,
    NoisySample,
    _lepski_batch,
    apply_rows,
    check_bandwidth,
    check_integer,
)

__all__ = [
    "DeconvolutionResult",
    "EstimatorConfig",
    "deconvolve",
    "risk_mse",
    "trimmed_window",
]

DEFAULT_TRIM = 0.1  # boundary fraction of [0, T] that risks drop (``trimmed_window``)


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings of the full deconvolution pipeline.

    L, grid_size and fixed_bandwidths shape f_hat, together with the
    selection's fixed grid ratio and threshold multiplier (``smoother``).
    fixed_bandwidths bypasses adaptive selection: a scalar applies to every
    derivative order, a sequence (kept as a tuple) to orders j = 0, 1, ...
    of at most the r + 1 orders, the rest staying adaptive. ValueError
    unless L and grid_size are integers (``smoother.check_integer``),
    grid_size is at least 2 and each fixed bandwidth is a real number and
    not a bool. The risk window is the harness's (``sim.Scenario.trim``).
    """

    L: int = 8
    grid_size: int = DEFAULT_GRID_SIZE
    fixed_bandwidths: object = None

    def __post_init__(self):
        check_integer(self.L, "kernel order L")
        if check_integer(self.grid_size, "evaluation grid size") < 2:
            raise ValueError("evaluation grid size must be at least 2")
        fb = self.fixed_bandwidths
        if fb is None:
            return
        try:
            values = (fb,) if isinstance(fb, (numbers.Real, bytes, dict)) else tuple(fb)
        except TypeError:
            values = (fb,)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
            raise ValueError("fixed_bandwidths must be a real number or a sequence of them, "
                             "not %r" % (fb,))
        if not isinstance(fb, numbers.Real):
            object.__setattr__(self, "fixed_bandwidths", tuple(float(v) for v in values))

    def fixed_bandwidth(self, j: int):
        fb = self.fixed_bandwidths
        if fb is None or np.isscalar(fb):
            return None if fb is None else float(fb)
        return fb[j] if j < len(fb) else None


@dataclass(frozen=True)
class DeconvolutionResult:
    """Estimate of f on a uniform grid with its per-term breakdown.

    terms holds the three pieces before division by B_r: "derivative" is
    q_r, "linear" is sum_j b_j q_{r-1-j}, "integral" is the convolution with
    phi1^(r) (identically zero when the decomposition has no pole part).
    f_hat is exactly (derivative - linear - integral) / B_r.
    """

    grid: np.ndarray
    f_hat: np.ndarray
    bandwidths: np.ndarray
    terms: dict
    config: EstimatorConfig
    g: RationalLaplaceKernel
    decomposition: ResolventDecomposition

    def __post_init__(self):
        if not np.all(np.isfinite(self.f_hat)):
            raise EstimationError("deconvolution produced non-finite values")
        for name in ("derivative", "linear", "integral"):
            if self.terms[name].shape != self.grid.shape:
                raise ValueError("term %r does not match the grid" % name)
        if self.f_hat.shape != self.grid.shape:
            raise ValueError("f_hat does not match the grid")


def _cell_moments(h: ExpPoly, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact interpolation moments of h over each cell of a uniform grid.

    M0[m] = int over [x_m, x_{m+1}] of h(x) dx
    M1[m] = int over [x_m, x_{m+1}] of h(x) (x - x_m)/dx dx

    Both come from closed-form antiderivatives of h and x h(x), so rapid
    oscillation of h between grid points costs no accuracy.
    """
    F = h.antiderivative()
    xh = ExpPoly([(s, np.concatenate(([0.0], c))) for s, c in h.terms])
    G = xh.antiderivative()
    dx = float(grid[1] - grid[0])
    Fv = F(grid)
    Gv = G(grid)
    M0 = np.diff(Fv)
    M1 = (np.diff(Gv) - grid[:-1] * M0) / dx
    top = max(1.0, float(np.max(np.abs(M0))), float(np.max(np.abs(M1))))
    resid = max(float(np.max(np.abs(M0.imag))), float(np.max(np.abs(M1.imag))))
    if resid > 1e-9 * top:
        raise EstimationError(
            f"convolution weights have imaginary residue {resid:.3e}; "
            "the resolvent decomposition is not conjugate-symmetric"
        )
    return M0.real.copy(), M1.real.copy()


# Rows of one block of the Toeplitz product in ``_convolve_terms``: about
# 1 MB of matrix at 1024 grid points, where the whole matrix would be 8 MB
_TOEPLITZ_ROWS = 128


def _convolve_terms(Q0: np.ndarray, phi_r: ExpPoly, grid: np.ndarray) -> np.ndarray:
    """Volterra convolution of each column of Q0 with phi_r on the grid.

    out[k] approximates int_0^{t_k} q(t_k - x) phi_r(x) dx by a product
    rule: the column is piecewise linear between grid points and is
    integrated against phi_r exactly per cell. phi_r oscillates on the
    grid scale whenever the forward kernel has zeros of large modulus, and
    a sampled trapezoid rule then loses several digits; the moment rule is
    exact in phi_r, leaving only the interpolation error of the column.

    Cell m of int_0^{t_k} pairs the weight M0[m] - M1[m] with q(t_{k-m})
    and M1[m] with q(t_{k-m-1}), so out = A Q0 for the lower-triangular
    Toeplitz matrix A[k, i] = w[k - i], w[m] = M0[m] - M1[m] + M1[m-1]
    (M1[-1] = 0), except in column 0, which cell k reaches only through
    M1[k-1]. A is applied to all columns at once, ``_TOEPLITZ_ROWS`` rows at
    a time, each block copied out of a sliding window over w into one
    buffer and cut after its last nonzero column, so A is never formed.
    """
    K = Q0.shape[0] - 1
    M0, M1 = _cell_moments(phi_r, grid)
    w_prev = np.concatenate(([0.0], M1))
    w = np.append(M0 - M1, 0.0) + w_prev
    # row k of A is windows[k] reversed: w[k], w[k-1], .., w[0], then zeros
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((np.zeros(K), w)), K + 1)
    out = np.empty_like(Q0)
    buf = np.empty((min(_TOEPLITZ_ROWS, K + 1), K + 1))
    for k0 in range(0, K + 1, _TOEPLITZ_ROWS):
        k1 = min(k0 + _TOEPLITZ_ROWS, K + 1)
        A = buf[: k1 - k0, :k1]
        A[:] = windows[k0:k1, ::-1][:, :k1]
        A[:, 0] = w_prev[k0:k1]
        np.matmul(A, Q0[:k1], out=out[k0:k1])
    return out


def _estimate_all(times: np.ndarray, T: float, V: np.ndarray, sigma: float,
                  g: RationalLaplaceKernel, cfg: EstimatorConfig, rows=None):
    """Batched pipeline core over the columns of V (n x R).

    Returns (grid, F (G x R), terms dict of (G x R), bandwidths (r+1 x R), d).
    Each column selects the bandwidths it selects alone, and its estimates
    match a run of the pipeline on that column alone up to rounding (the
    batch's products may sum in another order); the batch exists so
    Monte-Carlo replications share design-dependent work.
    Every order is selected in order j = 0..r on the calling thread, so
    the lowest failing order raises first. The adaptive orders share one
    dict for the call (``_zone_estimates``), so each selection level's
    zone rows are formed once for all of them, one Gram per level and
    point; the dict goes with the call. Then each distinct selected
    bandwidth is evaluated once (``apply_rows``: one Gram per output
    point, solved for the orders that chose it) on V, or on V's columns
    that chose it for some order when not all did, each order's estimates
    the same bits whichever orders chose it too. Each order takes its own
    columns; one whose columns all chose one bandwidth keeps the array
    ``apply_rows`` returns. rows, a ``RowStore`` of the design and cfg's
    grid, lends its kept rows to every evaluation and keeps those it builds.
    """
    d = decompose(g)
    r = g.r
    if cfg.L <= r:
        raise ValueError(
            "kernel order L=%d must exceed the inversion order r=%d" % (cfg.L, r)
        )
    if isinstance(cfg.fixed_bandwidths, tuple) and len(cfg.fixed_bandwidths) > r + 1:
        raise ValueError("more fixed bandwidths than the r + 1 = %d orders" % (r + 1))
    grid = np.linspace(0.0, T, cfg.grid_size)
    R = V.shape[1]

    lam = np.empty((r + 1, R))
    shared = {"orders": [j for j in range(r + 1) if cfg.fixed_bandwidth(j) is None]}
    for j in range(r + 1):
        fixed = cfg.fixed_bandwidth(j)
        if fixed is not None:
            # refused here, before the selection of any higher order
            check_bandwidth(times, T, j, cfg.L, fixed)
            lam[j] = fixed
        else:
            lam[j] = _lepski_batch(times, T, V, sigma, j, cfg.L, shared)[0]
    # one Gram per point and distinct bandwidth; an order with one bandwidth keeps its array
    Qs = [np.empty((grid.size, R)) if np.ptp(lam[j]) else None for j in range(r + 1)]
    for lv in sorted(set(lam.ravel().tolist())):
        chose = lam == lv
        orders = [j for j in range(r + 1) if chose[j].any()]
        cols = np.flatnonzero(chose.any(axis=0))
        est = apply_rows(times, T, cfg.L, lv, grid, V if cols.size == R else V[:, cols],
                         orders, rows)
        for j in orders:
            if Qs[j] is None:
                Qs[j] = est[j]
            else:
                Qs[j][:, chose[j]] = est[j][:, chose[j, cols]]
    derivative = Qs[r]
    linear = np.zeros_like(derivative)
    for jj in range(r):
        if d.b[jj] != 0.0:
            linear += d.b[jj] * Qs[r - 1 - jj]
    if d.has_phi1:
        phi1_r = ExpPoly.phi1_from_decomposition(d).derivatives(r)
        integral = _convolve_terms(Qs[0], phi1_r, grid)
    else:
        integral = np.zeros_like(derivative)
    F = (derivative - linear - integral) / d.B_r
    terms = {"derivative": derivative, "linear": linear, "integral": integral}
    return grid, F, terms, lam, d


def deconvolve(data: NoisySample, g: RationalLaplaceKernel,
               cfg: EstimatorConfig | None = None) -> DeconvolutionResult:
    """Estimate f from noisy samples of q = g * f.

    Runs one derivative estimation per order j = 0..r (each with its own
    bandwidth, adaptive unless fixed in cfg) and combines them with the
    decomposition coefficients of g. The convolution term integrates the
    smoothed observation column against the exact resolvent derivative by
    a product rule on the evaluation grid; it is exactly zero when the
    decomposition has no pole part.
    """
    cfg = cfg or EstimatorConfig()
    grid, F, terms, lam, d = _estimate_all(
        data.times, data.T, data.values[:, None], data.sigma, g, cfg
    )
    return DeconvolutionResult(
        grid=grid,
        f_hat=F[:, 0],
        bandwidths=lam[:, 0],
        terms={k: v[:, 0] for k, v in terms.items()},
        config=cfg,
        g=g,
        decomposition=d,
    )


def trimmed_window(grid: np.ndarray, trim: float) -> np.ndarray:
    """Mask of the points of a grid on [0, T] in [trim*T, (1-trim)*T], which
    drops the boundary zones where high-order derivative estimates degrade.
    ValueError when trim is outside [0, 0.5) or the window holds no point."""
    if not (0.0 <= trim < 0.5):
        raise ValueError("trim must lie in [0, 0.5)")
    T = grid[-1]
    mask = (grid >= trim * T - 1e-12) & (grid <= (1.0 - trim) * T + 1e-12)
    if not np.any(mask):
        raise ValueError(
            "no evaluation grid point lies in the trimmed window; raise the "
            "grid size or lower the trim"
        )
    return mask


def risk_mse(result: DeconvolutionResult, truth, trim: float = DEFAULT_TRIM) -> float:
    """Grid-average squared error of f_hat against a callable truth over the
    trimmed window (``trimmed_window``) of the result's grid."""
    grid = result.grid
    mask = trimmed_window(grid, trim)
    diff = result.f_hat[mask] - np.asarray(truth(grid[mask]), dtype=float)
    return float(np.mean(diff * diff))
