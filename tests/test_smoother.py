"""Tests for derivative smoothing and adaptive bandwidth selection."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapdeconv import smoother
from lapdeconv.kernels import make_kernel
from lapdeconv.smoother import (
    AdaptationError,
    BandwidthGrid,
    DesignWeights,
    EstimationError,
    NoisySample,
    _band_blocks,
    _band_rows,
    _cell_edges,
    _lepski_batch,
    _moment_worst,
    _weight_matrix,
    _windowed_rows,
    estimate_derivative,
    estimate_sigma,
    lepski_select,
    pc_estimate,
)
from oracles import dense_weights

T = 10.0


def equispaced(n, fn, sigma=0.0, seed=None):
    times = np.arange(1, n + 1) * (T / n)
    y = fn(times)
    if sigma > 0:
        y = y + sigma * np.random.default_rng(seed).standard_normal(n)
    return NoisySample(times, y, T, sigma)


class TestNoisySample:
    def test_basic_fields(self):
        d = equispaced(100, np.sin)
        assert d.n == 100

    @pytest.mark.parametrize(
        "kw",
        [
            dict(times=[1.0, 2.0], values=[0.0], T=10.0, sigma=0.1),
            dict(times=[2.0, 1.0], values=[0.0, 0.0], T=10.0, sigma=0.1),
            dict(times=[1.0, 11.0], values=[0.0, 0.0], T=10.0, sigma=0.1),
            dict(times=[-1.0, 2.0], values=[0.0, 0.0], T=10.0, sigma=0.1),
            dict(times=[1.0, 2.0], values=[0.0, 0.0], T=10.0, sigma=-0.5),
            dict(times=[1.0, 2.0], values=[0.0, np.nan], T=10.0, sigma=0.1),
            dict(times=[1.0], values=[0.0], T=10.0, sigma=0.1),
            dict(times=[1.0, 2.0], values=[0.0, 0.0], T=0.0, sigma=0.1),
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            NoisySample(**kw)


class TestPcEstimate:
    def test_constant_reproduced_exactly(self):
        d = equispaced(500, lambda t: np.full_like(t, 3.7))
        grid = np.linspace(1.0, 9.0, 33)
        est = pc_estimate(d, 0, 4, 0.9, grid)
        np.testing.assert_allclose(est.values, 3.7, atol=1e-12)

    def test_derivative_kills_constant(self):
        d = equispaced(500, lambda t: np.full_like(t, 2.5))
        grid = np.linspace(1.0, 9.0, 33)
        for j in (1, 2):
            est = pc_estimate(d, j, 4, 0.9, grid)
            np.testing.assert_allclose(est.values, 0.0, atol=1e-10)

    def test_cubic_first_derivative(self):
        d = equispaced(2000, lambda t: t**3)
        grid = np.linspace(1.5, 8.5, 101)
        est = pc_estimate(d, 1, 4, 0.8, grid)
        np.testing.assert_allclose(est.values, 3.0 * grid**2, atol=1e-4)

    def test_monomial_derivative_is_factorial(self):
        d = equispaced(2000, lambda t: t**2)
        grid = np.linspace(1.5, 8.5, 101)
        est = pc_estimate(d, 2, 4, 0.7, grid)
        np.testing.assert_allclose(est.values, 2.0, atol=1e-6)

    def test_linearity_in_observations(self):
        n = 300
        times = np.arange(1, n + 1) * (T / n)
        rng = np.random.default_rng(0)
        y1, y2 = rng.standard_normal((2, n))
        grid = np.linspace(0.0, T, 64)
        f = lambda y: pc_estimate(NoisySample(times, y, T, 0.1), 1, 4, 0.8, grid).values
        # scaling by a power of two is exact in floating point
        np.testing.assert_array_equal(f(2.0 * y1), 2.0 * f(y1))
        np.testing.assert_allclose(f(y1 + y2), f(y1) + f(y2), rtol=1e-12, atol=1e-12)

    def test_variance_scales_with_bandwidth(self):
        n = 2000
        times = np.arange(1, n + 1) * (T / n)
        for j in (0, 1):
            W1 = _weight_matrix(times, T, np.array([5.0]), j, 4, 0.4)
            W2 = _weight_matrix(times, T, np.array([5.0]), j, 4, 0.8)
            assert np.sum(W2**2) / np.sum(W1**2) == pytest.approx(
                2.0 ** (-(2 * j + 1)), rel=1e-2
            )

    def test_empty_window_raises(self):
        times = np.arange(1.0, 11.0)  # unit spacing
        d = NoisySample(times, np.zeros(10), T, 0.1)
        with pytest.raises(EstimationError):
            pc_estimate(d, 0, 4, 0.3, np.linspace(0.0, T, 101))

    def test_bandwidth_domain(self):
        d = equispaced(100, np.sin)
        grid = np.linspace(0.0, T, 11)
        with pytest.raises(ValueError):
            pc_estimate(d, 0, 4, 0.0, grid)
        with pytest.raises(ValueError):
            pc_estimate(d, 0, 4, 5.1, grid)
        with pytest.raises(ValueError):
            pc_estimate(d, 4, 4, 1.0, grid)

    def test_deterministic(self):
        d = equispaced(400, np.cos, sigma=0.05, seed=1)
        grid = np.linspace(0.0, T, 200)
        a = pc_estimate(d, 1, 8, 0.9, grid).values
        b = pc_estimate(d, 1, 8, 0.9, grid).values
        np.testing.assert_array_equal(a, b)


class TestBandwidthGrid:
    def test_levels_shape_and_order(self):
        g = BandwidthGrid.build(0, 1000, 0.1, T)
        depth = int(np.floor(np.log(1000 / (0.01 * 100)) / np.log(1.2)))
        assert g.levels.size == depth + 1
        assert g.levels[0] == 1.0
        assert np.all(np.diff(g.levels) < 0)
        np.testing.assert_allclose(g.levels, 1.2 ** (-np.arange(depth + 1)))

    def test_higher_order_shrinks_grid(self):
        g0 = BandwidthGrid.build(0, 1000, 0.1, T)
        g4 = BandwidthGrid.build(4, 1000, 0.1, T)
        assert g4.levels.size < g0.levels.size

    def test_sigma_zero_raises(self):
        with pytest.raises(AdaptationError):
            BandwidthGrid.build(0, 1000, 0.0, T)

    @pytest.mark.parametrize("sigma", [1e-155, 1e-200])
    def test_tiny_sigma_raises(self, sigma):
        # sigma^2 T^2 underflows to 0 at 1e-200; at 1e-155 n / (sigma^2 T^2)
        # overflows to inf
        with pytest.raises(AdaptationError, match="not a finite number"):
            smoother._grid_depth(0, 250, sigma, T)

    def test_small_sigma_keeps_the_depth_formula(self):
        depth = math.floor(math.log(250 / (1e-150 * 1e-150 * T * T), 1.2))
        assert smoother._grid_depth(0, 250, 1e-150, T) == depth

    def test_noise_dominated_raises(self):
        # sigma^2 T^2 = 100 >= n leaves no grid at all
        with pytest.raises(AdaptationError):
            BandwidthGrid.build(0, 100, 1.0, T)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BandwidthGrid.build(-1, 1000, 0.1, T)


def assert_rows_match_oracle(W, O):
    """W @ V against O @ V for three standard normal data columns V, within
    1e-12 of |O| @ |V|: the bound of ``test_apply_matches_dense_oracle``.
    Rows differenced over hundreds of tiny cells round to about 1e-12 of
    their sum of |w_i| in float, interior rows included, so the bound is
    not read for the worst signs of a unit column."""
    V = np.random.default_rng(0).standard_normal((W.shape[1], 3))
    err = np.abs((W - O) @ V)
    bad = np.flatnonzero(np.any(err > 1e-12 * (np.abs(O) @ np.abs(V)) + 1e-300, axis=1))
    assert not bad.size, "rows %s off the oracle" % bad[:10]


def _oracle_case(rng, kind, permuted):
    """(times, grid) of 300 observations and 203 grid points on [0, T]."""
    if kind == "random":
        times = np.sort(rng.uniform(0.0, T, 300))
    elif kind == "clustered":
        times = np.sort(np.concatenate([rng.uniform(2.0, 2.3, 200),
                                        rng.uniform(0.0, T, 100)]))
    else:
        times = np.arange(1, 301) * (T / 300)
    grid = np.linspace(0.0, T, 203)
    return times, rng.permutation(grid) if permuted else grid


class TestBandedApply:
    @pytest.mark.parametrize(
        "j", [pytest.param(j, id="%d-cell" % j) for j in (0, 1, 3)]
    )
    def test_matches_dense_on_nonuniform_design(self, j):
        rng = np.random.default_rng(42)
        times = np.sort(rng.uniform(0.05, T, 700))
        lam = 1.1
        grid = np.linspace(0.0, T, 57)
        W = _weight_matrix(times, T, grid, j, 8, lam)
        assert_rows_match_oracle(W, dense_weights(times, T, grid, j, 8, lam))
        inner = (grid >= lam) & (grid <= T - lam)
        V = rng.standard_normal((times.size, 3))
        est, _ = _band_rows(times, grid[inner], lam, j, 8, make_kernel(8, j), V)
        np.testing.assert_allclose(est, W[inner] @ V, rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("permuted", [False, True])
    @pytest.mark.parametrize("kind", ["random", "clustered", "equispaced"])
    def test_weight_matrix_equals_oracle(self, kind, permuted):
        # interior, left-edge and right-edge rows over sorted or shuffled
        # points, wide levels included
        times, grid = _oracle_case(np.random.default_rng(11), kind, permuted)
        for j in (0, 1, 3, 4):
            for lam in (0.6, 1.3, 2.9, T / 2):
                W = _weight_matrix(times, T, grid, j, 8, lam)
                assert_rows_match_oracle(W, dense_weights(times, T, grid, j, 8, lam))

    @pytest.mark.parametrize("R", [1, 3, 100])
    @pytest.mark.parametrize("permuted", [False, True])
    @pytest.mark.parametrize("kind", ["random", "clustered", "equispaced"])
    def test_apply_matches_dense_oracle(self, kind, permuted, R):
        # the banded evaluation of the output grid, in all three point
        # groups, against the oracle's dense matrix times the data
        rng = np.random.default_rng(12)
        times, grid = _oracle_case(rng, kind, permuted)
        V = rng.standard_normal((times.size, R))
        groups = set()
        for j in (0, 1, 3):
            for lam in (0.6, 1.3, 2.9, T / 2):
                groups |= {name for name, member in (
                    ("interior", (grid >= lam) & (grid <= T - lam)),
                    ("left", grid < lam), ("right", grid > T - lam)) if member.any()}
                W = dense_weights(times, T, grid, j, 8, lam)
                got = DesignWeights(times, T).apply(j, 8, lam, grid, V)
                assert got.shape == (grid.size, R)
                err = np.abs(got - W @ V)
                assert np.all(err <= 1e-12 * (np.abs(W) @ np.abs(V)) + 1e-300), (j, lam)
        assert groups == {"interior", "left", "right"}

    @pytest.mark.parametrize("R", [1, 3, 100])
    @pytest.mark.parametrize("case", [
        "few_rows",       # fewer rows than one block
        "partial_block",  # a row count that is no multiple of the block size
        "last_cell",      # bands reaching observation n-1, whose block shifts left
        "clustered",      # wide blocks over a clustered design
    ])
    def test_apply_band_matches_dense_product(self, case, R):
        rng = np.random.default_rng(7)
        j, lam = 1, 0.7
        if case == "few_rows":
            times = np.arange(1, 301) * (T / 300)
            x = np.linspace(lam, T - lam, smoother._BAND_BLOCK_ROWS - 5)
        elif case == "partial_block":
            times = np.sort(rng.uniform(0.0, T, 700))
            x = np.linspace(lam, T - lam, 1000)
        elif case == "last_cell":
            times = np.arange(1, 201) * (9.5 / 200)
            x = np.linspace(T - 2 * lam, T, 300)
        else:
            times = np.sort(np.concatenate([rng.uniform(2.0, 2.3, 400),
                                            rng.uniform(0.0, T, 100)]))
            x = np.linspace(lam, T - lam, 500)
        assert x.size % smoother._BAND_BLOCK_ROWS != 0
        ker = make_kernel(8, j)
        edges = _cell_edges(times)
        if case == "last_cell":
            # some block ends at cell n-1 and starts left of its lowest
            # point's window (one cell of slack for the rounding margin past
            # lam), so it was shifted left to stay inside the design
            shifted = False
            for blk, cells, _ in _band_blocks(times, x, lam, j, ker.antiderivative()):
                xb = smoother._blocked(x)[blk]
                lowest = np.searchsorted(edges, xb.min(axis=1) - lam, side="right") - 1
                shifted |= np.any((cells[:, -1] == times.size - 1) & (cells[:, 0] < lowest - 1))
            assert shifted
        U = np.clip((x[:, None] - edges) / lam, *ker.support)
        B = np.polynomial.polynomial.polyval(U, ker.antiderivative())
        W = (B[:, :-1] - B[:, 1:]) / lam**j
        V = rng.standard_normal((times.size, R))
        scale = np.abs(W) @ np.abs(V)
        est, E = _band_rows(times, x, lam, j, 8, ker, V)
        assert est.shape == (x.size, R) and E.shape == (x.size, 8)
        err = np.abs(est - W @ V)
        assert np.all(err <= 1e-12 * scale + 1e-300)

    @pytest.mark.parametrize("R", [1, 100])
    def test_chunks_do_not_change_a_bit(self, monkeypatch, R):
        # blocks are formed and multiplied one by one, so how many go into
        # a chunk changes no result: one block per chunk against one chunk
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0.0, T, 500))
        x = np.linspace(0.6, T - 0.6, 999)
        grid = np.linspace(0.0, T, 301)
        V = rng.standard_normal((times.size, R))
        got = []
        for bound in (1, 1 << 40):
            monkeypatch.setattr(smoother, "_BAND_CHUNK", bound)
            est, E = _band_rows(times, x, 0.6, 3, 8, make_kernel(8, 3), V)
            got.append((est, E, _weight_matrix(times, T, grid, 3, 8, 0.6)))
        for a, b in zip(*got):
            np.testing.assert_array_equal(a, b)

    def test_chunk_arrays_stay_within_the_bound(self, monkeypatch):
        # n = 4000 at R = 100 with windows of about 370 observations: one
        # chunk of every block would gather about 300 MB of data rows
        n, R, lam = 4000, 100, 0.4625
        times = np.arange(1, n + 1) * (T / n)
        cgrid = np.linspace(0.0, T, 4 * n)
        x = cgrid[(cgrid >= lam) & (cgrid <= T - lam)]
        assert 360 <= np.max(smoother._check_windows(times, x, lam)) <= 380
        sizes = []
        real = smoother._band_blocks

        def spy(*a, **k):
            for blk, cells, D in real(*a, **k):
                # U and the Horner values hold one more edge than D has cells
                sizes.append((D.shape[0], max(D.size + D.shape[0] * D.shape[1],
                                              cells.size * R)))
                yield blk, cells, D

        monkeypatch.setattr(smoother, "_band_blocks", spy)
        V = np.random.default_rng(9).standard_normal((n, R))
        _band_rows(times, x, lam, 0, 8, make_kernel(8, 0), V, moments=False)
        assert len(sizes) > 1
        assert sum(k for k, _ in sizes) == smoother._blocked(x).shape[0]
        assert max(size for _, size in sizes) <= smoother._BAND_CHUNK

    def test_unsorted_grid(self):
        # blocks then span their rows' lowest to highest column, not the
        # first row's band
        times = np.sort(np.random.default_rng(3).uniform(0.05, T, 300))
        grid = np.random.default_rng(4).permutation(np.linspace(0.0, T, 300))
        W = _weight_matrix(times, T, grid, 2, 8, 0.9)
        assert_rows_match_oracle(W, dense_weights(times, T, grid, 2, 8, 0.9))

    def test_band_keeps_cells_at_rounding_distance(self):
        # grid 3.75 lies lam = 0.3 from the cell edge 3.45 up to rounding;
        # the rounded kernel argument of that edge still falls inside the
        # support, so the cell next to it carries a weight (of order 1e-44
        # exactly, 1e-15 in float), and the band keeps it: the nonzero
        # weights sit where the oracle's do
        times = np.arange(1, 101) * (T / 100)
        grid = np.linspace(0.0, T, 257)
        # alone in its block, the point's own window sets the block's cells
        for x in (grid, np.array([3.75]), np.array([6.25])):
            W = _weight_matrix(times, T, x, 1, 4, 0.3)
            O = dense_weights(times, T, x, 1, 4, 0.3)
            assert_rows_match_oracle(W, O)
            np.testing.assert_array_equal(W != 0, O != 0)

    def test_blocks_of_a_sorted_grid_span_about_one_window(self, monkeypatch):
        # interior, left-edge and right-edge points are blocked apart, so no
        # block of a sorted grid spans the design from one end to the other
        spans = []
        real = smoother._band_blocks

        def spy(*a, **k):
            for blk, cells, D in real(*a, **k):
                spans.append(cells.shape[1])
                yield blk, cells, D

        monkeypatch.setattr(smoother, "_band_blocks", spy)
        times = np.arange(1, 301) * (T / 300)
        _weight_matrix(times, T, np.linspace(0.0, T, 1024), 0, 8, 0.5)
        # a window of 2 lam holds 30 observations; a block adds its own
        # spread of 16 grid spacings, under 5 of them
        assert spans and max(spans) <= 40


def _design(kind, n):
    if kind == "equispaced":
        return np.arange(1, n + 1) * (T / n)
    return np.sort(np.random.default_rng(n).uniform(0.0, T, n))


class TestWindowedRows:
    """The windowed prefix sums against the band rows they replace.

    The band path is the oracle: `_band_rows` for the estimates and the
    moment deviations that `_moment_worst` reads. Estimates are compared
    relative to the largest row sum of |w_i| |y_i|, the scale on which
    either path rounds: for a smooth column at j = 5 the kernel sum cancels
    to a value far below it, and both paths then sit about 1e-9 off an
    extended-precision evaluation relative to the estimate itself. Moment
    errors are compared relative to their value, with a floor of 1e-13
    (T/lam)^j for the band path's own rounding: at n = 2000, j = 5 and
    lam = 1 its moment deviations are about 1e-12 off an extended-precision
    evaluation, and the probe reading carries them by up to (T/lam)^j.
    """

    @pytest.mark.parametrize("n", [100, 300, 2000])
    @pytest.mark.parametrize("kind", ["equispaced", "random"])
    def test_matches_band_path(self, kind, n):
        times = _design(kind, n)
        rng = np.random.default_rng(1)
        V = np.column_stack([np.sin(times), rng.standard_normal(n), 3 * np.exp(-times)])
        cgrid = np.linspace(0.0, T, 2000)
        # 40 grid spacings: blocks of lam/4 then hold 11 points, fewer than
        # the 12 or 13 interpolation nodes
        narrow = 40 * cgrid[1]
        for j in range(6):
            ker = make_kernel(8, j)
            for lam in (narrow, 0.25, 0.6, 1.0):
                x = cgrid[(cgrid >= lam) & (cgrid <= T - lam)]
                want, E = _band_rows(times, x, lam, j, 8, ker, V)
                W = _weight_matrix(times, T, x, j, 8, lam)
                scale = np.max(np.abs(W) @ np.abs(V), axis=0)
                rel = _moment_worst(E, x, lam, j, T)
                for Vr in (V, V[:, :1]):
                    est, E = _windowed_rows(times, x, lam, j, 8, ker, Vr)
                    r = Vr.shape[1]
                    assert np.max(np.abs(est - want[:, :r]) / scale[:r]) <= 1e-11, (j, lam, r)
                    got = _moment_worst(E, x, lam, j, T)
                    assert abs(got - rel) <= 1e-7 * rel + 1e-13 * (T / lam) ** j, (j, lam, r)

    @pytest.mark.parametrize("kind", ["equispaced", "random"])
    def test_chunks_do_not_change_a_bit(self, monkeypatch, kind):
        # every point is summed within its own block, so how many blocks
        # go into a chunk changes no estimate and no moment deviation
        for n in (500, 2000):
            times = _design(kind, n)
            V = np.random.default_rng(6).standard_normal((n, 7))
            cgrid = np.linspace(0.0, T, 4 * n)
            for j, lam in ((0, 1.5), (1, 0.7), (3, 0.3)):
                x = cgrid[(cgrid >= lam) & (cgrid <= T - lam)]
                ker = make_kernel(8, j)
                got = []
                for bound in (1 << 12, 1 << 16, 1 << 18, 1 << 24):
                    monkeypatch.setattr(smoother, "_WINDOW_CHUNK", bound)
                    for Vr in (V, V[:, :1]):
                        est, E = _windowed_rows(times, x, lam, j, 8, ker, Vr)
                        alone, _ = _windowed_rows(times, x, lam, j, 8, ker, Vr, moments=False)
                        got.append((est, E, alone))
                for a in got[2:]:
                    want = got[0] if a[0].shape[1] == 7 else got[1]
                    for u, v in zip(a, want):
                        np.testing.assert_array_equal(u, v, err_msg="n=%d j=%d" % (n, j))

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("n,size,bound", [
        (2000, 8000, 1 << 18),  # first probes at n = 2000: wide windows
        (100, 2000, 1 << 14),   # blocks holding more points than observations
    ])
    def test_chunk_arrays_stay_within_the_bound(self, monkeypatch, n, size, bound, R):
        # the prefix sums of the data and of the L moment columns, and the
        # sums gathered at each point's window ends
        monkeypatch.setattr(smoother, "_WINDOW_CHUNK", bound)
        sizes = []
        real = smoother._window_sums

        def spy(Pv, cols, ell, hi, lo):
            C = cols.shape[-1]
            F = Pv.shape[0] * (Pv.shape[1] + 1) * Pv.shape[2] * C
            gathered = hi[0].size * Pv.shape[2] * C
            sizes.append((Pv.shape[0], max(Pv.size, cols.size, F, gathered)))
            return real(Pv, cols, ell, hi, lo)

        monkeypatch.setattr(smoother, "_window_sums", spy)
        times = _design("random", n)
        cgrid = np.linspace(0.0, T, size)
        V = np.random.default_rng(7).standard_normal((times.size, R))
        for j, lam in ((0, 1.0), (2, 2.0)):
            x = cgrid[(cgrid >= lam) & (cgrid <= T - lam)]
            del sizes[:]
            _windowed_rows(times, x, lam, j, 8, make_kernel(8, j), V)
            # one call each for the data and the moment columns per chunk
            assert len(sizes) > 2
            assert max(size for _, size in sizes) <= bound

    @pytest.mark.parametrize("R", [1, 3, 100])
    def test_columns_do_not_touch_each_other(self, R):
        # the store reuses a moment error at any R and skips the moment
        # columns on a hit, so neither may move the other's bits
        times = _design("random", 2000)
        V = np.random.default_rng(5).standard_normal((times.size, R))
        cgrid = np.linspace(0.0, T, 8000)
        for j, lam in ((0, 1.0), (3, 0.4)):
            x = cgrid[(cgrid >= lam) & (cgrid <= T - lam)]
            ker = make_kernel(8, j)
            est, E = _windowed_rows(times, x, lam, j, 8, ker, V)
            alone, none = _windowed_rows(times, x, lam, j, 8, ker, V, moments=False)
            assert none is None
            np.testing.assert_array_equal(alone, est)
            np.testing.assert_array_equal(E, _windowed_rows(times, x, lam, j, 8, ker, V[:, :1])[1])

    def test_points_on_interpolation_nodes(self):
        # offsets that land exactly on a Chebyshev node take the node's value
        times = _design("random", 300)
        lam, j = 0.8, 2
        ker = make_kernel(8, j)
        D = ker.antiderivative().size
        k = np.arange(D)
        nodes = 0.125 * (1.0 - np.cos((2 * k + 1) * math.pi / (2 * D)))
        x = np.sort(np.concatenate([3.0 + lam * nodes, [3.0 + 0.2 * lam]]))
        V = np.sin(times)[:, None]
        est, _ = _windowed_rows(times, x, lam, j, 8, ker, V)
        scale = np.max(np.abs(_weight_matrix(times, T, x, j, 8, lam)) @ np.abs(V))
        assert np.max(np.abs(est - _band_rows(times, x, lam, j, 8, ker, V)[0])) <= 1e-11 * scale

    @pytest.mark.parametrize("kind,n,sigma", [
        ("random", 300, 0.01),
        ("equispaced", 600, 0.01),
        ("equispaced", 100, 0.001),  # order 4 falls back to the least-biased level
    ])
    def test_lepski_batch_same_decisions_on_either_path(self, monkeypatch, empty_store,
                                                        kind, n, sigma):
        times = _design(kind, n)
        rng = np.random.default_rng(2)
        for R in (3, 100):  # a few columns, then a Monte-Carlo batch
            V = np.sin(times)[:, None] + sigma * rng.standard_normal((n, R))
            for j in range(5):
                got = []
                for per_degree in (0, 10**9):  # every level windowed, then none
                    monkeypatch.setattr(smoother, "_WINDOW_OBS_PER_DEGREE", per_degree)
                    got.append(_lepski_batch(times, T, V, sigma, j, 8)[2])
                win, band = got
                np.testing.assert_array_equal(win["levels"], band["levels"])
                assert win["admissible"] == band["admissible"]
                np.testing.assert_array_equal(win["selected_index"], band["selected_index"])
                assert win["fallback"] == band["fallback"]
        if n == 100:
            assert band["fallback"] == "least_biased"
        # the store keys the moment error by path, so each path read its own
        levels = [lv for lv in smoother._design_facts(times, T).values() if lv.obs]
        assert levels and all(set(lv.rel) == {"band", "windowed"} for lv in levels)


class TestPathSwitch:
    """``_probe_level`` picks the windowed path by a cost rule in the widest
    window's observation count w, the column count R and the kernel."""

    @staticmethod
    def _route(monkeypatch, n, lam, j, R):
        """(widest window's observation count, whether the level went windowed),
        the same on a first probe and on a second that reads the stored facts."""
        calls = []
        for name in ("_band_rows", "_windowed_rows"):
            monkeypatch.setattr(smoother, name,
                                lambda *a, real=getattr(smoother, name), name=name, **k:
                                calls.append((name, k["moments"])) or real(*a, **k))
        times = np.arange(1, n + 1) * (T / n)
        cgrid = np.linspace(0.0, T, smoother._comparison_size(n))
        x = cgrid[(cgrid >= lam) & (cgrid <= T - lam)]
        obs = int(np.max(smoother._check_windows(times, x, lam)))
        level = smoother._Level(obs)
        for _ in range(2):  # a miss completes the level's facts, then a hit
            smoother._probe_level(times, x, lam, j, 8, T, make_kernel(8, j),
                                  np.ones((n, R)), math.inf, level)
        # the hit sums the data columns only
        path = calls[0][0]
        assert calls == [(path, True), (path, False)], calls
        return obs, path == "_windowed_rows"

    @pytest.mark.parametrize("j", [0, 1])
    def test_single_column_switch_sits_at_six_per_degree(self, monkeypatch, j):
        deg = make_kernel(8, j).degree
        seen = set()
        for w in range(6 * deg - 3, 6 * deg + 4):
            obs, windowed = self._route(monkeypatch, 1000, (w + 0.5) / 200, j, 1)
            assert windowed == (obs > 6 * deg), obs
            seen.add(windowed)
        assert seen == {False, True}

    def test_many_columns_keep_wide_levels_on_band_rows(self, monkeypatch):
        assert self._route(monkeypatch, 1000, 1.0, 0, 1)[1]
        assert self._route(monkeypatch, 1000, 1.0, 0, 10)[1]
        assert not self._route(monkeypatch, 1000, 1.0, 0, 100)[1]


@pytest.fixture
def empty_store():
    """An empty store of design facts for the test, emptied again after it."""
    smoother._design_store.cache_clear()
    yield
    smoother._design_store.cache_clear()


class TestDesignStore:
    """``_lepski_batch`` keeps each design's level facts (``_design_facts``)."""

    @staticmethod
    def _data(kind, n, sigma, R, seed):
        times = _design(kind, n)
        V = np.sin(times)[:, None] + sigma * np.random.default_rng(seed).standard_normal((n, R))
        return times, V

    @pytest.mark.parametrize("path,per_degree", [("band", 10**9), ("windowed", 0)])
    @pytest.mark.parametrize("R", [1, 100])
    @pytest.mark.parametrize("kind,n,sigma", [("random", 300, 0.01), ("equispaced", 100, 0.001)])
    def test_repeat_matches_a_first_call(self, monkeypatch, empty_store, kind, n, sigma, R,
                                         path, per_degree):
        monkeypatch.setattr(smoother, "_WINDOW_OBS_PER_DEGREE", per_degree)
        times, V1 = self._data(kind, n, sigma, R, 1)
        _, V2 = self._data(kind, n, sigma, R, 2)
        moments = {"_band_rows": [], "_windowed_rows": []}
        for name, seen in moments.items():
            monkeypatch.setattr(smoother, name,
                                lambda *a, real=getattr(smoother, name), seen=seen, **k:
                                seen.append(k["moments"]) or real(*a, **k))
        moment_errors, windowed = moments["_band_rows"], moments["_windowed_rows"]
        fallbacks = set()
        for j in range(5):
            smoother._design_store.cache_clear()
            fresh = _lepski_batch(times, T, V2, sigma, j, 8)
            smoother._design_store.cache_clear()
            first = _lepski_batch(times, T, V1, sigma, j, 8)[2]
            assert first["levels_reused"] == 0 < first["levels_probed"]
            assert (any(moment_errors), bool(windowed)) == (path == "band", path == "windowed")
            del moment_errors[:], windowed[:]
            lam, selected, repeat = _lepski_batch(times, T, V2, sigma, j, 8)
            np.testing.assert_array_equal(lam, fresh[0])
            np.testing.assert_array_equal(selected, fresh[1])
            np.testing.assert_array_equal(repeat["selected_index"], fresh[2]["selected_index"])
            assert repeat["admissible"] == fresh[2]["admissible"]
            assert repeat["fallback"] == fresh[2]["fallback"]
            fallbacks.add(repeat["fallback"])
            # every probed level is read from the store: no moment sums
            assert repeat["levels_reused"] == repeat["levels_probed"] == first["levels_probed"]
            assert not any(moment_errors) and not any(windowed)
        # order 4 falls back to the least-biased level on both designs
        assert fallbacks == {None, "least_biased"}

    def test_one_ulp_or_another_T_misses(self, empty_store):
        times, V = self._data("random", 200, 0.01, 1, 0)
        moved = times.copy()
        moved[77] = np.nextafter(moved[77], np.inf)
        for t, T_ in ((times, T), (moved, T), (times, np.nextafter(T, np.inf))):
            details = _lepski_batch(t, T_, V, 0.01, 1, 8)[2]
            assert details["levels_reused"] == 0 < details["levels_probed"]
        assert _lepski_batch(times, T, V, 0.01, 1, 8)[2]["levels_reused"] > 0

    def test_oldest_design_goes_first(self, empty_store):
        cap = smoother._DESIGN_CAP
        assert cap >= 4  # large-n cycles through four designs
        designs = [np.arange(1, 51 + k) * (T / (50 + k)) for k in range(cap + 1)]
        stores = [smoother._design_facts(t, T) for t in designs]
        for facts in stores:
            facts["seen"] = True
        assert smoother._design_facts(designs[1], T) is stores[1]
        assert smoother._design_facts(designs[0], T) == {}
        assert smoother._design_store.cache_info().currsize == cap

    def test_concurrent_callers_agree(self, empty_store):
        # more threads than cores, switching often, on one design and on
        # more designs than the store keeps
        times, V = self._data("random", 200, 0.01, 3, 0)
        want = [_lepski_batch(times, T, V, 0.01, j, 8)[1] for j in range(3)]
        others = [np.arange(1, 41 + k) * (T / (40 + k)) for k in range(3 * smoother._DESIGN_CAP)]
        smoother._design_store.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                picks = [pool.submit(_lepski_batch, times, T, V, 0.01, k % 3, 8)
                         for k in range(12)]
                churn = [pool.submit(smoother._design_facts, t, T) for t in others]
                got = [f.result(timeout=120) for f in picks]
                for f in churn:
                    f.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        for k, (_, selected, _) in enumerate(got):
            np.testing.assert_array_equal(selected, want[k % 3])
        assert smoother._design_store.cache_info().currsize == smoother._DESIGN_CAP

    def test_threads_share_the_store(self, empty_store):
        from lapdeconv import run_table

        # the three cells share one design; a caller's threads run one cell
        # each, and the serial table runs all three, each from an empty store
        cells = [("g2", "f1", 100, 0), ("g1", "f1", 100, 2), ("g4", "f2", 100, 1)]
        serial = run_table(cells, runs=4, seed=5)
        smoother._design_store.cache_clear()
        with ThreadPoolExecutor(max_workers=len(cells)) as pool:
            futures = [pool.submit(run_table, [cell], runs=4, seed=5) for cell in cells]
            threaded = [f.result(timeout=120)[0] for f in futures]
        for (cell, one), (got_cell, other) in zip(serial, threaded):
            assert got_cell == cell
            np.testing.assert_array_equal(other.per_run_mse, one.per_run_mse)
            assert other.bandwidth_counts == one.bandwidth_counts


def _on_new_thread(calls):
    """Run the zero-argument calls in turn on one new thread, whose selection
    workspace starts empty. Returns, per call, its result and the thread's
    workspace after it as (buffer floats, high-water floats), or None when
    the thread kept no workspace."""
    out = []

    def run():
        for call in calls:
            result = call()
            ws = getattr(smoother._THREAD, "workspace", None)
            out.append((result, None if ws is None else (ws.buf.size, ws.high)))

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=300)
    assert not t.is_alive() and len(out) == len(calls)
    return out


class TestWorkspace:
    """``_lepski_batch`` takes its comparison estimates and its one buffer of
    squared differences from a workspace its thread keeps (``_workspace``)."""

    # (design, n, R, sigma, j): failing levels in the first and third, the
    # least-biased fallback in the last; the fourth needs the most floats
    CALLS = [("equispaced", 100, 1, 0.01, 0), ("random", 300, 100, 0.01, 1),
             ("equispaced", 250, 100, 0.001, 2), ("random", 600, 100, 0.01, 0),
             ("equispaced", 100, 100, 0.01, 0), ("equispaced", 100, 1, 0.001, 4)]

    @staticmethod
    def _call(kind, n, R, sigma, j):
        """A selection from an empty design store, then the estimates of
        every column at its selected level on an output grid."""
        def call():
            times = _design(kind, n)
            V = np.sin(times)[:, None] + sigma * np.random.default_rng(n + R).standard_normal(
                (n, R))
            smoother._design_store.cache_clear()
            lam, selected, details = _lepski_batch(times, T, V, sigma, j, 8)
            grid = np.linspace(0.0, T, 257)
            Q = np.empty((grid.size, R))
            for lv in np.unique(lam):
                cols = np.flatnonzero(lam == lv)
                Q[:, cols] = DesignWeights(times, T).apply(j, 8, lv, grid, V[:, cols])
            return lam, selected, details, Q
        return call

    @staticmethod
    def _assert_same(got, want):
        for a, b in zip(got[:2] + got[3:], want[:2] + want[3:]):
            np.testing.assert_array_equal(a, b)
        assert got[2].keys() == want[2].keys()
        for key, value in want[2].items():
            np.testing.assert_array_equal(got[2][key], value)

    def test_calls_match_a_fresh_thread(self, empty_store):
        calls = [self._call(*c) for c in self.CALLS]
        steps = _on_new_thread(calls)
        buffers = [ws[0] for _, ws in steps]
        highs = [ws[1] for _, ws in steps]
        # the fourth call outgrew the buffer the first three left, and the
        # fifth ran in one buffer of the fourth's high-water size
        assert buffers[3] == max(highs[:3]) < highs[3] == buffers[4]
        assert highs[4] < buffers[4]
        for call, (got, _) in zip(calls, steps):
            (want, ws), = _on_new_thread([call])
            assert ws[0] == 0  # a fresh thread's call takes fresh arrays only
            self._assert_same(got, want)

    def test_repeats_keep_one_buffer(self, empty_store):
        call = self._call("random", 300, 100, 0.01, 1)
        steps = _on_new_thread([call] * 3)
        high = steps[0][1][1]
        assert high > 0
        assert [ws for _, ws in steps] == [(0, high), (high, high), (high, high)]
        for got, _ in steps[1:]:
            self._assert_same(got, steps[0][0])

    def test_failed_levels_give_their_space_back(self, monkeypatch, empty_store):
        probes = []  # (workspace floats in use before, floats taken, level passed)
        real = smoother._probe_level

        def spy(*args):
            ws = args[-1].__self__  # the probe writes into the workspace's take
            before = ws.top
            rel, est = real(*args)
            probes.append((before, ws.top - before, est is not None))
            return rel, est

        monkeypatch.setattr(smoother, "_probe_level", spy)
        times = _design("equispaced", 100)
        V = np.sin(times)[:, None] + 0.01 * np.random.default_rng(0).standard_normal((100, 100))
        _on_new_thread([lambda: _lepski_batch(times, T, V, 0.01, 0, 8)])
        passed = [p for _, _, p in probes]
        # levels that fail the moment check, each with a probe after it
        assert not all(passed[:-1]) and any(passed)
        kept = 0
        for before, taken, ok in probes:
            assert before == kept
            kept += taken if ok else 0

    def test_a_call_above_the_bound_keeps_no_workspace(self, monkeypatch, empty_store):
        call = self._call("random", 300, 100, 0.01, 1)
        (want, (_, high)), = _on_new_thread([call])
        monkeypatch.setattr(smoother, "_WORKSPACE_KEEP", high)
        (_, kept), = _on_new_thread([call])
        assert kept == (0, high)
        monkeypatch.setattr(smoother, "_WORKSPACE_KEEP", high - 1)
        steps = _on_new_thread([call, call])
        assert [ws for _, ws in steps] == [None, None]
        for got, _ in steps:
            self._assert_same(got, want)


class TestLepski:
    def test_selected_bandwidth_is_grid_member(self):
        d = equispaced(500, np.sin, sigma=0.05, seed=7)
        lam, details = lepski_select(d, 0, 8, return_details=True)
        assert any(np.isclose(lam, details["levels"]).tolist())
        assert details["selected_index"][0] in details["admissible"]

    def test_details_fields(self):
        d = equispaced(500, np.sin, sigma=0.05, seed=7)
        _, details = lepski_select(d, 1, 8, return_details=True)
        for key in ("levels", "admissible", "selected_index", "C", "hmin",
                    "comparison_grid_size", "fallback"):
            assert key in details

    @pytest.mark.parametrize("n, size", [(100, 500), (250, 500), (2000, 2000)])
    def test_comparison_grid_has_one_point_per_observation_and_at_least_500(self, n, size):
        d = equispaced(n, np.sin, sigma=0.05, seed=7)
        _, details = lepski_select(d, 0, 8, return_details=True)
        assert details["comparison_grid_size"] == smoother._comparison_size(n) == size

    @pytest.mark.parametrize("kind, draws, lo, hi", [
        ("uniform", 40, 15, 301), ("arcsine", 40, 15, 301), ("gap", 40, 15, 301),
        ("arcsine", 3, 500, 2001), ("gap", 12, 500, 2001)])
    def test_admitted_levels_leave_no_empty_window_on_a_fine_grid(self, kind, draws, lo, hi):
        # The comparison grid sees a window only at its own points, so a
        # level could pass with an empty window between them, and the output
        # grid would then hold a point without an observation. Random gap
        # widths put the gap's need just below some level in some draws;
        # from n = 500 on the comparison grid has one point per observation.
        rng = np.random.default_rng(0)
        fine = np.linspace(0.0, T, 20000)
        admitted = 0
        for _ in range(draws):
            n = int(rng.integers(lo, hi))
            sigma = 10 ** rng.uniform(-4, -1)
            u = rng.uniform(size=n)
            if kind == "arcsine":
                u = (1 - np.cos(np.pi * u)) / 2
            elif kind == "gap":
                a, w = rng.uniform(0.1, 0.7), rng.uniform(0.05, 0.3)
                u = np.where(u < a, u, u + w) / (1 + w)
            times = np.sort(u) * T
            V = (np.sin(times) + sigma * rng.standard_normal(n))[:, None]
            for j in range(4):
                try:
                    _, _, details = _lepski_batch(times, T, V, sigma, j, 8)
                except EstimationError:
                    continue
                for li in details["admissible"]:
                    lam = details["levels"][li]
                    assert np.all(smoother._check_windows(times, fine, lam) > 0), (n, j, lam)
                    admitted += 1
        assert admitted > draws

    def test_a_window_empty_between_comparison_points_is_not_open(self):
        # 600 equispaced observations with none in (4, 5): the comparison
        # point nearest the gap's middle 4.5 sits 0.0075 off it, so its
        # window of half-width 0.495 reaches t = 5, while the window at 4.5
        # itself holds no observation
        times = np.arange(1, 601) * (T / 600)
        times = times[(times <= 4.0) | (times >= 5.0)]
        x = np.linspace(0.0, T, 600)
        x = x[(x >= 0.495) & (x <= T - 0.495)]
        assert np.all(smoother._check_windows(times, x, 0.495) > 0)
        assert smoother._check_windows(times, np.array([4.5]), 0.495)[0] == 0
        assert smoother._open_windows(times, x, 0.495, T) == 0
        assert smoother._open_windows(times, x, 0.505, T) > 0

    def test_deterministic(self):
        d = equispaced(400, np.sin, sigma=0.05, seed=3)
        assert lepski_select(d, 0, 8) == lepski_select(d, 0, 8)

    @pytest.mark.parametrize("j", range(4))
    def test_C_is_the_kernel_norm(self, j):
        d = equispaced(500, np.sin, sigma=0.05, seed=7)
        _, details = lepski_select(d, j, 8, return_details=True)
        assert details["C"] == math.sqrt(make_kernel(8, j).norm2)

    def test_small_sigma_adds_no_level_above_the_gap(self):
        # sigma = 1e-9 deepens the grid to 233 levels, all new ones below
        # the need of 0.04, so the 18 levels above it at a = 1.2 still pass
        d = equispaced(250, np.sin, sigma=1e-9, seed=1)
        lam, details = lepski_select(d, 0, 8, return_details=True)
        assert np.count_nonzero(details["levels"] > 0.04) == 18
        assert details["levels"].size == 233
        assert lam in details["levels"]

    def test_level_loop_stops_at_the_first_empty_level(self, monkeypatch, empty_store):
        # sigma = 1e-9 gives 233 levels, of which the 18 above the need of
        # 0.04 see an observation in every window; no level below the first
        # empty one is checked
        d = equispaced(250, np.sin, sigma=1e-9, seed=1)
        real, counts = smoother._open_windows, []
        monkeypatch.setattr(smoother, "_open_windows",
                            lambda *a: counts.append(real(*a)) or counts[-1])
        _, details = lepski_select(d, 0, 8, return_details=True)
        assert len(counts) == 19 and counts[-1] == 0 and all(counts[:-1])
        assert details["levels_probed"] == len(counts) < details["levels"].size

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_columns_select_as_they_do_alone(self, j):
        # frequencies 1..8 spread the selections over several levels
        times = np.arange(1, 251) * (T / 250)
        rng = np.random.default_rng(3)
        V = np.sin(np.outer(times, np.linspace(1.0, 8.0, 100)))
        V += 0.01 * rng.standard_normal(V.shape)
        _, selected, _ = _lepski_batch(times, T, V, 0.01, j, 8)
        alone = [_lepski_batch(times, T, V[:, [k]], 0.01, j, 8)[1][0]
                 for k in range(V.shape[1])]
        assert np.unique(selected).size > 1
        np.testing.assert_array_equal(selected, alone)

    def test_smoother_noise_selects_no_smaller(self):
        # with less noise the selector may keep a smaller bandwidth; with
        # more noise it must not pick one below the noisier run's choice
        da = equispaced(1000, np.sin, sigma=0.01, seed=5)
        db = equispaced(1000, np.sin, sigma=0.3, seed=5)
        assert lepski_select(db, 0, 8) >= lepski_select(da, 0, 8) - 1e-12

    def test_least_biased_fallback_is_recorded(self):
        # at n = 100 no level of order 4 meets the moment conditions
        d = equispaced(100, np.sin, sigma=0.001, seed=0)
        _, details = lepski_select(d, 4, 8, return_details=True)
        assert details["fallback"] == "least_biased"
        assert len(details["admissible"]) == 1

    def test_no_fallback_when_a_level_is_admissible(self):
        d = equispaced(250, np.sin, sigma=0.01, seed=0)
        _, details = lepski_select(d, 1, 8, return_details=True)
        assert details["fallback"] is None

    def test_gapped_design_names_widest_gap(self):
        # 90 points on (0, 1] and 10 on [9.1, 10]: no level of the grid
        # bridges (1, 9.1), which needs lam above half its length
        times = np.concatenate([np.linspace(0.0, 1.0, 91)[1:], np.linspace(9.1, T, 10)])
        d = NoisySample(times, np.sin(times), T, 0.01)
        with pytest.raises(EstimationError,
                           match=r"gap, from t=1 to t=9\.1, needs a bandwidth above 4\.05"):
            lepski_select(d, 0, 8)

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    @pytest.mark.parametrize("gapped", [False, True])
    def test_coarse_comparison_grid_is_named_not_the_gap(self, j, gapped):
        # T = 2, n = 10 and sigma = 1.5 give the one-level grid {1} = {T/2},
        # whose interior zone [1, 1] holds no point of the comparison grid,
        # so no level reaches the window check at any order
        times = np.arange(1, 11) * 0.2
        if gapped:
            times = np.concatenate([np.arange(1, 6) * 0.1, 1.5 + np.arange(1, 6) * 0.1])
        d = NoisySample(times, np.sin(times), 2.0, 1.5)
        size = smoother._comparison_size(10)
        with pytest.raises(EstimationError,
                           match="for j=%d: the comparison grid of %d points" % (j, size)) as exc:
            lepski_select(d, j, 8)
        assert "gap" not in str(exc.value)

    def test_levels_above_half_interval_are_named(self):
        # T = 1 and sigma^2 T^2 / n = 0.9 give the one-level grid {1} > T/2
        times = np.arange(1, 11) * 0.1
        d = NoisySample(times, np.sin(times), 1.0, 3.0)
        with pytest.raises(EstimationError,
                           match=r"every level of the grid, from 1 down to 1, exceeds T/2 = 0\.5"):
            lepski_select(d, 0, 8)

    def test_sigma_zero_propagates(self):
        d = equispaced(400, np.sin, sigma=0.0)
        with pytest.raises(AdaptationError):
            lepski_select(d, 0, 8)


class TestEstimateDerivative:
    def test_recovers_signal_and_slope(self):
        d = equispaced(800, np.sin, sigma=0.01, seed=11)
        grid = np.linspace(0.0, T, 400)
        interior = (grid > 1.0) & (grid < 9.0)
        e0 = estimate_derivative(d, 0, 8, grid=grid)
        assert np.max(np.abs(e0.values[interior] - np.sin(grid[interior]))) < 0.01
        e1 = estimate_derivative(d, 1, 8, grid=grid)
        assert np.max(np.abs(e1.values[interior] - np.cos(grid[interior]))) < 0.08

    @pytest.mark.parametrize("sigma", [0.002, 0.002 / 16])
    def test_small_noise_keeps_levels_that_resolve_the_design(self, sigma):
        # At n=100 the smallest levels span one to three design spacings;
        # their cell weights pass global monomial probes but carry an
        # O(1e-1) discretization error, which only the moment conditions at
        # the level's own scale reveal.
        d = equispaced(100, lambda t: np.sin(2.5 * t), sigma=sigma, seed=0)
        est = estimate_derivative(d, 0, 8)
        interior = (est.grid >= 1.0) & (est.grid <= 9.0)
        err = np.abs(est.values[interior] - np.sin(2.5 * est.grid[interior]))
        assert np.max(err) < 2e-2

    def test_default_grid(self):
        d = equispaced(300, np.sin, sigma=0.05, seed=2)
        est = estimate_derivative(d, 0, 8)
        assert est.grid.size == 1024
        assert est.grid[0] == 0.0 and est.grid[-1] == T


class TestDesignWeights:
    def test_matches_direct_construction(self):
        n = 200
        times = np.arange(1, n + 1) * (T / n)
        dw = DesignWeights(times, T)
        grid = np.linspace(0.0, T, 50)
        W = dw.weight_matrix(1, 4, 0.5, grid)
        np.testing.assert_array_equal(W, _weight_matrix(times, T, grid, 1, 4, 0.5))
        assert_rows_match_oracle(W, dense_weights(times, T, grid, 1, 4, 0.5))


class TestEstimateSigma:
    def test_exact_small_case(self):
        d = NoisySample([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0], T, 0.1)
        assert estimate_sigma(d) == pytest.approx(np.sqrt(3.0 / 6.0))

    def test_values_beyond_the_square_range(self):
        # squares of differences near 1e200 overflow; the scaled form does not
        values = 1e200 * np.array([0.0, 1.0, 0.0, 1.0])
        d = NoisySample([1.0, 2.0, 3.0, 4.0], values, T, 0.1)
        with np.errstate(over="raise"):
            assert estimate_sigma(d) == pytest.approx(1e200 * np.sqrt(3.0 / 6.0))

    def test_recovers_noise_scale(self):
        d = equispaced(5000, np.sin, sigma=0.05, seed=3)
        assert estimate_sigma(d) == pytest.approx(0.05, rel=0.05)


@given(st.integers(min_value=0, max_value=2), st.floats(min_value=0.3, max_value=2.0))
@settings(max_examples=15, deadline=None)
def test_estimate_is_finite_property(j, lam):
    n = 600
    times = np.arange(1, n + 1) * (T / n)
    y = np.exp(-0.3 * times)
    d = NoisySample(times, y, T, 0.01)
    grid = np.linspace(0.0, T, 97)
    est = pc_estimate(d, j, 4, lam, grid)
    assert np.all(np.isfinite(est.values))
