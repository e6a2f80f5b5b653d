"""Tests for derivative smoothing and adaptive bandwidth selection."""

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

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
    _lepski_batch,
    check_bandwidth,
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
            W1 = DesignWeights(times, T).weight_matrix(j, 4, 0.4, np.array([5.0]))
            W2 = DesignWeights(times, T).weight_matrix(j, 4, 0.8, np.array([5.0]))
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
    1e-12 of |O| @ |V|: the bound of ``test_apply_matches_dense_oracle``."""
    V = np.random.default_rng(0).standard_normal((W.shape[1], 3))
    err = np.abs((W - O) @ V)
    bad = np.flatnonzero(np.any(err > 1e-12 * (np.abs(O) @ np.abs(V)) + 1e-300, axis=1))
    assert not bad.size, "rows %s off the oracle" % bad[:10]


def _oracle_case(rng, kind, permuted):
    """(times, grid) of 300 observations and 41 grid points on [0, T]."""
    if kind == "random":
        times = np.sort(rng.uniform(0.0, T, 300))
    elif kind == "clustered":
        times = np.sort(np.concatenate([rng.uniform(2.0, 2.3, 200),
                                        rng.uniform(0.0, T, 100)]))
    else:
        times = np.arange(1, 301) * (T / 300)
    grid = np.linspace(0.0, T, 41)
    return times, rng.permutation(grid) if permuted else grid


# bandwidths at which every window of the three oracle designs holds L = 8
# observations: interior, left-edge and right-edge rows, wide levels included
ORACLE_LAMS = (1.3, 2.9, T / 2)


class TestRows:
    """The local-polynomial rows against the exact oracle rows."""

    @pytest.mark.parametrize("permuted", [False, True])
    @pytest.mark.parametrize("kind", ["random", "clustered", "equispaced"])
    def test_weight_matrix_equals_oracle(self, kind, permuted):
        times, grid = _oracle_case(np.random.default_rng(11), kind, permuted)
        for j in (0, 1, 3, 4):
            for lam in ORACLE_LAMS:
                check_bandwidth(times, T, j, 8, lam)
                W = DesignWeights(times, T).weight_matrix(j, 8, lam, grid)
                assert_rows_match_oracle(W, dense_weights(times, T, grid, j, 8, lam))

    @pytest.mark.parametrize("R", [1, 3, 100])
    @pytest.mark.parametrize("permuted", [False, True])
    @pytest.mark.parametrize("kind", ["random", "clustered", "equispaced"])
    def test_apply_matches_dense_oracle(self, kind, permuted, R):
        # the evaluation of the output grid, in all three point groups,
        # against the oracle's dense matrix times the data
        rng = np.random.default_rng(12)
        times, grid = _oracle_case(rng, kind, permuted)
        V = rng.standard_normal((times.size, R))
        groups = set()
        for j in (0, 1, 3):
            for lam in ORACLE_LAMS:
                groups |= {name for name, member in (
                    ("interior", (grid >= lam) & (grid <= T - lam)),
                    ("left", grid < lam), ("right", grid > T - lam)) if member.any()}
                W = dense_weights(times, T, grid, j, 8, lam)
                got = DesignWeights(times, T).apply(j, 8, lam, grid, V)
                assert got.shape == (grid.size, R)
                err = np.abs(got - W @ V)
                assert np.all(err <= 1e-12 * (np.abs(W) @ np.abs(V)) + 1e-300), (j, lam)
        assert groups == {"interior", "left", "right"}

    def test_rows_reproduce_polynomials_on_the_design(self):
        # the defining property, at boundary points included: sum_i w_i P(t_i)
        # = P^(j)(x) for every P of degree below L
        times = np.sort(np.random.default_rng(5).uniform(0.0, T, 400))
        x = np.array([0.0, 0.3, 1.1, 5.0, 9.2, T])
        for j in range(4):
            W = DesignWeights(times, T).weight_matrix(j, 8, 1.4, x)
            for p in range(8):
                want = math.perm(p, j) * (x / T) ** max(p - j, 0) / T**j if p >= j else 0 * x
                np.testing.assert_allclose(W @ (times / T) ** p, want, rtol=0,
                                           atol=1e-10 * (T / 1.4) ** j)

    def test_orders_share_one_gram_per_point(self, monkeypatch):
        # apply_orders solves each point's Gram once for every order it is
        # given, each order on its own columns
        calls = []
        real = smoother._rows_at
        monkeypatch.setattr(smoother, "_rows_at",
                            lambda *a: calls.append(tuple(a[-1])) or real(*a))
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, T, 500))
        grid = np.linspace(0.0, T, 61)
        V = rng.standard_normal((times.size, 10))
        columns = {0: np.array([0, 4, 7]), 2: np.arange(10), 3: np.array([9])}
        got = DesignWeights(times, T).apply_orders(8, 1.1, grid, V, columns)
        assert calls and set(calls) == {(0, 2, 3)}
        for j, cols in columns.items():
            O = dense_weights(times, T, grid, j, 8, 1.1)
            err = np.abs(got[j] - O @ V[:, cols])
            assert np.all(err <= 1e-12 * (np.abs(O) @ np.abs(V[:, cols])))

    @pytest.mark.parametrize("R", [1, 100])
    def test_chunks_do_not_change_a_bit(self, monkeypatch, R):
        # blocks are formed and solved one by one, so how many go into a
        # chunk changes no result: one block per chunk against one chunk
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0.0, T, 500))
        grid = np.linspace(0.0, T, 301)
        V = rng.standard_normal((times.size, R))
        got = []
        for bound in (1, 1 << 40):
            monkeypatch.setattr(smoother, "_ROW_CHUNK", bound)
            dw = DesignWeights(times, T)
            got.append((dw.apply(3, 8, 0.9, grid, V), dw.weight_matrix(3, 8, 0.9, grid)))
        for a, b in zip(*got):
            np.testing.assert_array_equal(a, b)

    def test_chunk_arrays_stay_within_the_bound(self, monkeypatch):
        # the basis array of a chunk holds blocks x rows x L x span floats
        sizes = []
        real = smoother._rows_at

        def spy(d, *a):
            sizes.append((d.shape[0], d.size * 8))
            return real(d, *a)

        monkeypatch.setattr(smoother, "_rows_at", spy)
        times = np.arange(1, 4001) * (T / 4000)
        grid = np.linspace(0.0, T, 1024)
        DesignWeights(times, T).apply(0, 8, 0.5, grid, np.ones((times.size, 1)))
        assert len(sizes) > 1
        assert sum(k for k, _ in sizes) == -(-grid.size // smoother._BLOCK_ROWS)
        assert max(size for _, size in sizes) <= smoother._ROW_CHUNK

    def test_point_on_an_observation_and_at_the_ends(self):
        # a window edge on an observation weighs it 0; x = 0 and x = T have
        # one-sided supports
        times = np.arange(1, 201) * (T / 200)
        x = np.array([0.0, times[40], times[41] + 1e-3, T])
        for j in (0, 2):
            W = DesignWeights(times, T).weight_matrix(j, 8, 1.0, x)
            assert_rows_match_oracle(W, dense_weights(times, T, x, j, 8, 1.0))
            assert W[-1, -1] == 0.0  # t = T sits on the support's end

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 8, 12])
    def test_basis_is_orthonormal_for_the_envelope(self, L):
        # Q M Q^T = I for the moments M_ab = int u^(a+b) (1 - u^2)^2 du on
        # [-1, 1], formed in Fractions from the float coefficients of Q
        def moment(p):
            if p % 2:
                return Fraction(0)
            return Fraction(2, p + 1) - Fraction(4, p + 3) + Fraction(2, p + 5)

        Q = [[Fraction(c) for c in row] for row in smoother._orthonormal(L).tolist()]
        for a in range(L):
            for b in range(L):
                got = sum(Q[a][p] * Q[b][s] * moment(p + s)
                          for p in range(L) for s in range(L))
                assert abs(float(got) - (a == b)) <= 1e-12, (a, b)

    def test_basis_is_read_only(self):
        # one cached array serves every call, so no caller may change it
        Q = smoother._orthonormal(8)
        assert Q is smoother._orthonormal(8)
        with pytest.raises(ValueError):
            Q[0, 0] = 2.0

    def test_apply_orders_keeps_each_orders_column_order(self):
        # unsorted and repeated columns come back in the order given
        rng = np.random.default_rng(6)
        times = np.sort(rng.uniform(0.0, T, 400))
        grid = np.linspace(0.0, T, 45)
        V = rng.standard_normal((times.size, 8))
        columns = {0: np.array([5, 2, 2]), 3: np.array([7, 0]), 1: np.array([4])}
        dw = DesignWeights(times, T)
        got = dw.apply_orders(8, 1.2, grid, V, columns)
        assert sorted(got) == [0, 1, 3]
        for j, cols in columns.items():
            W = dw.weight_matrix(j, 8, 1.2, grid)
            assert got[j].shape == (grid.size, cols.size)
            err = np.abs(got[j] - W @ V[:, cols])
            assert np.all(err <= 1e-12 * (np.abs(W) @ np.abs(V[:, cols]))), j


class TestLattice:
    """One row per level on an equispaced design against the per-point rows."""

    @pytest.mark.parametrize("n", [100, 200, 250, 2000])
    def test_matches_per_point_rows(self, monkeypatch, n):
        # n = 200 and lam = 1: the spacing computes to 0.04999..., so lam is
        # 20 spacings up to rounding and the row's offsets come from the design
        times = np.arange(1, n + 1) * (T / n)
        step = smoother._lattice_step(times, T)
        assert step is not None
        V = np.random.default_rng(n).standard_normal((n, 3))
        applied = []
        real = smoother._toeplitz_apply
        monkeypatch.setattr(smoother, "_toeplitz_apply",
                            lambda w, *a: applied.append(w.size) or real(w, *a))
        for lam in (1.0, 1.44, 2.5):
            zone = smoother._zone(times, T, lam)
            x = times[zone[0] : zone[1]]
            for j in range(8):
                scale = np.abs(DesignWeights(times, T).weight_matrix(j, 8, lam, x)) @ np.abs(V)
                for Vr in (V, V[:, :1]):
                    del applied[:]
                    got = smoother._zone_estimates(times, T, zone, lam, j, 8, Vr, step)
                    assert applied
                    want = smoother._zone_estimates(times, T, zone, lam, j, 8, Vr, None)
                    err = np.abs(got - want)
                    assert np.all(err <= 1e-12 * scale[:, : Vr.shape[1]]), (lam, j)

    def test_tolerance_is_relative_to_T(self):
        n = 300
        times = np.arange(1, n + 1) * (T / n)
        assert smoother._lattice_step(times, T) == pytest.approx(T / n, rel=1e-14)
        tol = smoother._LATTICE_TOL * T
        for off, lattice in ((0.5 * tol, True), (2 * tol, False)):
            moved = times.copy()
            moved[123] += off
            assert (smoother._lattice_step(moved, T) is not None) == lattice
        assert smoother._lattice_step(np.linspace(0.0, T, 777), T) is not None

    def test_design_just_outside_the_tolerance_takes_per_point_rows(self, monkeypatch):
        n = 250
        times = np.arange(1, n + 1) * (T / n)
        moved = times.copy()
        moved[100] += 2 * smoother._LATTICE_TOL * T
        V = np.sin(times)[:, None] + 0.01 * np.random.default_rng(0).standard_normal((n, 4))
        applied = []
        real = smoother._toeplitz_apply
        monkeypatch.setattr(smoother, "_toeplitz_apply",
                            lambda *a: applied.append(1) or real(*a))
        on = _lepski_batch(times, T, V, 0.01, 1, 8)
        assert applied
        del applied[:]
        off = _lepski_batch(moved, T, V, 0.01, 1, 8)
        assert not applied
        np.testing.assert_array_equal(on[1], off[1])

    @pytest.mark.parametrize("R", [1, 3, 100])
    @pytest.mark.parametrize("m", [0, 4, 40])
    def test_toeplitz_apply_is_the_sliding_sum(self, m, R):
        rng = np.random.default_rng(m + R)
        n = 700
        w = rng.standard_normal(2 * m + 1)
        V = rng.standard_normal((n, R))
        k0, k1 = m + 3, n - m - 1
        out = np.empty((k1 - k0, R))
        smoother._toeplitz_apply(w, V, k0, k1, out)
        want = np.array([w @ V[k - m : k + m + 1] for k in range(k0, k1)])
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12 * np.abs(w).sum())

    @pytest.mark.parametrize("j", range(8))
    def test_lattice_row_reproduces_polynomials_with_the_parity_of_its_order(self, j):
        # the one row of an interior observation, as _zone_estimates forms
        # it: sum_o w_o (o step / lam)^p = j! [p = j] / lam^j for p < L, and
        # w_-o = (-1)^j w_o on the symmetric offsets
        step, lam = T / 250, 1.1
        m = int(lam / step)
        o = np.arange(-m, m + 1)
        d = o * (step / lam)
        w = smoother._rows_at(d[None, :], np.array([[-1.0]]), np.array([[1.0]]),
                              lam, 8, (j,))[0, 0]
        scale = np.abs(w).sum()
        for p in range(8):
            want = math.factorial(j) / lam**j if p == j else 0.0
            assert abs(w @ d**p - want) <= 1e-12 * scale, p
        np.testing.assert_allclose(w[::-1], (-1) ** j * w, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("kind", ["closed", "midpoint"])
    def test_matches_per_point_rows_on_other_lattices(self, kind):
        # lattices that include both ends, and that sit half a spacing in
        if kind == "closed":
            times = np.linspace(0.0, T, 401)
        else:
            times = (np.arange(300) + 0.5) * (T / 300)
        step = smoother._lattice_step(times, T)
        assert step is not None
        V = np.random.default_rng(2).standard_normal((times.size, 3))
        for lam in (1.0, 1.7):
            zone = smoother._zone(times, T, lam)
            x = times[zone[0] : zone[1]]
            for j in range(8):
                scale = np.abs(DesignWeights(times, T).weight_matrix(j, 8, lam, x)) @ np.abs(V)
                got = smoother._zone_estimates(times, T, zone, lam, j, 8, V, step)
                want = smoother._zone_estimates(times, T, zone, lam, j, 8, V, None)
                assert np.all(np.abs(got - want) <= 1e-12 * scale), (lam, j)

    @pytest.mark.parametrize("n, sigma, j", [
        (100, 0.001, 0), (250, 0.01, 1), (600, 0.01, 2), (2000, 0.05, 0)])
    def test_selection_is_the_same_on_either_path(self, monkeypatch, n, sigma, j):
        # the lattice row changes how the comparison estimates are formed,
        # not which levels are selected
        times = np.arange(1, n + 1) * (T / n)
        rng = np.random.default_rng(n)
        V = np.sin(np.outer(times, np.linspace(0.5, 4.0, 20)))
        V += sigma * rng.standard_normal(V.shape)
        on = _lepski_batch(times, T, V, sigma, j, 8)
        monkeypatch.setattr(smoother, "_lattice_step", lambda times, T: None)
        off = _lepski_batch(times, T, V, sigma, j, 8)
        np.testing.assert_array_equal(on[1], off[1])
        np.testing.assert_array_equal(on[0], off[0])
        assert on[2]["comparison_grid_size"] == off[2]["comparison_grid_size"]

    @pytest.mark.parametrize("R", [2, 100])
    @pytest.mark.parametrize("kind", ["equispaced", "random"])
    def test_columns_do_not_touch_each_other(self, kind, R):
        # on the lattice path and the per-point path, a column's estimates
        # are the same to the bit whatever the other columns hold
        times = _design(kind, 250)
        step = smoother._lattice_step(times, T)
        assert (step is not None) == (kind == "equispaced")
        rng = np.random.default_rng(R)
        V = rng.standard_normal((times.size, R))
        W = V.copy()
        W[:, 1:] = 1e6 * rng.standard_normal((times.size, R - 1))
        zone = smoother._zone(times, T, 1.2)
        for j in (0, 3):
            a = smoother._zone_estimates(times, T, zone, 1.2, j, 8, V, step)
            b = smoother._zone_estimates(times, T, zone, 1.2, j, 8, W, step)
            np.testing.assert_array_equal(a[:, 0], b[:, 0])

    def test_repeated_times_are_not_a_lattice(self):
        times = np.arange(1, 101) * (T / 100)
        assert smoother._lattice_step(np.full(5, 2.0), T) is None
        tied = times.copy()
        tied[50] = tied[49]
        assert smoother._lattice_step(tied, T) is None


def _design(kind, n):
    if kind == "equispaced":
        return np.arange(1, n + 1) * (T / n)
    return np.sort(np.random.default_rng(n).uniform(0.0, T, n))


def _fewest_by_scan(times, lo, hi, half):
    """The fewest observations in (x - half, x + half) over x in [lo, hi],
    read at every breakpoint and between every two neighbouring ones."""
    pts = np.concatenate(([lo, hi], times - half, times + half))
    pts = np.unique(pts[(pts >= lo) & (pts <= hi)])
    x = np.concatenate((pts, (pts[:-1] + pts[1:]) / 2))
    counts = [np.count_nonzero((times > v - half) & (times < v + half)) for v in x]
    return min(counts)


class TestAdmissibility:
    """The two observation counts that admit a bandwidth level."""

    @pytest.mark.parametrize("kind", ["equispaced", "random", "gap"])
    def test_counts_are_exact(self, kind):
        rng = np.random.default_rng(4)
        for _ in range(5):
            times = _design("random" if kind == "gap" else kind, 300)
            if kind == "gap":
                times = times[(times < 4.0) | (times > 4.0 + rng.uniform(0.2, 1.0))]
            for half in rng.uniform(0.05, 2.0, 4):
                got, x = smoother._fewest(times, 0.0, T, half)
                assert got == _fewest_by_scan(times, 0.0, T, half)
                assert np.count_nonzero((times > x - half) & (times < x + half)) == got
                got, _ = smoother._fewest(times, half, T - half, half / 2)
                assert got == _fewest_by_scan(times, half, T - half, half / 2)

    def test_a_thin_window_between_grid_points_is_found(self):
        # 600 equispaced observations with none in (4, 5): a grid of 600
        # points sees at least 8 observations in every window of half-width
        # 0.558, while the window at 4.442 holds 7
        times = np.arange(1, 601) * (T / 600)
        times = times[(times <= 4.0) | (times >= 5.0)]
        x = np.linspace(0.0, T, 600)
        lo = np.searchsorted(times, x - 0.558, side="right")
        hi = np.searchsorted(times, x + 0.558, side="left")
        assert np.min(hi - lo) == 8
        assert smoother._fewest(times, 0.0, T, 0.558) == (7, pytest.approx(4.442))
        assert "holds 7 observations" in smoother._short_window(times, T, 0.558, 8)

    def test_half_windows_refuse_a_level_that_bridges_a_gap(self):
        # no observation in [4, 5] of T = 10 at n = 600: every window of
        # lam = 1.2^-3 = 0.579 holds 8 observations, but the half window at
        # the gap's middle holds none, so the level is refused
        times = np.arange(1, 601) * (T / 600)
        times = times[(times < 4.0) | (times > 5.0)]
        lam = 1.2**-3
        assert smoother._short_window(times, T, lam, 8, zone=False) is None
        assert "half window" in smoother._short_window(times, T, lam, 8)

    @pytest.mark.parametrize("L", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["equispaced", "random"])
    def test_check_bandwidth_admits_the_windows_that_hold_L(self, kind, L):
        # a fixed bandwidth passes exactly when its fewest window count over
        # [0, T], read by a scan of the observations in (0, T), reaches L
        times = _design(kind, 120)
        inside = times[(times > 0) & (times < T)]
        seen = set()
        for lam in np.geomspace(0.02, T / 2, 40):
            passes = _fewest_by_scan(inside, 0.0, T, lam) >= L
            seen.add(passes)
            if passes:
                check_bandwidth(times, T, L - 1, L, lam)
            else:
                with pytest.raises(EstimationError, match="fewer than L = %d" % L):
                    check_bandwidth(times, T, L - 1, L, lam)
        assert seen == {False, True}

    def test_tied_times_count_once(self):
        # 100 equispaced times on (0, 10], each listed twice: the window of
        # x = 0 at lam = 0.45 holds 8 observations at 4 distinct times,
        # whose Gram has rank 4 < L, so every row builder refuses it
        times = np.repeat(np.arange(1, 101) * (T / 100), 2)
        dw = DesignWeights(times, T)
        grid = np.linspace(0.0, T, 50)
        V = np.ones((times.size, 2))
        for call in (lambda: check_bandwidth(times, T, 0, 8, 0.45),
                     lambda: dw.apply(0, 8, 0.45, grid, V),
                     lambda: dw.apply_orders(8, 0.45, grid, V, {0: np.arange(2), 1: [0]}),
                     lambda: dw.weight_matrix(1, 8, 0.45, grid)):
            with pytest.raises(EstimationError,
                               match="at x = 0 holds 4 distinct observation times in"):
                call()
        for lam in np.geomspace(0.2, T / 2, 30):
            for zone in (False, True):
                assert ((smoother._short_window(times, T, lam, 8, zone) is None)
                        == (smoother._short_window(times[::2], T, lam, 8, zone) is None))

    @pytest.mark.parametrize("reps, n0", [(2, 200), (4, 100), (8, 60)])
    def test_tied_designs_select_full_rank_levels(self, reps, n0):
        # every time listed reps times and almost no noise, so the selection
        # reaches down to its smallest admitted levels: each is admitted by
        # the distinct times, and every order's estimate is near the truth
        times = np.repeat(np.arange(1, n0 + 1) * (T / n0), reps)
        d = NoisySample(times, np.sin(times), T, 1e-6)
        for j, truth in enumerate((np.sin, np.cos, lambda x: -np.sin(x))):
            est = estimate_derivative(d, j, 8)
            assert smoother._short_window(np.unique(times), T, est.bandwidth, 8) is None
            np.testing.assert_allclose(est.values, truth(est.grid), rtol=0, atol=1e-3)

    def test_zone_takes_the_observations_at_its_ends(self):
        # n = 200 and lam = 1: the zone [1, 9] holds t = 1 and t = 9, which
        # the spacing 0.05 reaches up to rounding
        times = np.arange(1, 201) * (T / 200)
        assert smoother._zone(times, T, 1.0) == (19, 180)
        assert smoother._zone(times, T, 1.0 + 1e-9) == (20, 179)
        assert smoother._zone(times, T, T / 2) == (99, 100)

    def test_grid_rises_when_its_top_level_fails(self):
        # n = 60 at T = 10: the window (0, 1) holds 5 < L observations, so
        # the grid's top rises to 1.2^2 = 1.44, the first level that passes
        times = np.arange(1, 61) * (T / 60)
        assert smoother._short_window(times, T, 1.0, 8) is not None
        assert smoother._short_window(times, T, 1.2, 8) is not None
        assert smoother._short_window(times, T, 1.44, 8) is None
        V = np.sin(times)[:, None]
        lam, selected, details = _lepski_batch(times, T, V, 0.05, 0, 8)
        np.testing.assert_allclose(details["levels"][:3], [1.44, 1.2, 1.0])
        assert details["admissible"] == [0]
        assert lam[0] == pytest.approx(1.44) and selected[0] == 0

    def test_gapped_design_selects_a_level_that_bridges_the_gap(self):
        # g4/f2 at level 0 on n = 600 with no observation in [0.4T, 0.5T]:
        # every order's grid rises to 1.2, and the estimate beats the zero
        # estimate's trimmed risk of 0.195
        from lapdeconv import deconvolve
        from lapdeconv.sim import builtin_f, builtin_g, forward_convolve, ladder_sigma

        g, f = builtin_g("g4"), builtin_f("f2")
        times = np.arange(1, 601) * (T / 600)
        times = times[(times < 4.0) | (times > 5.0)]
        sigma = ladder_sigma("g4", 0)
        rng = np.random.default_rng(0)
        risks = []
        for _ in range(3):
            y = forward_convolve(g, f, times) + sigma * rng.standard_normal(times.size)
            res = deconvolve(NoisySample(times, y, T, sigma), g)
            assert np.all(res.bandwidths >= 1.2 - 1e-12)
            mask = (res.grid >= 1.0 - 1e-12) & (res.grid <= 9.0 + 1e-12)
            risks.append(np.mean((res.f_hat[mask] - f(res.grid[mask])) ** 2))
        assert np.mean(risks) < 0.195

    @pytest.mark.parametrize("kind, draws, lo, hi", [
        ("uniform", 30, 15, 301), ("arcsine", 30, 15, 301), ("gap", 30, 15, 301),
        ("gap", 8, 500, 2001)])
    def test_admitted_levels_hold_L_observations_on_a_fine_grid(self, kind, draws, lo, hi):
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
            inside = times[(times > 0) & (times < T)]
            for j in range(4):
                try:
                    _, _, details = _lepski_batch(times, T, V, sigma, j, 8)
                except EstimationError as exc:
                    assert "fewer than L = 8" in str(exc) or "T/2" in str(exc)
                    continue
                for li in details["admissible"]:
                    lam = details["levels"][li]
                    counts = (np.searchsorted(inside, fine + lam, side="left")
                              - np.searchsorted(inside, fine - lam, side="right"))
                    assert np.min(counts) >= 8, (n, j, lam)
                    admitted += 1
        assert admitted > draws


def _assert_same(got, want):
    """Two ``_lepski_batch`` results agree bit for bit, details included."""
    for a, b in zip(got[:2], want[:2]):
        np.testing.assert_array_equal(a, b)
    assert got[2].keys() == want[2].keys()
    for key, value in want[2].items():
        np.testing.assert_array_equal(got[2][key], value)


class TestNoState:
    """A selection keeps nothing of a design between calls: a repeat, after
    a call on another design or on other threads, is the first call."""

    @pytest.mark.parametrize("R", [1, 100])
    @pytest.mark.parametrize("kind, n, sigma", [("equispaced", 100, 0.001),
                                                ("random", 300, 0.01)])
    def test_a_repeat_matches_a_first_call(self, kind, n, sigma, R):
        rng = np.random.default_rng(n + R)
        times = _design(kind, n)
        other = _design("random" if kind == "equispaced" else "equispaced", 2 * n)
        V = np.sin(times)[:, None] + sigma * rng.standard_normal((n, R))
        Vo = np.cos(other)[:, None] + sigma * rng.standard_normal((2 * n, R))
        for j in (0, 2):
            first = _lepski_batch(times, T, V, sigma, j, 8)
            _lepski_batch(other, T, Vo, sigma, j, 8)
            _assert_same(_lepski_batch(times, T, V, sigma, j, 8), first)

    def test_concurrent_callers_agree(self):
        times = _design("random", 400)
        rng = np.random.default_rng(9)
        V = np.sin(np.outer(times, np.linspace(0.5, 4.0, 40)))
        V += 0.01 * rng.standard_normal(V.shape)
        parts = [V[:, k::4] for k in range(4)]
        serial = [_lepski_batch(times, T, P, 0.01, 1, 8) for P in parts]
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_lepski_batch, times, T, P, 0.01, 1, 8) for P in parts]
            threaded = [f.result(timeout=120) for f in futures]
        for got, want in zip(threaded, serial):
            _assert_same(got, want)

    def test_caller_threads_match_a_serial_table(self):
        from lapdeconv import run_table

        # a caller's threads run one cell each, against the serial table
        cells = [("g2", "f1", 100, 0), ("g1", "f1", 100, 2), ("g4", "f2", 100, 1)]
        serial = run_table(cells, runs=4, seed=5)
        with ThreadPoolExecutor(max_workers=len(cells)) as pool:
            futures = [pool.submit(run_table, [cell], runs=4, seed=5) for cell in cells]
            threaded = [f.result(timeout=120)[0] for f in futures]
        for (cell, one), (got_cell, other) in zip(serial, threaded):
            assert got_cell == cell
            np.testing.assert_array_equal(other.per_run_mse, one.per_run_mse)
            assert other.bandwidth_counts == one.bandwidth_counts


class TestLepski:
    def test_selected_bandwidth_is_grid_member(self):
        d = equispaced(500, np.sin, sigma=0.05, seed=7)
        lam, details = lepski_select(d, 0, 8, return_details=True)
        assert any(np.isclose(lam, details["levels"]).tolist())
        assert details["selected_index"][0] in details["admissible"]

    def test_details_fields(self):
        d = equispaced(500, np.sin, sigma=0.05, seed=7)
        _, details = lepski_select(d, 1, 8, return_details=True)
        assert set(details) == {"levels", "admissible", "selected_index", "C", "hmin",
                                "comparison_grid_size"}

    @pytest.mark.parametrize("n", [100, 250, 2000])
    def test_comparison_runs_over_the_observations_of_the_widest_zone(self, n):
        d = equispaced(n, np.sin, sigma=0.05, seed=7)
        _, details = lepski_select(d, 0, 8, return_details=True)
        lam = details["levels"][details["admissible"][-1]]
        inside = (d.times >= lam - 1e-12 * T) & (d.times <= T - lam + 1e-12 * T)
        assert details["comparison_grid_size"] == np.count_nonzero(inside)

    def test_trapezoid_weights_integrate_lines_exactly(self):
        x = np.sort(np.random.default_rng(4).uniform(1.0, 9.0, 77))
        w = smoother._trapezoid_weights(x)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(x[-1] - x[0], rel=1e-14)
        assert w @ (2.0 - 3.0 * x) == pytest.approx(
            2.0 * (x[-1] - x[0]) - 1.5 * (x[-1] ** 2 - x[0] ** 2), rel=1e-13)

    def test_deterministic(self):
        d = equispaced(400, np.sin, sigma=0.05, seed=3)
        assert lepski_select(d, 0, 8) == lepski_select(d, 0, 8)

    @pytest.mark.parametrize("j", range(4))
    def test_C_is_the_kernel_norm(self, j):
        d = equispaced(500, np.sin, sigma=0.05, seed=7)
        _, details = lepski_select(d, j, 8, return_details=True)
        assert details["C"] == math.sqrt(make_kernel(8, j).norm2)

    def test_small_sigma_admits_the_levels_the_design_resolves(self):
        # sigma = 1e-9 deepens the grid to 233 levels; the admitted ones are
        # the run from the top down to the last whose windows hold L = 8
        # observations, above 8 spacings of 0.04
        d = equispaced(250, np.sin, sigma=1e-9, seed=1)
        lam, details = lepski_select(d, 0, 8, return_details=True)
        levels = details["levels"]
        assert levels.size == 233
        passing = [smoother._short_window(d.times, T, lv, 8) is None for lv in levels]
        top = passing.index(False)
        assert details["admissible"] == list(range(top)) and not any(passing[top:])
        assert levels[top - 1] > 0.32 > levels[top]
        assert lam in levels[:top]

    def test_counts_are_read_at_a_bisection_of_the_levels(self, monkeypatch):
        # 233 levels, of which the top run of 7 is admitted: the end of the
        # run is found by bisection, not by a pass over every level
        d = equispaced(250, np.sin, sigma=1e-9, seed=1)
        real, lams = smoother._short_window, []
        monkeypatch.setattr(smoother, "_short_window",
                            lambda *a: lams.append(a[2]) or real(*a))
        _, details = lepski_select(d, 0, 8, return_details=True)
        assert len(details["admissible"]) == 7
        assert len(lams) <= 1 + math.ceil(math.log2(details["levels"].size))

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

    def test_gapped_design_names_the_count(self):
        # 90 points on (0, 1] and 10 on [9.1, 10]: the zone [1, 9] of lam = 1
        # holds one observation, and the window of 8.27 at the next level
        # none
        times = np.concatenate([np.linspace(0.0, 1.0, 91)[1:], np.linspace(9.1, T, 10)])
        d = NoisySample(times, np.sin(times), T, 0.01)
        with pytest.raises(EstimationError,
                           match=r"j=0: at lam = 0\.833333, the largest level tried up to "
                                 r"T/2 = 5, the window \(x - lam, x \+ lam\) at x = 8\.26667 "
                                 r"holds 0 observations in \(0, T\), fewer than L = 8"):
            lepski_select(d, 0, 8)

    def test_too_few_observations_are_named(self):
        # 15 observations on [0, 10]: the grid rises from 1 to 1.2^8 = 4.3,
        # the largest level within T/2, whose window at x = 0 holds 6
        times = np.arange(1, 16) * (T / 15)
        d = NoisySample(times, np.sin(times), T, 0.01)
        with pytest.raises(EstimationError, match=r"j=0: at lam = 4\.29982, the largest level "
                           r"tried up to T/2 = 5, the window \(x - lam, x \+ lam\) at x = 0 "
                           r"holds 6 observations in \(0, T\), fewer than L = 8"):
            lepski_select(d, 0, 8)

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    @pytest.mark.parametrize("gapped", [False, True])
    def test_an_empty_interior_zone_is_named_not_the_gap(self, j, gapped):
        # T = 2, n = 10 and sigma = 1.5 give the one-level grid {1} = {T/2},
        # whose interior zone [1, 1] holds fewer than two observations, so
        # no level reaches the counts at any order
        times = np.arange(1, 11) * 0.2
        if gapped:
            times = np.concatenate([np.arange(1, 6) * 0.1, 1.5 + np.arange(1, 6) * 0.1])
        d = NoisySample(times, np.sin(times), 2.0, 1.5)
        with pytest.raises(EstimationError,
                           match="for j=%d: the design leaves fewer than two observations" % j
                           ) as exc:
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
        # At n=100 a window needs 8 spacings to hold L = 8 observations, so
        # no level narrower than that is admitted, however small sigma is
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
    def test_too_few_observations_is_an_estimation_error(self):
        # n = 100 on [0, 10]: the window (0, 0.3) of x = 0 holds 2 < L
        # observations, where a row's Gram matrix would be singular
        dw = DesignWeights(np.arange(1, 101) * 0.1, T)
        grid = np.linspace(0.0, T, 50)
        for call in (lambda: dw.apply(0, 8, 0.3, grid, np.ones((100, 1))),
                     lambda: dw.apply_orders(8, 0.3, grid, np.ones((100, 2)),
                                             {0: np.arange(2), 1: np.arange(1)}),
                     lambda: dw.weight_matrix(1, 8, 0.3, grid)):
            with pytest.raises(EstimationError, match="holds 2 observations"):
                call()
        with pytest.raises(ValueError):
            dw.apply(8, 8, 1.0, grid, np.ones((100, 1)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("points", [[10.5], [-0.5], [5.0, 20.0], [11.0], [np.nan],
                                        [np.inf], [2.0, -np.inf]])
    def test_points_outside_the_interval_are_value_errors(self, points):
        # n = 100 on [0, 10] at lam = 1, L = 8: every public entry point
        # refuses the points before any row is formed, with no warning
        times = np.arange(1, 101) * 0.1
        d = NoisySample(times, np.sin(times), T, 0.01)
        dw = DesignWeights(times, T)
        grid = np.array(points)
        V = d.values[:, None]
        for call in (lambda: pc_estimate(d, 0, 8, 1.0, grid),
                     lambda: estimate_derivative(d, 0, 8, grid=grid),
                     lambda: dw.weight_matrix(0, 8, 1.0, grid),
                     lambda: dw.apply(0, 8, 1.0, grid, V),
                     lambda: dw.apply_orders(8, 1.0, grid, V,
                                             {0: np.arange(1), 1: np.arange(1)})):
            with pytest.raises(ValueError, match=r"not a finite point of \[0, T\]"):
                call()

    def test_apply_orders_needs_an_order(self):
        dw = DesignWeights(np.arange(1, 101) * 0.1, T)
        with pytest.raises(ValueError, match="at least one derivative order"):
            dw.apply_orders(8, 1.0, np.linspace(0.0, T, 20), np.ones((100, 1)), {})

    def test_apply_orders_counts_the_windows_once(self, monkeypatch):
        # the window count depends on lam only, so three orders read it once
        seen = []
        count = smoother._short_window
        monkeypatch.setattr(smoother, "_short_window",
                            lambda *args, **kw: seen.append(args[2]) or count(*args, **kw))
        dw = DesignWeights(np.arange(1, 101) * 0.1, T)
        dw.apply_orders(8, 1.0, np.linspace(0.0, T, 20), np.ones((100, 3)),
                        {0: np.arange(1), 1: np.arange(1, 3), 2: np.arange(3)})
        assert seen == [1.0]

    def test_apply_is_the_weight_matrix_product(self):
        n = 200
        times = np.arange(1, n + 1) * (T / n)
        dw = DesignWeights(times, T)
        grid = np.linspace(0.0, T, 50)
        W = dw.weight_matrix(1, 4, 0.5, grid)
        assert_rows_match_oracle(W, dense_weights(times, T, grid, 1, 4, 0.5))
        V = np.random.default_rng(1).standard_normal((n, 3))
        np.testing.assert_allclose(dw.apply(1, 4, 0.5, grid, V), W @ V, rtol=0,
                                   atol=1e-13 * np.max(np.abs(W) @ np.abs(V)))


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
