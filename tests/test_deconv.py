"""Tests for the full deconvolution pipeline."""

import math
import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from lapdeconv import deconv, kernels, smoother
from lapdeconv._expalg import ExpPoly
from lapdeconv.deconv import (
    DeconvolutionResult,
    EstimatorConfig,
    _cell_moments,
    _convolve_terms,
    _estimate_all,
    deconvolve,
    risk_mse,
    trimmed_window,
)
from lapdeconv.resolvent import decompose, rational_kernel
from lapdeconv.sim import builtin_f, builtin_g, forward_convolve, ladder_sigma, standard_normals
from lapdeconv.smoother import EstimationError, NoisySample
from oracles import convolve_exp_poly, convolve_terms_by_column

T = 10.0


def noiseless(gname, fname, n, lam):
    g = builtin_g(gname)
    f = builtin_f(fname)
    times = np.arange(1, n + 1) * (T / n)
    q = forward_convolve(g, f, times)
    data = NoisySample(times, q, T, 0.0)
    return deconvolve(data, g, EstimatorConfig(fixed_bandwidths=lam)), f


def noisy_sample(gname, fname, n, sigma, seed):
    g = builtin_g(gname)
    f = builtin_f(fname)
    times = np.arange(1, n + 1) * (T / n)
    y = forward_convolve(g, f, times) + sigma * standard_normals(seed, 0, n)
    return NoisySample(times, y, T, sigma), g, f


class TestEstimatorConfig:
    def test_fixed_bandwidth_default_none(self):
        assert EstimatorConfig().fixed_bandwidth(0) is None

    def test_scalar_applies_everywhere(self):
        cfg = EstimatorConfig(fixed_bandwidths=0.5)
        assert cfg.fixed_bandwidth(0) == 0.5
        assert cfg.fixed_bandwidth(4) == 0.5

    def test_sequence_indexed_by_order(self):
        cfg = EstimatorConfig(fixed_bandwidths=[0.5, 0.4])
        assert cfg.fixed_bandwidth(0) == 0.5
        assert cfg.fixed_bandwidth(1) == 0.4
        assert cfg.fixed_bandwidth(2) is None

    @pytest.mark.parametrize("fixed", [np.array(0.5), (0.5, None), True, np.True_,
                                       [np.True_], "a"],
                             ids=["0-d-array", "none-in-sequence", "bool", "numpy-bool",
                                  "numpy-bool-in-sequence", "string"])
    def test_a_fixed_bandwidth_that_is_not_a_real_number_is_refused(self, fixed):
        # refused at construction, where a bool would pass as the bandwidth
        # 1.0 and a string would fail only when used
        with pytest.raises(ValueError, match="^fixed_bandwidths must be a real number or a "
                                             "sequence of them, not %s$" % re.escape(repr(fixed))):
            EstimatorConfig(fixed_bandwidths=fixed)
        assert EstimatorConfig(fixed_bandwidths=(np.float64(0.5), 1)).fixed_bandwidths == (0.5, 1.0)

    @pytest.mark.parametrize("kw", [dict(grid_size=1), dict(grid_size=0)])
    def test_rejects_grid_or_trim_without_risk(self, kw):
        with pytest.raises(ValueError):
            EstimatorConfig(**kw)

    @pytest.mark.parametrize("L", [8.0, True, "8"])
    def test_a_kernel_order_that_is_not_an_integer_is_refused(self, L):
        with pytest.raises(ValueError, match="kernel order L must be an integer, not %r" % L):
            EstimatorConfig(L=L)
        assert EstimatorConfig(L=np.int64(6)).L == 6

    @pytest.mark.parametrize("size", [100.0, True, np.float64(64.0)])
    def test_a_grid_size_that_is_not_an_integer_is_refused(self, size):
        with pytest.raises(ValueError, match="^evaluation grid size must be an integer, not %s"
                           % re.escape(repr(size))):
            EstimatorConfig(grid_size=size)
        assert EstimatorConfig(grid_size=np.int64(64)).grid_size == 64


class TestConvolutionTerm:
    @pytest.mark.parametrize("name", ["g3", "g4", "g5"])
    def test_product_rule_matches_exact_convolution(self, name):
        # the integrand oscillates at the grid scale for g4/g5; the moment
        # rule must track the exact closed-form convolution to near the
        # piecewise-linear interpolation error of the smooth factor
        g = builtin_g(name)
        d = decompose(g)
        gex = ExpPoly.from_rational(g.num.real_coeffs(), g.den.real_coeffs())
        fex = ExpPoly([(-1.0, np.array([0.0, 0.0, 1.0]))])
        # g has the single rate -1 of f, and int_0^t (t-x)^a x^2 dx =
        # 2 a! t^(a+3) / (a+3)!, so q = g * f is an ExpPoly of that rate
        ((s, c),) = gex.terms
        qc = np.zeros(c.size + 3, dtype=complex)
        for a, ca in enumerate(c):
            qc[a + 3] = ca * 2.0 * math.factorial(a) / math.factorial(a + 3)
        q = ExpPoly([(s, qc)])
        phi1_r = ExpPoly.phi1_from_decomposition(d).derivatives(d.r)
        grid = np.linspace(0.0, T, 1024)
        np.testing.assert_allclose(q(grid), convolve_exp_poly(gex, fex, grid),
                                   rtol=0.0, atol=1e-12 * np.max(np.abs(q(grid))))
        exact = convolve_exp_poly(q, phi1_r, grid).real
        approx = _convolve_terms(q.eval_real(grid)[:, None], phi1_r, grid)[:, 0]
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(approx - exact)) < 1e-5 * scale

    @pytest.mark.parametrize("size,R", [(2, 1), (3, 2), (129, 1), (300, 7), (1024, 100)])
    @pytest.mark.parametrize("name", ["g3", "g4", "g5"])
    def test_matches_the_product_rule_column_by_column(self, name, size, R):
        # one blocked Toeplitz product against two np.convolve per column,
        # within 1e-13 of the column's scale max|q| * sum |M0| + |M1|
        d = decompose(builtin_g(name))
        phi1_r = ExpPoly.phi1_from_decomposition(d).derivatives(d.r)
        grid = np.linspace(0.0, T, size)
        Q0 = np.random.default_rng(size).standard_normal((size, R))
        got = _convolve_terms(Q0, phi1_r, grid)
        want = convolve_terms_by_column(Q0, phi1_r, grid)
        M0, M1 = _cell_moments(phi1_r, grid)
        scale = np.max(np.abs(Q0), axis=0) * (np.sum(np.abs(M0)) + np.sum(np.abs(M1)))
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_zero_column_gives_zero(self):
        g = builtin_g("g3")
        d = decompose(g)
        phi1_r = ExpPoly.phi1_from_decomposition(d).derivatives(d.r)
        grid = np.linspace(0.0, T, 256)
        out = _convolve_terms(np.zeros((256, 2)), phi1_r, grid)
        np.testing.assert_array_equal(out, 0.0)

    def test_value_at_origin_is_zero(self):
        g = builtin_g("g4")
        d = decompose(g)
        phi1_r = ExpPoly.phi1_from_decomposition(d).derivatives(d.r)
        grid = np.linspace(0.0, T, 512)
        col = np.cos(grid)[:, None]
        out = _convolve_terms(col, phi1_r, grid)
        assert out[0, 0] == 0.0


class TestNoiselessRoundTrip:
    def test_first_order_kernel(self):
        res, f = noiseless("g2", "f1", 2000, 0.35)
        m = (res.grid >= 1.0) & (res.grid <= 9.0)
        truth = f(res.grid[m])
        rel = np.sqrt(np.mean((res.f_hat[m] - truth) ** 2) / np.mean(truth**2))
        assert rel < 1e-4

    def test_kernel_with_convolution_term(self):
        res, f = noiseless("g3", "f1", 2000, 0.35)
        m = (res.grid >= 1.0) & (res.grid <= 9.0)
        truth = f(res.grid[m])
        rel = np.sqrt(np.mean((res.f_hat[m] - truth) ** 2) / np.mean(truth**2))
        assert rel < 1e-4
        assert np.any(res.terms["integral"] != 0.0)

    @pytest.mark.parametrize("num, den", [([0, 1], [1, 3, 3, 1]), ([0, 0, 1], [1, 4, 6, 4, 1]),
                                          ([0, 3, 1], [1, 4, 6, 4, 1])],
                             ids=["s/(s+1)^3", "s^2/(s+1)^4", "s(s+3)/(s+1)^4"])
    def test_kernel_vanishing_at_the_origin(self, num, den):
        # g~(0) = 0 puts a pole of phi~ at 0 of order above r, whose part of
        # degree >= r (for s/(s+1)^3 the term int q of f = q'' + 3q' + 3q +
        # int q) is carried by the convolution term
        with pytest.warns(RuntimeWarning):
            g = rational_kernel(num, den)
        f = builtin_f("f1")
        times = np.arange(1, 4001) * (T / 4000)
        data = NoisySample(times, forward_convolve(g, f, times), T, 0.0)
        res = deconvolve(data, g, EstimatorConfig(fixed_bandwidths=0.5))
        m = (res.grid >= 1.0) & (res.grid <= 9.0)
        truth = f(res.grid[m])
        rel = np.sqrt(np.mean((res.f_hat[m] - truth) ** 2) / np.mean(truth**2))
        assert rel < 1e-4
        assert any(t.s == 0.0 and t.alpha > g.r for t in res.decomposition.poles)

    @pytest.mark.parametrize("num, den", [([1], [0, 1, 1]), ([1], [0, 0, 1]),
                                          ([2, 1], [0, 0, 1, 1])],
                             ids=["1/(s(s+1))", "1/s^2", "(s+2)/(s^2(s+1))"])
    def test_kernel_with_a_pole_at_the_origin(self, num, den):
        # den(0) = 0, which phi_tilde cancels, and for 1/s^2 no phi~ at all:
        # f = q'' + q', f = q'' and f = q'' - q' + 2q - 4 int e^(-2x) q(t - x)
        g = rational_kernel(num, den)
        f = builtin_f("f1")
        times = np.arange(1, 4001) * (T / 4000)
        data = NoisySample(times, forward_convolve(g, f, times), T, 0.0)
        res = deconvolve(data, g, EstimatorConfig(fixed_bandwidths=0.5))
        m = (res.grid >= 1.0) & (res.grid <= 9.0)
        truth = f(res.grid[m])
        rel = np.sqrt(np.mean((res.f_hat[m] - truth) ** 2) / np.mean(truth**2))
        assert rel < 1e-4

    def test_terms_recombine_to_estimate(self):
        res, _ = noiseless("g3", "f1", 500, 0.4)
        d = res.decomposition
        rebuilt = (res.terms["derivative"] - res.terms["linear"]
                   - res.terms["integral"]) / d.B_r
        np.testing.assert_allclose(res.f_hat, rebuilt, rtol=1e-12, atol=1e-12)

    def test_no_pole_kernel_has_zero_integral_term(self):
        res, _ = noiseless("g2", "f1", 500, 0.4)
        np.testing.assert_array_equal(res.terms["integral"], 0.0)


class TestAdaptiveDeconvolve:
    def test_benchmark_scale_risk(self):
        data, g, f = noisy_sample("g2", "f1", 100, 0.01, 123)
        res = deconvolve(data, g)
        assert risk_mse(res, f) < 5e-3

    def test_bandwidths_recorded_per_order(self):
        data, g, _ = noisy_sample("g2", "f1", 100, 0.01, 5)
        res = deconvolve(data, g)
        assert res.bandwidths.shape == (g.r + 1,)
        assert np.all(res.bandwidths > 0)

    def test_tiny_interval_is_an_estimation_error(self):
        # on T = 1e-80 order 0's grid holds about 2100 levels, over 1000 of
        # them above the design's widest gap, and order 1's grid ends at
        # 1.2^-700, far above T/2: no level of order 1 can be tested
        T_tiny = 1e-80
        times = np.arange(1, 251) * (T_tiny / 250)
        rng = np.random.default_rng(0)
        values = np.sin(3 * times / T_tiny) + 0.01 * rng.standard_normal(times.size)
        data = NoisySample(times, values, T_tiny, 0.01)
        with pytest.raises(EstimationError,
                           match=r"j=1: every level of the grid, .* exceeds T/2 = 5e-81"):
            deconvolve(data, builtin_g("g2"))

    def test_requires_kernel_order_above_r(self):
        data, _, _ = noisy_sample("g2", "f1", 100, 0.01, 5)
        g1 = builtin_g("g1")
        with pytest.raises(ValueError):
            deconvolve(data, g1, EstimatorConfig(L=4))

    def test_fixed_bandwidth_validation(self):
        data, g, _ = noisy_sample("g2", "f1", 100, 0.01, 5)
        with pytest.raises(ValueError):
            deconvolve(data, g, EstimatorConfig(fixed_bandwidths=6.0))
        with pytest.raises(EstimationError):
            deconvolve(data, g, EstimatorConfig(fixed_bandwidths=0.01))

    def test_deterministic(self):
        data, g, _ = noisy_sample("g2", "f1", 100, 0.01, 9)
        a = deconvolve(data, g).f_hat
        b = deconvolve(data, g).f_hat
        np.testing.assert_array_equal(a, b)


class TestBatchConsistency:
    def test_columns_match_single_runs(self):
        n = 100
        times = np.arange(1, n + 1) * (T / n)
        g = builtin_g("g2")
        f = builtin_f("f1")
        q = forward_convolve(g, f, times)
        V = np.column_stack(
            [q + 0.01 * standard_normals(77, run, n) for run in range(3)]
        )
        _, F, _, lam, _ = _estimate_all(times, T, V, 0.01, g, EstimatorConfig())
        for c in range(3):
            res = deconvolve(NoisySample(times, V[:, c], T, 0.01), g)
            np.testing.assert_allclose(F[:, c], res.f_hat, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(lam[:, c], res.bandwidths)

    def test_mixed_bandwidth_columns_match_single_runs(self):
        # frequencies 1..8 make the columns of each order select different
        # bandwidths, so every order's estimates are scattered into one array
        n = 250
        times = np.arange(1, n + 1) * (T / n)
        g = builtin_g("g2")
        rng = np.random.default_rng(3)
        V = np.sin(np.outer(times, np.linspace(1.0, 8.0, 6)))
        V += 0.01 * rng.standard_normal(V.shape)
        _, F, _, lam, _ = _estimate_all(times, T, V, 0.01, g, EstimatorConfig())
        assert np.all(np.ptp(lam, axis=1) > 0)
        for c in range(V.shape[1]):
            res = deconvolve(NoisySample(times, V[:, c], T, 0.01), g)
            np.testing.assert_allclose(F[:, c], res.f_hat, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(lam[:, c], res.bandwidths)

    @pytest.mark.parametrize("callers", [2, 4])
    def test_caller_threads_do_not_change_results(self, callers):
        # the package starts no thread, but a caller may run estimates from
        # threads of its own: each one gives the serial result bit for bit
        times, V, g = _g4_batch()
        want = _estimate_all(times, T, V, 0.002, g, EstimatorConfig())
        with ThreadPoolExecutor(max_workers=callers) as pool:
            futures = [pool.submit(_estimate_all, times, T, V, 0.002, g, EstimatorConfig())
                       for _ in range(callers)]
            outs = [f.result(timeout=120) for f in futures]
        for out in outs:
            np.testing.assert_array_equal(out[1], want[1])
            np.testing.assert_array_equal(out[3], want[3])
            for name, term in want[2].items():
                np.testing.assert_array_equal(out[2][name], term)


def _g4_batch():
    """Two replications of g4 * f2 at n = 100; g4 has r = 3, so four orders."""
    n = 100
    times = np.arange(1, n + 1) * (T / n)
    g = builtin_g("g4")
    q = forward_convolve(g, builtin_f("f2"), times)
    V = np.column_stack([q + 0.002 * standard_normals(31, run, n) for run in range(2)])
    return times, V, g


class TestCallingThread:
    """_estimate_all selects every order in order j = 0..r, then evaluates
    the orders, all on the calling thread."""

    @staticmethod
    def _trace(monkeypatch, fail=()):
        # log each selection and evaluation with its order and thread; an
        # order in fail raises from its selection
        events = []
        select, apply = deconv._lepski_batch, deconv.apply_rows

        def traced_select(times, T, V, sigma, j, L, shared=None):
            events.append(("select", j, threading.get_ident()))
            if j in fail:
                raise EstimationError("order %d" % j)
            return select(times, T, V, sigma, j, L, shared)

        def traced_apply(times, T, L, lam, grid, V, orders, store=None):
            events.extend(("apply", j, threading.get_ident()) for j in sorted(orders))
            return apply(times, T, L, lam, grid, V, orders, store)

        def no_thread(_):
            raise AssertionError("the pipeline started a thread")

        monkeypatch.setattr(deconv, "_lepski_batch", traced_select)
        monkeypatch.setattr(deconv, "apply_rows", traced_apply)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        return events

    @pytest.mark.parametrize("gname,fixed", [("g1", None), ("g2", None), ("g4", None),
                                             ("g4", (1.0,))],
                             ids=["g1", "g2", "g4", "g4-fixed-order-0"])
    def test_orders_run_in_order_on_the_calling_thread(self, monkeypatch, gname, fixed):
        data, g, _ = noisy_sample(gname, "f1", 100, ladder_sigma(gname, 1), 4)
        events = self._trace(monkeypatch)
        res = deconvolve(data, g, EstimatorConfig(fixed_bandwidths=fixed))
        adaptive = list(range(0 if fixed is None else len(fixed), g.r + 1))
        # one evaluation per order, after every selection; orders that chose
        # the same bandwidth are evaluated by one call
        selects = [("select", j) for j in adaptive]
        assert [(kind, j) for kind, j, _ in events[: len(selects)]] == selects
        assert sorted(j for kind, j, _ in events[len(selects):] if kind == "apply") == list(
            range(g.r + 1))
        assert len(events) == len(selects) + g.r + 1
        assert {ident for _, _, ident in events} == {threading.get_ident()}
        if fixed is not None:
            assert res.bandwidths[0] == fixed[0]

    @pytest.mark.parametrize("fail", [(1, 3), (0, 2), (3,)])
    def test_lowest_failing_order_raises_first(self, monkeypatch, fail):
        # the orders above the lowest failing one are never selected, and
        # no order is evaluated
        times, V, g = _g4_batch()
        events = self._trace(monkeypatch, fail=fail)
        with pytest.raises(EstimationError, match="order %d" % min(fail)):
            _estimate_all(times, T, V, 0.002, g, EstimatorConfig())
        assert [(kind, j) for kind, j, _ in events] == [
            ("select", j) for j in range(min(fail) + 1)]


def _g1_batch(times, runs=4):
    """runs replications of g1 * f1 on the design times, at noise level 1;
    g1 has r = 4, so five orders."""
    g = builtin_g("g1")
    sigma = ladder_sigma("g1", 1)
    q = forward_convolve(g, builtin_f("f1"), times)
    V = np.column_stack([q + sigma * standard_normals(5, run, times.size)
                         for run in range(runs)])
    return V, sigma, g


class TestSharedZonePass:
    """The selections of one _estimate_all call share the work that
    depends on the design and the level alone."""

    def test_design_and_level_work_runs_once_per_call(self, monkeypatch):
        # the lattice test once per call, one build of every order's
        # lattice rows (order 0's levels hold every other order's), and
        # one rest _apply_rows per level, for all five orders
        times = np.arange(1, 251) * (T / 250)
        V, sigma, g = _g1_batch(times)
        select = deconv._lepski_batch
        real_step, real_rows, real_apply = (smoother._lattice_step, smoother._rows_at,
                                            smoother._apply_rows)
        running, steps, builds, rest = [], [], [], []

        def selecting(*a):
            running.append(a[4])
            try:
                return select(*a)
            finally:
                running.pop()

        def step(*a):
            steps.append(running[-1])
            return real_step(*a)

        def rows(d, targets, *a):
            if d.ndim == 2:  # a stack of lattice rows, one per level
                builds.append((running[-1], d.shape[0], targets.orders))
            return real_rows(d, targets, *a)

        def apply(times, T_, x, lam, L, V, orders, *a):
            if running:
                rest.append((lam, tuple(orders)))
            return real_apply(times, T_, x, lam, L, V, orders, *a)

        monkeypatch.setattr(deconv, "_lepski_batch", selecting)
        monkeypatch.setattr(smoother, "_lattice_step", step)
        monkeypatch.setattr(smoother, "_rows_at", rows)
        monkeypatch.setattr(smoother, "_apply_rows", apply)
        _estimate_all(times, T, V, sigma, g, EstimatorConfig())
        assert steps == [0]
        levels = smoother._admissible(times, T, 0, sigma, 8)[1]
        assert builds == [(0, len(levels), (0, 1, 2, 3, 4))]
        lams = [lam for lam, _ in rest]
        assert rest and len(set(lams)) == len(lams) <= len(levels)
        assert {orders for _, orders in rest} == {(0, 1, 2, 3, 4)}

    @pytest.mark.parametrize("kind", ["equispaced", "shifted", "uniform"])
    def test_every_order_estimates_as_a_lone_selection(self, monkeypatch, kind):
        # each order's zone estimates are those of its own _lepski_batch
        # call to the byte, and so are its selections: on the lattice, on
        # the lattice without its first two samples (rest rows next to the
        # lattice row) and off a lattice (rest rows only)
        if kind == "equispaced":
            times = np.arange(1, 251) * (T / 250)
        elif kind == "shifted":
            times = (np.arange(1, 1001) * (T / 1000))[2:]
        else:
            times = np.sort(np.random.default_rng(3).uniform(0.0, T, 250))
        assert (smoother._lattice_step(times, T) is None) == (kind == "uniform")
        V, sigma, g = _g1_batch(times)
        real = smoother._zone_estimates
        seen = []

        def record(times, T_, zones, levels, j, L, V, shared=None):
            seen.append((j, shared, real(times, T_, zones, levels, j, L, V, shared)))
            return seen[-1][2]

        monkeypatch.setattr(smoother, "_zone_estimates", record)
        lam = _estimate_all(times, T, V, sigma, g, EstimatorConfig())[3]
        # one dict served every order of the call
        assert len({id(d) for _, d, _ in seen}) == 1 and seen[0][1] is not None
        shared = {j: est for j, _, est in seen}
        del seen[:]
        for j in range(g.r + 1):
            np.testing.assert_array_equal(
                smoother._lepski_batch(times, T, V, sigma, j, 8)[0], lam[j])
        assert [j for j, _, _ in seen] == list(shared) == list(range(g.r + 1))
        for j, _, alone in seen:
            assert list(alone) == list(shared[j])
            for li, est in alone.items():
                assert est.tobytes() == shared[j][li].tobytes(), (j, li)


class TestRiskMse:
    def _result(self, grid, f_hat):
        z = np.zeros_like(grid)
        return DeconvolutionResult(
            grid=grid, f_hat=f_hat, bandwidths=np.array([0.5]),
            terms={"derivative": f_hat.copy(), "linear": z, "integral": z},
            config=EstimatorConfig(), g=builtin_g("g2"),
            decomposition=decompose(builtin_g("g2")),
        )

    def test_trim_masks_boundaries(self):
        grid = np.linspace(0.0, 10.0, 11)
        f_hat = np.zeros(11)
        f_hat[0] = 100.0  # outside the trimmed zone, must not count
        f_hat[5] = 1.0
        res = self._result(grid, f_hat)
        assert risk_mse(res, lambda t: np.zeros_like(t)) == pytest.approx(1.0 / 9.0)

    def test_trim_zero_keeps_everything(self):
        grid = np.linspace(0.0, 10.0, 11)
        res = self._result(grid, np.ones(11))
        assert risk_mse(res, lambda t: np.zeros_like(t), trim=0.0) == 1.0

    def test_trim_domain(self):
        grid = np.linspace(0.0, 10.0, 11)
        res = self._result(grid, np.zeros(11))
        with pytest.raises(ValueError):
            risk_mse(res, lambda t: t, trim=0.5)
        with pytest.raises(ValueError):
            risk_mse(res, lambda t: t, trim=-0.1)

    @pytest.mark.parametrize("trim", [0.5, 0.6, -0.1])
    def test_trimmed_window_rejects_trim_outside_range(self, trim):
        # the window is the one check of a trim, for Scenario.trim and risk_mse alike
        with pytest.raises(ValueError, match=r"trim must lie in \[0, 0\.5\)"):
            trimmed_window(np.linspace(0.0, 10.0, 11), trim)


class TestResultValidation:
    def test_rejects_non_finite(self):
        grid = np.linspace(0.0, 10.0, 5)
        bad = np.array([0.0, np.inf, 0.0, 0.0, 0.0])
        z = np.zeros(5)
        with pytest.raises(EstimationError):
            DeconvolutionResult(
                grid=grid, f_hat=bad, bandwidths=np.array([0.5]),
                terms={"derivative": z, "linear": z, "integral": z},
                config=EstimatorConfig(), g=builtin_g("g2"),
                decomposition=decompose(builtin_g("g2")),
            )


@st.composite
def stable_transforms(draw):
    """(num, den) with real negative poles and zeros and 1 <= r <= 4. A
    drawn zero within 1e-4 of a pole (hypothesis repeats float values, so
    it often meets one exactly) steps up by 1e-3 until it is clear of them
    all, far past the 1e-8 tolerance of ``rational_kernel``, so every draw
    reaches the estimator; the refusal of a shared root has its own test
    (test_resolvent.py)."""
    rate = st.floats(min_value=0.1, max_value=20.0)
    poles = draw(st.lists(rate, min_size=1, max_size=4))

    def apart(z):
        while min(abs(z - p) for p in poles) <= 1e-4:
            z += 1e-3
        return z

    zeros = [apart(z) for z in draw(st.lists(rate, max_size=len(poles) - 1))]
    num = np.polynomial.polynomial.polyfromroots([-z for z in zeros])
    den = np.polynomial.polynomial.polyfromroots([-p for p in poles])
    return num, den


@st.composite
def designs(draw):
    """(times, T): T log-uniform in [1e-3, 1e4] and a sorted design in
    (0, T] with 2..200 points, one of: a blend, by a drawn weight, of the
    equispaced design and sorted uniform draws; the equispaced design on
    m <= n points with each drawn a random number of times (ties); or two
    clusters of drawn centres and widths."""
    T_ = 10.0 ** draw(st.floats(min_value=-3.0, max_value=4.0))
    n = draw(st.integers(min_value=2, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    kind = draw(st.sampled_from(["blend", "tied", "clusters"]))
    if kind == "blend":
        mix = draw(st.floats(min_value=0.0, max_value=1.0))
        u = (1.0 - mix) * np.arange(1, n + 1) / n + mix * np.sort(rng.uniform(0.0, 1.0, n))
    elif kind == "tied":
        m = draw(st.integers(min_value=1, max_value=n))
        u = np.sort(rng.integers(1, m + 1, n)) / m
    else:
        centres = draw(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)))
        width = draw(st.floats(min_value=1e-3, max_value=0.1))
        half = rng.integers(1, n, endpoint=True)
        u = np.concatenate([rng.normal(centres[0], width, half),
                            rng.normal(centres[1], width, n - half)])
        u = np.sort(np.clip(u, 0.0, 1.0))
    return u * T_, T_


class TestProperty:
    @given(transform=stable_transforms(), design=designs(),
           sigma=st.floats(min_value=1e-4, max_value=0.1),
           freq=st.floats(min_value=0.0, max_value=3.0),
           seed=st.integers(min_value=0, max_value=2**16),
           choice=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_finite_estimate_or_typed_error(self, transform, design, sigma, freq, seed,
                                            choice):
        times, T_ = design
        num, den = transform
        # L from r + 1 to 10, grid sizes from 2 to 1024, and in about 30%
        # of examples one fixed bandwidth, a fraction of T up to past T/2.
        # hypothesis draws the low end of a range far more often than the
        # rest, so the fixed branch takes the upper half of 0..9: 32% of
        # 800 examples (20 seeds), where a float below 0.3 took 67% and an
        # integer below 3 took 47%
        L = choice.draw(st.integers(min_value=den.size - num.size + 1, max_value=10), label="L")
        grid_size = choice.draw(st.integers(min_value=2, max_value=1024), label="grid_size")
        fixed = None
        if choice.draw(st.integers(min_value=0, max_value=9), label="fixed") >= 5:
            fixed = T_ * 10.0 ** choice.draw(st.floats(min_value=-3.0, max_value=-0.2),
                                             label="bandwidth")
        event("fixed bandwidth" if fixed is not None else "adaptive bandwidths")
        # up to 3T/(2 pi) cycles on [0, T_], whatever T_
        y = np.sin(freq * T * times / T_) + sigma * standard_normals(seed, 0, times.size)
        data = NoisySample(times, y, T_, sigma)
        try:
            # a fixed bandwidth past T/2 is refused with ValueError
            result = deconvolve(data, rational_kernel(num, den),
                                EstimatorConfig(L=L, grid_size=grid_size, fixed_bandwidths=fixed))
        except (EstimationError, ValueError) as exc:
            event(type(exc).__name__)
            return
        event("finite")
        assert np.all(np.isfinite(result.f_hat))


def test_memory_of_an_estimate_at_n_2000_stays_bounded():
    # the output grid's rows reach the data chunk by chunk, each chunk's
    # arrays within smoother._ROW_CHUNK floats, so neither a first call on
    # a design nor a repeat holds a grid_size x n weight matrix (16.4 MB
    # here)
    g = builtin_g("g2")
    sigma = ladder_sigma("g2", 0)

    def sample(n, stream):
        times = np.arange(1, n + 1) * (T / n)
        y = forward_convolve(g, builtin_f("f1"), times)
        return NoisySample(times, y + sigma * standard_normals(0, stream, n), T, sigma)

    deconvolve(sample(250, 0), g)  # builds every kernel
    data = [sample(2000, stream) for stream in (1, 2)]
    peaks = []
    for d in data:  # a first call on the design, then a repeat
        tracemalloc.start()
        try:
            deconvolve(d, g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 8e6, peaks


def test_an_estimate_builds_one_exact_kernel_per_order():
    # the boundary rows come from one primitive basis per L; only the
    # selection's interior kernels (one per order, for ||K_j||) are built
    data, g, _ = noisy_sample("g1", "f1", 250, ladder_sigma("g1", 2), 0)
    kernels._build_kernel.cache_clear()
    deconvolve(data, g)
    assert kernels._build_kernel.cache_info().misses <= g.r + 1
