"""Tests for the Monte-Carlo benchmark harness."""

import inspect
import io
import json
import math
import threading
from dataclasses import fields

import numpy as np
import pytest

from lapdeconv import sim, smoother
from lapdeconv._expalg import ExpPoly
from lapdeconv.deconv import EstimatorConfig, deconvolve, risk_mse
from lapdeconv.sim import (
    BUILTIN_F_NAMES,
    BUILTIN_G_NAMES,
    SIGMA0,
    Scenario,
    builtin_f,
    builtin_g,
    cell_sample,
    forward_convolve,
    ladder_sigma,
    run_experiment,
    run_table,
    table_cells,
    write_report_csv,
    write_report_json,
)
from lapdeconv.smoother import NoisySample, estimate_sigma
from lapdeconv.special import standard_normals
from oracles import convolve_exp_poly, fixed_bandwidth_risk


class TestBuiltinTargets:
    def test_f1_closed_form(self):
        f = builtin_f("f1")
        assert f(2.0) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-14)
        assert f(0.0) == 0.0

    def test_survival_curves_start_at_one(self):
        assert builtin_f("f2")(0.0) == pytest.approx(1.0)
        assert builtin_f("f3")(0.0) == pytest.approx(1.0)

    def test_f2_closed_form(self):
        # shape-2 survival: e^{-x}(1 + x) with x = t/2
        f = builtin_f("f2")
        t = np.linspace(0.0, 10.0, 21)
        x = t / 2.0
        np.testing.assert_allclose(f(t), np.exp(-x) * (1.0 + x), atol=1e-12)

    def test_f3_closed_form(self):
        # shape-3 survival: e^{-x}(1 + x + x^2/2) with x = t/0.75
        f = builtin_f("f3")
        t = np.linspace(0.0, 10.0, 21)
        x = t / 0.75
        np.testing.assert_allclose(f(t), np.exp(-x) * (1.0 + x + 0.5 * x * x),
                                   atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_f("f9")


class TestBuiltinKernels:
    def test_g2_form(self):
        g = builtin_g("g2")
        np.testing.assert_allclose(g.num.real_coeffs(), [1.0])
        np.testing.assert_allclose(g.den.real_coeffs(), [5.0, 1.0])
        assert g.r == 1 and g.B_r == 1.0

    def test_g1_orders(self):
        g = builtin_g("g1")
        assert g.r == 4
        assert g.B_r == pytest.approx(8.0)

    def test_g4_g5_shapes(self):
        g4 = builtin_g("g4")
        assert g4.num.degree == 4 and g4.den.degree == 7
        assert np.all(np.isreal(g4.num.real_coeffs()))
        g5 = builtin_g("g5")
        assert g5.num.degree == 6 and g5.den.degree == 9
        assert g4.r == g5.r == 3

    def test_parameter_overrides(self):
        g = builtin_g("g2", {"a": 3.0})
        np.testing.assert_allclose(g.den.real_coeffs(), [3.0, 1.0])

    def test_rejects_unknown_parameters(self):
        with pytest.raises(ValueError):
            builtin_g("g2", {"bogus": 1.0})

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_g("g9")

    def test_all_builtin_names_construct(self):
        for name in BUILTIN_G_NAMES:
            g = builtin_g(name)
            assert g.r >= 1


class TestForwardConvolve:
    def test_zero_target(self):
        times = np.arange(1, 51) * 0.2
        q = forward_convolve(builtin_g("g3"), lambda t: np.zeros_like(t), times)
        np.testing.assert_array_equal(q, 0.0)

    def test_matched_exponentials(self):
        # g2 has time domain e^{-5t}; against f = e^{-5 tau} the integrand
        # is constant in tau and the quadrature is exact: q = t e^{-5t}
        times = np.arange(1, 201) * 0.05
        q = forward_convolve(builtin_g("g2"), lambda t: np.exp(-5.0 * t), times)
        np.testing.assert_allclose(q, times * np.exp(-5.0 * times), atol=1e-12)

    def test_against_exact_convolution(self):
        times = np.arange(1, 201) * 0.05
        g = builtin_g("g3")
        gex = ExpPoly.from_rational(g.num.real_coeffs(), g.den.real_coeffs())
        fex = ExpPoly([(-1.0, np.array([0.0, 0.0, 1.0]))])
        exact = convolve_exp_poly(gex, fex, times).real
        q = forward_convolve(g, builtin_f("f1"), times)
        np.testing.assert_allclose(q, exact, atol=1e-5)

    def test_zero_time_gives_zero(self):
        times = np.array([0.0, 0.5, 1.0])
        q = forward_convolve(builtin_g("g2"), builtin_f("f1"), times)
        assert q[0] == 0.0

    def test_nonuniform_design(self):
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0.1, 10.0, 150))
        g = builtin_g("g3")
        gex = ExpPoly.from_rational(g.num.real_coeffs(), g.den.real_coeffs())
        fex = ExpPoly([(-1.0, np.array([0.0, 0.0, 1.0]))])
        exact = convolve_exp_poly(gex, fex, times).real
        q = forward_convolve(g, builtin_f("f1"), times)
        np.testing.assert_allclose(q, exact, atol=1e-4)

    @pytest.mark.parametrize("case", ["permuted", "negative", "nan", "two-dimensional"])
    def test_a_design_it_cannot_integrate_is_a_value_error(self, case):
        # a permuted design read its knots out of order (off by up to 1.8e18
        # on 100 points of [0, 10]), and [-1, 0.5, 1] gave q(-1) = -3.5
        times = {"permuted": np.random.default_rng(0).permutation(np.arange(1, 101) * 0.1),
                 "negative": np.array([-1.0, 0.5, 1.0]),
                 "nan": np.array([0.5, np.nan, 1.0]),
                 "two-dimensional": np.arange(1, 7).reshape(2, 3) * 0.1}[case]
        with pytest.raises(ValueError, match="finite, nondecreasing, nonnegative"):
            forward_convolve(builtin_g("g2"), builtin_f("f1"), times)
        assert forward_convolve(builtin_g("g2"), builtin_f("f1"), []).shape == (0,)

    def test_callable_kernel_accepted(self):
        times = np.arange(1, 51) * 0.2
        qa = forward_convolve(builtin_g("g2"), builtin_f("f1"), times)
        qb = forward_convolve(lambda t: np.exp(-5.0 * t), builtin_f("f1"), times)
        np.testing.assert_allclose(qa, qb, atol=1e-12)


class TestNoiseLadder:
    def test_sigma0_values(self):
        assert SIGMA0 == {"g1": 0.001, "g2": 0.01, "g3": 0.1,
                          "g4": 0.002, "g5": 0.002}

    def test_ladder_halving(self):
        for name in BUILTIN_G_NAMES:
            for i in range(5):
                assert ladder_sigma(name, i) == SIGMA0[name] / 2**i

    def test_ladder_domain(self):
        with pytest.raises(ValueError):
            ladder_sigma("g1", 5)
        with pytest.raises(ValueError):
            ladder_sigma("g1", -1)


class TestScenario:
    def test_valid(self):
        sc = Scenario("g2", "f1", n=100, sigma=0.01)
        assert sc.runs == 100 and sc.T == 10.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(g_name="g9", f_name="f1", n=100, sigma=0.01),
            dict(g_name="g2", f_name="f9", n=100, sigma=0.01),
            dict(g_name="g2", f_name="f1", n=5, sigma=0.01),
            dict(g_name="g2", f_name="f1", n=100, sigma=0.01, runs=0),
            dict(g_name="g2", f_name="f1", n=100, sigma=0.0),
            dict(g_name="g2", f_name="f1", n=100, sigma=0.01, T=-1.0),
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            Scenario(**kw)

    @pytest.mark.parametrize("call,name", [
        (lambda: Scenario("g2", "f1", n=100.0, sigma=0.01), "n"),
        (lambda: Scenario("g2", "f1", n=True, sigma=0.01), "n"),
        (lambda: Scenario("g2", "f1", n=100, sigma=0.01, runs=3.0), "runs"),
        (lambda: Scenario("g2", "f1", n=100, sigma=0.01, seed=1.5), "seed"),
        (lambda: ladder_sigma("g2", 1.5), "ladder index i"),
        (lambda: ladder_sigma("g2", True), "ladder index i"),
        (lambda: run_table([("g2", "f1", 100, 1.5)], runs=1), "ladder index i"),
        (lambda: run_table([("g2", "f1", 100, 1)], runs=2.0), "runs"),
    ], ids=["n-float", "n-bool", "runs", "seed", "ladder-float", "ladder-bool",
            "table-ladder", "table-runs"])
    def test_an_integer_field_that_is_not_an_integer_is_refused(self, call, name):
        with pytest.raises(ValueError, match="^%s must be an integer, not " % name):
            call()
        sc = Scenario("g2", "f1", n=np.int64(100), sigma=0.01, runs=np.int32(2),
                      seed=np.uint64(3))
        assert (sc.n, sc.runs, sc.seed) == (100, 2, 3)
        assert ladder_sigma("g2", np.int64(2)) == SIGMA0["g2"] / 4


class TestRunExperiment:
    def test_deterministic_and_aggregates(self):
        sc = Scenario("g2", "f1", n=60, sigma=ladder_sigma("g2", 0),
                      runs=3, seed=42)
        rep1 = run_experiment(sc)
        rep2 = run_experiment(sc)
        np.testing.assert_array_equal(rep1.per_run_mse, rep2.per_run_mse)
        assert rep1.mean_mse == pytest.approx(np.mean(rep1.per_run_mse))
        assert rep1.std_mse == pytest.approx(np.std(rep1.per_run_mse, ddof=1))
        assert rep1.failures == 0
        assert rep1.failure_rate == 0.0

    def test_seed_changes_draws(self):
        sc_a = Scenario("g2", "f1", n=60, sigma=0.01, runs=2, seed=1)
        sc_b = Scenario("g2", "f1", n=60, sigma=0.01, runs=2, seed=2)
        assert run_experiment(sc_a).mean_mse != run_experiment(sc_b).mean_mse

    def test_bandwidth_histograms_cover_runs(self):
        sc = Scenario("g2", "f1", n=60, sigma=0.01, runs=3, seed=0)
        rep = run_experiment(sc)
        assert len(rep.bandwidth_counts) == builtin_g("g2").r + 1
        for hist in rep.bandwidth_counts:
            assert sum(hist.values()) == sc.runs

    def test_noise_dominated_scenario_fails_cleanly(self):
        sc = Scenario("g2", "f1", n=60, sigma=1.0, runs=2, seed=1)
        rep = run_experiment(sc)
        assert rep.failures == rep.runs == 2
        assert math.isnan(rep.mean_mse)
        assert np.all(np.isnan(rep.per_run_mse))
        assert "adaptive" in rep.error

    def test_empty_trimmed_window_raises(self):
        # grid_size=2 evaluates at 0 and T only, both outside [T/10, 9T/10]
        sc = Scenario("g2", "f1", n=60, sigma=0.01, runs=1,
                      config=EstimatorConfig(grid_size=2))
        with pytest.raises(ValueError, match="trimmed window"):
            run_experiment(sc)

    def test_trim_sets_the_risk_window(self):
        sigma = ladder_sigma("g2", 0)
        base = run_experiment(Scenario("g2", "f1", n=60, sigma=sigma, runs=1, seed=4))
        rep = run_experiment(Scenario("g2", "f1", n=60, sigma=sigma, runs=1, seed=4,
                                      trim=0.3))
        assert rep.per_run_mse[0] != base.per_run_mse[0]
        assert rep.bandwidth_counts == base.bandwidth_counts
        # the risk over [0.3 T, 0.7 T] of the same replication's estimate
        g, f = builtin_g("g2"), builtin_f("f1")
        times, Y = cell_sample(g, f, 60, sigma, 4, 1, 10.0)
        res = deconvolve(NoisySample(times=times, values=Y[:, 0], T=10.0, sigma=sigma), g)
        assert rep.per_run_mse[0] == pytest.approx(risk_mse(res, f, trim=0.3), rel=1e-12)
        assert base.per_run_mse[0] == pytest.approx(risk_mse(res, f, trim=0.1), rel=1e-12)

    @pytest.mark.parametrize("trim", [0.5, -0.1])
    def test_trim_outside_range_raises(self, trim):
        sc = Scenario("g2", "f1", n=60, sigma=0.01, runs=1, trim=trim)
        with pytest.raises(ValueError, match=r"trim must lie in \[0, 0\.5\)"):
            run_experiment(sc)

    @pytest.mark.parametrize("g_name,f_name", [("g2", "f1"), ("g4", "f2"), ("g5", "f3")])
    def test_mean_risk_at_a_fixed_bandwidth_matches_the_closed_form(self, g_name, f_name):
        # at fixed bandwidths f_hat is linear in the data, so its expected
        # trimmed risk is exact (``fixed_bandwidth_risk``); the 100-run mean
        # must lie within 4 standard errors of it
        sc = Scenario(g_name, f_name, n=100, sigma=ladder_sigma(g_name, 0), runs=100,
                      config=EstimatorConfig(fixed_bandwidths=1.0))
        rep = run_experiment(sc)
        exact = fixed_bandwidth_risk(sc)
        z = (rep.mean_mse - exact) / (rep.std_mse / math.sqrt(sc.runs))
        print(f"{g_name}/{f_name}: Monte-Carlo {rep.mean_mse:.6g}, exact {exact:.6g}, "
              f"z = {z:+.2f}")
        assert rep.failures == 0
        assert abs(z) <= 4.0


class TestCellSample:
    @pytest.mark.parametrize("cell,seed,runs", [(("g2", "f1", 250, 0), 11, 100),
                                                (("g1", "f1", 37, 2), 2**64 + 3, 3)])
    def test_data_are_the_column_stacked_draws(self, cell, seed, runs):
        gn, fn, n, i = cell
        g, f, sigma = builtin_g(gn), builtin_f(fn), ladder_sigma(gn, i)
        times, Y = cell_sample(g, f, n, sigma, seed, runs, 10.0)
        np.testing.assert_array_equal(times, np.arange(1, n + 1) * (10.0 / n))
        want = sigma * np.column_stack([standard_normals(seed, k, n) for k in range(runs)])
        want += forward_convolve(g, f, times)[:, None]
        assert Y.shape == (n, runs)
        assert Y.flags.c_contiguous
        assert Y.tobytes() == want.tobytes()


def test_estimated_sigma_on_every_table_cell():
    # the mean sigma_hat / sigma over 50 runs, for every builtin (g, f) at
    # both n and every noise level; first differences read up to 1.5e4
    for n in (100, 250):
        times = np.arange(1, n + 1) * (10.0 / n)
        Z = standard_normals(0, range(50), n)
        for gn in BUILTIN_G_NAMES:
            g = builtin_g(gn)
            for fn in BUILTIN_F_NAMES:
                q = forward_convolve(g, builtin_f(fn), times)
                for i in range(5):
                    sigma = ladder_sigma(gn, i)
                    ratio = np.mean([estimate_sigma(NoisySample(times, q + sigma * z, 10.0, 0.0))
                                     for z in Z.T]) / sigma
                    assert 0.9 <= ratio <= 1.1, (gn, fn, n, i, ratio)


class TestTable:
    def test_cell_count_and_order(self):
        cells = table_cells()
        assert len(cells) == 150
        assert cells[0] == ("g1", "f1", 100, 0)
        assert cells[4] == ("g1", "f1", 100, 4)
        assert cells[5] == ("g1", "f2", 100, 0)
        assert all(c[2] == 100 for c in cells[:75])
        assert all(c[2] == 250 for c in cells[75:])

    @pytest.mark.parametrize("cells", [
        [("g4", "f2", 60, 1)],
        [("g2", "f1", 60, 2), ("g4", "f2", 60, 1), ("g2", "f2", 60, 2)],
        [("g2", "f1", 60, 2), ("g5", "f3", 80, 1), ("g1", "f1", 60, 0), ("g5", "f3", 60, 3)],
    ])
    def test_run_table_order(self, monkeypatch, cells):
        # each design's cells run together, designs in the order of their
        # first cell, on one noise draw, each scaled by its own sigma; the
        # reports come back in input order, each run_experiment's bit for bit
        draws, ran = [], []
        real, real_cell = sim.standard_normals, sim._run_cell
        monkeypatch.setattr(sim, "standard_normals", lambda *a: draws.append(a[2]) or real(*a))
        monkeypatch.setattr(sim, "_run_cell", lambda sc, *a: ran.append(sc.n) or real_cell(sc, *a))
        got = run_table(cells, runs=3, seed=3)
        designs = list(dict.fromkeys(c[2] for c in cells))
        assert draws == designs
        assert ran == sorted((c[2] for c in cells), key=designs.index)
        assert [c for c, _ in got] == cells
        for (gn, fn, n, i), (_, rep) in zip(cells, got):
            want = run_experiment(Scenario(gn, fn, n, ladder_sigma(gn, i), runs=3, seed=3))
            assert rep.scenario == want.scenario
            np.testing.assert_array_equal(rep.per_run_mse, want.per_run_mse)
            assert rep.bandwidth_counts == want.bandwidth_counts

    @pytest.mark.parametrize("budget,config", [
        (None, None), (0, None), (None, EstimatorConfig(fixed_bandwidths=1.0)),
        (None, EstimatorConfig(fixed_bandwidths=2.5)),
        (None, EstimatorConfig(fixed_bandwidths=4.0)),
        (None, EstimatorConfig(fixed_bandwidths=(4.0, 2.5))),
    ], ids=["shared", "streamed", "fixed", "fixed-2.5", "fixed-4.0", "fixed-4.0-2.5"])
    def test_cells_on_a_design_share_its_rows(self, monkeypatch, budget, config):
        # the designs interleave and the kernels have r = 1, 3 and 4; with a
        # zero budget every bandwidth streams. Either way every report is
        # run_experiment's bit for bit. From about 2.5 on, an order's
        # estimates move at round-off with the other orders one product
        # applies, so the wide fixed bandwidths pin that the store gathers
        # a call's orders before its product, as a call without one does
        if budget is not None:
            monkeypatch.setattr(smoother, "_ROW_KEEP", budget)
        stores = []

        class Recorded(smoother.RowStore):
            def __init__(self, orders):
                super().__init__(orders)
                stores.append(self)

        monkeypatch.setattr(sim, "RowStore", Recorded)
        cells = [("g2", "f1", 100, 0), ("g4", "f2", 250, 1), ("g1", "f1", 100, 2),
                 ("g1", "f3", 250, 4), ("g5", "f3", 100, 3), ("g3", "f2", 250, 0)]
        cfg = config or EstimatorConfig()
        got = run_table(cells, runs=4, seed=5, config=config)
        assert [s.orders for s in stores] == [(0, 1, 2, 3, 4)] * 2
        assert all((s.nbytes > 0) == (budget is None) for s in stores)
        for (gn, fn, n, i), (cell, rep) in zip(cells, got):
            assert cell == (gn, fn, n, i)
            want = run_experiment(Scenario(gn, fn, n, ladder_sigma(gn, i), runs=4, seed=5,
                                           config=cfg))
            assert rep.per_run_mse.tobytes() == want.per_run_mse.tobytes()
            assert rep.bandwidth_counts == want.bandwidth_counts

    @pytest.mark.parametrize("bad", [0, 2], ids=["first", "last"])
    def test_invalid_cell_raises_before_any_cell_runs(self, monkeypatch, bad):
        ran = []
        monkeypatch.setattr(sim, "_run_cell", lambda sc, g, Z, rows: ran.append(sc))
        cells = [("g2", "f1", 60, 2), ("g2", "f2", 60, 2), ("g4", "f2", 60, 1)]
        cells[bad] = cells[bad][:2] + (5,) + cells[bad][3:]
        with pytest.raises(ValueError, match="need n >= 10"):
            run_table(cells, runs=1)
        assert ran == []

    def test_unknown_kernel_name_is_a_value_error(self):
        # the noise ladder is read only for a known kernel name
        with pytest.raises(ValueError, match="unknown builtin kernel 'g9'"):
            run_table([("g9", "f1", 60, 0)], runs=1)

    def test_first_failing_cell_raises_and_later_cells_do_not_run(self, monkeypatch):
        ran = []

        def fails_from_the_second(sc, g, Z, rows):
            ran.append(sc.g_name)
            if len(ran) >= 2:
                raise RuntimeError("cell %d" % len(ran))
            return sc

        monkeypatch.setattr(sim, "_run_cell", fails_from_the_second)
        with pytest.raises(RuntimeError, match="cell 2"):
            run_table([("g2", "f1", 60, 2), ("g4", "f2", 60, 1), ("g3", "f1", 60, 0)],
                      runs=1)
        assert ran == ["g2", "g4"]

    @pytest.mark.parametrize("cells,builds", [
        ([("g2", "f1", 250, 0), ("g5", "f3", 250, 0), ("g1", "f1", 250, 2)], 3),
        (table_cells(), 5),
    ], ids=["three-cells", "full-table"])
    def test_each_kernel_is_built_once_per_call(self, monkeypatch, cells, builds):
        # the estimator builds no kernel, so a stub that fails every cell
        # right after its forward model leaves the count of the real run;
        # both cell lists run in input order, each design's cells together
        built, given = [], []
        real = sim.builtin_g
        monkeypatch.setattr(sim, "builtin_g", lambda name: built.append(name) or real(name))

        def no_estimate(times, T, V, sigma, g, cfg, rows):
            given.append(g)
            raise smoother.EstimationError("stub")

        monkeypatch.setattr(sim, "_estimate_all", no_estimate)
        got = run_table(cells, runs=2, seed=1)
        assert len(built) == builds
        assert sorted(built) == sorted({c[0] for c in cells})
        assert all(rep.failures == 2 for _, rep in got)
        for (gn, _, _, _), g in zip(cells, given):
            assert g.description == real(gn).description

    def test_run_table_starts_no_thread(self, monkeypatch):
        cells = [("g2", "f1", 60, 2), ("g4", "f2", 60, 1)]
        want = run_table(cells, runs=2, seed=3)

        def no_thread(_):
            raise AssertionError("run_table started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        got = run_table(cells, runs=2, seed=3)
        for (_, a), (_, b) in zip(want, got):
            np.testing.assert_array_equal(a.per_run_mse, b.per_run_mse)

    def test_run_table_defaults_are_the_scenario_defaults(self):
        defaults = {f.name: f.default for f in fields(Scenario)}
        params = inspect.signature(run_table).parameters
        for name in ("runs", "seed", "T", "trim"):
            assert params[name].default == defaults[name]

    def test_run_table_passes_trim_to_every_cell(self):
        cells = [("g2", "f1", 60, 2), ("g2", "f2", 60, 2)]
        for (gn, fn, n, i), (_, rep) in zip(cells, run_table(cells, runs=2, seed=3,
                                                             trim=0.25)):
            assert rep.scenario.trim == 0.25
            want = run_experiment(Scenario(gn, fn, n, ladder_sigma(gn, i), runs=2, seed=3,
                                           trim=0.25))
            np.testing.assert_array_equal(rep.per_run_mse, want.per_run_mse)


class TestGrowingInterval:
    """The paper lets the interval grow with the sample, T_n^2 / n bounded.
    The integrated risk over the risk window, mean_mse * 0.8 T (mean_mse
    averages the squared error over the grid points of [0.1 T, 0.9 T]),
    then stays level along T^2 / n = 1, and at a fixed T it falls like 1/n
    (the slope band of acceptance criterion 3). This checks the scaling,
    not the quality: a cell passes with a risk above the zero estimate's."""

    @staticmethod
    def _risk(g, f, n, T):
        rep = run_experiment(Scenario(g, f, n, 0.01, runs=20, seed=0, T=T))
        assert rep.failures == 0
        return rep.mean_mse * 0.8 * T

    @pytest.mark.parametrize("g, f", [("g2", "f1"), ("g4", "f2")])
    def test_risk_along_a_growing_interval(self, g, f):
        level = [self._risk(g, f, n, T) for n, T in ((100, 10.0), (400, 20.0), (1600, 40.0))]
        assert max(level) <= 3.0 * min(level), level
        ns = np.array([100, 400, 1600])
        fixed = [self._risk(g, f, n, 10.0) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(fixed), 1)[0]
        assert -1.3 <= slope <= -0.3, (slope, fixed)


class TestWriters:
    def _results(self):
        cells = [("g2", "f1", 60, 2)]
        return run_table(cells, runs=2, seed=3)

    def test_csv_format(self):
        results = self._results()
        buf = io.StringIO()
        write_report_csv(buf, results)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "g,f,n,i,mean,std,runs,failures"
        fields = lines[1].split(",")
        assert fields[:4] == ["g2", "f1", "60", "2"]
        assert float(fields[4]) == pytest.approx(results[0][1].mean_mse)
        assert fields[6] == "2" and fields[7] == "0"

    def test_csv_to_path(self, tmp_path):
        out = tmp_path / "report.csv"
        write_report_csv(out, self._results())
        assert out.read_text().startswith("g,f,n,i,")

    def test_json_round_trip(self):
        results = self._results()
        buf = io.StringIO()
        write_report_json(buf, results, extra={"seed": 3})
        doc = json.loads(buf.getvalue())
        assert doc["seed"] == 3
        row = doc["rows"][0]
        assert row["g"] == "g2" and row["n"] == 60
        assert len(row["per_run_mse"]) == 2
        assert row["sigma"] == pytest.approx(ladder_sigma("g2", 2))

    def test_json_nan_becomes_null(self):
        sc = Scenario("g2", "f1", n=60, sigma=1.0, runs=2, seed=1)
        rep = run_experiment(sc)
        buf = io.StringIO()
        write_report_json(buf, [(("g2", "f1", 60, 0), rep)])
        doc = json.loads(buf.getvalue())
        row = doc["rows"][0]
        assert row["mean"] is None
        assert row["per_run_mse"] == [None, None]
        assert "adaptive" in row["error"]
