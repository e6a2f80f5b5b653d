"""Tests for exponential-polynomial functions (sums of p(t) e^{st})."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapdeconv._expalg import ExpPoly
from lapdeconv.resolvent import decompose
from lapdeconv.sim import BUILTIN_F_NAMES, BUILTIN_G_NAMES, builtin_f, builtin_g
from oracles import convolve_exp_poly, phi1_eval, phi_from_decomposition


def _numeric_transform(fn, s, T=60.0, n=600_000):
    """Brute-force Laplace transform by trapezoid on a long window."""
    t = np.linspace(0.0, T, n + 1)
    return np.trapezoid(fn(t) * np.exp(-s * t), t)


class TestFromRational:
    def test_single_real_pole(self):
        f = ExpPoly.from_rational([1.0], [5.0, 1.0])
        t = np.linspace(0.0, 4.0, 17)
        np.testing.assert_allclose(f(t), np.exp(-5.0 * t), atol=1e-12)

    def test_double_pole(self):
        f = ExpPoly.from_rational([1.0], [1.0, 2.0, 1.0])
        t = np.linspace(0.0, 6.0, 13)
        np.testing.assert_allclose(f(t), t * np.exp(-t), atol=1e-12)

    def test_complex_pair_gives_real_values(self):
        # 2 / ((s+5)^2 + 4)  <->  e^{-5t} sin(2t)
        f = ExpPoly.from_rational([2.0], [29.0, 10.0, 1.0])
        t = np.linspace(0.0, 3.0, 11)
        np.testing.assert_allclose(f(t), np.exp(-5.0 * t) * np.sin(2.0 * t),
                                   atol=1e-12)

    def test_builtin_g1_closed_form(self):
        g = builtin_g("g1")
        f = ExpPoly.from_rational(g.num.real_coeffs(), g.den.real_coeffs())
        t = np.linspace(0.0, 5.0, 21)
        expected = np.exp(-5.0 * t) * (2.0 * t - np.sin(2.0 * t))
        np.testing.assert_allclose(f(t), expected, atol=1e-10)

    @pytest.mark.parametrize("name", ["g2", "g3", "g4", "g5"])
    def test_matches_numeric_transform(self, name):
        g = builtin_g(name)
        f = ExpPoly.from_rational(g.num.real_coeffs(), g.den.real_coeffs())
        for s in (0.7, 1.3, 2.2):
            assert _numeric_transform(f, s) == pytest.approx(
                g.transform(s), rel=1e-6, abs=1e-9
            )


class TestCalculus:
    def test_derivative_closed_form(self):
        # d/dt [t e^{-t}] = (1 - t) e^{-t}
        f = ExpPoly([(-1.0, np.array([0.0, 1.0]))])
        t = np.linspace(0.0, 4.0, 9)
        np.testing.assert_allclose(f.derivative()(t), (1.0 - t) * np.exp(-t),
                                   atol=1e-12)

    def test_derivatives_order(self):
        f = ExpPoly([(-2.0, np.array([1.0, 3.0]))])
        t = np.linspace(0.0, 2.0, 7)
        np.testing.assert_allclose(f.derivatives(2)(t),
                                   f.derivative().derivative()(t), atol=1e-12)

    def test_antiderivative_pure_polynomial(self):
        f = ExpPoly([(0.0, np.array([2.0, 6.0]))])  # 2 + 6t
        F = f.antiderivative()
        t = np.linspace(0.0, 3.0, 7)
        np.testing.assert_allclose(F(t) - F(0.0), 2.0 * t + 3.0 * t**2,
                                   atol=1e-12)

    def test_antiderivative_inverts_derivative(self):
        f = ExpPoly([(-1.5, np.array([1.0, -2.0, 0.5])), (0.0, np.array([0.7]))])
        G = f.derivative().antiderivative()
        t = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(G(t) - G(0.0), f(t) - f(0.0), atol=1e-11)

    @given(
        st.floats(min_value=-4.0, max_value=-0.2),
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_antiderivative_property(self, s, coeffs):
        f = ExpPoly([(s, np.array(coeffs))])
        F = f.antiderivative()
        t = np.linspace(0.1, 4.0, 40)
        h = 1e-6
        fd = (F(t + h) - F(t - h)) / (2.0 * h)
        np.testing.assert_allclose(fd, f(t), rtol=1e-5, atol=1e-5)


# the builtin targets in closed form: t^2 e^{-t} and the gamma survival
# curves of shape 2, scale 2 and shape 3, scale 0.75
TARGETS = {
    "f1": ExpPoly([(-1.0, np.array([0.0, 0.0, 1.0]))]),
    "f2": ExpPoly([(-0.5, np.array([1.0, 0.5]))]),
    "f3": ExpPoly([(-1.0 / 0.75, np.array([1.0, 1.0 / 0.75, 1.0 / (2 * 0.75**2)]))]),
}


def _gauss_legendre_convolution(g, f, t, pieces=50, points=200):
    """int_0^t g(t - x) f(x) dx by composite Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(points)
    edges = np.linspace(0.0, t, pieces + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * np.sum(w * g(t - xs) * f(xs))
    return total


class TestConvolve:
    def test_exponential_pair_closed_form(self):
        # e^{-t} * e^{-2t} = e^{-t} - e^{-2t}
        f = ExpPoly([(-1.0, np.array([1.0]))])
        g = ExpPoly([(-2.0, np.array([1.0]))])
        t = np.linspace(0.0, 6.0, 25)
        np.testing.assert_allclose(convolve_exp_poly(f, g, t),
                                   np.exp(-t) - np.exp(-2.0 * t), atol=1e-12)

    def test_same_rate_gives_polynomial_growth(self):
        # e^{-t} * e^{-t} = t e^{-t}
        f = ExpPoly([(-1.0, np.array([1.0]))])
        t = np.linspace(0.0, 5.0, 21)
        np.testing.assert_allclose(convolve_exp_poly(f, f, t), t * np.exp(-t),
                                   atol=1e-12)

    def test_against_numerical_convolution(self):
        ga = builtin_g("g3")
        gb = builtin_g("g2")
        fa = ExpPoly.from_rational(ga.num.real_coeffs(), ga.den.real_coeffs())
        fb = ExpPoly.from_rational(gb.num.real_coeffs(), gb.den.real_coeffs())
        grid = np.linspace(0.0, 4.0, 4001)
        vals_a = fa(grid)
        dt = grid[1] - grid[0]
        for t_idx in (1000, 2500, 4000):
            x = grid[: t_idx + 1]
            integrand = vals_a[: t_idx + 1] * fb(grid[t_idx] - x)
            num = np.trapezoid(integrand, dx=dt)
            c = convolve_exp_poly(fa, fb, grid[t_idx])[0]
            assert c == pytest.approx(num, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("name", BUILTIN_F_NAMES)
    def test_targets_are_exp_polys(self, name):
        t = np.linspace(0.0, 10.0, 201)
        np.testing.assert_allclose(TARGETS[name].eval_real(t), builtin_f(name)(t),
                                   rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("fname", BUILTIN_F_NAMES)
    @pytest.mark.parametrize("gname", BUILTIN_G_NAMES)
    def test_matches_quadrature_on_builtin_pairs(self, gname, fname):
        # g5/f3 pairs a 9-fold pole at -1 with a 3-fold one at -4/3; at
        # t = 0.5 the rates differ by 1/6 on the scale 1/t
        g = builtin_g(gname)
        gex = ExpPoly.from_rational(g.num.real_coeffs(), g.den.real_coeffs())
        ts = np.array([0.5, 1.0, 2.5, 5.0, 10.0])
        exact = convolve_exp_poly(gex, TARGETS[fname], ts)
        quad = np.array([_gauss_legendre_convolution(gex.eval_real, builtin_f(fname), t)
                         for t in ts])
        np.testing.assert_allclose(exact, quad, rtol=1e-10, atol=0.0)


class TestDecompositionBridge:
    @pytest.mark.parametrize("name", ["g3", "g4", "g5"])
    def test_phi1_from_decomposition_matches_pointwise(self, name):
        d = decompose(builtin_g(name))
        f = ExpPoly.phi1_from_decomposition(d)
        xs = np.linspace(0.0, 10.0, 41)
        for deriv in range(d.r + 1):
            np.testing.assert_allclose(
                f.derivatives(deriv)(xs), phi1_eval(d, xs, deriv=deriv),
                rtol=1e-10, atol=1e-10,
            )

    def test_phi_includes_polynomial_part(self):
        d = decompose(builtin_g("g3"))
        full = phi_from_decomposition(d)
        tail = ExpPoly.phi1_from_decomposition(d)
        xs = np.linspace(0.0, 4.0, 9)
        # difference is the a0 polynomial, here a constant since a0 has size 1
        diff = full.eval_real(xs) - tail.eval_real(xs)
        np.testing.assert_allclose(diff, np.full_like(xs, diff[0]), atol=1e-12)

    def test_complex_residue_projection_is_real(self):
        d = decompose(builtin_g("g4"))
        f = ExpPoly.phi1_from_decomposition(d)
        vals = f.eval_real(np.linspace(0.0, 8.0, 33))
        assert vals.dtype == np.float64
        assert np.all(np.isfinite(vals))
