"""Tests for the rational-transform algebra and pole decomposition."""

import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapdeconv.resolvent import (
    Polynomial,
    decompose,
    exp_poly_kernel,
    partial_fraction_terms,
    phi_tilde,
    pole_multiset,
    polished_roots,
    rational_kernel,
)
from lapdeconv.sim import builtin_g
from oracles import (
    evaluate_decomposition,
    exp_poly_coefficients,
    exp_poly_decomposition,
    phi1_eval,
)


@pytest.mark.parametrize(
    "module",
    ["lapdeconv"] + [f"lapdeconv.{m}" for m in (
        "cli", "deconv", "kernels", "resolvent", "sim", "smoother", "special")],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


class TestPolynomial:
    def test_trailing_zero_trim(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1

    def test_stiff_leading_coefficient_is_kept(self):
        # only exact zeros are dropped on construction
        assert Polynomial([1e14, 0.0, 1.0]).degree == 2

    def test_cancelling_sum_is_trimmed(self):
        # 0.1 + 0.2 - 0.3 leaves 5.6e-17, a rounding residue of the operands
        assert (Polynomial([3.0, 0.1 + 0.2]) - Polynomial([1.0, 0.3])).degree == 0
        assert (Polynomial([1.0, 2.0]) - Polynomial([1.0, 2.0])).is_zero
        assert (Polynomial([1.0, 1e-14]) + Polynomial([0.0, 1e-14])).degree == 1

    def test_call_and_derivative(self):
        p = Polynomial([1.0, 0.0, 3.0])  # 1 + 3 s^2
        assert p(2.0) == pytest.approx(13.0)
        assert p.derivative()(2.0) == pytest.approx(12.0)

    def test_shifted(self):
        p = Polynomial([0.0, 0.0, 1.0])  # s^2
        q = p.shifted(1.0)  # (s + 1)^2
        np.testing.assert_allclose(q.real_coeffs(), [1.0, 2.0, 1.0])

    def test_from_roots_real_coeffs(self):
        p = Polynomial.from_roots([-1 + 2j, -1 - 2j])
        np.testing.assert_allclose(p.real_coeffs(), [5.0, 2.0, 1.0], atol=1e-12)


class TestRootFinding:
    def test_simple_roots(self):
        p = Polynomial.from_roots([-1.0, -2.0, -3.5])
        roots = np.sort_complex(polished_roots(p))
        np.testing.assert_allclose(roots, [-3.5, -2.0, -1.0], atol=1e-10)

    @pytest.mark.parametrize(
        "roots,mults",
        [
            ([-1.0] * 4 + [-2.0], {-1.0: 4, -2.0: 1}),
            ([-1.0] * 7 + [-2.0], {-1.0: 7, -2.0: 1}),
            ([1j * math.sqrt(2), -1j * math.sqrt(2)] * 2, None),
            ([-1 + 2j, -1 - 2j] * 3, None),
        ],
    )
    def test_multiple_roots(self, roots, mults):
        p = Polynomial.from_roots(roots)
        got = pole_multiset(p, warn=False)
        assert sum(m for _, m in got) == len(roots)
        if mults is not None:
            assert len(got) == len(mults)
            for center, mult in got:
                key = min(mults, key=lambda r: abs(center - r))
                assert mult == mults[key]
                assert abs(center - key) < 1e-7

    def test_close_but_distinct_roots_stay_separate(self):
        p = Polynomial.from_roots([-1.0, -1.05, -3.0 + 0.04j, -3.0 - 0.04j])
        got = pole_multiset(p, warn=False)
        assert sorted(m for _, m in got) == [1, 1, 1, 1]

    def test_exact_double_root_is_silent(self):
        p = Polynomial.from_roots([-2.0, -2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pole_multiset(p)
        assert got == [(pytest.approx(-2.0), 2)]


class TestPartialFractions:
    def test_reconstruction_at_random_points(self):
        rng = np.random.default_rng(5)
        den_roots = [-1.0, -2.0, -2.0, -4.0 + 1j, -4.0 - 1j]
        den = Polynomial.from_roots(den_roots)
        num = Polynomial(rng.standard_normal(4))
        poles = pole_multiset(den, warn=False)
        lead = den.coeffs[-1]
        terms = partial_fraction_terms(Polynomial(num.coeffs / lead), poles)
        for _ in range(20):
            s = complex(rng.uniform(-0.5, 3.0), rng.uniform(-3.0, 3.0))
            direct = num(s) / den(s)
            rebuilt = sum(
                c / (s - p) ** (i + 1)
                for p, coeffs in terms
                for i, c in enumerate(coeffs)
            )
            assert abs(direct - rebuilt) <= 1e-8 * max(1.0, abs(direct))


class TestRationalKernel:
    def test_orders(self):
        g = rational_kernel([1.0], [5.0, 1.0])
        assert g.r == 1 and g.B_r == 1.0

    def test_requires_strictly_proper(self):
        with pytest.raises(ValueError):
            rational_kernel([1.0, 1.0], [2.0, 1.0])

    def test_rejects_shared_roots(self):
        with pytest.raises(ValueError):
            rational_kernel([1.0, 1.0], [1.0, 2.0, 1.0])

    def test_unstable_zero_warns_not_raises(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            g = rational_kernel([-1.0, 1.0], [1.0, 2.0, 1.0])
        assert g.stable is False
        assert any("unstable" in str(w.message) for w in rec)

    @pytest.mark.parametrize("num, den, says", [
        ([-1.0, 1.0], [1.0, 2.0, 1.0], "positive real part: the resolvent kernel phi grows "
                                        "exponentially"),
        ([1.0, -1.0, 1.0], [1.0, 3.0, 3.0, 1.0], "positive real part: the resolvent kernel "
                                                   "phi grows exponentially"),
        ([0.0, 1.0], [1.0, 3.0, 3.0, 1.0], "real part 0: the resolvent kernel phi does not "
                                            "decay"),
        ([4.0, 0.0, 1.0], [1.0, 4.0, 6.0, 4.0, 1.0], "real part 0: the resolvent kernel phi "
                                                      "does not decay"),
        ([0.0, 1.0, -1.0], [1.0, 3.0, 3.0, 1.0], "positive real part"),
    ], ids=["growing", "growing-pair", "origin", "imaginary-pair", "origin-and-growing"])
    def test_the_warning_names_how_phi_behaves(self, num, den, says):
        # a zero with real part 0 keeps phi from decaying; only one with
        # positive real part makes it grow, and that one is named first
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            g = rational_kernel(num, den)
        assert g.stable is False
        assert [str(w.message) for w in rec if says in str(w.message)]
        assert len(rec) == 1

    def test_zeros_left_of_the_axis_are_stable_and_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rational_kernel([2.0, 1.0], [1.0, 3.0, 3.0, 1.0]).stable is True
            assert rational_kernel([1.0], [1.0, 1.0]).stable is True

    @pytest.mark.parametrize("a,m", [(50.0, 8), (1000.0, 5)])
    @pytest.mark.parametrize("form", ["rational", "exp-poly"])
    def test_stiff_denominator_keeps_its_order(self, a, m, form):
        # 1 / (s + a)^m: r = m and B_r = 1, however large a^m is; phi~ is
        # 1 - (1 + a/s)^m, so a0[j] = -C(m, j + 1) a^(j + 1) and no pole
        if form == "rational":
            g = rational_kernel([1.0], Polynomial.from_roots([-a] * m).real_coeffs())
        else:
            g = exp_poly_kernel(a, [1.0], m)
        assert (g.r, g.B_r) == (m, 1.0)
        d = decompose(g)
        assert d.r == m and d.poles == ()
        want = [-math.comb(m, j + 1) * a ** (j + 1) for j in range(m)]
        np.testing.assert_allclose(d.a0, want, rtol=1e-9)
        np.testing.assert_allclose(d.b, want, rtol=1e-9)

    def test_transform_evaluation(self):
        g = rational_kernel([1.0], [5.0, 1.0])
        assert g.transform(1.0) == pytest.approx(1.0 / 6.0)


class TestDecompose:
    def test_pure_derivative_case(self):
        # constant numerator: phi~ = polynomial part only, no pole part
        d = decompose(builtin_g("g1"))
        assert d.r == 4 and d.B_r == pytest.approx(8.0)
        np.testing.assert_allclose(d.b, [-20.0, -154.0, -540.0, -725.0], atol=1e-9)
        assert not d.has_phi1

    def test_first_order_case(self):
        d = decompose(builtin_g("g2"))
        assert d.r == 1 and d.B_r == pytest.approx(1.0)
        np.testing.assert_allclose(d.b, [-5.0], atol=1e-12)
        assert not d.has_phi1

    def test_single_pole_case(self):
        d = decompose(builtin_g("g3"))
        np.testing.assert_allclose(d.b, [1.0], atol=1e-12)
        assert len(d.poles) == 1
        assert d.poles[0].s == pytest.approx(-3.0)
        assert d.poles[0].a[0] == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5"])
    def test_transform_round_trip(self, name):
        g = builtin_g(name)
        d = decompose(g)
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = complex(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
            srg = s**d.r * g.transform(s)
            direct = (srg - d.B_r) / srg
            rebuilt = evaluate_decomposition(d, s)
            assert abs(direct - rebuilt) <= 1e-8 * max(1.0, abs(direct))

    def test_phi_tilde_is_proper(self):
        n, dden = phi_tilde(builtin_g("g4"))
        assert n.degree < dden.degree

    @pytest.mark.parametrize("num, den, phi, a0, b, poles", [
        ([1], [0, 1, 1], ([-1], [0, 1]), [-1.0, 0.0], [-1.0, 0.0], []),
        ([1], [0, 0, 1], ([0], [0, 0, 1]), [0.0, 0.0], [0.0, 0.0], []),
        ([2, 1], [0, 0, 1, 1], ([1], [2, 1]), [0.0, 0.0], [1.0, -2.0], [-2.0])],
        ids=["1/(s(s+1))", "1/s^2", "(s+2)/(s^2(s+1))"])
    def test_pole_of_g_at_the_origin(self, num, den, phi, a0, b, poles):
        # den(0) = 0: phi_tilde cancels the powers of s common to s^r num -
        # B_r den and s^r num, leaving phi~ = -1/s and 1/(s+2); for 1/s^2,
        # phi~ is identically 0 and decompose has no pole part
        g = rational_kernel(num, den)
        assert g.r == 2 and g.B_r == 1.0
        for got, want in zip(phi_tilde(g), phi):
            np.testing.assert_allclose(got.coeffs, want, atol=1e-12)
        d = decompose(g)
        np.testing.assert_allclose(d.a0, a0, atol=1e-12)
        np.testing.assert_allclose(d.b, b, atol=1e-12)
        assert [t.s for t in d.poles] == pytest.approx(poles)
        assert [t.alpha for t in d.poles] == [1] * len(poles)

    def test_b_matches_phi1_initial_values(self):
        # b_j = a0_j + phi1^{(j)}(0) ties the two representations together
        d = decompose(builtin_g("g5"))
        for j in range(d.r):
            assert d.b[j] == pytest.approx(d.a0[j] + phi1_eval(d, 0.0, deriv=j),
                                           rel=1e-10, abs=1e-10)


class TestFirstOrderFamily:
    """g~(s) = (s + a + b) / (s + a)^2 has a fully explicit inversion."""

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (2.0, 3.0), (0.5, 4.0), (3.0, 0.25)])
    def test_closed_form_coefficients(self, a, b):
        g = rational_kernel([a + b, 1.0], [a * a, 2.0 * a, 1.0])
        d = decompose(g)
        assert d.r == 1 and d.B_r == pytest.approx(1.0, abs=1e-12)
        # value estimate enters with coefficient a - b, so b_0 = b - a
        assert d.b[0] == pytest.approx(b - a, abs=1e-10)
        assert len(d.poles) == 1
        term = d.poles[0]
        assert term.s == pytest.approx(-(a + b), abs=1e-10)
        # convolution term weight: -a_{1,0} s_1 = b^2
        assert -term.a[0].real * term.s.real == pytest.approx(b * b, abs=1e-10)


class TestExpPolyFamily:
    def test_kernel_construction_matches_builtin(self):
        g4 = builtin_g("g4")
        rho = g4.num.shifted(-1.0).real_coeffs()[::-1]
        gk = exp_poly_kernel(1.0, rho, 3)
        np.testing.assert_allclose(gk.num.real_coeffs(), g4.num.real_coeffs(),
                                   atol=1e-10)
        np.testing.assert_allclose(gk.den.real_coeffs(), g4.den.real_coeffs(),
                                   atol=1e-10)

    def test_decomposition_cross_check(self):
        g4 = builtin_g("g4")
        rho = g4.num.shifted(-1.0).real_coeffs()[::-1]
        d1 = decompose(g4)
        d2 = exp_poly_decomposition(1.0, rho, 3)
        np.testing.assert_allclose(d1.b, d2.b, atol=1e-8)
        np.testing.assert_allclose(d1.a0, d2.a0, atol=1e-8)
        key = lambda t: (round(t.s.real, 6), round(t.s.imag, 6))
        for t1, t2 in zip(sorted(d1.poles, key=key), sorted(d2.poles, key=key)):
            assert abs(t1.s - t2.s) < 1e-8
            assert t1.alpha == t2.alpha == 1
            assert abs(t1.a[0] - t2.a[0]) < 1e-8

    def test_alpha_recursion_seed(self):
        alpha, beta, roots = exp_poly_coefficients(2.0, [1.0, 1.0], 1)
        assert alpha[-1] == 1.0
        assert roots.size == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            exp_poly_coefficients(1.0, [2.0, 1.0], 3)

    def test_rejects_repeated_roots(self):
        # P(s) = (s + 2)^2 expanded around s + 1: rho = [1, 2, 1]
        with pytest.raises(ValueError):
            exp_poly_coefficients(1.0, [1.0, 2.0, 1.0], 2)


class TestPhi1Eval:
    def test_closed_form_single_pole(self):
        d = decompose(builtin_g("g3"))
        xs = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(
            phi1_eval(d, xs), (4.0 / 3.0) * np.exp(-3.0 * xs), atol=1e-12
        )
        np.testing.assert_allclose(
            phi1_eval(d, xs, deriv=1), -4.0 * np.exp(-3.0 * xs), atol=1e-12
        )

    def test_derivative_against_finite_differences(self):
        d = decompose(builtin_g("g5"))
        xs = np.linspace(0.3, 6.0, 7)
        h = 1e-4
        fd = (phi1_eval(d, xs + h) - phi1_eval(d, xs - h)) / (2.0 * h)
        np.testing.assert_allclose(phi1_eval(d, xs, deriv=1), fd,
                                   rtol=1e-6, atol=1e-6)

    def test_real_output(self):
        d = decompose(builtin_g("g4"))
        out = phi1_eval(d, np.linspace(0.0, 10.0, 31), deriv=3)
        assert out.dtype == np.float64


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None)
def test_structural_order_property(extra, shift):
    # r equals the degree gap for any denominator built on the numerator
    num_roots = [-1.0 - k for k in range(shift)]
    den_roots = [-5.0 - k for k in range(shift + extra)]
    num = Polynomial.from_roots(num_roots) if num_roots else Polynomial([1.0])
    den = Polynomial.from_roots(den_roots)
    g = rational_kernel(num.real_coeffs(), den.real_coeffs())
    assert g.r == extra
    d = decompose(g)
    assert d.b.shape == (extra,)
