"""Tests for moment-constrained polynomial smoothing kernels."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapdeconv.kernels import (
    SmoothingKernel,
    eval_kernel,
    make_boundary_kernel,
    make_kernel,
)
from oracles import reference_boundary_kernel


def exact_moment(k: SmoothingKernel, power: int) -> Fraction:
    """Independent exact integral of t^power * K(t) over the support.

    Uses only the kernel's exact coefficients and the power rule, written
    from scratch so a defect in the construction cannot hide here.
    """
    lo, hi = k.support_exact
    total = Fraction(0)
    for i, c in enumerate(k.coeffs_exact):
        p = power + i + 1
        total += c * (hi**p - lo**p) / p
    return total


def moment_target(j: int, power: int) -> Fraction:
    if power == j:
        return Fraction((-1) ** j * math.factorial(j))
    return Fraction(0)


class TestMomentExactness:
    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.75, 1.0])
    def test_all_orders(self, L, rho):
        for j in range(min(L, 5)):
            k = make_boundary_kernel(L, j, rho)
            for power in range(L):
                got = exact_moment(k, power)
                want = moment_target(j, power)
                assert got == want, (L, j, rho, power)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_parameters(self, L, j, rho_millis):
        if j >= L:
            return
        k = make_boundary_kernel(L, j, rho_millis / 1000.0)
        for power in range(L):
            assert exact_moment(k, power) == moment_target(j, power)


class TestReferenceSearch:
    """The reference-interval solve equals the minimal-degree search."""

    @pytest.mark.parametrize("L", [1, 2, 4, 6, 8, 10])
    @pytest.mark.parametrize(
        "rho",
        # the last four are make-kernel --rho values that 1e-6 quantizes
        [0.001, 0.002, 0.137, 0.5, 0.999, 1.0, 0.1234, 0.123457, 0.0000015, 0.6543214],
    )
    def test_identical_to_search(self, L, rho):
        for j in range(L):
            got = make_boundary_kernel(L, j, rho)
            want = reference_boundary_kernel(L, j, rho)
            assert got.coeffs_exact == want.coeffs_exact, (L, j, rho)
            assert got.coeffs == want.coeffs, (L, j, rho)
            assert got.norm2 == want.norm2, (L, j, rho)
            assert got.support_exact == want.support_exact


class TestStructure:
    def test_interior_support(self):
        k = make_kernel(8, 1)
        assert k.support == (-1.0, 1.0)
        assert k.L == 8 and k.j == 1

    def test_envelope_double_zeros(self):
        # K and K' vanish at both support endpoints
        k = make_boundary_kernel(6, 2, 0.5)
        lo, hi = k.support_exact
        c = k.coeffs_exact
        dc = [i * c[i] for i in range(1, len(c))]
        for point in (lo, hi):
            val = sum(ci * point**i for i, ci in enumerate(c))
            dval = sum(ci * point**i for i, ci in enumerate(dc))
            assert val == 0 and dval == 0

    def test_minimal_degree_interior(self):
        # symmetric case: only every other coefficient is active, so the
        # polynomial factor stops at degree L - 2 and K has degree L + 2
        k0 = make_kernel(8, 0)
        assert k0.degree == 10
        k1 = make_kernel(8, 1)
        assert k1.degree == 11

    def test_interior_symmetry(self):
        # even j gives an even kernel, odd j an odd kernel
        ts = np.linspace(-0.97, 0.97, 41)
        k0 = make_kernel(6, 0)
        np.testing.assert_allclose(k0(ts), k0(-ts), atol=1e-9)
        k1 = make_kernel(6, 1)
        np.testing.assert_allclose(k1(ts), -k1(-ts), atol=1e-9)

    def test_norm_squared(self):
        k = make_kernel(8, 1)
        ts = np.linspace(-1.0, 1.0, 200_001)
        num = np.trapezoid(k(ts) ** 2, ts)
        assert k.norm2 == pytest.approx(num, rel=1e-6)
        # frozen reference values for the order-8 interior family
        assert make_kernel(8, 0).norm2 == pytest.approx(2.7238, rel=1e-3)
        assert make_kernel(8, 4).norm2 == pytest.approx(4055619, rel=1e-3)

    def test_cache_identity(self):
        assert make_kernel(8, 2) is make_kernel(8, 2)
        assert make_boundary_kernel(8, 2, 0.5) is make_boundary_kernel(8, 2, 0.5)


class TestEvaluation:
    def test_zero_outside_support(self):
        k = make_boundary_kernel(8, 0, 0.5)
        assert eval_kernel(k, -1.0) == 0.0
        assert eval_kernel(k, 0.5) == 0.0
        assert eval_kernel(k, -1.2) == 0.0
        assert eval_kernel(k, 2.0) == 0.0
        assert eval_kernel(k, 0.0) != 0.0


class TestValidation:
    def test_j_out_of_range(self):
        with pytest.raises(ValueError):
            make_boundary_kernel(4, 4, 0.5)
        with pytest.raises(ValueError):
            make_boundary_kernel(4, -1, 0.5)

    def test_rho_out_of_range(self):
        for bad in (0.0, -0.5, 1.5, 1e-7):
            with pytest.raises(ValueError):
                make_boundary_kernel(4, 1, bad)

    def test_non_integer_orders(self):
        with pytest.raises(TypeError):
            make_boundary_kernel(4.0, 1, 0.5)
