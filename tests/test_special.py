"""Tests for the quantile, counter-based normals, and incomplete gamma."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapdeconv import special
from lapdeconv.special import normal_quantile, reg_lower_gamma, standard_normals


class TestNormalQuantile:
    def test_median_and_symmetry(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
        ps = np.array([0.01, 0.1, 0.25, 0.4])
        np.testing.assert_allclose(
            normal_quantile(ps), -normal_quantile(1.0 - ps), atol=1e-13
        )

    def test_known_values(self):
        # classic two-sided 95% and 99% points
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
        assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-12)

    def test_cdf_round_trip(self):
        # Phi(quantile(p)) = p using the erf-based CDF as the oracle
        ps = np.linspace(1e-6, 1.0 - 1e-6, 401)
        z = normal_quantile(ps)
        back = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in z]))
        np.testing.assert_allclose(back, ps, atol=2e-13)

    @given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, p):
        z = normal_quantile(p)
        back = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        assert back == pytest.approx(p, rel=1e-9, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestStandardNormals:
    def test_deterministic(self):
        a = standard_normals(12, 3, 64)
        b = standard_normals(12, 3, 64)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = standard_normals(12, 3, 64)
        b = standard_normals(12, 4, 64)
        c = standard_normals(13, 3, 64)
        assert np.max(np.abs(a - b)) > 0.1
        assert np.max(np.abs(a - c)) > 0.1

    def test_moments(self):
        x = standard_normals(0, 0, 200_000)
        assert abs(float(np.mean(x))) < 0.01
        assert float(np.var(x)) == pytest.approx(1.0, abs=0.02)
        assert abs(float(np.mean(x**3))) < 0.03

    def test_shape_and_finiteness(self):
        x = standard_normals(5, 1, 17)
        assert x.shape == (17,)
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("size", [1, 250])
    @pytest.mark.parametrize("streams", [range(1), range(100), [5, 2, 9]])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, -1])
    @pytest.mark.parametrize("chunked", [False, True])
    def test_stream_columns_are_the_single_stream_draws(self, monkeypatch, seed, streams,
                                                         size, chunked):
        want = np.column_stack([standard_normals(seed, s, size) for s in streams])
        if chunked:
            # two columns per inverse-CDF pass, so several chunks run
            monkeypatch.setattr(special, "_NOISE_CHUNK", 2 * size)
        got = standard_normals(seed, streams, size)
        assert got.shape == (size, len(streams))
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_seed_and_stream_are_masked_to_64_bits(self):
        a = standard_normals(2**64 + 3, [5, 2**64 + 2], 40)
        b = standard_normals(3, [5, 2], 40)
        assert a.tobytes() == b.tobytes()
        assert standard_normals(-1, 4, 40).tobytes() == standard_normals(2**64 - 1, 4, 40).tobytes()

    @pytest.mark.parametrize("seed,stream,twin_seed,twin_stream", [
        (np.int64(3), 0, 3, 0),
        (3, np.int64(0), 3, 0),
        (3, np.array(2), 3, 2),
        (3, np.arange(3), 3, [0, 1, 2]),
        (np.uint64(2**64 - 1), np.array([4, 1], dtype=np.uint64), -1, [4, 1]),
    ])
    def test_numpy_integers_draw_as_python_ints(self, seed, stream, twin_seed, twin_stream):
        got = standard_normals(seed, stream, 5)
        want = standard_normals(twin_seed, twin_stream, 5)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestRegLowerGamma:
    def test_integer_shape_closed_forms(self):
        # P(2, x) = 1 - e^-x (1 + x); P(3, x) = 1 - e^-x (1 + x + x^2/2)
        xs = np.linspace(0.0, 20.0, 201)
        p2 = 1.0 - np.exp(-xs) * (1.0 + xs)
        p3 = 1.0 - np.exp(-xs) * (1.0 + xs + xs**2 / 2.0)
        np.testing.assert_allclose(reg_lower_gamma(2.0, xs), p2, atol=1e-12)
        np.testing.assert_allclose(reg_lower_gamma(3.0, xs), p3, atol=1e-12)

    def test_limits(self):
        assert reg_lower_gamma(2.0, 0.0) == 0.0
        assert reg_lower_gamma(2.0, 200.0) == pytest.approx(1.0, abs=1e-14)

    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=30.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_x(self, a, x):
        assert reg_lower_gamma(a, x) <= reg_lower_gamma(a, x + 0.5) + 1e-13

    @pytest.mark.parametrize("a,x", [(0, 1.0), (0.5, 1.0), (2.5, 1.0), (2, -1.0)])
    def test_rejects_non_integer_shape_and_negative_argument(self, a, x):
        with pytest.raises(ValueError):
            reg_lower_gamma(a, x)

    def test_quadrature_oracle(self):
        # compare against a high-resolution trapezoid of the Gamma density
        a = 3.0
        xs = np.linspace(0.0, 12.0, 1_000_001)
        density = xs ** (a - 1.0) * np.exp(-xs) / math.gamma(a)
        cdf = np.concatenate(([0.0], np.cumsum(
            0.5 * (density[1:] + density[:-1]) * np.diff(xs)
        )))
        probe = np.linspace(0.5, 11.5, 23)
        idx = np.searchsorted(xs, probe)
        np.testing.assert_allclose(
            reg_lower_gamma(a, xs[idx]), cdf[idx], atol=1e-8
        )
