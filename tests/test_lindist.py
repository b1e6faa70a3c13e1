"""Tests for linear distributions: normalization, quantiles, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vslct.lindist import LinearDistribution, make_linear

# Triangular density on [0, 3] with h_b = 0: median is 3 - sqrt(4.5).
TRI_MEDIAN = 0.8786796564403576
TRI_CDF_AT_1_5 = 0.75


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    x = np.sort(sample)
    n = x.size
    f = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


class TestConstruction:
    """Normalization constraint and input validation."""

    def test_h_a_from_normalization(self):
        d = make_linear(0.0, 3.0, h_b=0.15)
        np.testing.assert_allclose(d.h_a, 2.0 / 3.0 - 0.15, rtol=1e-15)
        assert isinstance(d, LinearDistribution)

    def test_uniform_case(self):
        d = make_linear(1.0, 5.0, h_b=0.25)
        np.testing.assert_allclose(d.h_a, 0.25, rtol=1e-15)
        assert abs(d.slope) < 1e-15

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            make_linear(2.0, 2.0, h_b=0.1)
        with pytest.raises(ValueError):
            make_linear(3.0, 1.0, h_b=0.1)
        with pytest.raises(ValueError):
            make_linear(0.0, math.inf, h_b=0.0)

    def test_rejects_bad_endpoint_density(self):
        with pytest.raises(ValueError):
            make_linear(0.0, 2.0, h_b=-0.01)
        with pytest.raises(ValueError):
            make_linear(0.0, 2.0, h_b=1.01)
        make_linear(0.0, 2.0, h_b=0.0)
        make_linear(0.0, 2.0, h_b=1.0)


class TestDensityAndCdf:
    """pdf/cdf shapes and closed-form values."""

    def test_pdf_endpoints_and_outside(self):
        d = make_linear(0.0, 3.0, h_b=0.5)
        np.testing.assert_allclose(d.pdf(0.0), d.h_a, rtol=1e-15)
        np.testing.assert_allclose(d.pdf(3.0), 0.5, rtol=1e-15)
        assert d.pdf(-0.1) == 0.0
        assert d.pdf(3.1) == 0.0

    def test_cdf_endpoints(self):
        for h_b in (0.0, 0.2, 2.0 / 3.0):
            d = make_linear(0.0, 3.0, h_b=h_b)
            assert d.cdf(-1.0) == 0.0
            assert d.cdf(0.0) == 0.0
            np.testing.assert_allclose(d.cdf(3.0), 1.0, rtol=1e-12)
            np.testing.assert_allclose(d.cdf(10.0), 1.0, rtol=1e-12)

    def test_cdf_matches_numerical_integration(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            a = float(rng.uniform(-2.0, 1.0))
            b = a + float(rng.uniform(0.5, 4.0))
            h_b = float(rng.uniform(0.0, 2.0 / (b - a)))
            d = make_linear(a, b, h_b)
            x = float(rng.uniform(a, b))
            grid = np.linspace(a, x, 20001)
            numeric = np.trapezoid(d.pdf(grid), grid)
            np.testing.assert_allclose(d.cdf(x), numeric, atol=1e-8)

    def test_triangular_frozen_values(self):
        d = make_linear(0.0, 3.0, h_b=0.0)
        np.testing.assert_allclose(d.cdf(1.5), TRI_CDF_AT_1_5, rtol=1e-14)
        np.testing.assert_allclose(d.median(), TRI_MEDIAN, rtol=1e-12)


class TestQuantiles:
    """Inverse CDF correctness, including degenerate endpoint densities."""

    def test_ppf_endpoints_exact(self):
        for h_b in (0.0, 0.3, 2.0 / 3.0):
            d = make_linear(0.0, 3.0, h_b=h_b)
            assert d.ppf(0.0) == 0.0
            assert d.ppf(1.0) == 3.0

    def test_ppf_inverts_cdf(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = float(rng.uniform(-3.0, 0.0))
            b = a + float(rng.uniform(0.5, 5.0))
            h_b = float(rng.uniform(0.0, 2.0 / (b - a)))
            d = make_linear(a, b, h_b)
            u = rng.uniform(0.0, 1.0, size=200)
            np.testing.assert_allclose(d.cdf(d.ppf(u)), u, atol=1e-12)
            # keep clear of endpoints where a vanishing density makes the
            # round trip ill-conditioned
            x = rng.uniform(a + 0.001 * (b - a), b - 0.001 * (b - a), size=200)
            np.testing.assert_allclose(d.ppf(d.cdf(x)), x, atol=1e-10)

    def test_ppf_rejects_out_of_range(self):
        d = make_linear(0.0, 1.0, h_b=1.0)
        with pytest.raises(ValueError):
            d.ppf(-0.01)
        with pytest.raises(ValueError):
            d.ppf(1.01)

    def test_median_shifts_with_endpoint_density(self):
        medians = [make_linear(0.0, 3.0, h_b=h).median() for h in (0.0, 0.15, 0.33, 0.66)]
        assert all(b > a for a, b in zip(medians, medians[1:]))


@st.composite
def linear_distributions(draw) -> LinearDistribution:
    """Supports of width 0.1 to 10 near 0; h_b at both endpoints, uniform, or anywhere between."""
    a = draw(st.floats(-5.0, 5.0))
    b = a + draw(st.floats(0.1, 10.0))
    limit = 2.0 / (b - a)
    h_b = draw(st.one_of(st.sampled_from([0.0, 1.0 / (b - a), limit]), st.floats(0.0, limit)))
    return make_linear(a, b, h_b)


class TestQuantileProperties:
    """ppf over the whole family, u drawn with its float neighbours."""

    @settings(max_examples=300, deadline=None)
    @given(dist=linear_distributions(), u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    def test_monotone_inside_support_exact_endpoints_inverts_cdf(self, dist, u):
        u = np.array(u)
        u = np.sort(np.concatenate([u, np.minimum(np.nextafter(u, 2.0), 1.0), [0.0, 1.0]]))
        x = dist.ppf(u)
        # A falling or flat density gives an exactly monotone ppf.  A rising
        # one does not: the rationalized root 2u / (h_a + sqrt(h_a^2 + 2su))
        # divides two increasing roundings and can step back a few ulps
        # between neighbouring u, which this bound pins.
        slack = 0.0 if dist.h_b <= dist.h_a else 8 * np.spacing(max(abs(dist.a), abs(dist.b), dist.b - dist.a))
        assert np.all(np.diff(x) >= -slack)
        assert np.all((x >= dist.a) & (x <= dist.b))
        assert dist.ppf(0.0) == dist.a
        assert dist.ppf(1.0) == dist.b
        np.testing.assert_allclose(dist.cdf(x), u, rtol=0.0, atol=1e-12)


class TestSampling:
    """Inverse-transform sampling distributional checks."""

    def test_samples_within_support(self):
        d = make_linear(0.5, 2.5, h_b=0.9)
        x = d.sample(10_000, np.random.default_rng(22))
        assert np.all(x >= 0.5) and np.all(x <= 2.5)

    def test_deterministic_given_seed(self):
        d = make_linear(0.0, 3.0, h_b=0.15)
        x1 = d.sample(1000, np.random.default_rng(23))
        x2 = d.sample(1000, np.random.default_rng(23))
        np.testing.assert_array_equal(x1, x2)

    def test_ks_distance_small(self):
        rng = np.random.default_rng(24)
        for h_b in (0.0, 0.15, 1.0 / 3.0, 2.0 / 3.0):
            d = make_linear(0.0, 3.0, h_b=h_b)
            x = d.sample(200_000, rng)
            assert ks_statistic(x, d.cdf) < 0.01

    def test_sample_size_validation(self):
        d = make_linear(0.0, 1.0, h_b=1.0)
        with pytest.raises(ValueError):
            d.sample(-1, np.random.default_rng(0))
        assert d.sample(0, np.random.default_rng(0)).size == 0
