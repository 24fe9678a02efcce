"""Tests for the scalar numeric primitives.

Expected values were generated independently with mpmath at 30 significant
digits (binary entropy, Jacobi theta series for the flatness factor and the
discrete Gaussian, normal cdf for the closed-form variation distance) and are
frozen as literals.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graywyner.numerics import (
    binary_convolve,
    binary_entropy,
    discrete_gaussian_pmf,
    flatness_factor,
    simpson_with_error,
)
from graywyner.lattice import mmse_params

# frozen with mpmath (dps=30)
H_011 = 0.499915958164527996
A1 = 0.0584119566836076573
H_A1 = 0.321108456074705212
EPS_S1_SIG02 = 0.994726269202310733
EPS_S1_SIG075 = 3.01249215391744201e-5
V_SHIFT_01 = 0.0797552233534898464
DG_13 = {0: 0.306878677231869294, 1: 0.228284918910765682,
         2: 0.0939742236942448317, 3: 0.0214072700825574591,
         4: 0.00269857719866565517}


class TestBinaryEntropy:
    def test_frozen_values(self):
        assert binary_entropy(0.11) == pytest.approx(H_011, abs=1e-14)
        assert binary_entropy(A1) == pytest.approx(H_A1, abs=1e-14)
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_matches_arbitrary_precision(self):
        mp.mp.dps = 30
        for p in np.linspace(0.001, 0.999, 41):
            ref = float(-mp.mpf(p) * mp.log(mp.mpf(p), 2)
                        - (1 - mp.mpf(p)) * mp.log(1 - mp.mpf(p), 2))
            assert binary_entropy(p) == pytest.approx(ref, abs=1e-12)

    def test_array_input(self):
        out = binary_entropy(np.array([0.0, 0.11, 0.5, 1.0]))
        assert out.shape == (4,)
        np.testing.assert_allclose(out, [0.0, H_011, 1.0, 0.0], atol=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(np.array([0.2, 1.01]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            binary_entropy(math.nan)
        with pytest.raises(ValueError):
            binary_entropy(np.array([0.2, math.nan]))

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestBinaryConvolve:
    def test_identities(self):
        assert binary_convolve(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)
        assert binary_convolve(0.3, 1.0) == pytest.approx(0.7, abs=1e-15)
        assert binary_convolve(0.3, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            binary_convolve(math.nan, 0.1)
        with pytest.raises(ValueError):
            binary_convolve(0.1, np.array([0.2, math.nan]))

    def test_two_step_crossover_roundtrip(self):
        # two independent crossovers at A1 compose to a crossover at 0.11
        assert binary_convolve(A1, A1) == pytest.approx(0.11, abs=1e-14)

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_commutative_and_in_range(self, a, b):
        x = binary_convolve(a, b)
        assert 0.0 <= x <= 1.0
        assert x == pytest.approx(binary_convolve(b, a), abs=1e-15)

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1),
           st.floats(min_value=0, max_value=1))
    def test_associative(self, a, b, c):
        left = binary_convolve(binary_convolve(a, b), c)
        right = binary_convolve(a, binary_convolve(b, c))
        assert left == pytest.approx(right, abs=1e-12)

    @given(st.floats(min_value=0, max_value=0.5), st.floats(min_value=0, max_value=0.5))
    def test_entropy_never_decreases(self, a, b):
        h = binary_entropy(binary_convolve(a, b))
        assert h >= binary_entropy(a) - 1e-12
        assert h >= binary_entropy(b) - 1e-12


class TestDiscreteGaussian:
    def test_frozen_pmf_values(self):
        pts, pmf = discrete_gaussian_pmf(1.0, 1.3)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_array_equal(pts, -pts[::-1])
        np.testing.assert_array_equal(pmf, pmf[::-1])
        lookup = dict(zip(np.rint(pts).astype(int), pmf))
        for k, p in DG_13.items():
            assert lookup[k] == pytest.approx(p, rel=1e-14, abs=0.0)

    def test_matches_brute_force(self):
        # a window of 40 sigma on each side as the independent reference
        s = 0.5
        for ratio in (0.3, 0.7, 2.2, 40.0, 300.0):
            sig = ratio * s
            pts, pmf = discrete_gaussian_pmf(s, sig)
            radius = math.ceil(40.0 * ratio) + 2
            ks = np.arange(-radius, radius + 1)
            w = np.exp(-((ks * s) ** 2) / (2 * sig * sig))
            ref = dict(zip(ks, w / w.sum()))
            expected = [ref[k] for k in np.rint(pts / s).astype(int)]
            np.testing.assert_allclose(pmf, expected, rtol=1e-12, atol=0.0)

    def test_omitted_share_below_bound(self):
        # the kept weights against the full series theta3(0, e^-a), a = s^2/(2 sigma^2)
        for ratio in np.geomspace(0.01, 2000.0, 60):
            pts, _ = discrete_gaussian_pmf(1.0, float(ratio))
            radius = (len(pts) - 1) // 2
            np.testing.assert_array_equal(pts, np.arange(-radius, radius + 1))
            with mp.workdps(40):
                a = 1 / (2 * mp.mpf(float(ratio)) ** 2)
                total = mp.jtheta(3, 0, mp.exp(-a))
                kept = 1 + 2 * mp.fsum(mp.exp(-a * k * k) for k in range(1, radius + 1))
                share = float(1 - kept / total)
            assert 0.0 <= share < 2.5e-15

    def test_validation(self):
        for scale, sigma in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan),
                             (math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError, match="positive"):
                discrete_gaussian_pmf(scale, sigma)


def theta_flatness(scale, sigma):
    """Independent flatness reference via the Jacobi theta-3 series.

    The aliased density satisfies scale * f(x) = theta3(pi x / scale, q)
    with q = exp(-2 pi^2 sigma^2 / scale^2); all series coefficients are
    positive, so the maximum deviation sits at x = 0.  120 digits keep
    theta3 - 1 exact to double precision down to eps ~ 1e-100.
    """
    with mp.workdps(120):
        q = mp.exp(-2 * mp.pi ** 2 * mp.mpf(sigma) ** 2 / mp.mpf(scale) ** 2)
        return float(mp.jtheta(3, 0, q) - 1)


class TestFlatnessFactor:
    def test_frozen_values(self):
        assert flatness_factor(1.0, 0.2) == pytest.approx(EPS_S1_SIG02, abs=1e-9)
        assert flatness_factor(1.0, 0.75) == pytest.approx(EPS_S1_SIG075, abs=1e-12)

    def test_matches_theta_series(self):
        points = [(1.0, 0.25), (1.0, 0.5), (2.0, 1.3), (0.7, 0.45), (1.5, 0.4),
                  (1.0, 1.25), (1.0, 2.0)]
        points += [(1.0, float(r)) for r in np.linspace(0.05, 3.0, 60)]
        for s, sig in points:
            ref = theta_flatness(s, sig)
            assert flatness_factor(s, sig) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_strictly_increasing_in_scale_near_1e_12(self):
        # a search for eps ~ 1e-12 relies on eps rising with the spacing even
        # across relative steps of 2e-7, where the deviation itself is tiny
        sigma = math.sqrt(mmse_params(1.0, 0.8).sigma_tilde2)
        scales = np.linspace(0.33392, 0.33392 * (1.0 + 1e-6), 6)
        values = [flatness_factor(float(s), sigma) for s in scales]
        assert 1e-13 < values[0] < 1e-11
        for lo, hi in zip(values[:-1], values[1:]):
            assert lo < hi

    def test_monotone_in_sigma(self):
        sigmas = np.linspace(0.3, 1.0, 25)
        values = [flatness_factor(1.0, s) for s in sigmas]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-14

    def test_scale_invariance(self):
        base = flatness_factor(1.0, 0.4)
        for c in (0.37, 2.5, 10.0):
            assert flatness_factor(c, 0.4 * c) == pytest.approx(base, abs=1e-12)

    def test_argument_checks(self):
        for scale, sigma in ((0.0, 0.5), (1.0, -0.5), (math.nan, 0.5), (1.0, math.nan),
                             (math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError, match="positive"):
                flatness_factor(scale, sigma)

    def test_nonnegative_and_small_at_large_sigma(self):
        eps = flatness_factor(1.0, 2.0)
        assert 0.0 <= eps < 1e-12


class TestTensorQuadrature:
    """Simpson integration on one uniform grid."""

    def test_exact_for_cubics(self):
        g = np.linspace(0.0, 1.0, 9)
        val, err = simpson_with_error(g ** 3 - 2.0 * g + 1.0, g)
        assert val == pytest.approx(0.25, abs=1e-14)
        assert err == pytest.approx(0.0, abs=1e-14)

    def test_rejects_even_point_count(self):
        for n in (4, 8, 7):  # 7 is odd, but its every-other-sample grid is not
            g = np.linspace(0.0, 1.0, n)
            with pytest.raises(ValueError, match="odd point count"):
                simpson_with_error(np.ones(n), g)


def _l1_distance(lo, hi, resolution, shift):
    """simpson_with_error of |N(0, 1) - N(shift, 1)| sampled at resolution
    points over [lo, hi]."""
    x = np.linspace(lo, hi, resolution)
    f = np.exp(-0.5 * x ** 2) / math.sqrt(2 * math.pi)
    g = np.exp(-0.5 * (x - shift) ** 2) / math.sqrt(2 * math.pi)
    return simpson_with_error(np.abs(f - g), x)


class TestVariationDistance2D:
    """The L1 distance of two sampled 1-D densities through
    simpson_with_error."""

    def test_closed_form_mean_shift(self):
        # L1 distance of unit-variance normals at mean shift d is
        # 2 erf(d / (2 sqrt(2))); frozen via mpmath for d = 0.1
        val, err = _l1_distance(-8.0, 8.1, 257, 0.1)
        assert err < 1e-5
        assert val == pytest.approx(V_SHIFT_01, abs=max(5 * err, 1e-6))

    def test_identical_densities(self):
        val, err = _l1_distance(-8.0, 8.0, 129, 0.0)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_error_estimate_shrinks_with_resolution(self):
        _, err_lo = _l1_distance(-8.0, 8.1, 65, 0.1)
        _, err_hi = _l1_distance(-8.0, 8.1, 257, 0.1)
        assert err_hi < err_lo
