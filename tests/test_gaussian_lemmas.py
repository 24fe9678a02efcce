"""Lattice-substitution error measurements against independent oracles.

The variation oracles come from _quad_variation, which integrates |f - g|
for the exact density f of the reduced scalar U and its lattice mixture g
by adaptive quadrature (scipy quad, relative tolerance 1e-12) between
consecutive lattice points, over the same box verify_lemma covers.  The
information values were frozen from a trapezoid-rule integration of the
same densities on denser grids over a wider box, cross-checked by Monte
Carlo.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from graywyner.gaussian import (
    Eps2GaussianChannel,
    GaussianPairModel,
    LGaussianModel,
    LemmaReport,
    build_eps2_channel,
    r_xy_gaussian,
    reduce_L,
    reduce_eps2,
    reduce_pair,
    verify_lemma,
)
from graywyner.numerics import discrete_gaussian_pmf

PAIR8 = GaussianPairModel(0.8)
PAIR5 = GaussianPairModel(0.5)
TRIO = LGaussianModel(3, 0.5)

SIGMA_PAIR8 = math.sqrt(reduce_pair(PAIR8).mmse.sigma_tilde2)
SIGMA_TRIO = math.sqrt(reduce_L(TRIO).mmse.sigma_tilde2)
SIGMA_EPS2 = math.sqrt(reduce_eps2(0.5, 0.5, PAIR8).mmse.sigma_tilde2)


def _quad_variation(mmse, scale):
    """Total variation between N(0, sigma_s^2) and the lattice mixture
    sum_k pmf_k N(w_k, v) over +-10 sd of U, one quad call per gap between
    lattice points."""
    s2, v = mmse.sigma_s2, mmse.distortion
    points, pmf = discrete_gaussian_pmf(scale, math.sqrt(mmse.sigma_r2))

    def gap(u):
        f = math.exp(-0.5 * u * u / s2) / math.sqrt(2.0 * math.pi * s2)
        g = pmf @ np.exp(-0.5 * (u - points) ** 2 / v) / math.sqrt(2.0 * math.pi * v)
        return abs(f - g)

    half = 10.0 * math.sqrt(s2)
    edges = np.concatenate([[-half], points[np.abs(points) < half], [half]])
    return math.fsum(quad(gap, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                     for a, b in zip(edges[:-1], edges[1:]))


# oracle values at spacing 1.6 sigma~ (flatness factor 8.960796e-4)
EPS_16 = 8.960796e-4
V_PAIR_16 = _quad_variation(reduce_pair(PAIR8).mmse, 1.6 * SIGMA_PAIR8)
MI_PAIR_16 = 1.5849622111
V_TRIO_16 = _quad_variation(reduce_L(TRIO).mmse, 1.6 * SIGMA_TRIO)
MI_TRIO_16 = 0.9999997104
V_EPS2_16 = _quad_variation(reduce_eps2(0.5, 0.5, PAIR8).mmse, 1.6 * SIGMA_EPS2)
MI_EPS2_16 = 0.5849613989
# scalar-law oracle at spacing 2.0 sigma~, frozen to 10 digits
V_PAIR_20 = 9.156990290e-3


def eps2_channel():
    return build_eps2_channel(0.5, 0.5, PAIR8)


class TestReportFields:
    def test_bound_arithmetic(self):
        r = LemmaReport(kind="pair", scale=0.5, sigma=0.3, epsilon=0.002,
                        mi_value=1.0, mi_target=1.001, mi_error=1e-6,
                        variation=0.004, variation_error=1e-8)
        assert r.variation_bound == pytest.approx(0.008)
        assert r.mi_gap == pytest.approx(0.001)
        assert r.mi_gap_bound == pytest.approx(0.01 * math.log2(math.e))
        assert r.ok

    def test_violated_bounds_flagged(self):
        r = LemmaReport(kind="pair", scale=0.5, sigma=0.3, epsilon=1e-6,
                        mi_value=0.5, mi_target=1.0, mi_error=1e-9,
                        variation=0.5, variation_error=1e-9)
        assert not r.variation_ok
        assert not r.mi_ok
        assert not r.ok

    def test_unresolved_measurement_not_ok(self):
        # both measured values sit inside their bounds, but their errors
        # reach past them, so neither bound is certified
        r = LemmaReport(kind="pair", scale=0.5, sigma=0.3, epsilon=1e-3,
                        mi_value=1.0, mi_target=1.0, mi_error=0.01,
                        variation=0.0, variation_error=0.01)
        assert not r.variation_ok
        assert not r.mi_ok
        assert not r.ok

    @pytest.mark.parametrize("rho", [0.99, 0.999])
    def test_strong_correlation_certified(self, rho):
        # the noise width sqrt((1-rho)/2) sets the grid, so a strongly
        # correlated pair resolves as well as a weak one; at 0.8 sigma~ the
        # bound is 5.8e-13, and the certificate keeps a 5x margin to it
        model = GaussianPairModel(rho)
        sigma = math.sqrt(reduce_pair(model).mmse.sigma_tilde2)
        for ratio in (0.8, 1.6, 2.5):
            r = verify_lemma(model, ratio * sigma)
            assert r.ok
        narrow = verify_lemma(model, 0.8 * sigma)
        assert narrow.mi_gap + narrow.mi_error <= 0.2 * narrow.mi_gap_bound


class TestQuadOracle:
    def test_converged_values(self):
        # to the last of nine digits; the pair and trio reduce to the same
        # scalar law at equal spacing-to-width ratio
        assert V_PAIR_16 == pytest.approx(5.70462021e-4, rel=0.0, abs=1e-12)
        assert V_TRIO_16 == pytest.approx(V_PAIR_16, rel=1e-12, abs=0.0)
        assert V_EPS2_16 == pytest.approx(5.70461983e-4, rel=0.0, abs=1e-12)

    def test_reproduces_the_frozen_wide_spacing_value(self):
        # to the half unit in the last frozen digit
        v = _quad_variation(reduce_pair(PAIR8).mmse, 2.0 * SIGMA_PAIR8)
        assert v == pytest.approx(V_PAIR_20, rel=0.0, abs=5e-13)


class TestPairLemma:
    def test_frozen_values(self):
        r = verify_lemma(PAIR8, 1.6 * SIGMA_PAIR8)
        assert r.kind == "pair"
        assert r.sigma == pytest.approx(SIGMA_PAIR8, rel=1e-12, abs=0.0)
        assert r.epsilon == pytest.approx(EPS_16, rel=1e-5)
        assert abs(r.variation - V_PAIR_16) <= r.variation_error
        assert r.mi_value == pytest.approx(MI_PAIR_16, abs=1e-9)
        assert r.mi_target == pytest.approx(PAIR8.wyner_ci(), abs=1e-15)
        assert r.mi_gap == pytest.approx(2.896e-7, rel=2e-2)
        assert r.ok

    def test_variation_error_covers_the_kinks(self):
        # |f - g| has a kink wherever the densities cross; the error bar
        # must still cover the oracle there
        r = verify_lemma(PAIR8, 2.0 * SIGMA_PAIR8)
        assert abs(r.variation - V_PAIR_20) <= r.variation_error
        assert r.variation_error < 1e-3 * r.variation

    def test_bounds_with_headroom(self):
        r = verify_lemma(PAIR8, 1.6 * SIGMA_PAIR8)
        assert r.variation <= 0.25 * r.variation_bound
        assert r.mi_gap <= 0.01 * r.mi_gap_bound

    def test_halving_the_spacing_collapses_variation(self):
        wide = verify_lemma(PAIR8, 1.6 * SIGMA_PAIR8)
        narrow = verify_lemma(PAIR8, 0.8 * SIGMA_PAIR8)
        assert narrow.variation < 1e-6 * wide.variation
        assert narrow.variation < 1e-10
        assert narrow.ok

    def test_acceptance_scale_inside_bounds(self):
        # epsilon below 0.01 must keep the measured variation below 0.04
        r = verify_lemma(PAIR8, 1.6 * SIGMA_PAIR8)
        assert r.epsilon < 0.01
        assert r.variation <= 0.04
        assert r.mi_gap <= 5.0 * r.epsilon * math.log2(math.e)


class TestTrioLemma:
    def test_frozen_values(self):
        r = verify_lemma(TRIO, 1.6 * SIGMA_TRIO)
        assert r.kind == "3-sources"
        assert r.epsilon == pytest.approx(EPS_16, rel=1e-5)
        assert abs(r.variation - V_TRIO_16) <= r.variation_error
        assert r.mi_value == pytest.approx(MI_TRIO_16, abs=1e-8)
        assert r.mi_target == pytest.approx(1.0, abs=1e-12)
        assert r.ok

    def test_variation_depends_only_on_spacing_ratio(self):
        # at equal spacing-to-width ratio the three claims measure (to first
        # order) the same variation: the mixture error is a property of the
        # one-dimensional hidden lattice, not of the source dimension
        ratio = 2.0
        vals = [verify_lemma(PAIR8, ratio * SIGMA_PAIR8).variation,
                verify_lemma(TRIO, ratio * SIGMA_TRIO).variation,
                verify_lemma(eps2_channel(), ratio * SIGMA_EPS2).variation]
        assert max(vals) < 1.01 * min(vals)

    def test_pair_model_and_two_sources_agree(self):
        scale = 1.6 * SIGMA_PAIR8
        a = verify_lemma(PAIR8, scale)
        b = verify_lemma(LGaussianModel(2, 0.8), scale)
        assert b.kind == "2-sources"
        # both reduce to the same scalar law; only the closed-form targets
        # may differ in their last bit
        for field in ("variation", "variation_error", "mi_error"):
            assert getattr(b, field) == getattr(a, field)
        assert b.mi_gap == pytest.approx(a.mi_gap, abs=1e-15)


class TestCoupledLemma:
    def test_frozen_values(self):
        r = verify_lemma(eps2_channel(), 1.6 * SIGMA_EPS2)
        assert r.kind == "coupled"
        assert r.epsilon == pytest.approx(EPS_16, rel=1e-5)
        assert abs(r.variation - V_EPS2_16) <= r.variation_error
        assert r.mi_value == pytest.approx(MI_EPS2_16, abs=1e-8)
        assert r.ok

    def test_target_is_the_joint_rate(self):
        r = verify_lemma(eps2_channel(), 1.6 * SIGMA_EPS2)
        assert r.mi_target == pytest.approx(
            r_xy_gaussian(0.5, 0.5, PAIR8), abs=1e-12)

    def test_asymmetric_distortions(self):
        ch = build_eps2_channel(0.4, 0.6, PAIR8)
        sigma = math.sqrt(reduce_eps2(0.4, 0.6, PAIR8).mmse.sigma_tilde2)
        r = verify_lemma(ch, 1.6 * sigma)
        assert r.sigma == pytest.approx(sigma, rel=1e-12, abs=0.0)
        assert r.mi_target == pytest.approx(
            r_xy_gaussian(0.4, 0.6, PAIR8), abs=1e-12)
        assert r.ok


def _scalar_claims():
    """(id, reduction, noise covariance K, hidden-variable gains a, mi_target)
    for each target form sources = W a + Z that verify_lemma checks."""
    claims = []
    for rho in (0.1, 0.5, 0.8, 0.99, 0.999):
        model = GaussianPairModel(rho)
        claims.append((f"pair-{rho}", reduce_pair(model),
                       (1.0 - rho) * np.eye(2), np.ones(2), model.wyner_ci()))
    for n in range(2, 9):
        model = LGaussianModel(n, 0.5)
        claims.append((f"{n}-sources", reduce_L(model), 0.5 * np.eye(n),
                       np.ones(n), model.wyner_ci()))
    for d1, d2, rho in ((0.5, 0.5, 0.8), (0.4, 0.6, 0.8), (0.45, 0.55, 0.9)):
        model = GaussianPairModel(rho)
        ch = build_eps2_channel(d1, d2, model)
        claims.append((f"coupled-{d1}-{d2}-{rho}", reduce_eps2(d1, d2, model),
                       ch.k_noise(), np.array([1.0, ch.slope]),
                       r_xy_gaussian(d1, d2, model)))
    return claims


@pytest.mark.parametrize("red, k_noise, gains, mi_target",
                         [c[1:] for c in _scalar_claims()],
                         ids=[c[0] for c in _scalar_claims()])
def test_reduction_is_sufficient(red, k_noise, gains, mi_target):
    # verify_lemma measures only U = weights . sources: U must be the
    # sufficient statistic for W, with unit gain on W and noise variance
    # sigma_s^2 - sigma_r^2, whose information 1/2 log2(sigma_s^2 / v) is
    # the closed-form target
    weights = np.asarray(red.weights)
    matched = np.linalg.solve(k_noise, gains)
    np.testing.assert_allclose(weights, matched / (gains @ matched),
                               rtol=1e-12, atol=0.0)
    v = red.mmse.sigma_s2 - red.mmse.sigma_r2
    assert weights @ k_noise @ weights == pytest.approx(v, rel=1e-12, abs=0.0)
    info = 0.5 * math.log2(red.mmse.sigma_s2 / v)
    assert info == pytest.approx(mi_target, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ratio", [0.8, 1.2, 1.6, 2.0, 2.5])
class TestBoundSweep:
    """Both bounds hold at every tested spacing with flatness below 0.1."""

    def test_pair(self, ratio):
        for model in (PAIR8, PAIR5, GaussianPairModel(0.99),
                      GaussianPairModel(0.999)):
            sigma = math.sqrt(reduce_pair(model).mmse.sigma_tilde2)
            r = verify_lemma(model, ratio * sigma)
            assert r.epsilon < 0.1
            assert r.variation + r.variation_error <= 4.0 * r.epsilon
            assert r.mi_gap + r.mi_error <= 5.0 * r.epsilon * math.log2(math.e)

    def test_trio(self, ratio):
        r = verify_lemma(TRIO, ratio * SIGMA_TRIO)
        assert r.epsilon < 0.1
        assert r.variation + r.variation_error <= 4.0 * r.epsilon
        assert r.mi_gap + r.mi_error <= 5.0 * r.epsilon * math.log2(math.e)

    @pytest.mark.parametrize("n_sources", [5, 8])
    def test_wide_tuple(self, ratio, n_sources):
        model = LGaussianModel(n_sources, 0.5)
        sigma = math.sqrt(reduce_L(model).mmse.sigma_tilde2)
        r = verify_lemma(model, ratio * sigma)
        assert r.kind == f"{n_sources}-sources"
        assert r.epsilon < 0.1
        assert r.variation + r.variation_error <= 4.0 * r.epsilon
        assert r.mi_gap + r.mi_error <= 5.0 * r.epsilon * math.log2(math.e)

    def test_coupled(self, ratio):
        r = verify_lemma(eps2_channel(), ratio * SIGMA_EPS2)
        assert r.epsilon < 0.1
        assert r.variation + r.variation_error <= 4.0 * r.epsilon
        assert r.mi_gap + r.mi_error <= 5.0 * r.epsilon * math.log2(math.e)


class TestValidation:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            verify_lemma(PAIR8, 0.0)
        with pytest.raises(ValueError, match="positive"):
            verify_lemma(PAIR8, math.nan)

    def test_only_target_and_scale(self):
        with pytest.raises(TypeError):
            verify_lemma(PAIR8, 1.6 * SIGMA_PAIR8, 129)

    def test_unknown_target_rejected(self):
        with pytest.raises(TypeError, match="GaussianPairModel"):
            verify_lemma(0.8, 0.4)
