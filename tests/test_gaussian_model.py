"""Region geometry, closed-form rates, and reductions for Gaussian sources.

Expected constants were frozen from an independent oracle that computes
every rate as a log-determinant entropy difference of explicit covariance
matrices (joint entropy minus backward-channel noise entropy), common
information as h(X_L) - L h(X_i | W), and the coupled-region weights by
solving the linear-MMSE normal equations instead of evaluating the closed
form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graywyner.gaussian import (
    GaussianPairModel,
    GaussianRegion,
    LGaussianModel,
    build_eps2_channel,
    classify_gaussian,
    lossy_ci_gaussian,
    r_xy_gaussian,
    reduce_L,
    reduce_eps2,
    reduce_pair,
)

RHO = 0.8
CI_08 = 1.5849625007211559
CI_05 = 0.792481250360578
CI_L4_05 = 1.1609640474436809
CI_L3_05 = 1.0
RXY_01_01 = 2.5849625007211556
RXY_05_05 = 0.5849625007211556
RXY_09_01 = 1.660964047443681
EPS2_WEIGHTS_04_06 = (0.96261325666250440649, 0.04578922216063138941)
EPS2_VAR_04_06 = 0.99924463439100951802


def log_det_entropy(k):
    """Differential entropy in bits of N(0, k); the oracle's rate route."""
    sign, logdet = np.linalg.slogdet(2.0 * math.pi * math.e * np.atleast_2d(k))
    assert sign > 0
    return 0.5 * logdet * math.log2(math.e)


@pytest.fixture(scope="module")
def model():
    return GaussianPairModel(RHO)


class TestModelBasics:
    def test_covariance_shape(self, model):
        k = model.covariance()
        assert np.array_equal(k, [[1.0, RHO], [RHO, 1.0]])

    def test_wyner_ci_frozen(self, model):
        assert model.wyner_ci() == pytest.approx(CI_08, abs=1e-12)
        assert GaussianPairModel(0.5).wyner_ci() == pytest.approx(CI_05, abs=1e-12)

    def test_wyner_ci_entropy_difference_route(self, model):
        # X, Y given W are independent with variance 1-rho each
        direct = log_det_entropy(model.covariance()) \
            - 2.0 * log_det_entropy([[1.0 - RHO]])
        assert model.wyner_ci() == pytest.approx(direct, abs=1e-12)

    def test_rho_range_validated(self):
        for bad in (-0.2, 0.0, 1.0, 1.3):
            with pytest.raises(ValueError):
                GaussianPairModel(bad)

    def test_sample_statistics(self, model):
        gen = np.random.default_rng(5)
        x, y = model.sample(50, 4096, gen)
        assert x.shape == y.shape == (50, 4096)
        assert x.var() == pytest.approx(1.0, abs=0.01)
        assert y.var() == pytest.approx(1.0, abs=0.01)
        assert np.mean(x * y) == pytest.approx(RHO, abs=0.01)

    def test_combined_sample_variance_matches_reduction(self, model):
        # 10^6 simulated pairs; sample variance of (x+y)/2 within 3 std errs
        gen = np.random.default_rng(11)
        x, y = model.sample(250, 4096, gen)
        u = 0.5 * (x + y)
        target = reduce_pair(model).mmse.sigma_s2
        stderr = math.sqrt(2.0 / u.size) * target
        assert abs(u.var() - target) < 3.0 * stderr


class TestLModel:
    def test_wyner_ci_frozen(self):
        assert LGaussianModel(4, 0.5).wyner_ci() == pytest.approx(CI_L4_05, abs=1e-12)
        assert LGaussianModel(3, 0.5).wyner_ci() == pytest.approx(CI_L3_05, abs=1e-12)

    def test_wyner_ci_agrees_with_pair_at_l2(self):
        m = LGaussianModel(2, RHO)
        assert m.wyner_ci() == pytest.approx(CI_08, abs=1e-12)
        assert m.wyner_ci() == pytest.approx(
            GaussianPairModel(RHO).wyner_ci(), abs=1e-12)

    def test_wyner_ci_entropy_difference_route(self):
        m = LGaussianModel(5, 0.6)
        direct = log_det_entropy(m.covariance()) \
            - 5.0 * log_det_entropy([[0.4]])
        assert m.wyner_ci() == pytest.approx(direct, abs=1e-12)

    def test_vanishing_correlation_vanishing_ci(self):
        assert LGaussianModel(3, 1e-12).wyner_ci() == pytest.approx(0.0, abs=1e-11)

    def test_size_validated(self):
        with pytest.raises(ValueError):
            LGaussianModel(1, 0.5)
        for size in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match=repr(size)):
                LGaussianModel(size, 0.5)
        assert LGaussianModel(np.int64(3), 0.5).wyner_ci() == pytest.approx(
            CI_L3_05, abs=1e-12)

    def test_sample_statistics(self):
        m = LGaussianModel(3, 0.5)
        gen = np.random.default_rng(9)
        arr = m.sample(30, 4096, gen)
        assert arr.shape == (3, 30, 4096)
        assert arr.var(axis=(1, 2)) == pytest.approx(np.ones(3), abs=0.02)
        assert np.mean(arr[0] * arr[2]) == pytest.approx(0.5, abs=0.02)


class TestRegions:
    @pytest.mark.parametrize("d1,d2,expected", [
        (0.1, 0.1, GaussianRegion.TINY_BOTH),
        (0.5, 0.5, GaussianRegion.COUPLED),
        (0.9, 0.1, GaussianRegion.LOPSIDED),
        (0.0, 0.0, GaussianRegion.TINY_BOTH),
        (0.19, 0.19, GaussianRegion.TINY_BOTH),
        (0.22, 0.1, GaussianRegion.SMALL_BOTH),
        (1.1, 0.5, GaussianRegion.FREE),
        (0.5, 1.2, GaussianRegion.FREE),
        (1.2, 1.2, GaussianRegion.FREE),
        (0.4, 0.6, GaussianRegion.COUPLED),
    ])
    def test_named_points(self, d1, d2, expected, model):
        assert classify_gaussian(d1, d2, model) is expected

    def test_interface_labels(self):
        assert GaussianRegion.TINY_BOTH.value == "E10"
        assert GaussianRegion.SMALL_BOTH.value == "E11"
        assert GaussianRegion.COUPLED.value == "E2"
        assert GaussianRegion.LOPSIDED.value == "E3"

    def test_negative_distortion_rejected(self, model):
        with pytest.raises(ValueError):
            classify_gaussian(-0.1, 0.2, model)

    @pytest.mark.parametrize("d1,d2", [(math.nan, 0.1), (0.1, math.nan)])
    def test_nan_distortion_rejected(self, model, d1, d2):
        with pytest.raises(ValueError, match="nonnegative"):
            classify_gaussian(d1, d2, model)
        with pytest.raises(ValueError, match="nonnegative"):
            r_xy_gaussian(d1, d2, model)

    def test_unit_corner_is_lopsided_with_zero_rate(self, model):
        assert classify_gaussian(1.0, 1.0, model) is GaussianRegion.LOPSIDED
        assert r_xy_gaussian(1.0, 1.0, model) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.2),
           st.floats(min_value=0.0, max_value=1.2),
           st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=300, deadline=None)
    def test_exactly_one_label(self, d1, d2, rho):
        region = classify_gaussian(d1, d2, GaussianPairModel(rho))
        assert isinstance(region, GaussianRegion)

    def test_partition_census(self):
        # 10^5 uniform points over [0, 1.2]^2; every region shows up and
        # the classifier stays total for small and large correlation
        gen = np.random.default_rng(3)
        pts = gen.uniform(0.0, 1.2, size=(10 ** 5, 2))
        for rho in (0.05, 0.5, 0.8):
            m = GaussianPairModel(rho)
            counts = {r: 0 for r in GaussianRegion}
            for d1, d2 in pts:
                counts[classify_gaussian(d1, d2, m)] += 1
            assert sum(counts.values()) == 10 ** 5
            assert all(c > 0 for c in counts.values())

    def test_symmetry(self, model):
        gen = np.random.default_rng(4)
        for d1, d2 in gen.uniform(0.0, 1.2, size=(200, 2)):
            assert classify_gaussian(d1, d2, model) is \
                classify_gaussian(d2, d1, model)


class TestJointRate:
    def test_frozen_values(self, model):
        assert r_xy_gaussian(0.1, 0.1, model) == pytest.approx(RXY_01_01, abs=1e-12)
        assert r_xy_gaussian(0.5, 0.5, model) == pytest.approx(RXY_05_05, abs=1e-12)
        assert r_xy_gaussian(0.9, 0.1, model) == pytest.approx(RXY_09_01, abs=1e-12)

    def test_free_region_reports_zero(self, model):
        assert r_xy_gaussian(1.1, 1.1, model) == 0.0
        assert r_xy_gaussian(1.05, 0.3, model) == 0.0

    def test_zero_distortion_is_infinite(self, model):
        assert r_xy_gaussian(0.0, 0.1, model) == math.inf
        assert r_xy_gaussian(0.0, 0.0, model) == math.inf

    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=200, deadline=None)
    def test_log_det_oracle_route(self, d1, d2, rho):
        # rebuild the rate as an entropy difference across the matching
        # backward channel; branches must agree with the closed form
        m = GaussianPairModel(rho)
        region = classify_gaussian(d1, d2, m)
        h_joint = log_det_entropy(m.covariance())
        if region in (GaussianRegion.TINY_BOTH, GaussianRegion.SMALL_BOTH):
            oracle = h_joint - log_det_entropy(np.diag([d1, d2]))
        elif region is GaussianRegion.COUPLED:
            off = rho - math.sqrt((1.0 - d1) * (1.0 - d2))
            oracle = h_joint - log_det_entropy([[d1, off], [off, d2]])
        else:
            dmin = min(d1, d2)
            oracle = log_det_entropy([[1.0]]) - log_det_entropy([[dmin]])
        assert r_xy_gaussian(d1, d2, m) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
    def test_continuity_across_boundaries(self, rho):
        # evaluate both branch formulas directly at boundary points: the
        # small/coupled boundary solves (1-d1)(1-d2) = rho^2, and the
        # coupled/lopsided boundary solves (1-d2) = rho^2 (1-d1)

        def branch_small(d1, d2):
            return 0.5 * math.log2((1.0 - rho * rho) / (d1 * d2))

        def branch_coupled(d1, d2):
            gap = rho - math.sqrt((1.0 - d1) * (1.0 - d2))
            return 0.5 * math.log2((1.0 - rho * rho) / (d1 * d2 - gap * gap))

        def branch_lopsided(d1, d2):
            return 0.5 * math.log2(1.0 / min(d1, d2))

        gen = np.random.default_rng(6)
        hits = 0
        for _ in range(200):
            d1 = float(gen.uniform(1.0 - rho + 1e-3, 0.95))
            d2 = 1.0 - rho * rho / (1.0 - d1)
            if not 0.01 < d2 < 1.0:
                continue
            hits += 1
            assert abs(branch_small(d1, d2) - branch_coupled(d1, d2)) < 1e-9
        assert hits > 10
        for _ in range(200):
            d1 = float(gen.uniform(0.02, 0.95))
            d2 = 1.0 - rho * rho * (1.0 - d1)
            assert abs(branch_coupled(d1, d2) - branch_lopsided(d1, d2)) < 1e-9

    def test_straddling_boundary_flips_label_smoothly(self, model):
        # labels flip across the small/coupled boundary while the rate
        # moves only by the local slope times the straddle width
        d1, eps = 0.3, 1e-11
        d2 = 1.0 - RHO * RHO / (1.0 - d1)
        assert classify_gaussian(d1, d2 - eps, model) is GaussianRegion.SMALL_BOTH
        assert classify_gaussian(d1, d2 + eps, model) is GaussianRegion.COUPLED
        inner = r_xy_gaussian(d1, d2 - eps, model)
        outer = r_xy_gaussian(d1, d2 + eps, model)
        assert abs(inner - outer) < 1e-8

    @given(st.floats(min_value=0.02, max_value=0.98),
           st.floats(min_value=0.02, max_value=0.98),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_inside_unit_square(self, d1, d2, rho):
        assert r_xy_gaussian(d1, d2, GaussianPairModel(rho)) >= 0.0


class TestLossyCI:
    def test_tiny_both_is_wyner_ci(self, model):
        assert lossy_ci_gaussian(0.1, 0.1, model) == pytest.approx(CI_08, abs=1e-12)

    def test_small_both_is_open(self, model):
        assert lossy_ci_gaussian(0.22, 0.1, model) is None

    def test_coupled_and_lopsided_equal_joint_rate(self, model):
        assert lossy_ci_gaussian(0.5, 0.5, model) == pytest.approx(
            RXY_05_05, abs=1e-12)
        assert lossy_ci_gaussian(0.9, 0.1, model) == pytest.approx(
            RXY_09_01, abs=1e-12)

    def test_free_is_zero(self, model):
        assert lossy_ci_gaussian(1.2, 1.2, model) == 0.0

    def test_l2_wyner_matches_tiny_both_ci(self, model):
        assert LGaussianModel(2, RHO).wyner_ci() == pytest.approx(
            lossy_ci_gaussian(0.05, 0.05, model), abs=1e-12)


class TestEps2Channel:
    def test_covariance_split_and_rank(self, model):
        ch = build_eps2_channel(0.5, 0.5, model)
        total = ch.k_reconstruction() + ch.k_noise()
        assert np.allclose(total, model.covariance(), atol=1e-12)
        assert abs(np.linalg.det(ch.k_reconstruction())) < 1e-12
        assert ch.slope == pytest.approx(1.0, abs=1e-15)

    def test_asymmetric_point(self, model):
        ch = build_eps2_channel(0.4, 0.6, model)
        assert ch.slope == pytest.approx(math.sqrt(0.4 / 0.6), abs=1e-15)
        total = ch.k_reconstruction() + ch.k_noise()
        assert np.allclose(total, model.covariance(), atol=1e-12)

    def test_noise_covariance_psd_across_region(self):
        gen = np.random.default_rng(8)
        seen = 0
        for _ in range(4000):
            d1, d2 = gen.uniform(0.0, 1.0, size=2)
            rho = float(gen.uniform(0.1, 0.95))
            m = GaussianPairModel(rho)
            if classify_gaussian(d1, d2, m) is not GaussianRegion.COUPLED:
                continue
            seen += 1
            ch = build_eps2_channel(d1, d2, m)
            eigs = np.linalg.eigvalsh(ch.k_noise())
            assert eigs.min() > -1e-12
        assert seen > 100

    def test_region_mismatch_rejected(self, model):
        for d1, d2 in [(0.1, 0.1), (0.22, 0.1), (0.9, 0.1), (1.1, 1.1)]:
            with pytest.raises(ValueError):
                build_eps2_channel(d1, d2, model)


class TestReductions:
    def test_pair_constants(self, model):
        red = reduce_pair(model)
        assert red.weights == (0.5, 0.5)
        assert red.mmse.sigma_s2 == pytest.approx(0.9, abs=1e-15)
        assert red.mmse.sigma_r2 == pytest.approx(0.8, abs=1e-15)
        assert red.mmse.alpha == pytest.approx(2.0 * RHO / (1.0 + RHO), abs=1e-12)
        assert red.mmse.sigma_tilde2 == pytest.approx(
            RHO * (1.0 - RHO) / (1.0 + RHO), abs=1e-12)

    def test_pair_posterior_width_vanishes_with_full_correlation(self):
        assert reduce_pair(GaussianPairModel(1.0 - 1e-9)).mmse.sigma_tilde2 \
            == pytest.approx(0.0, abs=1e-8)

    def test_l_constants(self):
        red = reduce_L(LGaussianModel(4, 0.5))
        assert red.weights == (0.25,) * 4
        assert red.mmse.sigma_s2 == pytest.approx(0.625, abs=1e-15)
        assert red.mmse.sigma_r2 == pytest.approx(0.5, abs=1e-15)
        red3 = reduce_L(LGaussianModel(3, 0.5))
        assert red3.mmse.sigma_s2 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_l2_reduction_matches_pair(self, model):
        a = reduce_pair(model)
        b = reduce_L(LGaussianModel(2, RHO))
        assert a.weights == b.weights
        assert a.mmse.sigma_s2 == pytest.approx(b.mmse.sigma_s2, abs=1e-15)
        assert a.mmse.sigma_r2 == pytest.approx(b.mmse.sigma_r2, abs=1e-15)

    def test_posterior_width_decreases_in_source_count(self):
        widths = [reduce_L(LGaussianModel(size, 0.5)).mmse.sigma_tilde2
                  for size in range(2, 8)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_eps2_acceptance_point(self, model):
        red = reduce_eps2(0.5, 0.5, model)
        assert red.weights[0] == pytest.approx(0.5, abs=1e-12)
        assert red.weights[1] == pytest.approx(0.5, abs=1e-12)
        assert red.mmse.sigma_s2 == pytest.approx(0.9, abs=1e-12)
        assert red.mmse.sigma_r2 == pytest.approx(0.5, abs=1e-15)
        assert red.mmse.alpha == pytest.approx(5.0 / 9.0, abs=1e-12)
        assert red.mmse.sigma_tilde2 == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_eps2_asymmetric_frozen(self, model):
        red = reduce_eps2(0.4, 0.6, model)
        assert red.weights[0] == pytest.approx(EPS2_WEIGHTS_04_06[0], abs=1e-12)
        assert red.weights[1] == pytest.approx(EPS2_WEIGHTS_04_06[1], abs=1e-12)
        assert red.mmse.sigma_s2 == pytest.approx(EPS2_VAR_04_06, abs=1e-12)

    def test_eps2_posterior_width_equals_noise_determinant_form(self, model):
        # sigma_tilde2 must equal delta1 * det(k_noise) / (1 - rho^2)
        for d1, d2 in [(0.5, 0.5), (0.4, 0.6), (0.55, 0.45)]:
            red = reduce_eps2(d1, d2, model)
            ch = build_eps2_channel(d1, d2, model)
            expected = (1.0 - d1) * float(np.linalg.det(ch.k_noise())) \
                / (1.0 - RHO * RHO)
            assert red.mmse.sigma_tilde2 == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=200, deadline=None)
    def test_eps2_weights_reproduce_variance(self, d1, d2, rho):
        # the quadratic form w K w^T must equal the stated variance of U
        m = GaussianPairModel(rho)
        if classify_gaussian(d1, d2, m) is not GaussianRegion.COUPLED:
            return
        red = reduce_eps2(d1, d2, m)
        w = np.asarray(red.weights)
        quad = float(w @ m.covariance() @ w)
        assert quad == pytest.approx(red.mmse.sigma_s2, abs=1e-12)

    def test_eps2_symmetric_weights_match_pair(self):
        gen = np.random.default_rng(10)
        for _ in range(100):
            rho = float(gen.uniform(0.1, 0.9))
            m = GaussianPairModel(rho)
            d = float(gen.uniform(0.0, 1.0))
            if classify_gaussian(d, d, m) is not GaussianRegion.COUPLED:
                continue
            red = reduce_eps2(d, d, m)
            assert abs(red.weights[0] - 0.5) < 1e-12
            assert abs(red.weights[1] - 0.5) < 1e-12

    def test_eps2_region_mismatch_rejected(self, model):
        with pytest.raises(ValueError):
            reduce_eps2(0.1, 0.1, model)
        with pytest.raises(ValueError):
            reduce_eps2(0.9, 0.1, model)

    def test_combine_applies_weights(self, model):
        red = reduce_eps2(0.4, 0.6, model)
        x = np.arange(6.0).reshape(2, 3)
        y = -np.ones((2, 3))
        u = red.combine((x, y))
        expected = red.weights[0] * x + red.weights[1] * y
        assert np.allclose(u, expected, atol=1e-15)
        with pytest.raises(ValueError):
            red.combine(np.zeros((3, 2, 3)))

    def test_combined_l_sample_variance(self):
        # Monte-Carlo oracle: variance of the mean of L looks
        m = LGaussianModel(4, 0.5)
        red = reduce_L(m)
        gen = np.random.default_rng(12)
        arr = m.sample(100, 4096, gen)
        u = red.combine(arr)
        stderr = math.sqrt(2.0 / u.size) * red.mmse.sigma_s2
        assert abs(u.var() - red.mmse.sigma_s2) < 3.0 * stderr
