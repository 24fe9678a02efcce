"""Region geometry, closed-form rates, and channel tables for the DSBS.

Expected constants were frozen from a 40-digit mpmath evaluation of the
closed forms (binary entropy, crossover convolution, and the per-branch
rate formulas).  Channel mutual informations are checked against those
same closed forms through an independent route: the joint table built by
the channel factory.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graywyner.dsbs import (
    DsbsModel,
    DsbsRegion,
    ag_partner_crossover,
    build_ag_channel,
    build_eps2_channel,
    build_gb_channel,
    build_point_g_channel,
    classify_dsbs,
    gb_theory_triple,
    lossy_ci_dsbs,
    pair_observation,
    r_xy_dsbs,
)
from graywyner.numerics import binary_convolve, binary_entropy
from graywyner.polar import BinarySourceWithSideInfo
from graywyner.rates import RateTriple

A0 = 0.11
A1 = 0.058411956683607657262
WYNER_CI = 0.85769904601511757182
JOINT_ENTROPY = 1.4999159581645279956
RXY_03_03 = 0.13444273799613091835
RXY_030_034 = 0.11884808370551051813
RXY_025_032 = 0.18872187554086713609
RXY_002_005 = 1.0720784585067512217
RXY_010_045 = 0.53100440641071877875
GB_R0 = {0.10: 0.63298699516325580548,
         0.20: 0.31928503847771432644,
         0.30: 0.13444273799613091835}


@pytest.fixture(scope="module")
def model():
    return DsbsModel(A0)


class TestModelBasics:
    def test_half_crossover_convolves_to_a0(self, model):
        assert model.a1 == pytest.approx(A1, abs=1e-15)
        assert binary_convolve(model.a1, model.a1) == pytest.approx(A0, abs=1e-12)

    def test_entropies(self, model):
        assert model.joint_entropy() == pytest.approx(JOINT_ENTROPY, abs=1e-12)
        assert model.entropy_x() == 1.0
        assert model.entropy_y() == 1.0

    def test_wyner_ci_frozen(self, model):
        assert model.wyner_ci() == pytest.approx(WYNER_CI, abs=1e-12)

    def test_a0_range_validated(self):
        with pytest.raises(ValueError):
            DsbsModel(-0.01)
        with pytest.raises(ValueError):
            DsbsModel(0.51)

    def test_sample_statistics(self, model):
        gen = np.random.default_rng(7)
        x, y = model.sample(40, 4096, gen)
        assert x.shape == y.shape == (40, 4096)
        assert x.mean() == pytest.approx(0.5, abs=0.01)
        assert (x ^ y).mean() == pytest.approx(A0, abs=0.01)

    @given(st.floats(min_value=1e-6, max_value=0.5 - 1e-9))
    @settings(max_examples=60, deadline=None)
    def test_half_crossover_identity_everywhere(self, a0):
        m = DsbsModel(a0)
        assert 0.0 <= m.a1 <= 0.5
        assert binary_convolve(m.a1, m.a1) == pytest.approx(a0, abs=1e-12)


class TestRegions:
    @pytest.mark.parametrize("d1,d2,expected", [
        (0.05, 0.05, DsbsRegion.TINY_BOTH),
        (0.3, 0.3, DsbsRegion.COUPLED),
        (0.6, 0.6, DsbsRegion.FREE),
        (0.0, 0.0, DsbsRegion.TINY_BOTH),
        (0.058, 0.058, DsbsRegion.TINY_BOTH),
        (0.07, 0.04, DsbsRegion.SMALL_BOTH),
        (0.10, 0.45, DsbsRegion.LOPSIDED),
        (0.45, 0.10, DsbsRegion.LOPSIDED),
        (0.25, 0.32, DsbsRegion.LOPSIDED),
        (0.30, 0.34, DsbsRegion.COUPLED),
        (0.02, 0.60, DsbsRegion.FREE),
        (0.60, 0.02, DsbsRegion.FREE),
    ])
    def test_named_cases(self, model, d1, d2, expected):
        assert classify_dsbs(d1, d2, model) is expected

    def test_region_labels(self):
        assert DsbsRegion.TINY_BOTH.value == "E10"
        assert DsbsRegion.SMALL_BOTH.value == "E11"
        assert DsbsRegion.COUPLED.value == "E2"
        assert DsbsRegion.LOPSIDED.value == "E3"
        assert DsbsRegion.FREE.value == "BEYOND_HALF"

    @pytest.mark.parametrize("d1,d2", [(math.nan, 0.1), (0.1, math.nan)])
    def test_nan_distortion_rejected(self, model, d1, d2):
        with pytest.raises(ValueError, match="nonnegative"):
            classify_dsbs(d1, d2, model)
        with pytest.raises(ValueError, match="nonnegative"):
            r_xy_dsbs(d1, d2, model)

    def test_any_coordinate_beyond_half_is_free(self, model):
        assert classify_dsbs(0.02, 0.95, model) is DsbsRegion.FREE
        assert classify_dsbs(0.7, 0.3, model) is DsbsRegion.FREE
        assert classify_dsbs(0.500001, 0.500001, model) is DsbsRegion.FREE

    def test_partition_is_total_and_exclusive(self, model):
        gen = np.random.default_rng(3)
        pts = gen.uniform(0.0, 0.7, size=(100_000, 2))
        a0, a1 = model.a0, model.a1
        for d1, d2 in pts:
            region = classify_dsbs(d1, d2, model)
            free = d1 > 0.5 or d2 > 0.5
            tiny = (not free) and d1 <= a1 and d2 <= a1
            small = (not free) and (not tiny) and binary_convolve(d1, d2) <= a0
            lo, hi = min(d1, d2), max(d1, d2)
            coupled = (not free) and (not tiny) and (not small) and \
                (hi - lo) <= a0 * (1.0 - 2.0 * lo)
            lopsided = not (free or tiny or small or coupled)
            flags = {DsbsRegion.FREE: free,
                     DsbsRegion.TINY_BOTH: tiny,
                     DsbsRegion.SMALL_BOTH: small,
                     DsbsRegion.COUPLED: coupled,
                     DsbsRegion.LOPSIDED: lopsided}
            assert sum(flags.values()) == 1
            assert flags[region]

    def test_rate_continuous_across_region_boundaries(self, model):
        a0 = model.a0
        # small-both / coupled boundary: conv(d1, d2) = a0
        for d1 in np.linspace(0.005, 0.0575, 100):
            d2 = (a0 - d1) / (1.0 - 2.0 * d1)
            inside = r_xy_dsbs(d1, d2 - 1e-12, model)
            outside = r_xy_dsbs(d1, d2 + 1e-12, model)
            assert classify_dsbs(d1, d2 - 1e-12, model) in (
                DsbsRegion.TINY_BOTH, DsbsRegion.SMALL_BOTH)
            assert classify_dsbs(d1, d2 + 1e-12, model) is DsbsRegion.COUPLED
            assert outside == pytest.approx(inside, abs=1e-9)
        # coupled / lopsided boundary: dmax = conv(a0, dmin)
        for d1 in np.linspace(0.12, 0.43, 100):
            d2 = binary_convolve(a0, d1)
            inside = r_xy_dsbs(d1, d2 - 1e-12, model)
            outside = r_xy_dsbs(d1, d2 + 1e-12, model)
            assert classify_dsbs(d1, d2 - 1e-12, model) is DsbsRegion.COUPLED
            assert classify_dsbs(d1, d2 + 1e-12, model) is DsbsRegion.LOPSIDED
            assert outside == pytest.approx(inside, abs=1e-9)
        # the rate vanishes continuously into the free corner
        assert r_xy_dsbs(0.5, 0.5, model) == pytest.approx(0.0, abs=1e-12)


class TestClosedFormRates:
    def test_frozen_values(self, model):
        assert r_xy_dsbs(0.30, 0.30, model) == pytest.approx(RXY_03_03, abs=1e-12)
        assert r_xy_dsbs(0.30, 0.34, model) == pytest.approx(RXY_030_034, abs=1e-12)
        assert r_xy_dsbs(0.25, 0.32, model) == pytest.approx(RXY_025_032, abs=1e-12)
        assert r_xy_dsbs(0.02, 0.05, model) == pytest.approx(RXY_002_005, abs=1e-12)
        assert r_xy_dsbs(0.10, 0.45, model) == pytest.approx(RXY_010_045, abs=1e-12)

    def test_zero_distortion_needs_joint_entropy(self, model):
        assert r_xy_dsbs(0.0, 0.0, model) == pytest.approx(JOINT_ENTROPY, abs=1e-12)

    def test_free_region_needs_nothing(self, model):
        assert r_xy_dsbs(0.6, 0.7, model) == 0.0
        assert lossy_ci_dsbs(0.6, 0.7, model) == 0.0

    def test_lossy_ci_branches(self, model):
        assert lossy_ci_dsbs(0.02, 0.05, model) == pytest.approx(WYNER_CI, abs=1e-12)
        assert lossy_ci_dsbs(0.07, 0.04, model) is None
        assert lossy_ci_dsbs(0.30, 0.30, model) == pytest.approx(RXY_03_03, abs=1e-12)
        assert lossy_ci_dsbs(0.10, 0.45, model) == pytest.approx(RXY_010_045,
                                                                 abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.75),
           st.floats(min_value=0.0, max_value=0.75))
    @settings(max_examples=200, deadline=None)
    def test_rate_bounds_and_symmetry(self, d1, d2):
        model = DsbsModel(A0)
        r = r_xy_dsbs(d1, d2, model)
        assert 0.0 <= r <= JOINT_ENTROPY + 1e-12
        assert r == pytest.approx(r_xy_dsbs(d2, d1, model), abs=1e-12)

    def test_rate_monotone_in_distortion(self, model):
        grid = np.linspace(0.0, 0.55, 56)
        rates = [r_xy_dsbs(d, d, model) for d in grid]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


class TestChannels:
    def test_point_g_matches_common_information(self, model):
        ch = build_point_g_channel(model)
        assert ch.mutual_information() == pytest.approx(WYNER_CI, abs=1e-12)
        assert ch.prior_is_uniform
        assert ch.entropy_x_given_y() == pytest.approx(1.0 - WYNER_CI,
                                                       abs=1e-12)

    def test_point_g_table_is_product_of_crossovers(self, model):
        joint = build_point_g_channel(model).joint
        a1 = model.a1
        for obs in range(4):
            x, y = obs >> 1, obs & 1
            for w in (0, 1):
                expect = 0.5 * ((a1 if x != w else 1 - a1)
                                * (a1 if y != w else 1 - a1))
                assert joint[w, obs] == pytest.approx(expect, abs=1e-15)
        # structural route: marginal over w reproduces the source pair law
        pair_mass = joint.sum(axis=0)
        agree = 0.5 * (1 - A0)
        assert pair_mass[pair_observation(0, 0)] == pytest.approx(agree, abs=1e-12)
        assert pair_mass[pair_observation(1, 1)] == pytest.approx(agree, abs=1e-12)
        assert pair_mass[pair_observation(0, 1)] == pytest.approx(A0 / 2, abs=1e-12)

    def test_ag_endpoints(self, model):
        # d1 = 0: common variable is X itself, partner crossover is a0
        at_zero = build_ag_channel(model, 0.0)
        assert at_zero.mutual_information() == pytest.approx(1.0, abs=1e-12)
        assert binary_convolve(ag_partner_crossover(model, 0.0), model.a1) == \
            pytest.approx(A0, abs=1e-12)
        # d1 = a1: collapses to the hidden-bit channel
        at_g = build_ag_channel(model, model.a1)
        ref = build_point_g_channel(model)
        np.testing.assert_allclose(at_g.joint, ref.joint, atol=1e-12)

    def test_ag_total_rate_constant_along_line(self, model):
        # common rate plus both private entropies always equals H(X, Y)
        for d1 in np.linspace(0.0, model.a1, 9):
            ch = build_ag_channel(model, d1)
            cross_y = binary_convolve(ag_partner_crossover(model, d1), model.a1)
            total = (ch.mutual_information() + binary_entropy(d1)
                     + binary_entropy(cross_y))
            assert total == pytest.approx(JOINT_ENTROPY, abs=1e-12)

    def test_joint_with_nan_rejected(self):
        with pytest.raises(ValueError, match="probability matrix"):
            BinarySourceWithSideInfo(joint=[[0.5, math.nan], [0.25, 0.25]])

    def test_ag_rejects_out_of_range(self, model):
        with pytest.raises(ValueError):
            build_ag_channel(model, -0.001)
        with pytest.raises(ValueError):
            build_ag_channel(model, model.a1 + 0.001)

    @pytest.mark.parametrize("beta", [0.10, 0.20, 0.30])
    def test_gb_theory_triple_frozen(self, model, beta):
        triple = gb_theory_triple(model, beta)
        assert triple.r0 == pytest.approx(GB_R0[beta], abs=1e-12)
        assert triple.r1 == pytest.approx(binary_entropy(beta), abs=1e-12)
        assert triple.r2 == triple.r1

    @pytest.mark.parametrize("beta", [0.08, 0.15, 0.25, 0.35, 0.45])
    def test_gb_channel_mi_matches_theory(self, model, beta):
        # independent route: joint-table mutual information
        ch = build_gb_channel(model, beta)
        assert ch.mutual_information() == pytest.approx(
            gb_theory_triple(model, beta).r0, abs=1e-9)

    def test_gb_rate_nonincreasing_in_beta(self, model):
        betas = np.linspace(model.a1, 0.5, 40)
        rates = [build_gb_channel(model, b).mutual_information() for b in betas]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_gb_endpoints(self, model):
        at_a1 = build_gb_channel(model, model.a1)
        np.testing.assert_allclose(at_a1.joint,
                                   build_point_g_channel(model).joint, atol=1e-12)
        at_half = build_gb_channel(model, 0.5)
        assert at_half.mutual_information() == pytest.approx(0.0, abs=1e-12)

    def test_gb_rejects_out_of_range(self, model):
        with pytest.raises(ValueError):
            build_gb_channel(model, model.a1 - 1e-3)
        with pytest.raises(ValueError):
            build_gb_channel(model, 0.501)


class TestCoupledChannel:
    def test_mi_matches_branch_formula(self, model):
        for d1, d2 in [(0.30, 0.30), (0.30, 0.34), (0.15, 0.20), (0.40, 0.42)]:
            ch = build_eps2_channel(d1, d2, model)
            assert ch.mutual_information() == pytest.approx(
                r_xy_dsbs(d1, d2, model), abs=1e-9)

    def test_marginal_distortions_and_source_law(self, model):
        d1, d2 = 0.28, 0.32
        ch = build_eps2_channel(d1, d2, model)
        joint = ch.joint  # rows w, cols 2x + y
        x_bits = np.array([0, 0, 1, 1])
        y_bits = np.array([0, 1, 0, 1])
        p_x_neq_w = joint[0, x_bits == 1].sum() + joint[1, x_bits == 0].sum()
        p_y_neq_w = joint[0, y_bits == 1].sum() + joint[1, y_bits == 0].sum()
        assert p_x_neq_w == pytest.approx(d1, abs=1e-12)
        assert p_y_neq_w == pytest.approx(d2, abs=1e-12)
        disagree = joint[:, x_bits != y_bits].sum()
        assert disagree == pytest.approx(A0, abs=1e-12)
        pair_mass = joint.sum(axis=0)
        assert pair_mass[0] == pytest.approx(pair_mass[3], abs=1e-12)

    def test_table_rows_normalized(self, model):
        ch = build_eps2_channel(0.3, 0.3, model)
        np.testing.assert_allclose(ch.conditional_table().sum(axis=1),
                                   np.ones(4), atol=1e-12)
        assert ch.joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert (ch.joint >= 0).all()

    def test_rejected_outside_coupled_region(self, model):
        for d1, d2 in [(0.02, 0.05), (0.07, 0.04), (0.25, 0.32),
                       (0.10, 0.45), (0.6, 0.6)]:
            with pytest.raises(ValueError):
                build_eps2_channel(d1, d2, model)

    def test_valid_across_region_sweep(self, model):
        gen = np.random.default_rng(5)
        found = 0
        for d1, d2 in gen.uniform(0.0, 0.55, size=(4000, 2)):
            if classify_dsbs(d1, d2, model) is DsbsRegion.COUPLED:
                ch = build_eps2_channel(d1, d2, model)
                assert (ch.joint >= -1e-15).all()
                found += 1
        assert found > 500


class TestPairObservation:
    def test_packing(self):
        x = np.array([[0, 0, 1, 1]], dtype=np.uint8)
        y = np.array([[0, 1, 0, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(pair_observation(x, y), [[0, 1, 2, 3]])


class TestTheoryTriples:
    def test_lossless_operating_points_cover_the_source(self, model):
        h_xy = JOINT_ENTROPY
        point_a = RateTriple(1.0, 0.0, binary_entropy(A0))
        point_g = RateTriple(WYNER_CI, binary_entropy(A1), binary_entropy(A1))
        for triple in (point_a, point_g, gb_theory_triple(model, 0.2)):
            assert triple.satisfies_lossless_bounds(1.0, 1.0, h_xy)

    def test_pangloss_totals(self, model):
        # A and G sit on the minimum-total plane; GB costs strictly more
        point_a_total = 1.0 + binary_entropy(A0)
        point_g_total = WYNER_CI + 2 * binary_entropy(A1)
        assert point_a_total == pytest.approx(JOINT_ENTROPY, abs=1e-12)
        assert point_g_total == pytest.approx(JOINT_ENTROPY, abs=1e-12)
        assert gb_theory_triple(model, 0.2).total > JOINT_ENTROPY + 0.1
