"""End-to-end lattice extraction at desk-scale block lengths.

Windows were sized from measured runs at N=1024: distortions land within
about 25 percent of their targets there, while uncapped payload rates
carry the partially polarized band above the information limit (about
0.36 bits for the pair chain at this length, shrinking with N).
"""

import math

import numpy as np
import pytest

from graywyner.gaussian import (
    GaussianPairModel,
    LGaussianModel,
    r_xy_gaussian,
    reduce_pair,
)
from graywyner.gaussian.pipelines import (
    REFINE_X_STREAM_BASE,
    REFINE_Y_STREAM_BASE,
    extract_common,
    refine_private_eps10,
)
from graywyner.lattice import LATTICE_STREAM_BASE, build_multilevel_code, plan_chain
from graywyner.polar import CLASS_FROZEN_DETERMINISTIC
from graywyner.rates import RateTriple, RunRecord

PM8 = GaussianPairModel(0.8)
BASE8 = 1.0 - PM8.rho


def pair_run(cache_dir, seed=2, blocks=12, **kw):
    return extract_common(PM8, 1024, seed, n_blocks=blocks,
                          cache_dir=str(cache_dir), **kw)


class TestPairRoute:
    def test_record_structure(self, cache_dir):
        run = pair_run(cache_dir)
        assert isinstance(run, RunRecord)
        assert run.point_label == "COMMON"
        assert run.region == "E10"
        assert run.n_blocks == 12
        assert run.theory == RateTriple(PM8.wyner_ci(), 0.0, 0.0)
        assert run.theory_ci == pytest.approx(PM8.wyner_ci())
        assert run.target_dx == pytest.approx(BASE8)
        assert np.all(run.r1 == 0.0) and np.all(run.r2 == 0.0)
        assert np.array_equal(run.total, run.r0)
        assert run.common.shape == (12, 1024)

    def test_rate_above_limit_by_the_band(self, cache_dir):
        """Each block pays the payload fraction, fixed by the profile, plus
        log2(N) + 1 bits per correction."""
        run = pair_run(cache_dir)
        mmse = reduce_pair(PM8).mmse
        code = build_multilevel_code(plan_chain(mmse), mmse, 1024, seed=3,
                                     cache_dir=cache_dir)
        per_fix = math.log2(1024) + 1
        fixes = (run.r0 - code.total_rate) * 1024 / per_fix
        np.testing.assert_allclose(fixes, np.rint(fixes), atol=1e-9)
        assert np.rint(fixes).min() >= 0
        # a D position is one whose prior-chain decision misses less than
        # once per correction's cost, e_prior * (log2 N + 1) < 1; the
        # corrections per block then stay near the count the profiles
        # expect, the sum of e_prior over the D positions of every level
        deterministic = [p.classes == CLASS_FROZEN_DETERMINISTIC for p in code.profiles]
        assert all((p.e_prior[d] * per_fix < 1.0).all()
                   for p, d in zip(code.profiles, deterministic))
        expected = sum(p.e_prior[d].sum() for p, d in zip(code.profiles, deterministic))
        assert 0.0 < fixes.mean() < 2.0 * expected
        assert run.theory.r0 < run.r0.min() <= run.r0.max() < run.theory.r0 + 0.5

    def test_distortions_near_target(self, cache_dir):
        run = pair_run(cache_dir)
        for d in (run.dist_x.mean(), run.dist_y.mean()):
            assert 0.85 * BASE8 < d < 1.35 * BASE8

    def test_common_variance_tracks_hidden_variable(self, cache_dir):
        run = pair_run(cache_dir)
        assert run.common.var() == pytest.approx(PM8.rho, rel=0.1)

    def test_reproducible_per_seed(self, cache_dir):
        a = pair_run(cache_dir, seed=9, blocks=4)
        b = pair_run(cache_dir, seed=9, blocks=4)
        c = pair_run(cache_dir, seed=10, blocks=4)
        assert np.array_equal(a.common, b.common)
        assert np.array_equal(a.dist_x, b.dist_x)
        assert not np.array_equal(a.common, c.common)

    @pytest.mark.parametrize("blocks", [0, -1])
    def test_empty_batch_rejected(self, cache_dir, blocks):
        with pytest.raises(ValueError, match="n_blocks"):
            pair_run(cache_dir, blocks=blocks)

    @pytest.mark.parametrize("blocks", [1.5, 2.0, True])
    def test_non_integer_batch_rejected(self, cache_dir, blocks):
        with pytest.raises(ValueError, match="n_blocks must be an integer"):
            pair_run(cache_dir, blocks=blocks)

    @pytest.mark.parametrize("count", [True, 32.0, -3, 0])
    def test_bad_sample_count_rejected(self, cache_dir, count):
        """A bool, float or nonpositive construction sample count is
        refused up front, not by NumPy inside the lattice build."""
        with pytest.raises(ValueError, match="sample_count must be"):
            pair_run(cache_dir, blocks=2, sample_count=count)

    @pytest.mark.parametrize("n", [0, 12, 64.0])
    def test_block_length_must_be_a_power_of_two(self, n):
        with pytest.raises(ValueError, match="block"):
            extract_common(PM8, n, 2, n_blocks=2, sample_count=4)


@pytest.mark.parametrize("rho", [0.99, 0.999])
def test_strong_correlation_runs_clean(rho):
    """rho -> 1: near-certain coset evidence on every level.  Replay is
    checked inside the pipeline."""
    out = extract_common(GaussianPairModel(rho), 256, 1, n_blocks=4,
                         sample_count=32)
    assert out.n_blocks == 4
    for rate in (out.r0, out.r1, out.r2):
        assert np.all(rate >= 0.0)
    assert np.all(np.isfinite(out.dist_x)) and np.all(np.isfinite(out.dist_y))


class TestLRoute:
    def test_record_structure_and_windows(self, cache_dir):
        model = LGaussianModel(3, 0.5)
        run = extract_common(model, 1024, 2, n_blocks=12,
                             cache_dir=str(cache_dir))
        assert run.point_label == "COMMON_L3"
        assert run.region is None
        assert run.theory == RateTriple(model.wyner_ci(), 0.0, 0.0)
        assert np.array_equal(run.dist_x, run.dist_y)
        assert run.theory.r0 < run.r0[0] < run.theory.r0 + 0.6
        assert 0.85 * 0.5 < run.dist_x.mean() < 1.25 * 0.5

    def test_two_sources_identical_to_pair_route(self, cache_dir):
        # same generator stream, same reduction, same chain: the only
        # difference may be the labeling
        a = extract_common(LGaussianModel(2, 0.8), 1024, 7, n_blocks=4,
                           cache_dir=str(cache_dir))
        b = extract_common(PM8, 1024, 7, n_blocks=4, cache_dir=str(cache_dir))
        assert a.point_label == "COMMON_L2"
        assert np.array_equal(a.common, b.common)
        assert np.array_equal(a.r0, b.r0)
        # the L route averages distortion across coordinates
        assert a.dist_x == pytest.approx(0.5 * (b.dist_x + b.dist_y), abs=1e-15)
        assert a.theory.r0 == pytest.approx(b.theory.r0, abs=1e-12)


class TestCoupledRoute:
    def test_symmetric_point(self, cache_dir):
        run = extract_common((0.5, 0.5, PM8), 1024, 2, n_blocks=12,
                             cache_dir=str(cache_dir))
        assert run.point_label == "COUPLED"
        assert run.region == "E2"
        assert run.theory.r0 == pytest.approx(
            r_xy_gaussian(0.5, 0.5, PM8), abs=1e-12)
        assert run.theory_ci == pytest.approx(run.theory.r0, abs=1e-12)
        assert run.theory.r0 < run.r0[0] < run.theory.r0 + 0.5
        assert 0.85 * 0.5 < run.dist_x.mean() < 1.2 * 0.5
        assert run.dist_y.mean() == pytest.approx(run.dist_x.mean(), rel=0.05)

    def test_asymmetric_point(self, cache_dir):
        run = extract_common((0.4, 0.6, PM8), 1024, 5, n_blocks=12,
                             cache_dir=str(cache_dir))
        assert (run.target_dx, run.target_dy) == (0.4, 0.6)
        assert run.theory.r0 == pytest.approx(
            r_xy_gaussian(0.4, 0.6, PM8), abs=1e-12)
        assert 0.85 * 0.4 < run.dist_x.mean() < 1.2 * 0.4
        assert 0.85 * 0.6 < run.dist_y.mean() < 1.2 * 0.6

    def test_tiny_both_redirected(self, cache_dir):
        with pytest.raises(ValueError, match="hidden-pair route"):
            extract_common((0.1, 0.1, PM8), 1024, 2, cache_dir=str(cache_dir))

    def test_unserved_regions_refused(self, cache_dir):
        with pytest.raises(ValueError, match="E11"):
            extract_common((0.22, 0.1, PM8), 1024, 2, cache_dir=str(cache_dir))
        with pytest.raises(ValueError, match="BEYOND_UNIT"):
            extract_common((1.5, 0.5, PM8), 1024, 2, cache_dir=str(cache_dir))

    def test_bad_targets_rejected(self):
        with pytest.raises(TypeError, match="tuple"):
            extract_common("nonsense", 1024, 2)
        with pytest.raises(TypeError, match="GaussianPairModel"):
            extract_common((0.5, 0.5, "model"), 1024, 2)


class TestLopsidedRoute:
    def test_codes_the_tighter_coordinate(self, cache_dir):
        run = extract_common((0.9, 0.3, PM8), 1024, 2, n_blocks=12,
                             cache_dir=str(cache_dir))
        assert run.point_label == "LOPSIDED"
        assert run.region == "E3"
        assert run.theory.r0 == pytest.approx(0.5 * math.log2(1.0 / 0.3), abs=1e-12)
        assert run.theory.r0 < run.r0[0] < run.theory.r0 + 0.5
        assert 0.85 * 0.3 < run.dist_y.mean() < 1.25 * 0.3
        # the served coordinate rides for free, well under its slack target
        free_ride = 1.0 - PM8.rho ** 2 * (1.0 - 0.3)
        assert run.dist_x.mean() < 0.9
        assert run.dist_x.mean() == pytest.approx(free_ride, rel=0.12)

    def test_mirrored_targets_swap_roles(self, cache_dir):
        run = extract_common((0.3, 0.9, PM8), 1024, 2, n_blocks=12,
                             cache_dir=str(cache_dir))
        assert 0.85 * 0.3 < run.dist_x.mean() < 1.25 * 0.3
        assert run.dist_y.mean() < 0.9

    def test_unit_corner_refused(self, cache_dir):
        with pytest.raises(ValueError, match="no scalar quantizer"):
            extract_common((1.0, 1.0, PM8), 1024, 2, cache_dir=str(cache_dir))

    def test_unit_edge_still_codes_the_other_side(self, cache_dir):
        run = extract_common((1.0, 0.5, PM8), 1024, 2, n_blocks=8,
                             cache_dir=str(cache_dir))
        assert run.region == "E3"
        assert 0.8 * 0.5 < run.dist_y.mean() < 1.25 * 0.5


class TestRefineRoute:
    def test_full_record(self, cache_dir):
        run = pair_run(cache_dir)
        ref = refine_private_eps10(0.1, 0.15, PM8, run,
                                   cache_dir=str(cache_dir))
        assert ref.point_label == "REFINED"
        assert ref.region == "E10"
        assert ref.theory.r0 == pytest.approx(PM8.wyner_ci(), abs=1e-12)
        assert ref.theory.r1 == pytest.approx(0.5 * math.log2(BASE8 / 0.1), abs=1e-12)
        assert ref.theory.r2 == pytest.approx(0.5 * math.log2(BASE8 / 0.15), abs=1e-12)
        assert np.array_equal(ref.r0, run.r0)
        assert ref.theory.r1 < ref.r1[0] < ref.theory.r1 + 0.5
        assert ref.theory.r2 < ref.r2[0] < ref.theory.r2 + 0.5
        assert 0.7 * 0.1 < ref.dist_x.mean() < 1.8 * 0.1
        assert 0.7 * 0.15 < ref.dist_y.mean() < 1.8 * 0.15

    def test_total_theory_matches_joint_rate(self, cache_dir):
        # common plus both conditional rates reproduces the joint charge
        run = pair_run(cache_dir, blocks=4)
        ref = refine_private_eps10(0.1, 0.15, PM8, run,
                                   cache_dir=str(cache_dir))
        total = ref.theory.r0 + ref.theory.r1 + ref.theory.r2
        assert total == pytest.approx(r_xy_gaussian(0.1, 0.15, PM8), abs=1e-12)

    def test_boundary_coordinate_rides_free(self, cache_dir):
        run = pair_run(cache_dir)
        ref = refine_private_eps10(BASE8, 0.1, PM8, run,
                                   cache_dir=str(cache_dir))
        assert ref.theory.r1 == 0.0
        assert np.all(ref.r1 == 0.0)
        assert np.array_equal(ref.dist_x, run.dist_x)
        assert np.all(ref.r2 > 0.0)

    def test_target_region_validated(self, cache_dir):
        run = pair_run(cache_dir, blocks=4)
        with pytest.raises(ValueError, match="E2"):
            refine_private_eps10(0.5, 0.5, PM8, run, cache_dir=str(cache_dir))

    @pytest.mark.parametrize("d1, d2", [(0.0, 0.1), (0.1, 0.0)])
    def test_zero_distortion_refused(self, cache_dir, d1, d2):
        """A zero target has no refinement quantizer: refused by its
        distortion, not by the MMSE parameters it would lead to."""
        run = pair_run(cache_dir, blocks=4)
        with pytest.raises(ValueError, match="distortions must be positive"):
            refine_private_eps10(d1, d2, PM8, run, cache_dir=str(cache_dir))

    def test_needs_a_pair_route_run(self, cache_dir):
        run = pair_run(cache_dir, blocks=4)
        ref = refine_private_eps10(0.1, 0.1, PM8, run, cache_dir=str(cache_dir))
        with pytest.raises(ValueError, match="pair-route"):
            refine_private_eps10(0.1, 0.1, PM8, ref, cache_dir=str(cache_dir))

    @pytest.mark.parametrize("count", [True, 32.0, -3, 0])
    def test_bad_sample_count_rejected(self, cache_dir, count):
        run = extract_common(PM8, 256, 2, n_blocks=2, sample_count=16,
                             cache_dir=str(cache_dir))
        with pytest.raises(ValueError, match="sample_count must be"):
            refine_private_eps10(0.1, 0.1, PM8, run, sample_count=count,
                                 cache_dir=str(cache_dir))

    def test_run_of_another_model_refused(self, cache_dir):
        # the residuals would be taken against the wrong source blocks
        run = extract_common(GaussianPairModel(0.8), 256, 2, n_blocks=2,
                             sample_count=16, cache_dir=str(cache_dir))
        with pytest.raises(ValueError, match="rho=0.5"):
            refine_private_eps10(0.1, 0.1, GaussianPairModel(0.5), run,
                                 sample_count=16, cache_dir=str(cache_dir))

    def test_stream_bases_disjoint(self):
        assert REFINE_X_STREAM_BASE >= LATTICE_STREAM_BASE + 16
        assert REFINE_Y_STREAM_BASE >= REFINE_X_STREAM_BASE + 16

    def test_chain_deeper_than_its_streams_refused(self):
        # rho 1 - 1e-8 plans 17 levels: the common quantizer's 17th level
        # would draw from the refinement's first stream
        with pytest.raises(ValueError, match="17-level"):
            extract_common(GaussianPairModel(1 - 1e-8), 64, 1, n_blocks=1,
                           sample_count=4)
