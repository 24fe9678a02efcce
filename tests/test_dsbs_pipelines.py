"""End-to-end checks of the Gray-Wyner pipelines at desk-scale block lengths.

Block lengths here are small (2^10 .. 2^12) so rates sit well above their
asymptotic targets; the assertions check structure, exactness, determinism,
and loose quantitative windows.  The acceptance suite drives the same
pipelines at 2^16 against the tight tolerances.
"""

import numpy as np
import pytest

from graywyner.dsbs import (
    CurveGB,
    DsbsModel,
    LineAG,
    LossyCoupled,
    LossyLopsided,
    LossyTinyBoth,
    PointA,
    PointG,
    gb_theory_triple,
    run_dsbs_pipeline,
)
from graywyner.numerics import binary_convolve, binary_entropy
from graywyner.rates import RunRecord

A0 = 0.11


@pytest.fixture(scope="module")
def model():
    return DsbsModel(A0)


def run(point, model, cache_dir, n=1024, seed=5, blocks=4, **kw):
    return run_dsbs_pipeline(point, model, n, seed, n_blocks=blocks,
                             cache_dir=str(cache_dir), **kw)


class TestLosslessPoints:
    def test_point_a_exact_and_near_joint_entropy(self, model, cache_dir):
        out = run(PointA(), model, cache_dir, n=4096)
        assert out.dist_x.max() == 0.0 and out.dist_y.max() == 0.0
        np.testing.assert_array_equal(out.r0, 1.0)
        np.testing.assert_array_equal(out.r1, 0.0)
        h_a0 = binary_entropy(A0)
        assert out.theory.r2 == pytest.approx(h_a0, abs=1e-12)
        # stored fraction + corrections, still clearly below one bit
        assert h_a0 < out.r2.mean() < h_a0 + 0.12
        assert out.theory.satisfies_lossless_bounds(1.0, 1.0, 1.0 + h_a0)

    def test_point_g_structure(self, model, cache_dir):
        out = run(PointG(), model, cache_dir, n=2048)
        assert isinstance(out, RunRecord) and out.common is None
        assert out.dist_x.max() == 0.0 and out.dist_y.max() == 0.0
        assert len(set(out.r0)) == 1, "common payload fraction is per-profile"
        ci = model.wyner_ci()
        h_a1 = binary_entropy(model.a1)
        assert ci < out.r0[0] < ci + 0.20
        assert h_a1 < out.r1.mean() < h_a1 + 0.25
        assert out.theory.r0 == pytest.approx(ci, abs=1e-12)
        # finite-N overhead keeps the measured triple above the theory triple
        assert out.mean_triple().total > out.theory.total

    def test_line_ag_interpolates(self, model, cache_dir):
        d1 = 0.03
        out = run(LineAG(d1), model, cache_dir, n=2048)
        assert out.dist_x.max() == 0.0 and out.dist_y.max() == 0.0
        cross_y = binary_convolve((model.a1 - d1) / (1 - 2 * d1), model.a1)
        assert out.theory.r1 == pytest.approx(binary_entropy(d1), abs=1e-12)
        assert out.theory.r2 == pytest.approx(binary_entropy(cross_y), abs=1e-12)
        # the line sits on the minimum-total plane
        assert out.theory.total == pytest.approx(model.joint_entropy(), abs=1e-12)

    def test_curve_gb_structure(self, model, cache_dir):
        beta = 0.2
        out = run(CurveGB(beta), model, cache_dir, n=2048)
        assert out.dist_x.max() == 0.0 and out.dist_y.max() == 0.0
        assert out.theory == gb_theory_triple(model, beta)
        assert out.theory.total > model.joint_entropy()


class TestLossyPoints:
    def test_tiny_both_refinement(self, model, cache_dir):
        delta = 0.04
        out = run(LossyTinyBoth(delta), model, cache_dir, n=4096)
        assert out.region == "E10"
        assert out.theory_ci == pytest.approx(model.wyner_ci(), abs=1e-12)
        rate = binary_entropy(model.a1) - binary_entropy(delta)
        assert out.theory.r1 == pytest.approx(rate, abs=1e-12)
        assert 0.0 < out.dist_x.mean() < 0.12
        assert 0.0 < out.dist_y.mean() < 0.12
        assert (out.r1 > 0).all() and (out.r2 > 0).all()

    def test_coupled_single_stage(self, model, cache_dir):
        out = run(LossyCoupled(0.3, 0.3), model, cache_dir, n=4096)
        assert out.region == "E2"
        np.testing.assert_array_equal(out.r1, 0.0)
        np.testing.assert_array_equal(out.r2, 0.0)
        assert 0.2 < out.dist_x.mean() < 0.4
        assert 0.2 < out.dist_y.mean() < 0.4
        assert out.theory.r0 == pytest.approx(0.13444273799613092, abs=1e-12)
        assert out.theory_ci == out.theory.r0

    def test_lopsided_ignores_loose_coordinate(self, model, cache_dir):
        d1, d2 = 0.12, 0.40
        out = run(LossyLopsided(d1, d2), model, cache_dir, n=4096)
        assert out.region == "E3"
        np.testing.assert_array_equal(out.r1, 0.0)
        assert 0.04 < out.dist_x.mean() < 0.20
        # loose coordinate is served by the tight reconstruction
        assert out.dist_y.mean() < binary_convolve(A0, 0.20)
        assert out.theory.r0 == pytest.approx(1 - binary_entropy(d1), abs=1e-12)

    def test_lopsided_swaps_coordinates(self, model, cache_dir):
        out = run(LossyLopsided(0.40, 0.12), model, cache_dir, n=4096)
        assert 0.04 < out.dist_y.mean() < 0.20
        assert out.dist_x.mean() < binary_convolve(A0, 0.20)

    def test_lopsided_rate_within_former_payload_cap(self, model, cache_dir):
        # the pipelines used to cap this quantizer's payload at I(W; Y) plus
        # a margin of 0.06 (2^16 / N)^(1/4) bits, which bound here; the
        # frozen-random rule alone keeps r0 at or below that cap, and the
        # uniform-prior quantizer sends no corrections, so r0 is its payload
        point, n = LossyLopsided(0.40, 0.12), 4096
        former_cap = 1 - binary_entropy(0.12) + 0.06 * (2 ** 16 / n) ** 0.25
        out = run(point, model, cache_dir, n=n)
        assert (out.r0 <= np.floor(former_cap * n) / n).all()
        assert (out.r0 > 1 - binary_entropy(0.12)).all()

    def test_region_mismatch_raises(self, model, cache_dir):
        with pytest.raises(ValueError, match="coupled"):
            run(LossyCoupled(0.05, 0.05), model, cache_dir)
        with pytest.raises(ValueError, match="a1"):
            run(LossyTinyBoth(0.3), model, cache_dir)
        with pytest.raises(ValueError, match="lopsided"):
            run(LossyLopsided(0.3, 0.3), model, cache_dir)


class TestRunContract:
    def test_deterministic_given_seed(self, model, cache_dir):
        first = run(LossyCoupled(0.3, 0.3), model, cache_dir, n=1024, blocks=3)
        second = run(LossyCoupled(0.3, 0.3), model, cache_dir, n=1024, blocks=3)
        np.testing.assert_array_equal(first.dist_x, second.dist_x)
        np.testing.assert_array_equal(first.dist_y, second.dist_y)
        np.testing.assert_array_equal(first.r0, second.r0)

    def test_seed_changes_source(self, model, cache_dir):
        first = run(LossyCoupled(0.3, 0.3), model, cache_dir, n=1024, seed=1)
        second = run(LossyCoupled(0.3, 0.3), model, cache_dir, n=1024, seed=2)
        assert not np.array_equal(first.dist_x, second.dist_x)

    def test_block_count_and_totals(self, model, cache_dir):
        out = run(PointA(), model, cache_dir, n=1024, blocks=6)
        assert out.n_blocks == 6
        np.testing.assert_allclose(out.total, out.r0 + out.r1 + out.r2)

    def test_unknown_point_rejected(self, model, cache_dir):
        with pytest.raises(TypeError):
            run_dsbs_pipeline(object(), model, 1024, 0)

    @pytest.mark.parametrize("blocks", [0, -1])
    def test_empty_batch_rejected(self, model, cache_dir, blocks):
        with pytest.raises(ValueError, match="n_blocks"):
            run(PointG(), model, cache_dir, blocks=blocks)

    @pytest.mark.parametrize("blocks", [1.5, 2.0, True])
    def test_non_integer_batch_rejected(self, model, cache_dir, blocks):
        """A float or bool count is refused up front, not passed to NumPy."""
        with pytest.raises(ValueError, match="n_blocks must be an integer"):
            run(PointG(), model, cache_dir, blocks=blocks)

    @pytest.mark.parametrize("count", [True, 32.0, -3, 0])
    def test_bad_sample_count_rejected(self, model, cache_dir, count):
        """A bool, float or nonpositive construction sample count is
        refused up front, not by NumPy inside the construction."""
        with pytest.raises(ValueError, match="sample_count must be"):
            run(PointG(), model, cache_dir, sample_count=count)

    @pytest.mark.parametrize("n", [0, 12, 64.0])
    def test_block_length_must_be_a_power_of_two(self, model, cache_dir, n):
        """N = 0 used to divide by zero in the payload margin."""
        with pytest.raises(ValueError, match="block"):
            run(PointG(), model, cache_dir, n=n)


def _assert_runs_clean(out, lossless):
    assert out.n_blocks == 4
    for rate in (out.r0, out.r1, out.r2):
        assert np.all(rate >= 0.0)
    if lossless:
        assert out.dist_x.max() == 0.0 and out.dist_y.max() == 0.0


@pytest.mark.parametrize("a0", [0.001, 0.01, 0.0, 0.5])
@pytest.mark.parametrize("label", ["G", "A", "E10"])
def test_near_deterministic_source_runs_clean(a0, label):
    """a0 -> 0: near-certain evidence, where the prior pins whole subtrees;
    a0 = 0 makes it certain (L = +-inf), and a0 = 1/2 makes X and Y
    independent fair coins (exact ties, L = 0).  Replay and lossless
    exactness are checked inside the pipeline."""
    model = DsbsModel(a0)
    point = {"G": PointG(), "A": PointA(),
             "E10": LossyTinyBoth(model.a1 / 2)}[label]
    out = run_dsbs_pipeline(point, model, 256, 1, n_blocks=4, sample_count=32)
    _assert_runs_clean(out, lossless=label != "E10")


@pytest.mark.parametrize("point", [
    LossyTinyBoth(0.0), LossyTinyBoth(DsbsModel(A0).a1), LineAG(0.0),
    LineAG(DsbsModel(A0).a1), CurveGB(DsbsModel(A0).a1), CurveGB(0.5)],
    ids=["E10-0", "E10-a1", "AG-0", "AG-a1", "GB-a1", "GB-half"])
def test_region_boundary_runs_clean(model, point):
    """Operating points on the edges of their regions, where some channel
    is certain or uniform, send infinite and exactly zero LLRs through the
    leaf statistics and decisions; a non-finite statistic would raise."""
    out = run_dsbs_pipeline(point, model, 256, 1, n_blocks=4, sample_count=32)
    _assert_runs_clean(out, lossless=not isinstance(point, LossyTinyBoth))
