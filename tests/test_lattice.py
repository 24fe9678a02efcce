"""Tests for the one-dimensional multilevel lattice quantizer.

Oracles used here are independent of the implementation:

* level log-likelihood ratios are recomputed from direct prior-times-
  likelihood sums over a wide lattice window, never through the folded
  posterior form the module uses internally;
* per-level prior entropies come from exact enumeration of the window pmf;
* the chain-rule cross-check reproduces the construction sample stream from
  the documented recipe and estimates the total rate over full label cosets.
"""

import base64
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from graywyner import lattice as lattice_module
from graywyner import rng
from graywyner.gaussian import GaussianPairModel, reduce_pair
from graywyner.lattice import (
    MAX_LEVELS,
    MultilevelLatticeCode,
    PartitionChainSpec,
    _construct_levels,
    _coset_llr,
    _level_evidence,
    build_multilevel_code,
    lattice_quantize,
    lattice_reconstruct,
    mmse_params,
    plan_chain,
)
from graywyner.numerics import flatness_factor
from graywyner.polar import CLASS_FROZEN_DETERMINISTIC, CLASS_INFO, load_profile
from graywyner.polar import sc as sc_module

# the three reductions of the Gaussian routes (pair, coupled, L-source)
PAIR = mmse_params(0.9, 0.8)        # symmetric pair average, correlation 0.8
EPS2 = mmse_params(0.9, 0.5)        # coupled-distortion reduction at 0.5
L3 = mmse_params(2.0 / 3.0, 0.5)    # three-source average, correlation 0.5

# per-level conditional-entropy / rate oracles (400k-sample reference run,
# spacing factor 1.3); MC tolerance for N*samples >= 6e4 draws is ~0.01
EPS2_LEVEL_MI = (0.0041, 0.3073, 0.2707, 0.0022)
PAIR_LEVEL_MI = (0.0044, 0.3657, 0.9090, 0.3020)
EPS2_PRIOR_H = (1.0000, 0.9447, 0.3065, 0.0023)


def cond_llr(chain, mmse, level, t, finer):
    """The conditional chain's coset LLR of one level, as _level_evidence
    evaluates it, at samples t with integer finer labels finer."""
    return _coset_llr(mmse.alpha * np.asarray(t, dtype=float),
                      math.sqrt(mmse.sigma_tilde2),
                      chain.base_scale * np.asarray(finer, dtype=float),
                      chain.level_step(level))


def brute_level_llr(chain, mmse, level, t, finer, k_range=500):
    """ln P(w=0 | t, finer label) / P(w=1 | ...) by direct summation.

    Uses raw prior x likelihood weights over the unfolded lattice, so it
    exercises the minimum-mean-square-error folding as well as the
    truncation policy of the implementation.
    """
    offset = chain.base_scale * finer
    step = chain.level_step(level)
    noise_var = mmse.sigma_s2 - mmse.sigma_r2
    k = np.arange(-k_range, k_range + 1)
    sides = []
    for w in (0, 1):
        m = offset + step * w + 2.0 * step * k
        logw = -(m * m) / (2.0 * chain.sigma_r ** 2) - (t - m) ** 2 / (2.0 * noise_var)
        sides.append(logsumexp(logw))
    return sides[0] - sides[1]


def window_pmf(chain):
    half = 1 << (chain.levels - 1)
    v = np.arange(1 << chain.levels)
    vals = chain.base_scale * np.where(v >= half, v - (1 << chain.levels), v).astype(float)
    logw = -(vals ** 2) / (2.0 * chain.sigma_r ** 2)
    p = np.exp(logw - logw.max())
    return vals, p / p.sum()


def reproduce_construction_stream(chain, mmse, block_len, sample_count, seed):
    """The documented construction sampling recipe, reimplemented."""
    vals, pmf = window_pmf(chain)
    gen = rng.stream(seed, rng.STREAM_CONSTRUCTION)
    u = gen.random((sample_count, block_len))
    v = (u[..., None] > np.cumsum(pmf)[:-1]).sum(axis=-1)
    noise = gen.standard_normal((sample_count, block_len))
    obs = vals[v] + noise * math.sqrt(mmse.sigma_s2 - mmse.sigma_r2)
    return v, vals[v], obs


def direct_rate_estimate(chain, mmse, points, obs):
    """Mean log2 posterior/prior ratio of the full label coset of each point."""
    period = chain.period
    j = np.arange(-30, 31)

    def log_coset_prob(centers, sigma):
        centers = np.broadcast_to(centers, points.shape).ravel()
        flat = points.ravel()
        alias = flat[:, None] + period * j[None, :]
        num = logsumexp(-((alias - centers[:, None]) ** 2) / (2.0 * sigma * sigma), axis=1)
        reach = int(math.ceil((9.5 * sigma + period * 2) / chain.base_scale))
        k0 = np.rint(centers / chain.base_scale).astype(np.int64)
        kk = k0[:, None] + np.arange(-reach, reach + 1)[None, :]
        grid = chain.base_scale * kk
        den = logsumexp(-((grid - centers[:, None]) ** 2) / (2.0 * sigma * sigma), axis=1)
        return num - den

    post = log_coset_prob(mmse.alpha * obs, math.sqrt(mmse.sigma_tilde2))
    prior = log_coset_prob(0.0, chain.sigma_r)
    return float((post - prior).mean()) / math.log(2.0)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

class TestMmseParams:
    def test_pair_frozen_values(self):
        assert PAIR.alpha == pytest.approx(8.0 / 9.0, abs=1e-15)
        assert PAIR.sigma_tilde2 == pytest.approx(4.0 / 45.0, abs=1e-15)
        assert PAIR.distortion == pytest.approx(0.1, abs=1e-15)

    def test_eps2_frozen_values(self):
        assert EPS2.alpha == pytest.approx(5.0 / 9.0, abs=1e-15)
        assert EPS2.sigma_tilde2 == pytest.approx(2.0 / 9.0, abs=1e-15)

    def test_l3_frozen_values(self):
        assert L3.alpha == pytest.approx(0.75, abs=1e-15)
        assert L3.sigma_tilde2 == pytest.approx(0.125, abs=1e-15)

    @given(st.floats(0.05, 4.0), st.floats(0.01, 0.99))
    def test_invariants(self, s2, frac):
        m = mmse_params(s2, frac * s2)
        assert 0.0 < m.alpha < 1.0
        assert 0.0 < m.sigma_tilde2 < m.distortion
        assert m.sigma_tilde2 == pytest.approx(m.alpha * m.distortion, rel=1e-12, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mmse_params(1.0, 0.0)
        with pytest.raises(ValueError):
            mmse_params(1.0, 1.0)
        with pytest.raises(ValueError):
            mmse_params(0.5, 0.9)


class TestPartitionChainSpec:
    def test_steps_and_period(self):
        chain = PartitionChainSpec(base_scale=0.5, levels=3, sigma_r=0.9)
        assert chain.level_step(1) == 0.5
        assert chain.level_step(2) == 1.0
        assert chain.level_step(3) == 2.0
        assert chain.period == 4.0

    def test_reconstruction_values_centered_window(self):
        chain = PartitionChainSpec(base_scale=0.5, levels=3, sigma_r=0.9)
        vals = chain.reconstruction_values()
        assert sorted(vals) == pytest.approx(np.arange(-4, 4) * 0.5)
        # label integer v maps to s * v with wraparound past the halfway point
        assert vals[0] == 0.0
        assert vals[3] == 1.5
        assert vals[4] == -2.0
        assert vals[7] == -0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionChainSpec(base_scale=0.0, levels=3, sigma_r=0.9)
        with pytest.raises(ValueError):
            PartitionChainSpec(base_scale=0.5, levels=0, sigma_r=0.9)
        with pytest.raises(ValueError):
            PartitionChainSpec(base_scale=0.5, levels=3, sigma_r=-1.0)
        for levels in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="integer"):
                PartitionChainSpec(base_scale=0.5, levels=levels, sigma_r=0.9)
        # one dither stream per level, MAX_LEVELS streams per quantizer
        with pytest.raises(ValueError, match="17-level"):
            PartitionChainSpec(base_scale=0.5, levels=MAX_LEVELS + 1, sigma_r=0.9)
        deepest = PartitionChainSpec(base_scale=0.5, levels=np.int64(MAX_LEVELS),
                                     sigma_r=0.9)
        assert deepest.period == 0.5 * 2.0 ** 16

    def test_default_chain(self):
        # the planned chain of the coupled reduction, pinned bit for bit
        chain = plan_chain(EPS2)
        assert (chain.base_scale, chain.levels) == (0.6128258770283412, 4)
        assert chain.sigma_r == math.sqrt(0.5)


def pair_mmse(rho):
    return reduce_pair(GaussianPairModel(rho)).mmse


class TestPlanChain:
    def test_level_counts_track_prior_width(self):
        # wider shaping priors need more levels to cover the 12 sigma window
        assert plan_chain(EPS2).levels == 4
        for mmse, base_scale in ((PAIR, 0.3875851160999635), (L3, 0.4596194077712559)):
            chain = plan_chain(mmse)
            assert (chain.base_scale, chain.levels) == (base_scale, 5)

    def test_default_spacing_kept_when_flatness_allows(self):
        chain = plan_chain(EPS2)
        sigma_tilde = math.sqrt(EPS2.sigma_tilde2)
        assert chain.base_scale == pytest.approx(1.3 * sigma_tilde, rel=1e-12, abs=0.0)
        assert flatness_factor(chain.base_scale, sigma_tilde) <= 1e-3
        assert chain.period >= 12.0 * chain.sigma_r
        assert chain.period / 2.0 < 12.0 * chain.sigma_r  # smallest such count

    @pytest.mark.parametrize("mmse", [
        pair_mmse(0.5), pair_mmse(0.8), pair_mmse(0.99), pair_mmse(0.999),
        # refine_private_eps10 targets: base 1 - rho, distortion d
        mmse_params(0.2, 0.1), mmse_params(0.2, 0.15), mmse_params(0.01, 0.009),
    ])
    def test_planned_chains_are_flat(self, mmse):
        chain = plan_chain(mmse)
        assert flatness_factor(chain.base_scale, math.sqrt(mmse.sigma_tilde2)) <= 1e-3

    def test_builds_under_same_gate(self):
        # the planned chain always passes build_multilevel_code's own check
        for mm in (EPS2, PAIR):
            code = build_multilevel_code(plan_chain(mm), mm, 64, sample_count=8,
                                         seed=1)
            assert code.flatness <= 1e-3


# ---------------------------------------------------------------------------
# level log-likelihood ratios
# ---------------------------------------------------------------------------

class TestLevelLlr:
    @pytest.mark.parametrize("mmse", [PAIR, EPS2, L3], ids=["pair", "eps2", "l3"])
    def test_matches_direct_prior_likelihood_sums(self, mmse):
        chain = plan_chain(mmse)
        gen = np.random.default_rng(7)
        for level in range(1, chain.levels + 1):
            t = gen.normal(0.0, math.sqrt(mmse.sigma_s2), size=6)
            finer = gen.integers(0, 1 << (level - 1), size=6)
            got = cond_llr(chain, mmse, level, t, finer)
            for i in range(6):
                want = brute_level_llr(chain, mmse, level, t[i], finer[i])
                assert got[i] == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_midway_observation_is_zero(self):
        chain = plan_chain(EPS2)
        t = 0.5 * chain.base_scale / EPS2.alpha
        assert abs(cond_llr(chain, EPS2, 1, t, 0)) < 1e-9

    def test_deep_level_is_decisive(self):
        chain = plan_chain(EPS2)
        out = cond_llr(chain, EPS2, 4, np.array([0.0]), np.array([0]))
        assert out[0] > 30.0

    def test_half_step_reflection_flips_sign(self):
        chain = plan_chain(PAIR)
        s = chain.base_scale
        for t in (0.11, 0.37, 0.52):
            a = cond_llr(chain, PAIR, 1, np.array([t]), 0)
            b = cond_llr(chain, PAIR, 1, np.array([s / PAIR.alpha - t]), 0)
            assert a[0] == pytest.approx(-b[0], rel=1e-9, abs=1e-12)

    def test_vectorized_matches_scalar_calls(self):
        chain = plan_chain(L3)
        t = np.array([-0.8, -0.1, 0.3, 1.7])
        finer = np.array([0, 1, 1, 0])
        batch = cond_llr(chain, L3, 2, t, finer)
        singles = [cond_llr(chain, L3, 2, np.array([ti]), finer[i : i + 1])[0]
                   for i, ti in enumerate(t)]
        assert batch == pytest.approx(singles, rel=1e-12, abs=0.0)

    def test_scale_invariance_power_of_two(self):
        chain = plan_chain(EPS2)
        big = PartitionChainSpec(base_scale=2.0 * chain.base_scale,
                                 levels=chain.levels, sigma_r=2.0 * chain.sigma_r)
        big_mmse = mmse_params(4.0 * EPS2.sigma_s2, 4.0 * EPS2.sigma_r2)
        t = np.array([-0.9, 0.2, 1.4])
        finer = np.array([1, 0, 3])
        a = cond_llr(chain, EPS2, 3, t, finer)
        b = cond_llr(big, big_mmse, 3, 2.0 * t, finer)
        assert np.array_equal(a, b)


def direct_coset_log_weights(centers, sigma, offsets, step, k_range=500):
    """(ln W0, ln W1) of the two cosets from a direct +-k_range-term sum
    each, around the origin rather than around each center."""
    k = np.arange(-k_range, k_range + 1)
    centers, offsets = np.broadcast_arrays(np.asarray(centers, dtype=float),
                                           np.asarray(offsets, dtype=float))
    return tuple(
        logsumexp(-((offsets[..., None] + step * w + 2.0 * step * k
                     - centers[..., None]) ** 2) / (2.0 * sigma * sigma), axis=-1)
        for w in (0, 1))


def direct_coset_posteriors(centers, sigma, offsets, step):
    lw0, lw1 = direct_coset_log_weights(centers, sigma, offsets, step)
    return llr_posteriors(lw0 - lw1)


def llr_posteriors(llr):
    """Posterior pairs (1 / (1 + e^-L), 1 / (1 + e^L)), L clipped at
    +-700."""
    p0 = 1.0 / (1.0 + np.exp(-np.clip(llr, -700.0, 700.0)))
    return np.stack([p0, 1.0 - p0], axis=-1)


class TestCosetEvidence:
    """The one-pass coset sums against a direct sum, in the regimes that
    stress their anchoring: rint ties, odd negative anchors, a far-off
    second coset (step >> sigma) and a wide window (sigma >> step).  The
    LLRs are compared directly and as the posterior pairs they give."""

    def assert_matches_direct(self, centers, sigma, offsets, step):
        got = _coset_llr(centers, sigma, offsets, step)
        lw0, lw1 = direct_coset_log_weights(centers, sigma, offsets, step)
        assert got.shape == lw0.shape
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, lw0 - lw1, rtol=1e-12, atol=1e-12)
        want = direct_coset_posteriors(centers, sigma, offsets, step)
        assert np.max(np.abs(llr_posteriors(got) - want)) < 1e-12

    def test_prior_table_equals_elementwise_evaluation(self):
        mmse = mmse_params(1.0, 0.8)
        chain = plan_chain(mmse)
        gen = np.random.default_rng(3)
        for level in range(1, chain.levels + 1):
            finer = gen.integers(0, 1 << (level - 1), size=(9, 64))
            _, prior = _level_evidence(chain, mmse, level, finer)
            want = _coset_llr(np.zeros((7, 64)), chain.sigma_r,
                              chain.base_scale * finer[2:9].astype(float),
                              chain.level_step(level))
            assert np.array_equal(prior(2, 9),
                                  np.stack([want, np.zeros_like(want)], axis=-1))

    def test_centers_on_coset_midpoints(self):
        step = 0.5
        k = np.arange(-6, 6)
        centers = step * (k + 0.5)  # exact rint ties
        offsets = np.where(k % 3 == 0, 0.0, step)  # keeps the ties
        self.assert_matches_direct(centers, 0.3, offsets, step)
        # equidistant cosets tie exactly, so a tie-breaking rule sees L = 0
        for sigma in (0.3, 2.0, 3.3):
            assert np.all(_coset_llr(centers, sigma, 0.0, step) == 0.0)

    def test_negative_centers_with_odd_anchor(self):
        step = 0.75
        centers = -np.array([1.0, 3.0, 5.0, 7.0]) * step + np.array([0.1, -0.2, 0.3, 0.0])
        assert np.all(np.rint(centers / step).astype(np.int64) % 2 == 1)
        self.assert_matches_direct(centers, 0.4, 0.0, step)
        got = _coset_llr(centers, 0.4, 0.0, step)
        assert np.all(got < 0.0)  # the odd coset holds the anchor

    def test_step_far_above_sigma(self):
        # the other coset's weight is about e^-1000 relative to the anchor's
        step = 1.0
        sigma = step / math.sqrt(2000.0)
        centers = np.array([0.0, 1.0, -3.0, 0.02, 0.49, 0.5])
        self.assert_matches_direct(centers, sigma, 0.0, step)
        chain = PartitionChainSpec(base_scale=step, levels=1, sigma_r=1.0)
        mmse = mmse_params(1.0 + sigma * sigma, 1.0)
        obs = centers / mmse.alpha
        llr = cond_llr(chain, mmse, 1, obs, 0)
        lw0, lw1 = direct_coset_log_weights(mmse.alpha * obs,
                                            math.sqrt(mmse.sigma_tilde2), 0.0, step)
        assert np.all(np.isfinite(llr))
        assert np.all(np.abs(llr[:3]) > 900.0)  # centers on lattice points
        assert llr == pytest.approx(lw0 - lw1, rel=1e-12, abs=0.0)

    def test_sigma_far_above_step(self):
        # prior-chain shape at the finest level: centers 0, a ~12-term walk
        step = 0.5
        sigma = 1.2
        offsets = step * np.arange(4) / 4.0
        self.assert_matches_direct(np.zeros(4), sigma, offsets, step)
        self.assert_matches_direct(np.linspace(-3.0, 3.0, 25), sigma, 0.1, step)

    @pytest.mark.parametrize("rho,levels", [(0.8, 5), (0.999, 9)])
    def test_engine_reads_coset_llrs_bitwise(self, rho, levels):
        """Each level's cond and prior evidence, as the SC engine reads
        it (sc._llrs), is _coset_llr bit for bit.  At rho 0.999 the
        conditional LLRs of the coarse levels pass |L| = 745, where a
        posterior pair rounds to (1, 0); they stay finite."""
        model = GaussianPairModel(rho)
        mmse = reduce_pair(model).mmse
        chain = plan_chain(mmse)
        assert chain.levels == levels
        x, y = model.sample(4, 256, rng.stream(5, rng.STREAM_NOISE))
        u = 0.5 * (x + y)
        gen = np.random.default_rng(levels)
        largest = 0.0
        for level in range(1, levels + 1):
            finer = gen.integers(0, 1 << (level - 1), size=u.shape)
            cond, prior = _level_evidence(chain, mmse, level, finer, u)
            step = chain.level_step(level)
            for evidence, want in [
                    (cond(1, 4), _coset_llr(mmse.alpha * u[1:4],
                                            math.sqrt(mmse.sigma_tilde2),
                                            chain.base_scale * finer[1:4], step)),
                    (prior(1, 4), _coset_llr(np.zeros((3, 256)), chain.sigma_r,
                                             chain.base_scale * finer[1:4], step))]:
                got, has_inf = sc_module._llrs(evidence[None], np.float64)
                np.testing.assert_array_equal(got[0].view(np.int64),
                                              want.view(np.int64))
                assert not has_inf
                largest = max(largest, float(np.abs(got).max()))
        assert (largest > 745.0) == (rho == 0.999)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def eps2_code(cache_dir):
    return build_multilevel_code(plan_chain(EPS2), EPS2, 4096,
                                 sample_count=256, seed=3, cache_dir=cache_dir)


class TestBuildMultilevelCode:
    def test_structure(self, eps2_code):
        code = eps2_code
        assert code.levels == 4
        assert len(code.profiles) == 4
        ids = {p.channel_id for p in code.profiles}
        assert len(ids) == 4
        for p in code.profiles:
            assert p.block_len == 4096

    def test_level_mi_estimates_match_reference(self, eps2_code):
        for got, want in zip(eps2_code.level_mi_estimates, EPS2_LEVEL_MI):
            assert got == pytest.approx(want, abs=0.012)

    def test_prior_entropies_match_window_enumeration(self, eps2_code):
        # exact conditional entropies of the window pmf, level by level
        chain = eps2_code.chain
        _, pmf = window_pmf(chain)
        v = np.arange(pmf.size)
        prefix = [0.0]
        for level in range(1, chain.levels + 1):
            groups = np.zeros(1 << level)
            np.add.at(groups, v % (1 << level), pmf)
            nz = groups[groups > 0]
            prefix.append(float(-(nz * np.log2(nz)).sum()))
        for level, profile in enumerate(eps2_code.profiles, start=1):
            want = prefix[level] - prefix[level - 1]
            assert profile.prior_entropy_estimate() == pytest.approx(want, abs=0.015)

    def test_chain_rule_against_direct_estimate(self, cache_dir):
        code = build_multilevel_code(plan_chain(EPS2), EPS2, 1024,
                                     sample_count=64, seed=5, cache_dir=cache_dir)
        _, points, obs = reproduce_construction_stream(
            code.chain, code.mmse, 1024, 64, 5)
        direct = direct_rate_estimate(code.chain, code.mmse, points, obs)
        total = sum(code.level_mi_estimates)
        assert total == pytest.approx(direct, rel=0.02)
        # and the closed-form target is nearby
        target = 0.5 * math.log2(code.mmse.sigma_s2 / code.mmse.distortion)
        assert total == pytest.approx(target, abs=0.05)

    def test_total_rate_exceeds_level_mi_by_finite_length_band(self, eps2_code):
        # the payload covers the rate estimates plus the indices the
        # polarization left between the two freezing thresholds; at this
        # block length that band is worth roughly a third of a bit
        code = eps2_code
        excess = code.total_rate - sum(code.level_mi_estimates)
        assert 0.0 <= excess <= 0.40
        for rate, profile in zip(code.level_rates, code.profiles):
            assert rate == len(profile.info_positions()) / profile.block_len

    def test_flatness_recorded(self, eps2_code):
        chain = eps2_code.chain
        fresh = flatness_factor(chain.base_scale, math.sqrt(EPS2.sigma_tilde2))
        assert abs(eps2_code.flatness - fresh) < 1e-12

    def test_flatness_gate_refuses_coarse_scale(self):
        chain = PartitionChainSpec(base_scale=3.5 * math.sqrt(EPS2.sigma_tilde2),
                                   levels=4, sigma_r=math.sqrt(EPS2.sigma_r2))
        with pytest.raises(ValueError, match="flatness"):
            build_multilevel_code(chain, EPS2, 256, sample_count=8, seed=0)
        # a chain 2,500 sigma~ coarse (flatness factor about 996)
        m = mmse_params(1.0, 1.0 - 1e-8)
        chain = PartitionChainSpec(base_scale=0.25, levels=2, sigma_r=math.sqrt(m.sigma_r2))
        with pytest.raises(ValueError, match="flatness"):
            build_multilevel_code(chain, m, 256, sample_count=16, seed=4)

    def test_single_level_saturated_noise_has_no_rate(self):
        # sigma_tilde much larger than the spacing: the one level is dither only
        m = mmse_params(25.0, 20.0)
        chain = PartitionChainSpec(base_scale=0.4, levels=1, sigma_r=math.sqrt(20.0))
        code = build_multilevel_code(chain, m, 512, sample_count=32, seed=1)
        assert code.total_rate < 0.02

    def test_sample_count_stability(self, cache_dir):
        a = build_multilevel_code(plan_chain(EPS2), EPS2, 1024,
                                  sample_count=128, seed=9, cache_dir=cache_dir)
        b = build_multilevel_code(plan_chain(EPS2), EPS2, 1024,
                                  sample_count=256, seed=9, cache_dir=cache_dir)
        for ra, rb in zip(a.level_rates, b.level_rates):
            assert abs(ra - rb) < 0.01
        assert abs(a.total_rate - b.total_rate) < 0.02

    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        kwargs = dict(block_len=256, sample_count=16, seed=2, cache_dir=tmp_path)
        first = build_multilevel_code(plan_chain(L3), L3, **kwargs)
        again = build_multilevel_code(plan_chain(L3), L3, **kwargs)
        assert first.flatness == again.flatness
        for p, q in zip(first.profiles, again.profiles):
            assert np.array_equal(p.classes, q.classes)
            assert np.array_equal(p.h_cond, q.h_cond)
            assert np.array_equal(p.h_prior, q.h_prior)

    def test_corrupt_cache_entries_are_rebuilt(self, tmp_path):
        kwargs = dict(block_len=64, sample_count=8, seed=2, cache_dir=tmp_path)
        first = build_multilevel_code(plan_chain(L3), L3, **kwargs)
        level_files = sorted(tmp_path.glob("profile_*.json"))
        assert len(level_files) == first.levels
        for broken in level_files:
            broken.write_text("{truncated")
            again = build_multilevel_code(plan_chain(L3), L3, **kwargs)
            for p, q in zip(first.profiles, again.profiles):
                assert np.array_equal(p.h_cond, q.h_cond)
            json.loads(broken.read_text())  # overwritten with a valid entry
        # mark every level entry; marked entries are still served as hits
        for path in level_files:
            data = json.loads(path.read_text())
            h = load_profile(path).h_cond
            h[0] = 0.5 + 0.25 * h[0]
            data["h_cond"] = base64.b64encode(h.astype("<f8").tobytes()).decode()
            path.write_text(json.dumps(data))
        marked = build_multilevel_code(plan_chain(L3), L3, **kwargs)
        for p, q in zip(first.profiles, marked.profiles):
            assert p.h_cond[0] != q.h_cond[0]
        # one deleted level is a miss: every level is rebuilt and stored afresh
        level_files[1].unlink()
        again = build_multilevel_code(plan_chain(L3), L3, **kwargs)
        for p, q, path in zip(first.profiles, again.profiles, level_files):
            assert np.array_equal(p.h_cond, q.h_cond)
            np.testing.assert_array_equal(load_profile(path).h_cond, p.h_cond)

    @pytest.mark.parametrize("beta", [math.nan, 0.0, 1.0])
    def test_beta_outside_open_unit_interval_rejected(self, beta):
        with pytest.raises(TypeError, match="beta was removed"):
            build_multilevel_code(plan_chain(L3), L3, 64, beta=beta,
                                  sample_count=8, seed=2)

    def test_chain_mmse_mismatch_rejected(self):
        chain = PartitionChainSpec(base_scale=0.6, levels=4, sigma_r=1.0)
        with pytest.raises(ValueError, match="sigma_r"):
            build_multilevel_code(chain, EPS2, 256, sample_count=8, seed=0)

    def test_saturation_metrics(self, eps2_code):
        # finest level resolves below the posterior width: nearly no capacity;
        # coarsest level is pinned by the shaping prior at almost every index
        assert eps2_code.level_mi_estimates[0] < 0.01
        bottom = eps2_code.profiles[-1]
        fd = np.sum(bottom.classes == CLASS_FROZEN_DETERMINISTIC)
        assert fd / bottom.block_len > 0.97


class _TopUniforms:
    """A construction generator whose every uniform is the largest double
    below 1 and every normal 0."""

    TOP = 1.0 - 2.0 ** -53

    def random(self, shape):
        return np.full(shape, self.TOP)

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestConstructionLabels:
    @pytest.mark.parametrize("rho", [0.1, 0.999])
    def test_uniform_past_the_cdf_takes_the_last_label(self, rho, monkeypatch):
        """The window CDFs of these chains end below 1 - 2^-53, so a
        binary search would label the top uniform 2^levels, one past the
        window, and the build would fail indexing the window's points."""
        mmse = pair_mmse(rho)
        chain = plan_chain(mmse)
        assert np.cumsum(chain.window_pmf())[-1] < _TopUniforms.TOP
        monkeypatch.setattr(rng, "stream", lambda seed, stream_id: _TopUniforms())
        labels, obs = lattice_module._construction_stream(chain, mmse, 16, 40, 0)
        np.testing.assert_array_equal(labels, (1 << chain.levels) - 1)
        np.testing.assert_array_equal(obs, chain.reconstruction_values()[-1])
        code = build_multilevel_code(chain, mmse, 16, sample_count=40, seed=0)
        assert len(code.profiles) == chain.levels

    @pytest.mark.parametrize("levels", [1, 4, 6, 7, 9])
    def test_labels_are_the_binary_search_below_the_top(self, levels):
        """The labels are searchsorted's for every uniform up to the CDF's
        last entry, ties with an entry included, in the dtype that holds
        2^levels."""
        chain = PartitionChainSpec(base_scale=12.0 / (1 << levels),
                                   levels=levels, sigma_r=1.0)
        cdf = np.cumsum(chain.window_pmf())
        uniforms = np.random.default_rng(levels).random((70, 64))
        uniforms[0, :len(cdf) - 1] = cdf[:-1][:64]
        labels = lattice_module._window_labels(cdf, _Rows(uniforms), 70, 64)
        assert labels.dtype == np.min_scalar_type(1 << levels)
        np.testing.assert_array_equal(labels, np.searchsorted(cdf, uniforms))


class _Rows:
    """A generator whose uniforms are a given array."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, shape):
        assert self.uniforms.shape == shape
        return self.uniforms


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def sample_sources(mmse, n_blocks, block_len, seed=21):
    gen = rng.stream(seed, rng.STREAM_SOURCE)
    return gen.normal(0.0, math.sqrt(mmse.sigma_s2), size=(n_blocks, block_len))


class TestLatticeQuantize:
    def test_payload_lengths_match_info_counts(self, eps2_code):
        samples = sample_sources(EPS2, 3, 4096)
        codes, recon = lattice_quantize(samples, eps2_code, shared_seed=17)
        assert len(codes) == eps2_code.levels
        for level_code, profile in zip(codes, eps2_code.profiles):
            assert level_code.sent.shape == (3, len(profile.info_positions()))
            assert len(level_code.corrections) == len(level_code) == 3
        assert recon.shape == samples.shape

    def test_reconstruction_replay_is_exact(self, eps2_code):
        samples = sample_sources(EPS2, 2, 4096)
        codes, recon = lattice_quantize(samples, eps2_code, shared_seed=17)
        replay = lattice_reconstruct(codes, eps2_code, shared_seed=17)
        assert np.array_equal(recon, replay)

    def test_reconstructions_live_on_the_window(self, eps2_code):
        samples = sample_sources(EPS2, 2, 4096)
        *_, recon = lattice_quantize(samples, eps2_code, shared_seed=17)
        vals = np.sort(eps2_code.chain.reconstruction_values())
        assert np.isin(recon, vals).all()

    def test_mean_squared_error_near_target(self, eps2_code):
        samples = sample_sources(EPS2, 6, 4096)
        *_, recon = lattice_quantize(samples, eps2_code, shared_seed=17)
        mse = float(np.mean((samples - recon) ** 2))
        assert 0.32 < mse < 0.50  # target distortion 0.4 plus finite-length loss

    def test_block_offset_addressing(self, eps2_code):
        samples = sample_sources(EPS2, 4, 4096)
        codes, recon = lattice_quantize(samples, eps2_code, shared_seed=23)
        c_head, r_head = lattice_quantize(samples[:2], eps2_code, shared_seed=23)
        c_tail, r_tail = lattice_quantize(samples[2:], eps2_code,
                                          shared_seed=23, block_offset=2)
        assert np.array_equal(recon[:2], r_head)
        assert np.array_equal(recon[2:], r_tail)
        for full, head, tail in zip(codes, c_head, c_tail, strict=True):
            assert np.array_equal(full.sent, np.vstack([head.sent, tail.sent]))
            for got, want in zip(full.corrections, head.corrections + tail.corrections,
                                 strict=True):
                assert np.array_equal(got, want)

    def test_shared_seed_changes_dither(self, eps2_code):
        samples = sample_sources(EPS2, 1, 4096)
        _, a = lattice_quantize(samples, eps2_code, shared_seed=1)
        _, b = lattice_quantize(samples, eps2_code, shared_seed=2)
        assert not np.array_equal(a, b)

    def test_scale_consistency_power_of_two(self, cache_dir):
        small = build_multilevel_code(plan_chain(EPS2), EPS2, 1024,
                                      sample_count=64, seed=5, cache_dir=cache_dir)
        chain2 = PartitionChainSpec(base_scale=2.0 * small.chain.base_scale,
                                    levels=4, sigma_r=2.0 * small.chain.sigma_r)
        mmse2 = mmse_params(4.0 * EPS2.sigma_s2, 4.0 * EPS2.sigma_r2)
        big = build_multilevel_code(chain2, mmse2, 1024, sample_count=64, seed=5)
        samples = sample_sources(EPS2, 2, 1024)
        codes_a, rec_a = lattice_quantize(samples, small, shared_seed=31)
        codes_b, rec_b = lattice_quantize(2.0 * samples, big, shared_seed=31)
        for a, b in zip(codes_a, codes_b):
            assert np.array_equal(a.sent, b.sent)
            assert all(np.array_equal(x, y)
                       for x, y in zip(a.corrections, b.corrections, strict=True))
        assert np.array_equal(2.0 * rec_a, rec_b)
        mse_a = float(np.mean((samples - rec_a) ** 2))
        mse_b = float(np.mean((2.0 * samples - rec_b) ** 2))
        assert mse_b == pytest.approx(4.0 * mse_a, rel=1e-12, abs=0.0)

    def test_zero_variance_source_at_lattice_point(self):
        # essentially noiseless test channel: the quantizer must return the
        # exact lattice point with zero distortion and no dither wobble; the
        # chain is far coarser than the flatness gate allows, so its levels
        # are built below build_multilevel_code
        m = mmse_params(1.0, 1.0 - 1e-8)
        chain = PartitionChainSpec(base_scale=0.25, levels=2, sigma_r=math.sqrt(m.sigma_r2))
        code = MultilevelLatticeCode(
            chain=chain, mmse=m, block_len=256, sample_count=16,
            seed=4, flatness=flatness_factor(0.25, math.sqrt(m.sigma_tilde2)),
            profiles=_construct_levels(chain, m, 256, 16, 4))
        assert all(np.all(p.classes == CLASS_INFO) for p in code.profiles)
        samples = np.zeros((2, 256))
        _, recon = lattice_quantize(samples, code, shared_seed=8)
        assert np.array_equal(recon, samples)

    def test_wrong_width_level_payload_rejected(self, eps2_code):
        samples = rng.stream(31, rng.STREAM_SOURCE).standard_normal((2, 4096))
        codes, _ = lattice_quantize(samples, eps2_code, shared_seed=5)
        level = max(range(eps2_code.levels), key=lambda l: codes[l].sent.shape[1])
        bad = list(codes)
        bad[level] = replace(bad[level], sent=bad[level].sent[:, :-1])
        with pytest.raises(ValueError, match="must have shape"):
            lattice_reconstruct(bad, eps2_code, shared_seed=5)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_non_bit_payload_rejected(self, eps2_code, bad):
        samples = rng.stream(32, rng.STREAM_SOURCE).standard_normal((2, 4096))
        codes, _ = lattice_quantize(samples, eps2_code, shared_seed=5)
        level = max(range(eps2_code.levels), key=lambda l: codes[l].sent.shape[1])
        bad_sent = codes[level].sent.astype(np.int64)
        bad_sent[1, 0] = bad
        bad_codes = list(codes)
        bad_codes[level] = replace(codes[level], sent=bad_sent)
        with pytest.raises(ValueError, match=r"bits in \{0, 1\}"):
            lattice_reconstruct(bad_codes, eps2_code, shared_seed=5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, eps2_code, bad):
        samples = np.zeros((2, 4096))
        samples[1, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            lattice_quantize(samples, eps2_code, shared_seed=0)

    def test_block_length_validated(self, eps2_code):
        with pytest.raises(ValueError, match="length"):
            lattice_quantize(np.zeros((1, 512)), eps2_code, shared_seed=0)

    def test_one_dimensional_samples_rejected(self, eps2_code):
        with pytest.raises(ValueError, match=r"\(B, N\)"):
            lattice_quantize(np.zeros(4096), eps2_code, shared_seed=0)

    def test_empty_batch_gives_empty_arrays(self, eps2_code):
        codes, recon = lattice_quantize(np.zeros((0, 4096)), eps2_code, shared_seed=0)
        for level_code, profile in zip(codes, eps2_code.profiles, strict=True):
            assert level_code.sent.shape == (0, len(profile.info_positions()))
            assert level_code.sent.dtype == np.uint8
            assert level_code.corrections == ()
        assert recon.shape == (0, 4096)
        replay = lattice_reconstruct(codes, eps2_code, shared_seed=0)
        assert replay.shape == (0, 4096)
