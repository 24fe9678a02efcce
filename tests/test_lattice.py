"""Tests for the one-dimensional multilevel lattice quantizer.

Oracles used here are independent of the implementation:

* level log-likelihood ratios are recomputed from direct prior-times-
  likelihood sums over a wide lattice window, never through the folded
  posterior form the module uses internally;
* per-level prior entropies come from exact enumeration of the window pmf;
* the chain-rule cross-check reproduces the construction sample stream from
  the documented recipe and estimates the total rate over full label cosets.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from graywyner import rng
from graywyner.lattice import (
    PartitionChainSpec,
    _coset_posteriors,
    _level_evidence,
    build_multilevel_code,
    default_chain,
    lattice_quantize,
    lattice_reconstruct,
    level_llr,
    mmse_params,
    plan_chain,
)
from graywyner.numerics import flatness_factor
from graywyner.polar import CLASS_FROZEN_DETERMINISTIC, CLASS_INFO

# the three reductions of the Gaussian routes (pair, coupled, L-source)
PAIR = mmse_params(0.9, 0.8)        # symmetric pair average, correlation 0.8
EPS2 = mmse_params(0.9, 0.5)        # coupled-distortion reduction at 0.5
L3 = mmse_params(2.0 / 3.0, 0.5)    # three-source average, correlation 0.5

# per-level conditional-entropy / rate oracles (400k-sample reference run,
# spacing factor 1.3); MC tolerance for N*samples >= 6e4 draws is ~0.01
EPS2_LEVEL_MI = (0.0041, 0.3073, 0.2707, 0.0022)
PAIR_LEVEL_MI = (0.0044, 0.3657, 0.9090, 0.3020)
EPS2_PRIOR_H = (1.0000, 0.9447, 0.3065, 0.0023)


def brute_level_llr(chain, mmse, level, t, finer_bits, k_range=500):
    """ln P(w=0 | t, finer bits) / P(w=1 | ...) by direct summation.

    Uses raw prior x likelihood weights over the unfolded lattice, so it
    exercises the minimum-mean-square-error folding as well as the
    truncation policy of the implementation.
    """
    s = chain.base_scale
    offset = s * sum(b << j for j, b in enumerate(finer_bits))
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
    v = np.searchsorted(np.cumsum(pmf), gen.random((sample_count, block_len)))
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

    def test_default_chain(self):
        chain = default_chain(EPS2)
        assert chain.levels == 4
        assert chain.sigma_r == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert chain.base_scale == pytest.approx(1.3 * math.sqrt(2.0 / 9.0),
                                                 rel=1e-12, abs=0.0)


class TestPlanChain:
    def test_level_counts_track_prior_width(self):
        # wider shaping priors need more levels to cover the 12 sigma window
        assert plan_chain(EPS2).levels == 4
        assert plan_chain(PAIR).levels == 5
        assert plan_chain(mmse_params(2.0 / 3.0, 0.5)).levels == 5

    def test_default_spacing_kept_when_flatness_allows(self):
        chain = plan_chain(EPS2)
        assert chain.base_scale == pytest.approx(default_chain(EPS2).base_scale,
                                                 rel=1e-12, abs=0.0)
        assert chain.period >= 12.0 * chain.sigma_r
        assert chain.period / 2.0 < 12.0 * chain.sigma_r  # smallest such count

    def test_tight_flatness_shrinks_spacing(self):
        chain = plan_chain(EPS2, flatness_target=1e-9)
        assert chain.base_scale < default_chain(EPS2).base_scale
        eps = flatness_factor(chain.base_scale, math.sqrt(EPS2.sigma_tilde2))
        assert eps <= 1e-9
        # the shrunken spacing forces one more level to keep the window
        assert chain.levels == 5

    @pytest.mark.parametrize("target", [1e-16, 1e-300])
    def test_targets_below_double_precision_met(self, target):
        mm = mmse_params(1.0, 0.8)
        chain = plan_chain(mm, flatness_target=target)
        assert flatness_factor(chain.base_scale, math.sqrt(mm.sigma_tilde2)) <= target

    def test_pinned_levels_honored_or_refused(self):
        assert plan_chain(EPS2, levels=4).levels == 4
        assert plan_chain(EPS2, levels=6).levels == 6
        with pytest.raises(ValueError, match="unreachable"):
            plan_chain(PAIR, levels=3)
        with pytest.raises(ValueError, match="unreachable"):
            plan_chain(EPS2, levels=4, flatness_target=1e-9)

    def test_spacing_never_widened(self):
        # a very loose target must not push the spacing past the requested factor
        chain = plan_chain(EPS2, flatness_target=0.5)
        assert chain.base_scale == pytest.approx(
            1.3 * math.sqrt(EPS2.sigma_tilde2), rel=1e-12, abs=0.0)

    def test_absurd_target_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            plan_chain(EPS2, flatness_target=0.0)

    def test_builds_under_same_gate(self):
        # the planned chain always passes build_multilevel_code's own check
        for mm in (EPS2, PAIR):
            chain = plan_chain(mm, flatness_target=1e-4)
            code = build_multilevel_code(chain, mm, 64, sample_count=8, seed=1,
                                         flatness_target=1e-4)
            assert code.flatness <= 1e-4


# ---------------------------------------------------------------------------
# level log-likelihood ratios
# ---------------------------------------------------------------------------

class TestLevelLlr:
    def chain(self, mmse, levels=4):
        return default_chain(mmse, levels=levels)

    @pytest.mark.parametrize("mmse", [PAIR, EPS2, L3], ids=["pair", "eps2", "l3"])
    def test_matches_direct_prior_likelihood_sums(self, mmse):
        chain = self.chain(mmse)
        gen = np.random.default_rng(7)
        for level in range(1, chain.levels + 1):
            t = gen.normal(0.0, math.sqrt(mmse.sigma_s2), size=6)
            bits = gen.integers(0, 2, size=(level - 1, 6)).astype(np.uint8)
            got = level_llr(chain, mmse, level, t, bits)
            for i in range(6):
                want = brute_level_llr(chain, mmse, level, t[i], bits[:, i])
                assert got[i] == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_midway_observation_is_zero(self):
        chain = self.chain(EPS2)
        t = 0.5 * chain.base_scale / EPS2.alpha
        assert abs(level_llr(chain, EPS2, 1, t, None)) < 1e-9

    def test_deep_level_is_decisive(self):
        chain = self.chain(EPS2)
        bits = np.zeros((3, 1), dtype=np.uint8)
        out = level_llr(chain, EPS2, 4, np.array([0.0]), bits)
        assert out[0] > 30.0

    def test_half_step_reflection_flips_sign(self):
        chain = self.chain(PAIR)
        s = chain.base_scale
        for t in (0.11, 0.37, 0.52):
            a = level_llr(chain, PAIR, 1, np.array([t]), None)
            b = level_llr(chain, PAIR, 1, np.array([s / PAIR.alpha - t]), None)
            assert a[0] == pytest.approx(-b[0], rel=1e-9, abs=1e-12)

    def test_vectorized_matches_scalar_calls(self):
        chain = self.chain(L3)
        t = np.array([-0.8, -0.1, 0.3, 1.7])
        bits = np.array([[0, 1, 1, 0]], dtype=np.uint8)
        batch = level_llr(chain, L3, 2, t, bits)
        singles = [level_llr(chain, L3, 2, np.array([ti]), bits[:, i : i + 1])[0]
                   for i, ti in enumerate(t)]
        assert batch == pytest.approx(singles, rel=1e-12, abs=0.0)

    def test_scale_invariance_power_of_two(self):
        chain = self.chain(EPS2)
        big = PartitionChainSpec(base_scale=2.0 * chain.base_scale,
                                 levels=chain.levels, sigma_r=2.0 * chain.sigma_r)
        big_mmse = mmse_params(4.0 * EPS2.sigma_s2, 4.0 * EPS2.sigma_r2)
        t = np.array([-0.9, 0.2, 1.4])
        bits = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.uint8)
        a = level_llr(chain, EPS2, 3, t, bits)
        b = level_llr(big, big_mmse, 3, 2.0 * t, bits)
        assert np.array_equal(a, b)


class TestLevelLlrValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        chain = default_chain(EPS2)
        with pytest.raises(ValueError, match="finite"):
            level_llr(chain, EPS2, 1, np.array([0.3, bad]))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_finer_label_outside_bits_rejected(self, bad):
        chain = default_chain(EPS2)
        bits = np.array([[0, bad, 1]])
        with pytest.raises(ValueError, match="bits"):
            level_llr(chain, EPS2, 2, np.array([0.1, 0.2, 0.3]), bits)


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
    p0 = 1.0 / (1.0 + np.exp(np.clip(lw1 - lw0, -700.0, 700.0)))
    return np.stack([p0, 1.0 - p0], axis=-1)


class TestCosetEvidence:
    """The one-pass coset sums against a direct sum, in the regimes that
    stress their anchoring: rint ties, odd negative anchors, a far-off
    second coset (step >> sigma) and a wide window (sigma >> step)."""

    def assert_matches_direct(self, centers, sigma, offsets, step):
        got = _coset_posteriors(centers, sigma, offsets, step)
        want = direct_coset_posteriors(centers, sigma, offsets, step)
        assert got.shape == want.shape
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_prior_table_equals_elementwise_evaluation(self):
        mmse = mmse_params(1.0, 0.8)
        chain = plan_chain(mmse)
        gen = np.random.default_rng(3)
        for level in range(1, chain.levels + 1):
            finer = gen.integers(0, 1 << (level - 1), size=(9, 64))
            _, prior = _level_evidence(chain, mmse, level, finer)
            want = _coset_posteriors(np.zeros((7, 64)), chain.sigma_r,
                                     chain.base_scale * finer[2:9].astype(float),
                                     chain.level_step(level))
            assert np.array_equal(prior(2, 9), want)

    def test_centers_on_coset_midpoints(self):
        step = 0.5
        k = np.arange(-6, 6)
        centers = step * (k + 0.5)  # exact rint ties
        offsets = np.where(k % 3 == 0, 0.0, step)  # keeps the ties
        self.assert_matches_direct(centers, 0.3, offsets, step)
        # equidistant cosets tie exactly, so a tie-breaking rule sees 1/2
        for sigma in (0.3, 2.0, 3.3):
            assert np.all(_coset_posteriors(centers, sigma, 0.0, step) == 0.5)

    def test_negative_centers_with_odd_anchor(self):
        step = 0.75
        centers = -np.array([1.0, 3.0, 5.0, 7.0]) * step + np.array([0.1, -0.2, 0.3, 0.0])
        assert np.all(np.rint(centers / step).astype(np.int64) % 2 == 1)
        self.assert_matches_direct(centers, 0.4, 0.0, step)
        got = _coset_posteriors(centers, 0.4, 0.0, step)
        assert np.all(got[..., 1] > got[..., 0])  # the odd coset holds the anchor

    def test_step_far_above_sigma(self):
        # the other coset's weight is about e^-1000 relative to the anchor's
        step = 1.0
        sigma = step / math.sqrt(2000.0)
        centers = np.array([0.0, 1.0, -3.0, 0.02, 0.49, 0.5])
        self.assert_matches_direct(centers, sigma, 0.0, step)
        chain = PartitionChainSpec(base_scale=step, levels=1, sigma_r=1.0)
        mmse = mmse_params(1.0 + sigma * sigma, 1.0)
        obs = centers / mmse.alpha
        llr = level_llr(chain, mmse, 1, obs)
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


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def eps2_code(cache_dir):
    return build_multilevel_code(default_chain(EPS2), EPS2, 4096,
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
        code = build_multilevel_code(default_chain(EPS2), EPS2, 1024,
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

    def test_single_level_saturated_noise_has_no_rate(self):
        # sigma_tilde much larger than the spacing: the one level is dither only
        m = mmse_params(25.0, 20.0)
        chain = PartitionChainSpec(base_scale=0.4, levels=1, sigma_r=math.sqrt(20.0))
        code = build_multilevel_code(chain, m, 512, sample_count=32, seed=1)
        assert code.total_rate < 0.02

    def test_sample_count_stability(self, cache_dir):
        a = build_multilevel_code(default_chain(EPS2), EPS2, 1024,
                                  sample_count=128, seed=9, cache_dir=cache_dir)
        b = build_multilevel_code(default_chain(EPS2), EPS2, 1024,
                                  sample_count=256, seed=9, cache_dir=cache_dir)
        for ra, rb in zip(a.level_rates, b.level_rates):
            assert abs(ra - rb) < 0.01
        assert abs(a.total_rate - b.total_rate) < 0.02

    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        kwargs = dict(block_len=256, sample_count=16, seed=2, cache_dir=tmp_path)
        first = build_multilevel_code(default_chain(L3), L3, **kwargs)
        again = build_multilevel_code(default_chain(L3), L3, **kwargs)
        assert first.flatness == again.flatness
        for p, q in zip(first.profiles, again.profiles):
            assert np.array_equal(p.classes, q.classes)
            assert np.array_equal(p.z_cond, q.z_cond)
            assert np.array_equal(p.h_prior, q.h_prior)

    def test_corrupt_cache_entries_are_rebuilt(self, tmp_path):
        kwargs = dict(block_len=64, sample_count=8, seed=2, cache_dir=tmp_path)
        first = build_multilevel_code(default_chain(L3), L3, **kwargs)
        level_files = sorted(tmp_path.glob("profile_*.json"))
        assert len(level_files) == first.levels
        for broken in level_files:
            broken.write_text("{truncated")
            again = build_multilevel_code(default_chain(L3), L3, **kwargs)
            for p, q in zip(first.profiles, again.profiles):
                assert np.array_equal(p.z_cond, q.z_cond)
            json.loads(broken.read_text())  # overwritten with a valid entry
        # mark every level entry; marked entries are still served as hits
        for path in level_files:
            data = json.loads(path.read_text())
            data["z_cond"][0] = 0.5 + 0.25 * data["z_cond"][0]
            path.write_text(json.dumps(data))
        marked = build_multilevel_code(default_chain(L3), L3, **kwargs)
        for p, q in zip(first.profiles, marked.profiles):
            assert p.z_cond[0] != q.z_cond[0]
        # one deleted level is a miss: every level is rebuilt and stored afresh
        level_files[1].unlink()
        again = build_multilevel_code(default_chain(L3), L3, **kwargs)
        for p, q, path in zip(first.profiles, again.profiles, level_files):
            assert np.array_equal(p.z_cond, q.z_cond)
            assert json.loads(path.read_text())["z_cond"] == p.z_cond.tolist()

    def test_close_betas_never_share_a_bundle(self, tmp_path):
        kwargs = dict(block_len=64, sample_count=8, seed=2, cache_dir=tmp_path)
        a = build_multilevel_code(default_chain(L3), L3, beta=0.1234561, **kwargs)
        b = build_multilevel_code(default_chain(L3), L3, beta=0.1234564, **kwargs)
        assert (a.beta, b.beta) == (0.1234561, 0.1234564)
        assert all(p.beta == 0.1234564 for p in b.profiles)
        assert len(list(tmp_path.glob("profile_*.json"))) == 2 * b.levels
        again = build_multilevel_code(default_chain(L3), L3, beta=0.1234564, **kwargs)
        assert all(p.beta == 0.1234564 for p in again.profiles)

    @pytest.mark.parametrize("beta", [math.nan, 0.0, 1.0])
    def test_beta_outside_open_unit_interval_rejected(self, beta):
        with pytest.raises(ValueError, match="beta"):
            build_multilevel_code(default_chain(L3), L3, 64, beta=beta,
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


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def sample_sources(mmse, n_blocks, block_len, seed=21):
    gen = rng.stream(seed, rng.STREAM_SOURCE)
    return gen.normal(0.0, math.sqrt(mmse.sigma_s2), size=(n_blocks, block_len))


class TestLatticeQuantize:
    def test_payload_lengths_match_info_counts(self, eps2_code):
        samples = sample_sources(EPS2, 3, 4096)
        payloads, recon = lattice_quantize(samples, eps2_code, shared_seed=17)
        assert len(payloads) == eps2_code.levels
        for payload, profile in zip(payloads, eps2_code.profiles):
            assert payload.shape == (3, len(profile.info_positions()))
        assert recon.shape == samples.shape

    def test_reconstruction_replay_is_exact(self, eps2_code):
        samples = sample_sources(EPS2, 2, 4096)
        payloads, recon = lattice_quantize(samples, eps2_code, shared_seed=17)
        replay = lattice_reconstruct(payloads, eps2_code, shared_seed=17)
        assert np.array_equal(recon, replay)

    def test_reconstructions_live_on_the_window(self, eps2_code):
        samples = sample_sources(EPS2, 2, 4096)
        _, recon = lattice_quantize(samples, eps2_code, shared_seed=17)
        vals = np.sort(eps2_code.chain.reconstruction_values())
        assert np.isin(recon, vals).all()

    def test_mean_squared_error_near_target(self, eps2_code):
        samples = sample_sources(EPS2, 6, 4096)
        _, recon = lattice_quantize(samples, eps2_code, shared_seed=17)
        mse = float(np.mean((samples - recon) ** 2))
        assert 0.32 < mse < 0.50  # target distortion 0.4 plus finite-length loss

    def test_block_offset_addressing(self, eps2_code):
        samples = sample_sources(EPS2, 4, 4096)
        payloads, recon = lattice_quantize(samples, eps2_code, shared_seed=23)
        p_head, r_head = lattice_quantize(samples[:2], eps2_code, shared_seed=23)
        p_tail, r_tail = lattice_quantize(samples[2:], eps2_code, shared_seed=23,
                                          block_offset=2)
        assert np.array_equal(recon[:2], r_head)
        assert np.array_equal(recon[2:], r_tail)
        for full, head, tail in zip(payloads, p_head, p_tail):
            assert np.array_equal(full, np.vstack([head, tail]))

    def test_shared_seed_changes_dither(self, eps2_code):
        samples = sample_sources(EPS2, 1, 4096)
        _, a = lattice_quantize(samples, eps2_code, shared_seed=1)
        _, b = lattice_quantize(samples, eps2_code, shared_seed=2)
        assert not np.array_equal(a, b)

    def test_scale_consistency_power_of_two(self, cache_dir):
        small = build_multilevel_code(default_chain(EPS2), EPS2, 1024,
                                      sample_count=64, seed=5, cache_dir=cache_dir)
        chain2 = PartitionChainSpec(base_scale=2.0 * small.chain.base_scale,
                                    levels=4, sigma_r=2.0 * small.chain.sigma_r)
        mmse2 = mmse_params(4.0 * EPS2.sigma_s2, 4.0 * EPS2.sigma_r2)
        big = build_multilevel_code(chain2, mmse2, 1024, sample_count=64, seed=5)
        samples = sample_sources(EPS2, 2, 1024)
        pay_a, rec_a = lattice_quantize(samples, small, shared_seed=31)
        pay_b, rec_b = lattice_quantize(2.0 * samples, big, shared_seed=31)
        for a, b in zip(pay_a, pay_b):
            assert np.array_equal(a, b)
        assert np.array_equal(2.0 * rec_a, rec_b)
        mse_a = float(np.mean((samples - rec_a) ** 2))
        mse_b = float(np.mean((2.0 * samples - rec_b) ** 2))
        assert mse_b == pytest.approx(4.0 * mse_a, rel=1e-12, abs=0.0)

    def test_zero_variance_source_at_lattice_point(self):
        # essentially noiseless test channel: the quantizer must return the
        # exact lattice point with zero distortion and no dither wobble
        m = mmse_params(1.0, 1.0 - 1e-8)
        chain = PartitionChainSpec(base_scale=0.25, levels=2, sigma_r=math.sqrt(m.sigma_r2))
        code = build_multilevel_code(chain, m, 256, sample_count=16, seed=4,
                                     flatness_target=None)
        assert all(np.all(p.classes == CLASS_INFO) for p in code.profiles)
        samples = np.zeros((2, 256))
        _, recon = lattice_quantize(samples, code, shared_seed=8)
        assert np.array_equal(recon, samples)

    def test_wrong_width_level_payload_rejected(self, eps2_code):
        samples = rng.stream(31, rng.STREAM_SOURCE).standard_normal((2, 4096))
        payloads, _ = lattice_quantize(samples, eps2_code, shared_seed=5)
        level = max(range(eps2_code.levels), key=lambda l: payloads[l].shape[1])
        bad = list(payloads)
        bad[level] = bad[level][:, :-1]
        with pytest.raises(ValueError, match="must have shape"):
            lattice_reconstruct(bad, eps2_code, shared_seed=5)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_non_bit_payload_rejected(self, eps2_code, bad):
        samples = rng.stream(32, rng.STREAM_SOURCE).standard_normal((2, 4096))
        payloads, _ = lattice_quantize(samples, eps2_code, shared_seed=5)
        level = max(range(eps2_code.levels), key=lambda l: payloads[l].shape[1])
        bad_payloads = [p.astype(np.int64) for p in payloads]
        bad_payloads[level][1, 0] = bad
        with pytest.raises(ValueError, match=r"bits in \{0, 1\}"):
            lattice_reconstruct(bad_payloads, eps2_code, shared_seed=5)

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
        payloads, recon = lattice_quantize(np.zeros((0, 4096)), eps2_code,
                                           shared_seed=0)
        for payload, profile in zip(payloads, eps2_code.profiles):
            assert payload.shape == (0, len(profile.info_positions()))
            assert payload.dtype == np.uint8
        assert recon.shape == (0, 4096)
        replay = lattice_reconstruct(payloads, eps2_code, shared_seed=0)
        assert replay.shape == (0, 4096)
