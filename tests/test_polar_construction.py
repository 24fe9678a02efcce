"""Construction tests: exact chain-rule telescoping, entropy estimates
against closed forms, polarization trends, classification rules, caching."""

import json
import math

import numpy as np
import pytest

from graywyner import rng
from graywyner.numerics import binary_entropy
from graywyner.polar import (
    CLASS_FROZEN_DETERMINISTIC,
    CLASS_FROZEN_RANDOM,
    CLASS_INFO,
    classify_indices,
    construct_profile,
    construct_profile_cached,
    crossover_side_info,
    load_profile,
    lossless_source,
    polar_transform,
    profile_cache_key,
    profile_path,
    save_profile,
    sc_traverse,
)
from graywyner.polar.profile import below_log_threshold

A1 = 0.0584119566836076573


def _surprisal(llr, bits):
    """-log2 p(bits) of the posterior pair (1 / (1 + e^-L), 1 / (1 + e^L))."""
    p_true = 1.0 / (1.0 + np.exp(np.where(bits == 1, llr, -llr)))
    return -np.log2(p_true)


class TestChainRuleExact:
    """The per-block sum of leaf surprisals telescopes to the exact block
    log-likelihood; this pins the whole traversal arithmetic at once."""

    @pytest.mark.parametrize("block_len", [8, 64])
    def test_telescoping_matches_direct_likelihood(self, block_len):
        channel = crossover_side_info(0.17)
        gen = rng.stream(99, rng.STREAM_SOURCE)
        x, y = channel.sample(5, block_len, gen)
        u_true = polar_transform(x)
        evidence = channel.leaf_evidence(y)[None]
        surprisal = np.zeros(5)

        def decide(i, llr):
            bits = u_true[:, i]
            surprisal[:] += _surprisal(llr[0], bits)
            return bits

        sc_traverse(evidence, decide)
        table = channel.conditional_table()
        direct = -np.log2(table[y, x.astype(np.intp)]).sum(axis=1)
        np.testing.assert_allclose(surprisal, direct, atol=1e-9)

    def test_prior_chain_telescoping(self):
        channel = lossless_source(0.11)
        gen = rng.stream(4, rng.STREAM_SOURCE)
        x, _ = channel.sample(6, 64, gen)
        u_true = polar_transform(x)
        evidence = np.asarray(channel.prior_evidence((6, 64)))[None]
        surprisal = np.zeros(6)

        def decide(i, llr):
            bits = u_true[:, i]
            surprisal[:] += _surprisal(llr[0], bits)
            return bits

        sc_traverse(evidence, decide)
        weight = x.sum(axis=1)
        direct = -(weight * np.log2(0.11) + (64 - weight) * np.log2(0.89))
        np.testing.assert_allclose(surprisal, direct, atol=1e-9)


class TestEntropyEstimates:
    def test_plain_source_estimates(self):
        profile = construct_profile(lossless_source(0.11), 1024,
                                    sample_count=500, seed=21)
        h = binary_entropy(0.11)
        assert profile.conditional_entropy_estimate() == pytest.approx(h, abs=0.01 * h)
        assert profile.prior_entropy_estimate() == pytest.approx(h, abs=0.01 * h)

    def test_side_info_estimates(self):
        profile = construct_profile(crossover_side_info(A1), 1024,
                                    sample_count=500, seed=22)
        assert profile.conditional_entropy_estimate() == pytest.approx(
            binary_entropy(A1), abs=0.01)
        # uniform coded variable: prior chain is exactly uniform
        np.testing.assert_array_equal(profile.z_prior, np.ones(1024))
        np.testing.assert_array_equal(profile.h_prior, np.ones(1024))
        assert profile.prior_entropy_estimate() == 1.0


class TestPolarizationTrend:
    @pytest.mark.parametrize("channel_factory,stat", [
        (lambda: lossless_source(0.11), "z_prior"),
        (lambda: crossover_side_info(A1), "z_cond"),
    ])
    def test_extreme_fractions_grow_with_block_length(self, channel_factory, stat):
        lows, highs = [], []
        for exponent in (8, 10, 12):
            profile = construct_profile(channel_factory(), 2 ** exponent,
                                        sample_count=200, seed=31)
            z = getattr(profile, stat)
            lows.append(float(np.mean(z < 0.01)))
            highs.append(float(np.mean(z > 0.99)))
        assert lows[0] <= lows[1] <= lows[2]
        assert highs[0] <= highs[1] <= highs[2]
        assert lows[2] + highs[2] > 0.75


class TestClassification:
    def test_log_domain_threshold(self):
        assert below_log_threshold(0.0, 16.0)[0]
        assert below_log_threshold(-1e-18, 16.0)[0]
        assert below_log_threshold(2.0 ** -17, 16.0)[0]
        assert below_log_threshold(2.0 ** -16, 16.0)[0]
        assert not below_log_threshold(2.0 ** -15, 16.0)[0]
        # underflow-prone inputs still classify correctly
        assert below_log_threshold(1e-320, 100.0)[0]

    def test_rules_reproduce_classes(self):
        profile = construct_profile(lossless_source(0.11), 256,
                                    sample_count=300, seed=41)
        expected = classify_indices(profile.z_cond, profile.z_prior, 256, profile.beta)
        np.testing.assert_array_equal(profile.classes, expected)
        assert set(np.unique(profile.classes)) <= {CLASS_INFO, CLASS_FROZEN_RANDOM,
                                                   CLASS_FROZEN_DETERMINISTIC}

    def test_deterministic_wins_ties(self):
        z_cond = np.array([1.0, 1.0])
        z_prior = np.array([0.0, 1.0])
        classes = classify_indices(z_cond, z_prior, 2, 0.25)
        assert classes[0] == CLASS_FROZEN_DETERMINISTIC
        assert classes[1] == CLASS_FROZEN_RANDOM

    def test_constant_source_is_all_deterministic(self):
        profile = construct_profile(lossless_source(0.0), 128,
                                    sample_count=50, seed=5)
        assert np.all(profile.classes == CLASS_FROZEN_DETERMINISTIC)
        np.testing.assert_allclose(profile.h_cond, 0.0, atol=1e-12)

    def test_uniform_prior_has_no_deterministic(self):
        profile = construct_profile(crossover_side_info(0.2), 256,
                                    sample_count=200, seed=6)
        assert not profile.has_deterministic

    @pytest.mark.parametrize("beta", [math.nan, 0.0, 1.0])
    def test_beta_outside_open_unit_interval_rejected(self, beta):
        with pytest.raises(ValueError, match="beta"):
            construct_profile(lossless_source(0.11), 16, beta=beta,
                              sample_count=4, seed=1)


class TestRateControl:
    def test_payload_cap_demotes_least_reliable(self):
        profile = construct_profile(crossover_side_info(0.2), 256,
                                    sample_count=200, seed=6)
        capped = profile.with_payload_cap(0.3)
        assert len(capped.info_positions()) <= int(0.3 * 256)
        demoted = np.setdiff1d(profile.info_positions(), capped.info_positions())
        if len(demoted) and len(capped.info_positions()):
            assert profile.z_cond[demoted].min() >= profile.z_cond[
                capped.info_positions()].max() - 1e-12
        # demoted indices became frozen-random
        assert np.all(capped.classes[demoted] == CLASS_FROZEN_RANDOM)

    def test_cap_wider_than_info_is_identity(self):
        profile = construct_profile(crossover_side_info(0.2), 128,
                                    sample_count=100, seed=7)
        assert profile.with_payload_cap(1.0) is profile

    @pytest.mark.parametrize("cap", [-0.5, -1e-300, float("nan")])
    def test_payload_cap_rejects_negative_and_nan(self, cap):
        profile = construct_profile(crossover_side_info(0.2), 64,
                                    sample_count=50, seed=7)
        with pytest.raises(ValueError, match="max_fraction"):
            profile.with_payload_cap(cap)

    @pytest.mark.parametrize("cap", [1.5, float("inf")])
    def test_cap_above_one_is_identity(self, cap):
        profile = construct_profile(crossover_side_info(0.2), 64,
                                    sample_count=50, seed=7)
        assert profile.with_payload_cap(cap) is profile

    def test_zero_cap_demotes_every_info_position(self):
        profile = construct_profile(crossover_side_info(0.2), 64,
                                    sample_count=50, seed=7)
        assert len(profile.info_positions()) > 0
        assert len(profile.with_payload_cap(0.0).info_positions()) == 0

    def test_stored_mask_picks_highest_z(self):
        profile = construct_profile(lossless_source(0.11), 128,
                                    sample_count=100, seed=8)
        mask = profile.stored_mask(0.25)
        count = int(np.ceil(0.25 * 128))
        assert mask.sum() == count
        inside = profile.z_cond[mask].min()
        outside = profile.z_cond[~mask].max()
        assert inside >= outside - 1e-12


def _entry(cache_dir, profile):
    """Cache path of the entry for profile's header."""
    return profile_path(cache_dir, profile_cache_key(
        profile.channel_id, profile.block_len, profile.beta,
        profile.sample_count, profile.seed))


class TestProfileCache:
    def test_round_trip_is_bit_identical(self, tmp_path):
        profile = construct_profile(lossless_source(0.11), 64,
                                    sample_count=60, seed=9)
        path = save_profile(profile, tmp_path)
        loaded = load_profile(path)
        for name in ("z_cond", "z_prior", "h_cond", "h_prior"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(profile, name))
        np.testing.assert_array_equal(loaded.classes, profile.classes)
        assert (loaded.channel_id, loaded.block_len, loaded.beta,
                loaded.sample_count, loaded.seed) == (
            profile.channel_id, profile.block_len, profile.beta,
            profile.sample_count, profile.seed)

    def test_cached_constructor_prefers_disk(self, tmp_path):
        channel = lossless_source(0.11)
        first = construct_profile_cached(channel, 64, tmp_path,
                                         sample_count=60, seed=9)
        # plant a marker in the cached file; a cache hit must surface it
        import dataclasses
        marked = dataclasses.replace(first, h_cond=first.h_cond + 1.0)
        save_profile(marked, tmp_path)
        again = construct_profile_cached(channel, 64, tmp_path,
                                         sample_count=60, seed=9)
        np.testing.assert_array_equal(again.h_cond, first.h_cond + 1.0)

    def test_distinct_parameters_distinct_paths(self, tmp_path):
        a = profile_path(tmp_path, "profile_xyz_n64_b0.25_s60_r9")
        channel = lossless_source(0.11)
        p1 = construct_profile_cached(channel, 64, tmp_path, sample_count=60, seed=9)
        p2 = construct_profile_cached(channel, 64, tmp_path, sample_count=60, seed=10)
        assert _entry(tmp_path, p1) != _entry(tmp_path, p2)
        assert a.parent == _entry(tmp_path, p1).parent

    def test_close_betas_never_share_an_entry(self, tmp_path):
        channel = lossless_source(0.11)
        kw = dict(sample_count=60, seed=9)
        first = construct_profile_cached(channel, 64, tmp_path, beta=0.1234561, **kw)
        second = construct_profile_cached(channel, 64, tmp_path, beta=0.1234564, **kw)
        assert (first.beta, second.beta) == (0.1234561, 0.1234564)
        assert _entry(tmp_path, first) != _entry(tmp_path, second)

    def test_entry_built_for_other_parameters_is_a_miss(self, tmp_path):
        channel = lossless_source(0.11)
        wanted = dict(beta=0.1234564, sample_count=60, seed=9)
        stale = construct_profile(channel, 64, beta=0.1234561, sample_count=60, seed=9)
        key = profile_cache_key(channel.channel_id(), 64, **wanted)
        # plant the other beta's profile under the requested key
        path = profile_path(tmp_path, key)
        path.write_text(save_profile(stale, tmp_path).read_text())
        got = construct_profile_cached(channel, 64, tmp_path, **wanted)
        assert got.beta == 0.1234564
        assert load_profile(path).beta == 0.1234564

    @pytest.mark.parametrize("content", [
        "{not json", "[1, 2]", '{"version": 2}', "",
        pytest.param(("classes", 300), id="class-300"),
        pytest.param(("classes", 7), id="class-7"),
        pytest.param(("z_cond", math.nan), id="nan-z_cond"),
        pytest.param(("N", math.inf), id="N-infinite"),
    ])
    def test_corrupt_entry_is_rebuilt(self, tmp_path, content):
        channel = lossless_source(0.11)
        fresh = construct_profile(channel, 64, sample_count=60, seed=9)
        path = _entry(tmp_path, fresh)
        if not isinstance(content, str):  # a valid entry with one value spoiled
            name, value = content
            entry = json.loads(save_profile(fresh, tmp_path).read_text())
            if isinstance(entry[name], list):
                entry[name][0] = value
            else:
                entry[name] = value
            content = json.dumps(entry)
        path.write_text(content)
        got = construct_profile_cached(channel, 64, tmp_path, sample_count=60, seed=9)
        np.testing.assert_array_equal(got.z_cond, fresh.z_cond)
        np.testing.assert_array_equal(load_profile(path).classes, fresh.classes)
