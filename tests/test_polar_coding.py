"""Coding-layer tests: exact lossless round trips, corrections accounting,
shared-dither batch independence, encoder/decoder reconstruction agreement
on both the fast path (uniform prior) and the prior-chain path."""

import numpy as np
import pytest

from graywyner import rng
from graywyner.numerics import binary_entropy
from graywyner.polar import (
    crossover_side_info,
    lossless_source,
    polar_transform,
    sc_lossless_decode,
    sc_lossless_encode,
    sc_lossy_encode,
    sc_lossy_reconstruct,
)
from graywyner.polar import test_channel_source as make_quantizer_source

A1 = 0.0584119566836076573


def bsc_forward(crossover):
    a = float(crossover)
    return np.array([[1.0 - a, a], [a, 1.0 - a]])


class TestLossless:
    def test_plain_round_trip_exact(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 1024)
        x, _ = channel.sample(8, 1024, rng.stream(50, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile, stored_fraction=0.62)
        np.testing.assert_array_equal(sc_lossless_decode(code, channel, profile), x)

    def test_side_info_round_trip_exact(self, profile_store):
        channel = crossover_side_info(A1)
        profile = profile_store(channel, 1024)
        x, y = channel.sample(8, 1024, rng.stream(51, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile,
                                  stored_fraction=binary_entropy(A1) + 0.08, side=y)
        decoded = sc_lossless_decode(code, channel, profile, side=y)
        np.testing.assert_array_equal(decoded, x)

    def test_store_everything_needs_no_corrections(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 256)
        x, _ = channel.sample(4, 256, rng.stream(52, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile, stored_fraction=1.0)
        assert all(len(t) == 0 for t in code.corrections)
        assert code.mean_rate(256) == pytest.approx(1.0)
        np.testing.assert_array_equal(sc_lossless_decode(code, channel, profile), x)

    def test_rate_accounting(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 256)
        x, _ = channel.sample(4, 256, rng.stream(53, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile, stored_fraction=0.7)
        stored = int(np.ceil(0.7 * 256))
        per_block = code.rate_per_block(256)
        fixes = np.array([len(t) for t in code.corrections])
        np.testing.assert_allclose(
            per_block, (stored + fixes * (np.log2(256) + 1)) / 256)
        assert code.mean_rate(256) == pytest.approx(per_block.mean())

    def test_corrections_rare_at_adequate_rate(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 4096)
        x, _ = channel.sample(10, 4096, rng.stream(54, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile,
                                  stored_fraction=binary_entropy(0.11) + 0.12)
        total_fixes = sum(len(t) for t in code.corrections)
        assert total_fixes / (10 * 4096) < 5e-3

    def test_rejects_mismatched_profile(self, profile_store):
        profile = profile_store(lossless_source(0.11), 256)
        other = lossless_source(0.2)
        x = np.zeros((2, 256), dtype=np.uint8)
        with pytest.raises(ValueError):
            sc_lossless_encode(x, other, profile, stored_fraction=0.6)


class TestLossyUniformPrior:
    def test_exact_when_observation_reveals_everything(self, profile_store):
        channel = make_quantizer_source(0.5, np.eye(2), name="identity-observation")
        profile = profile_store(channel, 512)
        obs = rng.stream(60, rng.STREAM_SOURCE).integers(0, 2, size=(6, 512))
        payload, recon = sc_lossy_encode(obs, channel, profile, shared_seed=77)
        np.testing.assert_array_equal(recon, obs)

    def test_decoder_matches_encoder_reconstruction(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 1024)
        obs = rng.stream(61, rng.STREAM_SOURCE).integers(0, 2, size=(6, 1024))
        payload, recon = sc_lossy_encode(obs, channel, profile, shared_seed=78)
        rebuilt = sc_lossy_reconstruct(payload, channel, profile, shared_seed=78)
        np.testing.assert_array_equal(rebuilt, recon)

    def test_payload_is_info_bits(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 1024)
        obs = rng.stream(62, rng.STREAM_SOURCE).integers(0, 2, size=(3, 1024))
        payload, recon = sc_lossy_encode(obs, channel, profile, shared_seed=79)
        u = polar_transform(recon)
        np.testing.assert_array_equal(payload, u[:, profile.info_positions()])

    def test_distortion_near_design_point(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 4096)
        obs = rng.stream(63, rng.STREAM_SOURCE).integers(0, 2, size=(16, 4096))
        _, recon = sc_lossy_encode(obs, channel, profile, shared_seed=80)
        distortion = float(np.mean(recon != obs))
        assert 0.07 < distortion < 0.16

    def test_batch_independence(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 512)
        obs = rng.stream(64, rng.STREAM_SOURCE).integers(0, 2, size=(9, 512))
        pay_all, rec_all = sc_lossy_encode(obs, channel, profile, shared_seed=81)
        pay_a, rec_a = sc_lossy_encode(obs[:5], channel, profile, shared_seed=81)
        pay_b, rec_b = sc_lossy_encode(obs[5:], channel, profile, shared_seed=81,
                                       block_offset=5)
        np.testing.assert_array_equal(np.vstack([pay_a, pay_b]), pay_all)
        np.testing.assert_array_equal(np.vstack([rec_a, rec_b]), rec_all)
        rebuilt_b = sc_lossy_reconstruct(pay_b, channel, profile, shared_seed=81,
                                         block_offset=5)
        np.testing.assert_array_equal(rebuilt_b, rec_b)

    def test_levels_use_distinct_dither(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 512)
        obs = rng.stream(65, rng.STREAM_SOURCE).integers(0, 2, size=(4, 512))
        _, rec0 = sc_lossy_encode(obs, channel, profile, shared_seed=82, level=0)
        _, rec1 = sc_lossy_encode(obs, channel, profile, shared_seed=82, level=1)
        assert np.any(rec0 != rec1)

    def test_payload_cap_reduces_rate(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 1024)
        capped = profile.with_payload_cap(0.4)
        obs = rng.stream(66, rng.STREAM_SOURCE).integers(0, 2, size=(4, 1024))
        payload, recon = sc_lossy_encode(obs, channel, capped, shared_seed=83)
        assert payload.shape[1] <= int(0.4 * 1024)
        rebuilt = sc_lossy_reconstruct(payload, channel, capped, shared_seed=83)
        np.testing.assert_array_equal(rebuilt, recon)
        assert float(np.mean(recon != obs)) < 0.5


class TestLossyNonuniformPrior:
    """Nonuniform reconstruction prior: deterministic indices replayed from
    the prior chain must agree bit for bit between the encoder's two-chain
    pass and the decoder's single-chain pass."""

    def test_decoder_matches_encoder_reconstruction(self, profile_store):
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 1024)
        assert profile.has_deterministic
        gen = rng.stream(70, rng.STREAM_SOURCE)
        _, obs = channel.sample(6, 1024, gen)
        payload, recon = sc_lossy_encode(obs, channel, profile, shared_seed=84)
        rebuilt = sc_lossy_reconstruct(payload, channel, profile, shared_seed=84)
        np.testing.assert_array_equal(rebuilt, recon)

    def test_batch_independence(self, profile_store):
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 512)
        _, obs = channel.sample(7, 512, rng.stream(71, rng.STREAM_SOURCE))
        pay_all, rec_all = sc_lossy_encode(obs, channel, profile, shared_seed=85)
        pay_b, rec_b = sc_lossy_encode(obs[3:], channel, profile, shared_seed=85,
                                       block_offset=3)
        np.testing.assert_array_equal(pay_b, pay_all[3:])
        np.testing.assert_array_equal(rec_b, rec_all[3:])

    def test_reconstruction_biased_toward_prior(self, profile_store):
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 1024)
        _, obs = channel.sample(8, 1024, rng.stream(72, rng.STREAM_SOURCE))
        _, recon = sc_lossy_encode(obs, channel, profile, shared_seed=86)
        ones = float(np.mean(recon))
        assert 0.1 < ones < 0.3  # matches the Ber(0.2) prior, not uniform


class TestSymbolRange:
    """Symbols outside the side alphabet are refused, never wrapped."""

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_lossy_observation_out_of_range(self, profile_store, bad):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 1024)
        obs = np.zeros((2, 1024), dtype=np.int64)
        obs[1, 5] = bad
        with pytest.raises(ValueError, match="side symbols"):
            sc_lossy_encode(obs, channel, profile, shared_seed=1)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_lossless_side_out_of_range(self, profile_store, bad):
        channel = crossover_side_info(0.1)
        profile = profile_store(channel, 256)
        x = np.zeros((2, 256), dtype=np.uint8)
        side = np.zeros((2, 256), dtype=np.int64)
        side[0, 3] = bad
        with pytest.raises(ValueError, match="side symbols"):
            sc_lossless_encode(x, channel, profile, stored_fraction=0.6, side=side)
        code = sc_lossless_encode(x, channel, profile, stored_fraction=0.6,
                                  side=np.zeros((2, 256), dtype=np.int64))
        with pytest.raises(ValueError, match="side symbols"):
            sc_lossless_decode(code, channel, profile, side=side)
