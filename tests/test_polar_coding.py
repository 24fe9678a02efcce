"""Coding-layer tests: exact lossless round trips, corrections accounting,
shared-dither batch independence, encoder/decoder reconstruction agreement
on both the fast path (uniform prior) and the prior-chain path, the
coders' rate-1 shortcuts (no output moves with the batch, the lossless
decoder asks for corrected leaves only), and the refusal of malformed
blocks and codes."""

from dataclasses import replace

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
from graywyner.polar import coding as coding_module
from graywyner.polar import profile as profile_module
from graywyner.polar import sc as sc_module
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
        assert np.all(code.rate_per_block(256) == 1.0)
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


class TestEmptyBatch:
    """Zero blocks give empty arrays of the usual widths on both coders."""

    @pytest.mark.parametrize("prior, crossover, name", [
        (0.5, 0.11, "bsc-quantizer"), (0.2, 0.1, "skewed-quantizer")])
    def test_lossy(self, profile_store, prior, crossover, name):
        channel = make_quantizer_source(prior, bsc_forward(crossover), name=name)
        profile = profile_store(channel, 512)
        assert profile.has_deterministic == (prior != 0.5)
        obs = np.zeros((0, 512), dtype=np.int64)
        payload, recon = sc_lossy_encode(obs, channel, profile, shared_seed=1)
        assert payload.shape == (0, len(profile.info_positions()))
        assert payload.dtype == recon.dtype == np.uint8
        assert recon.shape == (0, 512)
        rebuilt = sc_lossy_reconstruct(payload, channel, profile, shared_seed=1)
        assert rebuilt.shape == (0, 512) and rebuilt.dtype == np.uint8

    def test_lossless(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 256)
        code = sc_lossless_encode(np.zeros((0, 256), dtype=np.uint8), channel,
                                  profile, stored_fraction=0.7)
        assert code.n_blocks == 0
        assert sc_lossless_decode(code, channel, profile).shape == (0, 256)


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


class TestNonIntegerSymbols:
    """Fractional or NaN side symbols are refused, never truncated; bool
    side arrays stay accepted."""

    @pytest.mark.parametrize("bad", [0.7, 2.9, np.nan])
    def test_lossy_observation_not_integer(self, profile_store, bad):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 1024)
        obs = np.zeros((2, 1024))
        obs[1, 5] = bad
        with pytest.raises(ValueError, match="integer-valued"):
            sc_lossy_encode(obs, channel, profile, shared_seed=1)

    @pytest.mark.parametrize("bad", [0.7, np.nan])
    def test_lossless_encode_side_not_integer(self, profile_store, bad):
        channel = crossover_side_info(0.1)
        profile = profile_store(channel, 256)
        side = np.zeros((2, 256))
        side[0, 3] = bad
        with pytest.raises(ValueError, match="integer-valued"):
            sc_lossless_encode(np.zeros((2, 256), dtype=np.uint8), channel,
                               profile, stored_fraction=0.6, side=side)

    @pytest.mark.parametrize("bad", [0.7, np.nan])
    def test_lossless_decode_side_not_integer(self, profile_store, bad):
        channel = crossover_side_info(0.1)
        profile = profile_store(channel, 256)
        x = np.zeros((2, 256), dtype=np.uint8)
        side = np.zeros((2, 256), dtype=bool)
        code = sc_lossless_encode(x, channel, profile, stored_fraction=0.6, side=side)
        np.testing.assert_array_equal(
            sc_lossless_decode(code, channel, profile, side=side), x)
        fractional = side.astype(float)
        fractional[1, 7] = bad
        with pytest.raises(ValueError, match="integer-valued"):
            sc_lossless_decode(code, channel, profile, side=fractional)


class TestMalformedBlocks:
    """Encoders refuse blocks that are not (B, N) arrays of the coded alphabet."""

    def test_lossless_rejects_one_dimensional_blocks(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 256)
        with pytest.raises(ValueError, match=r"\(B, N\)"):
            sc_lossless_encode(np.zeros(256, dtype=np.uint8), channel, profile,
                               stored_fraction=0.7)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_lossless_rejects_values_outside_bits(self, profile_store, bad):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 256)
        x = np.zeros((2, 256))
        x[1, 7] = bad
        with pytest.raises(ValueError, match=r"bits in \{0, 1\}"):
            sc_lossless_encode(x, channel, profile, stored_fraction=0.7)

    def test_lossy_rejects_one_dimensional_blocks(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 1024)
        with pytest.raises(ValueError, match=r"\(B, N\)"):
            sc_lossy_encode(np.zeros(1024, dtype=np.int64), channel, profile,
                            shared_seed=1)


class TestLosslessCodeShape:
    """The decoder refuses a code built for another block length or batch."""

    @pytest.mark.parametrize("stored_fraction", [0.3, 1.0])
    def test_code_for_another_block_length(self, profile_store, stored_fraction):
        channel = lossless_source(0.11)
        x, _ = channel.sample(2, 64, rng.stream(54, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile_store(channel, 64),
                                  stored_fraction=stored_fraction)
        assert any(len(t) for t in code.corrections) == (stored_fraction < 1.0)
        with pytest.raises(ValueError, match="stored_mask"):
            sc_lossless_decode(code, channel, profile_store(channel, 32))

    def test_inconsistent_code(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 64)
        x, _ = channel.sample(2, 64, rng.stream(55, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile, stored_fraction=0.5)
        bad_codes = {
            "stored_bits": [replace(code, stored_bits=code.stored_bits[:, 1:]),
                            replace(code, stored_bits=code.stored_bits[:1]),
                            replace(code, stored_bits=code.stored_bits[0])],
            # a float mask or index array would reach numpy indexing
            "stored_mask": [replace(code, stored_mask=code.stored_mask.astype(float))],
            "corrections": [replace(code, corrections=(np.array([64]),) * 2),
                            replace(code, corrections=(np.array([-1]),) * 2),
                            replace(code, corrections=(np.array([3.0]),) * 2)],
        }
        for match, codes in bad_codes.items():
            for bad in codes:
                with pytest.raises(ValueError, match=match):
                    sc_lossless_decode(bad, channel, profile)


class TestDecoderBitAlphabet:
    """Decoders refuse stored bits and payloads outside {0, 1} rather than
    decoding them into blocks over a wider alphabet."""

    def test_lossless_stored_bits(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 64)
        x, _ = channel.sample(2, 64, rng.stream(56, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile, stored_fraction=0.5)
        bad = replace(code, stored_bits=code.stored_bits + 2)
        with pytest.raises(ValueError, match=r"bits in \{0, 1\}"):
            sc_lossless_decode(bad, channel, profile)

    def test_lossy_payload(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 512)
        _, obs = channel.sample(2, 512, rng.stream(73, rng.STREAM_SOURCE))
        payload, _ = sc_lossy_encode(obs, channel, profile, shared_seed=3)
        bad = payload.astype(np.int64)
        bad[1, 0] = -1
        with pytest.raises(ValueError, match=r"bits in \{0, 1\}"):
            sc_lossy_reconstruct(bad, channel, profile, shared_seed=3)


class TestRate1Shortcuts:
    """Rate-1 nodes of sign-decided leaves skip their subtrees without
    moving any output."""

    def test_lossless_decoder_asks_only_corrected_leaves(self, profile_store,
                                                          monkeypatch):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 1024)
        x, _ = channel.sample(16, 1024, rng.stream(57, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile, stored_fraction=0.55)
        corrected = sorted(set(np.concatenate(code.corrections).tolist()))
        assert corrected
        asked = []
        traverse = profile_module.sc_traverse

        def recording(evidence, decide, **kwargs):
            def asking(i, llr):
                asked.append(i)
                return decide(i, llr)

            return traverse(evidence, asking, **kwargs)

        monkeypatch.setattr(profile_module, "sc_traverse", recording)
        np.testing.assert_array_equal(sc_lossless_decode(code, channel, profile), x)
        assert asked == corrected

    @pytest.mark.parametrize("prior, crossover, name", [
        (0.5, 0.11, "bsc-quantizer"), (0.2, 0.1, "skewed-quantizer")])
    def test_lossy_outputs_independent_of_batch_size(
            self, profile_store, monkeypatch, prior, crossover, name):
        """The shortcut's guard takes a minimum over the batch, so passes
        over 64, 7 and 1 blocks skip different subtrees; payloads and
        reconstructions stay those of the pass that skips no FREE leaf."""
        channel = make_quantizer_source(prior, bsc_forward(crossover), name=name)
        profile = profile_store(channel, 1024)
        _, obs = channel.sample(64, 1024, rng.stream(74, rng.STREAM_SOURCE))
        chains = 2 if profile.has_deterministic else 1
        outputs = []
        for batch in (64, 7, 1):
            monkeypatch.setattr(sc_module, "_BATCH_VALUES", batch * chains * 1024)
            outputs.append(sc_lossy_encode(obs, channel, profile, shared_seed=87))
        monkeypatch.setattr(coding_module, "_rounding_margins",
                            lambda uniforms: np.full(uniforms.shape, np.inf))
        outputs.append(sc_lossy_encode(obs, channel, profile, shared_seed=87))
        payload, recon = outputs[0]
        for other_payload, other_recon in outputs[1:]:
            np.testing.assert_array_equal(other_payload, payload)
            np.testing.assert_array_equal(other_recon, recon)
        np.testing.assert_array_equal(
            sc_lossy_reconstruct(payload, channel, profile, shared_seed=87), recon)
