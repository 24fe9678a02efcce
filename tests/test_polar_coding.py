"""Coding-layer tests: exact lossless round trips, flag accounting,
shared-dither batch independence, encoder/decoder reconstruction agreement
on both the fast path (uniform prior) and the prior-chain path, the
coders' rate-1 shortcuts (no output moves with the batch), decoders that
ask no leaf of a callback (lossless decoding and lossy and lattice replay
are one replay), the refusal of malformed blocks, codes and flags,
stacked twin branches that code every row as it would be coded alone, and
bounded depth-first walks."""

import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from graywyner import rng
from graywyner.gaussian import GaussianPairModel, reduce_pair
from graywyner.lattice import (
    LATTICE_STREAM_BASE,
    MAX_LEVELS,
    build_multilevel_code,
    lattice_quantize,
    lattice_reconstruct,
    plan_chain,
)
from graywyner.polar import (
    CLASS_FROZEN_DETERMINISTIC,
    CLASS_INFO,
    PolarCode,
    crossover_side_info,
    lossless_source,
    polar_transform,
    sc_lossless_decode,
    sc_lossless_encode,
    sc_lossy_encode,
    sc_lossy_reconstruct,
)
from graywyner.polar import profile as profile_module
from graywyner.polar import sc as sc_module
from graywyner.polar import test_channel_source as make_quantizer_source
from graywyner.polar.sc import map_bits

A1 = 0.0584119566836076573


def has_deterministic(profile):
    """Whether the profile has frozen-deterministic (prior-decided) indices."""
    return bool((profile.classes == CLASS_FROZEN_DETERMINISTIC).any())


def storing(profile, fraction):
    """The profile with e_cond 1 at the ceil(fraction N) indices of largest
    h_cond and 0 elsewhere, so (for N > 1) its stored set is those indices."""
    count = int(np.ceil(fraction * profile.block_len))
    e_cond = np.zeros(profile.block_len)
    e_cond[np.argsort(-profile.h_cond, kind="stable")[:count]] = 1.0
    return replace(profile, e_cond=e_cond)


def assert_same_code(got, want, rows=slice(None)):
    """got equals the rows of want: the same sent bits and flags."""
    np.testing.assert_array_equal(got.sent, want.sent[rows])
    np.testing.assert_array_equal(got.flags, want.flags[rows])


def bsc_forward(crossover):
    a = float(crossover)
    return np.array([[1.0 - a, a], [a, 1.0 - a]])


class TestLossless:
    def test_plain_round_trip_exact(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 1024)
        x, _ = channel.sample(8, 1024, rng.stream(50, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile)
        np.testing.assert_array_equal(sc_lossless_decode(code, channel, profile), x)

    def test_side_info_round_trip_exact(self, profile_store):
        channel = crossover_side_info(A1)
        profile = profile_store(channel, 1024)
        x, y = channel.sample(8, 1024, rng.stream(51, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile, side=y)
        decoded = sc_lossless_decode(code, channel, profile, side=y)
        np.testing.assert_array_equal(decoded, x)

    def test_store_everything_needs_no_corrections(self, profile_store):
        channel = lossless_source(0.11)
        profile = replace(profile_store(channel, 256), e_cond=np.ones(256))
        x, _ = channel.sample(4, 256, rng.stream(52, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile)
        assert all(len(t) == 0 for t in code.corrections)
        assert np.all(code.rate_per_block() == 1.0)
        np.testing.assert_array_equal(sc_lossless_decode(code, channel, profile), x)

    def test_rate_accounting(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 256)
        x, _ = channel.sample(4, 256, rng.stream(53, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile)
        stored = int(profile.stored_mask().sum())
        assert code.sent.shape == (4, stored)
        per_block = code.rate_per_block()
        fixes = np.array([len(t) for t in code.corrections])
        np.testing.assert_allclose(
            per_block, (stored + fixes * (np.log2(256) + 1)) / 256)

    def test_corrections_rare_at_adequate_rate(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 4096)
        x, _ = channel.sample(10, 4096, rng.stream(54, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile)
        total_fixes = sum(len(t) for t in code.corrections)
        assert total_fixes / (10 * 4096) < 5e-3

    def test_rejects_mismatched_profile(self, profile_store):
        profile = profile_store(lossless_source(0.11), 256)
        other = lossless_source(0.2)
        x = np.zeros((2, 256), dtype=np.uint8)
        with pytest.raises(ValueError):
            sc_lossless_encode(x, other, profile)


class TestLossyUniformPrior:
    def test_exact_when_observation_reveals_everything(self, profile_store):
        channel = make_quantizer_source(0.5, np.eye(2), name="identity-observation")
        profile = profile_store(channel, 512)
        obs = rng.stream(60, rng.STREAM_SOURCE).integers(0, 2, size=(6, 512))
        _, recon = sc_lossy_encode(obs, channel, profile, shared_seed=77)
        np.testing.assert_array_equal(recon, obs)

    def test_decoder_matches_encoder_reconstruction(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 1024)
        obs = rng.stream(61, rng.STREAM_SOURCE).integers(0, 2, size=(6, 1024))
        code, recon = sc_lossy_encode(obs, channel, profile, shared_seed=78)
        rebuilt = sc_lossy_reconstruct(code, channel, profile, shared_seed=78)
        np.testing.assert_array_equal(rebuilt, recon)

    def test_payload_is_info_bits(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 1024)
        obs = rng.stream(62, rng.STREAM_SOURCE).integers(0, 2, size=(3, 1024))
        code, recon = sc_lossy_encode(obs, channel, profile, shared_seed=79)
        u = polar_transform(recon)
        np.testing.assert_array_equal(code.sent, u[:, profile.info_positions()])

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
        code_all, rec_all = sc_lossy_encode(obs, channel, profile, shared_seed=81)
        code_a, rec_a = sc_lossy_encode(obs[:5], channel, profile, shared_seed=81)
        code_b, rec_b = sc_lossy_encode(obs[5:], channel, profile, shared_seed=81,
                                        block_offset=5)
        np.testing.assert_array_equal(np.vstack([code_a.sent, code_b.sent]), code_all.sent)
        np.testing.assert_array_equal(np.vstack([rec_a, rec_b]), rec_all)
        # no D index here
        assert not any(map(len, code_all.corrections + code_a.corrections
                           + code_b.corrections))
        rebuilt_b = sc_lossy_reconstruct(code_b, channel, profile, shared_seed=81,
                                         block_offset=5)
        np.testing.assert_array_equal(rebuilt_b, rec_b)

    def test_levels_use_distinct_dither(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 512)
        obs = rng.stream(65, rng.STREAM_SOURCE).integers(0, 2, size=(4, 512))
        _, rec0 = sc_lossy_encode(obs, channel, profile, shared_seed=82, level=0)
        _, rec1 = sc_lossy_encode(obs, channel, profile, shared_seed=82, level=1)
        assert np.any(rec0 != rec1)


class TestLossyNonuniformPrior:
    """Nonuniform reconstruction prior: deterministic indices replayed from
    the prior chain, flipped where the encoder's corrections say, must
    agree bit for bit with the encoder's one-chain pass."""

    def test_decoder_matches_encoder_reconstruction(self, profile_store):
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 1024)
        assert has_deterministic(profile)
        gen = rng.stream(70, rng.STREAM_SOURCE)
        _, obs = channel.sample(6, 1024, gen)
        code, recon = sc_lossy_encode(obs, channel, profile, shared_seed=84)
        rebuilt = sc_lossy_reconstruct(code, channel, profile, shared_seed=84)
        np.testing.assert_array_equal(rebuilt, recon)

    def test_batch_independence(self, profile_store):
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 512)
        _, obs = channel.sample(7, 512, rng.stream(71, rng.STREAM_SOURCE))
        code_all, rec_all = sc_lossy_encode(obs, channel, profile, shared_seed=85)
        code_b, rec_b = sc_lossy_encode(obs[3:], channel, profile, shared_seed=85,
                                        block_offset=3)
        assert_same_code(code_b, code_all, slice(3, None))
        np.testing.assert_array_equal(rec_b, rec_all[3:])

    def test_corrections_flip_the_prior_decisions(self, profile_store):
        """Flags are bits set at D indices only, corrections lists each
        block's flagged indices, and the replay without flags differs from
        the encoder's reconstruction in exactly the blocks that have some."""
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 1024)
        _, obs = channel.sample(32, 1024, rng.stream(71, rng.STREAM_SOURCE))
        code, recon = sc_lossy_encode(obs, channel, profile, shared_seed=85)
        deterministic = profile.classes == CLASS_FROZEN_DETERMINISTIC
        assert code.flags.dtype == np.uint8 and code.flags.shape == (32, 1024)
        assert code.flags.max() == 1 and not code.flags[:, ~deterministic].any()
        for row, idx in zip(code.flags, code.corrections, strict=True):
            assert idx.dtype == np.int64
            np.testing.assert_array_equal(idx, np.flatnonzero(row))
        corrected = code.flags.any(axis=1)
        uncorrected = sc_lossy_reconstruct(
            replace(code, flags=np.zeros_like(code.flags)), channel, profile,
            shared_seed=85)
        np.testing.assert_array_equal((uncorrected != recon).any(axis=1), corrected)

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
        assert has_deterministic(profile) == (prior != 0.5)
        obs = np.zeros((0, 512), dtype=np.int64)
        code, recon = sc_lossy_encode(obs, channel, profile, shared_seed=1)
        assert code.sent.shape == (0, len(profile.info_positions()))
        assert code.flags.shape == (0, 512) and code.corrections == ()
        assert code.n_blocks == 0
        assert code.sent.dtype == recon.dtype == np.uint8
        assert recon.shape == (0, 512)
        rebuilt = sc_lossy_reconstruct(code, channel, profile, shared_seed=1)
        assert rebuilt.shape == (0, 512) and rebuilt.dtype == np.uint8

    def test_lossless(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 256)
        code = sc_lossless_encode(np.zeros((0, 256), dtype=np.uint8), channel,
                                  profile)
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
            sc_lossless_encode(x, channel, profile, side=side)
        code = sc_lossless_encode(x, channel, profile,
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
                               profile, side=side)

    @pytest.mark.parametrize("bad", [0.7, np.nan])
    def test_lossless_decode_side_not_integer(self, profile_store, bad):
        channel = crossover_side_info(0.1)
        profile = profile_store(channel, 256)
        x = np.zeros((2, 256), dtype=np.uint8)
        side = np.zeros((2, 256), dtype=bool)
        code = sc_lossless_encode(x, channel, profile, side=side)
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
            sc_lossless_encode(np.zeros(256, dtype=np.uint8), channel, profile)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_lossless_rejects_values_outside_bits(self, profile_store, bad):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 256)
        x = np.zeros((2, 256))
        x[1, 7] = bad
        with pytest.raises(ValueError, match=r"bits in \{0, 1\}"):
            sc_lossless_encode(x, channel, profile)

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
        code = sc_lossless_encode(
            x, channel, storing(profile_store(channel, 64), stored_fraction))
        assert code.flags.any() == (stored_fraction < 1.0)
        with pytest.raises(ValueError, match="sent"):
            sc_lossless_decode(code, channel,
                               storing(profile_store(channel, 32), stored_fraction))

    def test_inconsistent_code(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 64)
        x, _ = channel.sample(2, 64, rng.stream(55, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile)
        assert 0 < profile.stored_mask().sum() < 64
        bad_codes = {
            "sent": [replace(code, sent=code.sent[:, 1:]),
                     replace(code, sent=code.sent[:1]),
                     replace(code, sent=code.sent[0]),
                     # the flags' rows are the code's blocks
                     replace(code, flags=code.flags[:1])],
            "flags must hold bits": [replace(code, flags=bad)
                                     for bad in _odd_flags(code.flags)],
        }
        for match, codes in bad_codes.items():
            for bad in codes:
                with pytest.raises(ValueError, match=match):
                    sc_lossless_decode(bad, channel, profile)


def _odd_flags(flags):
    """Non-bits in the (B, N) flags, which a uint8 cast would wrap or
    truncate into bits: a -1 and a 0.5."""
    negative = flags.astype(np.int64)
    negative[0, 0] = -1
    fraction = flags.astype(float)
    fraction[1, 0] = 0.5
    return [negative, fraction]


class TestLossyCorrectionsChecked:
    """The lossy and lattice replays refuse malformed flags, as the
    lossless decoder does (TestLosslessCodeShape)."""

    def test_inconsistent_lossy_corrections(self, profile_store):
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 512)
        _, obs = channel.sample(2, 512, rng.stream(80, rng.STREAM_SOURCE))
        code, recon = sc_lossy_encode(obs, channel, profile, shared_seed=4)
        np.testing.assert_array_equal(
            sc_lossy_reconstruct(code, channel, profile, shared_seed=4), recon)
        for bad in _odd_flags(code.flags):
            with pytest.raises(ValueError, match="flags must hold bits"):
                sc_lossy_reconstruct(replace(code, flags=bad), channel, profile,
                                     shared_seed=4)

    def test_inconsistent_lattice_corrections(self, cache_dir):
        mmse = reduce_pair(GaussianPairModel(0.8)).mmse
        code = build_multilevel_code(plan_chain(mmse), mmse, 512, sample_count=32,
                                     seed=3, cache_dir=cache_dir)
        samples = rng.stream(81, rng.STREAM_SOURCE).normal(size=(2, 512))
        codes, recon = lattice_quantize(samples, code, shared_seed=5)
        np.testing.assert_array_equal(
            lattice_reconstruct(codes, code, shared_seed=5), recon)
        with pytest.raises(ValueError, match="per-level codes"):
            lattice_reconstruct(codes[:-1], code, shared_seed=5)
        level = next(k for k, p in enumerate(code.profiles) if has_deterministic(p))
        for bad in _odd_flags(codes[level].flags):
            bad_codes = (codes[:level] + (replace(codes[level], flags=bad),)
                         + codes[level + 1:])
            with pytest.raises(ValueError, match="flags must hold bits"):
                lattice_reconstruct(bad_codes, code, shared_seed=5)


def _flagged_code(kind, profile_store, cache_dir):
    """(code, decode, sent, decided) for a decoder kind: a two-block code,
    the decoder's map from such a code to its blocks, and the (N,) sent
    and decoder-decided masks.  A lattice code is the level code of its
    first level with decoder-decided leaves, the others held."""
    if kind == "lossless":
        channel = lossless_source(0.11)
        profile = profile_store(channel, 64)
        x, _ = channel.sample(2, 64, rng.stream(55, rng.STREAM_SOURCE))
        stored = profile.stored_mask()

        def decode(code):
            return sc_lossless_decode(code, channel, profile)
        return sc_lossless_encode(x, channel, profile), decode, stored, ~stored
    if kind == "lossy":
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 512)
        _, obs = channel.sample(2, 512, rng.stream(80, rng.STREAM_SOURCE))
        code, _ = sc_lossy_encode(obs, channel, profile, shared_seed=4)

        def decode(code):
            return sc_lossy_reconstruct(code, channel, profile, shared_seed=4)
    else:
        mmse = reduce_pair(GaussianPairModel(0.8)).mmse
        lattice = build_multilevel_code(plan_chain(mmse), mmse, 512, sample_count=32,
                                        seed=3, cache_dir=cache_dir)
        samples = rng.stream(81, rng.STREAM_SOURCE).normal(size=(2, 512))
        codes, _ = lattice_quantize(samples, lattice, shared_seed=5)
        level = next(k for k, p in enumerate(lattice.profiles) if has_deterministic(p))
        code, profile = codes[level], lattice.profiles[level]

        def decode(code):
            return lattice_reconstruct(codes[:level] + (code,) + codes[level + 1:],
                                       lattice, shared_seed=5)
    return (code, decode, profile.classes == CLASS_INFO,
            profile.classes == CLASS_FROZEN_DETERMINISTIC)


class TestFlagsChecked:
    """Each decoder refuses flags that are not one bit per leaf of each
    block, set at decoder-decided leaves only, and a code whose flags hold
    no block while its sent bits hold two."""

    @pytest.mark.parametrize("kind, case", [
        (kind, case) for kind in ("lossless", "lossy", "lattice")
        for case in ("shape", "two", "sent", "frozen", "no_blocks")
        # a lossless code sends or decides every leaf
        if (kind, case) != ("lossless", "frozen")])
    def test_refused(self, profile_store, cache_dir, kind, case):
        code, decode, sent, decided = _flagged_code(kind, profile_store, cache_dir)
        decode(code)
        flags = code.flags.copy()
        match = "outside the decoder-decided"
        if case == "shape":
            flags, match = flags[:, 1:], "flags must have shape"
        elif case == "two":
            flags[1, np.flatnonzero(decided)[0]] = 2
            match = r"flags must hold bits in \{0, 1\}"
        elif case == "no_blocks":
            flags = flags[:0]
            match = "same blocks" if kind == "lattice" else "sent must have shape"
        else:
            leaves = np.flatnonzero(sent if case == "sent" else ~(sent | decided))
            flags[0, leaves[0]] = 1
        with pytest.raises(ValueError, match=match):
            decode(replace(code, flags=flags))


class TestCorrectionsAsSequences:
    """A code's flags may be any nested sequence of bits: lists and tuples
    decode as the array does, and count and list the same corrections."""

    def test_lists_and_tuples_decode(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 64)
        x, _ = channel.sample(6, 64, rng.stream(56, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile)
        lengths = [len(c) for c in code.corrections]
        assert 0 in lengths and max(lengths) > 0
        for form in (list, tuple):
            flags = form(form(int(f) for f in row) for row in code.flags)
            seq = replace(code, flags=flags)
            assert seq.n_blocks == 6
            np.testing.assert_array_equal(seq.rate_per_block(),
                                          code.rate_per_block())
            for got, want in zip(seq.corrections, code.corrections, strict=True):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                sc_lossless_decode(seq, channel, profile), x)


class TestDecoderBitAlphabet:
    """Decoders refuse stored bits and payloads outside {0, 1} rather than
    decoding them into blocks over a wider alphabet."""

    def test_lossless_stored_bits(self, profile_store):
        channel = lossless_source(0.11)
        profile = profile_store(channel, 64)
        x, _ = channel.sample(2, 64, rng.stream(56, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile)
        bad = replace(code, sent=code.sent + 2)
        with pytest.raises(ValueError, match=r"bits in \{0, 1\}"):
            sc_lossless_decode(bad, channel, profile)

    def test_lossy_payload(self, profile_store):
        channel = make_quantizer_source(0.5, bsc_forward(0.11), name="bsc-quantizer")
        profile = profile_store(channel, 512)
        _, obs = channel.sample(2, 512, rng.stream(73, rng.STREAM_SOURCE))
        code, _ = sc_lossy_encode(obs, channel, profile, shared_seed=3)
        bad = code.sent.astype(np.int64)
        bad[1, 0] = -1
        with pytest.raises(ValueError, match=r"bits in \{0, 1\}"):
            sc_lossy_reconstruct(replace(code, sent=bad), channel, profile, shared_seed=3)


class TestRate1Shortcuts:
    """Rate-1 nodes of sign-decided leaves skip their subtrees without
    moving any output, and no decoder pass calls back."""

    @pytest.fixture
    def asked(self, monkeypatch):
        """Records every call a depth-first SC pass makes to its second
        argument, which is wrapped in a callable as perfbench's tracer
        wraps it, and how many passes with a plan ran; a test resets it
        after encoding."""
        record = {"leaves": [], "passes": 0}
        traverse = profile_module.sc_traverse

        def recording(evidence, stats, **kwargs):
            if kwargs.get("known") is not None:
                return traverse(evidence, stats, **kwargs)
            if kwargs.get("plan") is not None:
                record["passes"] += 1

            def asking(i, llr):
                record["leaves"].append(i)
                return stats(i, llr)

            return traverse(evidence, asking, **kwargs)

        monkeypatch.setattr(profile_module, "sc_traverse", recording)
        return record

    def test_lossless_decoder_asks_no_leaf(self, profile_store, asked):
        """Corrected leaves take the sign rule flipped by their plan bit,
        so the decoder's pass decides every leaf without a callback."""
        channel = lossless_source(0.11)
        profile = profile_store(channel, 1024)
        x, _ = channel.sample(16, 1024, rng.stream(57, rng.STREAM_SOURCE))
        code = sc_lossless_encode(x, channel, profile)
        assert sum(map(len, code.corrections))
        asked.update(leaves=[], passes=0)
        np.testing.assert_array_equal(sc_lossless_decode(code, channel, profile), x)
        assert asked == {"leaves": [], "passes": 1}

    def test_lossy_replay_asks_no_leaf(self, profile_store, asked):
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 1024)
        assert has_deterministic(profile)
        _, obs = channel.sample(8, 1024, rng.stream(58, rng.STREAM_SOURCE))
        code, recon = sc_lossy_encode(obs, channel, profile, shared_seed=86)
        asked.update(leaves=[], passes=0)
        np.testing.assert_array_equal(
            sc_lossy_reconstruct(code, channel, profile, shared_seed=86), recon)
        assert asked == {"leaves": [], "passes": 1}

    def test_lattice_replay_asks_no_leaf(self, cache_dir, asked):
        mmse = reduce_pair(GaussianPairModel(0.8)).mmse
        code = build_multilevel_code(plan_chain(mmse), mmse, 512, sample_count=32,
                                     seed=3, cache_dir=cache_dir)
        replayed = sum(map(has_deterministic, code.profiles))
        assert replayed
        samples = rng.stream(59, rng.STREAM_SOURCE).normal(size=(4, 512))
        codes, recon = lattice_quantize(samples, code, shared_seed=59)
        asked.update(leaves=[], passes=0)
        np.testing.assert_array_equal(
            lattice_reconstruct(codes, code, shared_seed=59), recon)
        assert asked == {"leaves": [], "passes": replayed}

    @pytest.mark.parametrize("prior, crossover, name", [
        (0.5, 0.11, "bsc-quantizer"), (0.2, 0.1, "skewed-quantizer")])
    def test_lossy_outputs_independent_of_batch_size(
            self, profile_store, monkeypatch, prior, crossover, name):
        """The shortcut's guard takes a minimum over the batch, so passes
        over 64, 7 and 1 blocks skip different subtrees; payloads and
        reconstructions stay those of the pass that skips no subtree (an
        infinite guard, with ln 2 patched to inf)."""
        channel = make_quantizer_source(prior, bsc_forward(crossover), name=name)
        profile = profile_store(channel, 1024)
        _, obs = channel.sample(64, 1024, rng.stream(74, rng.STREAM_SOURCE))
        outputs = []
        for batch in (64, 7, 1):
            monkeypatch.setattr(profile_module, "_BATCH_VALUES", batch * 1024)
            outputs.append(sc_lossy_encode(obs, channel, profile, shared_seed=87))
        monkeypatch.setattr(sc_module, "_LN2", np.inf)
        outputs.append(sc_lossy_encode(obs, channel, profile, shared_seed=87))
        code, recon = outputs[0]
        for other_code, other_recon in outputs[1:]:
            assert_same_code(other_code, code)
            np.testing.assert_array_equal(other_recon, recon)
        np.testing.assert_array_equal(
            sc_lossy_reconstruct(code, channel, profile, shared_seed=87), recon)


class TestGroupedBranches:
    """Branches that code with one profile, stacked into one call with a
    tuple of stream levels (or lattice stream bases), one per equal group
    of rows: every row is coded as a call on its group alone codes it."""

    @pytest.mark.parametrize("block_offset", [0, 5])
    def test_lossy_levels_match_separate_calls(self, profile_store, block_offset):
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 1024)
        assert has_deterministic(profile)  # corrections, and a replay that walks
        _, obs = channel.sample(6, 1024, rng.stream(75, rng.STREAM_SOURCE))
        kw = dict(shared_seed=88, block_offset=block_offset)
        code, recon = sc_lossy_encode(obs, channel, profile, level=(1, 2), **kw)
        for rows, level in ((slice(0, 3), 1), (slice(3, 6), 2)):
            alone, alone_recon = sc_lossy_encode(
                obs[rows], channel, profile, level=level, **kw)
            assert_same_code(alone, code, rows)
            np.testing.assert_array_equal(recon[rows], alone_recon)
            np.testing.assert_array_equal(
                sc_lossy_reconstruct(alone, channel, profile, level=level, **kw),
                recon[rows])
        np.testing.assert_array_equal(
            sc_lossy_reconstruct(code, channel, profile, level=(1, 2), **kw), recon)

    def test_lattice_stream_bases_match_separate_calls(self, cache_dir):
        mmse = reduce_pair(GaussianPairModel(0.8)).mmse
        code = build_multilevel_code(plan_chain(mmse), mmse, 512, sample_count=32,
                                     seed=3, cache_dir=cache_dir)
        samples = rng.stream(60, rng.STREAM_SOURCE).normal(size=(6, 512))
        bases = (LATTICE_STREAM_BASE, LATTICE_STREAM_BASE + MAX_LEVELS)
        codes, recon = lattice_quantize(samples, code, shared_seed=61,
                                        stream_base=bases)
        for rows, base in ((slice(0, 3), bases[0]), (slice(3, 6), bases[1])):
            alone_codes, alone_recon = lattice_quantize(
                samples[rows], code, shared_seed=61, stream_base=base)
            for level_code, alone in zip(codes, alone_codes, strict=True):
                assert_same_code(alone, level_code, rows)
            np.testing.assert_array_equal(recon[rows], alone_recon)
        np.testing.assert_array_equal(
            lattice_reconstruct(codes, code, shared_seed=61, stream_base=bases),
            recon)

    def test_lossless_stacked_blocks_match_separate_calls(self, profile_store):
        channel = crossover_side_info(A1)
        profile = profile_store(channel, 1024)
        x, y = channel.sample(6, 1024, rng.stream(76, rng.STREAM_SOURCE))
        stacked = sc_lossless_encode(x, channel, profile, side=y)
        for rows in (slice(0, 3), slice(3, 6)):
            alone = sc_lossless_encode(x[rows], channel, profile, side=y[rows])
            assert_same_code(alone, stacked, rows)
            np.testing.assert_array_equal(
                sc_lossless_decode(alone, channel, profile, side=y[rows]), x[rows])
        assert sum(map(len, stacked.corrections))  # the decoder corrects leaves
        np.testing.assert_array_equal(
            sc_lossless_decode(stacked, channel, profile, side=y), x)

    @pytest.mark.parametrize("level, blocks", [((1, 2), 5), ((1, 2, 3), 4), ((), 4)])
    def test_levels_that_do_not_split_the_rows_are_refused(
            self, profile_store, level, blocks):
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 1024)
        _, obs = channel.sample(blocks, 1024, rng.stream(77, rng.STREAM_SOURCE))
        with pytest.raises(ValueError, match="equal groups"):
            sc_lossy_encode(obs, channel, profile, shared_seed=89, level=level)
        code = PolarCode(np.zeros((blocks, len(profile.info_positions())), dtype=np.uint8),
                         np.zeros((blocks, 1024), dtype=np.uint8))
        with pytest.raises(ValueError, match="equal groups"):
            sc_lossy_reconstruct(code, channel, profile, shared_seed=89, level=level)

    def test_stream_bases_that_do_not_split_the_rows_are_refused(self, cache_dir):
        mmse = reduce_pair(GaussianPairModel(0.8)).mmse
        code = build_multilevel_code(plan_chain(mmse), mmse, 512, sample_count=32,
                                     seed=3, cache_dir=cache_dir)
        samples = rng.stream(62, rng.STREAM_SOURCE).normal(size=(3, 512))
        for bases in ((LATTICE_STREAM_BASE, LATTICE_STREAM_BASE + MAX_LEVELS), ()):
            with pytest.raises(ValueError, match="equal groups"):
                lattice_quantize(samples, code, shared_seed=63, stream_base=bases)


class TestDepthFirstWalks:
    """Depth-first walks are bounded by profile._BATCH_VALUES and free the
    posteriors they are given before their first f-step."""

    def test_one_chain_pass_of_256_blocks_takes_two_walks(self, profile_store,
                                                          monkeypatch):
        """The encoder walks one chain, also where the profile has D
        indices, so 256 blocks at N=4096 are two walks of 128 blocks, which
        agree with one walk of 256."""
        channel = make_quantizer_source(0.2, bsc_forward(0.1), name="skewed-quantizer")
        profile = profile_store(channel, 4096)
        assert has_deterministic(profile)
        _, obs = channel.sample(256, 4096, rng.stream(78, rng.STREAM_SOURCE))
        traverse = profile_module.sc_traverse
        walks = []

        def recording(evidence, stats, **kwargs):
            out = traverse(evidence, stats, **kwargs)
            if kwargs.get("plan") is not None:  # not the corrections' pass
                walks.append((evidence.shape[:2], *out))
            return out

        monkeypatch.setattr(profile_module, "sc_traverse", recording)
        sc_lossy_encode(obs, channel, profile, shared_seed=90)
        assert [shape for shape, _, _ in walks] == [(1, 128), (1, 128)]
        monkeypatch.setattr(profile_module, "_BATCH_VALUES", 1 << 23)
        sc_lossy_encode(obs, channel, profile, shared_seed=90)
        assert [shape for shape, _, _ in walks[2:]] == [(1, 256)]
        for k in (1, 2):  # u, then x
            np.testing.assert_array_equal(
                np.concatenate([walk[k] for walk in walks[:2]]), walks[2][k])

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "before 3.11 CPython keeps every call argument on the caller's stack "
        "until the call returns"))
    def test_walk_frees_its_posteriors_before_the_first_leaf(self, monkeypatch):
        channel = crossover_side_info(A1)
        _, y = channel.sample(4, 64, rng.stream(79, rng.STREAM_SOURCE))
        returned, alive = [], []

        def cond(start, stop):
            evidence = channel.leaf_evidence(y[start:stop])
            returned.append(weakref.ref(evidence))
            return evidence

        f_step = sc_module._f_step

        def checking(*args, **kwargs):
            alive.append(returned[-1]() is not None)
            return f_step(*args, **kwargs)

        monkeypatch.setattr(sc_module, "_f_step", checking)
        profile_module.traverse_batches(cond, None, plan=(
            np.zeros(64, dtype=bool), np.zeros((4, 64), np.uint8)))
        assert alive and not any(alive)
