"""SC engine tests: the LLR recursion against a probability-pair reference,
bitwise agreement of the breadth-first and depth-first passes, infinite and
contradictory evidence, and lossless round trips whose uncertain positions
are mostly decided by maximum posterior."""

import warnings

import numpy as np
import pytest

from graywyner import rng
from graywyner.polar import (
    construct_profile,
    crossover_side_info,
    lossless_source,
    polar_transform,
    sc_lossless_decode,
    sc_lossless_encode,
    sc_traverse,
)
from graywyner.polar import sc as sc_module


def _normalize_pairs(p0, p1):
    out = np.stack([p0, p1], axis=-1)
    s = out.sum(axis=-1, keepdims=True)
    bad = s == 0.0
    return np.where(bad, 0.5, out / np.where(bad, 1.0, s))


def reference_traverse(evidence, decide):
    """Depth-first SC in normalized probability pairs, renormalized after
    every combine: the reference the LLR engine must reproduce."""
    n_blocks, block_len = evidence.shape[1:3]
    u_out = np.empty((n_blocks, block_len), dtype=np.uint8)
    cursor = [0]

    def rec(ev):
        if ev.shape[2] == 1:
            i = cursor[0]
            cursor[0] += 1
            bits = np.asarray(decide(i, ev[:, :, 0, :]), dtype=np.uint8)
            u_out[:, i] = bits
            return bits[:, None]
        half = ev.shape[2] // 2
        a0, a1 = ev[:, :, :half, 0], ev[:, :, :half, 1]
        b0, b1 = ev[:, :, half:, 0], ev[:, :, half:, 1]
        v = rec(_normalize_pairs(a0 * b0 + a1 * b1, a0 * b1 + a1 * b0))
        known = v[None].astype(bool)
        sel0 = np.where(known, a1, a0)
        sel1 = np.where(known, a0, a1)
        tail = rec(_normalize_pairs(sel0 * b0, sel1 * b1))
        return np.concatenate([v ^ tail, tail], axis=1)

    return u_out, rec(np.asarray(evidence, dtype=float))


def _evidence(kind, n_chains, n_blocks, block_len, seed):
    gen = np.random.default_rng(seed)
    if kind == "random":
        p1 = gen.random((n_chains, n_blocks, block_len))
    else:  # near-deterministic: posteriors within 1e-12 of 0 or 1
        p1 = gen.integers(0, 2, (n_chains, n_blocks, block_len)) + np.where(
            gen.random((n_chains, n_blocks, block_len)) < 0.5, 1.0, -1.0) * 1e-12
        p1 = np.clip(p1, 0.0, 1.0)
    return np.stack([1.0 - p1, p1], axis=-1)


def _depth_first_leaves(evidence, u):
    seen = np.empty(evidence.shape)

    def decide(i, probs):
        seen[:, :, i] = probs
        return u[:, i]

    sc_traverse(evidence, decide)
    return seen


def _breadth_first_leaves(evidence, u):
    seen = {}

    def stats(leaves, probs):
        seen["probs"] = probs

    sc_traverse(evidence, stats, known=u)
    return seen["probs"]


@pytest.mark.parametrize("kind", ["random", "near-deterministic"])
@pytest.mark.parametrize("n_chains", [1, 2])
@pytest.mark.parametrize("block_len", [8, 64, 1024])
class TestAgainstPairReference:
    def test_leaf_posteriors_match_reference(self, kind, n_chains, block_len):
        evidence = _evidence(kind, n_chains, 3, block_len, seed=block_len + n_chains)
        u = np.random.default_rng(block_len).integers(
            0, 2, (3, block_len)).astype(np.uint8)
        expected = np.empty(evidence.shape)

        def decide(i, probs):
            expected[:, :, i] = probs
            return u[:, i]

        _, x_ref = reference_traverse(evidence, decide)
        np.testing.assert_allclose(_depth_first_leaves(evidence, u), expected,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(x_ref, polar_transform(u))

    def test_passes_agree_bitwise(self, kind, n_chains, block_len):
        evidence = _evidence(kind, n_chains, 5, block_len, seed=7 * block_len)
        u = np.random.default_rng(block_len + 1).integers(
            0, 2, (5, block_len)).astype(np.uint8)
        np.testing.assert_array_equal(_depth_first_leaves(evidence, u),
                                      _breadth_first_leaves(evidence, u))


class TestPassesShareLeafLlrs:
    @pytest.mark.parametrize("channel", [lossless_source(0.11),
                                         crossover_side_info(0.2)])
    def test_leaf_llrs_identical(self, monkeypatch, channel):
        block_len, n_blocks = 256, 4
        x, y = channel.sample(n_blocks, block_len, rng.stream(3, rng.STREAM_SOURCE))
        evidence = channel.leaf_evidence(y)[None]
        u = polar_transform(x)
        seen = []
        original = sc_module._leaf_posteriors

        def recording(llr):
            seen.append(np.array(llr))
            return original(llr)

        monkeypatch.setattr(sc_module, "_leaf_posteriors", recording)
        u_bf, x_bf = sc_traverse(evidence, lambda leaves, probs: None, known=u)
        breadth = seen.pop()
        u_df, x_df = sc_traverse(evidence, lambda i, probs: u[:, i])
        depth = np.stack(seen, axis=-1)
        np.testing.assert_array_equal(breadth, depth)
        np.testing.assert_array_equal(u_bf, u_df)
        np.testing.assert_array_equal(x_bf, x_df)
        np.testing.assert_array_equal(x_bf, x)

    def test_known_bits_shape_checked(self):
        evidence = np.full((1, 2, 8, 2), 0.5)
        with pytest.raises(ValueError):
            sc_traverse(evidence, lambda leaves, probs: None,
                        known=np.zeros((2, 4), dtype=np.uint8))


class TestInfiniteEvidence:
    def test_certain_evidence_constructs_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for channel in (lossless_source(0.0), crossover_side_info(0.0)):
                profile = construct_profile(channel, 64, sample_count=20, seed=2)
                for name in ("z_cond", "z_prior", "h_cond", "h_prior"):
                    assert np.all(np.isfinite(getattr(profile, name)))
                np.testing.assert_allclose(profile.h_cond, 0.0, atol=1e-12)

    @pytest.mark.parametrize("channel,with_side", [
        (lossless_source(0.0), False), (crossover_side_info(0.0), True)])
    def test_certain_evidence_round_trip(self, channel, with_side):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = construct_profile(channel, 64, sample_count=20, seed=2)
            x, y = channel.sample(4, 64, rng.stream(5, rng.STREAM_SOURCE))
            side = y if with_side else None
            code = sc_lossless_encode(x, channel, profile, stored_fraction=0.0,
                                      side=side)
            assert all(len(c) == 0 for c in code.corrections)
            decoded = sc_lossless_decode(code, channel, profile, side=side)
        np.testing.assert_array_equal(decoded, x)

    def test_contradictory_evidence_falls_back_to_uninformative(self):
        # leaf 0 is certainly 1, but the path decides 0: the g-step then adds
        # +inf and -inf, which must read as no evidence at all
        evidence = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sc_traverse(evidence, lambda i, probs: seen.append(probs) or np.zeros(1))
            known = _breadth_first_leaves(evidence, np.zeros((1, 2), np.uint8))
        np.testing.assert_allclose(seen[0][0, 0], [0.0, 1.0], rtol=0, atol=1e-300)
        np.testing.assert_array_equal(seen[1][0, 0], [0.5, 0.5])
        np.testing.assert_array_equal(known, np.stack(seen, axis=2))

    def test_all_zero_pairs_read_as_uniform(self):
        evidence = np.zeros((2, 3, 16, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            leaves = _depth_first_leaves(evidence, np.ones((3, 16), np.uint8))
        np.testing.assert_array_equal(leaves, 0.5)


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("block_len", [256, 1024])
@pytest.mark.parametrize("channel,with_side", [
    (crossover_side_info(0.11), True), (lossless_source(0.11), False)],
    ids=["side-info", "plain"])
def test_round_trip_at_low_stored_fraction(profile_store, channel, with_side,
                                           block_len, seed):
    """Most uncertain positions are left to the maximum-posterior rule, so
    the encoder and decoder must apply it to identical values."""
    profile = profile_store(channel, block_len)
    x, y = channel.sample(32, block_len, rng.stream(seed, rng.STREAM_SOURCE))
    side = y if with_side else None
    code = sc_lossless_encode(x, channel, profile, stored_fraction=0.2, side=side)
    np.testing.assert_array_equal(
        sc_lossless_decode(code, channel, profile, side=side), x)
