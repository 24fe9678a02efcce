"""SC engine tests: the LLR recursion against a probability-pair reference,
bitwise agreement of the breadth-first and depth-first passes, pruned
depth-first passes against unpruned ones, infinite and contradictory
evidence, and lossless round trips whose uncertain positions are mostly
decided by maximum posterior."""

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
from graywyner.polar.sc import LEAF_FREE, LEAF_KNOWN, LEAF_PRIOR, map_bits


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


# an uninformative prior pair at leaf 0 and confident 1s beside it: SC
# decides the tie so that its codeword disagrees with the hard decision
# L < 0 of the evidence, at any block length
TIE_PAIRS = [[0.5, 0.5], [0.01, 0.99], [0.01, 0.99], [0.01, 0.99]]


def _plans(block_len, n_blocks, gen):
    """Leaf plans with random bits at every leaf (a pass may read them only
    at KNOWN leaves): every leaf PRIOR; the kinds interleaved, so every
    node above the leaves is mixed; then random plans with whole subtrees of
    one kind as well as mixed ones."""
    def bits():
        return gen.integers(0, 2, (n_blocks, block_len)).astype(np.uint8)

    yield np.full(block_len, LEAF_PRIOR), bits()
    yield np.arange(block_len) % 3, bits()
    for _ in range(3):
        kinds = np.empty(block_len, dtype=np.int8)

        def fill(lo, width):
            if width == 1 or gen.random() < 0.3:
                kinds[lo:lo + width] = gen.integers(0, 3)
            else:
                fill(lo, width // 2)
                fill(lo + width // 2, width // 2)

        fill(0, block_len)
        yield kinds, bits()


def _free_rule(n_blocks, block_len, seed):
    """A FREE-leaf decision that reads the posteriors: randomized rounding
    on chain 0 with fixed uniforms per (block, leaf)."""
    uniforms = np.random.default_rng(seed).random((n_blocks, block_len))
    return lambda i, probs: (uniforms[:, i] < probs[0, :, 1]).astype(np.uint8)


def _planned_passes(evidence, kinds, bits, free):
    """(pruned (u, x), unpruned (u, x), FREE leaves the pruned pass asked
    for); the unpruned pass decides every leaf by callback, as the plan
    says."""
    asked = []

    def pruned_decide(i, probs):
        asked.append(i)
        return free(i, probs)

    def every_leaf(i, probs):
        if kinds[i] == LEAF_KNOWN:
            return bits[:, i]
        if kinds[i] == LEAF_PRIOR:
            return map_bits(probs[-1])
        return free(i, probs)

    pruned = sc_traverse(evidence, pruned_decide, plan=(kinds, bits))
    return pruned, sc_traverse(evidence, every_leaf), asked


def _assert_pruning_exact(evidence, seed):
    """Every plan of _plans, with the tie of TIE_PAIRS planted in the prior
    chain of block 0."""
    evidence = evidence.copy()
    evidence[-1, 0] = TIE_PAIRS[-1]
    evidence[-1, 0, 0] = TIE_PAIRS[0]
    gen = np.random.default_rng(seed)
    n_blocks, block_len = evidence.shape[1:3]
    for trial, (kinds, bits) in enumerate(_plans(block_len, n_blocks, gen)):
        free = _free_rule(n_blocks, block_len, seed + trial)
        (u, x), (u_ref, x_ref), asked = _planned_passes(evidence, kinds, bits, free)
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(x, polar_transform(u))
        known = kinds == LEAF_KNOWN
        np.testing.assert_array_equal(u[:, known], bits[:, known])
        assert asked == np.flatnonzero(kinds == LEAF_FREE).tolist()


def _confidence_mix(n_chains, n_blocks, block_len, seed):
    """Random pairs in some blocks and near-certain ones in the others, so
    some prior nodes pass the rate-1 guard and some do not."""
    mixed = _evidence("random", n_chains, n_blocks, block_len, seed)
    sure = _evidence("near-deterministic", n_chains, n_blocks, block_len, seed)
    rows = np.random.default_rng(seed).random(n_blocks) < 0.5
    mixed[:, rows] = sure[:, rows]
    return mixed


@pytest.mark.parametrize("n_chains", [1, 2])
@pytest.mark.parametrize("block_len", [8, 64, 1024])
class TestPrunedPass:
    """The plan's pruned pass against the unpruned pass that decides every
    leaf by callback: bit-identical (u, x), and decide sees FREE leaves
    only."""

    @pytest.mark.parametrize("kind", ["random", "near-deterministic", "mixed"])
    def test_random_evidence(self, kind, n_chains, block_len):
        seed = 31 * block_len + 7 * n_chains
        evidence = (_confidence_mix(n_chains, 6, block_len, seed)
                    if kind == "mixed"
                    else _evidence(kind, n_chains, 6, block_len, seed))
        _assert_pruning_exact(evidence, seed)

    @pytest.mark.parametrize("special", ["ties", "constant-prior", "infinite"])
    def test_degenerate_evidence(self, special, n_chains, block_len):
        seed = 17 * block_len + n_chains
        gen = np.random.default_rng(seed)
        evidence = _evidence("near-deterministic", n_chains, 5, block_len, seed)
        if special == "ties":  # exact L = 0 at about a third of the leaves
            evidence[gen.random(evidence.shape[:3]) < 0.3] = 0.5
        elif special == "constant-prior":  # g-steps cancel to L = 0
            evidence[-1] = [0.9, 0.1]
        else:  # +-inf, and contradictions where a path disagrees with them
            hard = gen.integers(0, 2, evidence.shape[:3])
            certain = gen.random(evidence.shape[:3]) < 0.5
            evidence[certain] = np.stack([1 - hard, hard], axis=-1)[certain]
        _assert_pruning_exact(evidence, seed)


def test_rate1_guard_at_a_posterior_tie():
    """The smallest node where the unguarded rate-1 shortcut is wrong: the
    tie's hard decision L < 0 says 0 where SC's codeword says 1, so the
    shortcut must refuse the node."""
    evidence = np.array([[TIE_PAIRS]])
    kinds = np.full(4, LEAF_PRIOR)
    bits = np.zeros((1, 4), dtype=np.uint8)
    (u, x), (u_ref, x_ref), asked = _planned_passes(
        evidence, kinds, bits, _free_rule(1, 4, 0))
    hard = (evidence[-1, ..., 1] > evidence[-1, ..., 0]).astype(np.uint8)
    assert not np.array_equal(x_ref, hard)
    np.testing.assert_array_equal(u, u_ref)
    np.testing.assert_array_equal(x, x_ref)
    assert asked == []


class TestPruningSkipsWork:
    """Pruned subtrees compute no f-step and no leaf posterior."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"f": 0, "leaf": 0}
        f_step, leaf = sc_module._f_step, sc_module._leaf_posteriors

        def counting_f(*args, **kwargs):
            calls["f"] += 1
            return f_step(*args, **kwargs)

        def counting_leaf(llr):
            calls["leaf"] += 1
            return leaf(llr)

        monkeypatch.setattr(sc_module, "_f_step", counting_f)
        monkeypatch.setattr(sc_module, "_leaf_posteriors", counting_leaf)
        return calls

    @pytest.mark.parametrize("kind", [LEAF_KNOWN, LEAF_PRIOR])
    def test_uniform_plan_is_one_step(self, counted, kind):
        evidence = _evidence("near-deterministic", 2, 3, 1024, seed=5)
        bits = np.random.default_rng(5).integers(0, 2, (3, 1024)).astype(np.uint8)
        u, x = sc_traverse(evidence, None, plan=(np.full(1024, kind), bits))
        assert counted == {"f": 0, "leaf": 0}
        if kind == LEAF_KNOWN:
            np.testing.assert_array_equal(u, bits)
        np.testing.assert_array_equal(x, polar_transform(u))

    def test_unresolved_prior_recurses(self, counted):
        evidence = _evidence("random", 1, 3, 64, seed=5)
        sc_traverse(evidence, None,
                    plan=(np.full(64, LEAF_PRIOR), np.zeros((3, 64), np.uint8)))
        assert counted["leaf"] > 0


class TestPlanChecked:
    def test_bad_plans_rejected(self):
        evidence = np.full((1, 2, 8, 2), 0.5)
        bits = np.zeros((2, 8), dtype=np.uint8)
        for plan in [(np.zeros(4), bits), (np.full(8, 3), bits),
                     (np.zeros(8), bits[:1])]:
            with pytest.raises(ValueError, match="plan"):
                sc_traverse(evidence, lambda i, probs: np.zeros(2), plan=plan)

    def test_plan_and_known_exclusive(self):
        evidence = np.full((1, 2, 8, 2), 0.5)
        bits = np.zeros((2, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="breadth-first"):
            sc_traverse(evidence, lambda leaves, probs: None, known=bits,
                        plan=(np.zeros(8), bits))


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
