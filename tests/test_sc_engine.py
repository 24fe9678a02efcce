"""SC engine tests: the LLR recursion against a probability-pair reference,
bitwise agreement of the breadth-first pass (one or two chains) and the
one-chain depth-first pass on each chain, pruned depth-first passes
against unpruned ones (with and without the margins that let FREE nodes
take the rate-1 shortcut, and with per-block corrections at PRIOR
leaves), each chain of C-chain evidence walked in its own pass, infinite
and contradictory evidence, the leaf statistics and decisions read from LLRs against their
pair formulas, and lossless round trips whose uncertain positions are
mostly decided by maximum posterior."""

import warnings
from dataclasses import replace

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
from graywyner.polar.coding import _posterior_one, _rounding_margins
from graywyner.polar.profile import _leaf_statistics
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


def _per_chain(evidence):
    """One-chain slices of (C, B, N, 2) evidence: a depth-first pass walks
    one chain, so C-chain evidence is walked one chain per pass."""
    return [evidence[c:c + 1] for c in range(len(evidence))]


def _depth_first_leaves(evidence, u):
    """(C, B, N) leaf LLRs of one depth-first pass per chain along u."""
    seen = np.empty(evidence.shape[:3])
    for c, chain in enumerate(_per_chain(evidence)):
        def decide(i, llr, c=c):
            seen[c, :, i] = llr
            return u[:, i]

        sc_traverse(chain, decide)
    return seen


def _breadth_first_leaves(evidence, u):
    seen = {}

    def stats(leaves, llr):
        seen["llr"] = llr

    sc_traverse(evidence, stats, known=u)
    return seen["llr"]


def _pair_llrs(pairs):
    """ln p0 - ln p1 of (..., 2) pairs and where both entries are normal
    floats, so that the difference is resolved."""
    with np.errstate(divide="ignore"):
        llr = np.log(pairs[..., 0]) - np.log(pairs[..., 1])
    return llr, pairs.min(axis=-1) >= 1e-290


@pytest.mark.parametrize("kind", ["random", "near-deterministic"])
@pytest.mark.parametrize("n_chains", [1, 2])
@pytest.mark.parametrize("block_len", [8, 64, 1024])
class TestAgainstPairReference:
    def test_leaf_posteriors_match_reference(self, kind, n_chains, block_len):
        """The engine's leaf LLRs against ln p0 - ln p1 of the reference's
        pairs.  dp1 = -p0 p1 dL and p0 p1 (1 + |L|) < 0.4, so the LLR
        tolerance 1e-12 (1 + |L|) holds every pair within 4e-13.  Where a
        reference entry underflowed, the engine's |L| must lie past it."""
        evidence = _evidence(kind, n_chains, 3, block_len, seed=block_len + n_chains)
        u = np.random.default_rng(block_len).integers(
            0, 2, (3, block_len)).astype(np.uint8)
        expected = np.empty(evidence.shape)

        def decide(i, probs):
            expected[:, :, i] = probs
            return u[:, i]

        _, x_ref = reference_traverse(evidence, decide)
        want, resolved = _pair_llrs(expected)
        got = _depth_first_leaves(evidence, u)
        np.testing.assert_allclose(got[resolved], want[resolved],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(np.sign(got[~resolved]),
                                      np.sign(want[~resolved]))
        assert np.all(np.abs(got[~resolved]) > 600.0)
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
    def test_leaf_llrs_identical(self, channel):
        block_len, n_blocks = 256, 4
        x, y = channel.sample(n_blocks, block_len, rng.stream(3, rng.STREAM_SOURCE))
        evidence = channel.leaf_evidence(y)[None]
        u = polar_transform(x)
        breadth, depth = [], []
        u_bf, x_bf = sc_traverse(
            evidence, lambda leaves, llr: breadth.append(llr), known=u)
        u_df, x_df = sc_traverse(
            evidence, lambda i, llr: depth.append(llr.copy()) or u[:, i])
        np.testing.assert_array_equal(breadth[0][0], np.stack(depth, axis=-1))
        np.testing.assert_array_equal(u_bf, u_df)
        np.testing.assert_array_equal(x_bf, x_df)
        np.testing.assert_array_equal(x_bf, x)

    def test_known_bits_shape_checked(self):
        evidence = np.full((1, 2, 8, 2), 0.5)
        with pytest.raises(ValueError):
            sc_traverse(evidence, lambda leaves, llr: None,
                        known=np.zeros((2, 4), dtype=np.uint8))
        # values outside {0, 1} are refused before the uint8 cast, which
        # would keep 2 and wrap -1 to 255
        for known in [np.full((2, 8), 2), np.full((2, 8), -1, dtype=np.int64)]:
            with pytest.raises(ValueError, match="known"):
                sc_traverse(evidence, lambda leaves, llr: None, known=known)


# an uninformative prior pair at leaf 0 and confident 1s beside it: SC
# decides the tie so that its codeword disagrees with the hard decision
# L < 0 of the evidence, at any block length
TIE_PAIRS = [[0.5, 0.5], [0.01, 0.99], [0.01, 0.99], [0.01, 0.99]]


def _plans(block_len, n_blocks, gen):
    """Leaf plans with random bits at KNOWN and FREE leaves (a pass reads
    them only at KNOWN ones) and sparse per-block corrections at PRIOR
    leaves, about 2% ones, so that corrected PRIOR nodes and PRIOR nodes
    that take the rate-1 shortcut both occur: every leaf PRIOR; the kinds
    interleaved, so every node above the leaves is mixed; then random plans
    with whole subtrees of one kind as well as mixed ones."""
    def planned(kinds):
        random = gen.integers(0, 2, (n_blocks, block_len))
        corrections = gen.random((n_blocks, block_len)) < 0.02
        return kinds, np.where(kinds == LEAF_PRIOR, corrections,
                               random).astype(np.uint8)

    yield planned(np.full(block_len, LEAF_PRIOR))
    yield planned(np.arange(block_len) % 3)
    for _ in range(3):
        kinds = np.empty(block_len, dtype=np.int8)

        def fill(lo, width):
            if width == 1 or gen.random() < 0.3:
                kinds[lo:lo + width] = gen.integers(0, 3)
            else:
                fill(lo, width // 2)
                fill(lo + width // 2, width // 2)

        fill(0, block_len)
        yield planned(kinds)


def _rounding_rule(uniforms):
    """A FREE-leaf decision that reads the LLRs: randomized rounding with
    the given uniforms per (block, leaf)."""
    return lambda i, llr: (uniforms[:, i] < _posterior_one(llr)).astype(np.uint8)


def _free_rule(n_blocks, block_len, seed):
    """_rounding_rule with fixed random uniforms."""
    return _rounding_rule(np.random.default_rng(seed).random((n_blocks, block_len)))


def _planned_passes(evidence, kinds, bits, free, margins=None):
    """(pruned (u, x), unpruned (u, x), FREE leaves the pruned pass asked
    for); the unpruned pass decides every leaf by callback, as the plan
    says.  With margins the pruned plan carries them."""
    asked = []

    def pruned_decide(i, llr):
        asked.append(i)
        return free(i, llr)

    def every_leaf(i, llr):
        if kinds[i] == LEAF_KNOWN:
            return bits[:, i]
        if kinds[i] == LEAF_PRIOR:
            return map_bits(llr) ^ bits[:, i]
        return free(i, llr)

    plan = (kinds, bits) if margins is None else (kinds, bits, margins)
    pruned = sc_traverse(evidence, pruned_decide, plan=plan)
    return pruned, sc_traverse(evidence, every_leaf), asked


def _assert_pruning_exact(evidence, seed):
    """Every plan of _plans on every chain of the evidence, walked one
    chain per pass, with the tie of TIE_PAIRS planted in the last chain of
    block 0."""
    evidence = evidence.copy()
    evidence[-1, 0] = TIE_PAIRS[-1]
    evidence[-1, 0, 0] = TIE_PAIRS[0]
    gen = np.random.default_rng(seed)
    n_blocks, block_len = evidence.shape[1:3]
    for trial, (kinds, bits) in enumerate(_plans(block_len, n_blocks, gen)):
        free = _free_rule(n_blocks, block_len, seed + trial)
        for chain in _per_chain(evidence):
            _assert_plan_exact(chain, kinds, bits, free)


def _assert_plan_exact(evidence, kinds, bits, free):
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
    only, on each of n_chains evidence chains in its own pass."""

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
    """Pruned subtrees compute no f-step and no g-step."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"f": 0, "g": 0}
        for name, key in (("_f_step", "f"), ("_g_step", "g")):
            def counting(*args, _step=getattr(sc_module, name), _key=key,
                         **kwargs):
                calls[_key] += 1
                return _step(*args, **kwargs)

            monkeypatch.setattr(sc_module, name, counting)
        return calls

    @pytest.mark.parametrize("kind", [LEAF_KNOWN, LEAF_PRIOR])
    def test_uniform_plan_is_one_step(self, counted, kind):
        """All KNOWN with random bits, or all PRIOR with no correction."""
        evidence = _evidence("near-deterministic", 1, 3, 1024, seed=5)
        bits = np.random.default_rng(5).integers(0, 2, (3, 1024)).astype(np.uint8)
        if kind == LEAF_PRIOR:
            bits[:] = 0
        u, x = sc_traverse(evidence, None, plan=(np.full(1024, kind), bits))
        assert counted == {"f": 0, "g": 0}
        if kind == LEAF_KNOWN:
            np.testing.assert_array_equal(u, bits)
        else:
            np.testing.assert_array_equal(x, map_bits(sc_module._llrs(evidence)[0][0]))
        np.testing.assert_array_equal(x, polar_transform(u))

    def test_one_correction_flips_one_block(self, counted):
        """One correction in one block of an all-PRIOR plan: that leaf flips
        in that block and nowhere else, every other block and every earlier
        leaf keeps the uncorrected decision, and the root's shortcut is
        refused, so the pass computes f- and g-steps."""
        evidence = _evidence("near-deterministic", 1, 3, 1024, seed=5)
        kinds, bits = np.full(1024, LEAF_PRIOR), np.zeros((3, 1024), np.uint8)
        u_plain, _ = sc_traverse(evidence, None, plan=(kinds, bits))
        bits[1, 300] = 1
        (u, x), (u_ref, x_ref), _ = _planned_passes(
            evidence, kinds, bits, _free_rule(3, 1024, 0))
        assert counted["f"] > 0 and counted["g"] > 0
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(u[[0, 2]], u_plain[[0, 2]])
        np.testing.assert_array_equal(u[1, :300], u_plain[1, :300])
        assert u[1, 300] != u_plain[1, 300]

    def test_unresolved_prior_recurses(self, counted):
        evidence = _evidence("random", 1, 3, 64, seed=5)
        sc_traverse(evidence, None,
                    plan=(np.full(64, LEAF_PRIOR), np.zeros((3, 64), np.uint8)))
        assert counted["f"] > 0 and counted["g"] > 0

    def test_polarized_free_plan_is_one_step(self, counted):
        """An all-FREE plan whose every |L| clears the root's guard with
        the rounding margins is decided at the root, with no callback."""
        evidence = _polarized(1, 4, 1024, seed=6)
        uniforms = np.random.default_rng(6).uniform(0.25, 0.75, (4, 1024))
        kinds, bits = np.full(1024, LEAF_FREE), np.zeros((4, 1024), np.uint8)

        def never(i, llr):
            raise AssertionError(f"leaf {i} asked of decide")

        u, x = sc_traverse(evidence, never,
                           plan=(kinds, bits, _rounding_margins(uniforms)))
        assert counted == {"f": 0, "g": 0}
        _, (u_ref, x_ref), _ = _margin_passes(evidence, kinds, bits, uniforms)
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(x, map_bits(sc_module._llrs(evidence)[0][0]))


class TestPlanChecked:
    def test_bad_plans_rejected(self):
        evidence = np.full((1, 2, 8, 2), 0.5)
        bits = np.zeros((2, 8), dtype=np.uint8)
        # plan bits outside {0, 1}: KNOWN bits of 3 would come out as 3s, and
        # a PRIOR correction of 2 would decide u[0] = 2
        correction = bits.copy()
        correction[0, 0] = 2
        for plan in [(np.zeros(4), bits), (np.full(8, 3), bits),
                     (np.zeros(8), bits[:1]), (np.full(8, LEAF_KNOWN), bits + 3),
                     (np.full(8, LEAF_PRIOR), correction)]:
            with pytest.raises(ValueError, match="plan"):
                sc_traverse(evidence, lambda i, llr: np.zeros(2), plan=plan)

    def test_free_leaves_need_decide(self):
        """decide may be None only when no leaf is FREE: a plan with FREE
        leaves, or a pass without a plan, is refused up front."""
        evidence = np.full((1, 2, 8, 2), 0.5)
        bits = np.zeros((2, 8), dtype=np.uint8)
        kinds = np.full(8, LEAF_KNOWN)
        kinds[5] = LEAF_FREE
        for plan in [(kinds, bits), (kinds, bits, np.full((2, 8), np.inf)), None]:
            with pytest.raises(ValueError, match="decide"):
                sc_traverse(evidence, None, plan=plan)
        kinds[5] = LEAF_PRIOR
        u, x = sc_traverse(evidence, None, plan=(kinds, bits))
        np.testing.assert_array_equal(x, polar_transform(u))

    def test_depth_first_pass_walks_one_chain(self):
        """Two chains are refused by the depth-first pass, with or without
        a plan, and accepted by the breadth-first one."""
        evidence = np.full((2, 2, 8, 2), 0.5)
        bits = np.zeros((2, 8), dtype=np.uint8)
        for plan in [None, (np.full(8, LEAF_PRIOR), bits)]:
            with pytest.raises(ValueError, match="one chain"):
                sc_traverse(evidence, lambda i, llr: np.zeros(2), plan=plan)
        u, x = sc_traverse(evidence, lambda leaves, llr: None, known=bits)
        np.testing.assert_array_equal(u, bits)

    def test_plan_and_known_exclusive(self):
        evidence = np.full((1, 2, 8, 2), 0.5)
        bits = np.zeros((2, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="breadth-first"):
            sc_traverse(evidence, lambda leaves, llr: None, known=bits,
                        plan=(np.zeros(8), bits))


class TestInfiniteEvidence:
    def test_certain_evidence_constructs_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for channel in (lossless_source(0.0), crossover_side_info(0.0)):
                profile = construct_profile(channel, 64, sample_count=20, seed=2)
                for name in ("z_cond", "h_cond", "h_prior", "e_cond", "e_prior"):
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
            code = sc_lossless_encode(x, channel, profile, side=side)
            # certain decisions never miss: nothing is stored or corrected
            assert code.sent.shape == (4, 0)
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
            sc_traverse(evidence, lambda i, llr: seen.append(llr.copy()) or np.zeros(1))
            known = _breadth_first_leaves(evidence, np.zeros((1, 2), np.uint8))
        assert seen[0][0] == -np.inf
        assert seen[1][0] == 0.0
        np.testing.assert_array_equal(known[0], np.stack(seen, axis=-1))

    def test_all_zero_pairs_read_as_uniform(self):
        evidence = np.zeros((2, 3, 16, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            leaves = _depth_first_leaves(evidence, np.ones((3, 16), np.uint8))
        np.testing.assert_array_equal(leaves, 0.0)


def test_leaf_formulas_match_pair_formulas():
    """z, h, the misses and P(1) read from L against the pair formulas they
    replace: p = (1 / (1 + e^-L), 1 / (1 + e^L)) with L capped at +-700,
    z = 2 sqrt(p0 p1), h = -log2 p(bit), a miss where map_bits(L) != bit;
    ties decide 0 whatever the zero's sign."""
    llr = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0,
                    700.0, -700.0, 800.0, -800.0, np.inf, -np.inf])
    capped = np.clip(llr, -700.0, 700.0)
    pairs = np.stack([1 / (1 + np.exp(-capped)), 1 / (1 + np.exp(capped))], -1)
    for bit in (0, 1):
        # one chain, one block: (C, B, N) LLRs and (B, N) bits
        misses, z, h = _leaf_statistics(llr[None, None].copy(),
                                        np.full((1, llr.size), bit, np.uint8))
        np.testing.assert_array_equal(misses[0], map_bits(llr) != bit)
        np.testing.assert_allclose(z[0], 2 * np.sqrt(pairs[:, 0] * pairs[:, 1]),
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(h[0, 0], -np.log2(pairs[:, bit]),
                                   rtol=1e-14, atol=1e-15)
    assert np.all(np.isfinite(h))
    np.testing.assert_array_equal(_posterior_one(llr), pairs[:, 1])
    resolved = pairs[:, 0] != pairs[:, 1]
    np.testing.assert_array_equal(map_bits(llr)[resolved],
                                  (pairs[:, 1] > pairs[:, 0])[resolved])
    # the pairs of +-1e-300 round to a tie; the sign of L decides them
    np.testing.assert_array_equal(map_bits(llr[:4]), [0, 0, 0, 1])
    assert map_bits(np.array(-0.0)) == map_bits(np.array(0.0)) == 0


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("block_len", [256, 1024])
@pytest.mark.parametrize("channel,with_side", [
    (crossover_side_info(0.11), True), (lossless_source(0.11), False)],
    ids=["side-info", "plain"])
def test_round_trip_at_low_stored_fraction(profile_store, channel, with_side,
                                           block_len, seed):
    """Every position, the most uncertain ones included, is left to the
    maximum-posterior rule (e_cond 0 stores none), so the encoder and
    decoder must apply it to identical values."""
    profile = replace(profile_store(channel, block_len), e_cond=np.zeros(block_len))
    x, y = channel.sample(32, block_len, rng.stream(seed, rng.STREAM_SOURCE))
    side = y if with_side else None
    code = sc_lossless_encode(x, channel, profile, side=side)
    assert code.sent.shape == (32, 0)
    np.testing.assert_array_equal(
        sc_lossless_decode(code, channel, profile, side=side), x)


# ---------------------------------------------------------------------------
# rate-1 pruning of FREE leaves with margins
# ---------------------------------------------------------------------------

def _rounding_uniforms(n_blocks, block_len, seed):
    """Rounding uniforms with the edge values planted: U = 0 (always rounds
    to 1) and U = 1 - 2^-53, both with infinite margins."""
    uniforms = np.random.default_rng(seed).random((n_blocks, block_len))
    uniforms.flat[::97] = 0.0
    uniforms.flat[50::101] = 1.0 - 2.0 ** -53
    return uniforms


def _node_llrs(evidence, u):
    """{(lo, width): (chains, blocks, width) LLRs} of every node of the
    unpruned tree along the decided bits u, from the engine's own steps."""
    llr, has_inf = sc_module._llrs(evidence)
    nodes = {}

    def rec(node, lo):
        width = node.shape[2]
        nodes[lo, width] = node
        if width > 1:
            half = width // 2
            first, second = node[:, :, :half], node[:, :, half:]
            rec(sc_module._f_step(first, second, has_inf), lo)
            v = polar_transform(u[:, lo:lo + half])
            rec(sc_module._g_step(first, second, v[None], has_inf), lo + half)

    with np.errstate(invalid="ignore", over="ignore"):
        rec(llr, 0)
    return nodes


def _expected_asked(evidence, u, kinds, margins):
    """The FREE leaves outside every all-FREE node of width > 1 whose
    one-chain |L| passes ln 2 log2(M) + 1 + the block's largest margin over
    the node in every block, found top-down."""
    nodes = _node_llrs(evidence, u)
    asked = []

    def walk(lo, width):
        if width == 1:
            if kinds[lo] == LEAF_FREE:
                asked.append(lo)
            return
        if (kinds[lo:lo + width] == LEAF_FREE).all():
            guard = (sc_module._LN2 * (width.bit_length() - 1) + 1.0
                     + margins[:, lo:lo + width].max(axis=1))
            if (np.abs(nodes[lo, width][0]).min(axis=1) > guard).all():
                return
        walk(lo, width // 2)
        walk(lo + width // 2, width // 2)

    walk(0, evidence.shape[2])
    return asked


def _margin_passes(evidence, kinds, bits, uniforms):
    """_planned_passes with FREE leaves rounding chain 0 with the uniforms,
    the pruned plan carrying their rounding margins."""
    return _planned_passes(evidence, kinds, bits, _rounding_rule(uniforms),
                           _rounding_margins(uniforms))


def _assert_margin_pruning_exact(evidence, seed):
    """Every plan of _plans and an all-FREE plan on every chain of the
    evidence, one chain per pass: bit-identical to the unpruned pass, and
    decide asked exactly outside the shortcut nodes."""
    gen = np.random.default_rng(seed)
    n_blocks, block_len = evidence.shape[1:3]
    plans = list(_plans(block_len, n_blocks, gen))
    plans.append((np.full(block_len, LEAF_FREE), plans[0][1]))
    for trial, (kinds, bits) in enumerate(plans):
        uniforms = _rounding_uniforms(n_blocks, block_len, seed + trial)
        for chain in _per_chain(evidence):
            (u, x), (u_ref, x_ref), asked = _margin_passes(chain, kinds, bits,
                                                           uniforms)
            np.testing.assert_array_equal(u, u_ref)
            np.testing.assert_array_equal(x, x_ref)
            np.testing.assert_array_equal(x, polar_transform(u))
            assert asked == _expected_asked(chain, u, kinds,
                                            _rounding_margins(uniforms))


def _polarized(n_chains, n_blocks, block_len, seed, doubt=1e-12):
    """Pairs within doubt of a random hard bit at every leaf, |L| about
    ln(1/doubt)."""
    gen = np.random.default_rng(seed)
    p1 = np.abs(gen.integers(0, 2, (n_chains, n_blocks, block_len)) - doubt)
    return np.stack([1.0 - p1, p1], axis=-1)


@pytest.mark.parametrize("n_chains", [1, 2])
@pytest.mark.parametrize("block_len", [8, 64, 1024])
class TestMarginPrunedPass:
    """Plans with margins: FREE nodes past the shifted guard take the sign
    of their LLRs, bit-identical to rounding every leaf by callback, on
    each of n_chains evidence chains in its own pass."""

    @pytest.mark.parametrize("kind", ["random", "near-deterministic", "mixed",
                                      "polarized", "infinite"])
    def test_matches_every_leaf_pass(self, kind, n_chains, block_len):
        seed = 13 * block_len + 5 * n_chains
        gen = np.random.default_rng(seed)
        if kind == "mixed":
            evidence = _confidence_mix(n_chains, 6, block_len, seed)
        elif kind == "polarized":  # |L| about 69: most FREE nodes shortcut
            evidence = _polarized(n_chains, 6, block_len, seed, doubt=1e-30)
        elif kind == "infinite":  # +-inf, and contradictions on some paths
            evidence = _polarized(n_chains, 6, block_len, seed)
            hard = gen.integers(0, 2, evidence.shape[:3])
            certain = gen.random(evidence.shape[:3]) < 0.5
            evidence[certain] = np.stack([1 - hard, hard], axis=-1)[certain]
        else:
            evidence = _evidence(kind, n_chains, 6, block_len, seed)
        _assert_margin_pruning_exact(evidence, seed)


def test_rounding_margins_at_the_edges():
    edge = 2.0 ** -40
    uniforms = np.array([0.0, 2.0 ** -53, edge / 2, edge, 0.25, 0.5, 0.75,
                         1.0 - edge, 1.0 - edge / 2, 1.0 - 2.0 ** -53])
    margins = _rounding_margins(uniforms)
    assert np.isinf(margins[[0, 1, 2, 8, 9]]).all()
    np.testing.assert_allclose(margins[[3, 7]], 40 * np.log(2.0), rtol=1e-12)
    np.testing.assert_allclose(margins[4:7], [np.log(3.0), 0.0, np.log(3.0)],
                               rtol=1e-15)


class TestPlantedMargins:
    """Single leaves where the sign rule and rounding disagree must reach
    decide, and the guard's comparison is strict."""

    def _one_leaf_apart(self, leaf_llr_sign, planted_u):
        """Eight FREE leaves in one block beside a control block, evidence
        L = 30 at every position but one flipped to -30 for a negative
        leaf_llr_sign; leaf 0, the box-plus of them all, then has L about
        +-28.  U = 0.5 everywhere except planted_u at leaf 0 of block 0."""
        evidence = np.tile([1 - 1e-13, 1e-13], (1, 2, 8, 1))
        if leaf_llr_sign < 0:
            evidence[0, 0, 5] = [1e-13, 1 - 1e-13]
        uniforms = np.full((2, 8), 0.5)
        uniforms[0, 0] = planted_u
        kinds = np.full(8, LEAF_FREE)
        bits = np.zeros((2, 8), dtype=np.uint8)
        return _margin_passes(evidence, kinds, bits, uniforms), evidence, uniforms

    @pytest.mark.parametrize("sign,planted_u,bit", [
        (+1, 0.0, 1),               # U = 0 rounds to 1 whatever L is
        (-1, 1.0 - 2.0 ** -53, 0),  # L = -28 > t = -36.7: rounds to 0
    ])
    def test_edge_uniforms_reach_decide(self, sign, planted_u, bit):
        ((u, x), (u_ref, x_ref), asked), evidence, uniforms = (
            self._one_leaf_apart(sign, planted_u))
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(x, x_ref)
        # the leaf disagrees with its sign rule, which only decide can know
        leaf_llr = _node_llrs(evidence, u)[0, 1][0, 0, 0]
        assert 20 < abs(leaf_llr) < 30 and np.sign(leaf_llr) == sign
        assert u[0, 0] == bit != map_bits(leaf_llr)
        assert asked[0] == 0
        assert asked == _expected_asked(evidence, u, np.full(8, LEAF_FREE),
                                        _rounding_margins(uniforms))

    @pytest.mark.parametrize("above", [True, False])
    def test_guard_is_strict(self, above):
        """Margins set so that the guard of a width-2 node sits one float
        step below (shortcut) or at/above (no shortcut) its min |L|; with
        decide the sign rule itself, the promise holds at any margin."""
        evidence = _polarized(1, 1, 2, seed=4, doubt=1e-5)
        low = np.abs(sc_module._llrs(evidence)[0][0]).min()
        base = sc_module._LN2 * 1 + 1.0
        margin = low - base
        if above:
            while base + margin >= low:
                margin = np.nextafter(margin, -np.inf)
        else:
            while base + margin < low:
                margin = np.nextafter(margin, np.inf)
        asked = []

        def decide(i, llr):
            asked.append(i)
            return map_bits(llr)

        plan = (np.full(2, LEAF_FREE), np.zeros((1, 2), np.uint8),
                np.full((1, 2), margin))
        u, x = sc_traverse(evidence, decide, plan=plan)
        assert asked == ([] if above else [0, 1])
        u_ref, x_ref = sc_traverse(evidence, lambda i, llr: map_bits(llr))
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(x, x_ref)


class TestMarginsChecked:
    @pytest.mark.parametrize("margins", [np.zeros((2, 4)), np.full((2, 8), -1.0),
                                         np.full((2, 8), np.nan)])
    def test_bad_margins_rejected(self, margins):
        evidence = np.full((1, 2, 8, 2), 0.5)
        plan = (np.zeros(8), np.zeros((2, 8), np.uint8), margins)
        with pytest.raises(ValueError, match="margins"):
            sc_traverse(evidence, lambda i, llr: np.zeros(2), plan=plan)


def _f_step_two_loops(a, b, has_inf):
    """The f-step as it was computed before its two log terms shared one
    clamp, exp and log1p: the oracle of test_f_step_matches_two_loop_formula."""
    out = np.empty(a.shape)
    sum_term, gap_term = np.empty((2,) + a.shape)
    neg_near = out
    np.copysign(a, -1.0, out=sum_term)
    np.copysign(b, -1.0, out=gap_term)
    np.maximum(sum_term, gap_term, out=neg_near)
    np.minimum(sum_term, gap_term, out=sum_term)
    np.subtract(sum_term, neg_near, out=gap_term)
    if has_inf:
        gap_term[np.isnan(gap_term)] = 0.0
    sum_term += neg_near
    for term in (sum_term, gap_term):
        np.maximum(term, -60.0, out=term)
        np.exp(term, out=term)
        np.log1p(term, out=term)
    sum_term -= neg_near
    sum_term -= gap_term
    np.multiply(a, b, out=gap_term)
    return np.copysign(sum_term, gap_term, out=out)


@pytest.mark.parametrize("shape", [(64, 4), (2, 16, 1024)])
@pytest.mark.parametrize("has_inf", [False, True])
def test_f_step_matches_two_loop_formula(shape, has_inf):
    """Bit for bit, signed zeros and inf included, on values that mix +-0,
    1e300 (whose product overflows), magnitudes on both sides of the term
    cap at 60, and +-inf where the pass has infinite LLRs."""
    gen = np.random.default_rng(sum(shape) + has_inf)
    special = [0.0, -0.0, 1e300, -1e300, 59.5, -60.0, 60.0, 60.5, -120.0, 30.0]
    if has_inf:
        special += [np.inf, -np.inf]
    a, b = (np.where(gen.random(shape) < 0.5, gen.choice(special, shape),
                     gen.normal(0.0, 40.0, shape)) for _ in range(2))
    with np.errstate(invalid="ignore", over="ignore"):
        got = sc_module._f_step(a, b, has_inf)
        want = _f_step_two_loops(a, b, has_inf)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
