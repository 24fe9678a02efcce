"""SC engine tests: the LLR recursion against a probability-pair reference,
whose pairs reach the engine as their LLRs ln p0 - ln p1 (_llr_evidence),
bitwise agreement of the breadth-first and depth-first passes on each
chain of C-chain evidence, one chain per pass, pruned depth-first passes
against the engine's unpruned recursion along their output (with and
without the thresholds of the leaf rule, and with per-block flips, also at
the batch sizes around the walk's transpose chunks), float32 walks on
planted LLRs at the edges of the rate-1 guard (Hypothesis), the refusal
of evidence with more than one chain or other than one LLR per position,
the walk's peak memory, infinite and contradictory evidence, the leaf
statistics and decisions read from LLRs against their pair formulas and
bit for bit against their copysign form, NumPy's log1p identity below the
leaf statistics' mask, the rounding thresholds, and lossless round trips
whose uncertain positions are mostly decided by maximum posterior.

The oracle of a depth-first pass needs no callback: along the pass's
output u, every known leaf equals its bit and every other leaf equals
(L < t) xor its flip at the L of the engine's unpruned recursion along u
(_node_llrs), which characterizes the SC output exactly, as a leaf's L
depends only on the leaves before it.  Passes and oracles run in the
engine's float32 unless a test asks for float64."""

import contextlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from graywyner.polar import profile as profile_module
from graywyner.polar import sc as sc_module
from graywyner.polar.coding import _thresholds
from graywyner.polar.profile import _leaf_statistics
from graywyner.polar.sc import map_bits


def _llr_evidence(pairs):
    """The engine's evidence of (..., 2) probability pairs: their LLRs
    ln p0 - ln p1, (..., 1); a 0 gives +-inf."""
    with np.errstate(divide="ignore"):
        logs = np.log(pairs)
    return logs[..., :1] - logs[..., 1:]


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


def _pairs(kind, n_chains, n_blocks, block_len, seed):
    gen = np.random.default_rng(seed)
    if kind == "random":
        p1 = gen.random((n_chains, n_blocks, block_len))
    else:  # near-deterministic: posteriors within 1e-12 of 0 or 1
        p1 = gen.integers(0, 2, (n_chains, n_blocks, block_len)) + np.where(
            gen.random((n_chains, n_blocks, block_len)) < 0.5, 1.0, -1.0) * 1e-12
        p1 = np.clip(p1, 0.0, 1.0)
    return np.stack([1.0 - p1, p1], axis=-1)


def _evidence(kind, n_chains, n_blocks, block_len, seed):
    """The (C, B, N, 1) LLR evidence of _pairs."""
    return _llr_evidence(_pairs(kind, n_chains, n_blocks, block_len, seed))


def _per_chain(evidence):
    """One-chain slices of (C, B, N, 1) evidence: a pass walks one chain,
    so C-chain evidence is run one chain per pass."""
    return [evidence[c:c + 1] for c in range(len(evidence))]


def _never(*args):
    raise AssertionError("a depth-first pass called its second argument")


def _node_llrs(evidence, u, dtype=np.float32):
    """{(lo, width): (chains, blocks, width) LLRs} of every node of the
    unpruned tree along the decided bits u, from the engine's own steps,
    run in dtype (the engine's float32 by default) on the evidence's
    float64 LLRs cast to it."""
    return _tree_llrs(*sc_module._llrs(evidence[..., 0], dtype), u)


def _tree_llrs(llr, has_inf, u):
    """_node_llrs over (chains, blocks, N) LLRs given as they are, in
    their dtype."""
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


def _leaf_llrs(evidence, u, nodes=None, dtype=np.float32):
    """(chains, blocks, N) leaf LLRs of the unpruned recursion along u in
    dtype, or of its nodes (_node_llrs) if given."""
    nodes = _node_llrs(evidence, u, dtype) if nodes is None else nodes
    return np.concatenate([nodes[i, 1] for i in range(u.shape[1])], axis=-1)


def _depth_first_reads(chain, u, llr, dtype=np.float32):
    """Whether depth-first passes in dtype over one-chain evidence, along
    the bits u, reach exactly the (B, N) leaf LLRs llr (_walk_reads)."""
    return _walk_reads(
        lambda plan: sc_traverse(chain, _never, plan=plan, dtype=dtype)[0], u, llr)


def _walk_reads(walk, u, llr):
    """Whether the walks walk(plan) -> u along the bits u reach exactly
    the (B, N) leaf LLRs llr.  Planted at t = llr with
    flip u, the leaf rule returns u at a leaf exactly when its L is not
    below llr; at one float step above llr with flip u ^ 1, exactly when
    its L is not above (where llr is +inf, with no step above it, t = -inf
    and flip u return u whatever L is).  A pass returns u exactly when
    every leaf does: the first leaf off u makes the output differ there."""
    free = np.zeros(u.shape[1], dtype=bool)
    top = llr == np.inf
    plans = [(free, u, llr),
             (free, np.where(top, u, u ^ 1),
              np.where(top, -np.inf, np.nextafter(llr, np.inf)))]
    return all(np.array_equal(walk(plan), u) for plan in plans)


def _breadth_first_leaves(evidence, u, dtype=np.float32):
    """(C, B, N) leaf LLRs along the bits u of breadth-first passes over
    (C, B, N, 1) evidence, one pass per chain."""
    x = polar_transform(u)
    return np.stack([sc_traverse(chain, lambda leaves, llr: llr, codeword=x,
                                 dtype=dtype)
                     for chain in _per_chain(evidence)])


def _pair_llrs(pairs):
    """ln p0 - ln p1 of (..., 2) pairs and where both entries are normal
    floats, so that the difference is resolved."""
    return _llr_evidence(pairs)[..., 0], pairs.min(axis=-1) >= 1e-290


@pytest.mark.parametrize("kind", ["random", "near-deterministic"])
@pytest.mark.parametrize("n_chains", [1, 2])
@pytest.mark.parametrize("block_len", [8, 64, 1024])
class TestAgainstPairReference:
    def test_leaf_posteriors_match_reference(self, kind, n_chains, block_len):
        """The engine's leaf LLRs on the LLRs of the pairs (the
        breadth-first pass's; the depth-first pass reaches the same,
        test_passes_agree_bitwise) against ln p0 -
        ln p1 of the reference's pairs.  dp1 = -p0 p1 dL and p0 p1 (1 +
        |L|) < 0.4, so the LLR tolerance 1e-12 (1 + |L|) holds every pair
        within 4e-13.  Where a reference entry underflowed, the engine's
        |L| must lie past it."""
        pairs = _pairs(kind, n_chains, 3, block_len, seed=block_len + n_chains)
        u = np.random.default_rng(block_len).integers(
            0, 2, (3, block_len)).astype(np.uint8)
        expected = np.empty(pairs.shape)

        def decide(i, probs):
            expected[:, :, i] = probs
            return u[:, i]

        _, x_ref = reference_traverse(pairs, decide)
        want, resolved = _pair_llrs(expected)
        got = _breadth_first_leaves(_llr_evidence(pairs), u, np.float64)
        np.testing.assert_allclose(got[resolved], want[resolved],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(np.sign(got[~resolved]),
                                      np.sign(want[~resolved]))
        assert np.all(np.abs(got[~resolved]) > 600.0)
        np.testing.assert_array_equal(x_ref, polar_transform(u))

    def test_passes_agree_bitwise(self, kind, n_chains, block_len):
        """The breadth-first pass's leaf LLRs are the unpruned recursion's,
        and a depth-first pass on each chain reaches them bit for bit, in
        the engine's float32 and in float64."""
        evidence = _evidence(kind, n_chains, 5, block_len, seed=7 * block_len)
        u = np.random.default_rng(block_len + 1).integers(
            0, 2, (5, block_len)).astype(np.uint8)
        for dtype in (np.float32, np.float64):
            breadth = _breadth_first_leaves(evidence, u, dtype)
            np.testing.assert_array_equal(breadth,
                                          _leaf_llrs(evidence, u, dtype=dtype))
            for c, chain in enumerate(_per_chain(evidence)):
                assert _depth_first_reads(chain, u, breadth[c], dtype)

    def test_float32_pass(self, kind, n_chains, block_len):
        """A float32 breadth-first pass (every pipeline's) is the unpruned
        recursion run in float32 on the float64 LLRs of the evidence, bit
        for bit, and hands stats float64 LLRs within float32 rounding of
        the float64 pass's, infinite L equal.  A node's |L| is at most
        the sum of its leaves' evidence |L|, N max|L| at most, and each of
        the log2(N) levels rounds it by at most a float32 unit (1.2e-7) of
        that, so a g-step that cancels keeps an absolute error up to
        log2(N) N max|L| 1.2e-7; elsewhere the error stays relative."""
        evidence = _evidence(kind, n_chains, 5, block_len, seed=3 * block_len)
        u = np.random.default_rng(block_len + 2).integers(
            0, 2, (5, block_len)).astype(np.uint8)
        single = _breadth_first_leaves(evidence, u, np.float32)
        assert single.dtype == np.float64
        np.testing.assert_array_equal(
            single, _leaf_llrs(evidence, u, dtype=np.float32))
        double = _breadth_first_leaves(evidence, u, np.float64)
        evidence_llr = np.abs(evidence)
        reach = evidence_llr[np.isfinite(evidence_llr)].max() * block_len
        np.testing.assert_allclose(single, double, rtol=1e-5, atol=1e-5 + (
            np.log2(block_len) * reach * np.finfo(np.float32).eps))


class TestPassesShareLeafLlrs:
    @pytest.mark.parametrize("channel", [lossless_source(0.11),
                                         crossover_side_info(0.2)])
    def test_leaf_llrs_identical(self, channel):
        block_len, n_blocks = 256, 4
        x, y = channel.sample(n_blocks, block_len, rng.stream(3, rng.STREAM_SOURCE))
        evidence = channel.leaf_evidence(y)[None, ..., None]
        u = polar_transform(x)
        # the breadth-first pass returns what stats returns
        leaves, breadth = sc_traverse(
            evidence, lambda leaves, llr: (leaves, llr), codeword=x)
        assert leaves == slice(0, block_len)
        assert breadth.shape == (n_blocks, block_len)
        assert _depth_first_reads(evidence, u, breadth)

    def test_known_bits_shape_checked(self):
        """The breadth-first pass's codeword bits are checked."""
        evidence = np.zeros((1, 2, 8, 1))
        with pytest.raises(ValueError):
            sc_traverse(evidence, lambda leaves, llr: None,
                        codeword=np.zeros((2, 4), dtype=np.uint8))
        # values outside {0, 1} are refused before the uint8 cast, which
        # would keep 2 and wrap -1 to 255
        for codeword in [np.full((2, 8), 2), np.full((2, 8), -1, dtype=np.int64)]:
            with pytest.raises(ValueError, match="codeword"):
                sc_traverse(evidence, lambda leaves, llr: None, codeword=codeword)


# an uninformative prior pair at leaf 0 and confident 1s beside it: SC
# decides the tie so that its codeword disagrees with the hard decision
# L < 0 of the evidence, at any block length
TIE_PAIRS = [[0.5, 0.5], [0.01, 0.99], [0.01, 0.99], [0.01, 0.99]]

# leaf kinds of the test plans: rounded by a threshold without a flip,
# known, and sign-decided (t = 0) with sparse per-block flips
_ROUNDED, _KNOWN, _SIGN = 0, 1, 2


@contextlib.contextmanager
def _step_counts():
    """Counts the f- and g-steps the engine computes inside the block."""
    calls = {"f": 0, "g": 0}
    with pytest.MonkeyPatch.context() as patch:
        for name, key in (("_f_step", "f"), ("_g_step", "g")):
            def counting(*args, _step=getattr(sc_module, name), _key=key,
                         **kwargs):
                calls[_key] += 1
                return _step(*args, **kwargs)

            patch.setattr(sc_module, name, counting)
        yield calls


def _rounding_uniforms(gen, n_blocks, block_len):
    """Rounding uniforms with the edge values planted: U = 0 (t = +inf,
    always rounds to 1) and U = 1 - 2^-53 (t about -36.7)."""
    uniforms = gen.random((n_blocks, block_len))
    uniforms.flat[::97] = 0.0
    uniforms.flat[50::101] = 1.0 - 2.0 ** -53
    return uniforms


def _planned(kinds, n_blocks, gen):
    """The plan (known, bits, thresholds) of per-leaf kinds: random bits at
    known leaves, flips at about 2% of the sign-decided leaves' blocks,
    and rounding thresholds at the rounded leaves (0 elsewhere)."""
    block_len = kinds.size
    random = gen.integers(0, 2, (n_blocks, block_len))
    flips = (gen.random((n_blocks, block_len)) < 0.02) & (kinds == _SIGN)
    known = kinds == _KNOWN
    thresholds = np.where(kinds == _ROUNDED, _thresholds(
        _rounding_uniforms(gen, n_blocks, block_len)), 0.0)
    return known, np.where(known, random, flips).astype(np.uint8), thresholds


def _plans(block_len, n_blocks, gen):
    """Leaf plans whose sparse flips make both flipped nodes and sign nodes
    that take the rate-1 shortcut occur: every leaf sign-decided; the
    kinds interleaved, so every node above the leaves is mixed; then
    random plans with whole subtrees of one kind as well as mixed ones."""
    yield _planned(np.full(block_len, _SIGN), n_blocks, gen)
    yield _planned(np.arange(block_len) % 3, n_blocks, gen)
    for _ in range(3):
        kinds = np.empty(block_len, dtype=np.int8)

        def fill(lo, width):
            if width == 1 or gen.random() < 0.3:
                kinds[lo:lo + width] = gen.integers(0, 3)
            else:
                fill(lo, width // 2)
                fill(lo + width // 2, width // 2)

        fill(0, block_len)
        yield _planned(kinds, n_blocks, gen)


def _expected_steps(nodes, known, bits, thresholds):
    """The f- and g-steps of the pruned walk over the unpruned recursion's
    nodes (_node_llrs) along its output, found top-down: a
    node of width M > 1 none of whose leaves is known or flipped in any
    block is decided whole when every block's min |L| over it passes
    ln 2 log2(M) + 1 + the block's largest |t| over it; a child whose
    leaves are all known costs no step, any other child its step."""
    plain = ~known & ~bits.any(axis=0)
    steps = {"f": 0, "g": 0}

    def walk(lo, width):
        if width == 1:
            return
        if plain[lo:lo + width].all():
            guard = sc_module._LN2 * (width.bit_length() - 1) + 1.0
            if thresholds is not None:
                guard = guard + np.abs(thresholds[:, lo:lo + width]).max(axis=1)
            # in float64, as the walk compares its float32 |L|
            low = np.abs(nodes[lo, width][0]).min(axis=1).astype(float)
            if (low > guard).all():
                return
        half = width // 2
        for key, start in (("f", lo), ("g", lo + half)):
            if not known[start:start + half].all():
                steps[key] += 1
                walk(start, half)

    if not known.all():
        walk(0, known.size)
    return steps


def _assert_plan_exact(evidence, known, bits, thresholds=None):
    """The pass on one-chain evidence against the oracle (see the module
    docstring), with the steps it computes those of _expected_steps and
    its second argument never called; returns its (u, x)."""
    plan = (known, bits) if thresholds is None else (known, bits, thresholds)
    return _assert_walk_exact(lambda: sc_traverse(evidence, _never, plan=plan),
                              *sc_module._llrs(evidence[..., 0], np.float32),
                              known, bits, thresholds)


def _assert_walk_exact(walk, llr, has_inf, known, bits, thresholds):
    """walk()'s (u, x) against the oracle over the (1, B, N) LLRs llr of
    the walk, in their dtype, with the steps it computes those of
    _expected_steps; returns (u, x)."""
    with _step_counts() as steps:
        u, x = walk()
    np.testing.assert_array_equal(x, polar_transform(u))
    np.testing.assert_array_equal(u[:, known], bits[:, known])
    nodes = _tree_llrs(llr, has_inf, u)
    rule = _leaf_llrs(None, u, nodes)[0] < (0.0 if thresholds is None
                                            else thresholds)
    np.testing.assert_array_equal(u[:, ~known], (rule ^ bits)[:, ~known])
    assert steps == _expected_steps(nodes, known, bits, thresholds)
    return u, x


def _assert_pruning_exact(evidence, seed, rounded=False):
    """Every plan of _plans on every chain of the evidence, walked one
    chain per pass, with the tie of TIE_PAIRS planted in the last chain of
    block 0.  Without rounded the plans drop their thresholds (t = 0 at
    every leaf); with it an all-rounded plan without flips joins them."""
    evidence = evidence.copy()
    evidence[-1, 0] = _llr_evidence(np.array(TIE_PAIRS[-1]))
    evidence[-1, 0, 0] = _llr_evidence(np.array(TIE_PAIRS[0]))
    gen = np.random.default_rng(seed)
    n_blocks, block_len = evidence.shape[1:3]
    plans = list(_plans(block_len, n_blocks, gen))
    if rounded:
        plans.append(_planned(np.full(block_len, _ROUNDED), n_blocks, gen))
    for known, bits, thresholds in plans:
        for chain in _per_chain(evidence):
            _assert_plan_exact(chain, known, bits, thresholds if rounded else None)


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
    """Plans without thresholds (the sign rule and its flips) against the
    oracle, on each of n_chains evidence chains in its own pass."""

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
            evidence[gen.random(evidence.shape[:3]) < 0.3] = 0.0
        elif special == "constant-prior":  # g-steps cancel to L = 0
            evidence[-1] = _llr_evidence(np.array([0.9, 0.1]))
        else:  # +-inf, and contradictions where a path disagrees with them
            hard = gen.integers(0, 2, evidence.shape[:3])
            certain = gen.random(evidence.shape[:3]) < 0.5
            evidence[certain] = _llr_evidence(
                np.stack([1 - hard, hard], axis=-1))[certain]
        _assert_pruning_exact(evidence, seed)


@pytest.mark.parametrize("n_blocks", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("block_len", [1, 2, 4, 1024])
@pytest.mark.parametrize("rounded", [False, True])
def test_pruned_pass_at_batch_edges(n_blocks, block_len, rounded):
    """The oracle, with and without thresholds, at batch sizes on both
    sides of the sc._TRANSPOSE_ROWS-block chunks in which a walk moves its
    inputs to the blocks-last layout, and at the smallest block lengths."""
    assert sc_module._TRANSPOSE_ROWS == 64
    seed = 3 * n_blocks + block_len + rounded
    _assert_pruning_exact(_confidence_mix(1, n_blocks, block_len, seed), seed,
                          rounded)


def test_rate1_guard_at_a_posterior_tie():
    """The smallest node where the unguarded rate-1 shortcut is wrong: the
    tie's hard decision L < 0 says 0 where SC's codeword says 1, so the
    shortcut must refuse the node."""
    evidence = _llr_evidence(np.array([[TIE_PAIRS]]))
    _, x = _assert_plan_exact(evidence, np.zeros(4, dtype=bool),
                              np.zeros((1, 4), dtype=np.uint8))
    hard = map_bits(evidence[-1, ..., 0])
    assert not np.array_equal(x, hard)


class TestPruningSkipsWork:
    """Pruned subtrees compute no f-step and no g-step."""

    @pytest.fixture
    def counted(self):
        with _step_counts() as calls:
            yield calls

    @pytest.mark.parametrize("kind", ["known", "sign"])
    def test_uniform_plan_is_one_step(self, counted, kind):
        """All known with random bits, or all sign-decided with no flip."""
        evidence = _evidence("near-deterministic", 1, 3, 1024, seed=5)
        bits = np.random.default_rng(5).integers(0, 2, (3, 1024)).astype(np.uint8)
        if kind == "sign":
            bits[:] = 0
        u, x = sc_traverse(evidence, _never,
                           plan=(np.full(1024, kind == "known"), bits))
        assert counted == {"f": 0, "g": 0}
        if kind == "known":
            np.testing.assert_array_equal(u, bits)
        else:
            np.testing.assert_array_equal(x, map_bits(evidence[0, ..., 0]))
        np.testing.assert_array_equal(x, polar_transform(u))

    def test_one_correction_flips_one_block(self, counted):
        """One flip in one block of an all-sign plan: that leaf flips in
        that block and nowhere else, every other block and every earlier
        leaf keeps the unflipped decision, and the root's shortcut is
        refused, so the pass computes f- and g-steps."""
        evidence = _evidence("near-deterministic", 1, 3, 1024, seed=5)
        known, bits = np.zeros(1024, dtype=bool), np.zeros((3, 1024), np.uint8)
        u_plain, _ = sc_traverse(evidence, _never, plan=(known, bits))
        bits[1, 300] = 1
        u, _ = _assert_plan_exact(evidence, known, bits)
        assert counted["f"] > 0 and counted["g"] > 0
        np.testing.assert_array_equal(u[[0, 2]], u_plain[[0, 2]])
        np.testing.assert_array_equal(u[1, :300], u_plain[1, :300])
        assert u[1, 300] != u_plain[1, 300]

    def test_unresolved_prior_recurses(self, counted):
        evidence = _evidence("random", 1, 3, 64, seed=5)
        sc_traverse(evidence, _never,
                    plan=(np.zeros(64, dtype=bool), np.zeros((3, 64), np.uint8)))
        assert counted["f"] > 0 and counted["g"] > 0

    def test_polarized_free_plan_is_one_step(self, counted):
        """An all-rounded plan whose every |L| clears the root's guard with
        its thresholds is decided at the root, without a callback."""
        evidence = _polarized(1, 4, 1024, seed=6)
        thresholds = _thresholds(
            np.random.default_rng(6).uniform(0.25, 0.75, (4, 1024)))
        known, bits = np.zeros(1024, dtype=bool), np.zeros((4, 1024), np.uint8)
        u, x = sc_traverse(evidence, _never, plan=(known, bits, thresholds))
        assert counted == {"f": 0, "g": 0}
        np.testing.assert_array_equal(
            (u, x), _assert_plan_exact(evidence, known, bits, thresholds))
        np.testing.assert_array_equal(x, map_bits(evidence[0, ..., 0]))


class TestPlanChecked:
    def test_bad_plans_rejected(self):
        evidence = np.zeros((1, 2, 8, 1))
        free, bits = np.zeros(8, dtype=bool), np.zeros((2, 8), dtype=np.uint8)
        # plan bits outside {0, 1}: known bits of 3 would come out as 3s, and
        # a flip of 2 would decide u[0] = 2
        flip = bits.copy()
        flip[0, 0] = 2
        for plan in [(np.zeros(4, dtype=bool), bits), (np.full(8, 3), bits),
                     (free, bits[:1]), (np.ones(8, dtype=bool), bits + 3),
                     (free, flip), (free, bits, np.zeros((2, 8)), None)]:
            with pytest.raises(ValueError, match="plan"):
                sc_traverse(evidence, _never, plan=plan)

    def test_no_plan_decides_every_leaf_by_sign(self):
        """Without a plan no leaf is known or flipped and t = 0, so every
        leaf takes the sign of its LLR."""
        evidence = _evidence("random", 1, 3, 64, seed=8)
        u, x = sc_traverse(evidence, _never)
        np.testing.assert_array_equal(u, map_bits(_leaf_llrs(evidence, u)[0]))
        np.testing.assert_array_equal(x, polar_transform(u))
        plain = sc_traverse(evidence, _never, plan=(
            np.zeros(64, dtype=bool), np.zeros((3, 64), np.uint8),
            np.zeros((3, 64))))
        np.testing.assert_array_equal(plain[0], u)

    def test_depth_first_pass_walks_one_chain(self):
        """Two chains are refused by the depth-first pass, with or without
        a plan, and by the breadth-first one."""
        evidence = np.zeros((2, 2, 8, 1))
        bits = np.zeros((2, 8), dtype=np.uint8)
        for plan in [None, (np.zeros(8, dtype=bool), bits)]:
            with pytest.raises(ValueError, match="one chain"):
                sc_traverse(evidence, _never, plan=plan)
        with pytest.raises(ValueError, match="one chain"):
            sc_traverse(evidence, _never, codeword=bits)

    @pytest.mark.parametrize("n_chains", [0, 3])
    def test_leading_axis_other_than_one_rejected(self, n_chains):
        """Evidence whose leading axis is neither 1 nor the 2 above is a
        ValueError in both passes too."""
        evidence = np.zeros((n_chains, 2, 8, 1))
        bits = np.zeros((2, 8), dtype=np.uint8)
        for kwargs in [{}, {"plan": (np.zeros(8, dtype=bool), bits)},
                       {"codeword": bits}]:
            with pytest.raises(ValueError, match="one chain"):
                sc_traverse(evidence, _never, **kwargs)

    @pytest.mark.parametrize("width", [0, 2, 3])
    def test_trailing_axis_other_than_one_rejected(self, width):
        """Evidence is one LLR per position: (1, B, N, 2) log-weight pairs,
        or any other trailing axis, are a ValueError in both passes, so a
        caller still handing over pairs cannot be misread."""
        evidence = np.zeros((1, 2, 8, width))
        bits = np.zeros((2, 8), dtype=np.uint8)
        for kwargs in [{}, {"plan": (np.zeros(8, dtype=bool), bits)},
                       {"codeword": bits}]:
            with pytest.raises(ValueError, match=r"\(1, B, N, 1\)"):
                sc_traverse(evidence, lambda leaves, llr: None, **kwargs)

    def test_list_evidence_accepted(self):
        """Evidence given as nested lists runs as the same array does."""
        evidence = _evidence("random", 1, 3, 16, seed=12)
        bits = np.random.default_rng(12).integers(0, 2, (3, 16)).astype(np.uint8)
        np.testing.assert_array_equal(sc_traverse(evidence.tolist(), _never),
                                      sc_traverse(evidence, _never))
        np.testing.assert_array_equal(
            sc_traverse(evidence.tolist(), lambda leaves, llr: llr, codeword=bits),
            sc_traverse(evidence, lambda leaves, llr: llr, codeword=bits))

    @pytest.mark.parametrize("dtype", [np.float16, np.longdouble, np.int32])
    def test_other_dtypes_rejected(self, dtype):
        evidence = np.zeros((1, 2, 8, 1))
        bits = np.zeros((2, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="dtype"):
            sc_traverse(evidence, lambda leaves, llr: None, codeword=bits,
                        dtype=dtype)

    def test_plan_and_known_exclusive(self):
        """A codeword (the breadth-first pass) and a plan are exclusive."""
        evidence = np.zeros((1, 2, 8, 1))
        bits = np.zeros((2, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="breadth-first"):
            sc_traverse(evidence, lambda leaves, llr: None, codeword=bits,
                        plan=(np.zeros(8, dtype=bool), bits))


class TestMarginsChecked:
    """Thresholds (from which each node's margin is taken) of the wrong
    shape or with NaNs are refused.  The ids skip margins1, the negative
    margins refused before thresholds replaced margins: a negative
    threshold is valid."""

    @pytest.mark.parametrize("thresholds", [
        pytest.param(np.zeros((2, 4)), id="margins0"),
        pytest.param(np.full((2, 8), np.nan), id="margins2")])
    def test_bad_margins_rejected(self, thresholds):
        evidence = np.zeros((1, 2, 8, 1))
        plan = (np.zeros(8, dtype=bool), np.zeros((2, 8), np.uint8), thresholds)
        with pytest.raises(ValueError, match="plan thresholds"):
            sc_traverse(evidence, _never, plan=plan)

class TestInfiniteEvidence:
    def test_certain_evidence_constructs_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for channel in (lossless_source(0.0), crossover_side_info(0.0)):
                profile = construct_profile(channel, 64, sample_count=20, seed=2)
                for name in ("h_cond", "h_prior", "e_cond", "e_prior"):
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
        evidence = _llr_evidence(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
        u = np.zeros((1, 2), np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            known = _breadth_first_leaves(evidence, u)
            assert _depth_first_reads(evidence, u, known[0])
        np.testing.assert_array_equal(known[0, 0], [-np.inf, 0.0])

    def test_llrs_past_float32_range_read_as_infinite(self):
        """A finite L beyond float32's range, float64's largest among them,
        is carried as the infinity it casts to, in both passes and without
        a warning: the leaves are those of the same evidence made
        certain."""
        largest = np.finfo(np.float64).max
        finite = np.array([[[[1e39], [-1e39], [1e39], [largest]]]])
        certain = np.array([[[[np.inf], [-np.inf], [np.inf], [np.inf]]]])
        u = np.zeros((1, 4), np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            leaves = _breadth_first_leaves(finite, u)
            np.testing.assert_array_equal(
                leaves, _breadth_first_leaves(certain, u))
            assert not np.isnan(leaves).any()
            assert _depth_first_reads(finite, u, leaves[0])
            np.testing.assert_array_equal(sc_traverse(finite, _never),
                                          sc_traverse(certain, _never))

    @pytest.mark.parametrize("pair", [(np.nan, np.nan), (np.nan, 0.0),
                                      (-np.inf, np.nan)])
    def test_nan_evidence_rejected(self, pair):
        """A NaN anywhere in the evidence, here the LLR pair[0] - pair[1]
        of a log-weight pair holding a NaN, in the second transpose chunk
        of a walk, is an error in both passes."""
        evidence = np.zeros((1, 70, 16, 1))
        evidence[0, 66, 9] = np.subtract(*pair)
        u = np.zeros((70, 16), np.uint8)
        with pytest.raises(ValueError, match="NaN"):
            sc_traverse(evidence, _never, codeword=u)
        with pytest.raises(ValueError, match="NaN"):
            sc_traverse(evidence, _never)
        with pytest.raises(ValueError, match="NaN"):
            sc_traverse(evidence, _never, plan=(
                np.zeros(16, dtype=bool), u, np.zeros((70, 16))))


def test_leaf_formulas_match_pair_formulas():
    """h and the misses read from L against the pair formulas they
    replace: p = (1 / (1 + e^-L), 1 / (1 + e^L)) with L capped at +-700,
    h = -log2 p(bit), a miss where map_bits(L) != bit; ties decide 0
    whatever the zero's sign."""
    llr = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0,
                    700.0, -700.0, 800.0, -800.0, np.inf, -np.inf])
    capped = np.clip(llr, -700.0, 700.0)
    pairs = np.stack([1 / (1 + np.exp(-capped)), 1 / (1 + np.exp(capped))], -1)
    for bit in (0, 1):
        # one block: (B, N) LLRs and (B, N) bits
        misses, h = _leaf_statistics(llr[None].copy(),
                                     np.full((1, llr.size), bit, np.uint8))
        np.testing.assert_array_equal(misses, map_bits(llr) != bit)
        np.testing.assert_allclose(h[0], -np.log2(pairs[:, bit]),
                                   rtol=1e-14, atol=1e-15)
    assert np.all(np.isfinite(h))
    resolved = pairs[:, 0] != pairs[:, 1]
    np.testing.assert_array_equal(map_bits(llr)[resolved],
                                  (pairs[:, 1] > pairs[:, 0])[resolved])
    # the pairs of +-1e-300 round to a tie; the sign of L decides them
    np.testing.assert_array_equal(map_bits(llr[:4]), [0, 0, 0, 1])
    assert map_bits(np.array(-0.0)) == map_bits(np.array(0.0)) == 0


def _leaf_statistics_copysign(llr, bits):
    """_leaf_statistics as it was before its signs moved as bits and its
    log1p was masked: s from an int8 multiply, -|s| from np.copysign and
    log1p on every value.  The oracle of
    test_leaf_statistics_match_copysign_form."""
    misses = map_bits(llr)
    misses ^= bits
    misses = np.add.reduce(misses, axis=0, dtype=np.int32)
    capped = np.clip(llr, -700.0, 700.0)
    sign = np.multiply(bits, 2, dtype=np.int8)
    sign -= 1
    h = np.multiply(capped, sign)
    np.maximum(h, 0.0, out=h)
    h += np.log1p(np.exp(np.copysign(capped, -1.0)))
    h /= np.log(2.0)
    return misses, h


def test_leaf_statistics_match_copysign_form(monkeypatch):
    """Bit for bit against the copysign form, misses included, on the
    leaves of two real constructions (a side-information channel's
    conditional chain and a plain source's two chains), and on leaves with +-0,
    +-700 and past it, +-inf and |L| around 37.5, where e^-|L| crosses
    the mask of log1p, planted in a (5, 2000) batch whose last log1p
    pass is a partial one."""
    leaves = []
    real = profile_module._leaf_statistics

    def keep(llr, bits):
        leaves.append((llr.copy(), bits.copy()))
        return real(llr, bits)

    monkeypatch.setattr(profile_module, "_leaf_statistics", keep)
    for channel in (crossover_side_info(0.11), lossless_source(0.11)):
        construct_profile(channel, 1024, sample_count=32, seed=5)
    monkeypatch.undo()
    gen = np.random.default_rng(8)
    llr = np.resize(leaves[0][0], (5, 2000))
    near = 37.5 + np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3])
    planted = np.concatenate([[0.0, -0.0, 700.0, -700.0, 800.0, -800.0,
                               np.inf, -np.inf], near, -near])
    spots = gen.choice(llr.size, (40, planted.size), replace=False)
    llr.flat[spots] = planted
    leaves.append((llr, gen.integers(0, 2, llr.shape, dtype=np.uint8)))
    for llr, bits in leaves:
        assert llr.size > profile_module._LEAF_TAIL_VALUES
        misses, h = _leaf_statistics(llr.copy(), bits)
        want_misses, want_h = _leaf_statistics_copysign(llr.copy(), bits)
        np.testing.assert_array_equal(misses, want_misses)
        np.testing.assert_array_equal(h.view(np.uint64), want_h.view(np.uint64))


def test_log1p_is_identity_below_leaf_mask():
    """NumPy's float64 log1p returns its argument bit for bit at and below
    profile._LOG1P_IS_IDENTITY, which _leaf_statistics' masked log1p rests
    on: 2^20 arguments e^-|L| for |L| from 37.5 to the cap at 700 in
    random order, as leaves mix them, and the edges.  A NumPy whose log1p
    breaks the identity fails here, not in a moved profile digest."""
    threshold = profile_module._LOG1P_IS_IDENTITY
    assert threshold < 2.0 ** -54
    gen = np.random.default_rng(11)
    x = np.concatenate([np.exp(-gen.uniform(37.5, 700.0, 1 << 20)),
                        [threshold, np.nextafter(threshold, 0.0), np.exp(-700.0)]])
    x = x[x <= threshold]
    assert x.size > (1 << 20) - 100
    np.testing.assert_array_equal(np.log1p(x).view(np.uint64), x.view(np.uint64))


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
# the leaf rule with thresholds, and rate-1 pruning past their margins
# ---------------------------------------------------------------------------

def _polarized(n_chains, n_blocks, block_len, seed, doubt=1e-12):
    """Pairs within doubt of a random hard bit at every leaf, |L| about
    ln(1/doubt)."""
    gen = np.random.default_rng(seed)
    p1 = np.abs(gen.integers(0, 2, (n_chains, n_blocks, block_len)) - doubt)
    return _llr_evidence(np.stack([1.0 - p1, p1], axis=-1))


@pytest.mark.parametrize("n_chains", [1, 2])
@pytest.mark.parametrize("block_len", [8, 64, 1024])
class TestMarginPrunedPass:
    """Plans with thresholds: a node's margin is its largest |t|, and nodes
    past the shifted guard take the sign of their LLRs, bit-identical to
    the leaf rule at every leaf (the oracle), on each of n_chains evidence
    chains in its own pass."""

    @pytest.mark.parametrize("kind", ["random", "near-deterministic", "mixed",
                                      "polarized", "infinite"])
    def test_matches_every_leaf_pass(self, kind, n_chains, block_len):
        seed = 13 * block_len + 5 * n_chains
        gen = np.random.default_rng(seed)
        if kind == "mixed":
            evidence = _confidence_mix(n_chains, 6, block_len, seed)
        elif kind == "polarized":  # |L| about 69: most rounded nodes shortcut
            evidence = _polarized(n_chains, 6, block_len, seed, doubt=1e-30)
        elif kind == "infinite":  # +-inf, and contradictions on some paths
            evidence = _polarized(n_chains, 6, block_len, seed)
            hard = gen.integers(0, 2, evidence.shape[:3])
            certain = gen.random(evidence.shape[:3]) < 0.5
            evidence[certain] = _llr_evidence(
                np.stack([1 - hard, hard], axis=-1))[certain]
        else:
            evidence = _evidence(kind, n_chains, 6, block_len, seed)
        _assert_pruning_exact(evidence, seed, rounded=True)


def _leaf_rule(llr, uniforms):
    """(B,) bits of one leaf of LLRs llr (a scalar or (B,)) rounded with
    the (B,) uniforms, read from depth-first passes of N = 1."""
    llr = np.broadcast_to(llr, uniforms.shape)
    p1 = 1.0 / (1.0 + np.exp(llr))
    evidence = _llr_evidence(np.stack([1.0 - p1, p1], axis=-1))[None, :, None]
    plan = (np.zeros(1, dtype=bool), np.zeros((uniforms.size, 1), np.uint8),
            _thresholds(uniforms)[:, None])
    return sc_traverse(evidence, _never, plan=plan)[0][:, 0]


def test_thresholds_at_the_edges():
    """U = 0 gives t = +inf and U = 1/2 gives t = 0; at an exact tie L = 0
    a leaf decides 1 exactly when U < 1/2, one float step either side of
    1/2 included."""
    uniforms = np.array([0.0, 2.0 ** -53, 0.25, np.nextafter(0.5, 0.0), 0.5,
                         np.nextafter(0.5, 1.0), 0.75, 1.0 - 2.0 ** -53])
    t = _thresholds(uniforms)
    assert t[0] == np.inf and t[4] == 0.0
    np.testing.assert_allclose(t[[2, 6]], [np.log(3.0), -np.log(3.0)], rtol=1e-15)
    assert (t[1:4] > 0.0).all() and (t[5:] < 0.0).all()
    np.testing.assert_array_equal(_leaf_rule(0.0, uniforms), uniforms < 0.5)


@pytest.mark.parametrize("llr", [-3.0, 0.0, 2.0])
def test_rounding_frequency_follows_the_posterior(llr):
    """Over 20,000 fixed-seed uniforms the fraction of 1s at a fixed L lies
    within five binomial standard deviations of P(1) = 1/(1 + e^L)."""
    n = 20_000
    uniforms = np.random.default_rng(int(llr) + 10).random(n)
    p1 = 1.0 / (1.0 + np.exp(llr))
    ones = _leaf_rule(llr, uniforms).mean()
    assert abs(ones - p1) < 5.0 * np.sqrt(p1 * (1.0 - p1) / n)


class TestPlantedMargins:
    """Single leaves where the sign rule and rounding disagree are decided
    at the leaf, and the guard's comparison is strict."""

    @pytest.mark.parametrize("sign,planted_u,bit", [
        (+1, 0.0, 1),               # U = 0 rounds to 1 whatever L is
        (-1, 1.0 - 2.0 ** -53, 0),  # L = -28 > t = -36.7: rounds to 0
    ])
    def test_edge_uniforms_reach_decide(self, sign, planted_u, bit):
        """Eight rounded leaves in one block beside a control block,
        evidence L = 30 at every position but one flipped to -30 for a
        negative sign; leaf 0, the box-plus of them all, then has L about
        +-28.  U = 0.5 everywhere except planted_u at leaf 0 of block 0."""
        pairs = np.tile([1 - 1e-13, 1e-13], (1, 2, 8, 1))
        if sign < 0:
            pairs[0, 0, 5] = [1e-13, 1 - 1e-13]
        evidence = _llr_evidence(pairs)
        uniforms = np.full((2, 8), 0.5)
        uniforms[0, 0] = planted_u
        u, _ = _assert_plan_exact(evidence, np.zeros(8, dtype=bool),
                                  np.zeros((2, 8), np.uint8), _thresholds(uniforms))
        # the leaf disagrees with its sign rule, so no shortcut may take it
        leaf_llr = _node_llrs(evidence, u)[0, 1][0, 0, 0]
        assert 20 < abs(leaf_llr) < 30 and np.sign(leaf_llr) == sign
        assert u[0, 0] == bit != map_bits(leaf_llr)

    @pytest.mark.parametrize("above", [True, False])
    def test_guard_is_strict(self, above):
        """Thresholds +-m set so that the guard of a width-2 node sits one
        float step below (shortcut, no f-step) or at/above (no shortcut,
        one f-step) its min |L|; past |t| + 1 the leaf rule is the sign
        rule, so the output is the oracle's either way.  The guard is
        compared with the walk's float32 |L| in float64."""
        evidence = _polarized(1, 1, 2, seed=4, doubt=1e-5)
        low = float(np.abs(evidence).astype(np.float32).min())
        base = sc_module._LN2 * 1 + 1.0
        margin = low - base
        if above:
            while base + margin >= low:
                margin = np.nextafter(margin, -np.inf)
        else:
            while base + margin < low:
                margin = np.nextafter(margin, np.inf)
        plan = (np.zeros(2, dtype=bool), np.zeros((1, 2), np.uint8),
                np.array([[margin, -margin]]))
        with _step_counts() as steps:
            u, x = sc_traverse(evidence, _never, plan=plan)
        assert steps["f"] == (0 if above else 1)
        np.testing.assert_array_equal((u, x), _assert_plan_exact(evidence, *plan))
        np.testing.assert_array_equal(x, map_bits(evidence[0, ..., 0]))


# ---------------------------------------------------------------------------
# float32 walks on planted LLRs: the rate-1 guard's edges
# ---------------------------------------------------------------------------

# leaf LLR kinds of planted walks: just above a guard, at least 2^24 (a
# float32 unit there exceeds 1), infinite, an exact tie, and ordinary
_ABOVE_GUARD, _HUGE, _INFINITE, _TIE, _ORDINARY = range(5)
_THRESHOLD_EDGES = [0.0, 37.0, -37.0, np.inf, -np.inf]


def _float32_above(values, steps):
    """The float32 values steps + 1 units above the float64 values, the
    first being the least float32 above each."""
    out = values.astype(np.float32)
    out = np.where(out > values, out, np.nextafter(out, np.float32(np.inf)))
    for step in range(int(steps.max(initial=0))):
        out = np.where(steps > step, np.nextafter(out, np.float32(np.inf)), out)
    return out


@st.composite
def planted_walks(draw):
    """(llr, known, bits, thresholds) of a float32 walk over (B, N) LLRs
    given as they are, N up to 64.  An _ABOVE_GUARD leaf lies 1 to 4
    float32 units above ln 2 log2(M) + 1 + m, M a node width up to N and
    m its block's largest |t| (a huge value where m is infinite);
    thresholds, when drawn, mix +-37, +-inf and 0 with values between;
    few leaves are known or flipped, so rate-1 nodes occur, and some leaf
    is not known."""
    block_len = 1 << draw(st.integers(0, 6))
    shape = (draw(st.integers(1, 3)), block_len)
    thresholds = None
    if draw(st.booleans()):
        thresholds = draw(arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from(_THRESHOLD_EDGES), st.floats(-37.0, 37.0))))
    margin = (np.zeros(shape[0]) if thresholds is None
              else np.abs(thresholds).max(axis=1))
    kinds = draw(arrays(np.int8, shape, elements=st.integers(0, 4)))
    steps = draw(arrays(np.int8, shape, elements=st.integers(0, 3)))
    widths = draw(arrays(np.int8, shape, elements=st.integers(
        0, block_len.bit_length() - 1)))
    guard = sc_module._LN2 * widths + 1.0 + margin[:, None]
    huge = np.float32(2.0 ** 24) * (1 + steps)
    magnitude = np.select(
        [kinds == _ABOVE_GUARD, kinds == _HUGE, kinds == _INFINITE,
         kinds == _TIE],
        [np.where(np.isfinite(guard), _float32_above(guard, steps), huge),
         huge, np.inf, 0.0],
        draw(arrays(np.float32, shape, elements=st.floats(0.0, 60.0, width=32))))
    negative = draw(arrays(np.bool_, shape))
    llr = np.copysign(magnitude, np.where(negative, -1.0, 1.0)).astype(np.float32)
    known = draw(arrays(np.bool_, block_len,
                        elements=st.sampled_from([False, False, False, True])))
    known[0] &= not known.all()  # sc_traverse answers a rate-0 root itself
    flips = draw(arrays(np.bool_, shape, elements=st.sampled_from([False] * 7 + [True])))
    given_bits = draw(arrays(np.bool_, shape))
    bits = np.where(known, given_bits, flips & ~known).astype(np.uint8)
    return llr, known, bits, thresholds


def _planted_walk(llr, has_inf, plan):
    """The depth-first walk over (B, N) float32 LLRs given as they are,
    past the evidence: (u, x) as contiguous (B, N) arrays."""
    known, bits, thresholds = (plan + (None,))[:3]
    with np.errstate(invalid="ignore", over="ignore"):
        u, x = sc_module._depth_first(np.ascontiguousarray(llr.T), has_inf,
                                      known, bits, thresholds)
    return np.ascontiguousarray(u), np.ascontiguousarray(x)


class TestFloat32Walks:
    """The float32 rate-1 guard (see the sc module docstring) at its edges:
    planted node LLRs just above the guard, magnitudes past 2^24, +-inf,
    exact ties, and thresholds at +-37 and +-inf."""

    @given(planted_walks())
    def test_pruned_walk_is_the_unpruned_recursion(self, walk):
        """A float32 walk with its rate-0 and rate-1 shortcuts equals the
        unpruned float32 recursion along its output bit for bit (the
        oracle), and prunes exactly the nodes whose guard passes."""
        llr, known, bits, thresholds = walk
        has_inf = bool(np.isinf(llr).any())
        plan = (known, bits, thresholds)
        _assert_walk_exact(lambda: _planted_walk(llr, has_inf, plan),
                           llr[None], has_inf, known, bits, thresholds)

    @given(planted_walks())
    def test_breadth_first_pass_reaches_the_walks_leaves(self, walk):
        """A float32 breadth-first pass along bits u, a lossless encoder's
        flag pass, and float32 walks along u, its decoder's, reach
        bitwise-equal leaf LLRs: the premise of exact replay."""
        llr, _, u, _ = walk
        has_inf = bool(np.isinf(llr).any())
        with np.errstate(invalid="ignore", over="ignore"):
            seen = sc_module._breadth_first(llr.copy(), has_inf, polar_transform(u),
                                            lambda leaves, out: out)
        np.testing.assert_array_equal(
            seen, _leaf_llrs(None, u, _tree_llrs(llr[None], has_inf, u))[0])
        assert _walk_reads(lambda plan: _planted_walk(llr, has_inf, plan)[0],
                           u, seen)


def _traced_peak_mib(run) -> float:
    """Peak traced memory of run(), NumPy buffers included, in MiB."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


class TestWalkMemory:
    """A depth-first walk of 128 blocks at N=4096, the largest the coders
    run (profile._BATCH_VALUES), every leaf decided by the leaf rule, with its
    inputs made before tracing.  Its peak is the root's f-step (see the
    sc module docstring).  In the engine's float32 it was measured at 5.7
    MiB without thresholds and 9.7 MiB with them (float64 thresholds).  In
    float64 it was 10.8 and 14.8 MiB before the walk held its arrays
    blocks last.  Each may grow by at most 0.5 MiB, so the layout is made
    without a (B, N) LLR or threshold array of the walk beside its (N, B)
    transpose, which would add 2 MiB (float32 LLRs) or 4 MiB."""

    @pytest.mark.parametrize("rounded,limit,dtype", [
        pytest.param(False, 10.8 + 0.5, np.float64, id="False-11.3"),
        pytest.param(True, 14.8 + 0.5, np.float64, id="True-15.3"),
        pytest.param(False, 5.7 + 0.5, np.float32, id="float32-False-6.2"),
        pytest.param(True, 9.7 + 0.5, np.float32, id="float32-True-10.2")])
    def test_walk_peak(self, rounded, limit, dtype):
        assert profile_module._BATCH_VALUES == 128 * 4096
        gen = np.random.default_rng(9)
        evidence = _evidence("random", 1, 128, 4096, seed=9)
        plan = (np.zeros(4096, dtype=bool), np.zeros((128, 4096), np.uint8))
        if rounded:
            plan += (_thresholds(gen.random((128, 4096))),)
        peak = _traced_peak_mib(
            lambda: sc_traverse(evidence, _never, plan=plan, dtype=dtype))
        assert peak < limit


def _f_step_two_loops(a, b, has_inf):
    """The f-step as it was computed before its two log terms shared one
    clamp, exp and log1p, and before its signs moved as bits: the oracle
    of test_f_step_matches_two_loop_formula.  Returns the result and the
    magnitude np.copysign took it from."""
    out = np.empty_like(a)
    sum_term, gap_term = np.empty((2,) + a.shape, dtype=a.dtype)
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
    return np.copysign(sum_term, gap_term, out=out), sum_term


def _f_step_values(gen, shape, dtype, kind, has_inf):
    """LLRs for the f-step oracle test: "mixed" mixes +-0, huge values
    (whose product overflows), magnitudes on both sides of the term cap
    at 60 and +-inf where the pass has infinite LLRs; "tiny" has
    magnitudes from 1e-6 to 1e-3, where float32 magnitudes round below
    0."""
    if kind == "tiny":
        magnitude = 10.0 ** gen.uniform(-6.0, -3.0, shape)
        return np.where(gen.random(shape) < 0.5, -magnitude, magnitude).astype(dtype)
    huge = 1e300 if dtype == np.float64 else 1e30
    special = [0.0, -0.0, huge, -huge, 59.5, -60.0, 60.0, 60.5, -120.0, 30.0]
    if has_inf:
        special += [np.inf, -np.inf]
    return np.where(gen.random(shape) < 0.5, gen.choice(special, shape),
                    gen.normal(0.0, 40.0, shape)).astype(dtype)


@pytest.mark.parametrize("shape", [(64, 4), (2, 16, 1024), (1, 64)])
@pytest.mark.parametrize("has_inf", [False, True])
def test_f_step_matches_two_loop_formula(shape, has_inf):
    """Bit for bit, signed zeros and inf included, in float64 (the test
    oracles') and float32 (every pipeline's pass), on mixed values and on
    tiny ones, whose float32 magnitudes round below 0 (the oracle's
    copysign takes their absolute value).  a and b are the two halves,
    along axis -2, of one node: a walk's contiguous (M/2, B) halves at
    (64, 4), a breadth-first pass's strided (B, M/2, count) halves at
    (2, 16, 1024), run bare and into the contiguous scratch that pass
    gives, and a walk's (1, B) rows above its leaves at (1, 64)."""
    node_shape = shape[:-2] + (2 * shape[-2], shape[-1])
    half = shape[-2]
    for dtype, bits in [(np.float64, np.uint64), (np.float32, np.uint32)]:
        for kind in ("mixed", "tiny"):
            gen = np.random.default_rng(sum(shape) + has_inf)
            node = _f_step_values(gen, node_shape, dtype, kind, has_inf)
            a, b = node[..., :half, :], node[..., half:, :]
            with np.errstate(invalid="ignore", over="ignore"):
                want, magnitude = _f_step_two_loops(a, b, has_inf)
                got = [sc_module._f_step(a, b, has_inf)]
                if len(shape) == 3:
                    scratch = np.empty((3,) + shape, dtype=dtype)
                    got.append(sc_module._f_step(a, b, has_inf, out=scratch[2],
                                                 work=scratch[:2]))
            if kind == "tiny" and dtype == np.float32:
                assert (magnitude < 0).any()
            for result in got:
                assert result.dtype == dtype
                np.testing.assert_array_equal(result.view(bits), want.view(bits))
