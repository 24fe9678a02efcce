"""Batched successive-cancellation traversal in log-likelihood ratios.

One engine serves construction, lossless coding and lossy coding.  It walks
the polarization recursion over a batch of blocks, carrying one or two
evidence chains side by side:

* chain 0 conditions on the observed side information,
* an optional chain 1 conditions on nothing (the prior chain), used when the
  coded variable has a nonuniform prior and some decisions must be
  reproducible from the prior alone.

Both chains always receive the same decided bits, so their per-position
values stay aligned.  All chain arithmetic is elementwise per chain; running
the prior chain alone therefore reproduces bit-for-bit the values it takes
inside a two-chain traversal, which is what lets an encoder (two chains) and
a decoder (prior chain only) agree exactly on deterministic decisions.

Evidence enters as normalized per-position posteriors (chains, blocks, N, 2)
and is carried as one log-likelihood ratio L = ln p0 - ln p1 per position.
The split at a node of width M pairs position j of the first half (a) with
position j of the second half (b): the first child decodes the transform of
(first xor second) from the exact box-plus f(a, b) = ln((1 + e^(a+b)) /
(e^a + e^b)); the second decodes the transform of the second half from the
g-step b + (1 - 2v) a once the first child's codeword v is known.
Zero-probability evidence gives L = +-inf, which both steps carry through;
contradictory evidence (+inf meeting -inf in a g-step) falls back to the
uninformative L = 0.

There are two passes, chosen by the input:

* depth-first (``sc_traverse(evidence, decide, plan=(kinds, bits))``):
  leaves are decided in index order, each by its kind in the plan:
  KNOWN leaves take their bit from ``bits``, PRIOR leaves the
  maximum-posterior bit of the last (prior) chain, and FREE leaves the bit
  the ``decide`` callback returns from the leaf's posterior pairs.  Without
  a plan every leaf is FREE;
* breadth-first (``sc_traverse(evidence, stats, known=u)``): every leaf bit
  is given, so all partial sums are known up front and the tree is
  evaluated one level at a time over all nodes at once; ``stats`` is called
  once with the posterior pairs of every leaf.

The depth-first pass prunes two kinds of subtree (the rate-0 and rate-1
nodes of simplified SC: Alamdar-Yazdi & Kschischang, IEEE Commun. Lett.
2011; Sarkis et al., "Fast polar decoders", IEEE JSAC 2014):

* rate-0, every leaf of the node KNOWN: its codeword is the transform of
  the known bits, and neither its LLRs nor any step below it is computed.
  This is exact, because no decision inside reads a posterior.
* rate-1, every leaf of a node of width M > 1 PRIOR: its codeword is the
  hard decision (L < 0) of the node's prior-chain LLRs, taken only when
  every such |L| over the node and the batch exceeds ln 2 log2(M) + 1.
  The guard makes the shortcut exact.  By induction on M: a leaf with
  |L| > 1 is decided by the sign of L (no posterior tie).  At width M, the
  f-step keeps the xor of the signs and loses at most ln 2 of magnitude,
  |f(a, b)| >= min(|a|, |b|) - ln 2 > ln 2 log2(M/2) + 1, so the first
  child returns v = hard(a) xor hard(b).  The g-step b + (1 - 2v) a then
  adds two terms of the sign of b, so it never cancels, |g| >= |b|, and
  the second child returns hard(b); the node returns [hard(a), hard(b)].
  Without the guard, exact ties (L = 0) break the sign rule: the lattice
  prior table has tie rows, and g-steps cancel on constant prior evidence.

Both passes build their values from the same elementwise f- and g-steps and
turn leaf LLRs into posterior pairs with the same helper, so for the same
bits they see bitwise-identical leaves.  Maximum-posterior decisions go
through ``map_bits``, which decides 1 only when p1 > p0: a tie, including
|L| so small that both pairs round to 1/2, decides 0.
"""

from __future__ import annotations

import numpy as np

from .transform import polar_transform


def _llrs(evidence: np.ndarray):
    """L = ln p0 - ln p1 of (..., 2) pairs, a (0, 0) pair giving L = 0, and
    whether any L is infinite."""
    evidence = np.asarray(evidence, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = np.log(evidence[..., 0])
        llr -= np.log(evidence[..., 1])
    llr[np.isnan(llr)] = 0.0
    return llr, not np.isfinite(llr).all()


# leaf kinds of a depth-first plan
LEAF_FREE, LEAF_KNOWN, LEAF_PRIOR = 0, 1, 2

_LN2 = float(np.log(2.0))
_PAIR_SIGNS = np.array([-1.0, 1.0])
# the f-step caps t at 60 in its ln(1 + e^-t) terms, which keeps exp and
# log1p off their slow underflow paths and moves a result by less than
# 1e-25 of its size, far below one rounding unit
_TERM_CAP = 60.0
# leaf pairs are computed from L clipped to +-700, so exp never overflows
# and no pair entry falls below e^-700 (about 1e-304)
_LEAF_CAP = 700.0
# values per block group of the breadth-first pass
_GROUP_VALUES = 1 << 16


def _f_step(a: np.ndarray, b: np.ndarray, has_inf: bool, out=None, work=None):
    """Exact box-plus of two LLR arrays, into out if given.

    sign(a) sign(b) [m + ln(1 + e^-(M+m)) - ln(1 + e^-(M-m))] with m, M the
    smaller and larger of |a|, |b|; both log terms lie in [0, ln 2].  work
    is an optional (3,) + a.shape float scratch buffer.
    """
    if out is None:
        out = np.empty(a.shape)
    if work is None:
        work = np.empty((3,) + a.shape)
    sum_term, gap_term, neg_near = work
    np.copysign(a, -1.0, out=sum_term)  # -|a|
    np.copysign(b, -1.0, out=gap_term)  # -|b|
    np.maximum(sum_term, gap_term, out=neg_near)  # -m
    np.minimum(sum_term, gap_term, out=sum_term)  # -M
    np.subtract(sum_term, neg_near, out=gap_term)  # -(M - m); nan if both infinite
    if has_inf:
        gap_term[np.isnan(gap_term)] = 0.0
    sum_term += neg_near  # -(M + m)
    for term in (sum_term, gap_term):  # term <- ln(1 + e^term)
        np.maximum(term, -_TERM_CAP, out=term)
        np.exp(term, out=term)
        np.log1p(term, out=term)
    sum_term -= neg_near
    sum_term -= gap_term  # the magnitude
    # the sign of a * b is the xor of their signs even where the product
    # overflows; where it is nan (0 times inf) the magnitude is 0
    np.multiply(a, b, out=gap_term)
    return np.copysign(sum_term, gap_term, out=out)


def _g_step(a: np.ndarray, b: np.ndarray, v: np.ndarray, has_inf: bool,
            out=None, work=None):
    """b + a where the partial sum v is 0, b - a where it is 1, into out;
    work is an optional a.shape float scratch buffer."""
    if out is None:
        out = np.empty(a.shape)
    signed = np.multiply(v, -2.0, out=np.empty(a.shape) if work is None else work)
    signed += 1.0
    signed *= a
    np.add(signed, b, out=out)
    if has_inf:
        out[np.isnan(out)] = 0.0  # +inf meeting -inf: contradictory evidence
    return out


def _leaf_posteriors(llr: np.ndarray) -> np.ndarray:
    """Normalized (..., 2) posterior pairs (1 / (1 + e^-L), 1 / (1 + e^L))
    of leaf LLRs."""
    pairs = np.multiply(llr[..., None], _PAIR_SIGNS)
    np.minimum(pairs, _LEAF_CAP, out=pairs)
    np.maximum(pairs, -_LEAF_CAP, out=pairs)
    np.exp(pairs, out=pairs)
    pairs += 1.0
    return np.divide(1.0, pairs, out=pairs)


def map_bits(posteriors: np.ndarray) -> np.ndarray:
    """Maximum-posterior bits of (..., 2) pairs; ties decide 0."""
    return (posteriors[..., 1] > posteriors[..., 0]).astype(np.uint8)


def _depth_first(evidence: np.ndarray, decide, kinds, bits):
    n_blocks, block_len = evidence.shape[1:3]
    u_out = np.empty((n_blocks, block_len), dtype=np.uint8)
    # leaves of each kind before index i, so a node's kinds are O(1) to test
    known_before = np.concatenate([[0], np.cumsum(kinds == LEAF_KNOWN)]).tolist()
    prior_before = np.concatenate([[0], np.cumsum(kinds == LEAF_PRIOR)]).tolist()

    def rate0(lo: int, width: int):
        """The codeword of leaves [lo, lo + width) if all are KNOWN, else None."""
        if known_before[lo + width] - known_before[lo] != width:
            return None
        u_out[:, lo:lo + width] = bits[:, lo:lo + width]
        return polar_transform(bits[:, lo:lo + width])

    root = rate0(0, block_len)
    if root is not None:
        return u_out, root
    llr, has_inf = _llrs(evidence)

    def rec(node: np.ndarray, lo: int) -> np.ndarray:
        width = node.shape[2]
        if width == 1:
            if kinds[lo] == LEAF_PRIOR:
                leaf = map_bits(_leaf_posteriors(node[-1, :, 0]))
            else:
                leaf = np.asarray(decide(lo, _leaf_posteriors(node[:, :, 0])),
                                  dtype=np.uint8)
            u_out[:, lo] = leaf
            return leaf[:, None]
        if prior_before[lo + width] - prior_before[lo] == width:
            prior = node[-1]
            guard = _LN2 * (width.bit_length() - 1) + 1.0
            if np.abs(prior).min(initial=np.inf) > guard:
                x = (prior < 0).astype(np.uint8)
                u_out[:, lo:lo + width] = polar_transform(x)
                return x
        half = width // 2
        first, second = node[:, :, :half], node[:, :, half:]
        v = rate0(lo, half)  # codeword of the first child
        if v is None:
            v = rec(_f_step(first, second, has_inf), lo)
        tail = rate0(lo + half, half)
        if tail is None:
            tail = rec(_g_step(first, second, v[None], has_inf), lo + half)
        return np.concatenate([v ^ tail, tail], axis=1)

    x = rec(llr, 0)
    del rec  # rec refers to itself; break the cycle so its buffers free now
    return u_out, x


def _breadth_first(evidence: np.ndarray, u: np.ndarray, stats):
    llr, has_inf = _llrs(evidence)
    n_chains, n_blocks, block_len = llr.shape
    codeword = polar_transform(u)
    # partial holds the transform of u over every aligned slice of the
    # current node width M, which is what the depth-first pass returns from
    # the node over that slice; undoing the butterfly stage of width M/2
    # takes it to the slices of the next level
    partial = codeword.copy()
    # nodes[c, b, j, k]: value j of node k of the current level, so the two
    # halves every node splits into are two contiguous slabs; node k's
    # children become nodes 2k and 2k + 1, which ends in leaf order
    nodes = llr.reshape(n_chains, n_blocks, block_len, 1)
    spare = np.empty_like(llr)
    del llr
    # the steps run over groups of blocks small enough for their scratch
    # buffers to stay in cache
    group = max(1, _GROUP_VALUES // (n_chains * block_len))
    work = np.empty((4, n_chains * min(group, n_blocks) * block_len // 2))
    width = block_len
    while width > 1:
        half, count = width // 2, block_len // width
        stage = partial.reshape(n_blocks, count, 2, half)
        stage[:, :, 0, :] ^= stage[:, :, 1, :]
        v = np.ascontiguousarray(stage[:, :, 0, :].transpose(0, 2, 1))
        children = spare.reshape(n_chains, n_blocks, half, count, 2)
        for lo in range(0, n_blocks, group):
            rows = slice(lo, lo + group)
            first, second = nodes[:, rows, :half], nodes[:, rows, half:]
            scratch = work[:, :first.size].reshape((4,) + first.shape)
            _f_step(first, second, has_inf, out=children[:, rows, ..., 0],
                    work=scratch[:3])
            _g_step(first, second, v[None, rows], has_inf,
                    out=children[:, rows, ..., 1], work=scratch[3])
        nodes, spare = children.reshape(n_chains, n_blocks, half, 2 * count), nodes
        del children
        width = half
    del spare, work  # free the buffers before the leaf pairs are made
    posteriors = _leaf_posteriors(nodes.reshape(n_chains, n_blocks, block_len))
    del nodes
    stats(slice(0, block_len), posteriors)
    return u.copy(), codeword


def _checked_plan(plan, n_blocks: int, block_len: int):
    """(kinds, bits) of a depth-first plan; every leaf FREE without one."""
    if plan is None:
        return np.full(block_len, LEAF_FREE), None
    kinds, bits = np.asarray(plan[0]), np.asarray(plan[1], dtype=np.uint8)
    if kinds.shape != (block_len,) or not np.isin(
            kinds, (LEAF_FREE, LEAF_KNOWN, LEAF_PRIOR)).all():
        raise ValueError(f"plan kinds must be ({block_len},) leaf kinds")
    if bits.shape != (n_blocks, block_len):
        raise ValueError(f"plan bits must have shape ({n_blocks}, {block_len}), "
                         f"got {bits.shape}")
    return kinds, bits


def sc_traverse(evidence: np.ndarray, decide, *, known=None, plan=None):
    """Run one successive-cancellation pass over a batch of blocks.

    evidence: (chains, blocks, N, 2) normalized leaf posteriors, N a power
        of two.
    decide: without ``known``, a callback ``decide(i, posteriors) -> bits``
        called once per FREE leaf index i in increasing order; posteriors
        has shape (chains, blocks, 2) and bits must be a (blocks,) array
        over {0, 1}.  The returned bits are fed back into every chain.
        With ``known``, it is called once as ``decide(slice(0, N),
        posteriors)`` with the (chains, blocks, N, 2) posteriors of every
        leaf along the known bits, and its return value is ignored.
    known: optional (blocks, N) bits of every leaf; selects the
        breadth-first pass.
    plan: optional ``(kinds, bits)`` of the depth-first pass: (N,) leaf
        kinds LEAF_FREE, LEAF_KNOWN or LEAF_PRIOR, and (blocks, N) bits read
        at the KNOWN leaves.  Without it every leaf is FREE.

    Returns (u, x), both (blocks, N) uint8, where u collects the decided
    bits in leaf order and x is the corresponding codeword (u equals the
    polarization transform of x by construction).
    """
    if evidence.ndim != 4 or evidence.shape[-1] != 2:
        raise ValueError(f"evidence must have shape (C, B, N, 2), got {evidence.shape}")
    _, n_blocks, block_len, _ = evidence.shape
    if block_len < 1 or (block_len & (block_len - 1)) != 0:
        raise ValueError(f"block length must be a power of two, got {block_len}")
    if known is not None and plan is not None:
        raise ValueError("known selects the breadth-first pass, which takes no plan")
    with np.errstate(invalid="ignore", over="ignore"):
        if known is None:
            return _depth_first(evidence, decide,
                                *_checked_plan(plan, n_blocks, block_len))
        u = np.asarray(known, dtype=np.uint8)
        if u.shape != (n_blocks, block_len):
            raise ValueError(
                f"known must have shape ({n_blocks}, {block_len}), got {u.shape}")
        return _breadth_first(evidence, u, decide)


def chunked_batches(n_blocks: int, n_chains: int, block_len: int,
                    budget: int = 1 << 23):
    """Yield (start, stop) batch slices keeping chains*blocks*N under budget.

    Keeps the transient memory of a traversal bounded while letting large
    batches share the fixed per-traversal overhead.
    """
    per_block = max(1, n_chains * block_len)
    chunk = max(1, budget // per_block)
    for start in range(0, n_blocks, chunk):
        yield start, min(start + chunk, n_blocks)
