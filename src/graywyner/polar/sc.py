"""Batched successive-cancellation traversal in log-likelihood ratios.

One engine serves construction, lossless coding and lossy coding.  Each
pass walks the polarization recursion of one evidence chain over a batch
of blocks; construction runs its prior chain as a pass of its own.

Evidence is one log-likelihood ratio L = ln P(0) - ln P(1) per position,
(1, blocks, N, 1), as binary channels and lattice levels compute it; the
unit axes stay only because perfbench/spans.py's SC probe unpacks a 4-D
evidence shape.  NaN evidence is a ValueError.
The split at a node of width M pairs position j of the first half (a) with
position j of the second half (b): the first child decodes the transform of
(first xor second) from the exact box-plus f(a, b) = ln((1 + e^(a+b)) /
(e^a + e^b)); the second decodes the transform of the second half from the
g-step b + (1 - 2v) a once the first child's codeword v is known.
Zero-probability evidence gives L = +-inf, which both steps carry through;
contradictory evidence (+inf meeting -inf in a g-step) falls back to the
uninformative L = 0.

There are two passes, chosen by the input:

* depth-first (``sc_traverse(evidence, stats, plan=(known, bits[,
  thresholds]))``): leaves are decided in index order.  A
  leaf in the (N,) mask ``known`` takes its bit from ``bits``; every other
  leaf i of block b is decided by the one leaf rule

      u[b, i] = (L < t[b, i]) xor bits[b, i],

  t from the optional (B, N) ``thresholds`` (0 without them) and
  ``bits`` there a per-block flip.  At t = 0 the rule is the sign rule of
  ``map_bits`` (1 exactly when L < 0, so a tie L = 0 of either sign
  decides 0) xor a decoder's correction; at t = ln((1 - U)/U) it is
  randomized rounding, bit 1 with probability 1/(1 + e^L) for a uniform U
  (U = 0 gives t = +inf, so the bit is 1 for every finite L).  Without a
  plan no leaf is known and none is flipped: every leaf is its sign.  The
  pass never calls ``stats``;
* breadth-first (``sc_traverse(evidence, stats, codeword=x)``): the
  codeword is given, so all partial sums are known up front and the tree
  is evaluated one level at a time over all nodes at once; ``stats`` is
  called once with the LLRs of every leaf along the leaf bits u of x.

Every pass runs in one precision, float32.  It casts the evidence's
float64 LLRs once to float32, in which the tree is evaluated: the f-steps
then run about twice as fast on half the bytes, and a walk's LLRs and
nodes take half the memory.  A finite L past float32's range (3.4e38)
casts to +-inf and is carried as one.  A breadth-first pass hands its
leaves to ``stats`` back in float64.
Thresholds stay float64, and the leaf rule L < t compares the float32 L
with them exactly.  Encoders and decoders run the same float32 steps, so they
replay each other bit for bit (see the last paragraph).
``sc_traverse``'s ``dtype`` can run a pass in float64 instead, for the
engine's exact-arithmetic tests; no pipeline passes it.

Each pass runs over the whole batch it is given, and casts its evidence
into LLRs of its own before it starts, so the evidence is freed for the
pass.  The engine keeps no state between passes; polar/profile.py's
traverse_batches slices large batches and runs the slices of a
breadth-first batch on several threads at once.

The depth-first walk holds its arrays blocks last, N first: its LLRs, its
thresholds, the leaf bits u it fills in (the plan's bits until a leaf is
decided) and every node are C-contiguous (width, B) arrays.  A node's two
halves are then the contiguous slabs node[:M/2] and node[M/2:], a leaf is
the contiguous row node[0], the rate-1 test reduces over axis 0, and a
codeword [v ^ w, w] stacks along axis 0; u and x return as (B, N) views.
Frames innermost is the layout of software SC decoders (Le Gal, Leroux &
Jego, "Multi-Gb/s software decoding of polar codes", IEEE T-SP 2015): the
walk pays per node, not per value, and NumPy's small ufuncs run 2-4 times
slower on the strided (B, M/2) halves of a (B, N) node.  Every step stays
elementwise, so the layout moves no value.  The LLRs are moved
_TRANSPOSE_ROWS blocks at a time into (N, B), and their (B, N) cast is
freed before the walk starts; the plan's bits and thresholds are copied
over the same way.  A node's margin is read off the (N, B) thresholds
when its rate-1 test needs it, so no table of margins is kept beside them.
At its peak, the root's f-step, a walk holds about 2.5 float32 (N, B)
arrays, and the float64 thresholds if it has them: the LLRs, the first
child (half an array), the f-step's scratch and the thresholds.  The nodes
along one root-to-leaf path hold fewer than N values per block together,
so no deeper step needs more.

The depth-first pass prunes two kinds of subtree (the rate-0 and rate-1
nodes of simplified SC: Alamdar-Yazdi & Kschischang, IEEE Commun. Lett.
2011; Sarkis et al., "Fast polar decoders", IEEE JSAC 2014):

* rate-0, every leaf of the node known: its codeword is the transform of
  the known bits, and neither its LLRs nor any step below it is computed.
  This is exact, because no decision inside reads an LLR.
* rate-1, a node of width M > 1 none of whose leaves is known or flipped
  in any block of the batch: its codeword is the hard decision hard(L) =
  (L < 0) of the node's LLRs, taken only when in every block of the batch
  every |L| over the node exceeds the guard ln 2 log2(M) + 1 + m, m the
  node's margin in the block: its largest |t| over the node (m = 0
  without thresholds).

  One induction on M makes the shortcut exact, per block (every step is
  elementwise in the block).  Write G(M) = ln 2 log2(M) + 1 + m for the
  guard; a child's m is at most its parent's, so G(M/2) <= G(M) - ln 2.
  At M = 1 the leaf's |L| > 1 + m >= |t| + 1, and L < t is an exact
  float comparison, false where L > |t| and true where L < -|t|: the
  leaf rule is hard(L), with no rounding argument.  An infinite t makes
  the guard infinite, which no |L| passes.  At width M, the exact f-step
  keeps the xor of the signs and loses at most ln 2 of magnitude,
  |f(a, b)| >= min(|a|, |b|) - ln 2, so the first child returns v =
  hard(a) xor hard(b).  The g-step b + (1 - 2v) a then adds two terms of
  the sign of b, so it never cancels: |g| >= |b|, and a rounded sum of
  two terms of one sign is never smaller than either, so this holds in
  floats too.  The second child returns hard(b), and the node returns
  [hard(a), hard(b)].  Infinite L obey both bounds.  Without the guard,
  exact ties (L = 0) break the induction, as f(0, b) = 0 decides 0
  whatever the sign of b: the lattice prior table has tie rows, and
  g-steps cancel to 0 on constant prior evidence.

  What the float f-step adds to its loss of ln 2 is its rounding, which
  the slack of 1 in the guard absorbs.  Its magnitude is the smaller
  |L|, n, plus and minus two log terms in [0, ln 2], each within a few
  units of float32 rounding (u = 2^-24), and the two sums round by at
  most u (n + 1) each, so a step loses at most ln 2 + 8u (n + 1).
  Rounding thresholds come from 53-bit uniforms, so a finite |t| is at
  most ln(2^53) = 36.7 and m <= 37, and G(M) < 52 for N <= 2^20.  An
  input n within twice its guard is at most 104, so its step adds at
  most 8u 105 = 5e-5, and over the <= log2 N f-steps of a path to a leaf
  these sum to about 1e-3, far inside the slack.  An input n beyond
  twice its guard G keeps a margin of half its size: its output exceeds
  n - ln 2 - 8u (n + 1) > G - ln 2 + n/2 (1 - 16u) - 8u, far above the
  child's guard.  So every value on the path stays above its guard less
  1e-3, and the leaf's |L| exceeds |t|.  The same holds in float64 with
  a smaller u.

Both passes build their leaf LLRs from the same elementwise f- and g-steps
in the same precision, so for the same bits a breadth-first pass and a
depth-first pass reach bitwise-identical leaf LLRs: a lossless encoder's
flag pass and its decoder's walk decide on the same values.
"""

from __future__ import annotations

import numpy as np

from .transform import polar_transform


def _llrs(evidence: np.ndarray, dtype):
    """The LLRs as a new dtype array and whether any is infinite in dtype,
    past its range included; ValueError for NaN evidence."""
    llr = np.array(evidence, dtype=dtype)
    has_inf = not np.isfinite(llr).all()
    if has_inf and np.isnan(llr).any():
        raise ValueError("evidence must not hold NaN")
    return llr, has_inf


_LN2 = float(np.log(2.0))
# the f-step caps t at 60 in its ln(1 + e^-t) terms, which keeps exp and
# log1p off their slow underflow paths (e^-60 is a normal float32 too) and
# moves a result by less than 1e-25 of its size, far below one rounding unit
_TERM_CAP = 60.0
# blocks per chunk when the depth-first pass moves a (B, N) array to its
# (N, B) layout (_blocks_last)
_TRANSPOSE_ROWS = 64


def _f_step(a: np.ndarray, b: np.ndarray, has_inf: bool, out=None, work=None):
    """Exact box-plus of two LLR arrays, into out if given.

    sign(a) sign(b) [m + ln(1 + e^-(M+m)) - ln(1 + e^-(M-m))] with m, M the
    smaller and larger of |a|, |b|; both log terms lie in [0, ln 2].  work
    is an optional contiguous (2,) + a.shape float scratch buffer, whose
    two terms take their clamp, exp and log1p together; out holds -m until
    the result overwrites it, so it must not overlap a or b, which the
    last step reads again.
    """
    if out is None:
        out = np.empty_like(a)
    if work is None:
        work = np.empty((2,) + a.shape, dtype=a.dtype)
    sum_term, gap_term = work
    neg_near = out
    np.copysign(a, -1.0, out=sum_term)  # -|a|
    np.copysign(b, -1.0, out=gap_term)  # -|b|
    np.maximum(sum_term, gap_term, out=neg_near)  # -m
    np.minimum(sum_term, gap_term, out=sum_term)  # -M
    np.subtract(sum_term, neg_near, out=gap_term)  # -(M - m); nan if both infinite
    if has_inf:  # every other gap is <= 0
        np.fmin(gap_term, 0.0, out=gap_term)
    sum_term += neg_near  # -(M + m)
    # both terms at once: term <- ln(1 + e^term)
    np.maximum(work, -_TERM_CAP, out=work)
    np.exp(work, out=work)
    np.log1p(work, out=work)
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
        out = np.empty_like(a)
    signed = np.multiply(v, -2.0, out=np.empty_like(a) if work is None else work,
                         dtype=a.dtype)
    signed += 1.0
    signed *= a
    np.add(signed, b, out=out)
    if has_inf:
        out[np.isnan(out)] = 0.0  # +inf meeting -inf: contradictory evidence
    return out


def map_bits(llr: np.ndarray) -> np.ndarray:
    """Maximum-posterior bits of LLRs: 1 where L < 0; ties decide 0."""
    return (llr < 0).astype(np.uint8)


def _blocks_last(values: np.ndarray) -> np.ndarray:
    """The C-contiguous (N, B) transpose of a (B, N) array, taken
    _TRANSPOSE_ROWS blocks at a time: each chunk's transpose stays in
    cache, where that of 128 blocks at N = 4096 thrashes it."""
    n_blocks, block_len = values.shape
    out = np.empty((block_len, n_blocks), dtype=values.dtype)
    for start in range(0, n_blocks, _TRANSPOSE_ROWS):
        chunk = slice(start, min(start + _TRANSPOSE_ROWS, n_blocks))
        out[:, chunk] = values[chunk].T
    return out


def _transform_rows(bits: np.ndarray) -> np.ndarray:
    """polar_transform along axis 0 of (M, B) bits, as a new array: each
    butterfly stage xors contiguous slabs of whole rows."""
    out = np.array(bits, dtype=np.uint8, order="C", copy=True)
    width, h = len(out), 1
    while h < width:
        v = out.reshape(width // (2 * h), 2, -1)
        v[:, 0] ^= v[:, 1]
        h *= 2
    return out


def _depth_first(llr: np.ndarray, has_inf: bool, known, bits, thresholds):
    """The walk over (N, B) LLRs, blocks last (see the module docstring);
    bits and thresholds come (B, N), as the plan gives them."""
    block_len, n_blocks = llr.shape

    def counts_before(leaves):
        """Leaves in mask before index i: a node's leaves are O(1) to test."""
        return np.concatenate([[0], np.cumsum(leaves)]).tolist()

    known_before = counts_before(known)
    # leaves neither known nor flipped in any block of the batch: the
    # leaves of a rate-1 node
    plain_before = counts_before(~known & ~bits.any(axis=0))
    # u_out[i]: leaf i's bits, the plan's until the leaf is decided (its
    # known bits, or the flips its decision is xored with)
    u_out = _blocks_last(bits)
    if thresholds is not None:
        thresholds = _blocks_last(thresholds)

    def rate0(lo: int, width: int):
        """The codeword of leaves [lo, lo + width) if all are known, else None."""
        if known_before[lo + width] - known_before[lo] != width:
            return None
        return _transform_rows(u_out[lo:lo + width])

    def rate1(node: np.ndarray, lo: int):
        """The codeword map_bits(L) of a node of width > 1 whose leaves are
        all plain, when every block's min |L| over the node passes its
        guard; else None."""
        width = len(node)
        if plain_before[lo + width] - plain_before[lo] != width:
            return None
        guard = _LN2 * (width.bit_length() - 1) + 1.0
        magnitude = np.abs(node)
        # float() compares in float64, as the margin test below does, and
        # not against the guard rounded to the node's float32
        if not float(magnitude.min(initial=np.inf)) > guard:
            return None
        # the margin, each block's largest |t|, only moves the guard up,
        # so it is taken only where the bare guard passes in every block
        if thresholds is not None:
            t = thresholds[lo:lo + width]
            margin = np.maximum(t.max(axis=0), -t.min(axis=0))
            if not (magnitude.min(axis=0) > guard + margin).all():
                return None
        x = map_bits(node)
        u_out[lo:lo + width] = _transform_rows(x)
        return x

    def rec(node: np.ndarray, lo: int) -> np.ndarray:
        if len(node) == 1:  # never a known leaf: rate0 takes those
            u_out[lo] ^= node[0] < (0.0 if thresholds is None else thresholds[lo])
            return u_out[lo:lo + 1]
        x = rate1(node, lo)
        if x is not None:
            return x
        half = len(node) // 2
        first, second = node[:half], node[half:]
        v = rate0(lo, half)  # codeword of the first child
        if v is None:
            v = rec(_f_step(first, second, has_inf), lo)
        tail = rate0(lo + half, half)
        if tail is None:
            tail = rec(_g_step(first, second, v, has_inf), lo + half)
        return np.concatenate([v ^ tail, tail])

    x = rec(llr, 0)
    del rec  # rec refers to itself; break the cycle so its buffers free now
    return u_out.T, x.T


def _breadth_first(llr: np.ndarray, has_inf: bool, codeword: np.ndarray, stats):
    n_blocks, block_len = llr.shape
    # nodes[b, j, k]: value j of node k of the current level, so the two
    # halves every node splits into are two contiguous slabs; node k's
    # children become nodes 2k and 2k + 1, which ends in leaf order
    nodes = llr.reshape(n_blocks, block_len, 1)
    # partial[b, j, k]: value j of the codeword of node k, the transform of
    # u over the node's leaves, in the layout of nodes.  A codeword is
    # [v ^ w, w] for v and w the codewords of the node's first and second
    # child, so v is the xor of the two halves, already in the g-step's
    # layout, and w is the second half; they are interleaved as nodes are
    partial = codeword.reshape(n_blocks, block_len, 1)
    spare = np.empty_like(llr)
    del llr
    # every stage runs over the whole batch at once: traverse_batches hands
    # this pass cache-sized slices, small enough for the node arrays and
    # the scratch buffers to stay in cache
    work = np.empty((3, n_blocks * block_len // 2), dtype=spare.dtype)
    width = block_len
    while width > 1:
        half, count = width // 2, block_len // width
        v = partial[:, :half] ^ partial[:, half:]
        child_bits = np.empty((n_blocks, half, count, 2), dtype=np.uint8)
        child_bits[..., 0] = v
        child_bits[..., 1] = partial[:, half:]
        children = spare.reshape(n_blocks, half, count, 2)
        first, second = nodes[:, :half], nodes[:, half:]
        scratch = work.reshape((3,) + first.shape)
        # the f-step runs in contiguous scratch, which its strided slot in
        # children would slow, and is copied there once
        children[..., 0] = _f_step(first, second, has_inf, out=scratch[2],
                                   work=scratch[:2])
        _g_step(first, second, v, has_inf, out=children[..., 1],
                work=scratch[0])
        nodes, spare = children.reshape(n_blocks, half, 2 * count), nodes
        partial = child_bits.reshape(n_blocks, half, 2 * count)
        del children
        width = half
    del spare, work  # free the buffers before stats makes its own
    leaves = nodes.reshape(n_blocks, block_len)
    return stats(slice(0, block_len), leaves.astype(float, copy=False))


def checked_bits(values, name: str) -> np.ndarray:
    """values as uint8; ValueError naming them unless every value is 0 or 1,
    checked before the cast, which would pass 2 on and wrap -1 to 255."""
    values = np.asarray(values)
    if not ((values == 0) | (values == 1)).all():
        raise ValueError(f"{name} must hold bits in {{0, 1}}")
    return values.astype(np.uint8, copy=False)


def _checked_plan(plan, n_blocks: int, block_len: int):
    """(known, bits, thresholds) of a depth-first plan, known as an (N,)
    bool mask and thresholds None when the plan has none; without a plan
    no leaf is known or flipped."""
    if plan is None:
        return (np.zeros(block_len, dtype=bool),
                np.zeros((n_blocks, block_len), dtype=np.uint8), None)
    if len(plan) not in (2, 3):
        raise ValueError("plan must be (known, bits) or (known, bits, thresholds)")
    known = checked_bits(plan[0], "plan known").view(bool)
    if known.shape != (block_len,):
        raise ValueError(f"plan known must be a ({block_len},) mask, got {known.shape}")
    bits = checked_bits(plan[1], "plan bits")
    if bits.shape != (n_blocks, block_len):
        raise ValueError(f"plan bits must have shape ({n_blocks}, {block_len}), "
                         f"got {bits.shape}")
    if len(plan) == 2:
        return known, bits, None
    thresholds = np.asarray(plan[2], dtype=float)
    if thresholds.shape != (n_blocks, block_len) or np.isnan(thresholds).any():
        raise ValueError(f"plan thresholds must be ({n_blocks}, {block_len}) "
                         f"floats, inf allowed, NaN not")
    return known, bits, thresholds


def sc_traverse(evidence: np.ndarray, stats, *, codeword=None, plan=None,
                dtype=np.float32):
    """Run one successive-cancellation pass over a batch of blocks.

    evidence: (1, blocks, N, 1) float leaf LLRs of one chain (see the
        module docstring), N a power of two; ValueError for any other
        shape, so (1, blocks, N, 2) log-weight pairs are refused.
    stats: with ``codeword``, called once as ``stats(slice(0, N), llr)``,
        llr the (blocks, N) LLRs of every leaf along the leaf bits of the
        codeword, +-inf included (it may overwrite them).
        Without ``codeword`` it is never called, and may be anything.
    codeword: optional (blocks, N) bits of the codeword x whose leaf bits
        u (x = polar_transform(u)) the pass follows; selects the
        breadth-first pass.
    plan: optional ``(known, bits[, thresholds])`` of the depth-first
        pass: an (N,) mask of the known leaves, (blocks, N) bits, the
        known leaves' bits and per-block flips at every other leaf, and
        optional (blocks, N) float thresholds t (inf allowed).  Every leaf
        outside the mask is decided as (L < t) xor its flip, t = 0 without
        thresholds (see the module docstring).  Without a plan every leaf
        is decided by its sign.
    dtype: the float type a pass carries its LLRs in, from the float64
        LLRs of the evidence to the float64 LLRs handed to stats:
        np.float32 (the default, every pipeline's) or np.float64, which
        the engine's exact-arithmetic tests run; ValueError for any
        other dtype.

    The breadth-first pass returns what stats returns.  The depth-first
    pass returns (u, x), both (blocks, N) uint8, where u collects the
    decided bits in leaf order and x is the corresponding codeword (u
    equals the polarization transform of x by construction).
    """
    evidence = np.asarray(evidence)
    if evidence.ndim != 4 or evidence.shape[0] != 1 or evidence.shape[-1] != 1:
        raise ValueError(f"a pass walks one chain: evidence must be (1, B, N, 1) "
                         f"LLRs, got shape {evidence.shape}")
    _, n_blocks, block_len, _ = evidence.shape
    if block_len < 1 or (block_len & (block_len - 1)) != 0:
        raise ValueError(f"block length must be a power of two, got {block_len}")
    if codeword is not None and plan is not None:
        raise ValueError("codeword selects the breadth-first pass, which takes no plan")
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"dtype must be float32 or float64, got {dtype}")
    if codeword is None:
        fixed, bits, thresholds = _checked_plan(plan, n_blocks, block_len)
        if fixed.all():  # a rate-0 root reads no evidence
            return bits.copy(), polar_transform(bits)
    else:
        codeword = checked_bits(codeword, "codeword")
        if codeword.shape != (n_blocks, block_len):
            raise ValueError(f"codeword must have shape ({n_blocks}, {block_len}), "
                             f"got {codeword.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        llr, has_inf = _llrs(evidence[0, :, :, 0], dtype)
        del evidence  # the pass reads only the LLRs: free the evidence now
        if codeword is None:
            # the walk's blocks-last layout; rebinding frees the (B, N) cast
            llr = _blocks_last(llr)
            return _depth_first(llr, has_inf, fixed, bits, thresholds)
        return _breadth_first(llr, has_inf, codeword, stats)
