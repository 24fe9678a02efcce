"""Lossless and lossy source coding on top of the traversal engine.

Both modes make one kind of code (PolarCode): it sends each block's leaf
bits on one index set, and the decoder decides every other leaf by the
sign rule (sc.map_bits) of one chain xor the code's (B, N) flag matrix,
which is 1 where that decision misses.  Lossless mode sends the profile's
stored set (stored_mask); its encoder knows every bit, so u is the
transform of x.

Lossy mode sends the bits at the INFO indices.  Frozen-random
indices take shared dither bits addressed by (shared seed, level, block),
identical on both sides without communication and independent of batch
size; each level's rows of dither bits, and of rounding uniforms, come
from one rng call over the call's range of blocks (_stream_matrix).
level may also be a tuple of G levels: the n_blocks rows of a call
then form G equal groups, and row r of group g draws its dither and
rounding uniforms at (shared seed, level[g], block_offset + r), as a call
on group g alone with level[g] would.  So branches that code with one
profile (an op's X and Y twins) share one SC pass, every row coded as it
would be on its own.  INFO decisions use randomized rounding on the
conditional P(1) = 1/(1 + e^L).  The reconstruction is the codeword of
the decided bit vector.  In the depth-first plan (see sc.py) the encoder
walks the conditional chain alone: frozen-random leaves are known, and
every coded leaf rounds by the engine's leaf rule L < t, with threshold
t = ln((1 - U)/U) from its rounding uniform U and no flip (_thresholds).
Frozen-deterministic (D) indices (present only for nonuniform priors) are
rounded too, so INFO versus D decides only whether a bit is sent or
flagged: the decoder takes D leaves from the prior chain's sign,
flipped where it differs from the encoder's bits.

Both encoders build their code one way (_encode): the sent bits, and the
flags from one breadth-first pass of the decoder's chain along the
encoder's bits, whose leaf LLRs are the decoder's, set at the
decoder-decided leaves where map_bits differs from the bits.  Each flag
is charged log2(N) + 1 bits (index plus flag, correction_bits) on top of
the sent bits (PolarCode.rate_per_block).

Both decoders rebuild one way (_decode), a one-chain replay without
thresholds: the sent bits (stored bits; payload, over the dither) are
known, and every decoder-decided leaf takes sc.map_bits of the chain xor
its flag, checked and written straight into the plan's bits.  The
lossless decoder's chain conditions on the side information; the lossy
and lattice replays run the prior chain.
Without decoder-decided leaves the replay transforms the bits, which
equals the traversal output exactly.

The lossy coder exists once, on evidence callables cond(start, stop) and
prior(start, stop) that return the leaf log-weights of a block slice
(lossy_encode_from_evidence, lossy_reconstruct_from_evidence; see
traverse_batches); the sc_lossy_* entry points build them from a binary
channel, and each lattice level builds them from its coset LLRs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng
from .channel import BinarySourceWithSideInfo
from .profile import (
    CLASS_FROZEN_DETERMINISTIC,
    CLASS_INFO,
    PolarProfile,
    channel_evidence,
    correction_bits,
    traverse_batches,
)
from .sc import checked_bits, map_bits
# sc_traverse is unused here since the SC passes run through
# traverse_batches; kept because perfbench/spans.py patches it on this module
from .sc import sc_traverse  # noqa: F401
from .transform import polar_transform


@dataclass(frozen=True)
class PolarCode:
    """A batch of blocks as a polar code sends them.

    sent: (B, |sent|) uint8, each block's bits at the code's sent indices
        (the lossless stored set, or the lossy INFO set).
    flags: (B, N) uint8, 1 at each decoder-decided leaf whose map_bits
        decision the decoder must flip and 0 at every other leaf.
    len(code) is its block count B, the rows of flags.
    """

    sent: np.ndarray
    flags: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.flags)

    def __len__(self) -> int:
        return self.n_blocks

    @property
    def corrections(self) -> tuple:
        """Each block's flagged leaf indices, as B int64 arrays."""
        return tuple(np.flatnonzero(row).astype(np.int64) for row in self.flags)

    def rate_per_block(self) -> np.ndarray:
        """Bits per source symbol for each block: the sent bits plus
        correction_bits(N) = log2(N) + 1 bits per flag."""
        block_len = np.shape(self.flags)[1]
        fixes = np.count_nonzero(self.flags, axis=1)
        return (self.sent.shape[1] + fixes * correction_bits(block_len)) / block_len


def _encode(u, sent_mask, decided_mask, chain) -> PolarCode:
    """The code of the (B, N) uint8 leaf bits u: its bits at the (N,) bool
    sent_mask, and flags at the leaves inside decided_mask where map_bits
    of the decoder's chain along u differs from u, the leaves a decoder
    deciding them by sign must flip.  No pass runs for an empty
    decided_mask."""
    n_blocks, block_len = u.shape
    flags = np.zeros((n_blocks, block_len), dtype=np.uint8)
    if decided_mask.any():
        def guesses(llr, start, stop):
            flags[start:stop] = (map_bits(llr[0]) != u[start:stop]) & decided_mask

        traverse_batches((chain,), n_blocks, block_len, guesses, known=u)
    return PolarCode(u[:, sent_mask], flags)


def _decode(code: PolarCode, bits, sent_mask, decided_mask, chain) -> np.ndarray:
    """The codeword of a code over its (code.n_blocks, N) uint8 base bits,
    which it overwrites: code.sent at the (N,) bool sent_mask, and the
    flags at decided_mask.  The replay is a one-chain plan: leaves in
    decided_mask take map_bits of the chain xor their flags, and every
    other leaf is known; without decided leaves, the transform of the
    bits.  ValueError unless code.sent is a (code.n_blocks, |sent|) array
    of bits and code.flags a (code.n_blocks, N) array of bits that are 0
    outside decided_mask."""
    sent, flags = np.asarray(code.sent), np.asarray(code.flags)
    n_blocks, block_len = bits.shape
    shape = (n_blocks, int(sent_mask.sum()))
    if sent.shape != shape:
        raise ValueError(f"sent must have shape {shape}, one row per block of "
                         f"flags, got {sent.shape}")
    if flags.shape != bits.shape:
        raise ValueError(f"flags must have shape {bits.shape}, one flag per leaf, "
                         f"got {flags.shape}")
    flags = checked_bits(flags, "flags")
    if flags[:, ~decided_mask].any():
        raise ValueError("flags must be 0 outside the decoder-decided leaves")
    bits[:, sent_mask] = checked_bits(sent, "sent")
    np.copyto(bits, flags, where=decided_mask)
    if not decided_mask.any():
        return polar_transform(bits)
    if chain is None:
        raise ValueError("prior-decided indices need the prior evidence")
    return traverse_batches((chain,), n_blocks, block_len, None,
                            plan=(~decided_mask, bits))[1]


def _check_pairing(channel: BinarySourceWithSideInfo, profile: PolarProfile) -> None:
    if channel.channel_id() != profile.channel_id:
        raise ValueError(
            f"profile was constructed for channel {profile.channel_id}, "
            f"got {channel.channel_id()} ({channel.name})")


def _side_symbols(channel, side, shape):
    """Checked side symbols in the smallest unsigned dtype that holds K - 1,
    which leaf_evidence indexes with as they are."""
    symbols = np.min_scalar_type(channel.side_alphabet_size - 1)
    if side is None:
        if channel.side_alphabet_size != 1:
            raise ValueError("channel has side information; pass the side array")
        return np.zeros(shape, dtype=symbols)
    side = np.asarray(side)
    if side.shape != shape:
        raise ValueError(f"side must have shape {shape}, got {side.shape}")
    if side.dtype.kind not in "biuf":
        raise ValueError(f"side symbols must be integers, got dtype {side.dtype}")
    # the cast below would truncate 0.7 to 0 and map NaN to any integer
    if side.dtype.kind == "f" and not (np.floor(side) == side).all():
        raise ValueError("side symbols must be integer-valued (no fractions or NaN)")
    k = channel.side_alphabet_size
    if side.size and (side.min() < 0 or side.max() >= k):
        raise ValueError(f"side symbols must lie in [0, {k})")
    return side.astype(symbols, copy=False)


# ---------------------------------------------------------------------------
# lossless
# ---------------------------------------------------------------------------

def sc_lossless_encode(x: np.ndarray, channel: BinarySourceWithSideInfo,
                       profile: PolarProfile, side=None) -> PolarCode:
    """Compress blocks x (B, N) of the channel's coded variable into a code
    that sends the bits at profile.stored_mask() and flags the decoder's
    misses on the rest."""
    _check_pairing(channel, profile)
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"x must have shape (B, N), got {x.shape}")
    x = checked_bits(x, "x")
    block_len = x.shape[1]
    if block_len != profile.block_len:
        raise ValueError(f"blocks have length {block_len}, profile expects {profile.block_len}")
    cond, _ = channel_evidence(channel, _side_symbols(channel, side, x.shape))
    mask = profile.stored_mask()
    return _encode(polar_transform(x), mask, ~mask, cond)


def sc_lossless_decode(code: PolarCode, channel: BinarySourceWithSideInfo,
                       profile: PolarProfile, side=None) -> np.ndarray:
    """Recover the source blocks exactly from their code; the sent set is
    profile.stored_mask(), as for the encoder."""
    _check_pairing(channel, profile)
    shape = (code.n_blocks, profile.block_len)
    cond, _ = channel_evidence(channel, _side_symbols(channel, side, shape))
    mask = profile.stored_mask()
    return _decode(code, np.empty(shape, dtype=np.uint8), mask, ~mask, cond)


# ---------------------------------------------------------------------------
# lossy
# ---------------------------------------------------------------------------

def _stream_matrix(draw, stream, shared_seed, level, n_blocks, block_offset,
                   block_len):
    """(n_blocks, N) draws, row r of group g at (shared_seed, substream
    level[g], block_offset + r) for a tuple level of G levels (n_blocks
    rows in G equal groups), or at level itself for an integer level; one
    draw call per level."""
    levels = level if isinstance(level, tuple) else (level,)
    if not levels or n_blocks % len(levels):
        raise ValueError(f"{n_blocks} blocks do not form {len(levels)} equal "
                         f"groups, one per level of {level!r}")
    blocks = rng.block_range(block_offset, n_blocks // len(levels))
    groups = [draw(shared_seed, rng.substream(stream, lv), blocks, block_len)
              for lv in levels]
    return groups[0] if len(groups) == 1 else np.concatenate(groups)


def _thresholds(uniforms: np.ndarray) -> np.ndarray:
    """t = ln((1 - U)/U) of rounding uniforms U in [0, 1), +inf at U = 0:
    the leaf rule L < t rounds to 1 with probability 1/(1 + e^L)."""
    t = np.subtract(1.0, uniforms)
    with np.errstate(divide="ignore"):
        t /= uniforms
        return np.log(t, out=t)


def lossy_encode_from_evidence(cond, prior, profile: PolarProfile, n_blocks: int,
                               shared_seed: int, block_offset: int = 0,
                               level: int = 0):
    """sc_lossy_encode on evidence callables (see traverse_batches); the
    prior chain runs only when the profile has frozen-deterministic
    indices.  level is an integer or a tuple of levels, one per equal group
    of rows (see the module docstring)."""
    block_len = profile.block_len
    info = profile.classes == CLASS_INFO
    deterministic = profile.classes == CLASS_FROZEN_DETERMINISTIC
    if deterministic.any() and prior is None:
        raise ValueError("prior-decided indices need the prior evidence")
    coded = info | deterministic
    dither = _stream_matrix(rng.block_bits, rng.STREAM_DITHER, shared_seed, level,
                            n_blocks, block_offset, block_len)
    dither[:, coded] = 0  # no flip at the rounded leaves
    thresholds = _thresholds(_stream_matrix(
        rng.block_uniforms, rng.STREAM_ROUNDING, shared_seed, level, n_blocks,
        block_offset, block_len))
    u, reconstruction = traverse_batches(
        (cond,), n_blocks, block_len, None, plan=(~coded, dither, thresholds))
    return _encode(u, info, deterministic, prior), reconstruction


def lossy_reconstruct_from_evidence(code: PolarCode, prior, profile: PolarProfile,
                                    shared_seed: int, block_offset: int = 0,
                                    level: int = 0) -> np.ndarray:
    """sc_lossy_reconstruct on the prior evidence callable alone, which
    only profiles with frozen-deterministic indices consult; level as in
    lossy_encode_from_evidence."""
    dither = _stream_matrix(rng.block_bits, rng.STREAM_DITHER, shared_seed, level,
                            code.n_blocks, block_offset, profile.block_len)
    return _decode(code, dither, profile.classes == CLASS_INFO,
                   profile.classes == CLASS_FROZEN_DETERMINISTIC, prior)


def sc_lossy_encode(obs: np.ndarray, channel: BinarySourceWithSideInfo,
                    profile: PolarProfile, shared_seed: int,
                    block_offset: int = 0, level: int = 0):
    """Quantize observation blocks; returns (code, reconstruction).

    obs: (B, N) side-information symbols (the thing being compressed).
    code: the PolarCode that sends each block's bits at the INFO indices
        and flags the frozen-deterministic indices where the decoder's
        prior-chain decision misses.
    reconstruction: (B, N) coded-variable blocks, identical to what
        sc_lossy_reconstruct produces from the code.
    level: the stream level, or a tuple of G levels, one per group of B/G
        rows, which codes G stacked branches in one pass (see the module
        docstring).
    """
    _check_pairing(channel, profile)
    obs = np.asarray(obs)
    if obs.ndim != 2:
        raise ValueError(f"obs must have shape (B, N), got {obs.shape}")
    n_blocks, block_len = obs.shape
    if block_len != profile.block_len:
        raise ValueError(f"blocks have length {block_len}, profile expects {profile.block_len}")
    cond, prior = channel_evidence(channel, _side_symbols(channel, obs, obs.shape))
    return lossy_encode_from_evidence(cond, prior, profile, n_blocks,
                                      shared_seed, block_offset, level)


def sc_lossy_reconstruct(code: PolarCode, channel: BinarySourceWithSideInfo,
                         profile: PolarProfile, shared_seed: int,
                         block_offset: int = 0, level: int = 0) -> np.ndarray:
    """Rebuild reconstruction blocks from the encoder's code and shared
    dither; level as in sc_lossy_encode."""
    _check_pairing(channel, profile)

    def prior(start, stop):
        return channel.prior_evidence((stop - start, profile.block_len))

    return lossy_reconstruct_from_evidence(code, prior, profile, shared_seed,
                                           block_offset, level)
