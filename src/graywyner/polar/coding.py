"""Lossless and lossy source coding on top of the traversal engine.

Lossless mode stores the bits at the least predictable indices verbatim and
recovers the rest by maximum-posterior decisions; the encoder runs the same
decisions and records the positions where they disagree with the truth, so
decoding is exact by construction.  The encoder knows every bit, so it runs
the breadth-first pass; the decoder runs depth-first, with the stored
indices KNOWN, the indices corrected in some block of the batch FREE
(decided by maximum posterior, flipped where corrected) and every other
index PRIOR, decided in the plan by the sign of the one chain, so that
rate-1 nodes skip them.  Both see the same leaf LLRs and decide them with
the one sign rule of sc.map_bits.  The per-block rate charges each recorded
correction log2(N) + 1 bits (index plus flag) on top of the stored set.

Lossy mode emits the payload bits at the INFO indices.  Frozen-random
indices take shared dither bits addressed by (shared seed, level, block),
identical on both sides without communication and independent of batch
size.  Frozen-deterministic indices (present only for nonuniform priors)
are replayed from the prior chain, whose arithmetic is elementwise and so
bit-identical between the encoder's two-chain pass and the decoder's
single-chain pass.  INFO decisions use randomized rounding on the
conditional P(1) = 1/(1 + e^L).  The reconstruction is the codeword of
the decided bit vector.  In the depth-first plan (see sc.py) the encoder
has frozen-random leaves KNOWN, deterministic leaves PRIOR and INFO leaves
FREE, with margins |ln((1 - U)/U)| from their rounding uniforms U, past
which rounding is the sign rule and rate-1 nodes skip them; the replay
has INFO and frozen-random leaves KNOWN and deterministic leaves PRIOR, so
it decides nothing by callback.  When the profile has no
deterministic indices the replay skips the traversal entirely and just
transforms the assembled bit vector, which equals the traversal output
exactly.

The lossy coder exists once, on evidence callables cond(start, stop) and
prior(start, stop) that return the leaf posteriors of a block slice
(lossy_encode_from_evidence, lossy_reconstruct_from_evidence); the
sc_lossy_* entry points build them from a binary channel, and each lattice
level builds them from its coset posteriors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng
from .channel import BinarySourceWithSideInfo
from .profile import (
    CLASS_FROZEN_DETERMINISTIC,
    CLASS_FROZEN_RANDOM,
    CLASS_INFO,
    PolarProfile,
    channel_evidence,
    traverse_batches,
)
# sc_traverse is unused here since the SC passes run through
# traverse_batches; kept because perfbench/spans.py patches it on this module
from .sc import LEAF_FREE, LEAF_KNOWN, LEAF_PRIOR, map_bits, sc_traverse  # noqa: F401
from .transform import polar_transform


def _check_pairing(channel: BinarySourceWithSideInfo, profile: PolarProfile) -> None:
    if channel.channel_id() != profile.channel_id:
        raise ValueError(
            f"profile was constructed for channel {profile.channel_id}, "
            f"got {channel.channel_id()} ({channel.name})")


def _side_symbols(channel, side, shape):
    if side is None:
        if channel.side_alphabet_size != 1:
            raise ValueError("channel has side information; pass the side array")
        return np.zeros(shape, dtype=np.intp)
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
    return side.astype(np.intp)


# ---------------------------------------------------------------------------
# lossless
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LosslessCode:
    """Compressed representation of a batch of blocks.

    stored_mask: (N,) bool, the stored index set.
    stored_bits: (B, |stored|) uint8, bits at the stored indices per block.
    corrections: tuple of per-block int arrays, leaf indices whose
        maximum-posterior decision must be flipped during decoding.
    """

    stored_mask: np.ndarray
    stored_bits: np.ndarray
    corrections: tuple

    @property
    def n_blocks(self) -> int:
        return self.stored_bits.shape[0]

    def rate_per_block(self, block_len: int) -> np.ndarray:
        """Bits per source symbol for each block, corrections charged
        log2(N) + 1 bits apiece."""
        stored = int(self.stored_mask.sum())
        per_fix = np.log2(block_len) + 1.0
        fixes = np.array([len(t) for t in self.corrections], dtype=float)
        return (stored + fixes * per_fix) / block_len


def sc_lossless_encode(x: np.ndarray, channel: BinarySourceWithSideInfo,
                       profile: PolarProfile, stored_fraction: float,
                       side=None) -> LosslessCode:
    """Compress blocks x (B, N) of the channel's coded variable."""
    _check_pairing(channel, profile)
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"x must have shape (B, N), got {x.shape}")
    if np.any((x != 0) & (x != 1)):
        raise ValueError("x must hold bits in {0, 1}")
    x = x.astype(np.uint8)
    n_blocks, block_len = x.shape
    if block_len != profile.block_len:
        raise ValueError(f"blocks have length {block_len}, profile expects {profile.block_len}")
    cond, _ = channel_evidence(channel, _side_symbols(channel, side, x.shape))
    u_true = polar_transform(x)
    mask = profile.stored_mask(stored_fraction)
    wrong = np.empty((n_blocks, block_len), dtype=bool)

    def guesses(leaves, llr, start, stop):
        wrong[start:stop] = (map_bits(llr[0]) != u_true[start:stop]) & ~mask

    traverse_batches((cond,), n_blocks, block_len, guesses, known=u_true)
    return LosslessCode(
        stored_mask=mask, stored_bits=u_true[:, mask],
        corrections=tuple(np.flatnonzero(row).astype(np.int64) for row in wrong))


def sc_lossless_decode(code: LosslessCode, channel: BinarySourceWithSideInfo,
                       profile: PolarProfile, side=None) -> np.ndarray:
    """Recover the source blocks exactly from their compressed form."""
    _check_pairing(channel, profile)
    n_blocks = len(code.corrections)
    block_len = profile.block_len
    if code.stored_mask.shape != (block_len,) or code.stored_mask.dtype != bool:
        raise ValueError(f"stored_mask must be a ({block_len},) bool array, got "
                         f"{code.stored_mask.shape} {code.stored_mask.dtype}")
    stored_shape = (n_blocks, int(code.stored_mask.sum()))
    if code.stored_bits.shape != stored_shape:
        raise ValueError(f"stored_bits must have shape {stored_shape}, "
                         f"got {code.stored_bits.shape}")
    if np.any((code.stored_bits != 0) & (code.stored_bits != 1)):
        raise ValueError("stored_bits must hold bits in {0, 1}")
    for idx in map(np.asarray, code.corrections):
        if not np.issubdtype(idx.dtype, np.integer) or np.any((idx < 0) | (idx >= block_len)):
            raise ValueError(f"corrections must be integer indices in [0, {block_len})")
    cond, _ = channel_evidence(
        channel, _side_symbols(channel, side, (n_blocks, block_len)))
    flip = np.zeros((n_blocks, block_len), dtype=bool)
    for b, idx in enumerate(code.corrections):
        flip[b, idx] = True
    stored = np.zeros((n_blocks, block_len), dtype=np.uint8)
    stored[:, code.stored_mask] = code.stored_bits
    # uncorrected leaves take the sign of the one chain in the plan, so
    # rate-1 nodes skip them; only corrected ones need the callback
    kinds = np.where(code.stored_mask, LEAF_KNOWN,
                     np.where(flip.any(axis=0), LEAF_FREE, LEAF_PRIOR))

    def decide(i, llr, start, stop):
        return map_bits(llr[0]) ^ flip[start:stop, i]

    return traverse_batches((cond,), n_blocks, block_len, decide,
                            plan=(kinds, stored))[1]


# ---------------------------------------------------------------------------
# lossy
# ---------------------------------------------------------------------------

def _stream_matrix(draw, stream, shared_seed, level, n_blocks, block_offset,
                   block_len):
    stream_id = rng.substream(stream, level)
    rows = [draw(shared_seed, stream_id, block_offset + b, block_len)
            for b in range(n_blocks)]
    return np.stack(rows) if rows else np.empty((0, block_len))


def _lossy_pass(chains, profile: PolarProfile, n_blocks: int, bits,
                info_bits=None, margins=None):
    """Traverse with frozen-random bits from bits, prior-replayable bits
    from the prior chain's argmax (the last chain) and INFO bits from
    info_bits(i, llr, start, stop) with its margins, or from bits when
    info_bits is None (replay); returns (u, x)."""
    if chains[-1] is None:
        raise ValueError("prior-replayable indices need the prior evidence")
    kinds = np.full(profile.block_len, LEAF_KNOWN, dtype=np.int8)
    kinds[profile.classes == CLASS_FROZEN_DETERMINISTIC] = LEAF_PRIOR
    if info_bits is not None:
        kinds[profile.classes == CLASS_INFO] = LEAF_FREE
    plan = (kinds, bits) if margins is None else (kinds, bits, margins)
    return traverse_batches(chains, n_blocks, profile.block_len, info_bits,
                            plan=plan)


def _posterior_one(llr: np.ndarray) -> np.ndarray:
    """P(1) = 1/(1 + e^L) of leaf LLRs, L capped at 700 so e^L stays finite."""
    return 1.0 / (1.0 + np.exp(np.minimum(llr, 700.0)))


# uniforms within this distance of 0 or 1 get an infinite rounding margin
_MARGIN_EDGE = 2.0 ** -40


def _rounding_margins(uniforms: np.ndarray) -> np.ndarray:
    """|ln((1 - U)/U)| of rounding uniforms, inf within _MARGIN_EDGE of 0
    or 1: past |L| = margin + 1, U < _posterior_one(L) is L < 0 (sc.py
    proves it), so rate-1 nodes may take map_bits(L) instead."""
    margins = np.full(uniforms.shape, np.inf)
    inner = (uniforms >= _MARGIN_EDGE) & (uniforms <= 1.0 - _MARGIN_EDGE)
    u = uniforms[inner]
    margins[inner] = np.abs(np.log((1.0 - u) / u))
    return margins


def lossy_encode_from_evidence(cond, prior, profile: PolarProfile, n_blocks: int,
                               shared_seed: int, block_offset: int = 0,
                               level: int = 0):
    """sc_lossy_encode on evidence callables (see traverse_batches); the
    prior chain runs only when the profile has prior-replayable indices."""
    block_len = profile.block_len
    dither = _stream_matrix(rng.block_bits, rng.STREAM_DITHER, shared_seed, level,
                            n_blocks, block_offset, block_len)
    uniforms = _stream_matrix(rng.block_uniforms, rng.STREAM_ROUNDING, shared_seed,
                              level, n_blocks, block_offset, block_len)

    def rounded(i, llr, start, stop):
        return (uniforms[start:stop, i] < _posterior_one(llr[0])).astype(np.uint8)

    chains = (cond, prior) if profile.has_deterministic else (cond,)
    u, reconstruction = _lossy_pass(chains, profile, n_blocks, dither, rounded,
                                    _rounding_margins(uniforms))
    return u[:, profile.classes == CLASS_INFO], reconstruction


def lossy_reconstruct_from_evidence(payload, prior, profile: PolarProfile,
                                    n_blocks: int, shared_seed: int,
                                    block_offset: int = 0,
                                    level: int = 0) -> np.ndarray:
    """sc_lossy_reconstruct on the prior evidence callable alone, which
    only profiles with prior-replayable indices consult."""
    payload = np.asarray(payload)
    block_len = profile.block_len
    info_pos = profile.info_positions()
    if payload.shape != (n_blocks, len(info_pos)):
        raise ValueError(f"payload must have shape ({n_blocks}, {len(info_pos)}), "
                         f"got {payload.shape}")
    if np.any((payload != 0) & (payload != 1)):
        raise ValueError("payload must hold bits in {0, 1}")
    dither = _stream_matrix(rng.block_bits, rng.STREAM_DITHER, shared_seed, level,
                            n_blocks, block_offset, block_len)
    u = np.zeros((n_blocks, block_len), dtype=np.uint8)
    u[:, info_pos] = payload
    fr = profile.classes == CLASS_FROZEN_RANDOM
    u[:, fr] = dither[:, fr]
    if not profile.has_deterministic:
        return polar_transform(u)
    return _lossy_pass((prior,), profile, n_blocks, u)[1]


def sc_lossy_encode(obs: np.ndarray, channel: BinarySourceWithSideInfo,
                    profile: PolarProfile, shared_seed: int,
                    block_offset: int = 0, level: int = 0):
    """Quantize observation blocks; returns (payload, reconstruction).

    obs: (B, N) side-information symbols (the thing being compressed).
    payload: (B, |INFO|) uint8 bits at the INFO indices.
    reconstruction: (B, N) coded-variable blocks, identical to what
        sc_lossy_reconstruct produces from the payload.
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


def sc_lossy_reconstruct(payload: np.ndarray, channel: BinarySourceWithSideInfo,
                         profile: PolarProfile, shared_seed: int,
                         block_offset: int = 0, level: int = 0) -> np.ndarray:
    """Rebuild reconstruction blocks from payload bits and shared dither."""
    _check_pairing(channel, profile)

    def prior(start, stop):
        return channel.prior_evidence((stop - start, profile.block_len))

    return lossy_reconstruct_from_evidence(payload, prior, profile, len(payload),
                                           shared_seed, block_offset, level)
