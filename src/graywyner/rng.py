"""Deterministic random streams built on the Philox counter-based generator.

Philox is a keyed counter-based generator: output depends only on
(key, counter), so independent streams are addressed rather than split.
Every random draw in this package is reproducible from small integers:

* ``stream(seed, stream_id)``: a generator whose key encodes the pair.
  Used for source sampling, construction sampling, and encoder-side
  randomized rounding.

* ``block_bits(shared_seed, stream_id, block, n)``: n dither bits for one
  block, addressed by block index through the Philox counter.  Encoder and
  decoder call this with the same shared_seed and obtain identical bits
  without any communication, and the bits for block b do not depend on how
  many other blocks were processed (batch-size independence).

* ``block_uniforms(shared_seed, stream_id, block, n)``: same addressing,
  uniform floats in [0, 1).

Both block draws also take a range of blocks (block_range) and return one
row per block, each the row its block alone would give.  The rows come
from one bit generator per call, its counter set to each block's segment
in turn, and are read from its raw 64-bit words exactly as a
np.random.Generator at that counter would draw them: a dither bit is the
top bit of one byte of the words (little-endian byte order, the bytes
Generator.integers(0, 2, dtype=np.uint8) takes, whose Lemire rule maps a
byte b to b >> 7), and a uniform is (word >> 11) * 2**-53, as in
Generator.random.  This skips a Generator and a key check per row.
"""

from __future__ import annotations

import numbers

import numpy as np

# stream_id values used across the package; kept here so no two callers collide
STREAM_SOURCE = 1
STREAM_CONSTRUCTION = 2
STREAM_ROUNDING = 3
STREAM_DITHER = 4
STREAM_NOISE = 5

# each block starts a segment of 2**70 steps of the 256-bit counter, so
# 2**186 blocks fill it; a larger one would wrap onto a smaller block
_SEGMENT_BITS = 70
_BLOCK_LIMIT = 1 << 186


def substream(stream_id: int, index: int) -> int:
    """Derived stream id for sub-channel `index` (e.g. one lattice level)."""
    if index < 0 or index >= 65536:
        raise ValueError(f"substream index out of range: {index}")
    return stream_id * 65536 + index


def _integer(name: str, value, limit: int) -> int:
    """value as a Python int in [0, limit), limit a power of two; ValueError
    otherwise."""
    # a float or bool would silently address the stream of another integer
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    if value >= limit:
        raise ValueError(f"{name} must be below 2**{limit.bit_length() - 1}, "
                         f"got {value}")
    return value


def _key(seed: int, stream_id: int) -> np.ndarray:
    return np.array([_integer("seed", seed, 1 << 64),
                     _integer("stream_id", stream_id, 1 << 64)], dtype=np.uint64)


def philox(seed: int, stream_id: int, block: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, stream_id) with the counter set to `block`.

    The counter addressing makes draws for distinct blocks independent and
    order-free: requesting block 7 first and block 3 later yields the same
    values as the opposite order.  seed and stream_id must be integers in
    [0, 2**64) and block an integer in [0, 2**186) (NumPy integer types
    count, bool does not); anything else raises ValueError.
    """
    key = _key(seed, stream_id)
    block = _integer("block", block, _BLOCK_LIMIT)
    return np.random.Generator(np.random.Philox(
        key=key, counter=block << _SEGMENT_BITS))


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Sequential generator for the given (seed, stream_id) pair."""
    return philox(seed, stream_id, block=0)


def block_range(offset: int, count: int) -> range:
    """The count blocks from offset on, offset checked as philox checks a
    block (the draws refuse a range that reaches 2**186)."""
    offset = _integer("block", offset, _BLOCK_LIMIT)
    return range(offset, offset + count)


def _blocks(block) -> range:
    """block as a checked range of blocks: itself if a range, else the one
    integer block."""
    blocks = block if isinstance(block, range) else block_range(block, 1)
    ends = (blocks[0], blocks[-1]) if blocks else (0, 0)
    if min(ends) < 0 or max(ends) >= _BLOCK_LIMIT:
        raise ValueError(f"blocks must be nonnegative and below 2**186, got {blocks}")
    return blocks


def _raw_words(seed: int, stream_id: int, words: int):
    """The function of a block that gives the first `words` raw 64-bit
    words at it, from one Philox bit generator keyed by (seed, stream_id)."""
    bitgen = np.random.Philox(key=_key(seed, stream_id))
    state = bitgen.state  # a fresh generator's: its output buffer is empty

    def at(block):
        state["state"]["counter"] = np.frombuffer(
            (block << _SEGMENT_BITS).to_bytes(32, "little"), dtype="<u8")
        bitgen.state = state
        return bitgen.random_raw(words)
    return at


def block_bits(shared_seed: int, stream_id: int, block, n: int) -> np.ndarray:
    """n dither bits (uint8 in {0,1}) for one block, batch-size independent;
    for a range of blocks, a (len(block), n) array of their rows."""
    blocks = _blocks(block)
    words = np.empty((len(blocks), -(-n // 8)), dtype="<u8")
    at = _raw_words(shared_seed, stream_id, words.shape[1])
    for row, b in enumerate(blocks):
        words[row] = at(b)
    bits = np.right_shift(words.view(np.uint8)[:, :n], 7)
    return bits if isinstance(block, range) else bits[0]


def block_uniforms(shared_seed: int, stream_id: int, block, n: int) -> np.ndarray:
    """n uniforms in [0, 1) for one block, batch-size independent; for a
    range of blocks, a (len(block), n) array of their rows."""
    blocks = _blocks(block)
    at = _raw_words(shared_seed, stream_id, n)
    uniforms = np.empty((len(blocks), n))
    for row, b in enumerate(blocks):
        raw = at(b)
        raw >>= 11
        uniforms[row] = raw  # below 2**53, so exact
    uniforms *= 2.0 ** -53
    return uniforms if isinstance(block, range) else uniforms[0]
