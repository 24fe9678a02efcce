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


def substream(stream_id: int, index: int) -> int:
    """Derived stream id for sub-channel `index` (e.g. one lattice level)."""
    if index < 0 or index >= 65536:
        raise ValueError(f"substream index out of range: {index}")
    return stream_id * 65536 + index


def philox(seed: int, stream_id: int, block: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, stream_id) with the counter set to `block`.

    The counter addressing makes draws for distinct blocks independent and
    order-free: requesting block 7 first and block 3 later yields the same
    values as the opposite order.  seed and stream_id must be integers in
    [0, 2**64) and block a nonnegative integer (NumPy integer types count,
    bool does not); anything else raises ValueError.
    """
    for name, value in (("seed", seed), ("stream_id", stream_id), ("block", block)):
        # a float or bool would silently address the stream of another integer
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    seed, stream_id, block = int(seed), int(stream_id), int(block)
    if seed < 0 or stream_id < 0 or block < 0:
        raise ValueError("seed, stream_id and block must be nonnegative")
    if seed >= 1 << 64 or stream_id >= 1 << 64:
        raise ValueError("seed and stream_id must be below 2**64")
    bg = np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64))
    bg.advance(block << 70)  # jump to a per-block segment of 2**70 draws
    return np.random.Generator(bg)


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Sequential generator for the given (seed, stream_id) pair."""
    return philox(seed, stream_id, block=0)


def block_bits(shared_seed: int, stream_id: int, block: int, n: int) -> np.ndarray:
    """n dither bits (uint8 in {0,1}) for one block, batch-size independent."""
    gen = philox(shared_seed, stream_id, block)
    return gen.integers(0, 2, size=n, dtype=np.uint8)


def block_uniforms(shared_seed: int, stream_id: int, block: int, n: int) -> np.ndarray:
    """n uniforms in [0, 1) for one block, batch-size independent."""
    gen = philox(shared_seed, stream_id, block)
    return gen.random(n)
