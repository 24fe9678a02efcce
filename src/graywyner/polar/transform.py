"""The binary polarization transform u = x G over GF(2).

G is the n-fold Kronecker power of [[1, 0], [1, 1]] acting on row vectors of
length N = 2^n, in natural index order (no bit-reversal permutation
anywhere in this package).  The transform factors into n butterfly stages

    stage h:  x[i] ^= x[i + h]   for every i whose bit h is clear,

one stage per power h = 1, 2, ..., N/2.  The stages commute and each is an
involution, so G is its own inverse and the stages may be applied in any
order; we apply them smallest h first.

Bits are held one per byte.  From N = 8 on, the stages run on a view of
each block as N/8 64-bit words of 8 positions each: stages h = 1, 2 and 4
stay inside a word, as w ^= (w >> 8h) & mask_h with mask_h the bytes whose
position has bit h clear, and stages h >= 8 xor whole words.  A byte-wise
stage at small h has inner loops of h bytes, which NumPy runs at a few ns
per element; the word stages run on long vectors.  The view is
little-endian ("<u8") whatever the host, so position i of a word is its
byte i, bits 8i to 8i + 7, and the shifts move positions the same way on
every host.  Below N = 8 the byte stages run as they are.
"""

from __future__ import annotations

import numpy as np

# (8h, mask_h) of the stages inside a little-endian word: the bytes at
# positions 0-7 whose bit h is clear
_WORD_STAGES = ((8, np.uint64(0x00FF00FF00FF00FF)),
                (16, np.uint64(0x0000FFFF0000FFFF)),
                (32, np.uint64(0x00000000FFFFFFFF)))
# words per pass of the stages inside a word, whose shifted words take a
# buffer of this size rather than one of the whole batch
_SPILL_WORDS = 1 << 14


def _check_block_length(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"block length must be a power of two, got {n}")


def polar_transform(bits: np.ndarray) -> np.ndarray:
    """Apply u = x G along the last axis of a {0,1} array.

    Returns a new uint8 array; the input is not modified.  Applying the
    transform twice returns the original array (G is an involution).
    """
    out = np.array(bits, dtype=np.uint8, order="C", copy=True)
    n = out.shape[-1]
    _check_block_length(n)
    x, h = out, 1
    if n >= 8:
        x = out.view("<u8")
        flat = x.reshape(-1)
        spill = np.empty(min(flat.size, _SPILL_WORDS), dtype=x.dtype)
        for start in range(0, flat.size, _SPILL_WORDS):
            words = flat[start:start + _SPILL_WORDS]
            shifted = spill[:words.size]
            for shift, mask in _WORD_STAGES:
                np.right_shift(words, shift, out=shifted)
                shifted &= mask
                words ^= shifted
        n //= 8
    while h < n:
        v = x.reshape(x.shape[:-1] + (n // (2 * h), 2, h))
        v[..., 0, :] ^= v[..., 1, :]
        h *= 2
    return out
