"""Property-based invariants of the polar coders on random channels.

Each example draws a joint law of a binary X and a side variable Y on
K <= 4 symbols, with exact-zero and 1e-12 entries among its cells, a block
length N from 1 to 256, 1 to 5 blocks, a fraction in [0, 1] (the lossy
payload cap) and the lossless stored set: the profile's own, none (e_cond
0) or, for N > 1, all (e_cond 1).  Construction runs on few samples, so its
index classes and decision errors are often wrong, which is what the
corrections are for.  In every example:

* lossless decoding returns the source blocks exactly;
* lossy replay returns the encoder's reconstruction exactly;
* payloads, corrections and reconstructions (stored bits and corrections
  for the lossless code) do not depend on how the batch is split, since
  dither is addressed by block.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from graywyner import rng
from graywyner.polar import (
    BinarySourceWithSideInfo,
    construct_profile,
    sc_lossless_decode,
    sc_lossless_encode,
    sc_lossy_encode,
    sc_lossy_reconstruct,
)

# a cell of the joint before normalization: exactly zero, tiny, or ordinary
_CELLS = st.one_of(st.just(0.0), st.just(1e-12), st.floats(0.01, 1.0))


@st.composite
def joints(draw):
    k = draw(st.integers(1, 4))
    cells = np.array(draw(st.lists(_CELLS, min_size=2 * k, max_size=2 * k)))
    if cells.sum() == 0.0:
        cells[draw(st.integers(0, 2 * k - 1))] = 1.0
    return (cells / cells.sum()).reshape(2, k)


def _assert_corrections_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@given(joint=joints(), log_n=st.integers(0, 8), n_blocks=st.integers(1, 5),
       fraction=st.floats(0.0, 1.0), e_cond=st.sampled_from([None, 0.0, 1.0]),
       split=st.integers(0, 5), seed=st.integers(0, 2 ** 16))
def test_coders_exact_and_split_independent(joint, log_n, n_blocks, fraction,
                                            e_cond, split, seed):
    block_len = 1 << log_n
    split = min(split, n_blocks)
    channel = BinarySourceWithSideInfo(joint)
    profile = construct_profile(channel, block_len, sample_count=8, seed=seed)
    x, y = channel.sample(n_blocks, block_len, rng.stream(seed, rng.STREAM_SOURCE))

    stored = (profile if e_cond is None
              else replace(profile, e_cond=np.full(block_len, e_cond)))
    code = sc_lossless_encode(x, channel, stored, side=y)
    np.testing.assert_array_equal(
        sc_lossless_decode(code, channel, stored, side=y), x)
    head = sc_lossless_encode(x[:split], channel, stored, side=y[:split])
    tail = sc_lossless_encode(x[split:], channel, stored, side=y[split:])
    np.testing.assert_array_equal(
        np.vstack([head.sent, tail.sent]), code.sent)
    _assert_corrections_equal(head.corrections + tail.corrections, code.corrections)

    capped = profile.with_payload_cap(fraction)
    lossy, recon = sc_lossy_encode(y, channel, capped, shared_seed=seed)
    np.testing.assert_array_equal(
        sc_lossy_reconstruct(lossy, channel, capped, shared_seed=seed), recon)
    parts = [sc_lossy_encode(y[rows], channel, capped, shared_seed=seed,
                             block_offset=rows.start)
             for rows in (slice(0, split), slice(split, n_blocks))]
    np.testing.assert_array_equal(np.vstack([p[0].sent for p in parts]), lossy.sent)
    _assert_corrections_equal(parts[0][0].corrections + parts[1][0].corrections,
                              lossy.corrections)
    np.testing.assert_array_equal(np.vstack([p[1] for p in parts]), recon)
