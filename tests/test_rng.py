"""Philox stream addressing: keys are taken whole, never reduced or
truncated to an integer."""

import numpy as np
import pytest

from graywyner import rng


@pytest.mark.parametrize("field", ["seed", "stream_id"])
def test_keys_of_64_bits_or_more_rejected(field):
    args = dict(seed=0, stream_id=4, block=0)
    args[field] = 2 ** 64
    with pytest.raises(ValueError, match="2\\*\\*64"):
        rng.philox(**args)
    args[field] = 2 ** 64 - 1
    bits = rng.block_bits(args["seed"], args["stream_id"], 0, 16)
    assert not np.array_equal(bits, rng.block_bits(0, 4, 0, 16))


@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("field", ["seed", "stream_id", "block"])
def test_non_integer_addresses_rejected(field, bad):
    args = dict(seed=1, stream_id=4, block=2)
    args[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        rng.philox(**args)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        rng.block_bits(args["seed"], args["stream_id"], args["block"], 16)


def test_numpy_integers_accepted():
    """NumPy integer addresses draw exactly the stream of the Python int."""
    for field in ("seed", "stream_id", "block"):
        args = dict(seed=1, stream_id=4, block=2)
        expected = rng.block_uniforms(args["seed"], args["stream_id"], args["block"], 16)
        args[field] = np.uint64(3)
        got = rng.block_uniforms(args["seed"], args["stream_id"], args["block"], 16)
        args[field] = 3
        np.testing.assert_array_equal(
            got, rng.block_uniforms(args["seed"], args["stream_id"], args["block"], 16))
        assert not np.array_equal(got, expected)
    np.testing.assert_array_equal(rng.stream(np.uint64(3), 1).random(8),
                                  rng.stream(3, 1).random(8))


# first draws at fixed (seed, stream_id, block) addresses, recorded when
# blocks were reached by advancing a block-0 generator; the last two
# addresses lie beyond 2**64
PINNED_DRAWS = [
    ((0, rng.STREAM_SOURCE, 0),
     [0.8133540609793564, 0.7513314251083365, 0.6716490436969984],
     [0, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1]),
    ((7, rng.STREAM_ROUNDING, 4095),
     [0.8426693019711485, 0.48003017888432953, 0.20094041178143585],
     [0, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0]),
    ((11, rng.substream(rng.STREAM_DITHER, 2), 2 ** 64 + 5),
     [0.9586069261896877, 0.3372949536829646, 0.6087859118316493],
     [0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0]),
    ((2 ** 64 - 1, rng.STREAM_NOISE, 2 ** 185 + 1),
     [0.9195232299451098, 0.6269622463483194, 0.400474509452699],
     [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1]),
]


@pytest.mark.parametrize("address, uniforms, bits", PINNED_DRAWS)
def test_block_addresses_draw_pinned_values(address, uniforms, bits):
    assert rng.block_uniforms(*address, 3).tolist() == uniforms
    assert rng.block_bits(*address, 16).tolist() == bits


def test_blocks_past_the_counter_refused():
    """A block at or above 2**186 would wrap the counter onto a smaller
    block's draws; it is refused instead."""
    last = rng.block_uniforms(7, 1, 2 ** 186 - 1, 8)
    assert not np.array_equal(last, rng.block_uniforms(7, 1, 0, 8))
    for block in (2 ** 186, 2 ** 186 + 3, 2 ** 300):
        with pytest.raises(ValueError, match=r"below 2\*\*186"):
            rng.block_uniforms(7, 1, block, 8)
        with pytest.raises(ValueError, match=r"below 2\*\*186"):
            rng.philox(7, 1, block)


# batched rows against the one-block calls, at offsets whose counters fill
# one, two and three 64-bit words of the counter and at the last block
BATCH_OFFSETS = [(0, 3), (2 ** 64, 3), (2 ** 100, 2), (2 ** 186 - 1, 1)]
BATCH_LENGTHS = list(range(1, 10)) + [17, 4096]


def generator_row(draw, seed, stream_id, block, n):
    """One block's row as np.random.Generator draws it at the block's
    counter: the definition the raw-word draws reproduce."""
    gen = rng.philox(seed, stream_id, block)
    if draw is rng.block_bits:
        return gen.integers(0, 2, size=n, dtype=np.uint8)
    return gen.random(n)


@pytest.mark.parametrize("level", [2, (2, 0, 7)], ids=["integer", "tuple"])
@pytest.mark.parametrize("offset, per_level", BATCH_OFFSETS,
                         ids=["0", "2**64", "2**100", "2**186-1"])
@pytest.mark.parametrize("n", BATCH_LENGTHS)
def test_batched_rows_equal_one_block_rows(n, offset, per_level, level):
    """_stream_matrix's rows, drawn one call per level, equal the rows of
    one-block calls stacked in the documented order, and the Generator's
    draws at those blocks."""
    from graywyner.polar.coding import _stream_matrix

    levels = level if isinstance(level, tuple) else (level,)
    for draw, stream in ((rng.block_bits, rng.STREAM_DITHER),
                         (rng.block_uniforms, rng.STREAM_ROUNDING)):
        got = _stream_matrix(draw, stream, 9, level, per_level * len(levels),
                             offset, n)
        addresses = [(9, rng.substream(stream, lv), offset + b, n)
                     for lv in levels for b in range(per_level)]
        want = np.stack([draw(*address) for address in addresses])
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            got, np.stack([generator_row(draw, *address) for address in addresses]))


def test_range_rows_equal_one_block_rows():
    blocks = range(2 ** 64 - 1, 2 ** 64 + 2)
    for draw in (rng.block_bits, rng.block_uniforms):
        np.testing.assert_array_equal(
            draw(3, 5, blocks, 11), np.stack([draw(3, 5, b, 11) for b in blocks]))


@pytest.mark.parametrize("level", [0, (1, 3)], ids=["integer", "tuple"])
def test_empty_batch_keeps_the_dtypes(level):
    from graywyner.polar.coding import _stream_matrix

    bits = _stream_matrix(rng.block_bits, rng.STREAM_DITHER, 1, level, 0, 0, 64)
    uniforms = _stream_matrix(rng.block_uniforms, rng.STREAM_ROUNDING, 1, level,
                              0, 0, 64)
    assert bits.shape == uniforms.shape == (0, 64)
    assert bits.dtype == np.uint8 and uniforms.dtype == np.float64


def test_batches_past_the_counter_refused():
    from graywyner.polar.coding import _stream_matrix

    for draw in (rng.block_bits, rng.block_uniforms):
        with pytest.raises(ValueError, match=r"below 2\*\*186"):
            draw(7, 1, range(2 ** 186 - 1, 2 ** 186 + 1), 8)
        with pytest.raises(ValueError, match=r"below 2\*\*186"):
            _stream_matrix(draw, rng.STREAM_DITHER, 7, 0, 2, 2 ** 186 - 1, 8)
        with pytest.raises(ValueError, match="nonnegative"):
            draw(7, 1, range(-1, 2), 8)


@pytest.mark.parametrize("offset", [-1, True, 1.5, np.float64(2.0)],
                         ids=["negative", "bool", "float", "numpy-float"])
def test_bad_batch_offsets_refused(offset):
    """An offset that is not a nonnegative integer is refused, as philox
    refuses such a block, even for a batch without rows."""
    from graywyner.polar.coding import _stream_matrix

    for n_blocks in (0, 2):
        with pytest.raises(ValueError, match="block must be"):
            _stream_matrix(rng.block_bits, rng.STREAM_DITHER, 7, 0, n_blocks,
                           offset, 8)
