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
