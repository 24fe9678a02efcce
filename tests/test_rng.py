"""Philox stream addressing: keys are taken whole, never reduced."""

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
