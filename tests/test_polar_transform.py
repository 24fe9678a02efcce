"""Transform tests against a dense GF(2) matrix oracle and against the
byte-stage transform the word stages replace."""

import numpy as np
import pytest

from graywyner.polar import polar_transform


def dense_generator(n):
    """n x n generator as an explicit Kronecker power over GF(2)."""
    g = np.array([[1]], dtype=np.uint8)
    g2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    while g.shape[0] < n:
        g = np.kron(g2, g)
    return g


class TestAgainstDenseOracle:
    def test_exhaustive_n8(self):
        g = dense_generator(8)
        for value in range(256):
            x = np.array([(value >> k) & 1 for k in range(8)], dtype=np.uint8)
            expected = (x @ g) % 2
            np.testing.assert_array_equal(polar_transform(x), expected)

    @pytest.mark.parametrize("n", [2, 4, 16, 64, 256])
    def test_random_vectors(self, n):
        gen = np.random.default_rng(7)
        g = dense_generator(n)
        x = gen.integers(0, 2, size=(50, n), dtype=np.uint8)
        np.testing.assert_array_equal(polar_transform(x), (x @ g) % 2)


class TestAlgebra:
    @pytest.mark.parametrize("n", [2, 8, 32, 128, 512, 1024])
    def test_involution(self, n):
        gen = np.random.default_rng(n)
        x = gen.integers(0, 2, size=(100, n), dtype=np.uint8)
        np.testing.assert_array_equal(polar_transform(polar_transform(x)), x)

    def test_linearity(self):
        gen = np.random.default_rng(3)
        a = gen.integers(0, 2, size=64, dtype=np.uint8)
        b = gen.integers(0, 2, size=64, dtype=np.uint8)
        np.testing.assert_array_equal(
            polar_transform(a ^ b), polar_transform(a) ^ polar_transform(b))

    def test_batch_matches_rowwise(self):
        gen = np.random.default_rng(5)
        x = gen.integers(0, 2, size=(7, 128), dtype=np.uint8)
        batched = polar_transform(x)
        for row in range(7):
            np.testing.assert_array_equal(batched[row], polar_transform(x[row]))

    def test_input_not_modified(self):
        x = np.array([1, 1, 0, 1], dtype=np.uint8)
        keep = x.copy()
        polar_transform(x)
        np.testing.assert_array_equal(x, keep)

    def test_length_one_is_identity(self):
        np.testing.assert_array_equal(polar_transform(np.array([1], np.uint8)), [1])

    @pytest.mark.parametrize("n", [0, 3, 6, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            polar_transform(np.zeros(n, dtype=np.uint8))


def byte_stage_transform(bits):
    """The transform one byte per position, stage by stage, as it was
    computed before the word stages: the oracle of TestWordStages."""
    x = np.array(bits, dtype=np.uint8, copy=True)
    n = x.shape[-1]
    h = 1
    while h < n:
        v = x.reshape(x.shape[:-1] + (n // (2 * h), 2, h))
        v[..., 0, :] ^= v[..., 1, :]
        h *= 2
    return x


BLOCK_LENGTHS = [2 ** k for k in range(13)]  # 1 ... 4096


class TestWordStages:
    """The word-stage transform against the byte-stage oracle, over every
    block length up to 4096 and the input layouts callers hand it."""

    @staticmethod
    def _check(x):
        keep = np.array(x, copy=True)
        out = polar_transform(x)
        assert out.dtype == np.uint8 and out.shape == np.shape(x)
        np.testing.assert_array_equal(out, byte_stage_transform(x))
        np.testing.assert_array_equal(x, keep)  # the input is not modified

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_uint8_rows(self, n):
        self._check(np.random.default_rng(n).integers(0, 2, (5, n), dtype=np.uint8))

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_one_block(self, n):
        self._check(np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    @pytest.mark.parametrize("n", [4, 8, 64, 4096])
    def test_other_dtypes(self, dtype, n):
        self._check(np.random.default_rng(n).integers(0, 2, (3, n)).astype(dtype))

    @pytest.mark.parametrize("n", [4, 8, 16, 1024])
    def test_transposed_view(self, n):
        x = np.random.default_rng(n).integers(0, 2, (n, 6), dtype=np.uint8).T
        assert not x.flags.c_contiguous
        self._check(x)

    @pytest.mark.parametrize("n", [2, 8, 512])
    def test_three_dimensional(self, n):
        self._check(np.random.default_rng(n).integers(0, 2, (2, 3, n), dtype=np.uint8))

    @pytest.mark.parametrize("n", [1, 4, 8, 4096])
    def test_zero_rows(self, n):
        self._check(np.zeros((0, n), dtype=np.uint8))

    @pytest.mark.parametrize("n", [4, 8, 256])
    def test_read_only_broadcast(self, n):
        row = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        x = np.broadcast_to(row, (4, n))
        assert not x.flags.writeable
        self._check(x)
