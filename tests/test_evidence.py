"""The evidence gathers and coset sums are pinned bitwise to the plain
forms they replace: leaf_evidence and the lattice prior against fancy
indexing of their LLR tables, the leaf LLRs the engine reads off a binary
channel against ln p0 - ln p1 of its conditional table, and _coset_llr against the fixed 9.5-sigma loop it bounds, inlined here
as the reference."""

import math

import numpy as np
import pytest

from graywyner.dsbs import DsbsModel, build_point_g_channel
from graywyner.lattice import (
    _coset_llr,
    _level_evidence,
    mmse_params,
    plan_chain,
)
from graywyner.polar import test_channel_source as make_quantizer_source
from graywyner.polar.channel import (
    BinarySourceWithSideInfo,
    crossover_side_info,
    lossless_source,
)
from graywyner.polar.sc import _llrs


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.intp])
def test_leaf_evidence_equals_row_by_row_table(k, dtype):
    gen = np.random.default_rng(k)
    joint = gen.random((2, k))
    channel = BinarySourceWithSideInfo(joint / joint.sum())
    logs = np.log(channel.conditional_table())
    table = logs[:, 0] - logs[:, 1]
    y = gen.integers(0, k, size=(5, 64)).astype(dtype)
    got = channel.leaf_evidence(y)
    assert got.shape == (5, 64) and got.dtype == np.float64
    want = np.array([[table[symbol] for symbol in row] for row in y])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(channel.leaf_evidence(y[0]), want[0])


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_lattice_prior_equals_table_rows(dtype):
    mmse = mmse_params(1.0, 0.8)
    chain = plan_chain(mmse)
    gen = np.random.default_rng(5)
    for level in range(1, chain.levels + 1):
        rows = 1 << (level - 1)
        table = _coset_llr(np.zeros(rows), chain.sigma_r,
                           chain.base_scale * np.arange(rows),
                           chain.level_step(level))
        finer = gen.integers(0, rows, size=(9, 64)).astype(dtype)
        _, prior = _level_evidence(chain, mmse, level, finer)
        np.testing.assert_array_equal(prior(2, 9), table[finer[2:9]])


@pytest.mark.parametrize("channel,certain", [
    pytest.param(lossless_source(0.0), True, id="certain-source"),
    pytest.param(crossover_side_info(0.0), True, id="certain-side"),
    pytest.param(build_point_g_channel(DsbsModel(0.1)), False, id="point-g"),
    pytest.param(make_quantizer_source(0.3, np.array([[0.9, 0.05, 0.05],
                                                      [0.2, 0.3, 0.5]])),
                 False, id="nonuniform-prior")])
def test_binary_leaf_llrs_equal_log_ratio_of_table(channel, certain):
    """The leaf LLRs the engine reads off leaf_evidence and prior_evidence
    are ln p0 - ln p1 of the gathered conditional_table rows and of the
    prior pair, bit for bit, +-inf included: a certain channel's rows of
    0 and 1 give L = +-inf at every leaf."""
    k = channel.side_alphabet_size
    y = np.random.default_rng(k).integers(0, k, size=(3, 64)).astype(np.uint8)
    table = channel.conditional_table()[y]
    prior = np.array([1.0 - channel.prior_one, channel.prior_one])
    with np.errstate(divide="ignore"):
        want = np.log(table[..., 0]) - np.log(table[..., 1])
        want_prior = np.log(prior[0]) - np.log(prior[1])
    got, _ = _llrs(channel.leaf_evidence(y), np.float64)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    got, _ = _llrs(channel.prior_evidence(y.shape), np.float64)
    np.testing.assert_array_equal(got.view(np.int64),
                                  np.full(y.shape, want_prior).view(np.int64))
    assert np.isinf(want).all() == certain


def coset_llr_fixed_window(centers, sigma, offsets, step):
    """_coset_llr as it was before its sums were bounded: every pair of
    points within 9.5 sigma of the center, no clamp."""
    k0 = np.rint((centers - offsets) / step).astype(np.int64)
    near = offsets + step * k0 - centers
    odd = (k0 & 1).astype(bool)
    far = near - np.copysign(step, near)
    inv = -1.0 / (2.0 * sigma * sigma)
    llr = inv * (near * near - far * far)
    curve = 4.0 * inv * step * step
    up = np.empty_like(near)
    down = np.empty_like(near)
    sums = []
    for anchor in (near, far):
        slope = (4.0 * inv * step) * anchor
        total = np.ones_like(anchor)
        for i in range(1, int(math.ceil(9.5 * sigma / (2.0 * step))) + 1):
            shift = curve * (i * i)
            np.multiply(slope, i, out=up)
            np.subtract(shift, up, out=down)
            up += shift
            total += np.add(np.exp(up, out=up), np.exp(down, out=down), out=up)
        sums.append(total)
    llr += np.log(sums[0] / sums[1])
    return np.where(odd, -llr, llr)


# the conditional chain's step/sigma at its first five levels, and a sweep
# from a wide window (many pairs) to a second coset far below the float range
STEP_OVER_SIGMA = [1.3, 2.6, 5.2, 10.4, 20.8] + list(np.geomspace(0.5, 83.0, 25))


@pytest.mark.parametrize("ratio", STEP_OVER_SIGMA)
@pytest.mark.parametrize("sigma", [0.37, 2.9])
def test_coset_llr_bitwise_equals_fixed_window(ratio, sigma):
    step = ratio * sigma
    gen = np.random.default_rng(int(ratio * 1000))
    offsets = step * 0.25 * gen.integers(0, 8, 1200)
    k = gen.integers(-40, 40, 1200)
    centers = np.concatenate([
        gen.normal(0.0, 20.0 * step, 300),           # anywhere
        offsets[300:600] + step * k[300:600],        # on lattice points
        offsets[600:900] + step * (k[600:900] + 0.5),  # on midpoints: ties
        offsets[900:] + gen.uniform(-step, step, 300),  # near the anchors
    ])
    got = _coset_llr(centers, sigma, offsets, step)
    want = coset_llr_fixed_window(centers, sigma, offsets, step)
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
