"""RunRecord refuses per-block arrays that no pipeline run can produce:
mismatched or empty block counts, rates that are not finite or lie below
zero beyond rounding, and distortions that are not finite or lie below
zero; RateTriple refuses rates that are not finite and nonnegative."""

import numpy as np
import pytest

from graywyner.rates import RateTriple, RunRecord


def record(n_blocks=3, **arrays):
    fields = dict(r0=np.full(n_blocks, 0.5), r1=np.full(n_blocks, 0.25),
                  r2=np.full(n_blocks, 0.25), dist_x=np.zeros(n_blocks),
                  dist_y=np.zeros(n_blocks))
    fields.update(arrays)
    return RunRecord(point_label="G", block_len=256, seed=1, region=None,
                     theory=RateTriple(0.5, 0.25, 0.25), theory_ci=0.5,
                     target_dx=0.0, target_dy=0.0, **fields)


def test_consistent_record_accepted():
    assert record().n_blocks == 3
    # rates computed in floating point may dip below zero by rounding
    assert record(r1=np.array([0.25, -1e-13, 0.0])).n_blocks == 3


@pytest.mark.parametrize("name", ["r0", "r1", "r2"])
def test_negative_rate_block_rejected(name):
    with pytest.raises(ValueError, match=f"{name} went negative"):
        record(**{name: np.array([0.25, -1e-6, 0.25])})


@pytest.mark.parametrize("name", ["r1", "r2", "dist_x", "dist_y"])
def test_mismatched_lengths_rejected(name):
    with pytest.raises(ValueError, match="one nonzero length"):
        record(**{name: np.zeros(2)})


def test_empty_arrays_rejected():
    with pytest.raises(ValueError, match="one nonzero length"):
        record(n_blocks=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["r0", "r1", "r2"])
def test_rate_block_not_finite_rejected(name, bad):
    with pytest.raises(ValueError, match=f"{name} is not finite"):
        record(**{name: np.array([0.25, bad, 0.25])})


@pytest.mark.parametrize("bad", [np.nan, -0.5, -1e-13, np.inf])
@pytest.mark.parametrize("name", ["dist_x", "dist_y"])
def test_bad_distortion_block_rejected(name, bad):
    with pytest.raises(ValueError, match=f"distortion {name} must be finite"):
        record(**{name: np.array([0.0, bad, 0.1])})


@pytest.mark.parametrize("bad", [np.nan, -0.5, np.inf])
@pytest.mark.parametrize("name", ["r0", "r1", "r2"])
def test_rate_triple_rejects_bad_rates(name, bad):
    rates = dict(r0=0.5, r1=0.25, r2=0.25)
    rates[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        RateTriple(**rates)
    assert RateTriple(0.0, 0.0, 0.0).total == 0.0
