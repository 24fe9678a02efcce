"""Dual-route check that the pair observation collapses to its average.

The reduced quantizer sees u = (x+y)/2 through MmseParams((1+rho)/2, rho),
whose posterior over lattice points has centers rho(x+y)/(1+rho) and
variance rho(1-rho)/(1+rho).  Conditioning on both coordinates directly
gives exactly the same posterior, so every per-level log odds must agree.
The reduced route is the coset LLR the quantizer's conditional chain reads
(_coset_llr at alpha * u); the brute-force route below works from (x, y)
and the prior directly and never calls the package's evidence code.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from graywyner import rng
from graywyner.gaussian import GaussianPairModel, reduce_pair
from graywyner.lattice import _coset_llr, plan_chain

N_SAMPLES = 10_000


def pair_llr_brute(chain, rho, level, x, y, finer=0, k_range=40):
    """Per-level log odds computed from the raw pair observation, given the
    integer label of the finer levels.

    Sums prior-times-likelihood weights over each coset of the level's
    sublattice in a window of k_range strides around the posterior center.
    """
    step = chain.level_step(level)
    stride = 2.0 * step
    offset = chain.base_scale * np.broadcast_to(finer, x.shape).astype(float)
    center = rho * (x + y) / (1.0 + rho)
    k = np.arange(-k_range, k_range + 1)

    def coset_logsum(base):
        j0 = np.rint((center - base) / stride)
        m = base[:, None] + stride * (j0[:, None] + k[None, :])
        logw = (-m * m / (2.0 * rho)
                - ((x[:, None] - m) ** 2 + (y[:, None] - m) ** 2)
                / (2.0 * (1.0 - rho)))
        return logsumexp(logw, axis=1)

    return coset_logsum(offset) - coset_logsum(offset + step)


@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_pair_and_reduced_llr_agree_at_every_level(rho):
    model = GaussianPairModel(rho)
    red = reduce_pair(model)
    chain = plan_chain(red.mmse)
    gen = rng.stream(97, rng.STREAM_NOISE)
    x, y = model.sample(1, N_SAMPLES, gen)
    x, y = x[0], y[0]
    u = 0.5 * (x + y)
    for level in range(1, chain.levels + 1):
        bits = (gen.random((level - 1, N_SAMPLES)) < 0.5).astype(np.int64)
        finer = np.tensordot(1 << np.arange(level - 1), bits, axes=1)
        reduced = _coset_llr(red.mmse.alpha * u, math.sqrt(red.mmse.sigma_tilde2),
                             chain.base_scale * finer, chain.level_step(level))
        brute = pair_llr_brute(chain, rho, level, x, y, finer)
        worst = float(np.max(np.abs(reduced - brute)))
        assert worst < 1e-9, f"level {level}: max deviation {worst:.3e}"


def test_posterior_constants_match_the_reduction():
    # the advertised center/width identity behind the collapse
    for rho in (0.3, 0.5, 0.8, 0.95):
        red = reduce_pair(GaussianPairModel(rho))
        assert red.mmse.alpha * 0.5 == pytest.approx(rho / (1.0 + rho),
                                                     rel=1e-15, abs=0.0)
        assert red.mmse.sigma_tilde2 == pytest.approx(
            rho * (1.0 - rho) / (1.0 + rho), rel=1e-12, abs=0.0)


def test_brute_window_is_saturated():
    # doubling the brute-force window must not move the answer at 1e-12:
    # guards the oracle itself against truncation artifacts
    rho = 0.8
    model = GaussianPairModel(rho)
    red = reduce_pair(model)
    chain = plan_chain(red.mmse)
    gen = rng.stream(31, rng.STREAM_NOISE)
    x, y = model.sample(1, 200, gen)
    x, y = x[0], y[0]
    a = pair_llr_brute(chain, rho, 1, x, y, k_range=40)
    b = pair_llr_brute(chain, rho, 1, x, y, k_range=80)
    assert float(np.max(np.abs(a - b))) < 1e-12
