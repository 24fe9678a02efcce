"""Gray-Wyner coding pipelines for the doubly symmetric binary source.

Each operating point builds a common branch and up to two private branches
from the polar coding layer:

* ``PointA``: ships X verbatim on the common branch (one bit per symbol)
  and compresses the correlation residual x xor y losslessly for the Y
  decoder.  Exact reconstruction, total rate near the joint entropy.
* ``PointG``: quantizes the hidden bit W from the pair observation at the
  common-information rate, then codes X and Y losslessly given W.
* ``LineAG(d1)``: same shape with the intermediate common variable X'
  between X (d1 = 0) and W (d1 = a1).
* ``CurveGB(beta)``: degraded common variable costing less common rate and
  h(beta) per private branch.
* ``LossyTinyBoth(delta)``: W on the common branch plus one lossy
  refinement per coordinate (nonuniform reconstruction prior).
* ``LossyCoupled(d1, d2)``: a single shared reconstruction bit from the
  asymmetric coupled-region test channel; both decoders output it.
* ``LossyLopsided(d1, d2)``: codes only the tighter coordinate and serves
  the copy to both decoders.

Each branch of run_dsbs_pipeline sets only the rates, theory figures,
region, targets and reconstructions (lossless points keep the sources), and
one RunRecord is built from them.  LossyCoupled and LossyLopsided share a
branch: both serve one quantized bit to both decoders.  Private branches
that code with one channel (the X and Y branches of PointG and CurveGB,
the two refinements of LossyTinyBoth) are stacked into one batch that
shares each SC pass; every block is coded exactly as it would be alone.

Rates are measured per block, not assumed: every branch charges its code's
PolarCode.rate_per_block, the sent bits (the lossless stored set or the
lossy payload) plus log2(N) + 1 bits per flagged leaf.  Every lossy
stage also replays the decoder path and verifies it reproduces the
encoder-side reconstruction bit for bit, and every lossless branch is
decoded and compared against the source exactly.

Each code sends what its profile's decision-error rule picks (see
polar.profile); lossy stages cap the payload at the mutual information plus
a margin that shrinks as (2^16/N)^(1/4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import rng
from ..numerics import binary_convolve, binary_entropy
from ..polar import (
    construct_profile,
    construct_profile_cached,
    crossover_side_info,
    lossless_source,
    sc_lossless_decode,
    sc_lossless_encode,
    sc_lossy_encode,
    sc_lossy_reconstruct,
    test_channel_source,
)
from ..rates import RateTriple, RunRecord, check_replay, check_run_size
from .model import (
    DsbsModel,
    DsbsRegion,
    ag_partner_crossover,
    build_ag_channel,
    build_eps2_channel,
    build_gb_channel,
    build_point_g_channel,
    classify_dsbs,
    gb_theory_triple,
    lossy_ci_dsbs,
    pair_observation,
    r_xy_dsbs,
)

COMMON_LEVEL = 0
PRIVATE_X_LEVEL = 1
PRIVATE_Y_LEVEL = 2

# lossy payload headroom over the mutual information at block length 2^16
COMMON_MARGIN = 0.06


def _scaled(margin: float, block_len: int) -> float:
    """Headroom at block_len; larger blocks run closer to the limits."""
    return margin * (2 ** 16 / block_len) ** 0.25


# -- operating points -------------------------------------------------------

@dataclass(frozen=True)
class PointA:
    label = "A"


@dataclass(frozen=True)
class PointG:
    label = "G"


@dataclass(frozen=True)
class LineAG:
    d1: float
    label = "AG"


@dataclass(frozen=True)
class CurveGB:
    beta: float
    label = "GB"


@dataclass(frozen=True)
class LossyTinyBoth:
    delta: float
    label = "LOSSY_E10"


@dataclass(frozen=True)
class LossyCoupled:
    d1: float
    d2: float
    label = "LOSSY_E2"


@dataclass(frozen=True)
class LossyLopsided:
    d1: float
    d2: float
    label = "LOSSY_E3"


@dataclass
class _Stages:
    """Construction context shared by the stage helpers."""

    block_len: int
    seed: int
    cache_dir: Optional[str]
    sample_count: int
    construction_seed: int

    def profile_for(self, channel):
        kw = dict(sample_count=self.sample_count, seed=self.construction_seed)
        if self.cache_dir is None:
            return construct_profile(channel, self.block_len, **kw)
        return construct_profile_cached(channel, self.block_len, self.cache_dir, **kw)

    def quantize(self, *branches):
        """Lossy stages of (channel, obs, level) branches: returns one
        (per-block rates, reconstruction blocks) per branch.  Branches that
        share a channel are one encode and one replay (see _by_channel),
        each branch's dither at its own level."""
        def code(channel, obs, levels):
            cap = channel.mutual_information() + _scaled(COMMON_MARGIN, self.block_len)
            profile = self.profile_for(channel).with_payload_cap(cap)
            packed, recon = sc_lossy_encode(
                obs, channel, profile, shared_seed=self.seed, level=levels)
            replay = sc_lossy_reconstruct(packed, channel, profile,
                                          shared_seed=self.seed, level=levels)
            check_replay(replay, recon, "lossy replay")
            return list(zip(np.split(packed.rate_per_block(), len(levels)),
                            np.split(recon, len(levels))))

        return _by_channel(branches, code)

    def lossless(self, *branches):
        """Lossless stages of (channel, bits, side) branches: returns the
        per-block rates of each branch; verifies exactness.  Branches that
        share a channel are one encode and one decode (see _by_channel)."""
        def code(channel, bits, sides):
            profile = self.profile_for(channel)
            side = None if sides[0] is None else np.concatenate(sides)
            packed = sc_lossless_encode(bits, channel, profile, side=side)
            decoded = sc_lossless_decode(packed, channel, profile, side=side)
            check_replay(decoded, bits, "lossless branch")
            return np.split(packed.rate_per_block(), len(sides))

        return _by_channel(branches, code)


def _by_channel(branches, code):
    """Code (channel, blocks, extra) branches, one batch per channel id.

    code(channel, blocks, extras) receives the blocks of the branches that
    share the channel stacked in branch order, and their extras as a tuple;
    it returns one result per branch of the group.  The branches of an op
    that code with one profile (its X and Y twins) so share one SC pass.
    Returns the results in branch order.
    """
    groups = {}
    for i, branch in enumerate(branches):
        groups.setdefault(branch[0].channel_id(), []).append(i)
    results = [None] * len(branches)
    for members in groups.values():
        group = [branches[i] for i in members]
        for i, result in zip(members, code(
                group[0][0], np.concatenate([b[1] for b in group]),
                tuple(b[2] for b in group))):
            results[i] = result
    return results


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a != b).mean(axis=1)


def run_dsbs_pipeline(point, model: DsbsModel, block_len: int, seed: int, *,
                      n_blocks: int = 10, cache_dir=None, sample_count: int = 256,
                      construction_seed: int = 11) -> RunRecord:
    """Run one operating point for one seed over a batch of source blocks."""
    check_run_size(block_len, n_blocks, sample_count)
    stages = _Stages(block_len, seed, cache_dir, sample_count, construction_seed)
    x, y = model.sample(n_blocks, block_len, rng.stream(seed, rng.STREAM_SOURCE))
    # lossless points reconstruct exactly; lossy branches replace these
    x_hat, y_hat = x, y
    region, theory_ci, targets = None, model.wyner_ci(), (0.0, 0.0)

    if isinstance(point, PointA):
        (r2,) = stages.lossless((lossless_source(model.a0), x ^ y, None))
        rates = (1.0, 0.0, r2)
        theory = RateTriple(1.0, 0.0, binary_entropy(model.a0))

    elif isinstance(point, (PointG, LineAG, CurveGB)):
        if isinstance(point, PointG):
            channel = build_point_g_channel(model)
            cross_x, cross_y = model.a1, model.a1
            h_a1 = binary_entropy(model.a1)
            theory = RateTriple(model.wyner_ci(), h_a1, h_a1)
        elif isinstance(point, LineAG):
            channel = build_ag_channel(model, point.d1)
            cross_x = point.d1
            cross_y = binary_convolve(ag_partner_crossover(model, point.d1),
                                      model.a1)
            theory = RateTriple(channel.mutual_information(),
                                binary_entropy(cross_x), binary_entropy(cross_y))
        else:
            channel = build_gb_channel(model, point.beta)
            cross_x = cross_y = point.beta
            theory = gb_theory_triple(model, point.beta)
        ((r0, w_hat),) = stages.quantize(
            (channel, pair_observation(x, y), COMMON_LEVEL))
        rates = (r0, *stages.lossless((crossover_side_info(cross_x), x, w_hat),
                                      (crossover_side_info(cross_y), y, w_hat)))

    elif isinstance(point, LossyTinyBoth):
        delta = point.delta
        region = classify_dsbs(delta, delta, model)
        if region is not DsbsRegion.TINY_BOTH:
            raise ValueError(f"delta={delta} falls in {region.name}; this "
                             "pipeline needs both distortions at most a1")
        ((r0, w_hat),) = stages.quantize(
            (build_point_g_channel(model), pair_observation(x, y), COMMON_LEVEL))
        refine_prior = (model.a1 - delta) / (1.0 - 2.0 * delta)
        forward = np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])
        refine = test_channel_source(refine_prior, forward,
                                     name="residual-refinement")
        (r1, vx), (r2, vy) = stages.quantize(
            (refine, x ^ w_hat, PRIVATE_X_LEVEL), (refine, y ^ w_hat, PRIVATE_Y_LEVEL))
        rates = (r0, r1, r2)
        x_hat, y_hat = w_hat ^ vx, w_hat ^ vy
        rate = binary_entropy(model.a1) - binary_entropy(delta)
        theory = RateTriple(model.wyner_ci(), rate, rate)
        theory_ci = lossy_ci_dsbs(delta, delta, model)
        targets = (delta, delta)

    elif isinstance(point, (LossyCoupled, LossyLopsided)):
        # one quantized bit on the common branch, served to both decoders
        d1, d2 = point.d1, point.d2
        needed = (DsbsRegion.COUPLED if isinstance(point, LossyCoupled)
                  else DsbsRegion.LOPSIDED)
        region = classify_dsbs(d1, d2, model)
        if region is not needed:
            raise ValueError(f"({d1}, {d2}) falls in {region.name}; this "
                             f"pipeline needs the {needed.name.lower()} region")
        if needed is DsbsRegion.COUPLED:
            channel = build_eps2_channel(d1, d2, model)
            obs = pair_observation(x, y)
        else:
            # lopsided membership guarantees d_loose > conv(a0, d_tight), so
            # the tight reconstruction meets both targets at both decoders
            d_tight = min(d1, d2)
            forward = np.array([[1.0 - d_tight, d_tight],
                                [d_tight, 1.0 - d_tight]])
            channel = test_channel_source(0.5, forward, name="single-coordinate")
            obs = y if d1 > d2 else x
        ((r0, w_hat),) = stages.quantize((channel, obs, COMMON_LEVEL))
        rates = (r0, 0.0, 0.0)
        x_hat = y_hat = w_hat
        theory = RateTriple(r_xy_dsbs(d1, d2, model), 0.0, 0.0)
        theory_ci = lossy_ci_dsbs(d1, d2, model)
        targets = (d1, d2)

    else:
        raise TypeError(f"unknown operating point: {point!r}")

    r0, r1, r2 = (np.full(n_blocks, r, dtype=float) for r in rates)
    return RunRecord(
        point_label=point.label, block_len=block_len, seed=seed,
        region=None if region is None else region.value, theory=theory,
        theory_ci=theory_ci, target_dx=targets[0], target_dy=targets[1],
        r0=r0, r1=r1, r2=r2,
        dist_x=_hamming(x, x_hat), dist_y=_hamming(y, y_hat))
