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

Rates are measured, not assumed: lossless branches charge their stored set
plus log2(N) + 1 bits per recorded correction, lossy branches charge their
payload fraction.  Every lossy stage also replays the decoder path and
verifies it reproduces the encoder-side reconstruction bit for bit, and
every lossless branch is decoded and compared against the source exactly.

Payload budgets come from a MarginPolicy: each stage caps its rate at the
exact channel figure plus a margin that shrinks as (reference/N)^(1/4), so
measured rates improve with block length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from ..rates import RateTriple, RunRecord, check_replay
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


@dataclass(frozen=True)
class MarginPolicy:
    """Per-stage rate headroom at the reference block length.

    Margins scale as (reference_len / N) ** scale_exponent so that larger
    blocks run closer to the information limits.
    """

    common_cap: float = 0.06
    coupled_cap: float = 0.085
    plain_lossless: float = 0.05
    side_lossless: float = 0.035
    refine_cap: float = 0.05
    reference_len: int = 2 ** 16
    scale_exponent: float = 0.25

    def scaled(self, margin: float, block_len: int) -> float:
        return margin * (self.reference_len / block_len) ** self.scale_exponent


@dataclass
class _Stages:
    """Construction context shared by the stage helpers."""

    model: DsbsModel
    block_len: int
    seed: int
    margins: MarginPolicy
    cache_dir: Optional[str]
    sample_count: int
    construction_seed: int
    # uncapped profiles by channel_id: stages of one call that code the same
    # channel (the X and Y branches) share one construction
    profiles: dict = field(default_factory=dict)

    def profile_for(self, channel, cap_fraction=None):
        profile = self.profiles.get(channel.channel_id())
        if profile is None:
            if self.cache_dir is not None:
                profile = construct_profile_cached(
                    channel, self.block_len, self.cache_dir,
                    sample_count=self.sample_count, seed=self.construction_seed)
            else:
                profile = construct_profile(
                    channel, self.block_len,
                    sample_count=self.sample_count, seed=self.construction_seed)
            self.profiles[channel.channel_id()] = profile
        if cap_fraction is not None:
            profile = profile.with_payload_cap(cap_fraction)
        return profile

    def quantize(self, channel, obs, cap_margin, level):
        """Lossy stage: returns (rate fraction, reconstruction blocks)."""
        cap = channel.mutual_information() + self.margins.scaled(
            cap_margin, self.block_len)
        profile = self.profile_for(channel, cap_fraction=cap)
        payload, recon = sc_lossy_encode(obs, channel, profile,
                                         shared_seed=self.seed, level=level)
        replay = sc_lossy_reconstruct(payload, channel, profile,
                                      shared_seed=self.seed, level=level)
        check_replay(replay, recon, "lossy replay")
        return profile.payload_fraction, recon

    def lossless(self, bits, channel, margin, side=None):
        """Lossless stage: returns per-block rates; verifies exactness."""
        stored = channel.entropy_x_given_y() + self.margins.scaled(
            margin, self.block_len)
        profile = self.profile_for(channel)
        code = sc_lossless_encode(bits, channel, profile,
                                  stored_fraction=min(stored, 1.0), side=side)
        decoded = sc_lossless_decode(code, channel, profile, side=side)
        check_replay(decoded, bits, "lossless branch")
        return code.rate_per_block(self.block_len)


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a != b).mean(axis=1)


def run_dsbs_pipeline(point, model: DsbsModel, block_len: int, seed: int, *,
                      n_blocks: int = 10, margins: MarginPolicy = MarginPolicy(),
                      cache_dir=None, sample_count: int = 256,
                      construction_seed: int = 11) -> RunRecord:
    """Run one operating point for one seed over a batch of source blocks."""
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be at least 1, got {n_blocks}")
    stages = _Stages(model, block_len, seed, margins, cache_dir,
                     sample_count, construction_seed)
    x, y = model.sample(n_blocks, block_len, rng.stream(seed, rng.STREAM_SOURCE))
    zeros = np.zeros(n_blocks)
    ones = np.ones(n_blocks)
    h_a1 = binary_entropy(model.a1)

    if isinstance(point, PointA):
        residual_rate = stages.lossless(x ^ y, lossless_source(model.a0),
                                        margins.plain_lossless)
        theory = RateTriple(1.0, 0.0, binary_entropy(model.a0))
        return RunRecord(
            point_label=point.label, block_len=block_len, seed=seed,
            region=None, theory=theory, theory_ci=model.wyner_ci(),
            target_dx=0.0, target_dy=0.0,
            r0=ones.copy(), r1=zeros.copy(), r2=residual_rate,
            dist_x=zeros.copy(), dist_y=zeros.copy())

    if isinstance(point, (PointG, LineAG, CurveGB)):
        if isinstance(point, PointG):
            channel = build_point_g_channel(model)
            cross_x, cross_y = model.a1, model.a1
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
        r0_frac, w_hat = stages.quantize(channel, pair_observation(x, y),
                                         margins.common_cap, COMMON_LEVEL)
        r1 = stages.lossless(x, crossover_side_info(cross_x),
                             margins.side_lossless, side=w_hat)
        r2 = stages.lossless(y, crossover_side_info(cross_y),
                             margins.side_lossless, side=w_hat)
        return RunRecord(
            point_label=point.label, block_len=block_len, seed=seed,
            region=None, theory=theory, theory_ci=model.wyner_ci(),
            target_dx=0.0, target_dy=0.0,
            r0=r0_frac * ones, r1=r1, r2=r2,
            dist_x=zeros.copy(), dist_y=zeros.copy())

    if isinstance(point, LossyTinyBoth):
        delta = point.delta
        region = classify_dsbs(delta, delta, model)
        if region is not DsbsRegion.TINY_BOTH:
            raise ValueError(f"delta={delta} falls in {region.name}; this "
                             "pipeline needs both distortions at most a1")
        r0_frac, w_hat = stages.quantize(build_point_g_channel(model),
                                         pair_observation(x, y),
                                         margins.common_cap, COMMON_LEVEL)
        refine_prior = (model.a1 - delta) / (1.0 - 2.0 * delta)
        forward = np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])
        refine = test_channel_source(refine_prior, forward,
                                     name="residual-refinement")
        r1_frac, vx = stages.quantize(refine, x ^ w_hat, margins.refine_cap,
                                      PRIVATE_X_LEVEL)
        r2_frac, vy = stages.quantize(refine, y ^ w_hat, margins.refine_cap,
                                      PRIVATE_Y_LEVEL)
        x_hat, y_hat = w_hat ^ vx, w_hat ^ vy
        rate = binary_entropy(model.a1) - binary_entropy(delta)
        theory = RateTriple(model.wyner_ci(), rate, rate)
        return RunRecord(
            point_label=point.label, block_len=block_len, seed=seed,
            region=region.value, theory=theory,
            theory_ci=lossy_ci_dsbs(delta, delta, model),
            target_dx=delta, target_dy=delta,
            r0=r0_frac * ones, r1=r1_frac * ones, r2=r2_frac * ones,
            dist_x=_hamming(x, x_hat), dist_y=_hamming(y, y_hat))

    if isinstance(point, LossyCoupled):
        region = classify_dsbs(point.d1, point.d2, model)
        if region is not DsbsRegion.COUPLED:
            raise ValueError(f"({point.d1}, {point.d2}) falls in {region.name}; "
                             "this pipeline needs the coupled region")
        channel = build_eps2_channel(point.d1, point.d2, model)
        r0_frac, w_hat = stages.quantize(channel, pair_observation(x, y),
                                         margins.coupled_cap, COMMON_LEVEL)
        theory = RateTriple(r_xy_dsbs(point.d1, point.d2, model), 0.0, 0.0)
        return RunRecord(
            point_label=point.label, block_len=block_len, seed=seed,
            region=region.value, theory=theory,
            theory_ci=lossy_ci_dsbs(point.d1, point.d2, model),
            target_dx=point.d1, target_dy=point.d2,
            r0=r0_frac * ones, r1=zeros.copy(), r2=zeros.copy(),
            dist_x=_hamming(x, w_hat), dist_y=_hamming(y, w_hat))

    if isinstance(point, LossyLopsided):
        d_tight, d_loose = point.d1, point.d2
        swap = d_tight > d_loose
        if swap:
            d_tight, d_loose = d_loose, d_tight
        region = classify_dsbs(point.d1, point.d2, model)
        if region is not DsbsRegion.LOPSIDED:
            raise ValueError(f"({point.d1}, {point.d2}) falls in {region.name}; "
                             "this pipeline needs the lopsided region")
        # lopsided membership guarantees d_loose > conv(a0, d_tight), so
        # serving the tight reconstruction to both decoders meets both targets
        tight_src = y if swap else x
        forward = np.array([[1.0 - d_tight, d_tight], [d_tight, 1.0 - d_tight]])
        channel = test_channel_source(0.5, forward, name="single-coordinate")
        r0_frac, w_hat = stages.quantize(channel, tight_src,
                                         margins.common_cap, COMMON_LEVEL)
        theory = RateTriple(r_xy_dsbs(point.d1, point.d2, model), 0.0, 0.0)
        return RunRecord(
            point_label=point.label, block_len=block_len, seed=seed,
            region=region.value, theory=theory,
            theory_ci=lossy_ci_dsbs(point.d1, point.d2, model),
            target_dx=point.d1, target_dy=point.d2,
            r0=r0_frac * ones, r1=zeros.copy(), r2=zeros.copy(),
            dist_x=_hamming(x, w_hat), dist_y=_hamming(y, w_hat))

    raise TypeError(f"unknown operating point: {point!r}")
