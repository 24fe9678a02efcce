"""End-to-end extraction of shared Gaussian descriptions.

extract_common runs one multilevel lattice quantizer on the reduced scalar
source and charges its payload to the common branch.  The route depends on
the target:

* ``GaussianPairModel``: quantize (X+Y)/2; the lattice point stands in for
  the hidden variable and serves as both reconstructions.
* ``LGaussianModel``: same with the L-source average.
* ``(d1, d2, model)`` in the coupled region: quantize the tilted
  combination from reduce_eps2; the decoders output the lattice point and
  its fixed scaling.
* ``(d1, d2, model)`` lopsided: quantize the tighter coordinate alone and
  hand the other decoder rho times that reconstruction.

refine_private_eps10 adds the private branches for targets inside the
tiny-distortion region: one conditional quantizer per coordinate on the
residual against the common reconstruction.

Rates are measured payload fractions, never formulas.  Every quantizer is
replayed through the decoder path and must reproduce the encoder-side
reconstruction bit for bit.  Payloads come from the polarized index sets
alone, so they carry the partially polarized band above the information
limit, which shrinks as blocks grow.
"""

from __future__ import annotations

import math

import numpy as np

from .. import rng
from ..lattice import (
    LATTICE_STREAM_BASE,
    build_multilevel_code,
    lattice_quantize,
    lattice_reconstruct,
    mmse_params,
    plan_chain,
)
from ..rates import RateTriple, RunRecord, check_replay
from .model import (
    GaussianPairModel,
    GaussianRegion,
    LGaussianModel,
    build_eps2_channel,
    classify_gaussian,
    lossy_ci_gaussian,
    r_xy_gaussian,
    reduce_eps2,
    reduce_L,
    reduce_pair,
)

# distinct dither/rounding stream bases so the refinement quantizers never
# collide with the common one under a shared seed (each uses at most 16
# levels, which _build_code checks)
REFINE_X_STREAM_BASE = 32
REFINE_Y_STREAM_BASE = 48
_MAX_LEVELS = REFINE_X_STREAM_BASE - LATTICE_STREAM_BASE


def _mse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((a - b) ** 2).mean(axis=1)


def _build_code(mmse, block_len, levels, target_flatness, cache_dir,
                sample_count, construction_seed):
    chain = plan_chain(mmse, levels=levels, flatness_target=target_flatness)
    if chain.levels > _MAX_LEVELS:
        raise ValueError(f"a {chain.levels}-level chain would share dither streams "
                         f"with another quantizer; at most {_MAX_LEVELS} levels")
    return build_multilevel_code(
        chain, mmse, block_len, sample_count=sample_count,
        seed=construction_seed, flatness_target=target_flatness, cache_dir=cache_dir)


def _quantize_checked(samples, code, seed, stream_base=LATTICE_STREAM_BASE):
    """Quantize and replay through the decoder; the two must agree exactly."""
    payloads, recon = lattice_quantize(samples, code, shared_seed=seed,
                                       stream_base=stream_base)
    replay = lattice_reconstruct(payloads, code, shared_seed=seed,
                                 stream_base=stream_base)
    check_replay(replay, recon, "lattice replay")
    return np.full(samples.shape[0], code.total_rate), recon


def extract_common(target, block_len: int, seed: int, *, n_blocks: int = 10,
                   levels: int | None = None, target_flatness: float = 1e-3,
                   cache_dir=None,
                   sample_count: int = 256,
                   construction_seed: int = 3) -> RunRecord:
    """Extract the common description for one seed over a batch of blocks.

    target: a GaussianPairModel, an LGaussianModel, or a (d1, d2, model)
    distortion point (coupled and lopsided regions; tiny-both targets take
    the pair route plus refine_private_eps10 instead).  levels pins the
    chain depth; the default sizes it from the spacing that meets
    target_flatness.
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be at least 1, got {n_blocks}")
    build = dict(levels=levels, target_flatness=target_flatness,
                 cache_dir=cache_dir, sample_count=sample_count,
                 construction_seed=construction_seed)
    gen = rng.stream(seed, rng.STREAM_SOURCE)
    zeros = np.zeros(n_blocks)

    if isinstance(target, GaussianPairModel):
        red = reduce_pair(target)
        x, y = target.sample(n_blocks, block_len, gen)
        code = _build_code(red.mmse, block_len, **build)
        r0, w = _quantize_checked(red.combine(np.stack([x, y])), code, seed)
        ci = target.wyner_ci()
        base = 1.0 - target.rho
        return RunRecord(
            point_label="COMMON", block_len=block_len, seed=seed,
            region=GaussianRegion.TINY_BOTH.value,
            theory=RateTriple(ci, 0.0, 0.0), theory_ci=ci,
            target_dx=base, target_dy=base,
            r0=r0, r1=zeros.copy(), r2=zeros.copy(),
            dist_x=_mse(x, w), dist_y=_mse(y, w), common=w)

    if isinstance(target, LGaussianModel):
        red = reduce_L(target)
        sources = target.sample(n_blocks, block_len, gen)
        code = _build_code(red.mmse, block_len, **build)
        r0, w = _quantize_checked(red.combine(sources), code, seed)
        ci = target.wyner_ci()
        per_coord = ((sources - w[None]) ** 2).mean(axis=(0, 2))
        base = 1.0 - target.rho
        return RunRecord(
            point_label=f"COMMON_L{target.n_sources}", block_len=block_len,
            seed=seed, region=None,
            theory=RateTriple(ci, 0.0, 0.0), theory_ci=ci,
            target_dx=base, target_dy=base,
            r0=r0, r1=zeros.copy(), r2=zeros.copy(),
            dist_x=per_coord, dist_y=per_coord.copy(), common=w)

    try:
        d1, d2, model = target
    except (TypeError, ValueError):
        raise TypeError(
            "target must be a GaussianPairModel, an LGaussianModel or a "
            f"(d1, d2, model) tuple, got {target!r}") from None
    if not isinstance(model, GaussianPairModel):
        raise TypeError(f"expected a GaussianPairModel, got {type(model).__name__}")
    region = classify_gaussian(d1, d2, model)

    if region is GaussianRegion.COUPLED:
        red = reduce_eps2(d1, d2, model)
        channel = build_eps2_channel(d1, d2, model)
        x, y = model.sample(n_blocks, block_len, gen)
        code = _build_code(red.mmse, block_len, **build)
        r0, w = _quantize_checked(red.combine(np.stack([x, y])), code, seed)
        rate = r_xy_gaussian(d1, d2, model)
        return RunRecord(
            point_label="COUPLED", block_len=block_len, seed=seed,
            region=region.value,
            theory=RateTriple(rate, 0.0, 0.0),
            theory_ci=lossy_ci_gaussian(d1, d2, model),
            target_dx=d1, target_dy=d2,
            r0=r0, r1=zeros.copy(), r2=zeros.copy(),
            dist_x=_mse(x, w), dist_y=_mse(y, channel.slope * w), common=w)

    if region is GaussianRegion.LOPSIDED:
        d_min = min(d1, d2)
        if not 0.0 < d_min < 1.0:
            raise ValueError(
                f"lopsided target ({d1}, {d2}) admits no scalar quantizer: "
                "the tighter distortion must sit strictly inside (0, 1)")
        x, y = model.sample(n_blocks, block_len, gen)
        tight, loose = (x, y) if d1 <= d2 else (y, x)
        code = _build_code(mmse_params(1.0, 1.0 - d_min), block_len, **build)
        r0, w = _quantize_checked(tight, code, seed)
        dist_tight = _mse(tight, w)
        dist_loose = _mse(loose, model.rho * w)
        rate = r_xy_gaussian(d1, d2, model)
        return RunRecord(
            point_label="LOPSIDED", block_len=block_len, seed=seed,
            region=region.value,
            theory=RateTriple(rate, 0.0, 0.0),
            theory_ci=lossy_ci_gaussian(d1, d2, model),
            target_dx=d1, target_dy=d2,
            r0=r0, r1=zeros.copy(), r2=zeros.copy(),
            dist_x=dist_tight if d1 <= d2 else dist_loose,
            dist_y=dist_loose if d1 <= d2 else dist_tight, common=w)

    if region is GaussianRegion.TINY_BOTH:
        raise ValueError(
            "tiny-both targets take the hidden-pair route: call "
            "extract_common(model, ...) and refine_private_eps10")
    raise ValueError(f"no extraction pipeline for region {region.value}")


def refine_private_eps10(d1: float, d2: float, model: GaussianPairModel,
                         common_run: RunRecord, *,
                         target_flatness: float = 1e-3, cache_dir=None,
                         sample_count: int = 256,
                         construction_seed: int = 3) -> RunRecord:
    """Add private refinements to a pair-route run for tiny-both targets.

    Regenerates the run's source blocks from its seed, quantizes each
    coordinate's residual against the common reconstruction, and reports
    the full three-branch record.  A coordinate already at the boundary
    distortion 1 - rho rides the common reconstruction for free.
    """
    region = classify_gaussian(d1, d2, model)
    if region is not GaussianRegion.TINY_BOTH:
        raise ValueError(
            f"({d1}, {d2}) lies in {region.value}, not in the tiny-both region")
    if common_run.common is None or common_run.point_label != "COMMON":
        raise ValueError(
            "common_run must be an extract_common pair-route result carrying "
            "its reconstruction blocks")
    # wyner_ci is strictly increasing in rho, so equal values mean equal models
    if common_run.theory_ci != model.wyner_ci():
        raise ValueError(
            f"common_run was built for common information "
            f"{common_run.theory_ci:.6g} bits, not for rho={model.rho} "
            f"({model.wyner_ci():.6g} bits)")
    w = common_run.common
    n_blocks, block_len = w.shape
    if block_len != common_run.block_len:
        raise ValueError("common_run reconstruction shape is inconsistent")
    gen = rng.stream(common_run.seed, rng.STREAM_SOURCE)
    x, y = model.sample(n_blocks, block_len, gen)
    base = 1.0 - model.rho

    rates, dists, theory_rates = [], [], []
    codes = {}  # by target distortion: d1 == d2 builds one code
    for target_d, src, stream_base in ((d1, x, REFINE_X_STREAM_BASE),
                                       (d2, y, REFINE_Y_STREAM_BASE)):
        if target_d >= base * (1.0 - 1e-12):
            rates.append(np.zeros(n_blocks))
            dists.append(_mse(src, w))
            theory_rates.append(0.0)
            continue
        if target_d not in codes:
            codes[target_d] = _build_code(
                mmse_params(base, base - target_d), block_len, None,
                target_flatness, cache_dir, sample_count, construction_seed)
        code = codes[target_d]
        rate, q = _quantize_checked(src - w, code, common_run.seed,
                                    stream_base=stream_base)
        rates.append(rate)
        dists.append(_mse(src, w + q))
        theory_rates.append(0.5 * math.log2(base / target_d))

    return RunRecord(
        point_label="REFINED", block_len=block_len, seed=common_run.seed,
        region=region.value,
        theory=RateTriple(common_run.theory.r0, *theory_rates),
        theory_ci=lossy_ci_gaussian(d1, d2, model),
        target_dx=d1, target_dy=d2,
        r0=common_run.r0.copy(), r1=rates[0], r2=rates[1],
        dist_x=dists[0], dist_y=dists[1], common=w)
