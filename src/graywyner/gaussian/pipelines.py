"""End-to-end extraction of shared Gaussian descriptions.

extract_common reduces every target to lossy compression of one scalar
source U = weights . sources and charges the payload of one multilevel
lattice quantizer on U to the common branch.  A route sets only its
reduction, the gains by which the X and Y decoders scale the lattice point
w, and its label, region, theory figures and targets; one build, one
quantize-and-replay and one RunRecord serve every route:

* ``GaussianPairModel``: U = (X+Y)/2; w stands in for the hidden variable
  and serves as both reconstructions (gains 1 and 1).
* ``LGaussianModel``: U is the L-source average; both distortions are the
  mean error over all L coordinates.
* ``(d1, d2, model)`` in the coupled region: U is the tilted combination
  from reduce_eps2; the decoders output w and its fixed scaling (gains 1
  and the channel slope).
* ``(d1, d2, model)`` lopsided: U is the tighter coordinate alone (weights
  1 and 0); the other decoder outputs rho times w.

refine_private_eps10 adds the private branches for targets inside the
tiny-distortion region: one conditional quantizer per coordinate on the
residual against the common reconstruction.

Rates are measured per block, never formulas: the sum over the levels'
codes of PolarCode.rate_per_block, the payload fraction plus log2(N) + 1
bits per flagged prior-decided index.  Every quantizer
is replayed through the decoder path and must reproduce the encoder-side
reconstruction bit for bit.  Payloads come from the decision-error rule
(see polar.profile) alone, so they carry what is left of the partially
polarized band above the information limit, which shrinks as blocks grow.
"""

from __future__ import annotations

import math

import numpy as np

from .. import rng
from ..lattice import (
    LATTICE_STREAM_BASE,
    MAX_LEVELS,
    build_multilevel_code,
    lattice_quantize,
    lattice_reconstruct,
    mmse_params,
    plan_chain,
)
from ..rates import RateTriple, RunRecord, check_replay, check_run_size
from .model import (
    GaussianPairModel,
    GaussianRegion,
    LGaussianModel,
    ReductionResult,
    build_eps2_channel,
    classify_gaussian,
    lossy_ci_gaussian,
    r_xy_gaussian,
    reduce_eps2,
    reduce_L,
    reduce_pair,
)

# distinct dither/rounding stream bases so the refinement quantizers never
# collide with the common one under a shared seed (each chain has at most
# MAX_LEVELS levels)
REFINE_X_STREAM_BASE = LATTICE_STREAM_BASE + MAX_LEVELS
REFINE_Y_STREAM_BASE = REFINE_X_STREAM_BASE + MAX_LEVELS


def _mse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((a - b) ** 2).mean(axis=1)


def _build_code(mmse, block_len, cache_dir, sample_count, construction_seed):
    return build_multilevel_code(
        plan_chain(mmse), mmse, block_len, sample_count=sample_count,
        seed=construction_seed, cache_dir=cache_dir)


def _quantize_checked(samples, code, seed, stream_base=LATTICE_STREAM_BASE):
    """Quantize and replay through the decoder; the two must agree exactly.
    Returns (per-block rates, reconstruction), the rates summed over the
    levels' codes (PolarCode.rate_per_block)."""
    codes, recon = lattice_quantize(samples, code, shared_seed=seed,
                                    stream_base=stream_base)
    replay = lattice_reconstruct(codes, code, shared_seed=seed, stream_base=stream_base)
    check_replay(replay, recon, "lattice replay")
    return sum(level_code.rate_per_block() for level_code in codes), recon


def extract_common(target, block_len: int, seed: int, *, n_blocks: int = 10,
                   cache_dir=None, sample_count: int = 256,
                   construction_seed: int = 3) -> RunRecord:
    """Extract the common description for one seed over a batch of blocks.

    target: a GaussianPairModel, an LGaussianModel, or a (d1, d2, model)
    distortion point (coupled and lopsided regions; tiny-both targets take
    the pair route plus refine_private_eps10 instead).  The quantizer's
    chain comes from plan_chain on the reduced model; construction_seed and
    sample_count set its Monte Carlo construction, and cache_dir stores it.
    """
    check_run_size(block_len, n_blocks, sample_count)
    if isinstance(target, (GaussianPairModel, LGaussianModel)):
        model = target
        if isinstance(target, GaussianPairModel):
            red, label, gains = reduce_pair(target), "COMMON", (1.0, 1.0)
            region = GaussianRegion.TINY_BOTH.value
        else:
            red, label, gains = reduce_L(target), f"COMMON_L{target.n_sources}", None
            region = None
        rate = ci = target.wyner_ci()
        targets = (1.0 - target.rho,) * 2
    else:
        try:
            d1, d2, model = target
        except (TypeError, ValueError):
            raise TypeError(
                "target must be a GaussianPairModel, an LGaussianModel or a "
                f"(d1, d2, model) tuple, got {target!r}") from None
        if not isinstance(model, GaussianPairModel):
            raise TypeError(
                f"expected a GaussianPairModel, got {type(model).__name__}")
        region = classify_gaussian(d1, d2, model)
        if region is GaussianRegion.COUPLED:
            red = reduce_eps2(d1, d2, model)
            gains = (1.0, build_eps2_channel(d1, d2, model).slope)
        elif region is GaussianRegion.LOPSIDED:
            d_min = min(d1, d2)
            if not 0.0 < d_min < 1.0:
                raise ValueError(
                    f"lopsided target ({d1}, {d2}) admits no scalar quantizer: "
                    "the tighter distortion must sit strictly inside (0, 1)")
            # the tighter coordinate alone; the other decoder scales by rho
            tight_x = d1 <= d2
            red = ReductionResult(weights=(1.0, 0.0) if tight_x else (0.0, 1.0),
                                  mmse=mmse_params(1.0, 1.0 - d_min))
            gains = (1.0, model.rho) if tight_x else (model.rho, 1.0)
        elif region is GaussianRegion.TINY_BOTH:
            raise ValueError(
                "tiny-both targets take the hidden-pair route: call "
                "extract_common(model, ...) and refine_private_eps10")
        else:
            raise ValueError(f"no extraction pipeline for region {region.value}")
        label, region = region.name, region.value
        rate, ci = r_xy_gaussian(d1, d2, model), lossy_ci_gaussian(d1, d2, model)
        targets = (d1, d2)

    sources = np.asarray(model.sample(n_blocks, block_len,
                                      rng.stream(seed, rng.STREAM_SOURCE)))
    code = _build_code(red.mmse, block_len, cache_dir, sample_count,
                       construction_seed)
    r0, w = _quantize_checked(red.combine(sources), code, seed)
    if gains is None:  # both distortions: the mean error over all L coordinates
        dist_x = ((sources - w[None]) ** 2).mean(axis=(0, 2))
        dist_y = dist_x.copy()
    else:
        dist_x, dist_y = (_mse(src, gain * w) for src, gain in zip(sources, gains))
    return RunRecord(
        point_label=label, block_len=block_len, seed=seed, region=region,
        theory=RateTriple(rate, 0.0, 0.0), theory_ci=ci,
        target_dx=targets[0], target_dy=targets[1],
        r0=r0, r1=np.zeros(n_blocks), r2=np.zeros(n_blocks),
        dist_x=dist_x, dist_y=dist_y, common=w)


def refine_private_eps10(d1: float, d2: float, model: GaussianPairModel,
                         common_run: RunRecord, *, cache_dir=None,
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
    if not (d1 > 0.0 and d2 > 0.0):
        raise ValueError(
            f"tiny-both target ({d1}, {d2}) admits no refinement quantizer: "
            "both distortions must be positive")
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
    check_run_size(block_len, n_blocks, sample_count)
    if block_len != common_run.block_len:
        raise ValueError("common_run reconstruction shape is inconsistent")
    gen = rng.stream(common_run.seed, rng.STREAM_SOURCE)
    x, y = model.sample(n_blocks, block_len, gen)
    base = 1.0 - model.rho

    coords = ((d1, x, REFINE_X_STREAM_BASE), (d2, y, REFINE_Y_STREAM_BASE))
    # (rates, distortions, theory rate) of each coordinate's branch; one at
    # the boundary distortion rides the common reconstruction
    branches = [(np.zeros(n_blocks), _mse(src, w), 0.0) for _, src, _ in coords]
    # the others by target distortion: d1 == d2 is one code, one quantize
    # and one replay, the two residuals stacked with their own stream bases
    groups = {}
    for i, (target_d, _, _) in enumerate(coords):
        if target_d < base * (1.0 - 1e-12):
            groups.setdefault(target_d, []).append(i)
    for target_d, members in groups.items():
        code = _build_code(mmse_params(base, base - target_d), block_len,
                           cache_dir, sample_count, construction_seed)
        rate, q = _quantize_checked(
            np.concatenate([coords[i][1] - w for i in members]), code,
            common_run.seed, stream_base=tuple(coords[i][2] for i in members))
        for i, part_rate, part in zip(members, np.split(rate, len(members)),
                                      np.split(q, len(members))):
            branches[i] = (part_rate, _mse(coords[i][1], w + part),
                           0.5 * math.log2(base / target_d))
    (r1, dist_x, theory_r1), (r2, dist_y, theory_r2) = branches
    return RunRecord(
        point_label="REFINED", block_len=block_len, seed=common_run.seed,
        region=region.value,
        theory=RateTriple(common_run.theory.r0, theory_r1, theory_r2),
        theory_ci=lossy_ci_gaussian(d1, d2, model),
        target_dx=d1, target_dy=d2,
        r0=common_run.r0.copy(), r1=r1, r2=r2,
        dist_x=dist_x, dist_y=dist_y, common=w)
