"""Multilevel lattice quantization of Gaussian samples.

A scaled integer lattice is refined into a binary partition chain
s*Z > 2s*Z > ... > 2^r s*Z: bit l of a label picks one coset of the
(l+1)-th lattice inside the l-th, so a point of the 2^r-point fundamental
window is described by r bits, finest level first.  Each level is a polar
code for a binary-input channel, so this module only supplies per-level
evidence callables: the bit posterior given a sample (from the Gaussian
posterior over lattice points) and given nothing (from the shaping prior),
within the coset the finer bits fixed.  The polar layer's one construction,
lossy encoder and lossy reconstruction run on them level by level, exactly
as in the binary pipelines; randomized rounding on the posteriors simulates
the backward channel of the quantization test, so the reconstruction error
approaches sigma_s^2 - sigma_r^2 per symbol.

The continuous model is a jointly Gaussian pair: the lattice point carries
variance sigma_r^2 and the sample adds independent noise up to variance
sigma_s^2.  Completing the square folds the shaping prior N(0, sigma_r^2)
and the observation likelihood into a single quadratic, so the posterior
over lattice points m given a sample t is proportional to
exp(-(m - alpha t)^2 / (2 sigma~^2)) with alpha = sigma_r^2 / sigma_s^2
and sigma~^2 = alpha (sigma_s^2 - sigma_r^2).

Ordering the levels finest to coarsest makes both ends of the chain
saturate when the spacing tracks the posterior width: the finest level
resolves below what the posterior can distinguish (near-zero payload) and
the coarsest level is pinned by the shaping prior at almost every index
(replayable without payload).  Both effects are exposed as metrics on the
built code so a configuration can be checked before use.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from ._fileio import atomic_write_text
from .numerics import flatness_factor
from .polar.coding import lossy_encode_from_evidence, lossy_reconstruct_from_evidence
from .polar.profile import (
    CLASS_FROZEN_DETERMINISTIC,
    CLASS_FROZEN_RANDOM,
    construct_from_evidence,
    load_cached_profile,
    profile_path,
    save_profile,
)
# unused here since the levels run through the polar layer's shared core;
# kept because perfbench/spans.py patches these names on this module
from .polar.profile import load_profile  # noqa: F401
from .polar.sc import sc_traverse  # noqa: F401
from .polar.transform import polar_transform  # noqa: F401

MULTILEVEL_CACHE_VERSION = 3

# dither/rounding substream indices start here; a pipeline running several
# quantizers off one shared seed gives each its own base to keep them apart
# (binary pipelines use small level indices, so 16+ never collides)
LATTICE_STREAM_BASE = 16


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MmseParams:
    """Variance split of the quantization model.

    sigma_s2 is the sample variance, sigma_r2 the variance carried by the
    reconstruction; their gap is the target mean squared error.
    """

    sigma_s2: float
    sigma_r2: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_s2) and math.isfinite(self.sigma_r2)):
            raise ValueError("variances must be finite")
        if not 0.0 < self.sigma_r2 < self.sigma_s2:
            raise ValueError(
                f"need 0 < sigma_r2 < sigma_s2, got sigma_s2={self.sigma_s2}, "
                f"sigma_r2={self.sigma_r2}")

    @property
    def alpha(self) -> float:
        """Posterior shrinkage of the sample toward the lattice."""
        return self.sigma_r2 / self.sigma_s2

    @property
    def distortion(self) -> float:
        """Target mean squared error sigma_s^2 - sigma_r^2."""
        return self.sigma_s2 - self.sigma_r2

    @property
    def sigma_tilde2(self) -> float:
        """Posterior variance over lattice points given one sample."""
        return self.alpha * self.distortion


def mmse_params(sigma_s2: float, sigma_r2: float) -> MmseParams:
    return MmseParams(float(sigma_s2), float(sigma_r2))


@dataclass(frozen=True)
class PartitionChainSpec:
    """Binary chain of scaled integer lattices, finest step first.

    Level l (1-based) distinguishes the cosets of 2^l s*Z inside
    2^(l-1) s*Z; after `levels` bits the residual lattice has step
    `period` = 2^levels * base_scale.  sigma_r is the standard deviation of
    the shaping prior over the finest lattice.
    """

    base_scale: float
    levels: int
    sigma_r: float

    def __post_init__(self):
        if not (math.isfinite(self.base_scale) and self.base_scale > 0.0):
            raise ValueError(f"base_scale must be positive, got {self.base_scale}")
        if self.levels < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        if not (math.isfinite(self.sigma_r) and self.sigma_r > 0.0):
            raise ValueError(f"sigma_r must be positive, got {self.sigma_r}")

    @property
    def period(self) -> float:
        return self.base_scale * float(1 << self.levels)

    def level_step(self, level: int) -> float:
        self.check_level(level)
        return self.base_scale * float(1 << (level - 1))

    def check_level(self, level: int) -> None:
        if not 1 <= level <= self.levels:
            raise ValueError(f"level must be in 1..{self.levels}, got {level}")

    def reconstruction_values(self) -> np.ndarray:
        """Window points indexed by label integer, wrapping past half period."""
        n = 1 << self.levels
        v = np.arange(n)
        return self.base_scale * np.where(v >= n >> 1, v - n, v).astype(float)

    def window_pmf(self) -> np.ndarray:
        """Shaping prior restricted to the fundamental window."""
        vals = self.reconstruction_values()
        logw = -(vals ** 2) / (2.0 * self.sigma_r ** 2)
        p = np.exp(logw - logw.max())
        return p / p.sum()


def default_chain(mmse: MmseParams, levels: int = 4,
                  spacing_factor: float = 1.3) -> PartitionChainSpec:
    """Chain whose finest step tracks the posterior width.

    spacing_factor 1.3 keeps the finest-level flatness factor near 2e-5
    (comfortably inside the default gate of build_multilevel_code) while
    wasting as little rate as possible on a finer-than-resolvable level.
    """
    return PartitionChainSpec(
        base_scale=spacing_factor * math.sqrt(mmse.sigma_tilde2),
        levels=levels, sigma_r=math.sqrt(mmse.sigma_r2))


def _spacing_for_flatness(target: float, upper: float) -> float:
    """Largest spacing factor <= upper whose flatness factor meets target.

    flatness_factor is invariant under joint scaling of (scale, sigma) and
    monotone increasing in the spacing-to-sigma ratio, so the search is a
    one-dimensional bisection on that ratio alone.
    """
    if not target > 0.0:
        raise ValueError(f"flatness target must be positive, got {target}")
    if flatness_factor(upper, 1.0) <= target:
        return upper
    lo, hi = 0.05, upper
    if flatness_factor(lo, 1.0) > target:
        raise ValueError(
            f"flatness target {target:.3e} not reachable even at spacing "
            f"factor {lo}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if flatness_factor(mid, 1.0) <= target:
            lo = mid
        else:
            hi = mid
    # evaluating at the actual scale rounds differently than the ratio form;
    # a hair of slack keeps the boundary on the feasible side either way
    return lo * (1.0 - 1e-6)


def plan_chain(mmse: MmseParams, *, levels: int | None = None,
               flatness_target: float = 1e-3, spacing_factor: float = 1.3,
               min_period_sigmas: float = 12.0) -> PartitionChainSpec:
    """Pick a partition chain for a quantization model.

    The finest spacing starts at spacing_factor * sigma~ and shrinks until
    the finest-level flatness factor meets flatness_target (it is never
    widened beyond spacing_factor).  The level count is then the smallest r
    whose period 2^r * scale covers min_period_sigmas standard deviations
    of the shaping prior; narrower windows truncate the prior's tails and
    leave real information in the coarsest level (measured: a pair chain at
    7 sigma_r keeps 0.30 bits there, while 12+ sigma_r pushes the coarsest
    level's replayable fraction past 0.98 at no extra payload).

    Passing `levels` pins the count; if the flatness-driven spacing cannot
    cover the window at that depth the configuration is refused rather
    than silently truncated.
    """
    sigma_tilde = math.sqrt(mmse.sigma_tilde2)
    sigma_r = math.sqrt(mmse.sigma_r2)
    factor = _spacing_for_flatness(flatness_target, spacing_factor)
    scale = factor * sigma_tilde
    period_target = min_period_sigmas * sigma_r
    if levels is None:
        levels = 1
        while scale * (1 << levels) < period_target:
            levels += 1
    elif scale * (1 << levels) < period_target:
        raise ValueError(
            f"{levels} levels at spacing {scale:.4g} span "
            f"{scale * (1 << levels) / sigma_r:.2f} sigma_r, below the "
            f"{min_period_sigmas:.2f} sigma_r window; flatness target "
            f"{flatness_target:.3e} is unreachable at this depth")
    return PartitionChainSpec(base_scale=scale, levels=levels,
                              sigma_r=sigma_r)


# ---------------------------------------------------------------------------
# per-level evidence
# ---------------------------------------------------------------------------

def _coset_log_weight(centers, sigma, base, stride):
    """log of sum over m in base + stride*Z of exp(-(m - centers)^2 / (2 sigma^2)).

    The window is anchored at the coset point nearest each center and spans
    9.5 sigma plus one step each way, leaving relative tails below 1e-14.
    Accumulation is a running log-sum-exp, so only center-sized temporaries
    are ever alive.
    """
    j0 = np.rint((centers - base) / stride)
    span = int(math.ceil(9.5 * sigma / stride)) + 1
    inv = -1.0 / (2.0 * sigma * sigma)
    d = base + stride * (j0 - span) - centers
    best = inv * d * d
    acc = np.ones_like(best)
    for k in range(1 - span, span + 1):
        d = base + stride * (j0 + k) - centers
        cur = inv * d * d
        hi = np.maximum(best, cur)
        acc = acc * np.exp(best - hi) + np.exp(cur - hi)
        best = hi
    return best + np.log(acc)


def _coset_posteriors(centers, sigma, offsets, step):
    """Normalized (..., 2) posteriors over the cosets offsets + step*w + 2*step*Z."""
    stride = 2.0 * step
    lw0 = _coset_log_weight(centers, sigma, offsets, stride)
    lw1 = _coset_log_weight(centers, sigma, offsets + step, stride)
    hi = np.maximum(lw0, lw1)
    e0 = np.exp(lw0 - hi)
    e1 = np.exp(lw1 - hi)
    total = e0 + e1
    return np.stack([e0 / total, e1 / total], axis=-1)


def _finer_offsets(chain, level, finer_labels, shape):
    if level == 1:
        return np.zeros(shape)
    if finer_labels is None:
        raise ValueError("levels beyond the first need the finer-level bits")
    bits = np.asarray(finer_labels)
    if bits.shape != (level - 1,) + shape:
        raise ValueError(
            f"finer_labels must have shape {(level - 1,) + shape}, got {bits.shape}")
    weights = (1 << np.arange(level - 1, dtype=np.int64))
    ints = np.tensordot(weights, bits.astype(np.int64), axes=1)
    return chain.base_scale * ints.astype(float)


def level_llr(chain: PartitionChainSpec, mmse: MmseParams, level: int,
              observation, finer_labels=None) -> np.ndarray:
    """Natural-log odds that bit `level` is 0, given a sample and finer bits.

    observation: samples of the source variable, any shape.
    finer_labels: bits of levels 1 .. level-1, shape (level-1,) + observation
        shape; omitted for the first level.
    """
    chain.check_level(level)
    obs = np.asarray(observation, dtype=float)
    offsets = _finer_offsets(chain, level, finer_labels, obs.shape)
    step = chain.level_step(level)
    stride = 2.0 * step
    centers = mmse.alpha * obs
    sigma = math.sqrt(mmse.sigma_tilde2)
    return (_coset_log_weight(centers, sigma, offsets, stride)
            - _coset_log_weight(centers, sigma, offsets + step, stride))


def _level_evidence(chain, mmse, level, finer, samples=None):
    """(cond, prior) evidence callables of one level: coset posteriors of
    block slices, offset by the (B, N) finer labels; samples feed cond only."""
    step = chain.level_step(level)
    offsets = chain.base_scale * finer.astype(float)
    sigma = math.sqrt(mmse.sigma_tilde2)

    def cond(start, stop):
        return _coset_posteriors(mmse.alpha * samples[start:stop], sigma,
                                 offsets[start:stop], step)

    def prior(start, stop):
        return _coset_posteriors(np.zeros_like(offsets[start:stop]),
                                 chain.sigma_r, offsets[start:stop], step)

    return cond, prior


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultilevelLatticeCode:
    """Per-level polar profiles over one partition chain, ready to quantize."""

    chain: PartitionChainSpec
    mmse: MmseParams
    block_len: int
    beta: float
    sample_count: int
    seed: int
    rate_margin: float | None
    flatness: float
    profiles: tuple

    @property
    def levels(self) -> int:
        return self.chain.levels

    @property
    def level_mi_estimates(self) -> tuple:
        """Estimated bits the sample reveals about each level, finest first."""
        return tuple(p.prior_entropy_estimate() - p.conditional_entropy_estimate()
                     for p in self.profiles)

    @property
    def level_rates(self) -> tuple:
        return tuple(p.payload_fraction for p in self.profiles)

    @property
    def total_rate(self) -> float:
        return float(sum(self.level_rates))

    @property
    def top_level_mi(self) -> float:
        """Finest-level rate estimate; near zero when spacing saturates."""
        return self.level_mi_estimates[0]

    @property
    def bottom_deterministic_fraction(self) -> float:
        """Share of coarsest-level indices replayable from the prior alone."""
        bottom = self.profiles[-1]
        return int(np.sum(bottom.classes == CLASS_FROZEN_DETERMINISTIC)) / bottom.block_len


def _construction_stream(chain, mmse, block_len, sample_count, seed):
    """Label/sample pairs for construction; the exact recipe is part of the
    build_multilevel_code contract."""
    gen = rng.stream(seed, rng.STREAM_CONSTRUCTION)
    cdf = np.cumsum(chain.window_pmf())
    v = np.searchsorted(cdf, gen.random((sample_count, block_len)))
    noise = gen.standard_normal((sample_count, block_len))
    obs = chain.reconstruction_values()[v] + noise * math.sqrt(mmse.distortion)
    return v, obs


def _chain_tag(chain, mmse) -> str:
    parts = ["lattice", float(chain.base_scale).hex(), str(chain.levels),
             float(chain.sigma_r).hex(), float(mmse.sigma_s2).hex(),
             float(mmse.sigma_r2).hex()]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _level_channel_id(chain, mmse, level) -> str:
    return f"mlq{_chain_tag(chain, mmse)}L{level}"


def _construct_levels(chain, mmse, block_len, beta, sample_count, seed):
    v, obs = _construction_stream(chain, mmse, block_len, sample_count, seed)
    out = []
    for level in range(1, chain.levels + 1):
        finer = v & ((1 << (level - 1)) - 1)
        cond, prior = _level_evidence(chain, mmse, level, finer, obs)
        out.append(construct_from_evidence(
            ((v >> (level - 1)) & 1).astype(np.uint8), cond, prior,
            beta=beta, seed=seed, channel_id=_level_channel_id(chain, mmse, level),
            channel_name=f"lattice-level-{level}of{chain.levels}"))
    return tuple(out)


def _apply_rate_budget(profiles, chain, budget_bits):
    """Demote surplus payload positions to frozen kinds, cheapest harm first.

    Freezing a payload position risks flipping its bit at quantize time:
    dither disagrees with the conditional posterior with probability at
    most sqrt(1 - z_cond^2)/2 (the recorded z is a mean, and the bound is
    concave in it), while replaying the prior argmax disagrees with
    probability at most z_prior/2 (the minority mass never exceeds half
    the per-sample Bhattacharyya).  A flipped bit at level l displaces the
    reconstruction on the scale of that level's step, so candidates across
    all levels are ranked by flip bound times step squared and the surplus
    is taken from the cheap end.

    Freezing is not gentle: a forced bit that contradicts the encoder's
    posterior detaches the successive-cancellation trajectory from the
    one the deterministic replays were measured on, and the remaining
    argmax positions of that level then err in streaks.  Light trims that
    stay within the cheap shoulder of the candidate list cost a few
    percent of distortion; budgets that bite into the partially polarized
    band cost multiples of the target distortion.  That band shrinks only
    with block length, so rate budgets near the mutual-information floor
    are a long-block affordance, not something a cap can conjure at small
    N.
    """
    block_len = profiles[0].block_len
    info_sets = [p.info_positions() for p in profiles]
    surplus = sum(len(s) for s in info_sets) - int(np.floor(budget_bits * block_len))
    if surplus <= 0:
        return tuple(profiles)
    cost, level_idx, position, prefer_fd = [], [], [], []
    for idx, (prof, info) in enumerate(zip(profiles, info_sets)):
        if len(info) == 0:
            continue
        z_cond = np.clip(prof.z_cond[info], 0.0, 1.0)
        z_prior = np.clip(prof.z_prior[info], 0.0, 1.0)
        harm_fr = 0.5 * np.sqrt(1.0 - z_cond ** 2)
        harm_fd = 0.5 * z_prior
        weight = chain.level_step(idx + 1) ** 2
        cost.append(np.minimum(harm_fr, harm_fd) * weight)
        level_idx.append(np.full(len(info), idx))
        position.append(info)
        prefer_fd.append(harm_fd < harm_fr)
    cost = np.concatenate(cost)
    level_idx = np.concatenate(level_idx)
    position = np.concatenate(position)
    prefer_fd = np.concatenate(prefer_fd)
    order = np.lexsort((position, level_idx, cost))[:surplus]
    classes = [p.classes.copy() for p in profiles]
    for row in order:
        kind = CLASS_FROZEN_DETERMINISTIC if prefer_fd[row] else CLASS_FROZEN_RANDOM
        classes[level_idx[row]][position[row]] = kind
    return tuple(replace(p, classes=c) for p, c in zip(profiles, classes))


def multilevel_cache_key(chain: PartitionChainSpec, mmse: MmseParams,
                         block_len: int, beta: float, sample_count: int,
                         seed: int) -> str:
    return (f"multilevel_{_chain_tag(chain, mmse)}_n{block_len}"
            f"_b{float(beta).hex()}_s{sample_count}_r{seed}")


def _bundle_header(chain, mmse, block_len, beta, sample_count, seed) -> dict:
    return {
        "version": MULTILEVEL_CACHE_VERSION,
        "kind": "multilevel",
        "base_scale": float(chain.base_scale),
        "levels": chain.levels,
        "sigma_r": float(chain.sigma_r),
        "sigma_s2": float(mmse.sigma_s2),
        "sigma_r2": float(mmse.sigma_r2),
        "N": block_len,
        "beta": float(beta),
        "sample_count": sample_count,
        "seed": seed,
    }


def _save_bundle(chain, mmse, block_len, beta, sample_count, seed, flatness,
                 profiles, cache_dir):
    keys = [save_profile(p, cache_dir).stem for p in profiles]
    payload = dict(_bundle_header(chain, mmse, block_len, beta, sample_count, seed),
                   flatness=flatness, profile_keys=keys)
    key = multilevel_cache_key(chain, mmse, block_len, beta, sample_count, seed)
    atomic_write_text(profile_path(cache_dir, key), json.dumps(payload))


def _load_bundle(chain, mmse, block_len, beta, sample_count, seed, cache_dir):
    """The cached level profiles, or None (a miss) when the bundle or one of
    its profiles is missing, unreadable or built for other parameters."""
    header = _bundle_header(chain, mmse, block_len, beta, sample_count, seed)
    path = profile_path(cache_dir, multilevel_cache_key(
        chain, mmse, block_len, beta, sample_count, seed))
    try:
        data = json.loads(path.read_text())
        keys = list(data["profile_keys"])
        if any(data.get(k) != v for k, v in header.items()) or len(keys) != chain.levels:
            return None
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    profiles = tuple(
        load_cached_profile(profile_path(cache_dir, key),
                            _level_channel_id(chain, mmse, level),
                            block_len, beta, sample_count, seed)
        for level, key in enumerate(keys, start=1))
    return None if any(p is None for p in profiles) else profiles


def build_multilevel_code(chain: PartitionChainSpec, mmse: MmseParams,
                          block_len: int, *, beta: float = 0.25,
                          sample_count: int = 256, seed: int = 0,
                          rate_margin: float | None = None,
                          flatness_target: float | None = 1e-3,
                          cache_dir=None) -> MultilevelLatticeCode:
    """Construct (or load) the per-level codes for one chain and model.

    Construction samples `sample_count` blocks of labels from the window
    prior together with noisy observations, exactly as::

        gen = rng.stream(seed, rng.STREAM_CONSTRUCTION)
        v = np.searchsorted(np.cumsum(chain.window_pmf()),
                            gen.random((sample_count, block_len)))
        obs = (chain.reconstruction_values()[v]
               + gen.standard_normal((sample_count, block_len))
               * math.sqrt(mmse.distortion))

    then runs one true-path construction per level, finest first, with the
    conditional chain centered at alpha * obs and the prior chain at 0.

    rate_margin, when given, bounds the total payload at the summed
    level-rate estimates plus the margin by demoting the payload
    positions that are cheapest to freeze.  The default leaves the
    classification alone: the payload then exceeds the rate estimates by
    the partially polarized band, which shrinks as the block grows.
    Margins that cut into that band trade distortion for rate at a steep
    slope (see _apply_rate_budget), so pass a finite margin only when a
    hard payload budget matters more than reconstruction error.
    flatness_target refuses chains whose finest-level aliased posterior
    deviates from uniform by more than the target (None skips the check;
    the measured value is always recorded on the returned code).
    Profiles are cached uncapped, so one cache entry serves every margin.
    """
    r2 = chain.sigma_r ** 2
    if abs(r2 - mmse.sigma_r2) > 1e-9 * max(r2, mmse.sigma_r2):
        raise ValueError(
            f"chain sigma_r^2 {r2:g} does not match the model sigma_r2 "
            f"{mmse.sigma_r2:g}")
    eps = flatness_factor(chain.base_scale, math.sqrt(mmse.sigma_tilde2))
    if flatness_target is not None and eps > flatness_target:
        raise ValueError(
            f"flatness factor {eps:.3e} exceeds target {flatness_target:.3e}; "
            "shrink base_scale or loosen flatness_target")
    profiles = None
    if cache_dir is not None:
        profiles = _load_bundle(chain, mmse, block_len, beta, sample_count,
                                seed, cache_dir)
    if profiles is None:
        profiles = _construct_levels(chain, mmse, block_len, beta,
                                     sample_count, seed)
        if cache_dir is not None:
            _save_bundle(chain, mmse, block_len, beta, sample_count, seed,
                         eps, profiles, cache_dir)
    if rate_margin is not None and math.isfinite(rate_margin):
        mi_total = sum(
            max(0.0, p.prior_entropy_estimate() - p.conditional_entropy_estimate())
            for p in profiles)
        profiles = _apply_rate_budget(profiles, chain, mi_total + rate_margin)
    return MultilevelLatticeCode(
        chain=chain, mmse=mmse, block_len=block_len, beta=beta,
        sample_count=sample_count, seed=seed,
        rate_margin=rate_margin, flatness=eps,
        profiles=tuple(profiles))


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def lattice_quantize(samples, code: MultilevelLatticeCode, shared_seed: int,
                     block_offset: int = 0,
                     stream_base: int = LATTICE_STREAM_BASE):
    """Quantize sample blocks; returns (per-level payloads, reconstruction).

    samples: (B, N) float blocks of the source variable.
    payloads: tuple of (B, |INFO|) uint8 arrays, finest level first.
    reconstruction: (B, N) lattice points on the fundamental window,
        identical to what lattice_reconstruct produces from the payloads.

    Dither and rounding streams are addressed by (shared_seed,
    stream_base + level - 1, block_offset + block), so results do not
    depend on batch splits and several quantizers can share one seed by
    taking distinct stream bases.
    """
    samples = np.asarray(samples, dtype=float)
    n_blocks, block_len = samples.shape
    if block_len != code.block_len:
        raise ValueError(
            f"blocks have length {block_len}, code expects {code.block_len}")
    labels = np.zeros(samples.shape, dtype=np.int64)
    payloads = []
    for level, profile in enumerate(code.profiles, start=1):
        cond, prior = _level_evidence(code.chain, code.mmse, level, labels, samples)
        payload, w_bits = lossy_encode_from_evidence(
            cond, prior, profile, n_blocks, shared_seed, block_offset,
            stream_base + level - 1)
        labels += w_bits.astype(np.int64) << (level - 1)
        payloads.append(payload)
    return tuple(payloads), code.chain.reconstruction_values()[labels]


def lattice_reconstruct(payloads, code: MultilevelLatticeCode, shared_seed: int,
                        block_offset: int = 0,
                        stream_base: int = LATTICE_STREAM_BASE) -> np.ndarray:
    """Rebuild the quantizer output from payload bits and the shared seed.

    Each level replays through the polar layer's lossy reconstruction with
    the prior evidence of its cosets; levels without prior-replayable
    indices need no traversal there.
    """
    if len(payloads) != code.levels:
        raise ValueError(f"expected {code.levels} payload arrays, got {len(payloads)}")
    n_blocks = len(payloads[0])
    labels = np.zeros((n_blocks, code.block_len), dtype=np.int64)
    for level, (profile, payload) in enumerate(zip(code.profiles, payloads), start=1):
        _, prior = _level_evidence(code.chain, code.mmse, level, labels)
        w_bits = lossy_reconstruct_from_evidence(
            payload, prior, profile, n_blocks, shared_seed, block_offset,
            stream_base + level - 1)
        labels += w_bits.astype(np.int64) << (level - 1)
    return code.chain.reconstruction_values()[labels]
