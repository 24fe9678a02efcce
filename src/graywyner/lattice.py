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

Both coset weights of a level come from one call (_coset_llr), which sums
each coset around its own point nearest the center, with no running
maximum, and returns their log-ratio; the evidence posteriors of both
chains read it.  The prior chain is centered at 0, so its evidence depends
only on the finer label, which takes 2^(l-1) values at level l; each level
tabulates it once and the prior chain gathers rows of that table instead
of summing afresh at every sample position.

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
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import rng
from .numerics import flatness_factor
from .polar.coding import lossy_encode_from_evidence, lossy_reconstruct_from_evidence
from .polar.profile import cached_profiles, construct_from_evidence
# unused here since the levels run through the polar layer's shared core
# and cache path; kept because perfbench/spans.py patches these names on
# this module
from .polar.profile import load_profile, save_profile  # noqa: F401
from .polar.sc import sc_traverse  # noqa: F401
from .polar.transform import polar_transform  # noqa: F401

# dither/rounding substream indices start here; a pipeline running several
# quantizers off one shared seed gives each its own base to keep them apart
# (binary pipelines use small level indices, so 16+ never collides)
LATTICE_STREAM_BASE = 16
# deepest chain: level l of a quantizer draws from stream base + l - 1, so
# quantizers whose bases lie MAX_LEVELS apart never share a stream
MAX_LEVELS = 16


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
    `period` = 2^levels * base_scale, with `levels` an integer in
    1..MAX_LEVELS.  sigma_r is the standard deviation of the shaping prior
    over the finest lattice.
    """

    base_scale: float
    levels: int
    sigma_r: float

    def __post_init__(self):
        if not (math.isfinite(self.base_scale) and self.base_scale > 0.0):
            raise ValueError(f"base_scale must be positive, got {self.base_scale}")
        if isinstance(self.levels, bool) or not isinstance(self.levels, numbers.Integral):
            raise ValueError(f"levels must be an integer, got {self.levels!r}")
        if not 1 <= self.levels <= MAX_LEVELS:
            raise ValueError(
                f"a {self.levels}-level chain is outside 1..{MAX_LEVELS}; a deeper "
                "one would share dither streams with another quantizer")
        if not (math.isfinite(self.sigma_r) and self.sigma_r > 0.0):
            raise ValueError(f"sigma_r must be positive, got {self.sigma_r}")

    @property
    def period(self) -> float:
        return self.base_scale * float(1 << self.levels)

    def level_step(self, level: int) -> float:
        if not 1 <= level <= self.levels:
            raise ValueError(f"level must be in 1..{self.levels}, got {level}")
        return self.base_scale * float(1 << (level - 1))

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


# finest step over sigma~: flatness_factor(1.3, 1) = 1.69e-5, far inside the
# fixed 1e-3 gate of build_multilevel_code, while wasting as little rate as
# possible on a finer-than-resolvable level
_SPACING_FACTOR = 1.3
# shaping-prior standard deviations the chain period must cover
_MIN_PERIOD_SIGMAS = 12.0
# largest flatness factor build_multilevel_code accepts
_FLATNESS_GATE = 1e-3


def plan_chain(mmse: MmseParams) -> PartitionChainSpec:
    """Pick the partition chain for a quantization model.

    The finest spacing is _SPACING_FACTOR * sigma~.  The level count is the
    smallest r whose period 2^r * scale covers _MIN_PERIOD_SIGMAS standard
    deviations of the shaping prior; narrower windows truncate the prior's
    tails and leave real information in the coarsest level (measured: a
    pair chain at 7 sigma_r keeps 0.30 bits there, while 12+ sigma_r pushes
    the coarsest level's replayable fraction past 0.98 at no extra payload).
    A model that needs more than MAX_LEVELS levels is refused.
    """
    scale = _SPACING_FACTOR * math.sqrt(mmse.sigma_tilde2)
    sigma_r = math.sqrt(mmse.sigma_r2)
    period_target = _MIN_PERIOD_SIGMAS * sigma_r
    levels = 1
    while levels <= MAX_LEVELS and scale * (1 << levels) < period_target:
        levels += 1
    return PartitionChainSpec(base_scale=scale, levels=levels,
                              sigma_r=sigma_r)


# ---------------------------------------------------------------------------
# per-level evidence
# ---------------------------------------------------------------------------

def _coset_llr(centers, sigma, offsets, step):
    """ln W0 - ln W1, where W_w sums exp(-(m - centers)^2 / (2 sigma^2)) over
    the coset m in offsets + step*w + 2*step*Z.

    Both cosets come out of one call.  The point of offsets + step*Z nearest
    each center belongs to one coset (the parity of its index says which),
    and the other coset's nearest point lies one step across the center.
    Each coset's sum is taken relative to its own nearest point, so every
    term is exp of a nonpositive number and each relative sum is at least
    1: there is no running maximum, and the log-ratio stays finite even when
    the other coset's weight is far below the float range (step >> sigma).
    Each sum takes every point within 9.5 sigma of the center: the points
    left out weigh below 1e-19 of the nearest one, under half a rounding
    unit of a sum that is at least 1.
    """
    k0 = np.rint((centers - offsets) / step).astype(np.int64)
    near = offsets + step * k0 - centers
    odd = (k0 & 1).astype(bool)
    far = near - np.copysign(step, near)
    inv = -1.0 / (2.0 * sigma * sigma)
    llr = inv * (near * near - far * far)
    # a coset point at 2 step i from the nearest one, a, has exponent
    # inv ((a + 2 step i)^2 - a^2) = i slope + i^2 curve <= 0
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
            # adding the +-i terms as one pair makes the sums of two cosets
            # mirrored about the center bitwise equal: an exact tie gives L = 0
            total += np.add(np.exp(up, out=up), np.exp(down, out=down), out=up)
        sums.append(total)
    llr += np.log(sums[0] / sums[1])
    return np.where(odd, -llr, llr)


def _coset_posteriors(centers, sigma, offsets, step):
    """Normalized (..., 2) posteriors over the cosets offsets + step*w + 2*step*Z."""
    llr = _coset_llr(centers, sigma, offsets, step)
    out = np.empty(np.shape(llr) + (2,))
    with np.errstate(over="ignore"):  # exp(|L| > 709) = inf: probability 0
        np.exp(-llr, out=out[..., 0])
        np.exp(llr, out=out[..., 1])
    out += 1.0
    return np.reciprocal(out, out=out)


def _level_evidence(chain, mmse, level, finer, samples=None):
    """(cond, prior) evidence callables of one level over block slices of
    the (B, N) integer finer labels; samples feed cond only.

    The prior chain is centered at 0, so its coset posteriors depend on the
    finer label alone: they are tabulated once per call, one row per label
    in [0, 2^(level-1)), and prior gathers its slice from that table.  cond
    evaluates the coset sums at alpha * sample for each slice it is asked.
    """
    step = chain.level_step(level)
    sigma = math.sqrt(mmse.sigma_tilde2)
    table = _coset_posteriors(np.zeros(1 << (level - 1)), chain.sigma_r,
                              chain.base_scale * np.arange(1 << (level - 1)), step)

    def cond(start, stop):
        return _coset_posteriors(mmse.alpha * samples[start:stop], sigma,
                                 chain.base_scale * finer[start:stop], step)

    def prior(start, stop):
        return table[finer[start:stop]]

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


def build_multilevel_code(chain: PartitionChainSpec, mmse: MmseParams,
                          block_len: int, *, beta: float = 0.25,
                          sample_count: int = 256, seed: int = 0,
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

    The classes come from the polarized index sets alone, so the payload
    exceeds the level-rate estimates by the partially polarized band,
    which shrinks as the block grows.
    A chain whose finest-level aliased posterior deviates from uniform by
    more than _FLATNESS_GATE (its flatness factor) is refused; planned
    chains pass with a wide margin, so the gate guards hand-built ones.
    The measured value is recorded on the returned code.
    With cache_dir, each level is cached as an ordinary profile entry
    through cached_profiles, the path construct_profile_cached takes too.
    The levels come from one joint construction stream, so a miss at any
    level rebuilds and stores them all.
    """
    r2 = chain.sigma_r ** 2
    if abs(r2 - mmse.sigma_r2) > 1e-9 * max(r2, mmse.sigma_r2):
        raise ValueError(
            f"chain sigma_r^2 {r2:g} does not match the model sigma_r2 "
            f"{mmse.sigma_r2:g}")
    eps = flatness_factor(chain.base_scale, math.sqrt(mmse.sigma_tilde2))
    if eps > _FLATNESS_GATE:
        raise ValueError(
            f"flatness factor {eps:.3e} exceeds {_FLATNESS_GATE:g}; "
            "shrink base_scale")
    headers = [(_level_channel_id(chain, mmse, level), block_len, beta,
                sample_count, seed) for level in range(1, chain.levels + 1)]
    profiles = cached_profiles(cache_dir, headers, lambda: _construct_levels(
        chain, mmse, block_len, beta, sample_count, seed))
    return MultilevelLatticeCode(
        chain=chain, mmse=mmse, block_len=block_len, beta=beta,
        sample_count=sample_count, seed=seed, flatness=eps, profiles=profiles)


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
    if samples.ndim != 2:
        raise ValueError(f"samples must have shape (B, N), got {samples.shape}")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite (no NaN or infinity)")
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
