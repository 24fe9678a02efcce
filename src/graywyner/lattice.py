"""Multilevel lattice quantization of Gaussian samples.

A scaled integer lattice is refined into a binary partition chain
s*Z > 2s*Z > ... > 2^r s*Z: bit l of a label picks one coset of the
(l+1)-th lattice inside the l-th, so a point of the 2^r-point fundamental
window is described by r bits, finest level first.  Each level is a polar
code for a binary-input channel, so this module only supplies per-level
evidence callables: the bit's log-likelihood ratio given a sample (from the
Gaussian posterior over lattice points) and given nothing (from the shaping
prior), within the coset the finer bits fixed.  The polar layer's one
construction, lossy encoder and lossy reconstruction run on them level by
level, exactly as in the binary pipelines; randomized rounding on those
LLRs simulates the backward channel of the quantization test, so the
reconstruction error approaches sigma_s^2 - sigma_r^2 per symbol.

Both coset weights of a level come from one call (_coset_llr), which sums
each coset around its own point nearest the center, with no running
maximum, and returns their log-ratio L; both chains hand L to the SC
engine as it is.  The prior chain is centered at 0, so its evidence
depends only on the finer label, which takes 2^(l-1) values at level l;
each level tabulates it once and the prior chain gathers from that table
instead of summing afresh at every sample position.

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
from .polar.profile import _refuse_beta, cached_profiles, construct_from_evidence
from .rates import check_count
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

# the coset sums' stopping exponent, exp's subnormal edge and the clamp
# applied past it (see _coset_llr)
_NEGLIGIBLE = 40.0
_SUBNORMAL = 708.0
_CLAMP = -700.0


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
    Each sum adds the points 2 step i either side of its nearest point as
    pairs, i = 1, 2, ..., and stops before the first pair whose larger term
    is below e^-40 wherever the center lies: its anchor lies within step/2
    (nearest coset) or step (other coset) of the center, so that term is at
    most exp(-2 step i (step i - reach) / sigma^2) for that reach.  Such a
    pair, and every later one, weighs under half a rounding unit of a sum
    that is at least 1, so adding it would leave the sum's bits unchanged.
    For the same reason, where a pair's smaller exponent can pass -708,
    exp's slow subnormal range, exponents are clamped at -700: a term
    there is absorbed whether it is e^-700 or smaller.
    """
    # the evaluation order of the plain expressions, with their temporaries
    # kept in a few buffers: near = offsets + step k0 - centers
    near = np.asarray(centers - offsets, dtype=np.float64)
    near /= step
    np.rint(near, out=near)
    k0 = near.astype(np.int64)
    near *= step
    near += offsets
    near -= centers
    far, llr, up, down, slope = (np.empty_like(near) for _ in range(5))
    np.copysign(step, near, out=far)
    np.subtract(near, far, out=far)
    inv = -1.0 / (2.0 * sigma * sigma)
    np.multiply(near, near, out=llr)
    llr -= np.multiply(far, far, out=up)
    llr *= inv
    # a coset point at 2 step i from the nearest one, a, has exponent
    # inv ((a + 2 step i)^2 - a^2) = i slope + i^2 curve <= 0
    curve = 4.0 * inv * step * step
    sums = []
    for anchor, reach in ((near, 0.5 * step), (far, step)):
        np.multiply(anchor, 4.0 * inv * step, out=slope)
        total = np.ones_like(anchor)
        i = 1
        while 2.0 * step * i * (step * i - reach) <= _NEGLIGIBLE * sigma * sigma:
            shift = curve * (i * i)
            np.multiply(slope, i, out=up)
            np.subtract(shift, up, out=down)
            up += shift
            if 2.0 * step * i * (step * i + reach) > _SUBNORMAL * sigma * sigma:
                np.maximum(up, _CLAMP, out=up)
                np.maximum(down, _CLAMP, out=down)
            # adding the +-i terms as one pair makes the sums of two cosets
            # mirrored about the center bitwise equal: an exact tie gives L = 0
            total += np.add(np.exp(up, out=up), np.exp(down, out=down), out=up)
            i += 1
        sums.append(total)
    ratio = np.divide(sums[0], sums[1], out=sums[0])
    llr += np.log(ratio, out=ratio)
    # negate where the nearest point's index is odd, exactly, by flipping
    # the sign bit: k0 << 63 moves k0's parity bit there (np.where with a
    # random mask runs several times slower)
    k0 <<= 63
    llr.view(np.int64)[...] ^= k0
    return llr


def _level_evidence(chain, mmse, level, finer, samples=None):
    """(cond, prior) evidence callables of one level over block slices of
    the (B, N) integer finer labels; samples feed cond only.  Both return
    the level's (stop-start, N) coset LLRs.

    The prior chain is centered at 0, so its coset LLRs depend on the
    finer label alone: they are tabulated once per call, one per label in
    [0, 2^(level-1)), and prior gathers its slice from that table.  cond
    evaluates the coset sums at alpha * sample for each slice it is asked.
    """
    step = chain.level_step(level)
    sigma = math.sqrt(mmse.sigma_tilde2)
    table = _coset_llr(np.zeros(1 << (level - 1)), chain.sigma_r,
                       chain.base_scale * np.arange(1 << (level - 1)), step)

    def cond(start, stop):
        return _coset_llr(mmse.alpha * samples[start:stop], sigma,
                          chain.base_scale * finer[start:stop], step)

    def prior(start, stop):
        return np.take(table, finer[start:stop])

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


def _window_labels(cdf, gen, sample_count, block_len):
    """(sample_count, block_len) labels of uniforms from gen: the number of
    entries of cdf[:-1] below each U, which is searchsorted(cdf, U) for
    every U <= cdf[-1] and the last label above it.  The CDF of a window's
    pmf can end a few rounding units below 1, where a search over the whole
    CDF would give a label past the window."""
    return np.searchsorted(cdf[:-1], gen.random((sample_count, block_len))).astype(
        np.min_scalar_type(len(cdf)))


def _construction_stream(chain, mmse, block_len, sample_count, seed):
    """Label/sample pairs for construction; the exact recipe is part of the
    build_multilevel_code contract."""
    gen = rng.stream(seed, rng.STREAM_CONSTRUCTION)
    # labels in the smallest dtype that holds them and samples built in the
    # noise buffer (x + y == y + x in floats), so the build holds few arrays
    v = _window_labels(np.cumsum(chain.window_pmf()), gen, sample_count, block_len)
    obs = gen.standard_normal((sample_count, block_len))
    obs *= math.sqrt(mmse.distortion)
    obs += chain.reconstruction_values()[v]
    return v, obs


def _chain_tag(chain, mmse) -> str:
    parts = ["lattice", float(chain.base_scale).hex(), str(chain.levels),
             float(chain.sigma_r).hex(), float(mmse.sigma_s2).hex(),
             float(mmse.sigma_r2).hex()]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _level_channel_id(chain, mmse, level) -> str:
    return f"mlq{_chain_tag(chain, mmse)}L{level}"


def _construct_levels(chain, mmse, block_len, sample_count, seed):
    v, obs = _construction_stream(chain, mmse, block_len, sample_count, seed)
    out = []
    for level in range(1, chain.levels + 1):
        finer = v & ((1 << (level - 1)) - 1)
        cond, prior = _level_evidence(chain, mmse, level, finer, obs)
        out.append(construct_from_evidence(
            ((v >> (level - 1)) & 1).astype(np.uint8), cond, prior,
            seed=seed, channel_id=_level_channel_id(chain, mmse, level),
            channel_name=f"lattice-level-{level}of{chain.levels}"))
    return tuple(out)


def build_multilevel_code(chain: PartitionChainSpec, mmse: MmseParams,
                          block_len: int, *, beta=None,
                          sample_count: int = 256, seed: int = 0,
                          cache_dir=None) -> MultilevelLatticeCode:
    """Construct (or load) the per-level codes for one chain and model.

    Construction samples `sample_count` blocks of labels from the window
    prior together with noisy observations, exactly as::

        gen = rng.stream(seed, rng.STREAM_CONSTRUCTION)
        cdf = np.cumsum(chain.window_pmf())
        u = gen.random((sample_count, block_len))
        v = np.searchsorted(cdf[:-1], u)
        obs = (chain.reconstruction_values()[v]
               + gen.standard_normal((sample_count, block_len))
               * math.sqrt(mmse.distortion))

    (v counts the CDF entries below u, searchsorted(cdf, u) wherever u <=
    cdf[-1]: the cumulative sum may end a few rounding units below 1, and a
    u above it takes the last label), then runs one true-path construction
    per level, finest first, with the conditional chain centered at
    alpha * obs and the prior chain at 0.

    The classes come from the decision-error rule (D where a prior-chain
    miss costs less than the bit) and the entropy rule (frozen-random where
    the bit stays nearly uniform given the sample; see polar.profile), so
    the payload exceeds the level-rate estimates by what is left of the
    partially polarized band, which shrinks as the block grows.
    A chain whose finest-level aliased posterior deviates from uniform by
    more than _FLATNESS_GATE (its flatness factor) is refused; planned
    chains pass with a wide margin, so the gate guards hand-built ones.
    The measured value is recorded on the returned code.
    With cache_dir, each level is cached as an ordinary profile entry
    through cached_profiles, the path construct_profile_cached takes too.
    The levels come from one joint construction stream, so a miss at any
    level rebuilds and stores them all.  sample_count must be a positive
    integer and beta None (see polar.profile._refuse_beta).
    """
    _refuse_beta(beta)
    check_count("sample_count", sample_count)
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
    headers = [(_level_channel_id(chain, mmse, level), block_len, sample_count,
                seed) for level in range(1, chain.levels + 1)]
    profiles = cached_profiles(cache_dir, headers, lambda: _construct_levels(
        chain, mmse, block_len, sample_count, seed))
    return MultilevelLatticeCode(
        chain=chain, mmse=mmse, block_len=block_len,
        sample_count=sample_count, seed=seed, flatness=eps, profiles=profiles)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def _level_streams(stream_base, level: int):
    """The stream level of one chain level: stream_base + level - 1, taken
    per base when stream_base is a tuple of bases."""
    if isinstance(stream_base, tuple):
        return tuple(base + level - 1 for base in stream_base)
    return stream_base + level - 1


def lattice_quantize(samples, code: MultilevelLatticeCode, shared_seed: int,
                     block_offset: int = 0,
                     stream_base: int = LATTICE_STREAM_BASE):
    """Quantize sample blocks; returns (per-level codes, reconstruction).

    samples: (B, N) float blocks of the source variable.
    codes: tuple of the levels' PolarCodes, finest level first, each
        sending its level's bits at the INFO indices and correcting its
        frozen-deterministic ones (see polar.coding).
    reconstruction: (B, N) lattice points on the fundamental window,
        identical to what lattice_reconstruct produces from the codes.

    Dither and rounding streams are addressed by (shared_seed,
    stream_base + level - 1, block_offset + block), so results do not
    depend on batch splits and several quantizers can share one seed by
    taking distinct stream bases.  stream_base may be a tuple of G bases:
    the B rows then form G equal groups, group g quantized as a call on its
    rows alone with stream_base[g] would, all in one pass per level.
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
    codes = []
    for level, profile in enumerate(code.profiles, start=1):
        cond, prior = _level_evidence(code.chain, code.mmse, level, labels, samples)
        level_code, w_bits = lossy_encode_from_evidence(
            cond, prior, profile, n_blocks, shared_seed, block_offset,
            _level_streams(stream_base, level))
        labels += w_bits.astype(np.int64) << (level - 1)
        codes.append(level_code)
    return tuple(codes), code.chain.reconstruction_values()[labels]


def lattice_reconstruct(codes, code: MultilevelLatticeCode, shared_seed: int,
                        block_offset: int = 0,
                        stream_base: int = LATTICE_STREAM_BASE) -> np.ndarray:
    """Rebuild the quantizer output from the per-level codes and the shared
    seed.

    Each level runs the polar layer's one replay, which decides its
    frozen-deterministic indices by the prior evidence of its cosets,
    flipped where the level's flags say; levels without them need no
    traversal there.  Every level's code must cover the same blocks.
    stream_base as in lattice_quantize.
    """
    blocks = [level_code.n_blocks for level_code in codes]
    if len(blocks) != code.levels or len(set(blocks)) != 1:
        raise ValueError(f"expected {code.levels} per-level codes whose flags "
                         f"cover the same blocks, got {blocks} blocks")
    labels = np.zeros((blocks[0], code.block_len), dtype=np.int64)
    for level, (profile, level_code) in enumerate(zip(code.profiles, codes), start=1):
        _, prior = _level_evidence(code.chain, code.mmse, level, labels)
        w_bits = lossy_reconstruct_from_evidence(
            level_code, prior, profile, shared_seed, block_offset,
            _level_streams(stream_base, level))
        labels += w_bits.astype(np.int64) << (level - 1)
    return code.chain.reconstruction_values()[labels]
