"""Monte Carlo code construction and index classification.

Construction samples blocks from the joint source law, follows the true bit
path through the successive-cancellation recursion, and accumulates two
statistics per leaf index i and per chain.  Every bit of that path is known
in advance, so the recursion runs breadth-first (one vectorized step per
tree level, see sc.py) and the statistics of all leaves are taken at once:

* the Bhattacharyya proxy z[i], the mean of 2 sqrt(p0 p1) = 1/cosh(L/2),
  0 for a perfectly decided bit and 1 for a perfectly uniform one;
* the entropy proxy h[i], the mean of -log2 p(true bit) = log2(1 + e^(+-L)),
  + for a true 1, whose sum over i telescopes to the exact block
  log-likelihood (chain rule), a sharp check against closed-form entropies.

construct_from_evidence does this for any coded variable given callables
for its evidence; binary channels and lattice levels both supply them.

Indices are then classified against the threshold t = 2^(-N^beta), compared
in the log domain so tiny values never underflow:

* FROZEN_DETERMINISTIC  when z_prior <= t: the bit is pinned by its prefix
  alone, so encoder and decoder can both derive it (wins ties with the
  frozen-random rule);
* FROZEN_RANDOM when z_cond >= 1 - t (and not deterministic): the bit stays
  uniform even given the observation, so a shared dither bit replaces it;
* INFO otherwise: the payload positions.

When the coded variable has a uniform prior, every prefix-conditional law is
exactly uniform, so z_prior and h_prior are set to 1 without sampling and no
prior chain is run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .. import rng
from .._fileio import atomic_write_text
from .channel import BinarySourceWithSideInfo
from .sc import chunked_batches, sc_traverse
from .transform import polar_transform

CLASS_INFO = 0
CLASS_FROZEN_RANDOM = 1
CLASS_FROZEN_DETERMINISTIC = 2

PROFILE_CACHE_VERSION = 5

_CLASSES = (CLASS_INFO, CLASS_FROZEN_RANDOM, CLASS_FROZEN_DETERMINISTIC)


def below_log_threshold(values, threshold_exponent: float) -> np.ndarray:
    """Elementwise test v <= 2^(-threshold_exponent) without underflow.

    Nonpositive v compares True (it is below any positive threshold).
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    out = np.zeros(v.shape, dtype=bool)
    pos = v > 0.0
    out[~pos] = True
    out[pos] = np.log2(v[pos]) <= -threshold_exponent
    return out


def classify_indices(z_cond: np.ndarray, z_prior: np.ndarray, block_len: int,
                     beta: float) -> np.ndarray:
    """Class labels (INFO / FROZEN_RANDOM / FROZEN_DETERMINISTIC) per index."""
    exponent = float(block_len) ** float(beta)
    deterministic = below_log_threshold(z_prior, exponent)
    nearly_uniform = below_log_threshold(1.0 - np.asarray(z_cond, dtype=float), exponent)
    classes = np.full(block_len, CLASS_INFO, dtype=np.int8)
    classes[nearly_uniform] = CLASS_FROZEN_RANDOM
    classes[deterministic] = CLASS_FROZEN_DETERMINISTIC
    return classes


@dataclass(frozen=True)
class PolarProfile:
    """Construction output for one (channel, block length) pair."""

    channel_id: str
    channel_name: str
    block_len: int
    beta: float
    sample_count: int
    seed: int
    z_cond: np.ndarray
    z_prior: np.ndarray
    h_cond: np.ndarray
    h_prior: np.ndarray
    classes: np.ndarray

    def __post_init__(self):
        for name in ("z_cond", "z_prior", "h_cond", "h_prior", "classes"):
            arr = getattr(self, name)
            if arr.shape != (self.block_len,):
                raise ValueError(f"{name} must have shape ({self.block_len},)")
            if name != "classes" and not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if not np.isin(self.classes, _CLASSES).all():
            raise ValueError(f"classes must lie in {_CLASSES}")

    # -- index sets ---------------------------------------------------------

    def info_positions(self) -> np.ndarray:
        return np.flatnonzero(self.classes == CLASS_INFO)

    @property
    def payload_fraction(self) -> float:
        """Payload rate |INFO| / N of the lossy code."""
        return len(self.info_positions()) / self.block_len

    @property
    def has_deterministic(self) -> bool:
        return bool(np.any(self.classes == CLASS_FROZEN_DETERMINISTIC))

    def conditional_entropy_estimate(self) -> float:
        """Mean of h_cond; a chain-rule estimate of H(X | Y) in bits/symbol."""
        return float(self.h_cond.mean())

    def prior_entropy_estimate(self) -> float:
        return float(self.h_prior.mean())

    # -- rate control ---------------------------------------------------------

    def with_payload_cap(self, max_fraction: float) -> "PolarProfile":
        """Demote the least reliable payload indices to frozen-random.

        Keeps at most floor(max_fraction * N) INFO positions, dropping those
        with the largest z_cond first (they are the closest to uniform given
        the observation, so dithering them costs the least).  A cap of 1 or
        more keeps every INFO position.
        """
        if not max_fraction >= 0.0:
            raise ValueError(
                f"max_fraction must be nonnegative, got {max_fraction}")
        info = self.info_positions()
        if len(info) <= max_fraction * self.block_len:
            return self
        keep = int(np.floor(max_fraction * self.block_len))
        order = info[np.argsort(-self.z_cond[info], kind="stable")]
        demote = order[: len(info) - keep]
        classes = self.classes.copy()
        classes[demote] = CLASS_FROZEN_RANDOM
        return replace(self, classes=classes)

    def stored_mask(self, stored_fraction: float) -> np.ndarray:
        """Lossless storage set: top ceil(N * fraction) indices by z_cond.

        These are the positions with the least predictable bits given the
        decoder's knowledge; everything outside the mask is recovered by
        maximum-posterior decisions plus the recorded corrections.
        """
        if not 0.0 <= stored_fraction <= 1.0:
            raise ValueError(f"stored_fraction out of [0, 1]: {stored_fraction}")
        count = int(np.ceil(stored_fraction * self.block_len))
        mask = np.zeros(self.block_len, dtype=bool)
        order = np.argsort(-self.z_cond, kind="stable")
        mask[order[:count]] = True
        return mask


def traverse_batches(chains, n_blocks: int, block_len: int, decide, known=None,
                     plan=None):
    """SC passes over n_blocks blocks in bounded batch slices.

    chains[k](start, stop) gives chain k's (stop-start, N, 2) leaf posteriors
    for a slice, conditional chain first and prior chain (if any) last;
    decide(i, llr, start, stop) decides leaf i of that slice from its LLRs.
    With known (n_blocks, N) leaf bits the passes run breadth-first and
    decide sees every leaf of a slice at once; otherwise they run depth-first
    on the leaf plan (kinds, then bits and optional margins over all
    n_blocks), if any, and decide sees only its FREE leaves (see
    sc_traverse).
    Returns (u, x) over all blocks, as sc_traverse does.
    """
    u = np.empty((n_blocks, block_len), dtype=np.uint8)
    x = np.empty((n_blocks, block_len), dtype=np.uint8)
    for start, stop in chunked_batches(n_blocks, len(chains), block_len):
        # one chain needs no stacked copy, only a leading chain axis
        evidence = (chains[0](start, stop)[None] if len(chains) == 1
                    else np.stack([chain(start, stop) for chain in chains]))
        kw = {}
        if known is not None:
            kw["known"] = known[start:stop]
        if plan is not None:
            kw["plan"] = (plan[0],) + tuple(p[start:stop] for p in plan[1:])
        u[start:stop], x[start:stop] = sc_traverse(
            evidence, lambda i, llr: decide(i, llr, start, stop), **kw)
    return u, x


def channel_evidence(channel: BinarySourceWithSideInfo, side):
    """(cond, prior) evidence callables of a binary channel over side-symbol
    blocks; prior is None when the channel's prior is uniform."""
    def cond(start, stop):
        return channel.leaf_evidence(side[start:stop])

    def prior(start, stop):
        return channel.prior_evidence((stop - start, side.shape[1]))

    return cond, (None if channel.prior_is_uniform else prior)


def _leaf_statistics(llr: np.ndarray, bits: np.ndarray):
    """z = 1/cosh(L/2) and h = log2(1 + e^(+-L)), + for a true 1, of leaf
    LLRs along the true bits, with L capped at +-700 so h stays finite.
    z is computed in llr's own buffer, which saves a batch-sized array."""
    z = np.clip(llr, -700.0, 700.0, out=llr)
    h = z.copy()
    np.negative(h, out=h, where=bits == 0)
    np.logaddexp(0.0, h, out=h)
    h /= np.log(2.0)
    np.cosh(np.multiply(z, 0.5, out=z), out=z)
    return np.reciprocal(z, out=z), h


def construct_from_evidence(x_true, cond, prior=None, *, beta: float, seed: int,
                            channel_id: str, channel_name: str) -> PolarProfile:
    """Monte Carlo construction from (sample_count, N) true blocks of the
    coded variable and evidence callables over their slices (see
    traverse_batches); prior=None means a uniform prior, with no prior chain."""
    sample_count, block_len = x_true.shape
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    if not 0.0 < beta < 1.0:  # also false for nan
        raise ValueError(f"beta must be finite and in (0, 1), got {beta}")
    u_true = polar_transform(x_true)
    chains = (cond,) if prior is None else (cond, prior)
    z_sum = np.zeros((len(chains), block_len))
    h_sum = np.zeros((len(chains), block_len))

    def leaf_stats(leaves, llr, start, stop):
        z, h = _leaf_statistics(llr, u_true[start:stop, leaves])
        z_sum[:, leaves] += z.sum(axis=1)
        h_sum[:, leaves] += h.sum(axis=1)

    traverse_batches(chains, sample_count, block_len, leaf_stats, known=u_true)
    z = z_sum / sample_count
    h = h_sum / sample_count
    if prior is None:  # uniform prior: every prefix-conditional law is exactly uniform
        z = np.vstack([z, np.ones(block_len)])
        h = np.vstack([h, np.ones(block_len)])
    return PolarProfile(
        channel_id=channel_id, channel_name=channel_name,
        block_len=block_len, beta=beta, sample_count=sample_count, seed=seed,
        z_cond=z[0], z_prior=z[1], h_cond=h[0], h_prior=h[1],
        classes=classify_indices(z[0], z[1], block_len, beta))


def construct_profile(channel: BinarySourceWithSideInfo, block_len: int,
                      beta: float = 0.25, sample_count: int = 256,
                      seed: int = 0) -> PolarProfile:
    """Monte Carlo construction over sample_count true-path traversals."""
    gen = rng.stream(seed, rng.STREAM_CONSTRUCTION)
    x, y = channel.sample(sample_count, block_len, gen)
    cond, prior = channel_evidence(channel, y)
    return construct_from_evidence(
        x, cond, prior, beta=beta, seed=seed,
        channel_id=channel.channel_id(), channel_name=channel.name)


# ---------------------------------------------------------------------------
# profile cache (JSON, atomic writes, bit-identical reload)
# ---------------------------------------------------------------------------

def profile_cache_key(channel_id: str, block_len: int, beta: float,
                      sample_count: int, seed: int) -> str:
    # float.hex keeps betas that agree to many digits apart (":g" merged them)
    return (f"profile_{channel_id}_n{block_len}_b{float(beta).hex()}"
            f"_s{sample_count}_r{seed}")


def profile_path(cache_dir, key: str) -> Path:
    return Path(cache_dir) / f"{key}.json"


def save_profile(profile: PolarProfile, cache_dir) -> Path:
    payload = {
        "version": PROFILE_CACHE_VERSION,
        "kind": "profile",
        "channel_id": profile.channel_id,
        "channel_name": profile.channel_name,
        "N": profile.block_len,
        "beta": profile.beta,
        "sample_count": profile.sample_count,
        "seed": profile.seed,
        "z_cond": profile.z_cond.tolist(),
        "z_prior": profile.z_prior.tolist(),
        "h_cond": profile.h_cond.tolist(),
        "h_prior": profile.h_prior.tolist(),
        "classes": profile.classes.tolist(),
    }
    key = profile_cache_key(profile.channel_id, profile.block_len, profile.beta,
                            profile.sample_count, profile.seed)
    return atomic_write_text(profile_path(cache_dir, key), json.dumps(payload))


def load_profile(path) -> PolarProfile:
    data = json.loads(Path(path).read_text())
    if data.get("version") != PROFILE_CACHE_VERSION or data.get("kind") != "profile":
        raise ValueError(f"unrecognized profile file: {path}")
    return PolarProfile(
        channel_id=data["channel_id"], channel_name=data.get("channel_name", ""),
        block_len=int(data["N"]), beta=float(data["beta"]),
        sample_count=int(data["sample_count"]), seed=int(data["seed"]),
        z_cond=np.array(data["z_cond"], dtype=float),
        z_prior=np.array(data["z_prior"], dtype=float),
        h_cond=np.array(data["h_cond"], dtype=float),
        h_prior=np.array(data["h_prior"], dtype=float),
        classes=np.array(data["classes"], dtype=np.int8))


def load_cached_profile(cache_dir, header):
    """The profile cached for header = (channel_id, N, beta, sample_count,
    seed) if its entry is readable and was built for header; None, a cache
    miss, otherwise."""
    path = profile_path(cache_dir, profile_cache_key(*header))
    if not path.exists():
        return None
    try:
        p = load_profile(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            OverflowError):
        return None
    built_for = (p.channel_id, p.block_len, p.beta, p.sample_count, p.seed)
    return p if built_for == tuple(header) else None


def cached_profiles(cache_dir, headers, build) -> tuple:
    """The profiles for headers, loaded from cache_dir or built and stored.

    All or nothing: unless every header's entry loads (see
    load_cached_profile), build() constructs the profiles of all headers,
    in order, and each is saved over whatever entry it had.  Without a
    cache_dir the profiles are built and nothing is read or written.
    """
    if cache_dir is None:
        return tuple(build())
    profiles = [load_cached_profile(cache_dir, header) for header in headers]
    if any(p is None for p in profiles):
        profiles = build()
        for profile in profiles:
            save_profile(profile, cache_dir)
    return tuple(profiles)


def construct_profile_cached(channel: BinarySourceWithSideInfo, block_len: int,
                             cache_dir, beta: float = 0.25,
                             sample_count: int = 256, seed: int = 0) -> PolarProfile:
    """Load the profile from the cache directory or construct and store it.

    An entry that is unreadable or was built for other parameters is
    rebuilt and overwritten.
    """
    header = (channel.channel_id(), block_len, beta, sample_count, seed)
    (profile,) = cached_profiles(cache_dir, [header], lambda: [construct_profile(
        channel, block_len, beta=beta, sample_count=sample_count, seed=seed)])
    return profile
