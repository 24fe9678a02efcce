"""Monte Carlo code construction and index classification.

Construction samples blocks from the joint source law, follows the true bit
path through the successive-cancellation recursion, and accumulates three
statistics per leaf index i and per chain.  Every bit of that path is known
in advance, so the recursion runs breadth-first (one vectorized step per
tree level, see sc.py) and the statistics of all leaves are taken at once:

* the entropy proxy h[i], the mean of -log2 p(true bit) = log2(1 + e^(+-L)),
  + for a true 1, whose sum over i telescopes to the block log-likelihood
  (chain rule), a sharp check against closed-form entropies: exactly in a
  float64 pass, and within float32 rounding in construction's passes;
* the decision error e[i], how often sc.map_bits(L) misses the true bit.

Construction's passes, like every SC pass, carry their LLRs in float32
(see sc.py): the leaf LLRs of the evidence are computed in float64, the
tree is evaluated in float32 and the leaves return to float64 before the
statistics are taken.  Against a float64 pass, h moves by float32
rounding of L (about 1e-7, far below the Monte Carlo noise of a few
hundred blocks), and a decision moves only where L rounds to the other
sign or to a tie, which happens at leaves whose law is close to uniform
either way.  The coders' passes (polar/coding.py) run the same float32
steps on both sides, so encoders and decoders replay each other bit for
bit whatever the profile.

construct_from_evidence does this for any coded variable given callables
for its evidence; binary channels and lattice levels both supply them.  The
sampled blocks pass through the recursion in cache-sized slices (see
traverse_batches), which run in waves of up to _WORKERS slices, one per
thread, on helper threads that each pass starts and stops for itself: each
slice's evidence, pass and statistics are computed on the thread that runs
it, and once the wave has finished its statistics enter the running sums
in the calling thread, one block at a time in block order.  Each slice's
statistics depend only on its own blocks and the sums are always taken in
the same order, so a profile does not depend on the slicing, on the thread
count or on which slice finished first.

A decoder's miss costs c = correction_bits(N) = log2(N) + 1 bits (index
and flag), so e * c in expectation against 1 bit to send the bit; both
codes send it only where that is cheaper, a tie e * c = 1 being neither.
The lossless stored set (stored_mask) is {e_cond * c > 1}.  The lossy
code's classes (classify_indices) are, the first rule that holds winning:

* FROZEN_DETERMINISTIC when e_prior * c < 1 and a prior chain exists: the
  decoder derives the bit from the prior chain, and the lossy encoder sends
  corrections where it misses;
* FROZEN_RANDOM when h_cond >= 1 - FROZEN_RANDOM_KAPPA (0.02 bits): the
  bit stays that close to uniform given the observation, so a shared
  dither bit replaces it at a divergence cost of at most that much;
* INFO otherwise: the payload positions.

When the coded variable has a uniform prior, every prefix-conditional law
is exactly uniform, so h_prior and e_prior are set to 1 and 1/2 without
sampling, no prior chain is run and no index is deterministic.
"""

from __future__ import annotations

import base64
import contextvars
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import rng
from .._fileio import atomic_write_text
from .channel import BinarySourceWithSideInfo
from .sc import chunked_batches, map_bits, sc_traverse
from .transform import polar_transform

CLASS_INFO = 0
CLASS_FROZEN_RANDOM = 1
CLASS_FROZEN_DETERMINISTIC = 2

PROFILE_CACHE_VERSION = 8

_CLASSES = (CLASS_INFO, CLASS_FROZEN_RANDOM, CLASS_FROZEN_DETERMINISTIC)


# Dithering leaf i instead of rounding it adds about 1 - h_cond[i] bits of
# divergence between the coder's joint law and the test channel's (chain
# rule, as in Honda & Yamamoto, "Polar coding without alphabet extension
# for asymmetric models", IEEE T-IT 2013), so a leaf is frozen-random where
# that cost is at most this many bits
FROZEN_RANDOM_KAPPA = 0.02


def _refuse_beta(beta) -> None:
    """TypeError unless beta is None.  No rule reads beta; the keyword
    stays only because the benchmark's construct and lattice.build probes
    bind it by name, and the benchmark change that drops it from their
    keys (ROADMAP item 2 or 5) deletes it."""
    if beta is not None:
        raise TypeError(f"beta was removed (frozen-random leaves follow "
                        f"h_cond >= 1 - {FROZEN_RANDOM_KAPPA}); got beta={beta!r}")


def correction_bits(block_len: int) -> float:
    """Bits a correction costs: log2(N) bits of index and a flag."""
    return np.log2(block_len) + 1.0


def classify_indices(h_cond: np.ndarray, e_prior, block_len: int) -> np.ndarray:
    """Class labels (INFO / FROZEN_RANDOM / FROZEN_DETERMINISTIC) per index;
    e_prior None means no prior chain, so no index is deterministic."""
    classes = np.full(block_len, CLASS_INFO, dtype=np.int8)
    classes[np.asarray(h_cond) >= 1.0 - FROZEN_RANDOM_KAPPA] = CLASS_FROZEN_RANDOM
    if e_prior is not None:
        deterministic = np.asarray(e_prior) * correction_bits(block_len) < 1.0
        classes[deterministic] = CLASS_FROZEN_DETERMINISTIC
    return classes


@dataclass(frozen=True)
class PolarProfile:
    """Construction output for one (channel, block length) pair."""

    channel_id: str
    channel_name: str
    block_len: int
    sample_count: int
    seed: int
    h_cond: np.ndarray
    h_prior: np.ndarray
    e_cond: np.ndarray
    e_prior: np.ndarray
    classes: np.ndarray

    def __post_init__(self):
        for name in ("h_cond", "h_prior", "e_cond", "e_prior", "classes"):
            arr = getattr(self, name)
            if arr.shape != (self.block_len,):
                raise ValueError(f"{name} must have shape ({self.block_len},)")
            if name != "classes" and not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            if name.startswith("e_") and not ((arr >= 0.0) & (arr <= 1.0)).all():
                raise ValueError(f"{name} must lie in [0, 1]")
        if not np.isin(self.classes, _CLASSES).all():
            raise ValueError(f"classes must lie in {_CLASSES}")

    # -- index sets ---------------------------------------------------------

    def info_positions(self) -> np.ndarray:
        return np.flatnonzero(self.classes == CLASS_INFO)

    @property
    def payload_fraction(self) -> float:
        """Payload rate |INFO| / N of the lossy code."""
        return len(self.info_positions()) / self.block_len

    def conditional_entropy_estimate(self) -> float:
        """Mean of h_cond; a chain-rule estimate of H(X | Y) in bits/symbol."""
        return float(self.h_cond.mean())

    def prior_entropy_estimate(self) -> float:
        return float(self.h_prior.mean())

    def stored_mask(self) -> np.ndarray:
        """Lossless storage set, e_cond * correction_bits(N) > 1: where
        correcting the maximum-posterior decision would cost more than the
        bit.  The rest is recovered by those decisions and corrections."""
        return self.e_cond * correction_bits(self.block_len) > 1.0


# threads that run the slices of a breadth-first pass, the calling thread
# among them: the CPUs this process may use, at most four
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _run_slices(work, fold, slices) -> None:
    """fold(work(start, stop)) for every (start, stop) of slices, with work
    on up to _WORKERS threads and fold in the calling thread in slice order.

    The slices run in waves of one slice per thread: the calling thread
    runs a wave's first slice and helper threads of the call's own pool
    run the others, each under a copy of the caller's context, so NumPy's
    errstate there is the caller's.  Once every slice of the wave has
    finished, its results are folded in slice order and the next wave
    starts, so no more than one slice per thread is in flight, its result
    included.  A failing wave raises the exception of its first failing
    slice, unchanged, once none of its slices is running any more.  The
    helpers stop before the call returns, so no thread outlives its pass
    and a process forked between passes inherits none.  One slice (or one
    worker) runs inline and starts no thread.

    concurrent.futures imports logging, so it loads here, on the first
    pass that has more than one slice, not when the package is imported.
    """
    threads = min(_WORKERS, len(slices))
    if threads < 2:
        for start, stop in slices:
            fold(work(start, stop))
        return
    from concurrent.futures import ThreadPoolExecutor, wait
    with ThreadPoolExecutor(threads - 1, thread_name_prefix="graywyner-slice") as pool:
        for first in range(0, len(slices), threads):
            (start, stop), *rest = slices[first:first + threads]
            helpers = [pool.submit(contextvars.copy_context().run, work, *s)
                       for s in rest]
            try:
                results = [work(start, stop)]
            finally:
                wait(helpers)
            for result in results + [future.result() for future in helpers]:
                fold(result)


def traverse_batches(chains, n_blocks: int, block_len: int, stats, known=None,
                     plan=None, fold=None):
    """SC passes over n_blocks blocks in bounded batch slices.

    chains[k](start, stop) gives chain k's (stop-start, N, 2) leaf
    log-weights for a slice (see sc_traverse), conditional chain first and
    prior chain (if any) last; a depth-first pass takes one chain.

    With known (n_blocks, N) leaf bits the passes run breadth-first and
    return None.  stats(llr, start, stop) sees every leaf of a slice at
    once, llr the slice's (C, stop-start, N) leaf LLRs along the known
    bits, and fold, if given, receives what it returns.  The slices run in
    waves of up to _WORKERS slices, one per thread, on helper threads the
    pass starts and stops (see _run_slices): building a slice's evidence,
    its pass and stats run on whichever thread runs the slice, so they
    must read shared inputs and write only the slice's own rows.  fold
    runs in the calling thread, in slice order, so whatever depends on
    order (construction's running sums) comes out the same however the
    slices were scheduled.

    Otherwise the passes run depth-first, one slice after another in the
    calling thread, on the leaf plan (the known mask, then bits and
    optional thresholds over all n_blocks), if any, and stats is never
    called (see sc_traverse).  Returns (u, x) over all blocks, as
    sc_traverse does.

    Each kind of pass has its own slice budget (see sc.chunked_batches):
    breadth-first slices are cache-sized, so construction and the lossless
    encoder hold the evidence of a few blocks per thread at a time, while
    depth-first slices are large, so a coded batch shares one walk of the
    tree.
    """
    slices = list(chunked_batches(n_blocks, len(chains), block_len,
                                  breadth_first=known is not None))

    def evidence(start, stop):
        # one chain needs no stacked copy, only a leading chain axis
        return (chains[0](start, stop)[None] if len(chains) == 1
                else np.stack([chain(start, stop) for chain in chains]))

    if known is not None:
        def work(start, stop):
            out = []
            sc_traverse(evidence(start, stop),
                        lambda leaves, llr: out.append(stats(llr, start, stop)),
                        known=known[start:stop])
            return out[0]

        _run_slices(work, fold or (lambda _: None), slices)
        return None
    u = np.empty((n_blocks, block_len), dtype=np.uint8)
    x = np.empty((n_blocks, block_len), dtype=np.uint8)
    for start, stop in slices:
        # plain arguments, not **: a ** call keeps its argument tuple, and
        # with it the evidence sc_traverse frees, until the walk returns
        u[start:stop], x[start:stop] = sc_traverse(
            evidence(start, stop), None, plan=None if plan is None
            else (plan[0],) + tuple(p[start:stop] for p in plan[1:]))
    return u, x


def channel_evidence(channel: BinarySourceWithSideInfo, side):
    """(cond, prior) evidence callables of a binary channel over side-symbol
    blocks; prior is None when the channel's prior is uniform."""
    def cond(start, stop):
        return channel.leaf_evidence(side[start:stop])

    def prior(start, stop):
        return channel.prior_evidence((stop - start, side.shape[1]))

    return cond, (None if channel.prior_is_uniform else prior)


# values per pass of the log1p term of _leaf_statistics: an eighth of a
# breadth-first slice (sc._GROUP_VALUES), so its buffer takes no more
# bytes than a bool mask of the slice
_LEAF_TAIL_VALUES = 1 << 13


def _leaf_statistics(llr: np.ndarray, bits: np.ndarray):
    """Of (C, B, N) leaf LLRs along the (B, N) uint8 true bits: the (C, N)
    miss counts of map_bits and h = log2(1 + e^s), s = +-L, + for a true 1,
    L capped at +-700 so h stays finite.

    h is taken as (max(s, 0) + log1p(e^-|s|)) / ln 2, the recipe of
    np.logaddexp(0, s) run as SIMD exp and log1p calls; these differ from
    the scalar ones inside logaddexp by at most a rounding unit, which
    moves h by as much.  L is capped in llr's own buffer, which saves a
    batch-sized array, and the log1p term is taken _LEAF_TAIL_VALUES
    values at a time."""
    misses = map_bits(llr)
    misses ^= bits  # 1 where the decision misses the true bit
    misses = np.add.reduce(misses, axis=1, dtype=np.int32)
    capped = np.clip(llr, -700.0, 700.0, out=llr)
    sign = np.multiply(bits, 2, dtype=np.int8)
    sign -= 1  # 2 bit - 1
    h = np.multiply(capped, sign)  # s
    np.maximum(h, 0.0, out=h)
    flat_l, flat_h = capped.reshape(-1), h.reshape(-1)
    tail = np.empty(min(capped.size, _LEAF_TAIL_VALUES))
    for start in range(0, capped.size, _LEAF_TAIL_VALUES):
        stop = min(start + _LEAF_TAIL_VALUES, capped.size)
        part = tail[:stop - start]
        np.copysign(flat_l[start:stop], -1.0, out=part)  # -|s|
        np.exp(part, out=part)
        np.log1p(part, out=part)
        flat_h[start:stop] += part
    h /= np.log(2.0)
    return misses, h


def construct_from_evidence(x_true, cond, prior=None, *, seed: int,
                            channel_id: str, channel_name: str) -> PolarProfile:
    """Monte Carlo construction from (sample_count, N) true blocks of the
    coded variable and evidence callables over their slices (see
    traverse_batches); prior=None means a uniform prior, with no prior chain.
    The callables may be called from several threads at once.

    Each slice's statistics are computed on the thread that runs the slice,
    from that slice's blocks alone, and enter the running sums in the
    calling thread in slice order (see traverse_batches), h one block at a
    time and the integer miss counts at once, so the sums, and the
    profile, do not depend on how the blocks are sliced into passes, on how
    many threads run them or on the order in which they finish."""
    sample_count, block_len = x_true.shape
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    u_true = polar_transform(x_true)
    chains = (cond,) if prior is None else (cond, prior)
    h_sum = np.zeros((len(chains), block_len))
    miss_sum = np.zeros((len(chains), block_len), dtype=np.int64)

    def leaf_stats(llr, start, stop):  # on any thread
        return _leaf_statistics(llr, u_true[start:stop])

    def add(stats):  # in the calling thread, in slice order
        misses, h = stats
        miss_sum[:] += misses
        for block in range(h.shape[1]):
            h_sum[:] += h[:, block]

    traverse_batches(chains, sample_count, block_len, leaf_stats, known=u_true,
                     fold=add)
    h, e = h_sum / sample_count, miss_sum / sample_count
    if prior is None:  # uniform prior: every prefix-conditional law is exactly uniform
        h = np.vstack([h, np.ones(block_len)])
        e = np.vstack([e, np.full(block_len, 0.5)])
    # a plain int: a NumPy scalar seed would not serialize
    return PolarProfile(
        channel_id=channel_id, channel_name=channel_name,
        block_len=block_len, sample_count=sample_count, seed=int(seed),
        h_cond=h[0], h_prior=h[1], e_cond=e[0], e_prior=e[1],
        classes=classify_indices(h[0], None if prior is None else e[1], block_len))


def construct_profile(channel: BinarySourceWithSideInfo, block_len: int,
                      beta=None, sample_count: int = 256,
                      seed: int = 0) -> PolarProfile:
    """Monte Carlo construction over sample_count true-path traversals;
    beta must be None (see _refuse_beta)."""
    _refuse_beta(beta)
    gen = rng.stream(seed, rng.STREAM_CONSTRUCTION)
    x, y = channel.sample(sample_count, block_len, gen)
    cond, prior = channel_evidence(channel, y)
    return construct_from_evidence(
        x, cond, prior, seed=seed,
        channel_id=channel.channel_id(), channel_name=channel.name)


# ---------------------------------------------------------------------------
# profile cache (JSON, atomic writes, bit-identical reload)
# ---------------------------------------------------------------------------

# per-index arrays of a cache entry, each stored as base64 of its
# little-endian bytes in this dtype: parsing thousands of JSON numbers took
# ten times as long as decoding one string
_ARRAY_DTYPES = {"h_cond": "<f8", "h_prior": "<f8", "e_cond": "<f8",
                 "e_prior": "<f8", "classes": "<i1"}


def profile_cache_key(channel_id: str, block_len: int, sample_count: int,
                      seed: int) -> str:
    return f"profile_{channel_id}_n{block_len}_s{sample_count}_r{seed}"


def profile_path(cache_dir, key: str) -> Path:
    return Path(cache_dir) / f"{key}.json"


def save_profile(profile: PolarProfile, cache_dir) -> Path:
    payload = {
        "version": PROFILE_CACHE_VERSION,
        "kind": "profile",
        "channel_id": profile.channel_id,
        "channel_name": profile.channel_name,
        "N": profile.block_len,
        "sample_count": profile.sample_count,
        "seed": profile.seed,
    }
    for name, dtype in _ARRAY_DTYPES.items():
        raw = getattr(profile, name).astype(dtype).tobytes()
        payload[name] = base64.b64encode(raw).decode("ascii")
    key = profile_cache_key(profile.channel_id, profile.block_len,
                            profile.sample_count, profile.seed)
    return atomic_write_text(profile_path(cache_dir, key), json.dumps(payload))


def _typed(value, types):
    """value if its type is one of types; ValueError otherwise, so that no
    bool, numeric string or fractional count in a cache entry is cast into
    a valid-looking profile."""
    if type(value) not in types:
        raise ValueError(f"cache entry value of the wrong type: {value!r:.60}")
    return value


def _array(text, dtype) -> np.ndarray:
    """A cache entry's array from its base64 text, in native byte order;
    ValueError for a value that is not base64 of whole dtype items (the
    profile checks the length, finiteness and classes)."""
    raw = base64.b64decode(_typed(text, {str}), validate=True)
    return np.frombuffer(raw, dtype=dtype).astype(np.dtype(dtype).newbyteorder("="))


def load_profile(path) -> PolarProfile:
    data = json.loads(Path(path).read_text())
    if data.get("version") != PROFILE_CACHE_VERSION or data.get("kind") != "profile":
        raise ValueError(f"unrecognized profile file: {path}")
    return PolarProfile(
        channel_id=data["channel_id"], channel_name=data.get("channel_name", ""),
        block_len=_typed(data["N"], {int}),
        sample_count=_typed(data["sample_count"], {int}),
        seed=_typed(data["seed"], {int}),
        **{name: _array(data[name], dtype) for name, dtype in _ARRAY_DTYPES.items()})


def load_cached_profile(cache_dir, header):
    """The profile cached for header = (channel_id, N, sample_count, seed)
    if its entry is readable and was built for header; None, a cache
    miss, otherwise."""
    path = profile_path(cache_dir, profile_cache_key(*header))
    if not path.exists():
        return None
    try:
        p = load_profile(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            OverflowError):
        return None
    built_for = (p.channel_id, p.block_len, p.sample_count, p.seed)
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
                             cache_dir, beta=None,
                             sample_count: int = 256, seed: int = 0) -> PolarProfile:
    """Load the profile from the cache directory or construct and store it.

    An entry that is unreadable or was built for other parameters is
    rebuilt and overwritten.  beta must be None (see _refuse_beta).
    """
    _refuse_beta(beta)
    header = (channel.channel_id(), block_len, sample_count, seed)
    (profile,) = cached_profiles(cache_dir, [header], lambda: [construct_profile(
        channel, block_len, sample_count=sample_count, seed=seed)])
    return profile
