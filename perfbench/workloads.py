"""Workloads of the Gray-Wyner extraction benchmark.

One op is one full pipeline call through the public API.  Op i of a run
with workload seed s uses source seed 1000*s + i; cold workloads also give
it construction seed 1000*s + i (the two seeds feed separate random
streams), so no two ops of a run share a construction, while the warm
workload shares construction seed 1000*s across all ops and fills the
profile cache for it in set-up.

* ``dsbs_cold``: DsbsModel(0.11), N=4096, 10 blocks, no cache; ops
  alternate PointG and LossyTinyBoth(0.05).  Construction dominates, which
  is what a user pays on any new parameter set.
* ``dsbs_warm``: the same points with 64 blocks per op and a cache filled
  in set-up.  Construction is idle; SC decoding, the coders, replay and
  cache loads do the work.
* ``gaussian_cold``: extract_common(GaussianPairModel(0.8), N=2048, 10
  blocks) then refine_private_eps10(0.1, 0.1), no cache.  Lattice build
  dominates; the only workload that reaches ``graywyner.lattice``.

Each op's output is checked (nonnegative rates, exact lossless branches,
the lossless cut-set bounds); a failed check or an exception raised by the
op, such as a replay mismatch, is recorded with its message and counted
without ending the run.
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from graywyner.dsbs import pipelines as dsbs_pipelines
from graywyner.dsbs.model import DsbsModel
from graywyner.gaussian import pipelines as gaussian_pipelines
from graywyner.gaussian.model import GaussianPairModel

from spans import LAYER_METRICS, Tracer, layer_counts, per_op_metrics, ratio

DSBS_MODEL = DsbsModel(0.11)
DSBS_DELTA = 0.05
GAUSS_MODEL = GaussianPairModel(0.8)
GAUSS_TARGET = 0.1
SETUP_REPEATS = 2
MIN_GROUPS = 2  # op groups every run makes, however short --seconds is
# a lossy block whose distortion exceeds this multiple of its target is a
# tail block: SC decisions that went astray and erred in a streak
TAIL_RATIO = 1.5
# seconds the calibration kernel takes on the reference box (2-core Intel
# Xeon VM); op and set-up times are reported at that machine speed
CALIBRATION_REFERENCE_S = 0.12
CALIBRATION_REPEATS = 3  # kernel runs before each op and after the last
# set-up layer counts reported under a "setup." prefix (per set-up)
SETUP_LAYER_METRICS = ("construct.calls", "construct.busy_s", "sc.busy_s",
                       "profile_cache.save_s", "profile_cache.bytes_written")

END_TO_END_UNITS = {
    "op_s": "s", "symbols_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "ratio", "rate_ratio": "ratio", "dist_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    kinds: tuple  # op kinds, run in this order as one group of ops
    block_len: int
    n_blocks: int
    sample_count: int
    warm: bool

    @property
    def lossy_kinds(self) -> tuple:
        return tuple(k for k in self.kinds if k != "PointG")


DSBS_KINDS = ("PointG", "LossyTinyBoth")
WORKLOADS = {
    "dsbs_cold": Workload(DSBS_KINDS, 4096, 10, 256, warm=False),
    "dsbs_warm": Workload(DSBS_KINDS, 4096, 64, 256, warm=True),
    "gaussian_cold": Workload(("GaussianRefined",), 2048, 10, 256, warm=False),
}


def tiny(w: Workload) -> Workload:
    """The same workload at a block length small enough for a smoke test."""
    return replace(w, block_len=w.block_len // 16, n_blocks=2, sample_count=32)


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------

def _execute(w: Workload, kind: str, source_seed: int, construction_seed: int,
             cache_dir):
    common = dict(n_blocks=w.n_blocks, cache_dir=cache_dir,
                  sample_count=w.sample_count, construction_seed=construction_seed)
    if kind == "GaussianRefined":
        first = gaussian_pipelines.extract_common(
            GAUSS_MODEL, w.block_len, source_seed, **common)
        del common["n_blocks"]
        return gaussian_pipelines.refine_private_eps10(
            GAUSS_TARGET, GAUSS_TARGET, GAUSS_MODEL, first, **common)
    point = (dsbs_pipelines.PointG() if kind == "PointG"
             else dsbs_pipelines.LossyTinyBoth(DSBS_DELTA))
    return dsbs_pipelines.run_dsbs_pipeline(point, DSBS_MODEL, w.block_len,
                                            source_seed, **common)


def check_run(w: Workload, kind: str, run) -> list:
    """Problems with one op's output; empty when it is correct."""
    problems = []
    if run.r0.shape != (w.n_blocks,) or run.block_len != w.block_len:
        problems.append("run does not cover the requested blocks")
    for name in ("r0", "r1", "r2"):
        rate = getattr(run, name)
        if not (np.all(np.isfinite(rate)) and np.all(rate >= 0.0)):
            problems.append(f"rate {name} is negative or not finite")
    for name in ("dist_x", "dist_y"):
        dist = getattr(run, name)
        if not (np.all(np.isfinite(dist)) and np.all(dist >= 0.0)):
            problems.append(f"distortion {name} is negative or not finite")
    if kind == "PointG" and not problems:
        if np.any(run.dist_x != 0.0) or np.any(run.dist_y != 0.0):
            problems.append("lossless op reports nonzero distortion")
        if not run.mean_triple().satisfies_lossless_bounds(
                DSBS_MODEL.entropy_x(), DSBS_MODEL.entropy_y(),
                DSBS_MODEL.joint_entropy()):
            problems.append(f"lossless triple {run.mean_triple()} breaks the "
                            "cut-set bounds")
    return problems


def run_op(w: Workload, kind: str, index: int, source_seed: int,
           construction_seed: int, cache_dir, traced: bool) -> dict:
    """Run and check one op; exceptions are recorded, not raised."""
    record = dict(index=index, kind=kind, source_seed=source_seed,
                  construction_seed=construction_seed, traced=traced,
                  symbols=w.n_blocks * w.block_len, rate_ratio=None,
                  dist_ratio=None, dist_ratio_mean=None, tail_blocks=None,
                  errors=[])
    t0 = time.perf_counter()
    try:
        run = _execute(w, kind, source_seed, construction_seed, cache_dir)
    except Exception as exc:  # op boundary: count the failure, keep running
        run = None
        record["errors"].append(f"{type(exc).__name__}: {exc}")
    record["op_s"] = time.perf_counter() - t0
    if run is not None:
        record["errors"] += check_run(w, kind, run)
        record["rate_ratio"] = float(run.total.mean()) / run.theory.total
        if kind in w.lossy_kinds:
            ratio_x = run.dist_x / run.target_dx
            ratio_y = run.dist_y / run.target_dy
            per_block = 0.5 * (ratio_x + ratio_y)
            record["dist_ratio"] = float(np.median(per_block))
            record["dist_ratio_mean"] = float(per_block.mean())
            record["tail_blocks"] = int(np.sum(np.maximum(ratio_x, ratio_y)
                                               > TAIL_RATIO))
    record["ok"] = not record["errors"]
    return record


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def _halve(x: np.ndarray) -> None:
    if x.shape[2] == 1:
        return
    h = x.shape[2] // 2
    a, b = x[:, :, :h], x[:, :, h:]
    for mixed in (a * b[..., ::-1], a * b):
        mixed /= mixed.sum(axis=-1, keepdims=True)
        _halve(mixed)


def calibration_s() -> float:
    """Time of a fixed NumPy kernel that uses nothing from the library.

    The kernel is a binary halving recursion over (2, 64, 2048, 2) arrays:
    thousands of small array operations near the leaves and
    memory-bound ones near the root, the same mix as the library's hot
    loops.  On a shared machine, other people's load slows the whole
    process for minutes at a time, and the kernel slows with it.
    """
    x = np.random.default_rng(0).random((2, 64, 2048, 2))
    t0 = time.perf_counter()
    _halve(x)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up, the op loop and the summary
# ---------------------------------------------------------------------------

def set_up(w: Workload, seed: int, workdir: Path, tracer) -> tuple:
    """Repeat the set-up SETUP_REPEATS times; returns (median s, cache dir).

    Cold workloads warm up on one tiny op of each kind.  The warm workload
    fills a fresh profile cache at the workload's own size, one block per
    op kind, so every later op finds its profiles there.  With a tracer,
    each repeat is traced as op ("setup", repeat).
    """
    times, cache_dir = [], None
    for r in range(SETUP_REPEATS):
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        cache_dir = workdir / f"profiles-{r}" if w.warm else None
        size = replace(w, n_blocks=1) if w.warm else tiny(w)
        t0 = time.perf_counter()
        with tracer.op(("setup", r)) if tracer else contextlib.nullcontext():
            for kind in w.kinds:
                rec = run_op(size, kind, index=-1, source_seed=0,
                             construction_seed=_construction_seed(w, seed, 0),
                             cache_dir=cache_dir, traced=tracer is not None)
                if not rec["ok"]:
                    raise RuntimeError(f"set-up op {kind} failed: {rec['errors']}")
        times.append(time.perf_counter() - t0)
    return statistics.median(times), cache_dir


def _construction_seed(w: Workload, seed: int, index: int) -> int:
    return 1000 * seed + (0 if w.warm else index)


def run_ops(w: Workload, seed: int, seconds: float, trace: bool,
            cache_dir, tracer) -> tuple:
    """Run groups of ops until `seconds` have passed and at least MIN_GROUPS
    groups are done; returns (records, kernel times, wall s).

    The fixed minimum keeps the op count of the slow Gaussian workload the
    same in every run.  A traced run alternates untraced and traced groups, so the
    tracing overhead is measured on the same run.
    The tracer is installed only in traced runs, so the end-to-end figures
    carry no patched calls at all.
    """
    records, calibrations = [], []
    t_start = time.perf_counter()
    group = 0
    while group < MIN_GROUPS or time.perf_counter() - t_start < seconds:
        traced = trace and group % 2 == 1
        for kind in w.kinds:
            calibrations += [calibration_s() for _ in range(CALIBRATION_REPEATS)]
            i = len(records)
            args = (w, kind, i, 1000 * seed + i, _construction_seed(w, seed, i),
                    cache_dir, traced)
            if traced:
                with tracer.op(i):
                    records.append(run_op(*args))
            else:
                records.append(run_op(*args))
        group += 1
    wall_s = time.perf_counter() - t_start
    calibrations += [calibration_s() for _ in range(CALIBRATION_REPEATS)]
    return records, calibrations, wall_s


def _per_kind(records, key: str, kinds, stat) -> float:
    """Mean over op kinds of stat over the kind's ops, so the op mix of a
    short run does not move the figure; 0 when no op has the value."""
    values = []
    for kind in kinds:
        of_kind = [r[key] for r in records if r["kind"] == kind and r[key] is not None]
        if of_kind:
            values.append(stat(of_kind))
    return statistics.fmean(values) if values else 0.0


def machine_scale(calibrations) -> float:
    """Factor that turns this run's times into reference-box times."""
    return CALIBRATION_REFERENCE_S / statistics.fmean(calibrations)


def end_to_end(w: Workload, records, setup_s: float, scale: float) -> dict:
    """End-to-end metrics of one run; times are scaled by `scale`.

    Op time is the mean op time of each kind, scaled by the reference
    kernel time over the run's mean kernel time: kernel runs are spread
    over the run like the ops, so both means see the same average machine
    load.  On two sets of ten runs per workload on the reference box,
    scaling cut the run-to-run spread of op_s from 0.12-0.19 (raw means)
    to 0.05-0.14; raw per-op and kernel times stay in the record.

    Quality figures take the median per kind, and an op's distortion is
    that of its median block: lossy blocks are heavy-tailed (the blocks of
    one Gaussian op ranged from 1.0 to 6.3 times the target), so a mean
    over ten blocks swings with a single streak.  The tail is reported per
    layer as lossy.tail_block_frac, and each op's block mean stays in the
    record.
    """
    ok = [r for r in records if r["ok"]]
    op_s = _per_kind(records, "op_s", w.kinds, statistics.fmean) * scale
    return {
        "op_s": op_s,
        "symbols_per_s": w.n_blocks * w.block_len / op_s,
        "setup_s": setup_s * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(ok) / len(records),
        "rate_ratio": _per_kind(ok, "rate_ratio", w.kinds, statistics.median),
        "dist_ratio": _per_kind(ok, "dist_ratio", w.lossy_kinds, statistics.median),
    }


def self_checks(w: Workload, records, op_counts: dict) -> list:
    """Violations of what the workload claims to exercise."""
    bad = []
    if not w.warm:
        seeds = [r["construction_seed"] for r in records]
        if len(set(seeds)) != len(seeds):
            bad.append("two cold ops share a construction seed")
    for i, c in op_counts.items():
        if w.warm and (c["construct.calls"] or c["profile_cache.misses"]
                       or not c["profile_cache.hits"]):
            bad.append(f"warm op {i} constructed a profile or missed the cache")
        if w.kinds[0] == "GaussianRefined":
            if c["construct.calls"]:
                bad.append(f"gaussian op {i} ran a binary construction")
        elif c["lattice.build.calls"]:
            bad.append(f"dsbs op {i} built a lattice")
    return bad


def layer_report(w: Workload, records, tracer: Tracer, op_counts: dict) -> dict:
    total = sum(op_counts.values(), Counter())
    out = per_op_metrics(total, len(op_counts))
    setup = [layer_counts(tracer.spans, ("setup", r)) for r in range(SETUP_REPEATS)]
    setup_metrics = per_op_metrics(sum(setup, Counter()), len(setup))
    for name in SETUP_LAYER_METRICS:
        out[f"setup.{name}"] = setup_metrics[name]
    overheads = []
    for kind in w.kinds:
        traced = [r["op_s"] for r in records if r["kind"] == kind and r["traced"]]
        plain = [r["op_s"] for r in records if r["kind"] == kind and not r["traced"]]
        overheads.append(statistics.median(traced) / statistics.median(plain) - 1.0)
    out["trace.overhead_frac"] = statistics.fmean(overheads)
    lossy = [r for r in records if r["traced"] and r["tail_blocks"] is not None]
    out["lossy.tail_block_frac"] = ratio(sum(r["tail_blocks"] for r in lossy),
                                          w.n_blocks * len(lossy))
    return out


def per_layer_names() -> tuple:
    return (LAYER_METRICS + tuple(f"setup.{n}" for n in SETUP_LAYER_METRICS)
            + ("lossy.tail_block_frac", "trace.overhead_frac"))


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, import_s: float) -> dict:
    """Set up, run and summarise one workload; returns the full record.

    import_s, the time the library took to import, counts as set-up: it is
    paid once per process, so it is added to the median set-up repeat.
    """
    tracer = Tracer() if trace else None
    with tracer.installed() if trace else contextlib.nullcontext():
        setup_s, cache_dir = set_up(w, seed, workdir, tracer)
        records, calibrations, wall_s = run_ops(w, seed, seconds, trace,
                                                cache_dir, tracer)
    if cache_dir is not None:
        shutil.rmtree(cache_dir)
    op_counts = {r["index"]: layer_counts(tracer.spans, r["index"])
                 for r in records if r["traced"]}
    checks = self_checks(w, records, op_counts)
    if trace:
        metrics = layer_report(w, records, tracer, op_counts)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(w, records, import_s + setup_s,
                             machine_scale(calibrations))
        units = END_TO_END_UNITS
    return dict(
        correct=not checks and all(r["ok"] for r in records),
        attempted=len(records),
        failed=sum(not r["ok"] for r in records),
        metrics={k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        self_check_violations=checks,
        ops=records,
        op_s_median={k: statistics.median(r["op_s"] for r in records if r["kind"] == k)
                     for k in w.kinds},
        traced_op_count=len(op_counts),
        calibration_s=calibrations,
        machine_scale=machine_scale(calibrations),
        setup_s_unscaled=import_s + setup_s,
        run_wall_s=wall_s,
        setup_repeats=SETUP_REPEATS,
        spans=[(s.name, s.start, s.end, s.parent, s.op_id)
               for s in (tracer.spans if trace else ())],
    )


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"
