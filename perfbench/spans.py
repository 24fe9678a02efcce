"""In-memory span tracing around graywyner's layer boundaries.

The tracer patches the public functions each layer exposes, at the module
names their callers look them up by (``graywyner.dsbs.pipelines.
construct_profile``, ``graywyner.polar.profile.sc_traverse``,
``graywyner.lattice.sc_traverse`` and so on), and restores them on exit.
Nothing under ``src/`` changes.  Each call inside an op becomes one span
(name, start, end, parent, op id) kept in memory; calls outside an op run
untraced.  The SC engine's ``decide`` callback is timed in aggregate on its
span rather than as one span per leaf, so the span count stays small.

``layer_counts`` turns the spans of one op into per-layer counts and
times, and ``per_op_metrics`` averages them over ops.  Self time is a
span's duration minus the time its child spans (and, for SC, the
callbacks) cover; the program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass, field

# (span name, module, attribute).  A function reached under several module
# names is patched under each, so every caller's lookup goes through a span.
TARGETS = (
    ("pipeline", "graywyner.dsbs.pipelines", "run_dsbs_pipeline"),
    ("pipeline", "graywyner.gaussian.pipelines", "extract_common"),
    ("pipeline", "graywyner.gaussian.pipelines", "refine_private_eps10"),
    ("construct", "graywyner.dsbs.pipelines", "construct_profile"),
    ("construct", "graywyner.polar.profile", "construct_profile"),
    ("profile_cache.lookup", "graywyner.dsbs.pipelines", "construct_profile_cached"),
    ("profile_cache.load", "graywyner.polar.profile", "load_profile"),
    ("profile_cache.load", "graywyner.lattice", "load_profile"),
    ("profile_cache.save", "graywyner.polar.profile", "save_profile"),
    ("profile_cache.save", "graywyner.lattice", "save_profile"),
    ("sc", "graywyner.polar.profile", "sc_traverse"),
    ("sc", "graywyner.polar.coding", "sc_traverse"),
    ("sc", "graywyner.lattice", "sc_traverse"),
    ("transform", "graywyner.polar.profile", "polar_transform"),
    ("transform", "graywyner.polar.coding", "polar_transform"),
    ("transform", "graywyner.lattice", "polar_transform"),
    ("channel.sample", "graywyner.polar.channel.BinarySourceWithSideInfo", "sample"),
    ("rng.stream", "graywyner.rng", "stream"),
    ("rng.block", "graywyner.rng", "block_bits"),
    ("rng.block", "graywyner.rng", "block_uniforms"),
    ("lossy_encode", "graywyner.dsbs.pipelines", "sc_lossy_encode"),
    ("lossy_reconstruct", "graywyner.dsbs.pipelines", "sc_lossy_reconstruct"),
    ("lossless_encode", "graywyner.dsbs.pipelines", "sc_lossless_encode"),
    ("lossless_decode", "graywyner.dsbs.pipelines", "sc_lossless_decode"),
    ("lattice.build", "graywyner.gaussian.pipelines", "build_multilevel_code"),
    ("lattice.quantize", "graywyner.gaussian.pipelines", "lattice_quantize"),
    ("lattice.reconstruct", "graywyner.gaussian.pipelines", "lattice_reconstruct"),
    ("flatness", "graywyner.lattice", "flatness_factor"),
)

# which caller an SC pass serves, found from its nearest such ancestor
_SC_CONTEXT = {
    "construct": "construct",
    "lossy_encode": "coding",
    "lossy_reconstruct": "coding",
    "lossless_encode": "coding",
    "lossless_decode": "coding",
    "lattice.build": "lattice",
    "lattice.quantize": "lattice",
    "lattice.reconstruct": "lattice",
}


@dataclass
class Span:
    name: str
    op_id: object
    parent: int
    start: float
    end: float = 0.0
    covered: float = 0.0  # time covered by child spans and SC callbacks
    decide_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def busy(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.busy - self.covered


def _resolve(path: str):
    """Module or module-level class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _argument(fn, name: str):
    """Reader of one named argument of fn from a call's (args, kwargs)."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return read


def _probe(name: str, fn):
    """Per-span counters read from a call's arguments and result."""
    if name == "sc":
        def probe(span, args, kwargs, result):
            c, b, n, _ = args[0].shape
            span.info["leaves"] = c * b * n
    elif name == "construct":
        read = [_argument(fn, k) for k in
                ("channel", "block_len", "beta", "sample_count", "seed")]

        def probe(span, args, kwargs, result):
            channel, *rest = (r(args, kwargs) for r in read)
            span.info["key"] = (channel.channel_id(), *rest)
    elif name == "lattice.build":
        read = [_argument(fn, k) for k in
                ("chain", "mmse", "block_len", "beta", "sample_count", "seed")]

        def probe(span, args, kwargs, result):
            key = tuple(r(args, kwargs) for r in read)
            span.info["key"] = key
            span.info["levels"] = key[0].levels
    elif name == "lattice.reconstruct":
        def probe(span, args, kwargs, result):
            span.info["levels"] = len(args[0])
    elif name == "profile_cache.save":
        def probe(span, args, kwargs, result):
            span.info["bytes"] = result.stat().st_size
    elif name == "lossless_encode":
        def probe(span, args, kwargs, result):
            span.info["blocks"] = result.n_blocks
            span.info["corrections"] = sum(len(c) for c in result.corrections)
    elif name in ("lossy_encode", "lossy_reconstruct"):
        def probe(span, args, kwargs, result):
            span.info["blocks"] = len(args[0])
    else:
        probe = None
    return probe


class Tracer:
    """Records spans for calls made inside ``with tracer.op(op_id):``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_id = None

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for name, path, attr in TARGETS:
                owner = _resolve(path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self, op_id):
        """Trace the calls made in the block as the spans of one op."""
        if self._op_id is not None:
            raise RuntimeError("ops do not nest")
        self._op_id = op_id
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)
            self._op_id = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._op_id, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].covered += span.busy

    def _timed_decide(self, span: Span, decide):
        def timed(i, posteriors):
            t0 = time.perf_counter()
            try:
                return decide(i, posteriors)
            finally:
                dt = time.perf_counter() - t0
                span.decide_s += dt
                span.covered += dt
        return timed

    def _wrap(self, name: str, fn):
        probe = _probe(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                if name == "sc":
                    result = fn(args[0], tracer._timed_decide(span, args[1]),
                                *args[2:], **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if probe is not None:
                probe(span, args, kwargs, result)
            return result

        return traced


def _context(spans: list[Span], index: int, table: dict):
    parent = spans[index].parent
    while parent >= 0:
        kind = table.get(spans[parent].name)
        if kind is not None:
            return kind
        parent = spans[parent].parent
    return None


def layer_counts(spans: list[Span], op_id) -> Counter:
    """Additive per-layer counts and times for the spans of one op.

    Ratios are formed later from summed numerators and denominators, so
    ops of different sizes combine correctly.
    """
    c = Counter()
    keys = {"construct": set(), "lattice.build": set()}
    reconstructs_with_sc = set()
    for idx, s in enumerate(spans):
        if s.op_id != op_id:
            continue
        if s.name in ("construct", "lattice.build"):
            c[f"{s.name}.calls"] += 1
            c[f"{s.name}.busy_s"] += s.busy
            c[f"{s.name}.self_s"] += s.self_time
            keys[s.name].add(s.info["key"])
            c["lattice.levels"] += s.info.get("levels", 0)
            if s.name == "construct" and spans[s.parent].name == "profile_cache.lookup":
                c["profile_cache.misses"] += 1
        elif s.name == "sc":
            c["sc.calls"] += 1
            c["sc.busy_s"] += s.busy
            c["sc.self_s"] += s.self_time
            c["sc.decide_s"] += s.decide_s
            c["sc.leaves"] += s.info["leaves"]
            kind = _context(spans, idx, _SC_CONTEXT)
            if kind is not None:
                c[f"sc.{kind}.busy_s"] += s.busy
            if kind == "construct":
                c["construct.leaves"] += s.info["leaves"]
            if spans[s.parent].name == "lossy_reconstruct":
                reconstructs_with_sc.add(s.parent)
            elif spans[s.parent].name == "lattice.reconstruct":
                c["lattice.reconstruct.sc_passes"] += 1
        elif s.name == "profile_cache.load":
            c["profile_cache.hits"] += 1
            c["profile_cache.load_s"] += s.busy
        elif s.name == "profile_cache.save":
            c["profile_cache.save_s"] += s.busy
            c["profile_cache.bytes_written"] += s.info["bytes"]
        elif s.name in ("lossy_encode", "lossless_decode", "lattice.quantize"):
            c[f"{s.name}.busy_s"] += s.busy
            if s.name == "lossy_encode":
                c["lossy_encode.blocks"] += s.info["blocks"]
        elif s.name == "lossless_encode":
            c["lossless_encode.busy_s"] += s.busy
            c["lossless.blocks"] += s.info["blocks"]
            c["lossless.corrections"] += s.info["corrections"]
        elif s.name in ("lossy_reconstruct", "lattice.reconstruct"):
            c[f"{s.name}.busy_s"] += s.busy
            c[f"{s.name}.calls"] += 1
            c["replay.busy_s"] += s.busy
            if s.name == "lattice.reconstruct":
                c["lattice.reconstruct.levels"] += s.info["levels"]
        elif s.name == "transform":
            c["transform.calls"] += 1
            c["transform.busy_s"] += s.busy
        elif s.name == "channel.sample":
            c["channel.sample_s"] += s.busy
        elif s.name in ("rng.block", "rng.stream"):
            c["rng.busy_s"] += s.busy
            if s.name == "rng.block":
                c["rng.block_calls"] += 1
        elif s.name == "flatness":
            c["flatness.busy_s"] += s.busy
    for name, seen in keys.items():
        c[f"{name}.unique"] += len(seen)
    c["lossy_reconstruct.sc_free"] += (c["lossy_reconstruct.calls"]
                                       - len(reconstructs_with_sc))
    return c


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metric names, in the order they are reported
LAYER_METRICS = (
    "construct.calls", "construct.busy_s", "construct.self_s",
    "construct.leaves", "construct.unique_ratio",
    "profile_cache.hits", "profile_cache.misses", "profile_cache.load_s",
    "profile_cache.save_s", "profile_cache.bytes_written",
    "sc.calls", "sc.busy_s", "sc.self_s", "sc.decide_s", "sc.leaves",
    "sc.leaves_per_s", "sc.construct.busy_s", "sc.coding.busy_s",
    "sc.lattice.busy_s",
    "lossy_encode.busy_s", "lossy_encode.blocks", "lossy_reconstruct.busy_s",
    "lossless_encode.busy_s", "lossless_decode.busy_s", "lossless.blocks",
    "replay.busy_s", "lossy_reconstruct.sc_free_ratio",
    "lossless.corrections_per_block",
    "transform.calls", "transform.busy_s", "channel.sample_s",
    "rng.block_calls", "rng.busy_s",
    "lattice.build.calls", "lattice.build.busy_s", "lattice.build.self_s",
    "lattice.build.unique_ratio", "lattice.levels",
    "lattice.quantize.busy_s", "lattice.reconstruct.busy_s",
    "lattice.reconstruct.sc_free_ratio",
    "flatness.busy_s",
)


def per_op_metrics(counts: Counter, n_ops: int) -> dict:
    """Per-layer metrics from counts summed over n_ops ops.

    Counts and times are means per op; ratios divide summed numerators by
    summed denominators (0 when the layer did no work).
    """
    out = {name: counts[name] / n_ops for name in LAYER_METRICS}
    out["construct.unique_ratio"] = ratio(counts["construct.unique"],
                                          counts["construct.calls"])
    out["lattice.build.unique_ratio"] = ratio(counts["lattice.build.unique"],
                                              counts["lattice.build.calls"])
    out["sc.leaves_per_s"] = ratio(counts["sc.leaves"], counts["sc.busy_s"])
    out["lossless.corrections_per_block"] = ratio(counts["lossless.corrections"],
                                                  counts["lossless.blocks"])
    out["lossy_reconstruct.sc_free_ratio"] = ratio(
        counts["lossy_reconstruct.sc_free"], counts["lossy_reconstruct.calls"])
    # one SC pass per level that needs one: the op batches fit one chunk
    levels = counts["lattice.reconstruct.levels"]
    out["lattice.reconstruct.sc_free_ratio"] = ratio(
        max(0, levels - counts["lattice.reconstruct.sc_passes"]), levels)
    return out
