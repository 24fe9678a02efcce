"""Gray-Wyner extraction benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload dsbs_cold --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` of the checkout; nothing is built or
installed.  The run is single-process and single-threaded (BLAS and OpenMP
pools are pinned to one thread before NumPy loads).  With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced run.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (stamp, per-op seeds and figures, self-checks, spans) is written to
``.perfbench_out/`` in the checkout.  See ``perfbench/README.md`` for the
metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402  (loaded before the timed library import)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    """Content hash of the library sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "graywyner").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(args, import_s: float) -> dict:
    import scipy
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "library_import_s": import_s,
        "started_unix": time.time(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark's")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if not (SRC / "graywyner" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import graywyner.dsbs  # noqa: F401
    import graywyner.gaussian  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(graywyner.__file__).resolve().parent != SRC / "graywyner":
        print(f"error: graywyner imported from {graywyner.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        record = workloads.run_workload(w, args.seed, args.seconds,
                                        bool(args.trace), workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["stamp"] = stamp(args, import_s)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    for violation in record["self_check_violations"]:
        print(f"SELF-CHECK FAILED: {violation}", file=sys.stderr)
    for op in record["ops"]:
        for error in op["errors"]:
            print(f"op {op['index']} ({op['kind']}) failed: {error}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
