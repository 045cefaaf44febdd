"""pixtext benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload train-post --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Workloads: train-post, train-pre, infer-cached (see workloads.py and
NOTES.md). ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` installs span wrappers around every pixtext layer and reports
the per-layer metrics, writing the spans to ``.perfbench/traces/``.

Standard output ends with two JSON lines: the full record (machine block,
checks, samples), then the result object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
imported from ``src/`` next to this directory and nowhere else; without
it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_imports():
    """Pin BLAS to one thread and make `src/pixtext` the only importable
    pixtext. The thread pin only takes effect if numpy is not loaded yet."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "pixtext" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pixtext sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pixtext

    if Path(pixtext.__file__).resolve().parent != SRC / "pixtext":
        raise SystemExit(f"perfbench: imported pixtext from {pixtext.__file__}, not {SRC}")


def _blas_threads_in_use():
    """Ask the loaded OpenBLAS how many threads it runs, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 prints its config and returns nothing
        blas = {}
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="print per-metric deltas between two files of records")
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if not args.workload:
        parser.error("--workload is required")

    prepare_imports()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    scratch = ROOT / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}"
    record = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        workdir=scratch / f"work-{os.getpid()}",
        trace_path=scratch / "traces" / f"{tag}.json.gz" if args.trace else None,
    )
    record["machine"] = machine_block()
    for why in record["failures"]:
        print(f"perfbench: check failed: {why}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
