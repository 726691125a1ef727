#!/usr/bin/env python3
"""Entry point of the combword benchmark.

    python3 benchmark/run.py --workload train-pal10 --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from `src/` of the
same checkout. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give the
environment and every metric in readable form. See bench.py for the
workloads and BENCHMARK.json for the metrics.
"""

from time import perf_counter

T_START = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def cap_blas_threads() -> None:
    """Keep BLAS at no more threads than this process may run on (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc)


def main() -> int:
    if not (SRC / "combword" / "__init__.py").is_file():
        print(f"benchmark: no combword package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import bench

    return bench.main(sys.argv[1:], perf_counter() - T_START)


if __name__ == "__main__":
    sys.exit(main())
