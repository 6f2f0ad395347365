#!/usr/bin/env python3
"""What BLAS's idle threads cost after one search tile GEMM, per workload.

    python3 scripts/blas_idle.py [--children 7] [--threads 2]

The program is imported from the checkout's own `src/`.

For each workload of `perfbench/workloads.py` the script takes the shape of
its first search screen tile: min(n_test, 2**21 // n_train) queries of r
floats against n_train training columns, float32, as `predictor._search`
multiplies them. Each child process imports `ogeec`, makes that one GEMM,
then idles for 0.4 s, and reports its CPU time over that window (every
thread) and the GEMM's wall time. Children run with OPENBLAS_THREAD_TIMEOUT=28
(OpenBLAS's built-in default) and with the variable unset (the package
default), alternating; the script prints the median of each.
"""

import argparse
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

from ogeec.predictor import _TILE_FLOATS  # noqa: E402

CHILD = """
import resource, sys, time
import ogeec
import numpy as np

m, r, n = map(int, sys.argv[1:])
rng = np.random.default_rng(0)
queries = rng.standard_normal((m, r)).astype(np.float32)
train = rng.standard_normal((r, n)).astype(np.float32)
usage = resource.getrusage(resource.RUSAGE_SELF)
start = usage.ru_utime + usage.ru_stime
t0 = time.perf_counter()
queries @ train
gemm_s = time.perf_counter() - t0
time.sleep(0.4)
usage = resource.getrusage(resource.RUSAGE_SELF)
print(usage.ru_utime + usage.ru_stime - start, gemm_s)
"""


def child(tile: tuple[int, int, int], threads: int, timeout: str | None) -> tuple[float, float]:
    """(CPU s, GEMM wall s) of one child; timeout None leaves the variable unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *map(str, tile)],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    ).stdout.split()
    return float(out[0]), float(out[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--children", type=int, default=7, help="children per setting")
    parser.add_argument("--threads", type=int, default=2, help="OPENBLAS_NUM_THREADS")
    args = parser.parse_args()
    settings = {"28": "28", "default": None}
    print("workload\tqueries x r x n_train\t" + "\t".join(
        f"{name} {what}" for name in settings for what in ("cpu_ms", "gemm_ms")
    ))
    for name, workload in WORKLOADS.items():
        shape, argv = workload.shape, workload.setup.argv
        r = int(argv[argv.index("--r") + 1])
        tile = (min(shape.n_test, _TILE_FLOATS // shape.n_train), r, shape.n_train)
        runs: dict[str, list[tuple[float, float]]] = {s: [] for s in settings}
        for i in range(args.children):
            order = list(settings) if i % 2 == 0 else list(settings)[::-1]
            for s in order:
                runs[s].append(child(tile, args.threads, settings[s]))
        cells = [
            f"{statistics.median(run[j] for run in runs[s]) * 1000:.1f}"
            for s in settings
            for j in (0, 1)
        ]
        print(f"{name}\t{' x '.join(map(str, tile))}\t" + "\t".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
