#!/usr/bin/env python3
"""Ranking micro-benchmark: `predictor.top_k` against the whole-matrix
lexsort it replaced (`tests/oracles.py::lexsort_top_k`).

    PYTHONPATH=src python3 scripts/rank_bench.py [--seed 0] [--k 5] [--repeat 3]

The input has the shape of a fused label-score matrix at Delicious-200K's
label side: 20,000 queries with 435 distinct labels each out of L = 983, in
ascending label order as `W @ Y` stores them. Scores are rounded to three
decimals, so rows hold many ties. The script checks that both rankings have
the same bits and prints the median time of each.
"""

import argparse
import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from oracles import lexsort_top_k  # noqa: E402

from ogeec.predictor import top_k  # noqa: E402

QUERIES, PER_ROW, LABELS = 20_000, 435, 983


def fused_shape(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays of QUERIES rows, each PER_ROW distinct labels of LABELS with
    rounded scores skewed towards 0."""
    rng = np.random.default_rng(seed)
    indices = np.empty((QUERIES, PER_ROW), dtype=np.int32)
    for a in range(0, QUERIES, 1000):  # 8 MB of sort keys at a time
        keys = rng.random((min(1000, QUERIES - a), LABELS))
        indices[a : a + 1000] = np.sort(np.argpartition(keys, PER_ROW, axis=1)[:, :PER_ROW])
    data = np.round(rng.random(QUERIES * PER_ROW) ** 4, 3)
    return data, indices.ravel(), np.arange(QUERIES + 1, dtype=np.int64) * PER_ROW


def median_time(rank, repeat: int):
    seconds, result = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = rank()
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds), result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=5, help="labels ranked per row")
    parser.add_argument("--repeat", type=int, default=3, help="timed runs of each ranking")
    args = parser.parse_args()
    data, indices, indptr = fused_shape(args.seed)
    ref_s, (ref_index, ref_top) = median_time(
        lambda: lexsort_top_k(data, indices, indptr, args.k), args.repeat
    )
    new_s, (index, top) = median_time(lambda: top_k((data, indices, indptr), args.k), args.repeat)
    if not (np.array_equal(index, ref_index) and np.array_equal(top.view(np.int64), ref_top.view(np.int64))):
        print("top_k and lexsort_top_k disagree", file=sys.stderr)
        return 1
    print(f"{QUERIES} x {PER_ROW} entries of L = {LABELS}, K = {args.k}, seed {args.seed}, "
          f"median of {args.repeat}: lexsort_top_k {ref_s:.2f} s, top_k {new_s:.3f} s "
          f"({ref_s / new_s:.1f}x), identical bits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
