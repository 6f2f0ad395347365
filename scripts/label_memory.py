#!/usr/bin/env python3
"""Label-side memory benchmark: the tracemalloc peak and time of
`predictor.rank_labels`, the one label pass from neighbours to rankings.

    PYTHONPATH=src python3 scripts/label_memory.py [--seed 0] [--k 5] [--repeat 3]

The input is a synthetic fused label side at Delicious-200K's label shape:
2,000 train samples with 75 labels each, drawn uniformly from L = 983, and
E = 5 learners of 5 random neighbours per query with similarities in
[0, 1), at 2,000 and 20,000 queries (about 320 labels per query per
learner, 846 fused). For each query count the script prints the median time
of `rank_labels`, then its tracemalloc peak in a separate run, in all and
per query. The label side holds one dense block of scores at a time, at
most `predictor._LABEL_FLOATS` float64s (4 MB, 533 queries here), so from
2,000 to 20,000 queries the peak grows only by the (m, K) output and the
peak per query falls. It exits 1 unless the ranking has
the bits of `top_k` of the scipy scores (`tests/oracles.py`,
`sp_label_scores`), which it computes 2,000 queries at a time, as each row
depends only on its own neighbours.
"""

import argparse
import pathlib
import statistics
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from oracles import from_scipy, sp_label_scores  # noqa: E402

from ogeec.csr import CSR  # noqa: E402
from ogeec.predictor import rank_labels, top_k  # noqa: E402

TRAIN, PER_SAMPLE, LABELS, LEARNERS, NEIGHBOURS = 2_000, 75, 983, 5, 5
QUERIES = (2_000, 20_000)
ORACLE_ROWS = 2_000


def label_matrix(rng) -> CSR:
    """Y: TRAIN samples of PER_SAMPLE distinct labels each, ascending."""
    keys = rng.random((TRAIN, LABELS))
    indices = np.sort(np.argpartition(keys, PER_SAMPLE, axis=1)[:, :PER_SAMPLE]).ravel()
    indptr = np.arange(TRAIN + 1, dtype=np.int64) * PER_SAMPLE
    return CSR(np.ones(indices.size), indices, indptr, (TRAIN, LABELS))


def neighbours(rng, m: int):
    """LEARNERS (m, NEIGHBOURS) index and similarity arrays."""
    return [
        (rng.integers(0, TRAIN, (m, NEIGHBOURS)), rng.random((m, NEIGHBOURS)))
        for _ in range(LEARNERS)
    ]


def same_as_oracle(learners, Y: CSR, K: int, ranking) -> bool:
    for a in range(0, len(ranking[0]), ORACLE_ROWS):
        rows = [(index[a : a + ORACLE_ROWS], sims[a : a + ORACLE_ROWS]) for index, sims in learners]
        labels, scores = top_k(from_scipy(sp_label_scores(rows, Y)), K)
        if not (
            np.array_equal(labels, ranking[0][a : a + ORACLE_ROWS])
            and np.array_equal(scores.view(np.int64), ranking[1][a : a + ORACLE_ROWS].view(np.int64))
        ):
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=5, help="labels ranked per query")
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per query count")
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    Y = label_matrix(rng)
    for m in QUERIES:
        learners = neighbours(rng, m)
        seconds = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            ranking = rank_labels(learners, Y, args.k)
            seconds.append(time.perf_counter() - t0)
        del ranking
        tracemalloc.start()
        try:
            ranking = rank_labels(learners, Y, args.k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if not same_as_oracle(learners, Y, args.k, ranking):
            print(f"{m} queries: rank_labels and the scipy oracle disagree", file=sys.stderr)
            return 1
        print(
            f"{m} queries, E = {LEARNERS}, K = {args.k}, seed {args.seed}: "
            f"median of {args.repeat} {statistics.median(seconds):.3f} s, "
            f"tracemalloc peak {peak / 2**20:.1f} MiB ({peak / m / 1024:.2f} KiB per query), "
            "identical bits"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
