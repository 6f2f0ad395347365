#!/usr/bin/env python3
"""Sparse-kernel micro-benchmark: each numpy kernel of `ogeec.csr` against
the scipy.sparse expression it replaced (`tests/oracles.py`, `sp_*`).

    PYTHONPATH=src python3 scripts/kernel_bench.py [--workload mid] [--seed 0] [--repeat 3]

The inputs are the benchmark's corpora (`perfbench/corpus.py`) of the mid,
wide and dense-labels workloads, generated in memory from --seed:

- normalize_rows: the train samples alone, and the train and test samples
  stacked, as `embedding.train_test_rows` prepares them (the oracle
  normalizes each set, then stacks them);
- the projection: every row block of F at r = 200, as `embedding._project`
  applies it to the stacked samples on one thread (F is generated outside
  the timed region, its transposed copy inside it, and each block's median
  is summed);
- label_scores: E learners of k = 5 neighbours per test sample (the
  workload's E: 5 for dense-labels, else 1), drawn at random from the train
  samples with similarities in (0, 1), since only the label fan-out sets the
  cost;
- pair_dots: 10,000 random pairs of normalized train samples, as
  `analyze distortion --pairs 10000` takes them.

The script checks that each kernel and its oracle give the same bits and
prints the median time of each.
"""

import argparse
import pathlib
import statistics
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402
from oracles import (  # noqa: E402
    sp_label_scores,
    sp_normalize_rows,
    sp_pair_dots,
    sp_row_products,
    sp_vstack,
)
from workloads import WORKLOADS  # noqa: E402

from ogeec.csr import CSR, RowProducts, label_scores, normalize_rows, pair_dots  # noqa: E402
from ogeec.data import parse_dataset  # noqa: E402
from ogeec.embedding import EmbeddingSpec, _row_block, column_plan, materialize_rows  # noqa: E402

LEARNERS = {"mid": 1, "wide": 1, "dense-labels": 5}
R, K, PAIRS = 200, 5, 10_000


def median_time(run, repeat: int):
    seconds, result = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds), result


def same_bits(a, b) -> bool:
    if isinstance(a, CSR):
        if not isinstance(b, CSR):  # a scipy matrix; label_scores sorts each row
            b = b.sorted_indices()
        return (
            same_bits(a.data, b.data)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.indptr, b.indptr)
        )
    if isinstance(a, tuple):
        return all(same_bits(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def datasets(name: str, seed: int, scratch: pathlib.Path):
    train, test = corpus.generate(WORKLOADS[name].shape, name, seed)
    paths = scratch / f"{name}-train.txt", scratch / f"{name}-test.txt"
    for path, text in zip(paths, (train, test)):
        path.write_text(text, encoding="utf-8")
    return [parse_dataset(path) for path in paths]


def kernels(name: str, train, test):
    """(name, numpy kernel, scipy oracle, inputs) per kernel."""
    X, Xt = train.to_feature_csr(np.float64), test.to_feature_csr(np.float64)
    yield "normalize_rows", normalize_rows, sp_normalize_rows, (X,)
    yield "normalize_rows (stacked)", normalize_rows, sp_stacked, (X, Xt)

    rng = np.random.default_rng(0)
    learners = []
    for _ in range(LEARNERS[name]):
        index = np.array([rng.choice(train.n, K, replace=False) for _ in range(test.n)])
        learners.append((index, rng.random((test.n, K))))
    yield "label_scores", label_scores, sp_label_scores, (learners, train.label_matrix())

    a, b = rng.integers(0, train.n, PAIRS), rng.integers(0, train.n, PAIRS)
    yield "pair_dots", pair_dots, sp_pair_dots, (normalize_rows(X)[0], a, b)


def sp_stacked(*parts):
    """Each part normalized by its scipy oracle, then stacked."""
    rows, norms = zip(*(sp_normalize_rows(X) for X in parts))
    return sp_vstack(*rows), np.concatenate(norms)


def projection(train, test, repeat: int) -> tuple[float, float, bool]:
    """`_project`'s products over every block of F at r = R, one thread."""
    both = normalize_rows(train.to_feature_csr(), test.to_feature_csr())[0]
    used = np.zeros(train.d, dtype=bool)
    used[both.indices] = True
    plan = column_plan(used)
    place = plan.place(train.d)
    Xc = CSR(both.data, place[both.indices], both.indptr, (both.shape[0], plan.columns.size))
    block = _row_block(plan.columns.size)
    spec = EmbeddingSpec(seed=0, d=train.d, r=R)
    # built once per command
    new_s, products = median_time(lambda: RowProducts(both, block, place), repeat)
    ref_s = 0.0
    identical = True
    for s in range(0, R, block):
        F = materialize_rows(spec, s, min(s + block, R), cols=plan)
        got = np.empty((F.shape[0], Xc.shape[0]))
        seconds, _ = median_time(lambda: products(np.ascontiguousarray(F.T), got), repeat)
        new_s += seconds
        seconds, want = median_time(lambda: sp_row_products(Xc, F), repeat)
        ref_s += seconds
        identical &= same_bits(got, want)
    return new_s, ref_s, identical


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*LEARNERS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3, help="timed runs of each kernel")
    parser.add_argument(
        "--scratch", type=pathlib.Path, default=ROOT / ".perfbench" / "kernel_bench",
        help="directory for the generated corpus files",
    )
    args = parser.parse_args()
    args.scratch.mkdir(parents=True, exist_ok=True)
    names = list(LEARNERS) if args.workload == "all" else [args.workload]
    status = 0
    print(f"seed {args.seed}, median of {args.repeat}, seconds")
    print("workload\tkernel\tnumpy\tscipy\tratio\tbits")
    for name in names:
        train, test = datasets(name, args.seed, args.scratch)
        results = []
        for kernel, new, ref, inputs in kernels(name, train, test):
            new_s, got = median_time(lambda: new(*inputs), args.repeat)
            ref_s, want = median_time(lambda: ref(*inputs), args.repeat)
            results.append((kernel, new_s, ref_s, same_bits(got, want)))
        results.append(("projection", *projection(train, test, args.repeat)))
        for kernel, new_s, ref_s, identical in results:
            status |= not identical
            print(f"{name}\t{kernel}\t{new_s:.4f}\t{ref_s:.4f}\t{new_s / ref_s:.2f}\t"
                  f"{'identical' if identical else 'DIFFER'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
