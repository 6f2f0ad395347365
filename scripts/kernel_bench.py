#!/usr/bin/env python3
"""Kernel micro-benchmark: each numpy kernel of `ogeec.csr` against the
scipy.sparse expression it replaced (`tests/oracles.py`, `sp_*`), search
against a full float64 scan, and the parser against the line-by-line parser
that states the format.

    PYTHONPATH=src python3 scripts/kernel_bench.py [--workload mid] [--seed 0] [--repeat 3] [--search-n N]

The inputs are the benchmark's corpora (`perfbench/corpus.py`) of the mid,
wide and dense-labels workloads, generated in memory from --seed:

- the projection: the planning that `predict` pays for (`PlannedRows` of
  the parsed sets at r = 200 on one worker: the plan of every stored
  entry, the block height and the position-major rows chunked for it),
  then every block of F of the plan's height, as `embedding._project`
  applies the plan's products to the stacked samples on one thread (F is
  generated outside the timed region, its transposed copy inside it, and
  each block's median is summed); the oracle multiplies each set's unit rows
  (`sp_normalize_rows`), stacked, their columns in the plan's order;
- label_scores: the label pass's arithmetic on one block of queries,
  `csr.learner_scores` of each learner added in learner order and
  `csr.mean_scores` of the sum (`oracles.label_scores`), for E learners of
  k = 5 neighbours per test sample (the workload's E: 5 for dense-labels,
  else 1), drawn at random from the train samples with similarities in
  (0, 1), since only the label fan-out sets the cost, passed in the blocks
  of `_LABEL_FLOATS` // L queries (1 MiB of float64 scores) that
  `predictor.rank_prefixes` cuts, each block checked against its oracle;
- pair_dots: 10,000 random pairs of train samples, read from the parsed
  rows and their 1 / norms as `analyze distortion --pairs 10000` takes
  them; the oracle takes them from the unit rows of `sp_normalize_rows`;
- search: `predictor._search` of the projected test columns against the
  projected train columns (seed 0, r = 200, k = 5, both sets projected in
  one pass, as `predict` projects them), in its tiles of at most 256
  queries, against `oracles.knn_scan_block`, with the milliseconds per query;
- parse: `data.parse_dataset` of the workload's train and test files
  against `oracles.parse_dataset`, with the parser's speed in MB/s;
- header: `model.read_header` (exported by `data` too) of the same files,
  all that `train` reads without --cache, on the standard library alone
  (it counts lines by `bytes.replace`), its (n, d, L) checked against the
  oracle's datasets and its time against the oracle's parse, with its speed
  in MB/s.

With --search-n N, one more row (workload `n=N`) times `_search` of 400
unit queries, each near a random train column, against N random unit
columns at r = 200 and k = 5, the north star's search at n_train = N, and
checks its first 16 queries against `oracles.knn_scan_block`; the oracle's
time is that of those 16, times 25. The oracle holds two float64 copies
of the train matrix (630 MB at N = 196,606).

The script checks that each kernel and its oracle give the same bits (for
search, equal neighbours and scores; for parse, equal datasets; for header,
equal (n, d, L)) and prints the median time of each.
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
from oracles import float64_features, label_scores, sp_label_scores, sp_normalize_rows, sp_pair_dots  # noqa: E402
from oracles import parse_dataset as oracle_parse  # noqa: E402
from oracles import knn_scan_block, same_dataset, sp_row_products, vstack  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from ogeec.csr import CSR, inv_norms, pair_dots  # noqa: E402
from ogeec.data import parse_dataset, read_header  # noqa: E402
from ogeec.embedding import EmbeddingSpec, PlannedRows, materialize_rows, project_rows  # noqa: E402
from ogeec.predictor import _LABEL_FLOATS, _search  # noqa: E402

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
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def corpus_files(name: str, seed: int, scratch: pathlib.Path) -> list[pathlib.Path]:
    train, test = corpus.generate(WORKLOADS[name].shape, name, seed)
    paths = [scratch / f"{name}-train.txt", scratch / f"{name}-test.txt"]
    for path, text in zip(paths, (train, test)):
        path.write_text(text, encoding="utf-8")
    return paths


def kernels(name: str, train, test):
    """(name, numpy kernel, scipy oracle) per kernel, each called with no
    argument."""
    rng = np.random.default_rng(0)
    learners = []
    for _ in range(LEARNERS[name]):
        index = np.array([rng.choice(train.n, K, replace=False) for _ in range(test.n)])
        learners.append((index, rng.random((test.n, K))))
    Y = train.labels
    step = max(1, _LABEL_FLOATS // train.L)  # as predictor.rank_prefixes cuts the queries
    blocks = [[(index[a : a + step], sims[a : a + step]) for index, sims in learners]
              for a in range(0, test.n, step)]
    yield ("label_scores", lambda: [label_scores(block, Y) for block in blocks],
           lambda: [sp_label_scores(block, Y) for block in blocks])

    a, b = rng.integers(0, train.n, PAIRS), rng.integers(0, train.n, PAIRS)
    X = train.features
    inv, Xn = inv_norms(X), sp_normalize_rows(float64_features(train))[0]
    yield "pair_dots", lambda: pair_dots(X, inv, a, b), lambda: sp_pair_dots(Xn, a, b)


def projection(train, test, repeat: int) -> tuple[float, float, bool]:
    """`PlannedRows`' planning at r = R on one worker, then `_project`'s
    products over every block of F of the plan's height."""
    parts = (train.features, test.features)
    # planned once per command
    new_s, rows = median_time(lambda: PlannedRows(*parts, r=R), repeat)
    both = vstack(*(sp_normalize_rows(float64_features(ds))[0] for ds in (train, test)))
    c = rows.plan.columns.size
    Xc = CSR(both.data, rows.plan.place(train.d)[both.indices], both.indptr, (both.shape[0], c))
    spec = EmbeddingSpec(seed=0, d=train.d, r=R)
    ref_s, identical = 0.0, True
    for s in range(0, R, rows.height):
        F = materialize_rows(spec, s, min(s + rows.height, R), cols=rows.plan)
        got = np.empty((F.shape[0], Xc.shape[0]))
        seconds, _ = median_time(lambda: rows.products(np.ascontiguousarray(F.T), got), repeat)
        new_s += seconds
        seconds, want = median_time(lambda: sp_row_products(Xc, F), repeat)
        ref_s += seconds
        identical &= same_bits(got, want)
    return new_s, ref_s, identical


def search(train, test, repeat: int) -> tuple[float, float, bool, str]:
    """`_search` of the test set's projection against the train set's, and
    the oracle's full scan; then the program's ms per query."""
    rows = PlannedRows(train.features, test.features, r=R)
    projected = project_rows(EmbeddingSpec(seed=0, d=train.d, r=R), rows)
    data, queries = projected[:, : train.n], projected[:, train.n :]
    new_s, got = median_time(lambda: _search(queries, data, K), repeat)
    ref_s, want = median_time(lambda: knn_scan_block(queries, data, K), repeat)
    return new_s, ref_s, same_bits(got, want), f"{1e3 * new_s / test.n:.3f} ms/query"


def synthetic_search(n: int, seed: int, repeat: int) -> tuple[float, float, bool, str]:
    """`_search` of 400 unit queries against n random unit columns, its first
    16 queries checked against the oracle's full scan, whose time is scaled
    to 400 queries."""
    rng = np.random.default_rng(seed)
    data = np.asfortranarray(rng.standard_normal((R, n), dtype=np.float32))
    data /= np.linalg.norm(data, axis=0)
    queries = data[:, rng.integers(0, n, 400)] + rng.standard_normal((R, 400), dtype=np.float32) / np.sqrt(R)
    queries /= np.linalg.norm(queries, axis=0)
    new_s, got = median_time(lambda: _search(queries, data, K), repeat)
    ref_s, want = median_time(lambda: knn_scan_block(queries[:, :16], data, K), 1)
    got = tuple(array[:16] for array in got)
    return new_s, 25 * ref_s, same_bits(got, want), f"{1e3 * new_s / 400:.3f} ms/query"


def parse(paths, repeat: int) -> tuple[tuple[float, float, bool, str], list, float]:
    """Both sets parsed by the program and by the oracle, and the program's
    MB/s; then the oracle's datasets and its time."""
    new_s, got = median_time(lambda: [parse_dataset(path) for path in paths], repeat)
    ref_s, want = median_time(lambda: [oracle_parse(path) for path in paths], repeat)
    megabytes = sum(path.stat().st_size for path in paths) / 1e6
    return (new_s, ref_s, all(map(same_dataset, got, want)), f"{megabytes / new_s:.1f} MB/s"), want, ref_s


def header(paths, repeat: int, want: list, ref_s: float) -> tuple[float, float, bool, str]:
    """Both sets' headers read by the program, checked against the oracle's
    datasets `want` (parsed in ref_s), and the program's MB/s."""
    new_s, got = median_time(lambda: [read_header(path) for path in paths], repeat)
    megabytes = sum(path.stat().st_size for path in paths) / 1e6
    return new_s, ref_s, got == [(ds.n, ds.d, ds.L) for ds in want], f"{megabytes / new_s:.1f} MB/s"


def workload_rows(name: str, args):
    """(kernel, numpy s, oracle s, identical, rate) of each kernel on the
    workload's corpus."""
    paths = corpus_files(name, args.seed, args.scratch)
    train, test = (parse_dataset(path) for path in paths)
    for kernel, new, ref in kernels(name, train, test):
        new_s, got = median_time(new, args.repeat)
        ref_s, want = median_time(ref, args.repeat)
        yield kernel, new_s, ref_s, same_bits(got, want), "-"
    yield "projection", *projection(train, test, args.repeat), "-"
    yield "search", *search(train, test, args.repeat)
    parsed, oracle_sets, oracle_s = parse(paths, args.repeat)
    yield "parse", *parsed
    yield "header", *header(paths, args.repeat, oracle_sets, oracle_s)


def report(name: str, rows) -> int:
    """Print each (kernel, numpy s, oracle s, identical, rate) row as it
    comes; 1 if any kernel's bits differ from its oracle's."""
    status = 0
    for kernel, new_s, ref_s, identical, rate in rows:
        status |= not identical
        print(f"{name}\t{kernel}\t{new_s:.4f}\t{ref_s:.4f}\t{new_s / ref_s:.2f}\t{rate}\t"
              f"{'identical' if identical else 'DIFFER'}", flush=True)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*LEARNERS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3, help="timed runs of each kernel")
    parser.add_argument(
        "--scratch", type=pathlib.Path, default=ROOT / ".perfbench" / "kernel_bench",
        help="directory for the generated corpus files",
    )
    parser.add_argument(
        "--search-n", type=int, default=0, metavar="N",
        help="also time search against N synthetic train columns (off at 0)",
    )
    args = parser.parse_args()
    args.scratch.mkdir(parents=True, exist_ok=True)
    names = list(LEARNERS) if args.workload == "all" else [args.workload]
    status = 0
    print(f"seed {args.seed}, median of {args.repeat}, seconds")
    print("workload\tkernel\tnumpy\toracle\tratio\trate\tbits")
    for name in names:
        status |= report(name, workload_rows(name, args))
    if args.search_n:
        status |= report(f"n={args.search_n}", [("search", *synthetic_search(args.search_n, args.seed, args.repeat))])
    return status


if __name__ == "__main__":
    sys.exit(main())
