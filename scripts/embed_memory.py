#!/usr/bin/env python3
"""Memory attribution: the peak RSS and the tracemalloc peak of each phase
of an ensemble's embedding, search and label pass, on one corpus.

    PYTHONPATH=src python3 scripts/embed_memory.py .perfbench/wide-seed0 [--r 200] [--learners 1] [--workers 2]

The corpus is a directory holding `train.txt` and `test.txt`, as the
benchmark (`perfbench/run.py`) writes them under `.perfbench/<workload>-seed<seed>`.
The script runs the phases of `ensemble.fused_scores` in order, in this
process: parse both files, normalize both sets a block of rows at a time
into one stacked CSR and plan it once (`embedding.train_test_rows`, which
then holds the samples once, position-major, for every learner), then for
each learner its projection (`embed_train_test`, one pass over F, drawn
into one transposed block of F per worker) and its exact search
(`batch_predict`), and last the label pass (`predictor.rank_labels` of
every learner's neighbours, top 5 labels, one 4 MB label block at a time).
So the table reaches the peak of `predict` and `eval`. After each phase it
prints the process's peak RSS so far (`ru_maxrss`), the phase's own
tracemalloc peak and what stays allocated after it. A phase's tracemalloc
peak counts numpy's buffers, so it attributes the RSS growth that the phase
causes.
"""

import argparse
import pathlib
import resource
import sys
import time
import tracemalloc

from ogeec.data import parse_dataset
from ogeec.embedding import embed_train_test, train_test_rows
from ogeec.ensemble import make_ensemble_spec
from ogeec.predictor import batch_predict, rank_labels

MIB = 2**20
TOP_K = 5  # the commands' default --topk


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus", type=pathlib.Path, help="directory with train.txt and test.txt")
    parser.add_argument("--r", type=int, default=200)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--learners", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    tracemalloc.start()
    print("phase\tseconds\tpeak_rss_mib\ttraced_peak_mib\ttraced_after_mib")

    def report(phase: str, t0: float) -> None:
        now, peak = tracemalloc.get_traced_memory()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{phase}\t{time.perf_counter() - t0:.3f}\t{rss:.1f}\t{peak / MIB:.1f}\t{now / MIB:.1f}")
        tracemalloc.reset_peak()

    report("import", time.perf_counter())
    t0 = time.perf_counter()
    train = parse_dataset(args.corpus / "train.txt")
    test = parse_dataset(args.corpus / "test.txt")
    report("parse", t0)
    t0 = time.perf_counter()
    rows = train_test_rows(train, test)
    report("train_test_rows", t0)
    spec = make_ensemble_spec(args.seed, args.learners, d=train.d, r=args.r, k=args.k)
    found = []
    for i in range(args.learners):
        t0 = time.perf_counter()
        matrix, queries = embed_train_test(spec.learner(i), rows, workers=args.workers)
        report(f"learner {i} projection", t0)
        t0 = time.perf_counter()
        found.append(batch_predict(matrix, queries, args.k))
        report(f"learner {i} search", t0)
        del matrix, queries
    del rows
    t0 = time.perf_counter()
    rank_labels(found, train.label_matrix(), TOP_K)
    report("label pass", t0)
    tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
