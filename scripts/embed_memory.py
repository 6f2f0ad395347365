#!/usr/bin/env python3
"""Memory attribution: the peak RSS and the tracemalloc peak of each phase
of `ogeec predict`, on one corpus.

    PYTHONPATH=src python3 scripts/embed_memory.py .perfbench/wide-seed0 [--r 200] [--learners 1] [--workers 2]

The corpus is a directory holding `train.txt` and `test.txt`, as the
benchmark (`perfbench/run.py`) writes them under `.perfbench/<workload>-seed<seed>`.
The script writes the model of --r, --k, --learners and --seed (d from the
train file's header line) and runs `predict` itself, with no cache, in this
process (`cli.main`, its TSV to os.devnull). Each call that `predict` makes
to a phase function prints one row as it returns: `parse`
(`cli.parse_dataset`, once per file), `plan` (`ensemble.PlannedRows`),
each learner's `projection` (`ensemble.project_rows`) and `search`
(`ensemble.batch_predict`), and the `label pass` (`ensemble.rank_labels`).
A row gives the seconds since the row before, the process's peak RSS so far
(`ru_maxrss`), the tracemalloc peak since the row before (numpy's buffers
included, so it attributes the RSS growth) and what stays allocated. On
entry to the first projection, once the parsed features are dropped, it
prints the nonzero count, the plan row's peak and what stays allocated, in
bytes per nonzero.
"""

import argparse
import os
import pathlib
import resource
import sys
import tempfile
import time
import tracemalloc

from ogeec import cli, ensemble

MIB = 2**20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus", type=pathlib.Path, help="directory with train.txt and test.txt")
    parser.add_argument("--r", type=int, default=200)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--learners", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    train, test = args.corpus / "train.txt", args.corpus / "test.txt"
    with open(train, encoding="utf-8") as f:
        d = int(f.readline().split()[1])  # the header line: n d L
    spec = ensemble.make_ensemble_spec(args.seed, args.learners, d=d, r=args.r, k=args.k)

    tracemalloc.start()
    print("phase\tseconds\tpeak_rss_mib\ttraced_peak_mib\ttraced_after_mib")
    last, peaks, nnz = time.perf_counter(), {}, 0

    def report(phase: str) -> None:
        nonlocal last
        now, peaks[phase] = tracemalloc.get_traced_memory()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{phase}\t{time.perf_counter() - last:.3f}\t{rss:.1f}\t"
              f"{peaks[phase] / MIB:.1f}\t{now / MIB:.1f}")
        tracemalloc.reset_peak()
        last = time.perf_counter()

    def timed(run, phase: str):
        def call(*a, **kw):
            nonlocal nnz
            if phase == "projection" and phase not in peaks:
                held = tracemalloc.get_traced_memory()[0]
                print(f"# {nnz} nonzeros: preparation peak {peaks['plan'] / nnz:.1f} bytes "
                      f"per nonzero, held after planning {held / nnz:.1f}")
            result = run(*a, **kw)
            if phase == "parse":
                nnz += result.features.nnz
            report(phase)
            return result
        return call

    for module, name, phase in (
        (cli, "parse_dataset", "parse"), (ensemble, "PlannedRows", "plan"),
        (ensemble, "project_rows", "projection"), (ensemble, "batch_predict", "search"),
        (ensemble, "rank_labels", "label pass"),
    ):
        setattr(module, name, timed(getattr(module, name), phase))
    with tempfile.TemporaryDirectory() as scratch:
        model = os.path.join(scratch, "model.txt")
        ensemble.write_metadata(model, spec)
        report("import")
        return cli.main(["predict", "--model", model, "--train", str(train), "--test", str(test),
                         "--out", os.devnull, "--workers", str(args.workers)])


if __name__ == "__main__":
    sys.exit(main())
