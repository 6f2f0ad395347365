#!/usr/bin/env python3
"""Full-benchmark evaluation on the public extreme-classification corpora.

Expects pre-downloaded repository text files (0-based indices, `n d L`
header). Prediction is exhaustive kNN over the whole training set: one
float32 GEMM per learner, threaded by BLAS, screens the candidates that a
float64 rescore ranks. --workers threads the projection through F.

    python scripts/full_scale_eval.py --train delicious_train.txt \
        --test delicious_test.txt --learners 5

Propensity constants default to A=0.55, B=1.5; pass --prop-a 0.6 --prop-b 2.6
for the Amazon-family corpora (repository convention).
"""

import argparse
import os
import sys
import time

from ogeec.data import parse_dataset
from ogeec.ensemble import fused_scores, make_ensemble_spec
from ogeec.metrics import evaluate, propensity


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", required=True)
    parser.add_argument("--test", required=True)
    parser.add_argument("--r", type=int, default=200)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--learners", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--prop-a", type=float, default=0.55)
    parser.add_argument("--prop-b", type=float, default=1.5)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--limit-test", type=int, default=0,
                        help="evaluate only the first N test samples")
    args = parser.parse_args()

    t0 = time.perf_counter()
    train = parse_dataset(args.train)
    test = parse_dataset(args.test)
    print(
        f"parsed train n={train.n} d={train.d} L={train.L}, "
        f"test n={test.n} ({time.perf_counter() - t0:.0f}s)",
        file=sys.stderr,
    )
    if args.limit_test and args.limit_test < test.n:
        from ogeec.data import split_dataset

        test, _ = split_dataset(test, args.limit_test)

    spec = make_ensemble_spec(args.seed, args.learners, train.d, args.r, args.k)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    scores = fused_scores(
        spec, train, test, workers=args.workers, timings=timings
    )
    predict_s = time.perf_counter() - t0
    model = propensity(train.label_frequencies, train.n, args.prop_a, args.prop_b)
    report = evaluate(scores, test.labelsets(), model)
    print(report.format_grid())
    print(
        f"prediction wall-clock {predict_s:.0f}s "
        f"({predict_s / max(test.n, 1):.2f}s/sample, {args.workers} workers); "
        + " ".join(f"{k}={v:.0f}s" for k, v in sorted(timings.items())),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
