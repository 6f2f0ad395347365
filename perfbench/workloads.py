"""The benchmark's workloads: corpus shape, set-up command, measured commands.

Each workload stresses a different layer of the pipeline, because the hot
layer moves with corpus shape:

- mid: search-bound. n_train x n_test dot products dominate.
- wide: generation-bound. d = 782,585 makes every pass over the projection
  matrix F cost seconds; train makes one pass, and predict one per worker for
  the training matrix and one per 4096-query chunk. The test set fits one
  chunk, which keeps a run within the time budget.
- dense-labels: label side. About 75 labels per sample make each neighbour
  fan out, so propagation, fusion and metrics outweigh search.
- desk: the README quick-start corpus and the desk-report analyses, the only
  workload that runs lsh, jl and projection at several r.

d, nnz, labels per sample and r define a workload; n_train and n_test are
scaled so that every run fits the benchmark's time budget.

Command templates name files by placeholder: {train}, {test}, {model} and
{out} (the workload's output directory).
"""

from __future__ import annotations

from dataclasses import dataclass

from corpus import Shape

WORKERS = 2


@dataclass(frozen=True)
class Command:
    """One `ogeec` invocation and the files it writes."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    # test queries answered: n_test times the number of single-ranking
    # passes the command makes over the test set
    passes: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    setup: Command
    measured: tuple[Command, ...]

    def queries(self) -> int:
        return sum(c.passes for c in self.measured) * self.shape.n_test


def _train(r: int, learners: int) -> Command:
    return Command(
        "train",
        (
            "train", "--train", "{train}", "--model", "{model}", "--r", str(r),
            "--k", "5", "--learners", str(learners), "--seed", "0",
            "--workers", str(WORKERS),
        ),
        outputs=("{model}",),
        passes=0,
    )


_PREDICT = Command(
    "predict",
    (
        "predict", "--model", "{model}", "--train", "{train}", "--test", "{test}",
        "--out", "{out}/predictions.tsv", "--workers", str(WORKERS),
    ),
    outputs=("{out}/predictions.tsv",),
)

_RS = "50,100,150,200,250,300,350,400"
_SIZES = "1,2,3,4,5,6,7,8,9,10"

# The desk-report battery (scripts/desk_report.py) minus its corpus
# generation and the bound tables, which touch no data.
_DESK = (
    Command(
        "eval",
        (
            "eval", "--model", "{model}", "--train", "{train}", "--test", "{test}",
            "--out", "{out}/eval.tsv", "--workers", str(WORKERS),
        ),
        outputs=("{out}/eval.tsv",),
    ),
    Command(
        "distortion",
        (
            "analyze", "distortion", "--train", "{train}", "--r", "200",
            "--seed", "0", "--pairs", "10000", "--pair-seed", "17",
            "--out", "{out}/distortion.tsv",
        ),
        outputs=("{out}/distortion.tsv",),
        passes=0,
    ),
    Command(
        "sweep-r",
        (
            "analyze", "sweep-r", "--train", "{train}", "--test", "{test}",
            "--rs", _RS, "--seed", "0", "--workers", str(WORKERS),
            "--out", "{out}/sweep_r.tsv",
        ),
        outputs=("{out}/sweep_r.tsv",),
        passes=8,
    ),
    Command(
        "sweep-ensemble",
        (
            "analyze", "sweep-ensemble", "--train", "{train}", "--test", "{test}",
            "--r", "100", "--sizes", _SIZES, "--seed", "0", "--workers", str(WORKERS),
            "--out", "{out}/sweep_ensemble.tsv",
        ),
        outputs=("{out}/sweep_ensemble.tsv",),
        passes=10,
    ),
    Command(
        "lsh-compare",
        (
            "analyze", "lsh-compare", "--train", "{train}", "--test", "{test}",
            "--r", "100", "--seed", "0", "--workers", str(WORKERS),
            "--predictions-out", "{out}/lsh_predictions.tsv",
            "--out", "{out}/lsh_compare.tsv",
        ),
        outputs=("{out}/lsh_compare.tsv", "{out}/lsh_predictions.tsv"),
        passes=2,
    ),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mid",
            Shape(n_train=10000, n_test=1000, d=100_000, L=2000, nnz=60,
                  labels=5, clusters=200),
            _train(r=200, learners=1),
            (_PREDICT,),
        ),
        Workload(
            "wide",
            Shape(n_train=1000, n_test=2000, d=782_585, L=983, nnz=300,
                  labels=75, clusters=50),
            _train(r=200, learners=1),
            (_PREDICT,),
        ),
        Workload(
            "dense-labels",
            Shape(n_train=500, n_test=1500, d=20_000, L=983, nnz=40,
                  labels=75, clusters=20),
            _train(r=200, learners=5),
            (
                Command(
                    "eval",
                    (
                        "eval", "--model", "{model}", "--train", "{train}",
                        "--test", "{test}", "--grid", "--out", "{out}/eval.txt",
                        "--workers", str(WORKERS),
                    ),
                    outputs=("{out}/eval.txt",),
                ),
            ),
        ),
        Workload(
            "desk",
            Shape(n_train=1500, n_test=400, d=8000, L=150, nnz=15, labels=3,
                  clusters=25),
            _train(r=200, learners=5),
            _DESK,
        ),
    )
}
