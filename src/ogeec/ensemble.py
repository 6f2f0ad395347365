"""Ensembles of seeded learners fused by uniform score averaging.

A learner is just a seed: its projection matrix, the embedded training matrix
built from it, and the kNN propagation rule. The whole model is therefore a
handful of integers; the metadata file written here is everything needed to
rebuild it. Fusion averages each label's score across learners, counting 0
for learners that never scored it: the learners' score matrices are added in
learner order, S1 + S2 + ..., and every stored sum is divided by E.

A command normalizes its samples once; each learner then projects its train
and test samples together, so it generates every row of its F once.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import scipy.sparse as sp

from .data import SparseDataset
from .embedding import (
    EmbeddingSpec,
    embed_prefixes,
    embed_train_test,
    project_rows,
    train_test_rows,
)
from .embedding import embed  # noqa: F401 -- perfbench/tracer.py wraps it here
from .metrics import DEFAULT_KS, EvalReport, PropensityModel, evaluate
from .predictor import batch_predict, top_k


@dataclass(frozen=True)
class EnsembleSpec:
    """Distinct learner seeds plus the shared d, r, k."""

    seeds: tuple[int, ...]
    d: int
    r: int
    k: int

    @property
    def size(self) -> int:
        return len(self.seeds)

    def learner(self, index: int) -> EmbeddingSpec:
        return EmbeddingSpec(seed=self.seeds[index], d=self.d, r=self.r)


def make_ensemble_spec(
    base_seed: int, learners: int, d: int, r: int, k: int
) -> EnsembleSpec:
    """Default seed schedule: base_seed + {0, 1, ..., E-1}."""
    if learners < 1:
        raise ValueError("learners must be positive")
    return EnsembleSpec(
        seeds=tuple(base_seed + i for i in range(learners)), d=d, r=r, k=k
    )


def validate_spec(spec: EnsembleSpec) -> None:
    if spec.size < 1:
        raise ValueError("ensemble needs at least one seed")
    if len(set(spec.seeds)) != spec.size:
        raise ValueError("ensemble seeds must be pairwise distinct")
    if spec.k < 1:
        raise ValueError("k must be positive")
    EmbeddingSpec(seed=spec.seeds[0], d=spec.d, r=spec.r)


def _mean(total: sp.csr_matrix, count: int) -> sp.csr_matrix:
    """Every stored sum divided by `count`. Not `total / count`: scipy
    multiplies by 1 / count, which rounds differently."""
    return sp.csr_matrix((total.data / count, total.indices, total.indptr), shape=total.shape)


def learner_scores(
    spec: EnsembleSpec,
    dataset: SparseDataset,
    test: SparseDataset,
    *,
    learners: int | None = None,
    workers: int = 1,
    matrix_provider=None,
    timings: dict[str, float] | None = None,
):
    """Yield (seed, test-sample x label score matrix) for each learner in order.

    The samples are normalized once; each learner projects its train and test
    samples in one pass over F, so it generates every row of F once. Learners
    run in turn, so memory holds one train matrix and one query block whatever
    the ensemble size. `matrix_provider(lspec)` may return a learner's train
    matrix (e.g. a verified cache), and then only the test samples are
    projected; None takes the one-pass path.
    """
    validate_spec(spec)
    count = spec.size if learners is None else learners
    if not 1 <= count <= spec.size:
        raise ValueError(f"learner count {count} exceeds available seeds {spec.size}")
    rows = train_test_rows(dataset, test)
    labels = dataset.label_matrix()
    for i in range(count):
        lspec = spec.learner(i)
        t0 = time.perf_counter()
        train = matrix_provider(lspec) if matrix_provider is not None else None
        if train is None:
            train, queries = embed_train_test(lspec, rows, workers=workers)
        else:
            queries = project_rows(lspec, rows.test, workers=workers)
        if timings is not None:
            timings["embed_s"] = timings.get("embed_s", 0.0) + time.perf_counter() - t0
        scores = batch_predict(train, labels, queries, spec.k, timings=timings)
        del train, queries  # freed before the next learner is projected
        yield spec.seeds[i], scores


def fused_scores(
    spec: EnsembleSpec,
    dataset: SparseDataset,
    test: SparseDataset,
    *,
    learners: int | None = None,
    workers: int = 1,
    matrix_provider=None,
    timings: dict[str, float] | None = None,
) -> sp.csr_matrix:
    """Fused scores over the first `learners` seeds (default: all): their
    score matrices added in learner order, divided by the learner count."""
    total, count = None, 0
    for _, scores in learner_scores(
        spec,
        dataset,
        test,
        learners=learners,
        workers=workers,
        matrix_provider=matrix_provider,
        timings=timings,
    ):
        total = scores if total is None else total + scores
        count += 1
    return _mean(total, count)


@dataclass
class SweepResult:
    """Fused reports per ensemble size plus each learner's own report."""

    fused: dict[int, EvalReport]
    per_learner: list[EvalReport]
    seeds: tuple[int, ...]


def sweep_ensemble_size(
    spec: EnsembleSpec,
    dataset: SparseDataset,
    test: SparseDataset,
    sizes: list[int],
    model: PropensityModel,
    *,
    ks: tuple[int, ...] = DEFAULT_KS,
    workers: int = 1,
) -> SweepResult:
    """Evaluate fusions of the first s seeds for each requested size.

    Per-learner reports cover every learner consumed (max(sizes)), so callers
    can report single-learner mean and spread next to the fused numbers.
    """
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if max(sizes) > spec.size or min(sizes) < 1:
        raise ValueError(f"sizes must lie in [1, {spec.size}]")
    need = max(sizes)
    truths = test.labelsets()
    total = None
    fused_reports: dict[int, EvalReport] = {}
    per_learner: list[EvalReport] = []
    done = 0
    for _, scores in learner_scores(
        spec, dataset, test, learners=need, workers=workers
    ):
        per_learner.append(evaluate(top_k(scores, max(ks))[0], truths, model, ks=ks))
        total = scores if total is None else total + scores
        done += 1
        if done in sizes:
            fused = top_k(_mean(total, done), max(ks))[0]
            fused_reports[done] = evaluate(fused, truths, model, ks=ks)
    return SweepResult(
        fused=fused_reports,
        per_learner=per_learner,
        seeds=spec.seeds[:need],
    )


def sweep_dimension(
    seed: int,
    dataset: SparseDataset,
    test: SparseDataset,
    rs: Sequence[int],
    k: int,
    *,
    workers: int = 1,
) -> Iterator[tuple[int, sp.csr_matrix]]:
    """Yield (r, score matrix) of the `seed` learner for each r.

    One pass over F at max(rs) serves every r (`embedding.embed_prefixes`),
    and the scores equal `fused_scores` of that one learner at r.
    """
    if not rs:
        raise ValueError("rs must be nonempty")
    spec = EmbeddingSpec(seed=seed, d=dataset.d, r=max(rs))
    labels = dataset.label_matrix()
    prefixes = embed_prefixes(spec, train_test_rows(dataset, test), rs, workers=workers)
    for r, (train, queries) in zip(rs, prefixes):
        yield r, batch_predict(train, labels, queries, k)


def format_metadata(spec: EnsembleSpec, base_seed: int | None = None) -> str:
    """The entire model as text: seeds and hyperparameters, nothing learned."""
    base = spec.seeds[0] if base_seed is None else base_seed
    lines = [
        f"base_seed {base}",
        "seeds " + " ".join(str(s) for s in spec.seeds),
        f"d {spec.d}",
        f"r {spec.r}",
        f"k {spec.k}",
        f"E {spec.size}",
    ]
    return "\n".join(lines) + "\n"


def write_metadata(path, spec: EnsembleSpec, base_seed: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_metadata(spec, base_seed))


def read_metadata(path) -> EnsembleSpec:
    fields: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if parts:
                fields[parts[0]] = parts[1:]
    try:
        seeds = tuple(int(s) for s in fields["seeds"])
        spec = EnsembleSpec(
            seeds=seeds,
            d=int(fields["d"][0]),
            r=int(fields["r"][0]),
            k=int(fields["k"][0]),
        )
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model metadata ({exc})") from None
    if "E" in fields and int(fields["E"][0]) != spec.size:
        raise ValueError(f"{path}: E does not match the seed list")
    return spec
