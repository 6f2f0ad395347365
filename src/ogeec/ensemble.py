"""Ensembles of seeded learners fused by uniform score averaging.

A learner is just a seed: its projection matrix, the embedded training matrix
built from it, and the kNN propagation rule. The whole model is therefore a
handful of integers; the metadata file written here is everything needed to
rebuild it. Fusion averages each label's score across learners, counting 0
for learners that never scored it: each learner keeps only its neighbour
arrays, and `predictor.rank_labels`, the one label pass, adds their scores
in learner order, S1 + S2 + ..., divides every nonzero sum by E and ranks
them, one block of queries at a time.

A command normalizes its samples once; each learner then projects its train
and test samples together, so it generates every row of its F once.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .data import SparseDataset, atomic_write
from .embedding import (
    EmbeddingSpec, check_cache,
    embed_prefixes,
    embed_train_test,
    load_cache,
    project_rows,
    train_test_rows,
)
from .embedding import embed  # noqa: F401 -- perfbench/tracer.py wraps it here
from .metrics import DEFAULT_KS, EvalReport, PropensityModel, evaluate
from .predictor import batch_predict, rank_labels


@dataclass(frozen=True)
class EnsembleSpec:
    """Distinct learner seeds plus the shared d, r, k."""

    seeds: tuple[int, ...]
    d: int
    r: int
    k: int

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("ensemble needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("ensemble seeds must be pairwise distinct")
        if self.k < 1:
            raise ValueError("k must be positive")
        self.learner(0)  # d and r as EmbeddingSpec checks them

    @property
    def size(self) -> int:
        return len(self.seeds)

    def learner(self, index: int) -> EmbeddingSpec:
        return EmbeddingSpec(seed=self.seeds[index], d=self.d, r=self.r)


def make_ensemble_spec(base_seed: int, learners: int, d: int, r: int, k: int) -> EnsembleSpec:
    """Default seed schedule: base_seed + {0, 1, ..., E-1}."""
    return EnsembleSpec(seeds=tuple(base_seed + i for i in range(learners)), d=d, r=r, k=k)


def learner_neighbours(
    spec: EnsembleSpec, dataset: SparseDataset, test: SparseDataset, *, learners: int | None = None,
    workers: int = 1, cache: str | None = None, timings: dict[str, float] | None = None,
) -> Iterator[tuple[int, tuple[np.ndarray, np.ndarray]]]:
    """Yield (seed, (index, sims)) for each learner in order: `knn`'s
    neighbour arrays of every test sample.

    The samples are normalized and planned once (`train_test_rows`); each
    learner projects its train and test samples in one pass over F, so it
    generates every row of F once. Learners
    run in turn, so memory holds one train matrix and one query block whatever
    the ensemble size. With a `cache` prefix, every learner's cache file is
    checked against `dataset` first (`check_cache`); a learner that has one
    loads its train matrix at its turn (`load_cache`) and projects only the
    test samples, and one without takes the one-pass path.
    """
    count = spec.size if learners is None else learners
    if not 1 <= count <= spec.size:
        raise ValueError(f"learner count {count} exceeds available seeds {spec.size}")
    # every cache file's header, size and crc32, before any learner's work
    cached = [cache is not None and check_cache(cache, spec.learner(i), dataset)
              for i in range(count)]
    rows = train_test_rows(dataset, test)
    for i in range(count):
        lspec = spec.learner(i)
        t0 = time.perf_counter()
        train = load_cache(cache, lspec, dataset) if cached[i] else None
        if train is None:
            train, queries = embed_train_test(lspec, rows, workers=workers)
        else:
            queries = project_rows(lspec, rows.test, workers=workers)
        if timings is not None:
            timings["embed_s"] = timings.get("embed_s", 0.0) + time.perf_counter() - t0
        neighbours = batch_predict(train, queries, spec.k, timings=timings)
        del train, queries  # freed before the next learner is projected
        yield spec.seeds[i], neighbours


def fused_scores(
    spec: EnsembleSpec, dataset: SparseDataset, test: SparseDataset, K: int, *,
    learners: int | None = None, workers: int = 1, cache: str | None = None,
    timings: dict[str, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """`rank_labels`' (m, K) top labels and scores of every test sample by
    fused score over the first `learners` seeds (default: all). Only the
    learners' neighbour arrays are held until that one label pass."""
    found = learner_neighbours(
        spec, dataset, test, learners=learners, workers=workers, cache=cache, timings=timings
    )
    neighbours = [nb for _, nb in found]
    t0 = time.perf_counter()
    ranking = rank_labels(neighbours, dataset.label_matrix(), K)
    if timings is not None:
        timings["propagate_s"] = timings.get("propagate_s", 0.0) + time.perf_counter() - t0
    return ranking


@dataclass
class SweepResult:
    """Fused reports per ensemble size plus each learner's own report."""

    fused: dict[int, EvalReport]
    per_learner: list[EvalReport]
    seeds: tuple[int, ...]


def sweep_ensemble_size(
    spec: EnsembleSpec, dataset: SparseDataset, test: SparseDataset, sizes: list[int],
    model: PropensityModel, *, ks: tuple[int, ...] = DEFAULT_KS, workers: int = 1,
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
    labels = dataset.label_matrix()
    neighbours = []
    fused_reports: dict[int, EvalReport] = {}
    per_learner: list[EvalReport] = []
    for _, found in learner_neighbours(
        spec, dataset, test, learners=need, workers=workers
    ):
        neighbours.append(found)
        own = rank_labels([found], labels, max(ks))[0]
        per_learner.append(evaluate(own, truths, model, ks=ks))
        if len(neighbours) in sizes:
            fused = rank_labels(neighbours, labels, max(ks))[0]
            fused_reports[len(neighbours)] = evaluate(fused, truths, model, ks=ks)
    return SweepResult(
        fused=fused_reports,
        per_learner=per_learner,
        seeds=spec.seeds[:need],
    )


def sweep_dimension(
    seed: int, dataset: SparseDataset, test: SparseDataset, rs: Sequence[int], k: int, K: int, *,
    workers: int = 1,
) -> Iterator[tuple[int, tuple[np.ndarray, np.ndarray]]]:
    """Yield (r, `rank_labels`' top K labels and scores) of the `seed`
    learner for each r.

    One pass over F at max(rs) serves every r (`embedding.embed_prefixes`),
    and each ranking equals `fused_scores` of that one learner at r.
    """
    if not rs:
        raise ValueError("rs must be nonempty")
    spec = EmbeddingSpec(seed=seed, d=dataset.d, r=max(rs))
    labels = dataset.label_matrix()
    prefixes = embed_prefixes(spec, train_test_rows(dataset, test), rs, workers=workers)
    for r, (train, queries) in zip(rs, prefixes):
        yield r, rank_labels([batch_predict(train, queries, k)], labels, K)


def format_metadata(spec: EnsembleSpec) -> str:
    """The entire model as text: seeds and hyperparameters, nothing learned."""
    lines = [
        f"base_seed {spec.seeds[0]}",
        "seeds " + " ".join(str(s) for s in spec.seeds),
        f"d {spec.d}",
        f"r {spec.r}",
        f"k {spec.k}",
        f"E {spec.size}",
    ]
    return "\n".join(lines) + "\n"


def write_metadata(path, spec: EnsembleSpec) -> None:
    with atomic_write(path) as f:
        f.write(format_metadata(spec))


def read_metadata(path) -> EnsembleSpec:
    try:
        with open(path, "r", encoding="utf-8") as f:
            fields = {parts[0]: parts[1:] for parts in map(str.split, f) if parts}
        seeds = tuple(int(s) for s in fields["seeds"])
        spec = EnsembleSpec(
            seeds=seeds,
            d=int(fields["d"][0]),
            r=int(fields["r"][0]),
            k=int(fields["k"][0]),
        )
        size = int(fields["E"][0]) if "E" in fields else spec.size
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model metadata ({exc})") from None
    if size != spec.size:
        raise ValueError(f"{path}: E does not match the seed list")
    return spec
