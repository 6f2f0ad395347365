"""Ensembles of seeded learners fused by uniform score averaging.

A learner is just a seed: its projection matrix, the embedded training matrix
built from it, and the kNN propagation rule. The whole model is therefore a
handful of integers; the metadata file (`model`) is everything needed to
rebuild it. Fusion averages each label's score across learners, counting 0
for learners that never scored it: each learner keeps only its neighbour
arrays, and one `predictor.rank_labels` pass adds their scores in learner
order, S1 + S2 + ..., divides every nonzero sum by E and ranks them, one
block of queries at a time. The ensemble-size sweep ranks every requested
size in one such pass (`predictor.rank_prefixes`) and every learner alone
in a pass of its own, and leaves scoring them to its caller.

Every command that projects takes its learners from `learner_embeddings`,
which plans each set of samples once and projects it in one pass over F.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import replace

import numpy as np

from .data import SparseDataset
from .embedding import (
    EmbeddedMatrix, PlannedRows,
    check_cache,
    embed_prefixes,
    load_cache,
    project_rows,
)
from .embedding import embed  # noqa: F401 -- kept only so a perfbench/tracer.py wrap target resolves, until ROADMAP item 4
from .metrics import evaluate  # noqa: F401 -- kept only so a perfbench/tracer.py wrap target resolves, until ROADMAP item 4
from .model import (  # noqa: F401 -- the model file and its specs, exported as before
    EmbeddingSpec, EnsembleSpec, format_metadata, make_ensemble_spec, read_metadata, write_metadata,
)
from .predictor import batch_predict, rank_labels, rank_prefixes


def learner_embeddings(
    spec: EnsembleSpec, dataset: SparseDataset, test: SparseDataset | None = None, *,
    workers: int = 1, cache: str | None = None,
) -> Iterator[tuple[EmbeddingSpec, EmbeddedMatrix, np.ndarray]]:
    """Yield (learner spec, embedded train matrix, (r, n_test) query block)
    for each of `spec`'s seeds, in turn; without `test` (nor `cache`), the
    query block is empty. It keeps no reference to what it yields, so once
    the caller drops a learner's arrays, memory holds none of them while the
    next learner projects; and it drops its planned rows once the last
    learner is projected, before that learner is yielded.

    With a `cache` prefix, every cache file is checked against `dataset`
    first (`check_cache`). Each set's feature CSR is then planned once
    (`embedding.PlannedRows`), and only where a learner projects it: the
    train rows stacked over the test rows unless every learner is cached,
    the test rows alone only when some learner is. A cached learner loads
    its train matrix (`load_cache`) and projects the test rows alone; any
    other projects both sets in one pass over F, bit-identical to projecting
    them apart, since each column is its own sample's sum. Once planned, a
    `planned_only` set drops its feature arrays (`features_planned`).

    Each projection and cache load adds its wall time to `trace`'s
    `embed_s`; a caller that reports one learner's time pops it.
    """
    # every cache file's header, size, crc32 and finiteness, before any
    # learner's work
    cached = [cache is not None and check_cache(cache, spec.learner(i), dataset)
              for i in range(spec.size)]
    sets = [ds for ds in (dataset, test) if ds is not None]
    both = None if all(cached) else PlannedRows(*(ds.features for ds in sets), r=spec.r, workers=workers)
    alone = PlannedRows(test.features, r=spec.r, workers=workers) if any(cached) else None
    for ds in sets:
        ds.features_planned()

    def embedded(i: int) -> tuple[EmbeddingSpec, EmbeddedMatrix, np.ndarray]:
        nonlocal both, alone
        lspec = spec.learner(i)
        if cached[i]:
            train = load_cache(cache, lspec, dataset)
            queries = project_rows(lspec, alone)
        else:
            data = project_rows(lspec, both)
            train = EmbeddedMatrix(data[:, : dataset.n])
            queries = data[:, dataset.n :]
        if i == spec.size - 1:
            both = alone = None  # no learner projects them again
        return lspec, train, queries

    for i in range(spec.size):
        yield embedded(i)


def learner_neighbours(
    spec: EnsembleSpec, dataset: SparseDataset, test: SparseDataset, *,
    workers: int = 1, cache: str | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield each learner's (index, sims) in order: `knn`'s neighbour arrays
    of every test sample, searched in the learners that `learner_embeddings`
    yields."""
    for _, train, queries in learner_embeddings(spec, dataset, test, workers=workers, cache=cache):
        neighbours = batch_predict(train, queries, spec.k)
        del train, queries  # freed before the next learner is projected
        yield neighbours


def fused_scores(
    spec: EnsembleSpec, dataset: SparseDataset, test: SparseDataset, K: int, *,
    workers: int = 1, cache: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """`rank_labels`' (m, K) top labels and scores of every test sample by
    fused score over `spec`'s seeds. Only the learners' neighbour arrays are
    held until that one label pass. Its layers add their wall time to
    `trace`'s record: `embed_s`, `search_s` per learner, and `propagate_s`."""
    found = learner_neighbours(spec, dataset, test, workers=workers, cache=cache)
    return rank_labels(list(found), dataset.labels, K)


def sweep_ensemble_size(
    spec: EnsembleSpec, dataset: SparseDataset, test: SparseDataset, sizes: Sequence[int],
    K: int, *, workers: int = 1,
) -> tuple[list, dict]:
    """(each learner's own ranking, in seed order; {s: the fused ranking of
    the first s seeds} for each distinct s in `sizes`), each `rank_labels`'
    top K labels and scores, of the learners of the first max(sizes) seeds.
    `rank_prefixes` ranks every size in one label pass and `rank_labels`
    each learner alone, so E learners take 2E label blocks per block of
    queries, still linear in E."""
    prefix = replace(spec, seeds=spec.seeds[: max(sizes)])
    neighbours = list(learner_neighbours(prefix, dataset, test, workers=workers))
    fused = rank_prefixes(neighbours, dataset.labels, K, sizes)
    return [rank_labels([found], dataset.labels, K) for found in neighbours], fused


def sweep_dimension(
    seed: int, dataset: SparseDataset, test: SparseDataset, rs: Sequence[int], k: int, K: int, *,
    workers: int = 1,
) -> Iterator[tuple[int, tuple[np.ndarray, np.ndarray]]]:
    """Yield (r, `rank_labels`' top K labels and scores) of the `seed`
    learner for each r.

    The samples are planned as `learner_embeddings` plans them, and one
    pass over F at max(rs) serves every r (`embedding.embed_prefixes`), so
    each ranking equals `fused_scores` of that one learner at r. Once
    planned, a `planned_only` set drops its feature arrays, and the plan
    goes once `embed_prefixes` has projected it.
    """
    if not rs:
        raise ValueError("rs must be nonempty")
    if min(rs) < 1:  # before any sample is planned or row of F drawn
        raise ValueError(f"r {min(rs)} out of range [1, {max(rs)}]")
    spec = EmbeddingSpec(seed=seed, d=dataset.d, r=max(rs))
    prefixes = embed_prefixes(spec, PlannedRows(dataset.features, test.features, r=spec.r, workers=workers), rs)
    dataset.features_planned()
    test.features_planned()
    for r, data in zip(rs, prefixes):
        train = EmbeddedMatrix(data[:, : dataset.n])
        yield r, rank_labels([batch_predict(train, data[:, dataset.n :], k)], dataset.labels, K)
