"""Exhaustive kNN search in the embedded space and weighted label propagation.

Prediction for one query is: embed, exact top-k by dot product over every
training column, then transfer each neighbor's labels weighted by its clamped
similarity max(sim, 0). Scores are unnormalized weighted sums; every consumer
ranks them, so the proportionality constant is irrelevant. Ties (equal
similarity in kNN, equal score in top-K) break by ascending index, which makes
every output deterministic.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from .data import SparseDataset
from .embedding import EmbeddedMatrix, EmbeddingSpec, project_csr

# label index -> positive score
ScoreVector = dict[int, float]
Neighbor = tuple[int, float]

_SIM_BLOCK = 16384


def similarities(query: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Dot products of `query` against every column, accumulated in float64."""
    q = np.asarray(query, dtype=np.float64)
    n = data.shape[1]
    out = np.empty(n)
    for a in range(0, n, _SIM_BLOCK):
        b = min(a + _SIM_BLOCK, n)
        out[a:b] = q @ data[:, a:b].astype(np.float64)
    return out


def exact_top_k(sims: np.ndarray, k: int) -> list[Neighbor]:
    """Top-k by descending value, ties by ascending index. Exact, not approximate."""
    n = sims.shape[0]
    if k < n:
        kth = np.partition(sims, n - k)[n - k]
        cand = np.flatnonzero(sims >= kth)
    else:
        cand = np.arange(n)
    order = np.lexsort((cand, -sims[cand]))
    top = cand[order[: min(k, n)]]
    return [(int(i), float(sims[i])) for i in top]


def knn(query: np.ndarray, train: EmbeddedMatrix, k: int) -> list[Neighbor]:
    """Exact k nearest training columns of an embedded query, by dot product."""
    query = np.asarray(query)
    if query.shape != (train.r,):
        raise ValueError(f"query length {query.shape} != train dimensionality {train.r}")
    if k < 1:
        raise ValueError("k must be positive")
    return exact_top_k(similarities(query, train.data), k)


def propagate(neighbors: Sequence[Neighbor], labelsets: Sequence[np.ndarray]) -> ScoreVector:
    """Weighted Bernoulli label transfer: score[w] = sum of max(sim, 0) over
    neighbors carrying w. Nonpositive-similarity neighbors contribute nothing,
    so every stored score is positive."""
    scores: ScoreVector = {}
    for idx, sim in neighbors:
        if sim <= 0.0:
            continue
        if not 0 <= idx < len(labelsets):
            raise IndexError(f"neighbor index {idx} out of range")
        for w in labelsets[idx]:
            w = int(w)
            scores[w] = scores.get(w, 0.0) + sim
    return scores


def top_k_labels(scores: ScoreVector, K: int) -> list[int]:
    """Labels by descending score, ties by ascending label index."""
    if K < 1:
        raise ValueError("K must be positive")
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [w for w, _ in ranked[:K]]


def batch_predict(
    spec: EmbeddingSpec,
    train: EmbeddedMatrix,
    labelsets: Sequence[np.ndarray],
    test: SparseDataset,
    k: int,
    *,
    workers: int = 1,
    timings: dict[str, float] | None = None,
) -> list[ScoreVector]:
    """Predict every test sample.

    The whole test set is projected in one call, whose `workers` threads split
    F's rows so each row is generated once; the same workers then search the
    queries. Queries are independent, so the result is identical for any
    worker count.
    """
    if test.d != spec.d:
        raise ValueError(f"test dimensionality {test.d} != spec.d {spec.d}")
    X = test.to_feature_csr(np.float64)
    t0 = time.perf_counter()
    emb = project_csr(spec, X, workers=workers)
    t_embed = time.perf_counter() - t0
    results: list[ScoreVector | None] = [None] * test.n
    search_s = np.zeros(test.n)
    propagate_s = np.zeros(test.n)

    def score_one(i: int) -> None:
        t0 = time.perf_counter()
        neighbors = knn(emb[:, i], train, k)
        t1 = time.perf_counter()
        results[i] = propagate(neighbors, labelsets)
        search_s[i] = t1 - t0
        propagate_s[i] = time.perf_counter() - t1

    if workers <= 1:
        for i in range(test.n):
            score_one(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(score_one, range(test.n)))
    if timings is not None:
        timings["query_embed_s"] = timings.get("query_embed_s", 0.0) + t_embed
        timings["search_s"] = timings.get("search_s", 0.0) + float(search_s.sum())
        timings["propagate_s"] = timings.get("propagate_s", 0.0) + float(
            propagate_s.sum()
        )
    return results  # type: ignore[return-value]


def format_predictions(scores: Sequence[ScoreVector], K: int) -> str:
    """Prediction TSV: per sample one row of tab-separated label:score pairs."""
    lines = []
    for sv in scores:
        labels = top_k_labels(sv, K) if sv else []
        lines.append("\t".join(f"{w}:{sv[w]:.6g}" for w in labels))
    return "\n".join(lines) + "\n"


def write_predictions(path, scores: Sequence[ScoreVector], K: int) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_predictions(scores, K))
