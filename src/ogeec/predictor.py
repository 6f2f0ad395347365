"""Exhaustive kNN search in the embedded space and weighted label propagation.

Prediction for one query is: embed, exact top-k by dot product over every
training column, then transfer each neighbor's labels weighted by its clamped
similarity max(sim, 0). Scores are unnormalized weighted sums; every consumer
ranks them, so the proportionality constant is irrelevant. Ties (equal
similarity in kNN, equal score in top-K) break by ascending index, which makes
every output deterministic.

The scores of a batch of queries are one float64 CSR matrix S (queries x
labels), S = W @ Y (`score_matrix`): W holds the neighbours' similarities and
Y the train labels. `top_k` ranks every row with one lexsort; its label and
score arrays feed `format_predictions` and `metrics.evaluate`.

A similarity is `rescore`'s fixed-order float64 dot product. Search is one
blocked kernel per learner, the GEMM + k-selection scheme of FAISS (Johnson,
Douze, Jegou 2017) made exact: a float32 GEMM screens a tile of queries
against every training column, and only the columns that its rounding-error
bound cannot rule out of the top k are rescored in float64. Neighbours and
scores are those of a full float64 scan, whatever BLAS does and however many
threads it uses.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .embedding import EmbeddedMatrix
from .embedding import project_csr  # noqa: F401 -- perfbench/tracer.py wraps it here

Neighbor = tuple[int, float]

# float32 scores in one screen tile (8 MB); a tile holds this // n_train queries
_TILE_FLOATS = 1 << 21
_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53
_TINY32 = 2.0**-149  # spacing of float32 subnormals: the absolute error of underflow
_HUGE = 2.0**120  # screen scores below this cannot overflow float32 (2**128)


def rescore(q64: np.ndarray, data: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Float64 dot products of `q64` with the columns `cand` of `data`.

    Each score sums one C-contiguous row of float64 products along its last
    axis, so it depends only on the query and the column: not on BLAS, its
    thread count, or which other columns are scored in the same call.
    """
    out = np.empty(cand.size)
    step = max(1, _TILE_FLOATS // data.shape[0])  # 16 MB of float64 rows at a time
    for a in range(0, cand.size, step):
        rows = data.T[cand[a : a + step]].astype(np.float64)
        rows *= q64
        out[a : a + step] = rows.sum(axis=1)
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


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = nu / (1 - nu): the relative error bound of an n-term
    dot product in any summation order (Accuracy and Stability of Numerical
    Algorithms, section 3.1)."""
    return n * u / (1.0 - n * u) if n * u < 1.0 else math.inf


def _margin(r: int, qnorm: np.ndarray, xmax: float) -> np.ndarray:
    """delta >= |float32 screen score - float64 rescore| for every column.

    The screen rounds the query to float32 (u32, and gamma_{r+1} covers the
    rounded query's larger norm) and sums r float32 products; the rescore
    sums r float64 products. The absolute term covers float32 underflow, and
    the final factor the float64 rounding of the norms, delta and threshold.
    """
    rel = _gamma(r + 1, _U32) + _gamma(r, _U64) + _U32
    tiny = (r + math.sqrt(r) * xmax) * _TINY32
    return (rel * qnorm * xmax + tiny) * (1.0 + 2.0**-20)


def _max_column_norm(data: np.ndarray) -> float:
    r, n = data.shape
    step = max(1, _TILE_FLOATS // r)
    return math.sqrt(
        max(
            float(np.square(data[:, a : a + step], dtype=np.float64).sum(axis=0).max())
            for a in range(0, n, step)
        )
    )


def _search(queries: np.ndarray, data: np.ndarray, k: int) -> list[list[Neighbor]]:
    """Exact top-k of each column of `queries` (r, m) against `data` (r, n).

    Per query the float32 screen keeps every column scoring at least
    kth - 2 delta, where kth is the k-th largest screen score. A column whose
    float64 score reaches the k-th largest float64 score screens at least
    that score minus delta, which is at least kth - 2 delta; so the candidates
    hold the whole float64 top k, ties included.
    """
    r, n = data.shape
    m = queries.shape[1]
    everything = np.arange(n)
    xmax = _max_column_norm(data) if k < n else 0.0
    step = max(1, _TILE_FLOATS // max(n, 1))
    out: list[list[Neighbor]] = []
    for a in range(0, m, step):
        q64 = np.ascontiguousarray(queries[:, a : a + step].T, dtype=np.float64)
        if k >= n:
            cands = [everything] * len(q64)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # unscreened rows
                qnorm = np.sqrt(np.square(q64).sum(axis=1))
                scores = q64.astype(np.float32) @ data
            # a query whose screen could overflow is rescored against every column
            screened = (qnorm < _HUGE) & (qnorm * xmax < _HUGE)
            kth = np.partition(scores, n - k, axis=1)[:, n - k]
            keep = scores >= (kth - 2.0 * _margin(r, qnorm, xmax))[:, None]
            rows, cols = np.nonzero(keep)
            bounds = np.searchsorted(rows, np.arange(len(q64) + 1))
            cands = [
                cols[lo:hi] if ok else everything
                for lo, hi, ok in zip(bounds[:-1], bounds[1:], screened)
            ]
        for q, cand in zip(q64, cands):
            out.append(
                [(int(cand[i]), s) for i, s in exact_top_k(rescore(q, data, cand), k)]
            )
    return out


def knn(
    query: np.ndarray, train: EmbeddedMatrix, k: int
) -> list[Neighbor] | list[list[Neighbor]]:
    """Exact k nearest training columns by dot product, ties by ascending index.

    `query` is one embedded query of length r, answered with one neighbour
    list, or an (r, m) block of query columns, answered with m lists.
    """
    query = np.asarray(query)
    if query.ndim not in (1, 2) or query.shape[0] != train.r:
        raise ValueError(f"query shape {query.shape} != train dimensionality {train.r}")
    if k < 1:
        raise ValueError("k must be positive")
    lists = _search(query.reshape(train.r, -1), train.data, k)
    return lists[0] if query.ndim == 1 else lists


def propagate(neighbors: Sequence[Neighbor], labelsets: Sequence[np.ndarray]) -> dict[int, float]:
    """Weighted Bernoulli label transfer for one query, as a dict: score[w] =
    sum of max(sim, 0) over neighbors carrying w. Nonpositive-similarity
    neighbors contribute nothing, so every stored score is positive. This is
    the per-query definition that `score_matrix` computes for a whole batch."""
    scores: dict[int, float] = {}
    for idx, sim in neighbors:
        if sim <= 0.0:
            continue
        if not 0 <= idx < len(labelsets):
            raise IndexError(f"neighbor index {idx} out of range")
        for w in labelsets[idx]:
            w = int(w)
            scores[w] = scores.get(w, 0.0) + sim
    return scores


def score_matrix(neighbors: Sequence[Sequence[Neighbor]], labels: sp.csr_matrix) -> sp.csr_matrix:
    """Label scores of every query at once: S = W @ Y, row i = `propagate(neighbors[i])`.

    W (m x n_train) holds each query's clamped similarities max(sim, 0) in
    neighbour order, with unsorted indices, and `labels` is Y, the train
    label matrix of ones. scipy forms each row of W @ Y by adding w * 1.0
    into a zeroed accumulator in W's stored order and stores only nonzero
    sums, so every score is the same float sum, in the same order, as
    `propagate`'s (a clamped 0 adds nothing to a sum).
    """
    n = labels.shape[0]
    index = np.array([i for nbs in neighbors for i, _ in nbs], dtype=np.int64)
    sims = np.array([s for nbs in neighbors for _, s in nbs], dtype=np.float64)
    if index.size and not (0 <= index.min() and index.max() < n):
        raise IndexError(f"neighbor index out of range [0, {n})")
    indptr = np.cumsum([0, *map(len, neighbors)])
    W = sp.csr_matrix((np.maximum(sims, 0.0), index, indptr), shape=(len(neighbors), n))
    return W @ labels


def top_k(scores: sp.csr_matrix, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's K best labels by descending score, ties by ascending label.

    Returns the (m, K) labels, padded with -1 where a row holds fewer than K
    scores, and the matching (m, K) scores, padded with 0.
    """
    if K < 1:
        raise ValueError("K must be positive")
    m = scores.shape[0]
    rows = np.repeat(np.arange(m), np.diff(scores.indptr))
    order = np.lexsort((scores.indices, -scores.data, rows))
    # sorting by row first keeps every row's entries in its own CSR slice
    rank = np.arange(order.size) - scores.indptr[rows]
    keep = rank < K
    labels = np.full((m, K), -1, dtype=np.int64)
    top = np.zeros((m, K))
    labels[rows[keep], rank[keep]] = scores.indices[order[keep]]
    top[rows[keep], rank[keep]] = scores.data[order[keep]]
    return labels, top


def batch_predict(
    train: EmbeddedMatrix,
    labels: sp.csr_matrix,
    queries: np.ndarray,
    k: int,
    *,
    timings: dict[str, float] | None = None,
) -> sp.csr_matrix:
    """Score matrix of every column of `queries`, an (r, m) block of projected
    test samples (`embedding.embed_train_test` projects it in the same pass
    over F as the train matrix), from one `knn` call. `labels` is the train
    label matrix Y (`SparseDataset.label_matrix`)."""
    if queries.ndim != 2:
        raise ValueError(f"queries must be an (r, m) block, got shape {queries.shape}")
    t0 = time.perf_counter()
    neighbors = knn(queries, train, k)
    t1 = time.perf_counter()
    scores = score_matrix(neighbors, labels)
    if timings is not None:
        t2 = time.perf_counter()
        for key, seconds in (("search_s", t1 - t0), ("propagate_s", t2 - t1)):
            timings[key] = timings.get(key, 0.0) + seconds
    return scores


def format_predictions(labels: np.ndarray, scores: np.ndarray) -> str:
    """Prediction TSV from `top_k`'s arrays: per sample one row of
    tab-separated label:score pairs."""
    lines = [
        "\t".join(f"{w}:{s:.6g}" for w, s in zip(row, vals) if w >= 0)
        for row, vals in zip(labels.tolist(), scores.tolist())
    ]
    return "\n".join(lines) + "\n"
