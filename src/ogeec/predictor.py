"""Exhaustive kNN search in the embedded space and weighted label propagation.

Prediction for one query is: embed, exact top-k by dot product over every
training column, then transfer each neighbor's labels weighted by its clamped
similarity max(sim, 0). Scores are unnormalized weighted sums; every consumer
ranks them, so the proportionality constant is irrelevant. Ties (equal
similarity in kNN, equal score in top-K) break by ascending index, which makes
every output deterministic.

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

from .embedding import EmbeddedMatrix
from .embedding import project_csr  # noqa: F401 -- perfbench/tracer.py wraps it here

# label index -> positive score
ScoreVector = dict[int, float]
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
    train: EmbeddedMatrix,
    labelsets: Sequence[np.ndarray],
    queries: np.ndarray,
    k: int,
    *,
    timings: dict[str, float] | None = None,
) -> list[ScoreVector]:
    """Predict every column of `queries`, an (r, m) block of projected test
    samples (`embedding.embed_train_test` projects it in the same pass over F
    as the train matrix), with one `knn` call."""
    if queries.ndim != 2:
        raise ValueError(f"queries must be an (r, m) block, got shape {queries.shape}")
    t0 = time.perf_counter()
    neighbors = knn(queries, train, k)
    t1 = time.perf_counter()
    results = [propagate(nb, labelsets) for nb in neighbors]
    if timings is not None:
        t2 = time.perf_counter()
        for key, seconds in (("search_s", t1 - t0), ("propagate_s", t2 - t1)):
            timings[key] = timings.get(key, 0.0) + seconds
    return results


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
