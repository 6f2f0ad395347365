"""Exhaustive kNN search in the embedded space and weighted label propagation.

Prediction for one query is: embed, exact top-k by dot product over every
training column, then transfer each neighbor's labels weighted by its clamped
similarity max(sim, 0). Scores are unnormalized weighted sums; every consumer
ranks them, so the proportionality constant is irrelevant.

`top_k` is the one ranking: by descending score, ties by ascending index,
which makes every output deterministic. It ranks a search tile's candidate
columns, LSH candidates (`lsh.query_lsh`), label scores and the ideal
weights of `metrics.evaluate`, each a CSR matrix or its three arrays. It
selects, then sorts: a partition finds each row's K-th largest score, and
one lexsort ranks only the entries not below it, which hold the whole top K.

Neighbours are `top_k`'s arrays from search to W: `knn` returns an (m, k)
int64 index array and the matching (m, k) float64 similarities, and an index
of -1 (score 0.0) pads a row that holds fewer than k neighbours, as an LSH
row may. The scores of a batch of queries are one float64 CSR matrix S
(queries x labels), S = W @ Y (`score_matrix`): W holds the neighbours'
similarities and Y the train labels. `top_k`'s label and score arrays feed
`format_predictions` and `metrics.evaluate`.

A similarity is `rescore`'s fixed-order float64 dot product. Search is one
blocked kernel per learner, the GEMM + k-selection scheme of FAISS (Johnson,
Douze, Jegou 2017) made exact: a float32 GEMM screens a tile of queries
against every training column, and only the columns that its rounding-error
bound cannot rule out of the top k are rescored in float64 and ranked by
`top_k`. Neighbours and scores are those of a full float64 scan, whatever
BLAS does and however many threads it uses.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .embedding import EmbeddedMatrix
from .embedding import project_csr  # noqa: F401 -- perfbench/tracer.py wraps it here

# float32 scores in one screen tile (8 MB); a tile holds this // n_train queries.
# It also bounds top_k's padded selection block, in float64s (16 MB)
_TILE_FLOATS = 1 << 21
_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53
_TINY32 = 2.0**-149  # spacing of float32 subnormals: the absolute error of underflow
_HUGE = 2.0**120  # screen scores below this cannot overflow float32 (2**128)


def rescore(q64: np.ndarray, data: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Float64 dot products of the queries `q64[rows]` with the columns `cols`
    of `data`, pair by pair.

    Each score sums one C-contiguous row of float64 products along its last
    axis, so it depends only on the query and the column: not on BLAS, its
    thread count, or which other pairs are scored in the same call.
    """
    out = np.empty(cols.size)
    step = max(1, _TILE_FLOATS // (8 * data.shape[0]))  # 2 MB of float64 products at a time
    for a in range(0, cols.size, step):
        prods = q64[rows[a : a + step]]
        prods *= data.T[cols[a : a + step]]  # float32 columns, widened exactly
        out[a : a + step] = prods.sum(axis=1)
    return out


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


def _search(queries: np.ndarray, data: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k of each column of `queries` (r, m) against `data` (r, n),
    as (m, min(k, n)) index and score arrays.

    Per query the float32 screen keeps every column scoring at least
    kth - 2 delta, where kth is the k-th largest screen score. A column whose
    float64 score reaches the k-th largest float64 score screens at least
    that score minus delta, which is at least kth - 2 delta; so the candidates
    hold the whole float64 top k, ties included. A tile's candidates are one
    CSR matrix, rescored in float64 and ranked by `top_k`.
    """
    r, n = data.shape
    m = queries.shape[1]
    xmax = _max_column_norm(data) if k < n else 0.0
    # with k >= n every pair is a candidate: a tile holds _TILE_FLOATS // 8 of
    # them, so rescore's and top_k's pair arrays stay near 16 MB
    step = max(1, _TILE_FLOATS // ((8 if k >= n else 1) * max(n, 1)))
    index = np.empty((m, min(k, n)), dtype=np.int64)
    sims = np.empty((m, min(k, n)))
    for a in range(0, m, step):
        q64 = np.ascontiguousarray(queries[:, a : a + step].T, dtype=np.float64)
        if k >= n:
            keep = np.ones((len(q64), n), dtype=bool)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # unscreened rows
                qnorm = np.sqrt(np.square(q64).sum(axis=1))
                scores = q64.astype(np.float32) @ data
            kth = np.partition(scores, n - k, axis=1)[:, n - k]
            keep = scores >= (kth - 2.0 * _margin(r, qnorm, xmax))[:, None]
            # a query whose screen could overflow is rescored against every column
            keep[~((qnorm < _HUGE) & (qnorm * xmax < _HUGE))] = True
        rows, cols = np.nonzero(keep)
        indptr = np.searchsorted(rows, np.arange(len(q64) + 1))
        rescored = rescore(q64, data, rows, cols)
        index[a : a + step], sims[a : a + step] = top_k((rescored, cols, indptr), min(k, n))
    return index, sims


def knn(query: np.ndarray, train: EmbeddedMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest training columns by dot product, ties by ascending index.

    `query` is an (r, m) block of query columns, answered with (m, min(k, n))
    int64 training indices and the matching float64 similarities, each row
    in rank order; or one embedded query of length r, answered with one
    (min(k, n),) row of each.
    """
    query = np.asarray(query)
    if query.ndim not in (1, 2) or query.shape[0] != train.r:
        raise ValueError(f"query shape {query.shape} != train dimensionality {train.r}")
    if k < 1:
        raise ValueError("k must be positive")
    index, sims = _search(query.reshape(train.r, -1), train.data, k)
    return (index[0], sims[0]) if query.ndim == 1 else (index, sims)


def propagate(neighbors: Sequence[tuple], labelsets: Sequence[np.ndarray]) -> dict[int, float]:
    """Weighted Bernoulli label transfer for one query's (index, sim) pairs, as
    a dict: score[w] = sum of max(sim, 0) over neighbors carrying w.
    Nonpositive-similarity neighbors contribute nothing, so every stored score
    is positive. This is the per-query definition of `score_matrix`'s rows."""
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


def score_matrix(index: np.ndarray, sims: np.ndarray, labels: sp.csr_matrix) -> sp.csr_matrix:
    """Label scores of every query at once: S = W @ Y, row i = `propagate` of
    row i's neighbours.

    `index` and `sims` are `knn`'s (m, k) arrays; an index of -1 is a pad and
    is dropped, and any other index outside [0, n_train) raises IndexError.
    W (m x n_train) holds each query's clamped similarities max(sim, 0) in
    neighbour order, with unsorted indices, and `labels` is Y, the train
    label matrix of ones. scipy forms each row of W @ Y by adding w * 1.0
    into a zeroed accumulator in W's stored order and stores only nonzero
    sums, so every score is the same float sum, in the same order, as
    `propagate`'s (a clamped 0 adds nothing to a sum).
    """
    n = labels.shape[0]
    if np.any((index < -1) | (index >= n)):
        raise IndexError(f"neighbor index out of range [0, {n})")
    keep = index >= 0
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    W = sp.csr_matrix((np.maximum(sims[keep], 0.0), index[keep], indptr), shape=(len(index), n))
    return W @ labels


def top_k(
    scores: sp.csr_matrix | tuple[np.ndarray, np.ndarray, np.ndarray], K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's K best entries by descending score, ties by ascending index.

    `scores` is a CSR matrix or its (data, indices, indptr) arrays; a score
    may take any sign, and -0.0 ties with 0.0; NaN ranks after every number.
    Returns the (m, K) indices, padded with -1 where a row holds fewer than K
    entries, and the matching (m, K) scores, padded with 0.

    Select, then sort, as in the k-selection of FAISS: `_reaching_kth` keeps
    each row's entries not below its K-th largest score, in O(nnz), and one
    lexsort by (row, -score, index) ranks about K survivors per row, plus
    ties. The kept set holds every entry at least the K-th score, so it holds
    the whole top K, and dropping entries below it leaves the order of the
    rest unchanged: the result is that of sorting every entry. Besides the
    survivors and the output, the selection holds one padded block of at
    most _TILE_FLOATS float64s (16 MB), partitioned in place with no copy,
    and three 8-byte arrays over that block's stored entries.
    """
    if K < 1:
        raise ValueError("K must be positive")
    data, indices, indptr = (
        (scores.data, scores.indices, scores.indptr) if sp.issparse(scores) else scores
    )
    m = indptr.size - 1
    kept = _reaching_kth(data, indptr, K)
    if kept is not None:
        data, indices, indptr = data[kept], indices[kept], np.searchsorted(kept, indptr)
    rows = np.repeat(np.arange(m), np.diff(indptr))
    order = np.lexsort((indices, -data, rows))
    # sorting by row first keeps every row's entries in its own CSR slice
    rank = np.arange(order.size) - indptr[rows]
    keep = rank < K
    best = np.full((m, K), -1, dtype=np.int64)
    top = np.zeros((m, K))
    best[rows[keep], rank[keep]] = indices[order[keep]]
    top[rows[keep], rank[keep]] = data[order[keep]]
    return best, top


def _reaching_kth(data: np.ndarray, indptr: np.ndarray, K: int) -> np.ndarray | None:
    """Positions, ascending, of the CSR entries not below their row's K-th
    largest score, counting NaN as -inf; None when no row holds more than K.

    Rows go in blocks padded with -inf to the block's widest row, at most
    _TILE_FLOATS float64s a block (a row wider than that is a block alone),
    and one in-place partition per block finds each row's K-th score. A row
    whose K-th score is -inf keeps every entry, and NaN, which is never below
    anything and ranks last, is always kept.
    """
    lengths = np.diff(indptr)
    widest = int(lengths.max(initial=0))
    if widest <= K:
        return None
    step = max(1, _TILE_FLOATS // widest)
    kept = []
    for a in range(0, lengths.size, step):
        lens = lengths[a : a + step]
        lo, hi = indptr[a], indptr[a + lens.size]
        width = int(lens.max())
        if width <= K:
            kept.append(np.arange(lo, hi))
            continue
        # entry j of row i goes to flat position i * width + (j - start of row i)
        pos = np.repeat(np.arange(lens.size) * width - (indptr[a : a + lens.size] - lo), lens)
        pos += np.arange(hi - lo)
        block = np.full((lens.size, width), -np.inf)
        block.ravel()[pos] = np.fmax(data[lo:hi], -np.inf)  # a view; NaN -> -inf
        block.partition(width - K, axis=1)
        below = data[lo:hi] < np.repeat(block[:, width - K], lens)
        kept.append(lo + np.flatnonzero(~below))
    return np.concatenate(kept)


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
    index, sims = knn(queries, train, k)
    t1 = time.perf_counter()
    scores = score_matrix(index, sims, labels)
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
