"""Exhaustive kNN search in the embedded space and weighted label propagation.

Prediction for one query is: embed, exact top-k by dot product over every
training column, then transfer each neighbor's labels weighted by its clamped
similarity max(sim, 0). Scores are unnormalized weighted sums; every consumer
ranks them, so the proportionality constant is irrelevant.

`top_k` is the one ranking: by descending score, ties by ascending index,
which makes every output deterministic. It ranks a search tile's candidate
columns and LSH candidates (both through `rank_candidates`), label scores
and the ideal weights of `metrics.evaluate`, each a `csr.CSR`. It selects,
then sorts: a partition finds each row's K-th largest score, and one
lexsort ranks only the entries not below it, which hold the whole top K.

Neighbours are `top_k`'s arrays from search to W: `knn` returns an
(m, min(k, n)) int64 index array and the matching float64 similarities, and
an index of -1 (score 0.0) pads a row that holds fewer neighbours than its
width, as an LSH row may. `rank_prefixes` is the one label pass: per block
of queries, it adds the learners' S = W·Y (`csr.learner_scores`; W holds
the neighbours' similarities and Y the train labels) in learner order, and
ranks the mean of the first s by `top_k` at each requested s before the
next block forms. `rank_labels` is that pass at s = E; its (m, K) arrays
feed `format_predictions` and `evaluate`.

A similarity is `rank_candidates`' fixed-order float64 dot product. Search
is one blocked kernel per learner, the GEMM + k-selection scheme of FAISS
(Johnson, Douze, Jegou 2017) made exact: a float32 GEMM screens a tile of
up to 256 queries against the training columns, a fixed chunk of columns
at a time, and a running k-th best screen score keeps only the columns
that its rounding-error bound cannot rule out of the top k; those are
rescored in float64 and ranked by `top_k`. The working set is about 1 MiB
of screen scores whatever n_train, and neighbours and scores are those of
a full float64 scan, whatever BLAS does and however many threads it uses.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from . import trace
from .csr import CSR, learner_scores, mean_scores
from .embedding import EmbeddedMatrix, column_norms
from .embedding import project_csr  # noqa: F401 -- kept only so a perfbench/tracer.py wrap target resolves, until ROADMAP item 4

# float32 scores of one screen chunk (1 MiB): a tile of T queries screens
# max(k, this // T) training columns at a time, 1,024 at T = 256, whatever
# n_train; a tile also holds at most this many neighbours
_SCREEN_FLOATS = 1 << 18
# queries in one search tile, past which the GEMM gains nothing
_TILE_QUERIES = 256
# screen candidates one query may hold beyond its k best; a query past it,
# as one whose screen could overflow, is rescored alone against every column
_ROW_CANDIDATES = 1 << 8
# float64 products in one of `rank_candidates`' blocks (2 MB)
_PRODUCT_FLOATS = 1 << 18
# float64s in one of `top_k`'s padded selection blocks (16 MB)
_SELECT_FLOATS = 1 << 21
# float64s in one of `rank_prefixes`' dense label blocks (1 MiB; it holds
# this // L queries)
_LABEL_FLOATS = 1 << 17

_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53
_TINY32 = 2.0**-149  # spacing of float32 subnormals: the absolute error of underflow
_HUGE = 2.0**120  # screen scores below this cannot overflow float32 (2**128)


def rank_candidates(
    q64: np.ndarray, data: np.ndarray, rows: np.ndarray, cols: np.ndarray, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """`top_k` of one CSR row per query of `q64`: the float64 dot products of
    `q64[rows]` (`rows` ascending) with the columns `cols` of `data`, by pair.

    Each score sums one C-contiguous row of float64 products along its last
    axis, so it depends only on the query and the column: not on BLAS, its
    thread count, or which other pairs are scored in the same call.
    """
    scores = np.empty(cols.size)
    step = max(1, _PRODUCT_FLOATS // data.shape[0])
    for a in range(0, cols.size, step):
        prods = q64[rows[a : a + step]]
        prods *= data.T[cols[a : a + step]]  # float32 columns, widened exactly
        scores[a : a + step] = prods.sum(axis=1)
        del prods  # not held while the next block or top_k allocates
    indptr = np.searchsorted(rows, np.arange(len(q64) + 1))
    return top_k(CSR(scores, cols, indptr, (len(q64), data.shape[1])), K)


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
    # sqrt is correctly rounded, so monotone: the largest norm is the square
    # root of the largest sum of squares
    return max(float(norms.max()) for _, norms in column_norms(data))


def _search(queries: np.ndarray, data: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k of each column of `queries` (r, m) against `data` (r, n),
    as (m, min(k, n)) index and score arrays, tile by tile: `_screen` when
    k < n, else every (query, column) pair ranked by `rank_candidates`.

    A tile holds at most _TILE_QUERIES queries and _SCREEN_FLOATS
    neighbours, so with k >= n at most _SCREEN_FLOATS pairs.
    """
    r, n = data.shape
    m, width = queries.shape[1], min(k, n)
    xmax = _max_column_norm(data) if k < n else 0.0
    step = max(1, min(_TILE_QUERIES, _SCREEN_FLOATS // max(width, 1)))
    index = np.empty((m, width), dtype=np.int64)
    sims = np.empty((m, width))
    for a in range(0, m, step):
        q64 = np.ascontiguousarray(queries[:, a : a + step].T, dtype=np.float64)
        if k < n:
            index[a : a + step], sims[a : a + step] = _screen(q64, data, k, xmax)
        else:
            rows, cols = np.divmod(np.arange(len(q64) * n), n)
            index[a : a + step], sims[a : a + step] = rank_candidates(q64, data, rows, cols, width)
    return index, sims


def _screen(q64: np.ndarray, data: np.ndarray, k: int, xmax: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k, k < n, of each row of the tile `q64` (T, r) against
    `data` (r, n), whose largest column norm is `xmax`: `rank_candidates`
    scores `_candidates`' pairs in float64 and ranks them, and each query
    that left the screen is rescored alone by `_rescore_alone`. The screen's
    buffers are freed before the ranking allocates."""
    rows, cols, alone = _candidates(q64, data, k, xmax)
    index, sims = rank_candidates(q64, data, rows, cols, k)
    for i in np.flatnonzero(alone):
        index[i], sims[i] = _rescore_alone(q64[i : i + 1], data, k)
    return index, sims


def _candidates(q64: np.ndarray, data: np.ndarray, k: int, xmax: float) -> tuple[np.ndarray, ...]:
    """The float32 screen of a tile: the candidate (row, column) pairs, rows
    ascending, and the mask of the rows that left the screen.

    A float32 GEMM screens the columns in chunks of C = max(k, _SCREEN_FLOATS
    // T) into one reused (T, C) buffer. The first chunk's k best screen
    scores per row start a running top k; each chunk keeps (row, column,
    score) wherever the score reaches kth - 2 delta, where kth is the running
    k-th best screen score and delta the `_margin` of the row; the kept
    scores alone raise the running top k, since a score that raises it is
    at least the old kth; and the kept pairs are pruned to the new threshold.
    So after the last chunk the candidates are the columns screening at
    least kth - 2 delta at the final kth, the k-th largest of all n screen
    scores. A column whose float64 score reaches the k-th largest float64
    score screens at least that score minus delta, which is at least
    kth - 2 delta, in any float32 summation order: the candidates hold the
    whole float64 top k, ties included.

    A row whose screen could overflow float32, or that holds more than
    k + _ROW_CANDIDATES candidates (as when many columns tie), leaves the
    screen with none. Besides the tile, the screen holds its buffer, a mask
    of it, at most k + _ROW_CANDIDATES kept pairs per row and one chunk's
    new pairs.
    """
    T, (r, n) = len(q64), data.shape
    with np.errstate(over="ignore", invalid="ignore"):  # rows that leave the screen
        qnorm = np.sqrt(np.square(q64).sum(axis=1))
        alone = ~((qnorm < _HUGE) & (qnorm * xmax < _HUGE))
        q32 = q64.astype(np.float32)
        twodelta = 2.0 * _margin(r, qnorm, xmax)
    q32[alone] = 0.0
    C = max(k, _SCREEN_FLOATS // T)
    scores = np.empty(T * min(C, n), dtype=np.float32)
    reached = np.empty(scores.size, dtype=bool)
    keys = np.empty(0, dtype=np.int64)  # the kept pairs, row * n + column
    kept = np.empty(0, dtype=np.float32)  # and their screen scores
    for c0 in range(0, n, C):
        w = min(C, n - c0)
        chunk = np.matmul(q32, data[:, c0 : c0 + w], out=scores[: T * w].reshape(T, w))
        if c0 == 0:  # k best scores from copies of at most 1/8 of the chunk
            step = max(1, T // 8)
            best = np.concatenate([np.partition(chunk[b : b + step], w - k, axis=1)[:, w - k :]
                                   for b in range(0, T, step)])
            thr = _least_float32(np.where(alone, np.inf, best[:, 0] - twodelta))
        flat = np.flatnonzero(np.greater_equal(chunk, thr[:, None], out=reached[: T * w].reshape(T, w)))
        if flat.size == 0:
            continue
        new = scores[flat]
        rows = flat // w
        flat += rows * (n - w) + c0  # the pairs' keys
        if c0:
            best = _raise_best(best, rows, new)
            thr = _least_float32(np.where(alone, np.inf, best[:, 0] - twodelta))
        keys, kept = np.concatenate([keys, flat]), np.concatenate([kept, new])
        rows = keys // n
        keep = kept >= thr[rows]
        over = np.bincount(rows[keep], minlength=T) > k + _ROW_CANDIDATES
        alone |= over
        thr[over] = np.inf
        keep &= ~over[rows]
        keys, kept = keys[keep], kept[keep]
    return *np.divmod(np.sort(keys), n), alone


def _least_float32(thr: np.ndarray) -> np.ndarray:
    """The least float32 not below each float64 threshold: a float32 score
    reaches it exactly when the score reaches the threshold, and a float32
    comparison takes about a third of the time of a mixed one."""
    near = thr.astype(np.float32)
    return np.where(near < thr, np.nextafter(near, np.float32(np.inf)), near)


def _raise_best(best: np.ndarray, rows: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The (T, k) running best screen scores, each row's k-th largest in
    column 0, raised by the scores `new` of the rows `rows` (ascending): one
    partition of each row's best and new scores, padded with -inf."""
    T, k = best.shape
    counts = np.bincount(rows, minlength=T)
    width = k + int(counts.max())
    pad = np.full((T, width), -np.inf, dtype=np.float32)
    pad[:, :k] = best
    starts = np.cumsum(counts) - counts
    pad.ravel()[rows * width + k + np.arange(rows.size) - starts[rows]] = new
    pad.partition(width - k, axis=1)
    return pad[:, width - k :].copy()


def _rescore_alone(q64: np.ndarray, data: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`rank_candidates` of one query (1, r) against every column of `data`,
    k < n: per block of one product block's columns, the block and the best
    k so far. Each score depends only on its pair, so the result is that of
    ranking every column at once, in memory that grows with neither n nor
    the tile."""
    r, n = data.shape
    step = max(1, _PRODUCT_FLOATS // r)
    best = np.empty(0, dtype=np.int64)
    for c0 in range(0, n, step):
        cols = np.concatenate([best, np.arange(c0, min(c0 + step, n))])
        index, sims = rank_candidates(q64, data, np.zeros(cols.size, dtype=np.int64), cols, k)
        best = index[0][index[0] >= 0]
    return index[0], sims[0]


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
    is positive. This is the per-query definition of a row of one learner's
    `csr.learner_scores`."""
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


def top_k(scores: CSR, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's K best entries by descending score, ties by ascending index.

    A score may take any sign, and -0.0 ties with 0.0; NaN ranks after every
    number. Returns the (m, K) indices, padded with -1 where a row holds
    fewer than K entries, and the matching (m, K) scores, padded with 0.

    Select, then sort, as in the k-selection of FAISS: `_reaching_kth` keeps
    each row's entries not below its K-th largest score, in O(nnz), and one
    lexsort by (row, -score, index) ranks about K survivors per row, plus
    ties. The kept set holds every entry at least the K-th score, so it holds
    the whole top K, and dropping entries below it leaves the order of the
    rest unchanged: the result is that of sorting every entry. Besides the
    survivors and the output, the selection holds one padded block of at
    most _SELECT_FLOATS float64s (16 MB), partitioned in place with no copy,
    and three 8-byte arrays over that block's stored entries.
    """
    if K < 1:
        raise ValueError("K must be positive")
    data, indices, indptr, (m, _) = scores
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
    _SELECT_FLOATS float64s a block (a row wider than that is a block alone),
    and one in-place partition per block finds each row's K-th score. A row
    whose K-th score is -inf keeps every entry, and NaN, which is never below
    anything and ranks last, is always kept.
    """
    lengths = np.diff(indptr)
    widest = int(lengths.max(initial=0))
    if widest <= K:
        return None
    step = max(1, _SELECT_FLOATS // widest)
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


@trace.span("propagate_s")
def rank_prefixes(
    learners: Sequence[tuple[np.ndarray, np.ndarray]], labels: CSR, K: int, sizes: Sequence[int]
) -> dict:
    """{s: `top_k` of the mean label scores of the first s learners} for each
    distinct s in `sizes`, all in [1, E]. Per block of at most
    _LABEL_FLOATS // L queries (1 MiB of float64 scores; 133 at L = 983),
    each learner's `learner_scores` block is built once and added in learner
    order to a running sum, as scipy's S_1 + S_2 + ... adds them (bincount
    forms no -0.0, so a label a learner never scored adds 0); at each s,
    `mean_scores` divides the sum by s and `top_k` ranks it. A row's scores
    depend only on its own neighbours, so each ranking is that of one pass
    over all queries; no score matrix of all m queries is held, but every
    ranking is held until the last block."""
    if not sizes or not all(1 <= s <= len(learners) for s in sizes):
        raise ValueError(f"sizes must be nonempty and lie in [1, {len(learners)}]")
    m, L = len(learners[0][0]), labels.shape[1]
    step = max(1, _LABEL_FLOATS // max(L, 1))
    fused = {s: (np.empty((m, K), dtype=np.int64), np.empty((m, K))) for s in sorted(set(sizes))}
    for a in range(0, m, step):
        total = None
        for s, (index, sims) in enumerate(learners[: max(fused)], 1):
            block = learner_scores(index[a : a + step], sims[a : a + step], labels)
            total = block if total is None else np.add(total, block, out=total)
            del block  # only the sum is held while `top_k` ranks
            if s in fused:
                best, top = fused[s]
                best[a : a + step], top[a : a + step] = top_k(mean_scores(total, L, s), K)
    return fused


def rank_labels(
    learners: Sequence[tuple[np.ndarray, np.ndarray]], labels: CSR, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """`top_k` of the mean label scores of all E learners, from their (m, k)
    neighbour arrays and Y: `rank_prefixes` at E."""
    return rank_prefixes(learners, labels, K, [len(learners)])[len(learners)]


@trace.span("search_s")
def batch_predict(
    train: EmbeddedMatrix, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """One learner's neighbours of every column of `queries`, an (r, m) block
    of projected test samples (`ensemble.learner_embeddings` projects it in
    the same pass over F as the train matrix): `knn`'s (m, min(k, n)) index
    and similarity arrays, for `rank_labels`. Its wall time adds to
    `trace`'s `search_s`."""
    if queries.ndim != 2:
        raise ValueError(f"queries must be an (r, m) block, got shape {queries.shape}")
    return knn(queries, train, k)


def format_predictions(labels: np.ndarray, scores: np.ndarray) -> str:
    """Prediction TSV from `top_k`'s arrays: per sample one row of
    tab-separated label:score pairs. The -1 pads are dropped while the
    arrays are still arrays, so only ranked entries become Python objects."""
    keep = labels >= 0
    pairs = zip(labels[keep].tolist(), scores[keep].tolist())
    lines = [
        "\t".join(f"{w}:{s:.6g}" for w, s in itertools.islice(pairs, count))
        for count in keep.sum(axis=1).tolist()
    ]
    return "\n".join(lines) + "\n"
