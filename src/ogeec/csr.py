"""Compressed sparse rows on numpy alone, and the pipeline's sparse kernels.

A `CSR` is the triple (data, indices, indptr) plus its shape: row i stores
data[indptr[i]:indptr[i+1]] at the columns indices[indptr[i]:indptr[i+1]],
in that stored order. Samples, the label matrix Y and every score matrix are
CSR.

Each kernel fixes the order in which it adds its float64 terms, and drops
the same zeros, so each result is the float that scipy.sparse's expression
for it computes (`tests/oracles.py` keeps those expressions and the tests
compare bits):

- `normalize_rows`: X scaled to unit rows, `diags(1 / norms) @ X`;
- `vstack`: the rows of one CSR over another's;
- `RowProducts`: `X @ F.T` for row blocks F of the projection matrix;
- `label_scores`: for one block of queries, the learners' S = W·Y, their
  sum in learner order and the division by the learner count;
- `pair_dots`: the dot products of pairs of rows.

`sorted_unique` is `np.unique` of integer keys by a sort: numpy's hash-based
`unique` is over 20 times slower on the pipeline's int64 keys, and it
imports `numpy.ma`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

# float64s in one `RowProducts` chunk of rows (1 MB): small enough that a
# chunk's accumulator and products stay near the cache while every position
# is added, large enough that a worker's numpy steps seldom contend for the
# interpreter lock with the worker generating F
_CHUNK_FLOATS = 1 << 17


class CSR(NamedTuple):
    """A sparse matrix: row i holds data[indptr[i]:indptr[i+1]] at the
    columns indices[indptr[i]:indptr[i+1]], in stored order."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


def _index_dtype(bound: int):
    return np.int32 if bound < 2**31 else np.int64


def _gather_rows(X: CSR, rows: np.ndarray) -> np.ndarray:
    """Positions of the stored entries of X's `rows`, row after row, each
    row in stored order."""
    lengths = np.diff(X.indptr)[rows]
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(X.indptr[rows] - (ends - lengths), lengths) + np.arange(total)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: `np.unique(values)` for integers."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def normalize_rows(X: CSR) -> tuple[CSR, np.ndarray]:
    """Unit-norm rows (zero rows stay zero) and the original row norms.

    A row's squared norm is np.add.reduceat over its squared values, as
    scipy's `sum(axis=1)` adds them. Each stored value x becomes
    (1 / norm) * x, and a product that is 0 (an explicit zero, a zero row,
    an underflow) is dropped. Each row's stored order is reversed, as
    scipy's `diags(1 / norms) @ X` stores it; the projection sums each row
    in stored order, so the reversal is part of its bits.
    """
    n = X.shape[0]
    lengths = np.diff(X.indptr)
    nonempty = np.flatnonzero(lengths)
    sq = np.zeros(n)
    if nonempty.size:
        sq[nonempty] = np.add.reduceat(X.data[: X.nnz] ** 2, X.indptr[nonempty])
    norms = np.sqrt(sq)
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    rows = np.repeat(np.arange(n), lengths)  # the row of every stored entry
    # entry q of row [s, e) takes the value stored at s + e - 1 - q
    src = X.indptr[:-1][rows]
    src += X.indptr[1:][rows] - 1
    src -= np.arange(src.size)
    data = inv[rows] * X.data[src]
    indices = X.indices[src]
    if not data.all():
        kept = np.flatnonzero(data)
        data, indices = data[kept], indices[kept]
        indptr = np.searchsorted(kept, X.indptr)
    else:
        indptr = X.indptr.copy()
    return CSR(data, indices, indptr, X.shape), norms


def vstack(top: CSR, bottom: CSR) -> CSR:
    """The rows of `top`, then the rows of `bottom` (of as many columns), each
    as stored."""
    return CSR(
        np.concatenate([top.data[: top.nnz], bottom.data[: bottom.nnz]]),
        np.concatenate([top.indices[: top.nnz], bottom.indices[: bottom.nnz]]),
        np.concatenate([top.indptr, bottom.indptr[1:] - bottom.indptr[0] + top.nnz]),
        (top.shape[0] + bottom.shape[0], top.shape[1]),
    )


class RowProducts:
    """(X @ F.T).T for row blocks F (b x X's columns) of one matrix: each
    output element (k, i) adds X's row i times F[k] term by term, in the
    row's stored order, into a zeroed float64, as scipy's `csr_matvecs` does.

    Rows are sorted by length, longest first, and cut into chunks of about
    _CHUNK_FLOATS // `b` rows. Within a chunk the entries are ordered by
    position: the first stored entry of every row, then the second of every
    row that has one, and so on, so one numpy step adds stored position p to
    every row of the chunk at once and each row still adds its terms in
    stored order. A step gathers its rows of F.T, a C-contiguous copy of the
    block, scales them by the entries' values and adds them to the chunk's
    accumulator.
    """

    def __init__(self, X: CSR, b: int):
        self.n = X.shape[0]
        self.rows = max(1, _CHUNK_FLOATS // max(b, 1))
        lengths = np.diff(X.indptr)
        self.order = np.argsort(-lengths, kind="stable")
        slen = lengths[self.order]
        starts = X.indptr[:-1][self.order]
        self.chunks = []
        for a in range(0, self.n, self.rows):
            chunk = slen[a : a + self.rows]
            # counts[p]: rows of the chunk with an entry at position p
            counts = np.searchsorted(-chunk, -np.arange(chunk[0]), side="left")
            offsets = np.concatenate(([0], np.cumsum(counts)))
            row = np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts)
            at = starts[a + row] + np.repeat(np.arange(counts.size), counts)
            self.chunks.append(
                (a, counts.tolist(), offsets.tolist(), X.indices[at], X.data[at][:, None])
            )

    def __call__(self, F: np.ndarray) -> np.ndarray:
        b = F.shape[0]
        FT = np.ascontiguousarray(F.T)
        acc = np.zeros((self.n, b))
        buf = np.empty((self.rows, b))
        for a, counts, offsets, cols, vals in self.chunks:
            block = acc[a : a + self.rows]
            for count, lo, hi in zip(counts, offsets, offsets[1:]):
                # mode='clip' skips a bounds check that costs more than the copy
                terms = np.take(FT, cols[lo:hi], axis=0, out=buf[:count], mode="clip")
                terms *= vals[lo:hi]
                block[:count] += terms
        out = np.empty((b, self.n))
        out[:, self.order] = acc.T
        return out


def label_scores(learners: Sequence[tuple[np.ndarray, np.ndarray]], labels: CSR) -> CSR:
    """The mean of the learners' label scores: (W_1·Y + ... + W_E·Y) / E.

    Each learner gives `knn`'s (m, k) neighbour arrays (index, sims); an
    index of -1 is a pad and is dropped, and any other index outside
    [0, n_train) raises IndexError. W_e holds max(sim, 0) per neighbour and
    `labels` is Y, the (n_train x L) label matrix of ones.

    The queries are one dense (m x L) float64 block, so callers pass at most
    `predictor._TILE_FLOATS` // L rows (`predictor.rank_labels` cuts its
    queries into such blocks). A learner's block is one np.bincount of its neighbours'
    weights at their (row, label) cells, row after row and each row in
    neighbour order; bincount adds each cell's weights in that order into a
    zeroed float64, so each score is the sum that scipy's `W @ Y` forms, in
    W's stored order. The learners' blocks are added in learner order to a
    running block that starts at 0.0, as scipy's S_1 + S_2 + ... adds them,
    a label a learner never scored counting 0. The nonzero sums are kept, in
    ascending label order per row, and each is divided by E.
    """
    n, L = labels.shape
    m = len(learners[0][0])
    lengths = np.diff(labels.indptr)
    total = np.zeros(m * L)
    for index, sims in learners:
        if np.any((index < -1) | (index >= n)):
            raise IndexError(f"neighbor index out of range [0, {n})")
        j = index.ravel()
        real = np.flatnonzero(j >= 0)  # not a -1 pad
        row = real // index.shape[1]
        j, w = j[real], np.maximum(sims.ravel()[real], 0.0)
        fan = lengths[j]
        cells = np.repeat(row * L, fan) + labels.indices[_gather_rows(labels, j)]
        total += np.bincount(cells, weights=np.repeat(w, fan), minlength=m * L)
    kept = np.flatnonzero(total)  # row after row, ascending labels
    indptr = np.searchsorted(kept, np.arange(m + 1) * L).astype(_index_dtype(kept.size))
    return CSR(total[kept] / len(learners), (kept % L).astype(_index_dtype(L)), indptr, (m, L))


def pair_dots(X: CSR, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x_a . x_b for each pair of rows (a[i], b[i]) of X, whose rows hold
    distinct columns in descending order (as `normalize_rows` stores a
    parsed dataset).

    The nonzero products of the columns both rows store are taken in
    ascending column order and added by np.add.reduceat, one segment per pair
    with a product, as scipy's `X[a].multiply(X[b]).sum(axis=1)` forms and
    adds them; a pair with none is 0.0.
    """
    d = X.shape[1]
    out = np.zeros(a.size)
    pair = np.arange(a.size)
    left, right = _gather_rows(X, a), _gather_rows(X, b)
    lkey = np.repeat(pair, np.diff(X.indptr)[a]) * d + X.indices[left]
    rkey = np.repeat(pair, np.diff(X.indptr)[b]) * d + X.indices[right]
    if rkey.size == 0:
        return out
    rorder = np.argsort(rkey, kind="stable")
    at = rorder[np.searchsorted(rkey, lkey, sorter=rorder).clip(max=rkey.size - 1)]
    both = np.flatnonzero(rkey[at] == lkey)
    both = both[np.argsort(lkey[both], kind="stable")]  # ascending column per pair
    products = X.data[left[both]] * X.data[right[at[both]]]
    nonzero = np.flatnonzero(products)
    products, owner = products[nonzero], lkey[both[nonzero]] // d
    if products.size:
        starts = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
        out[owner[starts]] = np.add.reduceat(products, starts)
    return out
