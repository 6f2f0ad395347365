"""Compressed sparse rows on numpy alone, and the pipeline's sparse kernels.

A `CSR` is the triple (data, indices, indptr) plus its shape: row i stores
data[indptr[i]:indptr[i+1]] at the columns indices[indptr[i]:indptr[i+1]],
in that stored order. Samples, the label matrix Y and every score matrix are
CSR.

Each kernel fixes the order in which it adds its float64 terms, and drops
the same zeros, so each result is the float that scipy.sparse's expression
for it computes (`tests/oracles.py` keeps those expressions and the tests
compare bits):

- `normalize_rows`: X scaled to unit rows, `diags(1 / norms) @ X`; of
  several CSRs, `vstack` of each one's;
- `RowProducts`: `X @ F.T` for row blocks F of the projection matrix,
  written into the caller's output rows;
- `label_scores`: for one block of queries, the learners' S = W·Y, their
  sum in learner order and the division by the learner count;
- `pair_dots`: the dot products of pairs of rows.

`sorted_unique` is `np.unique` of integer keys by a sort: numpy's hash-based
`unique` is over 20 times slower on the pipeline's int64 keys, and it
imports `numpy.ma`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

# float64s in one `RowProducts` chunk of rows (1 MB): small enough that a
# chunk's accumulator and products stay near the cache while every position
# is added, large enough that a worker's numpy steps seldom contend for the
# interpreter lock with the worker generating F
_CHUNK_FLOATS = 1 << 17
# stored entries in one block of `normalize_rows` (its temporaries hold
# about 80 bytes per entry)
_NORMALIZE_ENTRIES = 1 << 16


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


def _row_blocks(indptr: np.ndarray, entries: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges [a, b) covering every row, each holding at
    most `entries` stored entries, or one row that holds more."""
    n, a = indptr.size - 1, 0
    while a < n:
        b = int(np.searchsorted(indptr, indptr[a] + entries, side="right")) - 1
        b = min(n, max(a + 1, b))
        yield a, b
        a = b


def normalize_rows(*parts: CSR) -> tuple[CSR, np.ndarray]:
    """The rows of `parts` (of as many columns), stacked in order and scaled
    to unit norm (zero rows stay zero), and their original norms.

    A row's squared norm is np.add.reduceat over its values squared in
    float64, as scipy's `sum(axis=1)` adds them. Each stored value x becomes
    (1 / norm) * x, and a product that is 0 (an explicit zero, a zero row,
    an underflow) is dropped. Each row's stored order is reversed, as
    scipy's `diags(1 / norms) @ X` stores it; the projection sums each row
    in stored order, so the reversal is part of its bits.

    Blocks of rows of about _NORMALIZE_ENTRIES entries go straight into one
    preallocated CSR of float64 values and int32 column indices (int64 from
    2^31 columns), so besides it and the norms every temporary is O(block)
    and no input array is copied whole or written.
    """
    d = parts[0].shape[1]
    n = sum(X.shape[0] for X in parts)
    data = np.empty(sum(X.nnz for X in parts))
    indices = np.empty(data.size, dtype=_index_dtype(d))
    indptr = np.zeros(n + 1, dtype=np.int64)
    norms = np.empty(n)
    at = base = 0  # entries and rows written
    for X in parts:
        for a, b in _row_blocks(X.indptr, _NORMALIZE_ENTRIES):
            lo, hi = X.indptr[a], X.indptr[b]
            ptr = X.indptr[a : b + 1] - lo
            lengths = np.diff(ptr)
            x = X.data[lo:hi].astype(np.float64)
            nonempty = np.flatnonzero(lengths)
            sq = np.zeros(b - a)
            if nonempty.size:
                sq[nonempty] = np.add.reduceat(np.square(x), ptr[nonempty])
            norm = norms[base + a : base + b]
            np.sqrt(sq, out=norm)
            inv = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0)
            rows = np.repeat(np.arange(b - a), lengths)  # the row of every stored entry
            # entry q of row [s, e) takes the value stored at s + e - 1 - q
            src = ptr[:-1][rows]
            src += ptr[1:][rows] - 1
            src -= np.arange(src.size)
            values = inv[rows] * x[src]
            kept = np.flatnonzero(values)
            data[at : at + kept.size] = values[kept]
            indices[at : at + kept.size] = X.indices[lo:hi][src[kept]]
            indptr[base + a + 1 : base + b + 1] = at + np.searchsorted(kept, ptr[1:])
            at += kept.size
        base += X.shape[0]
    return CSR(data[:at], indices[:at], indptr, (n, d)), norms


class RowProducts:
    """(X @ F.T).T for row blocks F (b x X's columns) of one matrix: each
    output element (k, i) adds X's row i times F[k] term by term, in the
    row's stored order, into a zeroed float64, as scipy's `csr_matvecs` does.

    Rows are sorted by length, longest first, and cut into chunks of about
    _CHUNK_FLOATS // `b` rows. Within a chunk the entries are ordered by
    position: the first stored entry of every row, then the second of every
    row that has one, and so on, so one numpy step adds stored position p to
    every row of the chunk at once and each row still adds its terms in
    stored order. A step gathers its rows of F.T, which the caller passes as
    a C-contiguous array, scales them by the entries' values and adds them to
    the chunk's accumulator. Each chunk's sums are then written, through the
    sort order, into their columns of the caller's output rows, cast to the
    output's dtype.

    The position-major column indices, each mapped through `place` to its
    row of F.T (`cols`), and float64 values (`vals`) are filled position by
    position into arrays allocated once, so building them holds O(rows)
    temporaries; X is not written.
    """

    def __init__(self, X: CSR, b: int, place: np.ndarray):
        self.n = X.shape[0]
        self.rows = max(1, _CHUNK_FLOATS // max(b, 1))
        lengths = np.diff(X.indptr)
        self.order = np.argsort(-lengths, kind="stable")
        slen = lengths[self.order]
        starts = X.indptr[:-1][self.order]
        self.cols = np.empty(X.nnz, dtype=place.dtype)
        self.vals = np.empty((X.nnz, 1))
        self.chunks = []
        at = 0
        for a in range(0, self.n, self.rows):
            chunk = slen[a : a + self.rows]
            # counts[p]: rows of the chunk with an entry at position p
            counts = np.searchsorted(-chunk, -np.arange(chunk[0]), side="left")
            offsets = (at + np.concatenate(([0], np.cumsum(counts)))).tolist()
            for p, (count, lo) in enumerate(zip(counts.tolist(), offsets)):
                src = starts[a : a + count] + p
                self.cols[lo : lo + count] = place[X.indices[src]]
                self.vals[lo : lo + count, 0] = X.data[src]
            self.chunks.append((a, counts.tolist(), offsets))
            at = offsets[-1]

    def __call__(self, FT: np.ndarray, out: np.ndarray, scratch: np.ndarray | None = None) -> None:
        """Write (X @ FT).T into `out`, given FT = F.T as a C-contiguous
        (X's columns x b) float64 array and `out` as b rows of X's row count.
        A chunk's accumulator and terms live in `scratch`, at least
        2 * `rows` * b float64s, when it is given."""
        size = self.rows * FT.shape[1]
        scratch = np.empty(2 * size) if scratch is None else scratch
        acc, buf = (scratch[i * size : (i + 1) * size].reshape(self.rows, -1) for i in range(2))
        cols, vals = self.cols, self.vals
        for a, counts, offsets in self.chunks:
            block = acc[: min(self.rows, self.n - a)]
            block.fill(0.0)
            for count, lo, hi in zip(counts, offsets, offsets[1:]):
                # mode='clip' skips a bounds check that costs more than the copy
                terms = np.take(FT, cols[lo:hi], axis=0, out=buf[:count], mode="clip")
                terms *= vals[lo:hi]
                block[:count] += terms
            out[:, self.order[a : a + self.rows]] = block.T


def label_scores(learners: Sequence[tuple[np.ndarray, np.ndarray]], labels: CSR) -> CSR:
    """The mean of the learners' label scores: (W_1·Y + ... + W_E·Y) / E.

    Each learner gives `knn`'s (m, k) neighbour arrays (index, sims); an
    index of -1 is a pad and is dropped, and any other index outside
    [0, n_train) raises IndexError. W_e holds max(sim, 0) per neighbour and
    `labels` is Y, the (n_train x L) label matrix of ones.

    The queries are one dense (m x L) float64 block, so callers pass at most
    `predictor._LABEL_FLOATS` // L rows (`predictor.rank_labels` cuts its
    queries into such 4 MB blocks). A learner's block is one np.bincount of
    its neighbours' weights at their (row, label) cells, row after row and
    each row in neighbour order; bincount adds each cell's weights in that
    order into a zeroed float64, so each score is the sum that scipy's
    `W @ Y` forms, in W's stored order. The learners' blocks are added in learner order to a
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
