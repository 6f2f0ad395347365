"""Compressed sparse rows on numpy alone, and the pipeline's sparse kernels.

A `CSR` is the triple (data, indices, indptr) plus its shape: row i stores
data[indptr[i]:indptr[i+1]] at the columns indices[indptr[i]:indptr[i+1]],
in that stored order. A dataset is two CSRs, its samples and its label
matrix Y (`data.SparseDataset`), and every score matrix is a CSR.

Each kernel fixes the order in which it adds its float64 terms, so each
result is the float that scipy.sparse's expression for it computes
(`tests/oracles.py` keeps those expressions and the tests compare bits):

- `RowProducts`: `Xn @ F.T` for row blocks F of the projection matrix,
  written into the caller's output rows, where Xn is X scaled to unit rows,
  `diags(1 / norms) @ X` (of several CSRs, `vstack` of each one's), read
  straight from the CSRs with their 1 / norms (`inv_norms`);
- `learner_scores`: one learner's S = W·Y for one block of queries, which
  `predictor.rank_prefixes` adds in learner order and `mean_scores` divides
  by the learner count;
- `pair_dots`: the dot products of pairs of rows of that Xn.

scipy drops a product that is 0. `RowProducts` keeps them: F being finite,
each adds a term ±0 to a float64 that starts at +0.0 and takes its terms one
by one, which never changes its bits. `pair_dots` drops them, since
np.add.reduceat may add pairwise, and one more term could regroup the rest.

`sorted_unique` is `np.unique` of integer keys by a sort: numpy's hash-based
`unique` is over 20 times slower on the pipeline's int64 keys, and it
imports `numpy.ma`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

# half the float64s of a `RowProducts` chunk's scratch, which holds its
# accumulator, its gathered terms and its column of scaled values (1 MiB in
# all): small enough that they stay near the cache while every position is
# added, large enough that a worker's numpy steps seldom contend for the
# interpreter lock with the worker generating F
_CHUNK_FLOATS = 1 << 16
# stored entries in one block of `inv_norms` (8 bytes of temporaries each)
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


def inv_norms(X: CSR) -> np.ndarray:
    """Each row's 1 / norm, 0 for a zero row, from one pass over X's rows in
    blocks holding about _NORMALIZE_ENTRIES stored entries. A row's squared
    norm is np.add.reduceat over its values squared in float64, as scipy's
    `sum(axis=1)` adds them; a row whose sum overflows is refused, as its
    1 / norm would be 0. Every temporary is O(block), and X is not written."""
    inv = np.zeros(X.shape[0])
    for a, b in _row_blocks(X.indptr, _NORMALIZE_ENTRIES):
        lo, hi = X.indptr[a], X.indptr[b]
        ptr = X.indptr[a : b + 1] - lo
        nonempty = np.flatnonzero(np.diff(ptr))
        sq = np.zeros(b - a)
        with np.errstate(over="ignore"):
            sq[nonempty] = np.add.reduceat(np.square(X.data[lo:hi], dtype=np.float64), ptr[nonempty])
        bad = np.flatnonzero(np.isinf(sq))
        if bad.size:
            raise ValueError(f"row {a + int(bad[0])}: its sum of squares overflows float64")
        norm = np.sqrt(sq)
        np.divide(1.0, norm, out=inv[a:b], where=norm > 0)
    return inv


class RowProducts:
    """(Xn @ F.T).T for row blocks F (b x X's columns) of one matrix, where
    Xn is the rows of `parts` (of as many columns) stacked in order and
    scaled to unit norm: each output element (k, i) adds Xn's row i times
    F[k] term by term, in the row's stored order, into a zeroed float64, as
    scipy's `csr_matvecs` does. scipy's `diags(1 / norms) @ X` stores each
    row reversed, so each row is read from its end, and each stored value x
    becomes (1 / norm) * x (`inv_norms`, 0 for a zero row). A zero product
    is kept: F being finite, its term ±0 leaves the sum's bits as they are.

    Rows are sorted by length, longest first, and cut into chunks of about
    _CHUNK_FLOATS // (`b` + 1) rows. Within a chunk the entries are ordered
    by position: the first stored entry of every row, then the second of
    every row that has one, and so on, so one numpy step adds stored
    position p to every row of the chunk at once and each row still adds
    its terms in stored order. A step gathers its rows of F.T, which the
    caller passes as a C-contiguous array, and forms each entry's value
    (1 / norm) * x, a float64 times the stored x with the one rounding
    scipy's stored value has; it scales the rows by those values and adds
    them to the chunk's accumulator. Each chunk's sums are then written,
    through the sort order, into their columns of the caller's output rows,
    cast to the output's dtype.

    The plan holds each entry's column index, mapped through `place` to its
    row of F.T (`cols`, int32 below 2^31 columns), and its stored value as
    the parts store it (`vals`, float32 for a parsed set), position-major,
    so 8 bytes per nonzero for a parsed set, and each row's float64
    1 / norm in chunk order (`scale`). They are filled position by position,
    straight from the parts, into arrays allocated once, so building them
    holds O(rows) temporaries, and no input array is written.
    """

    def __init__(self, parts: Sequence[CSR], b: int, place: np.ndarray):
        bases = np.cumsum([0] + [P.shape[0] for P in parts])
        stored = np.concatenate([np.diff(P.indptr) for P in parts])
        self.n = stored.size
        self.rows = max(1, _CHUNK_FLOATS // (max(b, 1) + 1))
        self.order = np.argsort(-stored, kind="stable")
        slen = stored[self.order]
        total = int(stored.sum())
        self.cols = np.empty(total, dtype=place.dtype)
        self.vals = np.empty(total, dtype=np.result_type(*(P.data for P in parts)))
        self.scale = np.concatenate([inv_norms(P) for P in parts])[self.order]
        self.chunks = []
        at = 0
        for a in range(0, self.n, self.rows):
            chunk = slen[a : a + self.rows]
            # counts[p]: rows of the chunk with an entry at position p
            counts = np.searchsorted(-chunk, -np.arange(chunk[0]), side="left")
            offsets = (at + np.concatenate(([0], np.cumsum(counts)))).tolist()
            stacked = self.order[a : a + self.rows]  # the chunk's rows
            for P, first, stop in zip(parts, bases[:-1], bases[1:]):
                # the part's rows of the chunk, in chunk order: those with an
                # entry at position p are the first mine_counts[p] of them
                mine = np.flatnonzero((stacked >= first) & (stacked < stop))
                if not mine.size:
                    continue
                rows = stacked[mine] - first
                mine_counts = np.searchsorted(-chunk[mine], -np.arange(chunk[mine[0]]), side="left")
                whole = mine.size == chunk.size  # then mine is arange
                cur = P.indptr[rows + 1] - 1  # each row's cursor, from its end
                for p, count in enumerate(mine_counts.tolist()):
                    src = cur[:count]
                    dst = slice(offsets[p], offsets[p] + count) if whole else offsets[p] + mine[:count]
                    self.cols[dst] = place.take(P.indices.take(src))
                    self.vals[dst] = P.data.take(src)
                    src -= 1
            self.chunks.append((a, counts.tolist(), offsets))
            at = offsets[-1]

    def __call__(self, FT: np.ndarray, out: np.ndarray, scratch: np.ndarray | None = None) -> None:
        """Write (Xn @ FT).T into `out`, given FT = F.T as a C-contiguous
        (X's columns x b) float64 array and `out` as b rows of X's row count.
        A chunk's accumulator, terms and scaled values live in `scratch`, at
        least (2 * b + 1) * `rows` float64s, when it is given."""
        size = self.rows * FT.shape[1]
        scratch = np.empty(2 * size + self.rows) if scratch is None else scratch
        acc, buf = (scratch[i * size : (i + 1) * size].reshape(self.rows, -1) for i in range(2))
        scaled = scratch[2 * size : 2 * size + self.rows]
        column = scaled.reshape(-1, 1)
        cols, vals = self.cols, self.vals
        for a, counts, offsets in self.chunks:
            block = acc[: min(self.rows, self.n - a)]
            block.fill(0.0)
            scale = self.scale[a : a + self.rows]
            for count, lo, hi in zip(counts, offsets, offsets[1:]):
                # mode='clip' leaves out a bounds check that costs more than the copy
                terms = np.take(FT, cols[lo:hi], axis=0, out=buf[:count], mode="clip")
                # flat, the float64 x stored-dtype product costs less than as columns
                np.multiply(scale[:count], vals[lo:hi], out=scaled[:count])
                terms *= column[:count]
                block[:count] += terms
            out[:, self.order[a : a + self.rows]] = block.T


def learner_scores(index: np.ndarray, sims: np.ndarray, labels: CSR) -> np.ndarray:
    """One learner's label scores W·Y as a flat dense (m x L) float64 block.

    An index of -1 is a pad and is dropped, and any other index outside
    [0, n_train) raises IndexError. W holds max(sim, 0) per neighbour and
    `labels` is Y, the (n_train x L) label CSR, of which only the indptr and
    indices are read: each stored column is a 1.

    The queries are one dense block, so callers pass at most
    `predictor._LABEL_FLOATS` // L rows (`predictor.rank_prefixes` cuts its
    queries into such 4 MB blocks). The block is one np.bincount of the
    neighbours' weights at their (row, label) cells, row after row and each
    row in neighbour order; bincount adds each cell's weights in that order
    into a zeroed float64, so each score is the sum that scipy's `W @ Y`
    forms, in W's stored order.
    """
    n, L = labels.shape
    if np.any((index < -1) | (index >= n)):
        raise IndexError(f"neighbor index out of range [0, {n})")
    j = index.ravel()
    real = np.flatnonzero(j >= 0)  # not a -1 pad
    row = real // index.shape[1]
    j, w = j[real], np.maximum(sims.ravel()[real], 0.0)
    fan = np.diff(labels.indptr)[j]
    cells = np.repeat(row * L, fan) + labels.indices[_gather_rows(labels, j)]
    block = np.bincount(cells, weights=np.repeat(w, fan), minlength=len(index) * L)
    return block.astype(np.float64, copy=False)  # int64 when no cell is hit


def mean_scores(total: np.ndarray, L: int, E: int) -> CSR:
    """The (m x L) CSR of the flat dense sum `total` of E learners' label
    scores divided by E: its nonzero sums, NaN among them, in ascending
    label order per row, each divided by E."""
    m = total.size // L
    kept = np.flatnonzero(total != 0)  # row after row, ascending labels
    indptr = np.searchsorted(kept, np.arange(m + 1) * L).astype(_index_dtype(kept.size))
    return CSR(total[kept] / E, (kept % L).astype(_index_dtype(L)), indptr, (m, L))


def pair_dots(X: CSR, scale: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """xn_a . xn_b for each pair of rows (a[i], b[i]) of Xn =
    `diags(scale) @ X`, X's rows holding distinct columns in any order;
    `scale` is `inv_norms(X)`, so Xn holds the unit rows.

    Each product of the columns both rows store is formed as
    (scale[a] * x_a) * (scale[b] * x_b), from the values that Xn stores.
    The nonzero products are taken in ascending column order and added by
    np.add.reduceat, one segment per pair with a product, as scipy's
    `Xn[a].multiply(Xn[b]).sum(axis=1)` forms and adds them; a pair with
    none is 0.0. A value that Xn drops as 0 gives a zero product here, which
    is dropped alike: np.add.reduceat may add a segment pairwise, so a zero
    term kept there could regroup the others and change a bit.
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
    owner = lkey[both] // d
    products = (scale[a[owner]] * X.data[left[both]]) * (scale[b[owner]] * X.data[right[at[both]]])
    nonzero = np.flatnonzero(products)
    products, owner = products[nonzero], owner[nonzero]
    if products.size:
        starts = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
        out[owner[starts]] = np.add.reduceat(products, starts)
    return out
