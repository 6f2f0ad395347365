"""Signed-random-projection (cosine) LSH over the embedded training matrix.

Hash tables live in the same latent space the exhaustive search uses, making
metric-level comparisons fair. Each table hashes a vector to H sign bits
against seeded hyperplanes; its buckets are slices of the training indices
sorted by code. A query's candidates are the union of its buckets across
tables, scored and ranked by the exact search's `rank_candidates`, so both
give bit-identical scores for a column and rank them alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import sorted_unique
from .embedding import EmbeddedMatrix, _gaussian_rows, column_plan
from .model import DEFAULT_BITS, DEFAULT_TABLES, MAX_BITS
from .predictor import rank_candidates

# keeps hyperplane streams disjoint from projection-row streams for any seed
LSH_SEED_NAMESPACE = 0x4C53485F68617368  # ascii "LSH_hash"


@dataclass
class LshIndex:
    bits: int
    hyperplanes: np.ndarray  # (tables * bits, r)
    codes: np.ndarray  # (tables, n) uint64: each table's codes, ascending
    order: np.ndarray  # (tables, n) training indices in that order
    train: EmbeddedMatrix


def hyperplanes_for(seed: int, tables: int, bits: int, r: int) -> np.ndarray:
    """(tables * bits, r) gaussian rows, row i from stream i of the namespaced
    seed, drawn as a projection draws F at every column and put back in
    column order."""
    plan = column_plan(np.ones(r, dtype=bool))
    rows = _gaussian_rows(seed ^ LSH_SEED_NAMESPACE, range(tables * bits), r, plan)
    return rows.take(plan.place(r), axis=1)


def _codes(planes_t: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """H-bit codes for columns of `vectors` against one table's planes."""
    signs = planes_t @ np.asarray(vectors, dtype=np.float64) >= 0.0
    weights = (1 << np.arange(signs.shape[0], dtype=np.uint64))[:, None]
    return (signs.astype(np.uint64) * weights).sum(axis=0, dtype=np.uint64)


def build_index(
    train: EmbeddedMatrix,
    T: int = DEFAULT_TABLES,
    H: int = DEFAULT_BITS,
    seed: int = 0,
) -> LshIndex:
    """Hash every training column into one bucket per table."""
    if T < 1 or H < 1:
        raise ValueError("T and H must be positive")
    if H > MAX_BITS:
        raise ValueError(f"H must be at most {MAX_BITS} (codes are packed into uint64)")
    planes = hyperplanes_for(seed, T, H, train.r)
    data = np.asarray(train.data, dtype=np.float64)  # cast once, for every table
    codes = np.stack([_codes(planes[t * H : (t + 1) * H], data) for t in range(T)])
    # a stable sort leaves each bucket's indices ascending
    order = np.argsort(codes, axis=1, kind="stable")
    codes = np.take_along_axis(codes, order, axis=1)
    return LshIndex(bits=H, hyperplanes=planes, codes=codes, order=order, train=train)


def candidates(index: LshIndex, query: np.ndarray) -> np.ndarray:
    """Union of the query's buckets across all tables (sorted indices)."""
    q = np.asarray(query, dtype=np.float64).reshape(-1, 1)
    planes = index.hyperplanes.reshape(len(index.codes), index.bits, -1)
    hits = []
    for table, codes, order in zip(planes, index.codes, index.order):
        code = _codes(table, q)
        lo, hi = codes.searchsorted(code, "left")[0], codes.searchsorted(code, "right")[0]
        hits.append(order[lo:hi])
    return sorted_unique(np.concatenate(hits))


def query_lsh(index: LshIndex, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by dot product within the candidate set, as `knn` answers
    one query: a (min(k, n),) row of training indices and one of similarities.
    A row with fewer candidates is padded with index -1 and score 0.0; an
    empty candidate set is all padding (callers count these).
    """
    if k < 1:
        raise ValueError("k must be positive")
    query = np.asarray(query)
    train = index.train
    if query.shape != (train.r,):
        raise ValueError(f"query length {query.shape} != index dimensionality {train.r}")
    cand = candidates(index, query)
    q64 = query.astype(np.float64)[None]
    best, top = rank_candidates(q64, train.data, np.zeros_like(cand), cand, min(k, train.n))
    return best[0], top[0]
