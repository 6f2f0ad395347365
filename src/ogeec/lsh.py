"""Signed-random-projection (cosine) LSH over the embedded training matrix.

Hash tables live in the same latent space the exhaustive search uses, making
metric-level comparisons fair. Each table hashes a vector to H sign bits
against seeded hyperplanes; a query's candidates are the union of its buckets
across tables, rescored by the same float64 dot product (`rescore`) that
exhaustive search uses, so both give bit-identical scores for a column, and
ranked by the same `top_k`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import sorted_unique
from .embedding import EmbeddedMatrix, gaussian_row
from .predictor import rescore, top_k

# keeps hyperplane streams disjoint from projection-row streams for any seed
LSH_SEED_NAMESPACE = 0x4C53485F68617368  # ascii "LSH_hash"

DEFAULT_TABLES = 10
DEFAULT_BITS = 16
MAX_BITS = 64  # codes are packed into uint64


@dataclass
class LshIndex:
    tables: int
    bits: int
    seed: int
    r: int
    hyperplanes: np.ndarray  # (tables * bits, r)
    buckets: list[dict[int, np.ndarray]]  # per table: code -> training indices
    train: EmbeddedMatrix


def hyperplanes_for(seed: int, tables: int, bits: int, r: int) -> np.ndarray:
    planes = np.empty((tables * bits, r))
    for i in range(tables * bits):
        planes[i] = gaussian_row(seed ^ LSH_SEED_NAMESPACE, i, r)
    return planes


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
    buckets: list[dict[int, np.ndarray]] = []
    for t in range(T):
        codes = _codes(planes[t * H : (t + 1) * H], train.data)
        # a stable sort leaves each bucket's indices ascending
        order = np.argsort(codes, kind="stable")
        uniq, starts = np.unique(codes[order], return_index=True)
        buckets.append(dict(zip(uniq.tolist(), np.split(order, starts[1:]))))
    return LshIndex(
        tables=T, bits=H, seed=seed, r=train.r,
        hyperplanes=planes, buckets=buckets, train=train,
    )


def candidates(index: LshIndex, query: np.ndarray) -> np.ndarray:
    """Union of the query's buckets across all tables (sorted indices)."""
    q = np.asarray(query, dtype=np.float64).reshape(-1, 1)
    hits = []
    for t in range(index.tables):
        code = int(_codes(index.hyperplanes[t * index.bits : (t + 1) * index.bits], q)[0])
        found = index.buckets[t].get(code)
        if found is not None:
            hits.append(found)
    return sorted_unique(np.concatenate([np.empty(0, dtype=np.int64), *hits]))


def query_lsh(index: LshIndex, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by dot product within the candidate set, as one (k,) row of
    training indices and one of similarities, the way `top_k` ranks them.

    A row with fewer than k candidates is padded with index -1 and score
    0.0; an empty candidate set is all padding (callers count these).
    """
    if k < 1:
        raise ValueError("k must be positive")
    query = np.asarray(query)
    if query.shape != (index.r,):
        raise ValueError(f"query length {query.shape} != index dimensionality {index.r}")
    cand = candidates(index, query)
    sims = rescore(query.astype(np.float64)[None], index.train.data, np.zeros_like(cand), cand)
    # one CSR row, ranked from its three arrays
    best, top = top_k((sims, cand, np.array([0, cand.size])), k)
    return best[0], top[0]
