"""Seeded gaussian projection matrices and the project-and-normalize pipeline.

A projection matrix F (r rows, d columns) is fully determined by an
EmbeddingSpec and never has to be stored: row i is drawn from an independent
substream keyed by (seed, i), so any row can be rematerialized on its own.
The stream is fixed by this module: Philox 64-bit words under a 128-bit key
(high word = seed, low word = row index), mapped to (0, 1] uniforms, then
Box-Muller. Embedding a corpus means L2-normalizing each sample, multiplying
by F block-by-block (cost proportional to nnz times r), re-normalizing, and
storing the result as a column-major float32 matrix.

Generating F is most of the cost at large d, so a command normalizes its
train and test samples once (`train_test_rows`) and each learner projects
them together in one pass over F (`embed_train_test`); a sweep over r takes
every r from one pass at the largest (`embed_prefixes`).
"""

from __future__ import annotations

import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .data import SparseDataset, SparseVector

CACHE_MAGIC = b"OGEC"
CACHE_VERSION = 1
_CACHE_HEADER = struct.Struct("<4sHIQ")

_MASK64 = (1 << 64) - 1

# dot products accumulate in float64; embedded matrices are stored float32
STORE_DTYPE = np.float32

RowSource = Callable[["EmbeddingSpec", int, int], np.ndarray]


@dataclass(frozen=True)
class EmbeddingSpec:
    """(seed, input dim d, output dim r); alone determines the matrix F."""

    seed: int
    d: int
    r: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        if not 1 <= self.r <= self.d:
            raise ValueError("r must satisfy 1 <= r <= d")


@dataclass
class EmbeddedMatrix:
    """Dense r-by-n column-major float32 matrix of projected samples.

    Every nonzero column has unit norm (within 1e-5); zero columns appear
    only for zero input vectors.
    """

    r: int
    n: int
    data: np.ndarray


@dataclass(frozen=True)
class TrainTestRows:
    """A command's train then test samples as unit-norm float64 CSR rows.

    `both` stacks the train rows over the test rows, so one projection makes
    one pass over F for the train matrix and the queries together; `test`
    alone serves a learner whose train matrix is cached.
    """

    both: sp.csr_matrix
    test: sp.csr_matrix
    n_train: int


def gaussian_words(seed: int, stream: int, count: int) -> np.ndarray:
    """Raw 64-bit words of the (seed, stream) substream."""
    key = ((seed & _MASK64) << 64) | (stream & _MASK64)
    return np.random.Philox(key=key).random_raw(count)


def gaussian_row(seed: int, stream: int, count: int) -> np.ndarray:
    """Standard-normal float64 vector from the (seed, stream) substream.

    Box-Muller over 53-bit uniforms: u1 in (0, 1] (never log(0)), u2 in [0, 1).
    """
    m = (count + 1) // 2
    raw = gaussian_words(seed, stream, 2 * m)
    u1 = ((raw[:m] >> 11) + 1) * 2.0**-53
    u2 = (raw[m:] >> 11) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * m)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def materialize_row(spec: EmbeddingSpec, row: int) -> np.ndarray:
    """Row `row` of F, reproducible without generating any other row."""
    if not 0 <= row < spec.r:
        raise IndexError(f"row {row} out of range [0, {spec.r})")
    return gaussian_row(spec.seed, row, spec.d)


def materialize_rows(spec: EmbeddingSpec, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of F as a (stop-start, d) float64 array."""
    if not 0 <= start <= stop <= spec.r:
        raise IndexError(f"rows [{start}, {stop}) out of range [0, {spec.r})")
    out = np.empty((stop - start, spec.d))
    for i in range(start, stop):
        out[i - start] = gaussian_row(spec.seed, i, spec.d)
    return out


def _row_block(d: int) -> int:
    # keep one materialized block near 32 MB of float64
    return max(1, 4_000_000 // max(d, 1))


def _normalize_rows(X: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """Unit-norm rows (zero rows stay zero) and the original row norms."""
    sq = X.copy()
    sq.data = sq.data**2
    norms = np.sqrt(np.asarray(sq.sum(axis=1)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return sp.diags(inv) @ X, norms


def _unit_rows(dataset: SparseDataset) -> sp.csr_matrix:
    return _normalize_rows(dataset.to_feature_csr(np.float64))[0]


def train_test_rows(train: SparseDataset, test: SparseDataset) -> TrainTestRows:
    """Normalize a command's samples once, for every learner to project."""
    if test.d != train.d:
        raise ValueError(
            f"test dimensionality {test.d} != train dimensionality {train.d}"
        )
    test_rows = _unit_rows(test)
    both = sp.vstack([_unit_rows(train), test_rows], format="csr")
    return TrainTestRows(both=both, test=test_rows, n_train=train.n)


def _normalize_columns(out: np.ndarray) -> None:
    n = out.shape[1]
    step = 65536
    for a in range(0, n, step):
        b = min(a + step, n)
        norms = np.sqrt(np.sum(np.square(out[:, a:b], dtype=np.float64), axis=0))
        norms[norms == 0] = 1.0
        out[:, a:b] /= norms


def _project(
    spec: EmbeddingSpec,
    X: sp.csr_matrix,
    dtype,
    *,
    workers: int = 1,
    row_source: RowSource | None = None,
) -> np.ndarray:
    """F applied to CSR samples (rows) as an (r, n) column-major `dtype` array.

    Work is proportional to nnz times r; F is materialized in row blocks and
    discarded. Workers split F's rows into contiguous ranges and apply each
    block to every sample, so each row of F is generated once per call. Every
    output element is the same CSR-order sum, so the output is identical for
    any worker count.
    """
    if X.shape[1] != spec.d:
        raise ValueError(f"dataset dimensionality {X.shape[1]} != spec.d {spec.d}")
    rows = row_source if row_source is not None else materialize_rows
    out = np.empty((spec.r, X.shape[0]), dtype=dtype, order="F")
    block = _row_block(spec.d)

    def fill(lo: int, hi: int) -> None:
        for s in range(lo, hi, block):
            t = min(s + block, hi)
            out[s:t] = (X @ rows(spec, s, t).T).T

    if workers <= 1:
        fill(0, spec.r)
    else:
        bounds = np.linspace(0, spec.r, min(workers, spec.r) + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, bounds[:-1].tolist(), bounds[1:].tolist()))
    return out


def project_rows(
    spec: EmbeddingSpec,
    X: sp.csr_matrix,
    *,
    workers: int = 1,
    row_source: RowSource | None = None,
) -> np.ndarray:
    """Project unit-norm CSR rows and re-normalize: (r, n) float32 columns.

    `workers` threads split F's rows, and each row is generated once per call.
    `row_source` overrides row materialization (tests inject scaled or
    identity matrices through it); it must be pure.
    """
    out = _project(spec, X, STORE_DTYPE, workers=workers, row_source=row_source)
    _normalize_columns(out)
    return out


def project_csr(
    spec: EmbeddingSpec,
    X: sp.csr_matrix,
    *,
    workers: int = 1,
    row_source: RowSource | None = None,
) -> np.ndarray:
    """Normalize, project and re-normalize CSR samples: (r, n) float32 columns."""
    return project_rows(
        spec, _normalize_rows(X)[0], workers=workers, row_source=row_source
    )


def _split(data: np.ndarray, n_train: int) -> tuple[EmbeddedMatrix, np.ndarray]:
    """The train columns as an EmbeddedMatrix and the query columns after them."""
    train = EmbeddedMatrix(r=data.shape[0], n=n_train, data=data[:, :n_train])
    return train, data[:, n_train:]


def embed_train_test(
    spec: EmbeddingSpec, rows: TrainTestRows, *, workers: int = 1
) -> tuple[EmbeddedMatrix, np.ndarray]:
    """The embedded train matrix and the (r, n_test) query block, from one
    pass over F. Each column is the same CSR-order sum that `embed` or
    `project_csr` computes for its sample alone, so both are bit-identical to
    projecting train and test apart."""
    return _split(project_rows(spec, rows.both, workers=workers), rows.n_train)


def embed_prefixes(
    spec: EmbeddingSpec,
    rows: TrainTestRows,
    rs: Iterable[int],
    *,
    workers: int = 1,
) -> Iterator[tuple[EmbeddedMatrix, np.ndarray]]:
    """`embed_train_test` at each r in `rs` (each at most spec.r), from one
    pass over F at spec.r.

    Row i of F depends only on (seed, i, d), so F at r is the first r rows of
    F at spec.r, and each projected element is the same sum whatever the
    other rows. Re-normalizing a copy of the first r rows of the projection
    is therefore bit-identical to projecting at r.
    """
    full = _project(spec, rows.both, STORE_DTYPE, workers=workers)
    for r in rs:
        if not 1 <= r <= spec.r:
            raise ValueError(f"r {r} out of range [1, {spec.r}]")
        out = full[:r].copy(order="F")
        _normalize_columns(out)
        yield _split(out, rows.n_train)


def embed(
    spec: EmbeddingSpec,
    dataset: SparseDataset,
    *,
    workers: int = 1,
    row_source: RowSource | None = None,
) -> EmbeddedMatrix:
    """Normalize, project and re-normalize a whole corpus."""
    if dataset.d != spec.d:
        raise ValueError(f"dataset dimensionality {dataset.d} != spec.d {spec.d}")
    data = project_csr(
        spec, dataset.to_feature_csr(np.float64), workers=workers, row_source=row_source
    )
    return EmbeddedMatrix(r=spec.r, n=dataset.n, data=data)


def embed_single(
    spec: EmbeddingSpec, x: SparseVector, *, row_source: RowSource | None = None
) -> np.ndarray:
    """Embed one sample; identical to embed() on a one-sample dataset.

    Feature indices at or beyond spec.d are rejected (the fail-fast choice;
    silently truncating out-of-vocabulary features is the alternative).
    """
    if x.nnz and int(x.indices[-1]) >= spec.d:
        raise ValueError(
            f"feature index {int(x.indices[-1])} out of range [0, {spec.d})"
        )
    X = sp.csr_matrix(
        (
            x.values.astype(np.float64),
            x.indices,
            np.array([0, x.nnz], dtype=np.int64),
        ),
        shape=(1, spec.d),
    )
    return project_csr(spec, X, row_source=row_source).ravel()


def save_cache(path, matrix: EmbeddedMatrix, spec: EmbeddingSpec) -> None:
    """Binary cache: magic, version u16, r u32, n u64, column-major f32 LE.

    A sidecar `<path>.meta` records (seed, d, r) so the cache is verifiable
    against the spec that produced it.
    """
    header = _CACHE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, matrix.r, matrix.n)
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(matrix.data.T).astype("<f4").tobytes())
    with open(str(path) + ".meta", "w", encoding="utf-8") as f:
        json.dump({"seed": spec.seed, "d": spec.d, "r": spec.r}, f)
        f.write("\n")


def load_cache(path, spec: EmbeddingSpec | None = None) -> EmbeddedMatrix:
    """Load a cached embedded matrix, verifying it against `spec` if given."""
    with open(path, "rb") as f:
        head = f.read(_CACHE_HEADER.size)
        if len(head) < _CACHE_HEADER.size:
            raise ValueError(f"{path}: truncated cache header")
        magic, version, r, n = _CACHE_HEADER.unpack(head)
        if magic != CACHE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != CACHE_VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        payload = f.read()
    expect = r * n * 4
    if len(payload) != expect:
        raise ValueError(f"{path}: expected {expect} payload bytes, got {len(payload)}")
    cols = np.frombuffer(payload, dtype="<f4").reshape(n, r)
    data = np.asfortranarray(cols.T.astype(np.float32, copy=False))
    # search bounds float32 rounding error by column norms, which must be finite
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: payload holds non-finite values; rebuild the cache")
    if spec is not None:
        with open(str(path) + ".meta", "r", encoding="utf-8") as f:
            meta = json.load(f)
        recorded = (meta.get("seed"), meta.get("d"), meta.get("r"))
        if recorded != (spec.seed, spec.d, spec.r) or r != spec.r:
            raise ValueError(
                f"{path}: cache metadata {recorded} does not match spec "
                f"({spec.seed}, {spec.d}, {spec.r})"
            )
    return EmbeddedMatrix(r=int(r), n=int(n), data=data)
