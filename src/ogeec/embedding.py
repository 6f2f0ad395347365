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
every r from one pass at the largest (`embed_prefixes`). A projection draws
F only at the columns its samples use (`column_plan`): Philox still runs
over each row's whole stream, but the Box-Muller arithmetic, most of a
row's cost, runs only on the used columns, in place in buffers allocated
once per block, and every drawn value is bit-identical to the full row.
"""

from __future__ import annotations

import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .csr import CSR, RowProducts, normalize_rows, vstack
from .data import SparseDataset, SparseVector

CACHE_MAGIC = b"OGEC"
CACHE_VERSION = 1
_CACHE_HEADER = struct.Struct("<4sHIQ")

_MASK64 = (1 << 64) - 1

# dot products accumulate in float64; embedded matrices are stored float32
STORE_DTYPE = np.float32

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

    both: CSR
    test: CSR
    n_train: int


def gaussian_words(seed: int, stream: int, count: int) -> np.ndarray:
    """Raw 64-bit words of the (seed, stream) substream."""
    key = ((seed & _MASK64) << 64) | (stream & _MASK64)
    return np.random.Philox(key=key).random_raw(count)


def gaussian_row(seed: int, stream: int, count: int) -> np.ndarray:
    """Standard-normal float64 vector from the (seed, stream) substream.

    Box-Muller over 53-bit uniforms: u1 in (0, 1] (never log(0)), u2 in [0, 1).
    """
    return _gaussian_rows(seed, range(stream, stream + 1), count, None)[0]


@dataclass(frozen=True)
class ColumnPlan:
    """The columns of F that a projection reads, in the order it draws them.

    Box-Muller pair t of a row gives column 2t its cos term and column 2t+1
    its sin term. `pairs` holds the pairs with a used column; `cos` and `sin`
    index into `pairs` for the used even and the used odd columns. `columns`
    lists the used even columns, then the used odd columns (the plan order),
    and `place[j]` is used column j's position in `columns`.
    """

    pairs: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    columns: np.ndarray
    place: np.ndarray


def column_plan(used: np.ndarray) -> ColumnPlan:
    """The plan for a boolean mask over F's d columns, in O(d)."""
    d = used.size
    padded = np.zeros(d + d % 2, dtype=bool)
    padded[:d] = used
    even, odd = padded[0::2], padded[1::2]
    drawn = even | odd
    rank = np.cumsum(drawn) - 1
    columns = np.concatenate([2 * np.flatnonzero(even), 2 * np.flatnonzero(odd) + 1])
    place = np.zeros(d, dtype=np.int64)
    place[columns] = np.arange(columns.size)
    return ColumnPlan(np.flatnonzero(drawn), rank[even], rank[odd], columns, place)


def _pick(src: np.ndarray, at, buf: np.ndarray) -> np.ndarray:
    """src[at]: a view for a slice, else gathered into the head of `buf`."""
    if isinstance(at, slice):
        return src[at]
    return np.take(src, at, out=buf[: at.size], mode="clip")


def _gaussian_rows(
    seed: int, streams: range, count: int, plan: ColumnPlan | None
) -> np.ndarray:
    """One row per stream: all `count` columns, or the plan's columns in plan
    order.

    Philox runs over the whole stream; the log and sqrt run only on the drawn
    pairs, and cos or sin only where an even or odd column is kept. log, cos
    and sin each run elementwise on a contiguous buffer, as in the full row,
    so every value is bit-identical to drawing the full row.
    """
    m = (count + 1) // 2
    if plan is None:
        # full support: every selection is a slice, and the terms interleave
        p, width = m, count
        pairs, cos, sin = slice(0, m), slice(0, m), slice(0, count // 2)
        cos_to, sin_to = slice(0, count, 2), slice(1, count, 2)
    else:
        p, width = plan.pairs.size, plan.columns.size
        pairs, cos, sin = plan.pairs, plan.cos, plan.sin
        cos_to, sin_to = slice(0, cos.size), slice(cos.size, width)
    out = np.empty((len(streams), width))
    words = np.empty(p, dtype=np.uint64)
    radius, angle, trig = np.empty(p), np.empty(p), np.empty(p)
    for row, stream in zip(out, streams):
        raw = gaussian_words(seed, stream, 2 * m)
        u = _pick(raw[:m], pairs, words)
        u >>= 11
        u += 1
        np.multiply(u, 2.0**-53, out=radius)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        u = _pick(raw[m:], pairs, words)
        u >>= 11
        np.multiply(u, 2.0**-53, out=angle)
        angle *= 2.0 * np.pi
        for at, to, fn in ((cos, cos_to, np.cos), (sin, sin_to, np.sin)):
            dst = row[to]
            t = fn(_pick(angle, at, trig), out=trig[: dst.size])
            np.multiply(_pick(radius, at, dst), t, out=dst)
    return out


def materialize_row(spec: EmbeddingSpec, row: int) -> np.ndarray:
    """Row `row` of F, reproducible without generating any other row."""
    if not 0 <= row < spec.r:
        raise IndexError(f"row {row} out of range [0, {spec.r})")
    return gaussian_row(spec.seed, row, spec.d)


def materialize_rows(
    spec: EmbeddingSpec, start: int, stop: int, *, cols: ColumnPlan | None = None
) -> np.ndarray:
    """F[start:stop, cols] as a (stop-start, c) float64 array, in plan order.

    With `cols` None, all d columns in order.
    """
    if not 0 <= start <= stop <= spec.r:
        raise IndexError(f"rows [{start}, {stop}) out of range [0, {spec.r})")
    return _gaussian_rows(spec.seed, range(start, stop), spec.d, cols)


def _row_block(c: int) -> int:
    # keep one materialized block of c columns near 32 MB of float64
    return max(1, 4_000_000 // max(c, 1))


def split_rows(r: int, workers: int, fill) -> None:
    """Call fill(lo, hi) on `workers` contiguous ranges of rows [0, r), each
    in its own thread, so that every row is handled once."""
    if workers <= 1:
        fill(0, r)
        return
    bounds = np.linspace(0, r, min(workers, r) + 1).astype(int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, bounds[:-1].tolist(), bounds[1:].tolist()))


def _unit_rows(dataset: SparseDataset) -> CSR:
    return normalize_rows(dataset.to_feature_csr(np.float64))[0]


def train_test_rows(train: SparseDataset, test: SparseDataset) -> TrainTestRows:
    """Normalize a command's samples once, for every learner to project."""
    if test.d != train.d:
        raise ValueError(
            f"test dimensionality {test.d} != train dimensionality {train.d}"
        )
    test_rows = _unit_rows(test)
    both = vstack(_unit_rows(train), test_rows)
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
    X: CSR,
    dtype,
    *,
    workers: int = 1,
) -> np.ndarray:
    """F applied to CSR samples (rows) as an (r, n) column-major `dtype` array.

    F is materialized in row blocks and discarded, and only at the columns
    some sample uses: X's column indices are remapped to their place in the
    column plan, keeping each row's stored order, and `csr.RowProducts` adds
    each output element's float64 terms in that stored order into a zeroed
    accumulator, so every element is the same float64 sum as with full rows
    of F. Workers split F's rows into contiguous ranges and apply each block
    to every sample, so each row of F is generated once per call and the
    output is identical for any worker count.
    """
    if X.shape[1] != spec.d:
        raise ValueError(f"dataset dimensionality {X.shape[1]} != spec.d {spec.d}")
    used = np.zeros(spec.d, dtype=bool)
    used[X.indices] = True
    plan = column_plan(used)
    block = _row_block(plan.columns.size)
    products = RowProducts(
        CSR(X.data, plan.place[X.indices], X.indptr, (X.shape[0], plan.columns.size)), block
    )
    out = np.empty((spec.r, X.shape[0]), dtype=dtype, order="F")

    def fill(lo: int, hi: int) -> None:
        for s in range(lo, hi, block):
            t = min(s + block, hi)
            out[s:t] = products(materialize_rows(spec, s, t, cols=plan))

    split_rows(spec.r, workers, fill)
    return out


def project_rows(
    spec: EmbeddingSpec,
    X: CSR,
    *,
    workers: int = 1,
) -> np.ndarray:
    """Project unit-norm CSR rows and re-normalize: (r, n) float32 columns.

    `workers` threads split F's rows, and each row is generated once per call.
    """
    out = _project(spec, X, STORE_DTYPE, workers=workers)
    _normalize_columns(out)
    return out


def project_csr(
    spec: EmbeddingSpec,
    X: CSR,
    *,
    workers: int = 1,
) -> np.ndarray:
    """Normalize, project and re-normalize CSR samples: (r, n) float32 columns."""
    return project_rows(
        spec, normalize_rows(X)[0], workers=workers
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
) -> EmbeddedMatrix:
    """Normalize, project and re-normalize a whole corpus."""
    if dataset.d != spec.d:
        raise ValueError(f"dataset dimensionality {dataset.d} != spec.d {spec.d}")
    data = project_csr(
        spec, dataset.to_feature_csr(np.float64), workers=workers
    )
    return EmbeddedMatrix(r=spec.r, n=dataset.n, data=data)


def embed_single(
    spec: EmbeddingSpec, x: SparseVector
) -> np.ndarray:
    """Embed one sample; identical to embed() on a one-sample dataset.

    Feature indices at or beyond spec.d are rejected (the fail-fast choice;
    silently truncating out-of-vocabulary features is the alternative).
    """
    if x.nnz and int(x.indices[-1]) >= spec.d:
        raise ValueError(
            f"feature index {int(x.indices[-1])} out of range [0, {spec.d})"
        )
    X = CSR(
        x.values.astype(np.float64),
        x.indices,
        np.array([0, x.nnz], dtype=np.int64),
        (1, spec.d),
    )
    return project_csr(spec, X).ravel()


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


def load_cache(path, spec: EmbeddingSpec) -> EmbeddedMatrix:
    """Load a cached embedded matrix, verifying it and its sidecar against `spec`."""
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
    sidecar = str(path) + ".meta"
    try:
        with open(sidecar, "r", encoding="utf-8") as f:
            meta = json.load(f)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{sidecar}: malformed cache metadata ({exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: cache metadata must be a JSON object")
    recorded = (meta.get("seed"), meta.get("d"), meta.get("r"))
    if recorded != (spec.seed, spec.d, spec.r) or r != spec.r:
        raise ValueError(
            f"{path}: cache metadata {recorded} does not match spec "
            f"({spec.seed}, {spec.d}, {spec.r})"
        )
    return EmbeddedMatrix(r=int(r), n=int(n), data=data)
