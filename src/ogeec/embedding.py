"""Seeded gaussian projection matrices and the project-and-normalize pipeline.

A projection matrix F (r rows, d columns) is fully determined by an
EmbeddingSpec and never has to be stored: row i is drawn from an independent
substream keyed by (seed, i), so any row can be rematerialized on its own.
The stream is fixed by this module: Philox 64-bit words under a 128-bit key
(high word = seed, low word = row index), mapped to (0, 1] uniforms, then
Box-Muller. Embedding a corpus means L2-normalizing each sample, multiplying
by F block-by-block (cost proportional to nnz times r), re-normalizing, and
storing the result as a column-major float32 matrix.

Generating F is most of the cost at large d, so a command prepares its
train and test samples once (`train_test_rows`): normalized, stacked and
planned (`PlannedRows`), they serve every learner, and each learner projects
them together in one pass over F (`embed_train_test`); a sweep over r takes
every r from one pass at the largest (`embed_prefixes`). A projection draws
F only at the columns its samples use (`column_plan`): the Box-Muller
arithmetic, most of a row's cost, runs only on the used columns, and every
drawn value is bit-identical to the full row.

Preparing the samples has a memory budget: `train_test_rows` normalizes
both sets a block of rows at a time into one stacked CSR (12 bytes per
nonzero), fills the position-major copy that `PlannedRows` holds (12 more)
from it and frees it, so it peaks at about 24 bytes per nonzero above the
parsed sets, plus the column plan's O(d), and holds 12. A learner with a
cached train matrix normalizes and plans the test set alone, on first use.
A projection's memory is bounded per worker, whatever r and d: one
transposed block of F, about 8 MB (`_row_block`), allocated once per
projection and reused for every block, and four 1 MB buffers that
`_gaussian_rows` fills piece by piece and the products then use for their
chunks."""

from __future__ import annotations

import os
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .csr import CSR, RowProducts, _index_dtype, normalize_rows
from .data import SparseDataset, atomic_write

CACHE_MAGIC = b"OGEC"
CACHE_VERSION = 2
# magic, version, Philox key word, d, r, n, the train set's `feature_sha256`
# and the payload's crc32; the payload follows: column-major float32 LE
_CACHE_HEADER = struct.Struct("<4sHQQIQ32sI")
_CACHE_FILE = "{}-{}.ogec"  # a learner's cache file: prefix, seed

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


_philox = threading.local()  # each thread's one generator, re-keyed per row


def _philox_words(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Raw 64-bit words [start, start + count) of the (seed, stream) substream,
    from the calling thread's one generator set to the substream's key, the
    counter of `start`'s four-word block and an empty buffer, so no word of
    an earlier draw carries over."""
    if not hasattr(_philox, "bits"):
        _philox.bits = np.random.Philox(0)
        _philox.state = _philox.bits.state
    state = _philox.state  # its buffer stays empty: buffer_pos 4
    state["state"]["counter"][0] = start // 4
    state["state"]["key"][:] = (stream & _MASK64, seed & _MASK64)
    _philox.bits.state = state
    return _philox.bits.random_raw(count + start % 4)[start % 4 :]


@dataclass(frozen=True)
class ColumnPlan:
    """The columns of F that a projection reads, in the order it draws them.

    Box-Muller pair t of a row gives column 2t its cos term and column 2t+1
    its sin term. `pairs` holds the pairs with a used column; `cos` and `sin`
    index into `pairs` for the used even and the used odd columns. `columns`
    lists the used even columns, then the used odd columns (the plan order).
    Each array is int32 below 2^31 columns; the d-sized map from a column to
    its place in the plan is built on demand (`place`), not held.
    """

    pairs: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    columns: np.ndarray

    def place(self, d: int) -> np.ndarray:
        """`place[j]`: used column j's position in `columns`, over F's d columns."""
        place = np.zeros(d, dtype=self.columns.dtype)
        place[self.columns] = np.arange(self.columns.size)
        return place


def column_plan(used: np.ndarray) -> ColumnPlan:
    """The plan for a boolean mask over F's d columns, in O(d)."""
    d = used.size
    padded = np.zeros(d + d % 2, dtype=bool)
    padded[:d] = used
    even, odd = padded[0::2], padded[1::2]
    drawn = even | odd
    rank = np.cumsum(drawn) - 1
    columns = np.concatenate([2 * np.flatnonzero(even), 2 * np.flatnonzero(odd) + 1])
    arrays = (np.flatnonzero(drawn), rank[even], rank[odd], columns)
    return ColumnPlan(*(a.astype(_index_dtype(d)) for a in arrays))


# values of F in one piece of `_gaussian_rows` (1 MB of float64), and the
# fewest pairs a piece spans, so that its Python steps stay a small share
_PIECE_FLOATS = 1 << 17
_PIECE_PAIRS = 1 << 12


def _gaussian_rows(
    seed: int, streams: range, count: int, plan: ColumnPlan, out: np.ndarray | None = None
) -> np.ndarray:
    """One row per stream of `count` standard normals, at the plan's columns
    in plan order; written into the head of `out`, of any layout, when it
    is given.

    Box-Muller over 53-bit uniforms: u1 in (0, 1] (never log(0)), u2 in
    [0, 1). Pair t's u1 is word t of its row's stream and its u2 word m + t.
    The rows are drawn in pieces of at most _PIECE_FLOATS values: a run of
    the drawn pairs for a group of rows, each step running on the whole
    group, and each piece is copied into `out` at once, so a transposed
    `out` takes it as one small transpose. log, sqrt, cos and sin each run
    elementwise on contiguous buffers, so every value is bit-identical to
    drawing the full row.
    """
    m = (count + 1) // 2
    p, c = plan.pairs.size, plan.cos.size
    out = np.empty((len(streams), plan.columns.size)) if out is None else out[: len(streams)]
    span = max(1, min(p, max(_PIECE_PAIRS, _PIECE_FLOATS // max(len(streams), 1))))
    group = max(1, min(len(streams), _PIECE_FLOATS // span))
    size, buf = group * span, getattr(_philox, "pieces", None)  # lent by `_project`
    buf = buf if buf is not None and buf.size >= 4 * size else np.empty(4 * size)
    trig, radius, angle, piece = (buf[i * size : (i + 1) * size] for i in range(4))
    words = trig.view(np.uint64)  # trig reuses the words' buffer once they are spent
    for a in range(0, p, span):
        pairs = plan.pairs[a : a + span]
        lo, drawn = int(pairs[0]), int(pairs[-1]) + 1 - int(pairs[0])
        at = pairs - lo
        (c0, c1), (s0, s1) = (np.searchsorted(x, [a, a + pairs.size]) for x in (plan.cos, plan.sin))
        cos, sin = plan.cos[c0:c1] - a, plan.sin[s0:s1] - a
        for g in range(0, len(streams), group):
            rows = streams[g : g + group]
            shape = (len(rows), pairs.size)
            u, rad, ang = (x[: shape[0] * shape[1]].reshape(shape) for x in (words, radius, angle))
            for half, dst in ((0, rad), (m, ang)):
                for i, stream in enumerate(rows):
                    u[i] = _philox_words(seed, stream, half + lo, drawn)[at]
                u >>= 11
                if half == 0:
                    u += 1
                np.multiply(u, 2.0**-53, out=dst)
            np.log(rad, out=rad)
            rad *= -2.0
            np.sqrt(rad, out=rad)
            ang *= 2.0 * np.pi
            for sel, first, fn in ((cos, c0, np.cos), (sin, c + s0, np.sin)):
                dst, t = (x[: len(rows) * sel.size].reshape(len(rows), -1) for x in (piece, trig))
                fn(np.take(ang, sel, axis=1, out=t, mode="clip"), out=t)
                np.multiply(np.take(rad, sel, axis=1, out=dst, mode="clip"), t, out=dst)
                out[g : g + len(rows), first : first + sel.size] = dst
    return out


def materialize_rows(
    spec: EmbeddingSpec, start: int, stop: int, *, cols: ColumnPlan, out: np.ndarray | None = None
) -> np.ndarray:
    """F[start:stop, cols.columns] as a (stop-start, c) float64 array, in plan
    order, written into the head of `out` (at least stop-start rows of c, of
    any layout) when it is given; each row is reproducible alone."""
    if not 0 <= start <= stop <= spec.r:
        raise IndexError(f"rows [{start}, {stop}) out of range [0, {spec.r})")
    return _gaussian_rows(spec.seed, range(start, stop), spec.d, cols, out)


def _row_block(c: int) -> int:
    # a transposed block of c columns: near 8 MB of float64
    return max(1, 1_000_000 // max(c, 1))


def split_rows(r: int, workers: int, fill) -> None:
    """Call fill(lo, hi) on `workers` contiguous ranges of rows [0, r), each
    in its own thread, so that every row is handled once."""
    if workers <= 1:
        fill(0, r)
        return
    bounds = np.linspace(0, r, min(workers, r) + 1).astype(int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, bounds[:-1].tolist(), bounds[1:].tolist()))


class PlannedRows:
    """CSR rows ready for any learner to project: the plan of the columns
    they use, and the rows themselves held once, position-major, inside
    `csr.RowProducts`, each column index mapped to its place in the plan
    (int32 below 2^31 columns) as they are filled; X is not written, and the
    d-sized map is freed once they are. Neither depends on the learner's
    seed."""

    def __init__(self, X: CSR):
        used = np.zeros(X.shape[1], dtype=bool)
        used[X.indices] = True
        self.plan, (self.n, self.d) = column_plan(used), X.shape
        self.block = _row_block(self.plan.columns.size)
        self.products = RowProducts(X, self.block, self.plan.place(self.d))


@dataclass(frozen=True)
class TrainTestRows:
    """A command's train then test samples as unit-norm float64 rows: `both`
    plans the train rows stacked over the test rows, for one pass over F per
    learner; `test` normalizes and plans the rows of `test_set` alone on
    first use, for a learner whose train matrix is cached."""

    both: PlannedRows
    test_set: SparseDataset
    n_train: int

    @cached_property
    def test(self) -> PlannedRows:
        return PlannedRows(normalize_rows(self.test_set.to_feature_csr())[0])


def train_test_rows(train: SparseDataset, test: SparseDataset) -> TrainTestRows:
    """Normalize and plan a command's samples once, for every learner: both
    sets are normalized a block of rows at a time into one stacked CSR
    (`csr.normalize_rows`), which is freed once `PlannedRows` holds its
    position-major copy. Besides the parsed sets, that is at most about 24
    bytes per nonzero, and the plan's O(d)."""
    if test.d != train.d:
        raise ValueError(f"test dimensionality {test.d} != train dimensionality {train.d}")
    both = normalize_rows(train.to_feature_csr(), test.to_feature_csr())[0]
    return TrainTestRows(PlannedRows(both), test, train.n)


def _normalize_columns(out: np.ndarray) -> None:
    # columns in blocks of 1 MB of float64 squares: a column's norm is a sum
    # over its own contiguous r values, whatever the block
    step = max(1, (1 << 17) // max(out.shape[0], 1))
    for a in range(0, out.shape[1], step):
        block = out[:, a : a + step]
        norms = np.sqrt(np.sum(np.square(block, dtype=np.float64), axis=0))
        norms[norms == 0] = 1.0
        block /= norms


def _project(spec: EmbeddingSpec, X: PlannedRows, dtype, *, workers: int = 1) -> np.ndarray:
    """F applied to planned samples (rows) as an (r, n) column-major `dtype`
    array. F is materialized in row blocks, and only at the columns some sample
    uses, in plan order; `csr.RowProducts` adds each output element's
    float64 terms in its row's stored order into a zeroed accumulator, so
    every element is the same float64 sum as with full rows of F. Workers
    split F's rows into contiguous ranges and apply each block to every
    sample, so each row of F is generated once per call and the output is
    identical for any worker count. Each worker holds one transposed block
    of F, (c x b) for at most `_row_block` rows b (about 8 MB), allocated
    once per call: the rows are drawn straight into it, and the products go
    straight into the block's rows of the output.
    """
    if X.d != spec.d:
        raise ValueError(f"dataset dimensionality {X.d} != spec.d {spec.d}")
    c = X.plan.columns.size
    out = np.empty((spec.r, X.n), dtype=dtype, order="F")
    ranges = min(max(workers, 1), spec.r)  # as split_rows splits F's rows
    height = min(X.block, -(-spec.r // ranges))
    # each worker's block, and the buffers that serve `_gaussian_rows` and
    # then the products' chunks, allocated in this thread: a worker thread's
    # malloc arena could keep them after the call, and the peak RSS then
    # varies from run to run by about a block
    scratch = max(4 * _PIECE_FLOATS, 2 * X.products.rows * height)
    spare = [(np.empty(height * c), np.empty(scratch)) for _ in range(ranges)]

    def fill(lo: int, hi: int) -> None:
        FT, buffers = spare.pop()
        _philox.pieces = buffers
        for s in range(lo, hi, height):
            t = min(s + height, hi)
            block = FT[: (t - s) * c].reshape(c, t - s)
            rows = materialize_rows(spec, s, t, cols=X.plan, out=block.T)
            X.products(rows.T, out[s:t], buffers)
        _philox.pieces = None

    split_rows(spec.r, workers, fill)
    return out


def project_rows(spec: EmbeddingSpec, X: PlannedRows, *, workers: int = 1) -> np.ndarray:
    """Project planned unit-norm rows and re-normalize: (r, n) float32
    columns. `workers` threads split F's rows, and each row is generated
    once per call."""
    out = _project(spec, X, STORE_DTYPE, workers=workers)
    _normalize_columns(out)
    return out


def project_csr(spec: EmbeddingSpec, X: CSR, *, workers: int = 1) -> np.ndarray:
    """Normalize, project and re-normalize CSR samples: (r, n) float32 columns."""
    return project_rows(spec, PlannedRows(normalize_rows(X)[0]), workers=workers)


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
    spec: EmbeddingSpec, rows: TrainTestRows, rs: Iterable[int], *, workers: int = 1
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


def embed(spec: EmbeddingSpec, dataset: SparseDataset, *, workers: int = 1) -> EmbeddedMatrix:
    """Normalize, project and re-normalize a whole corpus."""
    if dataset.d != spec.d:
        raise ValueError(f"dataset dimensionality {dataset.d} != spec.d {spec.d}")
    data = project_csr(spec, dataset.to_feature_csr(), workers=workers)
    return EmbeddedMatrix(r=spec.r, n=dataset.n, data=data)


def save_cache(prefix, matrix: EmbeddedMatrix, spec: EmbeddingSpec, train: SparseDataset) -> str:
    """Write a learner's embedded train matrix to its one self-describing
    cache file (`_CACHE_HEADER`) with `atomic_write`; return the path."""
    # the column-major float32 matrix, transposed, is the payload as it
    # stands on a little-endian machine: written without a copy there
    payload = np.ascontiguousarray(matrix.data.T, dtype="<f4")
    header = _CACHE_HEADER.pack(
        CACHE_MAGIC, CACHE_VERSION, spec.seed & _MASK64, spec.d, matrix.r, matrix.n,
        train.feature_sha256, zlib.crc32(payload),
    )
    path = _CACHE_FILE.format(prefix, spec.seed)
    with atomic_write(path, "wb") as f:
        f.write(header)
        f.write(payload)
    return path


def _cache_header(prefix, spec: EmbeddingSpec, train: SparseDataset):
    """(path, r, n, crc32) of the learner's cache file, or None when it has
    none. The header must match the learner and `train` and the file must
    hold the payload's size; else a one-line ValueError names the file."""
    path = _CACHE_FILE.format(prefix, spec.seed)
    if not os.path.exists(path):
        return None  # projected together with the queries
    with open(path, "rb") as f:
        head = f.read(_CACHE_HEADER.size)
    if head[:6] == CACHE_MAGIC + b"\x01\x00":
        raise _refuse(path, "cache format v1 is no longer read")
    if len(head) < _CACHE_HEADER.size:
        raise _refuse(path, "truncated cache header")
    magic, version, key, d, r, n, digest, crc = _CACHE_HEADER.unpack(head)
    if (magic, version) != (CACHE_MAGIC, CACHE_VERSION):
        raise _refuse(path, f"bad magic or version ({magic!r}, {version})")
    want = (spec.seed & _MASK64, spec.d, spec.r)
    if (key, d, r) != want:
        raise _refuse(path, f"cache is for (Philox key, d, r) = {(key, d, r)}, not {want}")
    if n != train.n:
        raise _refuse(path, f"cache holds {n} samples but the train set has {train.n}")
    if digest != train.feature_sha256:
        raise _refuse(path, "cache was built from another train set")
    size = os.path.getsize(path) - _CACHE_HEADER.size
    if size != r * n * 4:
        raise _refuse(path, f"expected {r * n * 4} payload bytes, got {size}")
    return path, r, n, crc


def _refuse(path: str, why: str) -> ValueError:
    return ValueError(f"{path}: {why}; rebuild it with `ogeec train --cache`")


def _payload(path: str, crc: int, step: int) -> Iterator[bytes]:
    """The cache file's payload in blocks of `step` bytes, then its crc32 check."""
    got = 0
    with open(path, "rb") as f:
        f.seek(_CACHE_HEADER.size)
        while block := f.read(step):
            got = zlib.crc32(block, got)
            yield block
    if got != crc:
        raise _refuse(path, "payload fails its crc32 check")


def check_cache(prefix, spec: EmbeddingSpec, train: SparseDataset) -> bool:
    """Whether the learner has a cache file, after the header, size and crc32
    checks of `load_cache`; the payload is streamed in 1 MB blocks."""
    found = _cache_header(prefix, spec, train)
    if found is not None:
        for _ in _payload(found[0], found[3], 1 << 20):
            pass
    return found is not None


def load_cache(prefix, spec: EmbeddingSpec, train: SparseDataset) -> EmbeddedMatrix | None:
    """The learner's cached train matrix, or None when it has no cache file.
    The header must match the learner and `train`, and the payload its size,
    crc32 and finiteness; else a one-line ValueError names the file."""
    found = _cache_header(prefix, spec, train)
    if found is None:
        return None
    path, r, n, crc = found
    payload = b"".join(_payload(path, crc, r * n * 4 + 1))
    cols = np.frombuffer(payload, dtype="<f4").reshape(n, r)
    data = np.asfortranarray(cols.T.astype(np.float32, copy=False))
    # search bounds float32 rounding error by column norms, which must be
    # finite; checked a block of about 2^20 values at a time
    step = max(1, (1 << 20) // max(r, 1))
    for a in range(0, n, step):
        if not np.isfinite(data[:, a : a + step]).all():
            raise _refuse(path, "payload holds non-finite values")
    return EmbeddedMatrix(r=r, n=n, data=data)
