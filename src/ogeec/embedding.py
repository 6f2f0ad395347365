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
samples once: its sets' feature CSRs, normalized, stacked and planned
(`PlannedRows`), serve every learner, and `ensemble.learner_embeddings`
projects them for each learner in one pass over F (`project_rows`); a sweep
over r takes every r from one pass at the largest (`embed_prefixes`). A
projection draws F only at the columns its samples use (`column_plan`): the
Box-Muller arithmetic, most of a row's cost, runs only on the used columns,
and every drawn value is bit-identical to the full row.

Preparing the samples has a memory budget: `PlannedRows` marks the columns
of every stored entry, reads its sets a block of rows at a time for their
norms (`csr.inv_norms`), then fills the position-major copy that it holds
(8 bytes per nonzero: the int32 column and the float32 value, plus one
float64 1 / norm per row) straight from the sets' feature CSRs, so it peaks
at about 8 bytes per nonzero above the parsed sets (8 each, int32 indices
and float32 values), plus O(n) and the column plan's O(d), and holds 8.
A command's parsed sets give up their feature arrays once they are planned
(`ensemble.learner_embeddings`), so from then on it holds its samples once,
and the heap pages that preparing freed go back to the OS before the first
projection (`release_heap`).
`PlannedRows` sizes each projection, whose memory is then bounded per
worker, whatever r and d: one transposed block of F of at most 32 rows and
about 8 MB (`_row_block`), reused for every block, and 1 MiB of scratch, which
`_gaussian_rows` fills with four 256 KiB buffers piece by piece and the
products then use for their chunks."""

from __future__ import annotations

import os
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import trace
from .csr import CSR, RowProducts, _index_dtype
from .data import SparseDataset
from .model import _MASK64, EmbeddingSpec, atomic_write

CACHE_MAGIC = b"OGEC"
CACHE_VERSION = 2
# magic, version, Philox key word, d, r, n, the train set's `feature_sha256`
# and the payload's crc32; the payload follows: column-major float32 LE
_CACHE_HEADER = struct.Struct("<4sHQQIQ32sI")
_CACHE_FILE = "{}-{}.ogec"  # a learner's cache file: prefix, seed

# dot products accumulate in float64; embedded matrices are stored float32
STORE_DTYPE = np.float32

@dataclass
class EmbeddedMatrix:
    """Dense r-by-n column-major float32 matrix of projected samples; r and
    n are read from its shape.

    Every nonzero column has unit norm (within 1e-5); zero columns appear
    only for zero input vectors.
    """

    data: np.ndarray
    r = property(lambda self: self.data.shape[0])
    n = property(lambda self: self.data.shape[1])


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
    """The plan for a boolean mask over F's d columns, in O(d): the drawn
    pairs, and where the mask's even or odd half is set among them."""
    d = used.size
    padded = np.zeros(d + d % 2, dtype=bool)
    padded[:d] = used
    even, odd = padded[0::2], padded[1::2]
    pairs = np.flatnonzero(even | odd).astype(_index_dtype(d))
    cos, sin = (np.flatnonzero(half[pairs]).astype(pairs.dtype) for half in (even, odd))
    return ColumnPlan(pairs, cos, sin, np.concatenate([2 * pairs[cos], 2 * pairs[sin] + 1]))


def release_heap() -> None:
    """Return the free pages of the process's heap to the OS, where the C
    library can (glibc's `malloc_trim`; elsewhere nothing happens).

    Parsing and planning free their temporaries amid the heap, where glibc
    keeps the pages. The threads that project allocate from heaps of their
    own, so they do not reuse those pages but add their working set on top.
    A command calls this once its samples are planned and its parsed
    feature arrays dropped, before the first projection."""
    import ctypes  # here: only a command that projects loads it

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


# values of F in one piece of `_gaussian_rows` (256 KiB of float64, four
# buffers of it in 1 MiB of scratch), and the fewest pairs a piece spans,
# so that its Python steps stay a small share
_PIECE_FLOATS = 1 << 15
_PIECE_PAIRS = 1 << 12


def _gaussian_rows(
    seed: int, streams: range, count: int, plan: ColumnPlan, out: np.ndarray | None = None,
    *, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """One row per stream of `count` standard normals, at the plan's columns
    in plan order; written into the head of `out`, of any layout, when it
    is given. A piece's four buffers live in `scratch` when it holds them.

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
    size = group * span
    buf = scratch if scratch is not None and scratch.size >= 4 * size else np.empty(4 * size)
    trig, radius, angle, piece = (buf[i * size : (i + 1) * size] for i in range(4))
    words = trig.view(np.uint64)  # trig reuses the words' buffer once they are spent
    edges = [*range(0, p, span), p]
    # each piece's first and last cos and sin terms, found in one pass:
    # searching an int32 plan for int64 bounds converts the whole plan
    cuts = [np.searchsorted(x, edges).tolist() for x in (plan.cos, plan.sin)]
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        pairs = plan.pairs[a:b]
        lo, drawn = int(pairs[0]), int(pairs[-1]) + 1 - int(pairs[0])
        at = pairs - lo
        (c0, c1), (s0, s1) = (x[i : i + 2] for x in cuts)
        cos, sin = plan.cos[c0:c1] - a, plan.sin[s0:s1] - a
        for g in range(0, len(streams), group):
            rows = streams[g : g + group]
            shape = (len(rows), pairs.size)
            u, rad, ang = (x[: shape[0] * shape[1]].reshape(shape) for x in (words, radius, angle))
            for half, dst in ((0, rad), (m, ang)):
                for j, stream in enumerate(rows):
                    u[j] = _philox_words(seed, stream, half + lo, drawn)[at]
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
    spec: EmbeddingSpec, start: int, stop: int, *, cols: ColumnPlan,
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """F[start:stop, cols.columns] as a (stop-start, c) float64 array, in plan
    order, written into the head of `out` (at least stop-start rows of c, of
    any layout) and drawn in `scratch` (`_gaussian_rows`) when they are
    given; each row is reproducible alone."""
    if not 0 <= start <= stop <= spec.r:
        raise IndexError(f"rows [{start}, {stop}) out of range [0, {spec.r})")
    return _gaussian_rows(spec.seed, range(start, stop), spec.d, cols, out, scratch=scratch)


# rows in one block of F: past 32 the products gain nothing, and a block
# of c columns also stays under about 8 MB of float64 (1,000,000 // c rows)
_BLOCK_ROWS = 32


def _row_block(c: int) -> int:
    return max(1, min(_BLOCK_ROWS, 1_000_000 // max(c, 1)))


def split_rows(bounds: Sequence[int], fill) -> None:
    """Call fill(lo, hi) on each range [bounds[i], bounds[i + 1]), in a
    thread of its own when there are several."""
    if len(bounds) == 2:
        return fill(*bounds)
    with ThreadPoolExecutor(max_workers=len(bounds) - 1) as pool:
        list(pool.map(fill, bounds[:-1], bounds[1:]))


class PlannedRows:
    """The unit rows of the CSRs `parts`, of as many columns, stacked, for
    any learner to project at r on `workers` threads: the plan of the
    columns of every stored entry, one range of F's rows per worker
    (`bounds`), the `height` of their blocks, and the rows held once inside
    `csr.RowProducts`, position-major, chunked for that height, each column
    mapped to its place in the plan (int32 below 2^31 columns). No input
    array is written, and nothing depends on the learner's seed.

    A command plans its train rows stacked over its test rows, or one set
    alone: the products are the bits of scipy's `diags(1 / norms) @ X`, and
    no stacked copy is made."""

    def __init__(self, *parts: CSR, r: int, workers: int = 1):
        self.n, self.d, self.r = sum(P.shape[0] for P in parts), parts[0].shape[1], r
        for P in parts[1:]:
            if P.shape[1] != self.d:
                raise ValueError(f"dimensionality {P.shape[1]} != first part's dimensionality {self.d}")
        used = np.zeros(self.d, dtype=bool)
        for P in parts:
            used[P.indices] = True
        self.plan = column_plan(used)
        ranges = max(min(workers, r), 1)
        self.bounds = np.linspace(0, r, ranges + 1).astype(int).tolist()
        self.height = min(_row_block(self.plan.columns.size), -(-r // ranges))
        self.products = RowProducts(parts, self.height, self.plan.place(self.d))


def column_norms(data: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each block of the (r, n) array's columns, as a view, and the float64
    norms of its columns. A block holds 1 MB of float64 squares: a column's
    norm is a sum over its own contiguous r values, whatever the block."""
    step = max(1, (1 << 17) // max(data.shape[0], 1))
    for a in range(0, data.shape[1], step):
        block = data[:, a : a + step]
        yield block, np.sqrt(np.sum(np.square(block, dtype=np.float64), axis=0))


def _normalize_columns(out: np.ndarray) -> None:
    for block, norms in column_norms(out):
        norms[norms == 0] = 1.0
        block /= norms


@trace.span("embed_s")
def _project(spec: EmbeddingSpec, X: PlannedRows, dtype) -> np.ndarray:
    """F applied to planned samples (rows) as an (r, n) column-major `dtype`
    array. F is materialized in row blocks, and only at the columns some sample
    uses, in plan order; `csr.RowProducts` adds each output element's
    float64 terms in its row's stored order into a zeroed accumulator, so
    every element is the same float64 sum as with full rows of F. Each
    range of the plan's `bounds` runs in a thread of its own, with one
    transposed (c x `height`) block of F allocated once per call: its rows
    are drawn straight into it and their products go straight into the
    output, so each row of F is generated once per call and the output is
    identical for any worker count.
    """
    if (X.d, X.r) != (spec.d, spec.r):
        raise ValueError(f"planned (dimensionality, r) = {(X.d, X.r)} != the spec's {(spec.d, spec.r)}")
    c, height = X.plan.columns.size, X.height
    out = np.empty((spec.r, X.n), dtype=dtype, order="F")
    # each worker's block, and the 1 MiB of scratch that serves
    # `_gaussian_rows` and then the products' chunks, allocated in this
    # thread: a worker thread's malloc arena could keep them after the call,
    # and the peak RSS then varies from run to run by about a block
    scratch = max(4 * _PIECE_FLOATS, (2 * height + 1) * X.products.rows)
    spare = [(np.empty(height * c), np.empty(scratch)) for _ in X.bounds[1:]]

    def fill(lo: int, hi: int) -> None:
        FT, buffers = spare.pop()
        for s in range(lo, hi, height):
            t = min(s + height, hi)
            block = FT[: (t - s) * c].reshape(c, t - s)
            rows = materialize_rows(spec, s, t, cols=X.plan, out=block.T, scratch=buffers)
            X.products(rows.T, out[s:t], buffers)

    split_rows(X.bounds, fill)
    return out


def project_rows(spec: EmbeddingSpec, X: PlannedRows) -> np.ndarray:
    """Project planned unit-norm rows and re-normalize: (r, n) float32
    columns, each row of F generated once per call (`_project`)."""
    out = _project(spec, X, STORE_DTYPE)
    _normalize_columns(out)
    return out


def project_csr(spec: EmbeddingSpec, X: CSR, *, workers: int = 1) -> np.ndarray:
    """Normalize, project and re-normalize CSR samples: (r, n) float32 columns."""
    return project_rows(spec, PlannedRows(X, r=spec.r, workers=workers))


def embed_prefixes(spec: EmbeddingSpec, rows: PlannedRows, rs: Sequence[int]) -> Iterator[np.ndarray]:
    """`project_rows` at each r in `rs` (each at most spec.r), from one pass
    over F at spec.r.

    Row i of F depends only on (seed, i, d), so F at r is the first r rows of
    F at spec.r, and each projected element is the same sum whatever the
    other rows. Re-normalizing a copy of the first r rows of the projection
    is therefore bit-identical to projecting at r.
    """
    for r in rs:
        if not 1 <= r <= spec.r:
            raise ValueError(f"r {r} out of range [1, {spec.r}]")
    full = _project(spec, rows, STORE_DTYPE)
    del rows  # projected once: the caller's reference alone keeps the plan
    for r in rs:
        out = full[:r].copy(order="F")
        _normalize_columns(out)
        yield out


def embed(spec: EmbeddingSpec, dataset: SparseDataset, *, workers: int = 1) -> EmbeddedMatrix:
    """Normalize, project and re-normalize a whole corpus."""
    return EmbeddedMatrix(project_csr(spec, dataset.features, workers=workers))


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


def _read_payload(path: str, crc: int, out: np.ndarray | None = None) -> None:
    """Stream the cache file's payload in 1 MB blocks, each copied into the
    flat float32 `out` when it is given; then check its crc32, and then that
    every value is finite, as search bounds float32 rounding error by
    column norms."""
    got, at, finite = 0, 0, True
    with open(path, "rb") as f:
        f.seek(_CACHE_HEADER.size)
        while block := f.read(1 << 20):
            got = zlib.crc32(block, got)
            values = np.frombuffer(block, dtype="<f4")
            finite = finite and bool(np.isfinite(values).all())
            if out is not None:
                out[at : at + values.size] = values
            at += values.size
    if got != crc:
        raise _refuse(path, "payload fails its crc32 check")
    if not finite:
        raise _refuse(path, "payload holds non-finite values")


def check_cache(prefix, spec: EmbeddingSpec, train: SparseDataset) -> bool:
    """Whether the learner has a cache file, after the header, size, crc32
    and finiteness checks of `load_cache`, in its order."""
    found = _cache_header(prefix, spec, train)
    if found is not None:
        _read_payload(found[0], found[3])
    return found is not None


@trace.span("embed_s")
def load_cache(prefix, spec: EmbeddingSpec, train: SparseDataset) -> EmbeddedMatrix | None:
    """The learner's cached train matrix, or None when it has no cache file.
    The header must match the learner and `train`, and the payload its size,
    crc32 and finiteness; else a one-line ValueError names the file."""
    found = _cache_header(prefix, spec, train)
    if found is None:
        return None
    path, r, n, crc = found
    cols = np.empty((n, r), dtype=STORE_DTYPE)  # its transpose is column-major
    _read_payload(path, crc, cols.reshape(-1))
    return EmbeddedMatrix(cols.T)
