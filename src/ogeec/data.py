"""Sparse multi-label datasets: text-format I/O and synthetic corpora.

The on-disk format is the extreme-classification repository convention:

    n d L
    l1,l2,... f1:v1 f2:v2 ...

First line is the header (sample count, feature dimensionality, label
vocabulary size, each in [1, 2^63)). Each following line is one sample: a
comma-separated label list (possibly empty, leaving a leading space)
followed by space-separated ``index:value`` feature pairs. All indices are
0-based. A `SparseDataset`'s feature CSR stores its indices as int32 below
2^31 columns (int64 from there) and its values as float32; its label CSR
stores its indices as int64.

`parse_dataset` reads the file in pieces of about `_CHUNK` bytes cut at line
ends. A piece whose lines all keep to the canonical grammar (digits and
`\\n , : . e E + -` and space, labels and indices of at most 18 digits,
values inside Clinger's exact path, every check passed) is tokenized with
numpy. Any other piece is parsed line by line, exactly as the whole-file
parser before it did, which returns the same rows or raises the same error
at the same line.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import trace
from .csr import CSR, _index_dtype


class DatasetFormatError(ValueError):
    """A dataset file violates the text-format contract."""


_F32_MAX = float(np.finfo(np.float32).max)
# int64 indices hashed at a time by `feature_sha256` (1 MB)
_HASH_ENTRIES = 1 << 17
# Sample lines are parsed in pieces of about this many bytes, cut at line
# ends, so parsing holds one piece's temporaries besides the dataset: about
# 22 bytes per input byte on the canonical path, under 3 MB a piece.
_CHUNK = 128 << 10
_LINE_END = re.compile(rb"\r\n?|\n")
# The class of each byte in the canonical grammar: the separators between
# digit runs, then digits; a piece with any other byte takes the per-line path.
_NL, _SP, _COMMA, _COLON, _DOT, _EXP, _SIGN, _DIGIT, _OTHER = range(9)
_SEPARATORS = dict(
    zip(b"\n ,:.eE+-", (_NL, _SP, _COMMA, _COLON, _DOT, _EXP, _EXP, _SIGN, _SIGN))
)
_CLASS_OF = bytes(
    _DIGIT if 48 <= b <= 57 else _SEPARATORS.get(b, _OTHER) for b in range(256)
)
# exact doubles 10**0 .. 10**22, and int64 powers of ten for 18-digit runs
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
# SWAR digit parsing: 8 bytes in front of a piece, the mask keeping the last
# n bytes of a word, and the steps combining digit pairs into quads and octets
_PAD = b"\n" * 8
_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - n)) for n in range(9)], dtype=np.uint64)
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_LOW32 = np.uint64(0xFFFFFFFF)
_SWAR_STEPS = (
    (np.uint64(8), np.uint64(0x0F0F0F0F0F0F0F0F), np.uint64(10)),
    (np.uint64(16), np.uint64(0x00FF00FF00FF00FF), np.uint64(100)),
    (np.uint64(32), np.uint64(0x0000FFFF0000FFFF), np.uint64(10000)),
)


def _fmt_value(v: float) -> str:
    # 9 significant digits round-trip any float32 exactly
    return "%.9g" % v


@dataclass
class SparseDataset:
    """A set of samples as its two CSRs: `features`, the n x d feature
    matrix, and `labels`, Y, the n x L label matrix through which every
    label set is read. Y stores a 1 at every (sample, label) assignment, its
    data a read-only zero-stride view of one 1.0, so Y allocates nothing.
    n, d and L are read from the shapes.

    An owner that reads no feature once the samples are planned, as the
    CLI's commands do, sets `planned_only`: planning (`ensemble`) then calls
    `features_planned`, which drops the feature arrays but keeps their shape
    (n, d and the labels stay), so the samples are held once, in the plan.
    Where a cache is read or written, `feature_sha256` is taken before.
    """

    features: CSR
    labels: CSR
    planned_only = False  # not a field: set by the owner, see the class docstring
    n = property(lambda self: self.labels.shape[0])
    d = property(lambda self: self.features.shape[1])
    L = property(lambda self: self.labels.shape[1])

    def __post_init__(self):
        if self.features.shape[0] != self.n:
            raise ValueError(f"{self.features.shape[0]} feature rows != {self.n} label rows")

    @functools.cached_property
    def label_frequencies(self) -> np.ndarray:
        """Each label's count of samples, as int64, computed once."""
        return np.bincount(self.labels.indices, minlength=self.L).astype(np.int64)

    @functools.cached_property
    def feature_sha256(self) -> bytes:
        """sha256 of the feature CSR as LE int64, int64 and float32 arrays,
        computed once: what a cache of this set's projections is checked by.
        Each array is converted _HASH_ENTRIES entries at a time, so int32
        indices hash as int64 ones without a whole int64 copy."""
        import hashlib  # here: loading OpenSSL adds about 4 ms to every command's start

        digest = hashlib.sha256()
        X = self.features
        for array, dtype in zip((X.indptr, X.indices, X.data), ("<i8", "<i8", "<f4")):
            for a in range(0, array.size, _HASH_ENTRIES):
                digest.update(np.ascontiguousarray(array[a : a + _HASH_ENTRIES], dtype=dtype))
        return digest.digest()

    def features_planned(self) -> None:
        """Drop the feature arrays of a `planned_only` set, whose samples a
        plan now holds, keeping their shape; any other set keeps them."""
        if self.planned_only:
            self.features = CSR(None, None, None, self.features.shape)


def _parse_labels(token: str, L: int, lineno: int) -> np.ndarray:
    if token == "":
        return np.empty(0, dtype=np.int64)
    if ":" in token:
        raise DatasetFormatError(
            f"line {lineno}: label field contains ':' "
            "(unlabeled samples need a leading space)"
        )
    out = []
    for part in token.split(","):
        try:
            lab = int(part)
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: bad label {part!r}") from None
        if not 0 <= lab < L:
            raise DatasetFormatError(
                f"line {lineno}: label index {lab} out of range [0, {L})"
            )
        out.append(lab)
    return np.array(sorted(set(out)), dtype=np.int64)


def _parse_features(
    tokens: list[str], d: int, lineno: int
) -> tuple[np.ndarray, np.ndarray]:
    idx, val = [], []
    for tok in tokens:
        if tok == "":
            continue
        head, sep, tail = tok.partition(":")
        if not sep:
            raise DatasetFormatError(f"line {lineno}: bad feature pair {tok!r}")
        try:
            j = int(head)
            v = float(tail)
        except ValueError:
            raise DatasetFormatError(
                f"line {lineno}: bad feature pair {tok!r}"
            ) from None
        if not 0 <= j < d:
            raise DatasetFormatError(
                f"line {lineno}: feature index {j} out of range [0, {d})"
            )
        # values are stored as float32, so magnitudes beyond its range are
        # non-finite for this artifact
        if not math.isfinite(v) or abs(v) > _F32_MAX:
            raise DatasetFormatError(f"line {lineno}: non-finite value in {tok!r}")
        idx.append(j)
        val.append(v)
    indices = np.array(idx, dtype=np.int64)
    values = np.array(val, dtype=np.float32)
    if indices.size:
        order = np.argsort(indices, kind="stable")
        indices, values = indices[order], values[order]
        if np.any(np.diff(indices) == 0):
            dup = int(indices[np.flatnonzero(np.diff(indices) == 0)[0]])
            raise DatasetFormatError(f"line {lineno}: duplicate feature index {dup}")
    return indices, values


class _Rows(NamedTuple):
    """Parsed sample lines: per-row counts and the rows' entries, concatenated."""

    feat_counts: np.ndarray
    feat_indices: np.ndarray
    feat_values: np.ndarray
    label_counts: np.ndarray
    label_indices: np.ndarray


def _parse_lines(piece: bytes, lineno: int, d: int, L: int) -> _Rows:
    """Sample lines parsed one at a time; errors carry their line numbers.

    Line ends are read as text mode reads them (CRLF and a lone CR end a line).
    """
    lines = piece.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    lines = lines.split("\n")
    if lines[-1] == "":
        lines.pop()
    feature_rows, label_rows = [], []
    for i, line in enumerate(lines):
        fields = line.split(" ")
        label_rows.append(_parse_labels(fields[0], L, lineno + i))
        feature_rows.append(_parse_features(fields[1:], d, lineno + i))
    return _rows(feature_rows, label_rows)


def _rows(feature_rows: list[tuple], label_rows: list[np.ndarray]) -> _Rows:
    """At least one row's (indices, values) features and labels, as `_Rows`."""
    return _Rows(
        np.array([len(r[0]) for r in feature_rows], dtype=np.int64),
        np.concatenate([r[0] for r in feature_rows]).astype(np.int64),
        np.concatenate([r[1] for r in feature_rows]).astype(np.float32),
        np.array([len(r) for r in label_rows], dtype=np.int64),
        np.concatenate(label_rows).astype(np.int64),
    )


def _dataset(rows: _Rows, d: int, L: int) -> SparseDataset:
    """The dataset of `rows`, its feature indices as `_index_dtype(d)` and
    its Y's data a view of one 1.0: no label value is allocated."""
    n = rows.feat_counts.size
    feat_indptr, label_indptr = np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1, dtype=np.int64)
    np.cumsum(rows.feat_counts, out=feat_indptr[1:])
    np.cumsum(rows.label_counts, out=label_indptr[1:])
    indices = rows.feat_indices.astype(_index_dtype(d), copy=False)
    ones = np.broadcast_to(np.float64(1.0), rows.label_indices.shape)
    return SparseDataset(
        CSR(rows.feat_values, indices, feat_indptr, (n, d)),
        CSR(ones, rows.label_indices, label_indptr, (n, L)),
    )


def _assemble(
    feature_rows: list[tuple[np.ndarray, np.ndarray]], label_rows: list[np.ndarray], d: int, L: int
) -> SparseDataset:
    return _dataset(_rows(feature_rows, label_rows), d, L)


def _token_ok(b2: int, b: int, e: int, prev: bool, here: bool) -> bool:
    """Whether a digit run may stand between separators of classes b and e in
    a canonical sample line; b2 is the class of the separator before b, and
    prev and here say whether the previous run and this one have digits."""
    ends = e in (_NL, _SP)
    if b in (_NL, _COMMA):  # a label; an empty first one is an empty label field
        return (here and (ends or e == _COMMA)) or (not here and b == _NL and ends)
    if b == _SP:  # a feature index, or an empty field
        return (here and e == _COLON) or (not here and ends)
    if b == _COLON or (b == _SIGN and b2 == _COLON):  # a value's integer digits
        return (
            e == _DOT
            or (here and (ends or e == _EXP))
            or (not here and b == _COLON and e == _SIGN)
        )
    if b == _DOT:  # its fraction digits; the mantissa needs a digit
        return (here or prev) and (ends or e == _EXP)
    if b == _EXP or (b == _SIGN and b2 == _EXP):  # its exponent digits
        return (here and ends) or (not here and b == _EXP and e == _SIGN)
    return False


# _VALID[(b2 << 8) | (b << 5) | (prev << 4) | (e << 1) | here]
_VALID = np.array(
    [
        _token_ok(c >> 8, (c >> 5) & 7, (c >> 1) & 7, bool(c & 16), bool(c & 1))
        for c in range(2048)
    ]
)


def _runs(raw: np.ndarray, sep: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The value of each decimal digit run of at most 18 digits that ends at
    position sep of raw[8:], as int64.

    Eight digits at a time (SWAR): the eight bytes before sep are read as one
    little-endian word, the bytes before the run become zero digits, and
    three multiply-add steps combine digits into pairs, quads and octets.
    """
    words = np.ndarray((raw.size - 7,), dtype="<u8", buffer=raw, strides=(1,))
    keep = _KEEP[np.minimum(length, 8)]
    w = words.take(sep)  # words[p] holds raw[8:][p - 8 : p]
    w &= keep
    w -= keep & _ASCII_ZEROS
    for shift, mask, scale in _SWAR_STEPS:
        hi = w >> shift
        hi &= mask
        w &= mask
        w *= scale
        w += hi
    w &= _LOW32
    out = w.view(np.int64)  # below 10**8
    longer = np.flatnonzero(length > 8)
    if longer.size:
        out[longer] += _runs(raw, sep[longer] - 8, length[longer] - 8) * 10**8
    return out


def _parse_canonical(piece: bytes, d: int, L: int) -> _Rows | None:
    """Sample lines in the canonical grammar, tokenized with numpy.

    None when the piece has a byte outside the grammar, a value outside the
    exact path, or a line that fails a check: the per-line path then returns
    the same rows or raises the line's error.
    """
    if not piece.endswith(b"\n"):
        piece += b"\n"
    classes = piece.translate(_CLASS_OF)
    if bytes([_OTHER]) in classes:
        return None
    raw = np.frombuffer(_PAD + piece, dtype=np.uint8)
    buf = raw[8:]
    # The line is digit runs, each ended by one separator byte: the
    # grammar is in the separators' classes and which runs are empty.
    classes = np.frombuffer(classes, dtype=np.uint8)
    sep = np.flatnonzero(classes != _DIGIT)
    cls = classes[sep]
    length = np.empty_like(sep)
    length[0] = sep[0]
    np.subtract(sep[1:], sep[:-1] + 1, out=length[1:])
    if length.max() > 18:
        return None
    # A run's kind is its separator's class and whether it has digits; the
    # grammar looks at a run's kind and at the two runs before it. The piece
    # starts a line, as if after two empty runs ended by newlines.
    kind = np.zeros(sep.size + 2, dtype=np.uint16)
    kind[2:] = cls
    kind[2:] <<= 1
    kind[2:] |= length > 0
    if not _VALID[(kind[:-2] >> 1 << 8) | (kind[1:-1] << 4) | kind[2:]].all():
        return None
    before = kind[1:-1] >> 1  # the class of the separator in front of each run
    nums = _runs(raw, sep, length)
    newline = cls == _NL
    row = np.cumsum(newline) - newline
    labs = np.flatnonzero(((before == _NL) | (before == _COMMA)) & (length > 0))
    cols = np.flatnonzero((before == _SP) & (length > 0))
    labels, indices = nums[labs], nums[cols]
    if (labels >= L).any() or (indices >= d).any():
        return None
    values = _exact_values(buf, sep, cls, length, nums, cols + 1)
    if values is None:
        return None
    lrow, frow = row[labs], row[cols]
    same = frow[1:] == frow[:-1]
    if (same & (indices[1:] <= indices[:-1])).any():
        order = np.lexsort((indices, frow))  # stable: as a per-row argsort
        indices, values = indices[order], values[order]
        if (same & (indices[1:] == indices[:-1])).any():
            return None  # a duplicate feature index
    same = lrow[1:] == lrow[:-1]
    if (same & (labels[1:] <= labels[:-1])).any():
        order = np.lexsort((labels, lrow))
        labels, lrow = labels[order], lrow[order]
        keep = np.ones(labels.size, dtype=bool)
        keep[1:] = ~same | (labels[1:] != labels[:-1])
        labels, lrow = labels[keep], lrow[keep]
    n_rows = int(newline.sum())
    return _Rows(
        np.bincount(frow, minlength=n_rows),
        indices,
        values,
        np.bincount(lrow, minlength=n_rows),
        labels,
    )


def _exact_values(buf, sep, cls, length, nums, t) -> np.ndarray | None:
    """The float32 values whose first run is t, or None if one is outside
    the exact path.

    A value's runs are [sign] integer digits [. fraction digits]
    [e [sign] exponent digits]. With its mantissa digits read as an integer
    M <= 2**53 and its decimal exponent |e| <= 22, both M and 10**|e| are
    exact doubles, so M * 10**e or M / 10**-e is one correctly rounded
    operation: the double nearest the decimal, which float() returns
    (Clinger 1990). An exponent e > 22 is first moved into M, exactly, while
    M * 10**(e - 22) <= 2**53 ("3.44618e+28" is 3446180e22). Rounding that
    double to float32 is then as before.
    """
    signed = cls[t] == _SIGN
    negative = signed & (buf[sep[t]] == 45)
    t = t + signed
    dot = cls[t] == _DOT
    f = t + dot  # the fraction run; the integer run when there is no dot
    frac_len = length[f] * dot
    if (length[t] + frac_len).max(initial=0) > 18:
        return None
    mant = nums[t] * _POW10_INT[frac_len] + nums[f] * dot
    e = -frac_len
    with_exp = np.flatnonzero(cls[f] == _EXP)
    if with_exp.size:
        x = f[with_exp] + 1  # a line ends after every exponent
        exp_signed = cls[x] == _SIGN
        exp_negative = exp_signed & (buf[sep[x]] == 45)
        x += exp_signed
        e[with_exp] += np.where(exp_negative, -nums[x], nums[x])
    big = np.flatnonzero(e > 22)
    if big.size:  # M * 10**(e - 22) is exact while it stays <= 2**53 (checked
        # before the multiply, which could overflow int64)
        scale = _POW10_INT[np.minimum(e[big] - 22, 18)]
        if (mant[big] > 2**53 // scale).any():
            return None
        mant[big] *= scale
        e[big] = 22
    if mant.max(initial=0) > 2**53 or np.abs(e).max(initial=0) > 22:
        return None
    # times 1 or divided by 1 is exact, so this is one rounding either way
    v = mant.astype(np.float64)
    v *= _POW10[np.maximum(e, 0)]
    v /= _POW10[np.maximum(-e, 0)]
    # |v| < 2**53 * 10**22 < float32 max: every value here is finite and in range
    np.negative(v, out=v, where=negative)
    return v.astype(np.float32)


def _pieces(f):
    """The rest of binary file f in pieces of about _CHUNK bytes, each ending
    with a newline (the last may not)."""
    head = []  # the start of a line that has not ended yet
    while block := f.read(_CHUNK):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join([*head, block[:cut]])
            head = []
        head.append(block[cut:])
    if rest := b"".join(head):
        yield rest


def _line_ends(b: bytes) -> int:
    """Line ends in b as text mode reads them: CRLF, CR or LF."""
    lf = int(np.count_nonzero(np.frombuffer(b, dtype=np.uint8) == ord("\n")))
    return lf if b"\r" not in b else lf + b.count(b"\r") - b.count(b"\r\n")


def _scan(f) -> tuple[int, bytes, int, int]:
    """Check that f is UTF-8 and count its lines and features, in one pass.

    Returns the line count, the header line, the offset of line 2 and the
    number of ':' after the header. Each feature pair holds one ':' and a
    sample line that parses holds no other, so that is the feature count of
    any file that parses.
    """
    lines, header, body, last, colons = 0, b"", 0, b"", 0
    for piece in _pieces(f):
        if not piece.isascii():
            try:
                piece.decode("utf-8")
            except UnicodeDecodeError as exc:
                at = lines + _line_ends(piece[: exc.start]) + 1
                raise DatasetFormatError(f"line {at}: not valid UTF-8") from None
        if not last:
            m = _LINE_END.search(piece)
            header, body = (piece[: m.start()], m.end()) if m else (piece, len(piece))
        lines += _line_ends(piece)
        colons += np.count_nonzero(np.frombuffer(piece, dtype=np.uint8) == ord(":"))
        last = piece[-1:]
    if last and last not in b"\r\n":
        lines += 1
    return lines, header, body, int(colons) - header.count(b":")


def _parse(path) -> SparseDataset:
    with open(path, "rb") as f:
        lines, header, body, nnz = _scan(f)
        if not lines:
            raise DatasetFormatError("line 1: empty file")
        fields = header.decode("utf-8").split()
        if len(fields) != 3:
            raise DatasetFormatError("line 1: header must be 'n d L'")
        try:
            n, d, L = (int(tok) for tok in fields)
        except ValueError:
            raise DatasetFormatError("line 1: header must be 'n d L'") from None
        if n <= 0 or d <= 0 or L <= 0:
            raise DatasetFormatError("line 1: header fields must be positive")
        if max(n, d, L) >= 2**63:  # counts and indices are int64
            raise DatasetFormatError("line 1: header fields must be below 2^63")
        if lines - 1 != n:
            raise DatasetFormatError(
                f"expected {n} sample lines after the header, found {lines - 1}"
            )
        f.seek(body)
        # each piece's features go straight to their place, so the parse
        # holds the dataset and one piece's temporaries
        feat_indices = np.empty(nnz, dtype=_index_dtype(d))
        feat_values = np.empty(nnz, dtype=np.float32)
        feat_counts, label_counts, label_indices = [], [], []
        lineno, at = 2, 0
        for piece in _pieces(f):
            part = _parse_canonical(piece, d, L)
            if part is None:
                part = _parse_lines(piece, lineno, d, L)
            end = at + part.feat_indices.size
            feat_indices[at:end] = part.feat_indices
            feat_values[at:end] = part.feat_values
            at = end
            feat_counts.append(part.feat_counts)
            label_counts.append(part.label_counts)
            label_indices.append(part.label_indices)
            lineno += part.feat_counts.size
    rows = _Rows(
        np.concatenate(feat_counts), feat_indices, feat_values,
        np.concatenate(label_counts), np.concatenate(label_indices),
    )
    return _dataset(rows, d, L)


@trace.span("parse_s")
def parse_dataset(path) -> SparseDataset:
    """Parse and validate a dataset file.

    Errors name the file and carry 1-based line numbers. The file is read
    twice in pieces of about _CHUNK bytes: once to check its encoding and
    count its lines, once to parse. Its wall time adds to `trace`'s
    `parse_s`.
    """
    try:
        return _parse(path)
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def format_dataset(ds: SparseDataset) -> str:
    X, Y = ds.features, ds.labels
    out = [f"{ds.n} {ds.d} {ds.L}"]
    for i in range(ds.n):
        a, b = X.indptr[i], X.indptr[i + 1]
        labels = ",".join(str(l) for l in Y.indices[Y.indptr[i] : Y.indptr[i + 1]])
        feats = " ".join(f"{j}:{_fmt_value(v)}" for j, v in zip(X.indices[a:b], X.data[a:b]))
        out.append(labels + (" " + feats if feats else ""))
    return "\n".join(out) + "\n"


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """`open(path, mode)`, but written to a temp file beside `path` that
    `os.replace` moves onto it once the block ends: no reader sees part of it."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        f = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:  # named as the file that it stands in for
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with f:
            yield f
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def write_dataset(ds: SparseDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_dataset(ds))


def generate_synthetic(
    n: int,
    d: int,
    L: int,
    sparsity: float,
    labels_per_sample: float,
    clusters: int,
    seed: int,
) -> SparseDataset:
    """Clustered synthetic corpus: samples sharing a cluster share labels.

    Each cluster owns a feature pool and a label pool; a sample draws most of
    its (positive-valued) features from its cluster's pool plus a little
    uniform noise, giving kNN a recoverable signal. Deterministic per seed.
    """
    if n < 1 or d < 1 or L < 1 or clusters < 1:
        raise ValueError("n, d, L and clusters must be positive")
    if not 0 < sparsity <= d:
        raise ValueError("sparsity must be in (0, d]")
    if not 0 < labels_per_sample <= L:
        raise ValueError("labels_per_sample must be in (0, L]")
    rng = np.random.default_rng(seed)
    feat_pool = int(min(d, max(4 * sparsity, 8)))
    label_pool = int(min(L, max(2 * labels_per_sample, 2)))
    feat_pools = [
        np.sort(rng.choice(d, size=feat_pool, replace=False)) for _ in range(clusters)
    ]
    label_pools = [
        np.sort(rng.choice(L, size=label_pool, replace=False))
        for _ in range(clusters)
    ]
    assign = rng.integers(0, clusters, size=n)
    feature_rows, label_rows = [], []
    for i in range(n):
        c = assign[i]
        nnz = int(min(d, max(1, rng.poisson(sparsity))))
        n_noise = int(rng.binomial(nnz, 0.1))
        n_pool = min(max(nnz - n_noise, 1), feat_pool)
        picks = [rng.choice(feat_pools[c], size=n_pool, replace=False)]
        if n_noise:
            picks.append(rng.choice(d, size=n_noise, replace=False))
        indices = np.unique(np.concatenate(picks))
        values = rng.uniform(0.5, 1.5, size=indices.size).astype(np.float32)
        n_lab = int(min(label_pool, max(1, rng.poisson(labels_per_sample))))
        labels = np.sort(rng.choice(label_pools[c], size=n_lab, replace=False))
        feature_rows.append((indices.astype(np.int64), values))
        label_rows.append(labels.astype(np.int64))
    return _assemble(feature_rows, label_rows, d, L)


def split_dataset(ds: SparseDataset, n_first: int) -> tuple[SparseDataset, SparseDataset]:
    """Split rows [0, n_first) / [n_first, n) into two datasets whose
    arrays are views of `ds`'s (`_row_range`), Y's data among them.

    Label frequencies are recomputed per part, so the first part is usable as
    a training corpus with its own statistics.
    """
    if not 0 < n_first < ds.n:
        raise ValueError("n_first must satisfy 0 < n_first < n")
    return tuple(
        SparseDataset(_row_range(ds.features, lo, hi), _row_range(ds.labels, lo, hi))
        for lo, hi in ((0, n_first), (n_first, ds.n))
    )


def _row_range(X: CSR, lo: int, hi: int) -> CSR:
    """Rows [lo, hi) of X: views of its data and indices, and a new indptr."""
    a, b = X.indptr[lo], X.indptr[hi]
    return CSR(X.data[a:b], X.indices[a:b], X.indptr[lo : hi + 1] - a, (hi - lo, X.shape[1]))
