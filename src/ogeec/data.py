"""Sparse multi-label datasets: text-format I/O and synthetic corpora.

The on-disk format is the extreme-classification repository convention:

    n d L
    l1,l2,... f1:v1 f2:v2 ...

First line is the header (sample count, feature dimensionality, label
vocabulary size). Each following line is one sample: a comma-separated
label list (possibly empty, leaving a leading space) followed by
space-separated ``index:value`` feature pairs. All indices are 0-based.

`parse_dataset` reads the file in pieces of about `_CHUNK` bytes cut at line
ends. A piece whose lines all keep to the canonical grammar (digits and
`\\n , : . e E + -` and space, labels and indices of at most 18 digits,
values inside Clinger's exact path, every check passed) is tokenized with
numpy. Any other piece is parsed line by line, exactly as the whole-file
parser before it did, which returns the same rows or raises the same error
at the same line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp


class DatasetFormatError(ValueError):
    """A dataset file violates the text-format contract."""


_F32_MAX = float(np.finfo(np.float32).max)
# Sample lines are parsed in pieces of about this many bytes, cut at line
# ends, so parsing holds one piece's temporaries besides the dataset.
_CHUNK = 512 << 10
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


@dataclass(frozen=True)
class SparseVector:
    """One sample's features: strictly increasing indices, parallel weights."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float32)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be parallel 1-D arrays")
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0):
            raise ValueError("indices must be nonnegative and strictly increasing")
        if not np.all(np.isfinite(val)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.square(self.values, dtype=np.float64))))


@dataclass
class SparseDataset:
    """CSR feature matrix plus per-sample label sets and label frequencies."""

    n: int
    d: int
    L: int
    feat_indptr: np.ndarray
    feat_indices: np.ndarray
    feat_values: np.ndarray
    label_indptr: np.ndarray
    label_indices: np.ndarray
    label_frequencies: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.label_frequencies is None:
            self.label_frequencies = np.bincount(
                self.label_indices, minlength=self.L
            ).astype(np.int64)

    def feature_row(self, i: int) -> SparseVector:
        a, b = self.feat_indptr[i], self.feat_indptr[i + 1]
        return SparseVector(self.feat_indices[a:b], self.feat_values[a:b])

    def labels(self, i: int) -> np.ndarray:
        a, b = self.label_indptr[i], self.label_indptr[i + 1]
        return self.label_indices[a:b]

    def labelsets(self) -> list[np.ndarray]:
        return [self.labels(i) for i in range(self.n)]

    @property
    def total_assignments(self) -> int:
        return int(self.label_indices.size)

    def label_matrix(self) -> sp.csr_matrix:
        """Y (n x L): a float64 1 at every (sample, label) assignment."""
        return sp.csr_matrix(
            (np.ones(self.label_indices.size), self.label_indices, self.label_indptr),
            shape=(self.n, self.L),
        )

    def to_feature_csr(self, dtype=np.float64) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.feat_values.astype(dtype), self.feat_indices, self.feat_indptr),
            shape=(self.n, self.d),
        )

    def equals(self, other: "SparseDataset") -> bool:
        return (
            self.n == other.n
            and self.d == other.d
            and self.L == other.L
            and np.array_equal(self.feat_indptr, other.feat_indptr)
            and np.array_equal(self.feat_indices, other.feat_indices)
            and np.array_equal(self.feat_values, other.feat_values)
            and np.array_equal(self.label_indptr, other.label_indptr)
            and np.array_equal(self.label_indices, other.label_indices)
            and np.array_equal(self.label_frequencies, other.label_frequencies)
        )


def _assemble(
    feature_rows: list[tuple[np.ndarray, np.ndarray]],
    label_rows: list[np.ndarray],
    d: int,
    L: int,
) -> SparseDataset:
    n = len(feature_rows)
    feat_indptr = np.zeros(n + 1, dtype=np.int64)
    label_indptr = np.zeros(n + 1, dtype=np.int64)
    for i in range(n):
        feat_indptr[i + 1] = feat_indptr[i] + len(feature_rows[i][0])
        label_indptr[i + 1] = label_indptr[i] + len(label_rows[i])
    feat_indices = (
        np.concatenate([r[0] for r in feature_rows])
        if n
        else np.empty(0, dtype=np.int64)
    ).astype(np.int64)
    feat_values = (
        np.concatenate([r[1] for r in feature_rows])
        if n
        else np.empty(0, dtype=np.float32)
    ).astype(np.float32)
    label_indices = (
        np.concatenate(label_rows) if n else np.empty(0, dtype=np.int64)
    ).astype(np.int64)
    return SparseDataset(
        n=n,
        d=d,
        L=L,
        feat_indptr=feat_indptr,
        feat_indices=feat_indices,
        feat_values=feat_values,
        label_indptr=label_indptr,
        label_indices=label_indices,
    )


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
    return _Rows(
        np.array([r[0].size for r in feature_rows], dtype=np.int64),
        np.concatenate([r[0] for r in feature_rows]).astype(np.int64),
        np.concatenate([r[1] for r in feature_rows]).astype(np.float32),
        np.array([r.size for r in label_rows], dtype=np.int64),
        np.concatenate(label_rows).astype(np.int64),
    )


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
    if b"\r" not in b:
        return b.count(b"\n")
    return b.count(b"\n") + b.count(b"\r") - b.count(b"\r\n")


def _scan(f) -> tuple[int, bytes, int]:
    """Check that f is UTF-8 and count its lines, in one pass.

    Returns the line count, the header line and the offset of line 2.
    """
    lines, header, body, last = 0, b"", 0, b""
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
        last = piece[-1:]
    if last and last not in b"\r\n":
        lines += 1
    return lines, header, body


def _parse(path) -> SparseDataset:
    with open(path, "rb") as f:
        lines, header, body = _scan(f)
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
        if lines - 1 != n:
            raise DatasetFormatError(
                f"expected {n} sample lines after the header, found {lines - 1}"
            )
        f.seek(body)
        parts, lineno = [], 2
        for piece in _pieces(f):
            part = _parse_canonical(piece, d, L)
            if part is None:
                part = _parse_lines(piece, lineno, d, L)
            parts.append(part)
            lineno += part.feat_counts.size
    feat_counts, feat_indices, feat_values, label_counts, label_indices = (
        np.concatenate(column) for column in zip(*parts)
    )
    return SparseDataset(
        n=n,
        d=d,
        L=L,
        feat_indptr=np.concatenate(([0], np.cumsum(feat_counts))).astype(np.int64),
        feat_indices=feat_indices,
        feat_values=feat_values,
        label_indptr=np.concatenate(([0], np.cumsum(label_counts))).astype(np.int64),
        label_indices=label_indices,
    )


def parse_dataset(path) -> SparseDataset:
    """Parse and validate a dataset file.

    Errors name the file and carry 1-based line numbers. The file is read
    twice in pieces of about _CHUNK bytes: once to check its encoding and
    count its lines, once to parse.
    """
    try:
        return _parse(path)
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def format_dataset(ds: SparseDataset) -> str:
    out = [f"{ds.n} {ds.d} {ds.L}"]
    for i in range(ds.n):
        row = ds.feature_row(i)
        labels = ",".join(str(l) for l in ds.labels(i))
        feats = " ".join(
            f"{j}:{_fmt_value(v)}" for j, v in zip(row.indices, row.values)
        )
        out.append(labels + (" " + feats if feats else ""))
    return "\n".join(out) + "\n"


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
    """Split rows [0, n_first) / [n_first, n) into two datasets.

    Label frequencies are recomputed per part, so the first part is usable as
    a training corpus with its own statistics.
    """
    if not 0 < n_first < ds.n:
        raise ValueError("n_first must satisfy 0 < n_first < n")

    def part(lo: int, hi: int) -> SparseDataset:
        fa, fb = ds.feat_indptr[lo], ds.feat_indptr[hi]
        la, lb = ds.label_indptr[lo], ds.label_indptr[hi]
        return SparseDataset(
            n=hi - lo,
            d=ds.d,
            L=ds.L,
            feat_indptr=(ds.feat_indptr[lo : hi + 1] - fa).copy(),
            feat_indices=ds.feat_indices[fa:fb].copy(),
            feat_values=ds.feat_values[fa:fb].copy(),
            label_indptr=(ds.label_indptr[lo : hi + 1] - la).copy(),
            label_indices=ds.label_indices[la:lb].copy(),
        )

    return part(0, n_first), part(n_first, ds.n)
