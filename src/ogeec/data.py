"""Sparse multi-label datasets: text-format I/O and synthetic corpora.

The on-disk format is the extreme-classification repository convention:

    n d L
    l1,l2,... f1:v1 f2:v2 ...

First line is the header: sample count, feature dimensionality and label
vocabulary size, ASCII digits separated by whitespace, each in [1, 2^63).
Each following line is one sample: a comma-separated label list (possibly
empty, leaving a leading space) followed by space-separated ``index:value``
feature pairs. Labels and indices are 0-based runs of ASCII digits; a value
is ``[+-]digits[.digits][(e|E)[+-]digits]``, where the integer or the
fraction digits, but not both, may be empty. Lines end in LF, CRLF or CR.
A `SparseDataset`'s feature CSR stores its indices as int32 below 2^31
columns (int64 from there) and its values as float32; its label CSR stores
its indices as int64.

`parse_dataset` reads the file in pieces of about `_CHUNK` bytes cut at line
ends, and tokenizes each piece with numpy (`_parse_canonical`). A label or
index of more than 18 digits, or a value outside Clinger's exact path, is
converted alone by `int()` or `float()`. A piece with a line that breaks the
grammar or fails a check raises the error of its first such line.
"""

from __future__ import annotations

import contextlib
import functools
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
# 22 bytes per input byte, under 3 MB a piece.
_CHUNK = 128 << 10
# The class of each byte: the separators between digit runs, any byte
# outside the grammar (no run may touch one), then digits.
_NL, _SP, _COMMA, _COLON, _DOT, _EXP, _SIGN, _OTHER, _DIGIT = range(9)
_SEPARATORS = dict(
    zip(b"\n ,:.eE+-", (_NL, _SP, _COMMA, _COLON, _DOT, _EXP, _EXP, _SIGN, _SIGN))
)
_CLASS_OF = bytes(
    _DIGIT if 48 <= b <= 57 else _SEPARATORS.get(b, _OTHER) for b in range(256)
)
# exact doubles 10**0 .. 10**22, and int64 powers of ten for 18-digit runs
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
# a sample's feature field and label, from its first byte, in a refusal
_FIELD, _LABEL = re.compile(rb"[^ \n]*"), re.compile(rb"[^ ,\n]*")
# float() reads these too; a pair holding one is refused as non-finite
_NON_FINITE_PAIR = re.compile(r"[0-9]+:[+-]?(nan|inf|infinity)", re.IGNORECASE | re.ASCII)
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


class _Rows(NamedTuple):
    """Parsed sample lines: per-row counts and the rows' entries, concatenated."""

    feat_counts: np.ndarray
    feat_indices: np.ndarray
    feat_values: np.ndarray
    label_counts: np.ndarray
    label_indices: np.ndarray


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
    """The dataset of at least one row's (indices, values) features and labels."""
    rows = _Rows(
        np.array([len(r[0]) for r in feature_rows], dtype=np.int64),
        np.concatenate([r[0] for r in feature_rows]).astype(np.int64),
        np.concatenate([r[1] for r in feature_rows]).astype(np.float32),
        np.array([len(r) for r in label_rows], dtype=np.int64),
        np.concatenate(label_rows).astype(np.int64),
    )
    return _dataset(rows, d, L)


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
    """The value of each decimal digit run that ends at position sep of
    raw[8:], as int64; a run of more than 18 digits reads its last 18.

    Eight digits at a time (SWAR): the eight bytes before sep are read as one
    little-endian word, the bytes before the run become zero digits, and
    three multiply-add steps combine digits into pairs, quads and octets.
    """
    words = np.ndarray((raw.size - 7,), dtype="<u8", buffer=raw, strides=(1,))
    keep = _KEEP.take(length, mode="clip")
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
        out[longer] += _runs(raw, sep[longer] - 8, np.minimum(length[longer] - 8, 10)) * 10**8
    return out


def _parse_canonical(piece: bytes, lineno: int, d: int, L: int) -> _Rows:
    """The sample lines of a piece that starts at line `lineno`, tokenized
    with numpy.

    Raises the error of the first line that breaks the grammar or fails a
    check, as the line's tokens are read in order: its label field's ':', its
    labels, its feature pairs (form, index range, finite value), then its
    duplicate indices.
    """
    if not piece.endswith(b"\n"):
        piece += b"\n"
    raw = np.frombuffer(_PAD + piece, dtype=np.uint8)
    # The line is digit runs, each ended by one separator byte: the
    # grammar is in the separators' classes and which runs are empty.
    classes = np.frombuffer(piece.translate(_CLASS_OF), dtype=np.uint8)
    sep = np.flatnonzero(classes != _DIGIT)
    cls = classes[sep]
    length = np.empty_like(sep)
    length[0] = sep[0]
    np.subtract(sep[1:], sep[:-1] + 1, out=length[1:])
    # A run's kind is its separator's class and whether it has digits; the
    # grammar looks at a run's kind and at the two runs before it. The piece
    # starts a line, as if after two empty runs ended by newlines.
    kind = np.zeros(sep.size + 2, dtype=np.uint16)
    kind[2:] = cls
    kind[2:] <<= 1
    kind[2:] |= length > 0
    valid = _VALID[(kind[:-2] >> 1 << 8) | (kind[1:-1] << 4) | kind[2:]]
    # (first byte, message) of the first failure of each kind, in the order a
    # field's checks run: an index out of range comes before a non-finite value
    fails = []
    # A label or field that breaks the grammar holds a run that _VALID refuses,
    # and one that keeps to it holds none; only the runs before the first
    # broken one are read further.
    end = sep.size
    if not valid.all():
        i = np.argmin(valid)
        fails.append(_broken(piece, int(sep[i] - length[i])))
        end = np.searchsorted(sep, fails[0][0])
    nums = _runs(raw, sep, length)
    before = kind[1:end + 1] >> 1  # the class of the separator in front of each run
    labs = np.flatnonzero(((before == _NL) | (before == _COMMA)) & (length[:end] > 0))
    cols = np.flatnonzero((before == _SP) & (length[:end] > 0))
    if length.max() > 18:  # a label or index of more digits is converted alone
        for i in np.flatnonzero(length[:end] > 18).tolist():
            if before[i] in (_NL, _SP, _COMMA):  # a label or index, not a value's run
                # 2**63 and above read as 2**63 - 1, out of every range
                nums[i] = min(int(_digits(piece, sep, length, i)[:20]), 2**63 - 1)
    labels, indices = nums[labs], nums[cols]
    for runs, got, bound, what in ((labs, labels, L, "label"), (cols, indices, d, "feature")):
        if (over := np.flatnonzero(got >= bound)).size:
            i = runs[over[0]]
            message = f"{what} index {_digits(piece, sep, length, i).decode()} out of range"
            fails.append((int(sep[i] - length[i]), f"{message} [0, {bound})"))
    values, non_finite = _values(piece, raw[8:], sep, cls, length, nums, cols + 1)
    if non_finite.size:
        i = cols[non_finite[0]]
        at = int(sep[i] - length[i])
        fails.append((at, f"non-finite value in {_FIELD.match(piece, at).group().decode()!r}"))
    newline = cls == _NL
    row = np.cumsum(newline) - newline
    lrow, frow = row[labs], row[cols]
    same = frow[1:] == frow[:-1]
    if (same & (indices[1:] <= indices[:-1])).any():
        order = np.lexsort((indices, frow))  # stable: as a per-row argsort
        indices, values = indices[order], values[order]
        if (dup := np.flatnonzero(same & (indices[1:] == indices[:-1]))).size:
            line_end = int(sep[newline][frow[dup[0]]])
            fails.append((line_end, f"duplicate feature index {indices[dup[0]]}"))
    if fails:
        at, message = min(fails, key=lambda fail: fail[0])  # the first of a tie
        lineno += piece.count(b"\n", 0, at)
        raise DatasetFormatError(f"line {lineno}: {message}")
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


def _broken(piece: bytes, at: int) -> tuple[int, str]:
    """The first byte and the message of the error of the label field, label
    or feature field that holds byte `at` and breaks the grammar."""
    line = piece.rfind(b"\n", 0, at) + 1
    field = max(line, piece.rfind(b" ", 0, at) + 1)
    text = _FIELD.match(piece, field).group().decode()
    if field > line:
        what = "non-finite value in" if _NON_FINITE_PAIR.fullmatch(text) else "bad feature pair"
        return field, f"{what} {text!r}"
    if ":" in text:
        return line, "label field contains ':' (unlabeled samples need a leading space)"
    label = max(line, piece.rfind(b",", 0, at) + 1)
    return label, f"bad label {_LABEL.match(piece, label).group().decode()!r}"


def _digits(piece: bytes, sep, length, run: int) -> bytes:
    """A digit run without its leading zeros: its number's decimal text."""
    return piece[sep[run] - length[run] : sep[run]].lstrip(b"0") or b"0"


def _values(piece, buf, sep, cls, length, nums, t) -> tuple[np.ndarray, np.ndarray]:
    """The float32 values whose first run is t, and the positions among
    them of those that are not finite as float32.

    A value's runs are [sign] integer digits [. fraction digits]
    [e [sign] exponent digits]. With its mantissa digits read as an integer
    M <= 2**53 and its decimal exponent |e| <= 22, both M and 10**|e| are
    exact doubles, so M * 10**e or M / 10**-e is one correctly rounded
    operation: the double nearest the decimal, which float() returns
    (Clinger 1990). An exponent e > 22 is first moved into M, exactly, while
    M * 10**(e - 22) <= 2**53 ("3.44618e+28" is 3446180e22). Any other value
    is converted alone by float(). Rounding that double to float32 is then
    as before.
    """
    first = t
    signed = cls[t] == _SIGN
    negative = signed & (buf[sep[t]] == 45)
    t = t + signed
    dot = cls[t] == _DOT
    f = t + dot  # the fraction run; the integer run when there is no dot
    frac_len = length[f] * dot
    slow = length[t] + frac_len > 18
    mant = nums[t] * _POW10_INT.take(frac_len, mode="clip") + nums[f] * dot
    e = -frac_len
    with_exp = np.flatnonzero(cls[f] == _EXP)
    if with_exp.size:
        x = f[with_exp] + 1  # a line ends after every exponent
        exp_signed = cls[x] == _SIGN
        exp_negative = exp_signed & (buf[sep[x]] == 45)
        x += exp_signed
        e[with_exp] += np.where(exp_negative, -nums[x], nums[x])
        slow[with_exp] |= length[x] > 18
    big = np.flatnonzero(e > 22)
    if big.size:  # M * 10**(e - 22) is exact while it stays <= 2**53 (checked
        # before the multiply, which could overflow int64)
        scale = _POW10_INT[np.minimum(e[big] - 22, 18)]
        fits = mant[big] <= 2**53 // scale
        big, scale = big[fits], scale[fits]
        mant[big] *= scale
        e[big] = 22
    slow |= mant > 2**53
    slow |= np.abs(e) > 22
    # times 1 or divided by 1 is exact, so this is one rounding either way
    # (`take` reads a negative exponent as 10**0)
    v = mant.astype(np.float64)
    v *= _POW10.take(e, mode="clip")
    v /= _POW10.take(-e, mode="clip")
    # |v| < 2**53 * 10**22 < float32 max: every value not slow is finite and in range
    np.negative(v, out=v, where=negative)
    slow = np.flatnonzero(slow)
    if slow.size:  # a value runs to its field's end
        starts = (sep[first[slow] - 1] + 1).tolist()
        v[slow] = [float(_FIELD.match(piece, a).group()) for a in starts]
    non_finite = slow[~(np.abs(v[slow]) <= _F32_MAX)]
    v[non_finite] = 0  # refused: kept from float32's overflow warning
    return v.astype(np.float32), non_finite


def _pieces(f):
    """The rest of binary file f in pieces of about _CHUNK bytes, each ending
    with a line end (the last may not), and CRLF and CR read as LF, as text
    mode reads them. A block is cut after its last LF, or after its last CR
    but one at its end, so no CRLF is split."""
    head = []  # the start of a line that has not ended yet
    while block := f.read(_CHUNK):
        if block.endswith(b"\r"):  # the next byte says whether a CRLF ends here
            block += f.read(1)
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield _lf(b"".join([*head, block[:cut]]))
            head = []
        head.append(block[cut:])
    if rest := b"".join(head):
        yield _lf(rest)


def _lf(piece: bytes) -> bytes:
    """The piece with its CRLF and CR line ends written as LF."""
    return piece.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in piece else piece


def _scan(f) -> tuple[int, bytes, int]:
    """Check that f is UTF-8 and count its lines and features, in one pass.

    Returns the line count, the header line and the number of ':' after the
    header. Each feature pair holds one ':' and a sample line that parses
    holds no other, so that is the feature count of any file that parses.
    """
    lines, header, last, colons = 0, b"", b"", 0
    for piece in _pieces(f):
        if not piece.isascii():
            try:
                piece.decode("utf-8")
            except UnicodeDecodeError as exc:
                at = lines + piece.count(b"\n", 0, exc.start) + 1
                raise DatasetFormatError(f"line {at}: not valid UTF-8") from None
        if not last:
            header = piece.partition(b"\n")[0]
        codes = np.frombuffer(piece, dtype=np.uint8)
        lines += int(np.count_nonzero(codes == ord("\n")))
        colons += int(np.count_nonzero(codes == ord(":")))
        last = piece[-1:]
    return lines + (last not in b"\n"), header, colons - header.count(b":")


@contextlib.contextmanager
def _samples(path):
    """`path` open at its first sample line, with the header's (n, d, L) and
    the feature count (`_scan`); a DatasetFormatError raised here names it."""
    try:
        with open(path, "rb") as f:
            lines, header, nnz = _scan(f)
            if not lines:
                raise DatasetFormatError("line 1: empty file")
            fields = header.decode("utf-8").split()
            # ASCII digits: int() alone also reads signs, "_" and other scripts' digits
            if len(fields) != 3 or not all(tok.isascii() and tok.isdigit() for tok in fields):
                raise DatasetFormatError("line 1: header must be 'n d L'")
            try:
                n, d, L = (int(tok) for tok in fields)
            except ValueError:  # more digits than int() converts
                raise DatasetFormatError("line 1: header must be 'n d L'") from None
            if n <= 0 or d <= 0 or L <= 0:
                raise DatasetFormatError("line 1: header fields must be positive")
            if max(n, d, L) >= 2**63:  # counts and indices are int64
                raise DatasetFormatError("line 1: header fields must be below 2^63")
            if lines - 1 != n:
                raise DatasetFormatError(
                    f"expected {n} sample lines after the header, found {lines - 1}"
                )
            f.seek(len(header))  # then past its line end: LF, CRLF or CR
            f.seek(len(header) + (2 if f.read(2) == b"\r\n" else 1))
            yield f, (n, d, L), nnz
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


@trace.span("parse_s")
def read_header(path) -> tuple[int, int, int]:
    """A dataset file's (n, d, L), checked as `parse_dataset` checks them but
    tokenizing no sample line: one pass checks its UTF-8 and its line count.
    Its wall time adds to `trace`'s `parse_s`."""
    with _samples(path) as (_, header, _):
        return header


@trace.span("parse_s")
def parse_dataset(path) -> SparseDataset:
    """Parse and validate a dataset file.

    Errors name the file and carry 1-based line numbers. The file is read
    twice in pieces of about _CHUNK bytes: once to check its encoding, its
    header and its line count (as `read_header` does), once to parse. Its
    wall time adds to `trace`'s `parse_s`.
    """
    with _samples(path) as (f, (n, d, L), nnz):
        # each piece's features go straight to their place, so the parse
        # holds the dataset and one piece's temporaries
        feat_indices = np.empty(nnz, dtype=_index_dtype(d))
        feat_values = np.empty(nnz, dtype=np.float32)
        feat_counts, label_counts, label_indices = [], [], []
        lineno, at = 2, 0
        for piece in _pieces(f):
            part = _parse_canonical(piece, lineno, d, L)
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
    text = format_dataset(ds)  # before opening: a failure leaves the file as it was
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


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
