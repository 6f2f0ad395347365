"""The model and what training reads, on the standard library alone: the
dataset header scan, the learner and ensemble specs, the model file and the
knob defaults. Plain `train` runs nothing else, so it loads no numpy.

`data`, `embedding`, `ensemble`, `metrics`, `lsh` and `jl` import these
names from here and export them as before. The header scan (`_samples`)
reads a dataset file in pieces of about `_CHUNK` bytes cut at line ends
(`_pieces`), the pieces `data.parse_dataset` then tokenizes.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

from . import trace

# knob defaults, read by `cli.RunConfig` and by the functions that take them
DEFAULT_KS = (1, 3, 5)  # metrics: K cutoffs
DEFAULT_A, DEFAULT_B = 0.55, 1.5  # metrics: propensity A and B
DEFAULT_TABLES, DEFAULT_BITS = 10, 16  # lsh: tables T and bits per code H
MAX_BITS = 64  # lsh: codes are packed into uint64
DEFAULT_BINS = 40  # jl: histogram bins

_MASK64 = (1 << 64) - 1

# Sample lines are parsed in pieces of about this many bytes, cut at line
# ends, so parsing holds one piece's temporaries besides the dataset: about
# 22 bytes per input byte, under 3 MB a piece.
_CHUNK = 128 << 10


class DatasetFormatError(ValueError):
    """A dataset file violates the text-format contract."""


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


def _scan(f, colons=None) -> tuple[int, bytes, int]:
    """Check that f is UTF-8 and count its lines, in one pass.

    Returns the line count, the header line and, with `colons` (a piece's
    count of ':'), the number of ':' in f, else 0. A header that `_samples`
    accepts holds none, each feature pair holds one and a sample line that
    parses holds no other, so that is the feature count of any file that
    parses. Lines are counted by the bytes that dropping LF removes:
    `bytes.replace` finds a rare byte at memchr speed, where `bytes.count`
    compares every byte.
    """
    lines, header, last, found = 0, b"", b"", 0
    for piece in _pieces(f):
        if not piece.isascii():
            try:
                piece.decode("utf-8")
            except UnicodeDecodeError as exc:
                at = lines + piece.count(b"\n", 0, exc.start) + 1
                raise DatasetFormatError(f"line {at}: not valid UTF-8") from None
        if not last:
            header = piece.partition(b"\n")[0]
        lines += len(piece) - len(piece.replace(b"\n", b""))
        if colons is not None:
            found += colons(piece)
        last = piece[-1:]
    return lines + (last not in b"\n"), header, found


@contextlib.contextmanager
def _samples(path, colons=None):
    """`path` open at its first sample line, with the header's (n, d, L) and,
    with `colons`, the feature count (`_scan`); a DatasetFormatError raised
    here names it."""
    try:
        with open(path, "rb") as f:
            lines, header, nnz = _scan(f, colons)
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
            raise ValueError(f"r must satisfy 1 <= r <= d, got r = {self.r} and d = {self.d}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Learner seeds, distinct modulo 2^64 (their Philox keys), plus the shared d, r, k."""

    seeds: tuple[int, ...]
    d: int
    r: int
    k: int

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("ensemble needs at least one seed")
        if len({s & _MASK64 for s in self.seeds}) != len(self.seeds):
            raise ValueError("ensemble seeds must be pairwise distinct modulo 2^64")
        if self.k < 1:
            raise ValueError("k must be positive")
        self.learner(0)  # d and r as EmbeddingSpec checks them

    @property
    def size(self) -> int:
        return len(self.seeds)

    def learner(self, index: int) -> EmbeddingSpec:
        return EmbeddingSpec(seed=self.seeds[index], d=self.d, r=self.r)


def make_ensemble_spec(base_seed: int, learners: int, d: int, r: int, k: int) -> EnsembleSpec:
    """Default seed schedule: base_seed + {0, 1, ..., E-1}."""
    return EnsembleSpec(seeds=tuple(base_seed + i for i in range(learners)), d=d, r=r, k=k)


_KEYS = ("base_seed", "seeds", "d", "r", "k", "E")  # as `format_metadata` writes them


def format_metadata(spec: EnsembleSpec) -> str:
    """The entire model as text: seeds and hyperparameters, nothing learned."""
    values = (spec.seeds[0], " ".join(map(str, spec.seeds)), spec.d, spec.r, spec.k, spec.size)
    return "".join(f"{key} {value}\n" for key, value in zip(_KEYS, values))


def write_metadata(path, spec: EnsembleSpec) -> None:
    with atomic_write(path) as f:
        f.write(format_metadata(spec))


def read_metadata(path) -> EnsembleSpec:
    """The model in `path`, read with a dataset header's grammar: a file that
    `format_metadata` could not have written fails in one line naming it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            fields = {}
            for key, *values in (line.split() for line in f if not line.isspace()):
                digits = [v.removeprefix("-") if key in ("base_seed", "seeds") else v for v in values]
                wanted = len(values) if key == "seeds" else 1  # seeds: E values, checked below
                if key not in _KEYS or key in fields or len(values) != wanted or not all(
                    v.isascii() and v.isdigit() for v in digits
                ):
                    raise ValueError(f"bad line {' '.join([key, *values])!r}")
                fields[key] = [int(v) for v in values]
        if missing := [key for key in _KEYS if key not in fields]:
            raise ValueError(f"no {missing[0]} line")
        (base,), seeds, (d,), (r,), (k,), (size,) = (fields[key] for key in _KEYS)
        spec = EnsembleSpec(seeds=tuple(seeds), d=d, r=r, k=k)
        if size != spec.size:
            raise ValueError(f"E does not match the seed list: E {size}, {spec.size} seeds")
        if base != seeds[0]:
            raise ValueError(f"base_seed {base} is not the first seed {seeds[0]}")
    except ValueError as exc:  # bad UTF-8 too
        raise ValueError(f"{path}: malformed model metadata ({exc})") from None
    return spec
