"""Sparse multi-label datasets: text-format I/O and synthetic corpora.

The on-disk format is the extreme-classification repository convention:

    n d L
    l1,l2,... f1:v1 f2:v2 ...

First line is the header (sample count, feature dimensionality, label
vocabulary size). Each following line is one sample: a comma-separated
label list (possibly empty, leaving a leading space) followed by
space-separated ``index:value`` feature pairs. All indices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class DatasetFormatError(ValueError):
    """A dataset file violates the text-format contract."""


_F32_MAX = float(np.finfo(np.float32).max)


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


def parse_dataset(path) -> SparseDataset:
    """Parse and validate a dataset file; errors carry 1-based line numbers."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetFormatError("line 1: empty file")
    header = lines[0].split()
    if len(header) != 3:
        raise DatasetFormatError("line 1: header must be 'n d L'")
    try:
        n, d, L = (int(tok) for tok in header)
    except ValueError:
        raise DatasetFormatError("line 1: header must be 'n d L'") from None
    if n <= 0 or d <= 0 or L <= 0:
        raise DatasetFormatError("line 1: header fields must be positive")
    if len(lines) - 1 != n:
        raise DatasetFormatError(
            f"expected {n} sample lines after the header, found {len(lines) - 1}"
        )
    feature_rows, label_rows = [], []
    for i in range(n):
        lineno = i + 2
        fields = lines[i + 1].split(" ")
        label_rows.append(_parse_labels(fields[0], L, lineno))
        feature_rows.append(_parse_features(fields[1:], d, lineno))
    return _assemble(feature_rows, label_rows, d, L)


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
