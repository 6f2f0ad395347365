"""Seeded clustered corpora in the extreme-classification text format.

The benchmark owns this generator so that its inputs do not change when the
program's own synthetic generator does. A corpus is a set of latent clusters;
each cluster owns a feature pool and a label pool. A sample draws most of its
features from its cluster's pool plus uniform noise over all d features, and
most of its labels from its cluster's label pool plus a few uniform ones, so
nearest neighbours carry recoverable label signal. The same (shape, seed)
always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

# Feature values are drawn from a fixed table of short decimals, so the text
# stays compact and every value parses to the same float32 everywhere.
_VALUES = tuple(f"{0.1 * 1.125**i:.4g}" for i in range(32))
_FEATURE_NOISE = 0.2
_LABEL_NOISE = 0.1


@dataclass(frozen=True)
class Shape:
    """Everything that determines a corpus except the seed."""

    n_train: int
    n_test: int
    d: int
    L: int
    nnz: float  # mean nonzero features per sample
    labels: float  # mean labels per sample
    clusters: int


def _cluster_pools(rng: np.random.Generator, shape: Shape):
    feat_pool = int(min(shape.d, max(4 * shape.nnz, 8)))
    label_pool = int(min(shape.L, max(1.5 * shape.labels, 2)))
    feats = [
        np.sort(rng.choice(shape.d, size=feat_pool, replace=False))
        for _ in range(shape.clusters)
    ]
    labels = [
        np.sort(rng.choice(shape.L, size=label_pool, replace=False))
        for _ in range(shape.clusters)
    ]
    return feats, labels


def _sample_line(rng, shape: Shape, feat_pool, label_pool) -> str:
    nnz = int(min(shape.d, max(1, rng.poisson(shape.nnz))))
    n_noise = int(rng.binomial(nnz, _FEATURE_NOISE))
    n_pool = min(max(nnz - n_noise, 1), feat_pool.size)
    feats = np.unique(
        np.concatenate(
            [
                rng.choice(feat_pool, size=n_pool, replace=False),
                rng.integers(0, shape.d, size=n_noise),
            ]
        )
    )
    values = rng.integers(0, len(_VALUES), size=feats.size)
    n_lab = int(min(label_pool.size, max(1, rng.poisson(shape.labels))))
    n_lab_noise = int(rng.binomial(n_lab, _LABEL_NOISE))
    labels = np.unique(
        np.concatenate(
            [
                rng.choice(label_pool, size=n_lab - n_lab_noise, replace=False),
                rng.integers(0, shape.L, size=n_lab_noise),
            ]
        )
    )
    return (
        ",".join(map(str, labels.tolist()))
        + " "
        + " ".join(f"{j}:{_VALUES[v]}" for j, v in zip(feats.tolist(), values.tolist()))
    )


def generate(shape: Shape, name: str, seed: int) -> tuple[str, str]:
    """(train text, test text) for one workload and seed.

    The workload name is folded into the seed so that workloads sharing a
    seed still get unrelated corpora.
    """
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))
    )
    feat_pools, label_pools = _cluster_pools(rng, shape)
    texts = []
    for n in (shape.n_train, shape.n_test):
        clusters = rng.integers(0, shape.clusters, size=n)
        lines = [f"{n} {shape.d} {shape.L}"]
        lines.extend(
            _sample_line(rng, shape, feat_pools[c], label_pools[c])
            for c in clusters.tolist()
        )
        texts.append("\n".join(lines) + "\n")
    return texts[0], texts[1]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
