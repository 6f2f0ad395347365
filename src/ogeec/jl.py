"""Distance-preservation analysis for the random projection.

`jl_epsilon` gives the theoretical two-sided bound width for projecting n
points into r dimensions, epsilon = sqrt(log10(n) / r); `measure_distortion`
samples index pairs and compares exact Euclidean distances before and after
projection. The projected side is deliberately left un-renormalized and scaled
by 1/sqrt(r) (unit-variance entries make the expected squared norm r times the
input's), because the bound is about raw distances, not the cosine pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SparseDataset
from .embedding import EmbeddingSpec, _normalize_rows, _project


@dataclass(frozen=True)
class BoundReport:
    n: int
    r: int
    epsilon: float

    @property
    def lower(self) -> float:
        return 1.0 - self.epsilon

    @property
    def upper(self) -> float:
        return 1.0 + self.epsilon


def jl_epsilon(n: int, r: int) -> BoundReport:
    """Bound width for n points in r output dimensions."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if r < 1:
        raise ValueError("r must be positive")
    return BoundReport(n=n, r=r, epsilon=math.sqrt(math.log10(n) / r))


@dataclass
class DistortionReport:
    """Observed projected/original distance ratios for sampled pairs."""

    pairs: int
    skipped: int
    epsilon: float
    within_fraction: float
    ratio_min: float
    ratio_median: float
    ratio_max: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray


def measure_distortion(
    dataset: SparseDataset,
    spec: EmbeddingSpec,
    pairs: int,
    seed: int,
    *,
    bins: int = 40,
) -> DistortionReport:
    """Sample index pairs uniformly and report the distance-ratio distribution.

    Distances are taken between L2-normalized originals and between projected
    (not re-normalized) images scaled by 1/sqrt(r). Pairs with zero original
    distance are skipped and counted. Deterministic in (dataset, spec, pairs,
    seed); the pair sample itself does not depend on r.
    """
    if dataset.d != spec.d:
        raise ValueError(f"dataset dimensionality {dataset.d} != spec.d {spec.d}")
    if pairs < 1:
        raise ValueError("pairs must be positive")
    rng = np.random.default_rng(seed)
    a = rng.integers(0, dataset.n, size=pairs)
    b = rng.integers(0, dataset.n, size=pairs)

    Xn, norms = _normalize_rows(dataset.to_feature_csr(np.float64))
    unit_sq = (norms > 0).astype(np.float64)

    # ||x_a - x_b||^2 = ||x_a||^2 + ||x_b||^2 - 2 x_a.x_b, exact in float64
    dots = np.asarray(Xn[a].multiply(Xn[b]).sum(axis=1)).ravel()
    orig_sq = unit_sq[a] + unit_sq[b] - 2.0 * dots

    proj = _project(spec, Xn, np.float64)
    proj *= 1.0 / math.sqrt(spec.r)
    diff = proj[:, a] - proj[:, b]
    proj_dist = np.sqrt(np.sum(diff * diff, axis=0))

    keep = (a != b) & (orig_sq > 1e-12)
    skipped = int(pairs - keep.sum())
    ratios = proj_dist[keep] / np.sqrt(orig_sq[keep])
    if ratios.size == 0:
        raise ValueError("all sampled pairs had zero original distance")

    bound = jl_epsilon(dataset.n, spec.r)
    within = float(np.mean((ratios >= bound.lower) & (ratios <= bound.upper)))
    lo, hi = float(ratios.min()), float(ratios.max())
    if hi - lo < 1e-9:  # degenerate spread (e.g. an injected isometry)
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(ratios, bins=bins, range=(lo, hi))
    return DistortionReport(
        pairs=int(keep.sum()),
        skipped=skipped,
        epsilon=bound.epsilon,
        within_fraction=within,
        ratio_min=float(ratios.min()),
        ratio_median=float(np.median(ratios)),
        ratio_max=float(ratios.max()),
        hist_edges=edges,
        hist_counts=counts,
    )
