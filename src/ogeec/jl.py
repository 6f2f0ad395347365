"""Distance-preservation analysis for the random projection.

`jl_epsilon` returns the theoretical two-sided bound width for projecting n
points into r dimensions, epsilon = sqrt(log10(n) / r), as a float; its
users form the factors 1 - epsilon and 1 + epsilon. `measure_distortion`
samples index pairs and compares exact Euclidean distances before and after
projection. The projected side is deliberately left un-renormalized and scaled
by 1/sqrt(r) (unit-variance entries make the expected squared norm r times the
input's), because the bound is about raw distances, not the cosine pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csr import inv_norms, pair_dots
from .data import SparseDataset
from .embedding import PlannedRows, _project
from .model import DEFAULT_BINS, EmbeddingSpec

# float64s in one (r x pairs) block of projected differences (1 MB): the
# pairs go this // r at a time
_PAIR_FLOATS = 1 << 17


def jl_epsilon(n: int, r: int) -> float:
    """Bound width epsilon for n points in r output dimensions: distances
    keep within factors 1 - epsilon and 1 + epsilon."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if r < 1:
        raise ValueError("r must be positive")
    return math.sqrt(math.log10(n) / r)


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
    bins: int = DEFAULT_BINS,
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

    X = dataset.features
    inv = inv_norms(X)
    unit_sq = (inv > 0).astype(np.float64)  # as norm > 0: `inv_norms` refuses an infinite one

    proj = _project(spec, PlannedRows(X, r=spec.r), np.float64)
    proj *= 1.0 / math.sqrt(spec.r)
    # in blocks of pairs: each pair's dot product and each column's sum along
    # axis 0 depend on that pair alone, so the blocks do not change a bit
    dots, proj_dist = np.empty(pairs), np.empty(pairs)
    step = max(1, _PAIR_FLOATS // spec.r)
    for s in range(0, pairs, step):
        i, j = a[s : s + step], b[s : s + step]
        dots[s : s + step] = pair_dots(X, inv, i, j)
        diff = proj[:, i] - proj[:, j]
        diff *= diff
        proj_dist[s : s + step] = np.sqrt(np.sum(diff, axis=0))
    # ||x_a - x_b||^2 = ||x_a||^2 + ||x_b||^2 - 2 x_a.x_b, exact in float64
    orig_sq = unit_sq[a] + unit_sq[b] - 2.0 * dots

    keep = (a != b) & (orig_sq > 1e-12)
    skipped = int(pairs - keep.sum())
    ratios = proj_dist[keep] / np.sqrt(orig_sq[keep])
    if ratios.size == 0:
        raise ValueError("all sampled pairs had zero original distance")

    epsilon = jl_epsilon(dataset.n, spec.r)
    within = float(np.mean((ratios >= 1.0 - epsilon) & (ratios <= 1.0 + epsilon)))
    lo, hi = float(ratios.min()), float(ratios.max())
    if hi - lo < 1e-9:  # degenerate spread (e.g. an injected isometry)
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(ratios, bins=bins, range=(lo, hi))
    return DistortionReport(
        pairs=int(keep.sum()),
        skipped=skipped,
        epsilon=epsilon,
        within_fraction=within,
        ratio_min=float(ratios.min()),
        ratio_median=float(np.median(ratios)),
        ratio_max=float(ratios.max()),
        hist_edges=edges,
        hist_counts=counts,
    )
