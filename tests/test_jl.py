import math

import numpy as np
import pytest

from ogeec import embedding
from ogeec.data import generate_synthetic
from ogeec.embedding import EmbeddingSpec
from ogeec.jl import jl_epsilon, measure_distortion

# (n, r) -> 4-decimal epsilon, frozen from direct formula evaluation
BOUND_TABLE = [
    (196606, 200, 0.1627),
    (490449, 200, 0.1687),
    (1717899, 200, 0.1766),
    (196606, 50, 0.3254),
    (196606, 100, 0.2301),
    (196606, 150, 0.1879),
    (196606, 250, 0.1455),
    (196606, 300, 0.1328),
    (196606, 350, 0.1230),
    (196606, 400, 0.1150),
]


@pytest.mark.parametrize("n,r,want", BOUND_TABLE)
def test_epsilon_known_values(n, r, want):
    b = jl_epsilon(n, r)
    assert round(b.epsilon, 4) == want
    assert round(b.lower, 4) == round(1 - want, 4)
    assert round(b.upper, 4) == round(1 + want, 4)


def test_epsilon_degenerate():
    assert jl_epsilon(10, 1).epsilon == pytest.approx(1.0)


def test_epsilon_bounds_sum_to_two():
    b = jl_epsilon(5000, 64)
    assert b.lower + b.upper == pytest.approx(2.0, abs=1e-15)
    assert b.epsilon == pytest.approx(math.sqrt(math.log10(5000) / 64))


def test_epsilon_validation():
    with pytest.raises(ValueError):
        jl_epsilon(1, 10)
    with pytest.raises(ValueError):
        jl_epsilon(100, 0)


@pytest.fixture(scope="module")
def distortion_ds():
    return generate_synthetic(
        n=500, d=2000, L=20, sparsity=15, labels_per_sample=2, clusters=5, seed=4
    )


def test_identity_projection_gives_constant_ratio(distortion_ds, monkeypatch):
    """With F = identity (injected) and r == d, every ratio collapses to the
    1/sqrt(r) scaling constant."""

    def identity_rows(spec, start, stop, *, cols=None):
        out = np.zeros((stop - start, spec.d))
        out[np.arange(stop - start), np.arange(start, stop)] = 1.0
        return out if cols is None else out[:, cols.columns]

    ds = generate_synthetic(
        n=60, d=40, L=5, sparsity=6, labels_per_sample=1, clusters=3, seed=1
    )
    spec = EmbeddingSpec(seed=0, d=40, r=40)
    monkeypatch.setattr(embedding, "materialize_rows", identity_rows)
    report = measure_distortion(ds, spec, 2000, seed=9)
    ratios = np.array([report.ratio_min, report.ratio_median, report.ratio_max])
    np.testing.assert_allclose(ratios, 1.0 / math.sqrt(40), rtol=1e-9)


def test_distortion_deterministic(distortion_ds):
    spec = EmbeddingSpec(seed=5, d=2000, r=100)
    a = measure_distortion(distortion_ds, spec, 3000, seed=17)
    b = measure_distortion(distortion_ds, spec, 3000, seed=17)
    assert a.within_fraction == b.within_fraction
    assert a.ratio_min == b.ratio_min and a.ratio_max == b.ratio_max
    assert np.array_equal(a.hist_counts, b.hist_counts)
    assert np.array_equal(a.hist_edges, b.hist_edges)


def test_distortion_skips_zero_distance_pairs(distortion_ds):
    # n small enough that i == j pairs occur in a 3000-pair sample
    ds = generate_synthetic(
        n=20, d=200, L=5, sparsity=8, labels_per_sample=1, clusters=2, seed=2
    )
    spec = EmbeddingSpec(seed=5, d=200, r=20)
    report = measure_distortion(ds, spec, 3000, seed=17)
    assert report.skipped > 0
    assert report.pairs + report.skipped == 3000


def test_distortion_histogram_accounts_for_all_pairs(distortion_ds):
    spec = EmbeddingSpec(seed=5, d=2000, r=100)
    report = measure_distortion(distortion_ds, spec, 3000, seed=17)
    assert int(report.hist_counts.sum()) == report.pairs
    assert 0.9 <= report.ratio_median <= 1.1


def test_distortion_small_scale_mostly_within_bounds(distortion_ds):
    spec = EmbeddingSpec(seed=5, d=2000, r=100)
    report = measure_distortion(distortion_ds, spec, 3000, seed=17)
    assert report.within_fraction >= 0.9


def test_distortion_dimension_mismatch(distortion_ds):
    with pytest.raises(ValueError, match="dimensionality"):
        measure_distortion(distortion_ds, EmbeddingSpec(seed=0, d=99, r=10), 10, 0)


def _dense_ratios(ds, spec, pairs, seed):
    """Exact-distance oracle: dense float64 pipeline, same pair sample as
    measure_distortion."""
    from ogeec.embedding import materialize_rows

    rng = np.random.default_rng(seed)
    a = rng.integers(0, ds.n, size=pairs)
    b = rng.integers(0, ds.n, size=pairs)
    X = np.zeros((ds.n, ds.d))
    for i in range(ds.n):
        row = ds.feature_row(i)
        X[i, row.indices] = row.values.astype(np.float64)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    Xn = X / norms
    F = materialize_rows(spec, 0, spec.r)
    P = (Xn @ F.T) / math.sqrt(spec.r)
    orig = np.linalg.norm(Xn[a] - Xn[b], axis=1)
    proj = np.linalg.norm(P[a] - P[b], axis=1)
    keep = (a != b) & (orig > 1e-6)
    return proj[keep] / orig[keep]


def test_fixed_bound_coverage_nondecreasing_in_r():
    """More output dimensions concentrate the ratios, so coverage of a FIXED
    bound width grows with r; coverage of each r's own bound stays above the
    0.95 floor but is flat by construction (epsilon shrinks at exactly the
    concentration rate)."""
    ds = generate_synthetic(
        n=2000, d=4000, L=50, sparsity=30, labels_per_sample=3, clusters=10, seed=11
    )
    fixed = jl_epsilon(2000, 50)
    fixed_cov, own_cov = [], []
    for r in (50, 100, 200, 400):
        spec = EmbeddingSpec(seed=5, d=4000, r=r)
        report = measure_distortion(ds, spec, 10000, seed=17)
        own_cov.append(report.within_fraction)
        ratios = _dense_ratios(ds, spec, 10000, seed=17)
        # dense oracle agrees with the sparse-path report
        own = jl_epsilon(2000, r)
        frac = float(np.mean((ratios >= own.lower) & (ratios <= own.upper)))
        assert frac == pytest.approx(report.within_fraction, abs=1e-3)
        fixed_cov.append(
            float(np.mean((ratios >= fixed.lower) & (ratios <= fixed.upper)))
        )
    assert all(f >= 0.95 for f in own_cov), own_cov
    inversions = sum(1 for x, y in zip(fixed_cov, fixed_cov[1:]) if y < x)
    assert inversions <= 1, fixed_cov
    assert fixed_cov[-1] > fixed_cov[0]
