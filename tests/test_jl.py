import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from oracles import box_muller, feature_row, project_full, sp_normalize_rows, sp_pair_dots, truth_matrix

from ogeec import embedding, jl
from ogeec.csr import CSR
from ogeec.data import SparseDataset, generate_synthetic
from ogeec.embedding import EmbeddingSpec
from ogeec.jl import DistortionReport, jl_epsilon, measure_distortion

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

    def identity_rows(spec, start, stop, *, cols, out=None, scratch=None):
        out = np.zeros((stop - start, spec.d))
        out[np.arange(stop - start), np.arange(start, stop)] = 1.0
        return out[:, cols.columns]

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


@pytest.mark.parametrize("floats", [1, 100 * 7, 1 << 30])
def test_distortion_in_blocks_of_pairs_keeps_every_bit(distortion_ds, floats):
    """Blocks of 1 and 7 pairs (ragged) give the report of one block of all
    pairs, the old whole-array computation, bit for bit."""
    spec = EmbeddingSpec(seed=5, d=2000, r=100)
    want = measure_distortion(distortion_ds, spec, 3000, seed=17)
    with mock.patch.object(jl, "_PAIR_FLOATS", floats):
        got = measure_distortion(distortion_ds, spec, 3000, seed=17)
    for field in dataclasses.fields(want):
        a, b = np.asarray(getattr(got, field.name)), np.asarray(getattr(want, field.name))
        assert a.tobytes() == b.tobytes(), field.name


def test_distortion_memory_does_not_grow_with_pairs(distortion_ds):
    """From 2,000 to 20,000 pairs at r = 64 the tracemalloc peak grows by at
    most 128 bytes per pair: the pair indices, dot products, distances and
    ratios, and the histogram's per-pair arrays. Four (r x pairs) float64
    arrays of projected differences would grow it by 2 KB per pair."""
    spec = EmbeddingSpec(seed=5, d=2000, r=64)
    peaks = []
    for pairs in (2_000, 20_000):
        tracemalloc.start()
        try:
            measure_distortion(distortion_ds, spec, pairs, seed=17)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 128 * 18_000, peaks


def _edge_case_set() -> SparseDataset:
    """Random rows plus explicit and signed zeros, an all-zero row, an empty
    row, duplicate rows, and float64 values whose scaled products underflow:
    5e-324 scaled by 1 / norm, and 1e-170 times 3e-170 in a pair's dot."""
    rng = np.random.default_rng(21)
    d = 60
    rows = [{int(j): float(rng.normal()) for j in rng.choice(d, 6, replace=False)} for _ in range(30)]
    rows += [
        {3: 0.0, 8: -0.0, 9: 2.0},
        {3: -0.0, 8: 0.0},
        {},
        rows[0],
        rows[0],
        rows[1],
        {10: 1.0, 11: 1e-170},
        {10: -2.0, 11: 3e-170, 12: 5e-324},
    ]
    indices = [j for row in rows for j in sorted(row)]
    features = CSR(
        np.array([row[j] for row in rows for j in sorted(row)]),
        np.array(indices, dtype=np.int32),
        np.cumsum([0] + [len(row) for row in rows]).astype(np.int64),
        (len(rows), d),
    )
    return SparseDataset(features, truth_matrix([[i % 2] for i in range(len(rows))], 2))


def _oracle_report(ds, spec, pairs, seed, bins=40) -> DistortionReport:
    """`measure_distortion`'s report from the oracles: the unit rows that
    scipy's `diags(1 / norms) @ X` stores and the norms
    (`sp_normalize_rows`), their projection by the full F (`project_full`)
    and their pairs' dot products (`sp_pair_dots`)."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, ds.n, size=pairs), rng.integers(0, ds.n, size=pairs)
    Xn, norms = sp_normalize_rows(ds.features)
    proj = np.asfortranarray(project_full(spec, Xn, np.float64)) * (1.0 / math.sqrt(spec.r))
    diff = proj[:, a] - proj[:, b]
    proj_dist = np.sqrt(np.sum(diff * diff, axis=0))
    unit_sq = (norms > 0).astype(np.float64)
    orig_sq = unit_sq[a] + unit_sq[b] - 2.0 * sp_pair_dots(Xn, a, b)
    keep = (a != b) & (orig_sq > 1e-12)
    ratios = proj_dist[keep] / np.sqrt(orig_sq[keep])
    bound = jl_epsilon(ds.n, spec.r)
    counts, edges = np.histogram(ratios, bins=bins, range=(ratios.min(), ratios.max()))
    return DistortionReport(
        pairs=int(keep.sum()),
        skipped=int(pairs - keep.sum()),
        epsilon=bound.epsilon,
        within_fraction=float(np.mean((ratios >= bound.lower) & (ratios <= bound.upper))),
        ratio_min=float(ratios.min()),
        ratio_median=float(np.median(ratios)),
        ratio_max=float(ratios.max()),
        hist_edges=edges,
        hist_counts=counts,
    )


def test_distortion_equals_the_scipy_oracles():
    """On rows that zeros, duplicates and underflow make hard, the report
    equals the oracles' (`_oracle_report`) in every field's bits."""
    ds = _edge_case_set()
    spec = EmbeddingSpec(seed=3, d=ds.d, r=24)
    got, want = measure_distortion(ds, spec, 3000, seed=5), _oracle_report(ds, spec, 3000, seed=5)
    assert got.skipped > 0
    for field in dataclasses.fields(want):
        a, b = np.asarray(getattr(got, field.name)), np.asarray(getattr(want, field.name))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name


def _dense_ratios(ds, spec, pairs, seed):
    """Exact-distance oracle: dense float64 pipeline, same pair sample as
    measure_distortion."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, ds.n, size=pairs)
    b = rng.integers(0, ds.n, size=pairs)
    X = np.zeros((ds.n, ds.d))
    for i in range(ds.n):
        row = feature_row(ds, i)
        X[i, row.indices] = row.values.astype(np.float64)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    Xn = X / norms
    F = np.vstack([box_muller(spec.seed, i, spec.d) for i in range(spec.r)])
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
