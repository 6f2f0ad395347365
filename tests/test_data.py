import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import same_dataset, to_scipy

from ogeec import data
from ogeec.data import (
    DatasetFormatError,
    SparseVector,
    _assemble,
    format_dataset,
    generate_synthetic,
    parse_dataset,
    split_dataset,
    write_dataset,
)

FIXTURE = "3 4 2\n0 0:1.0 2:2.0\n1 1:0.5\n0,1 3:1.0\n"


def _write(tmp_path, text, name="ds.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_fixture(tmp_path):
    ds = parse_dataset(_write(tmp_path, FIXTURE))
    assert (ds.n, ds.d, ds.L) == (3, 4, 2)
    assert ds.label_frequencies.tolist() == [2, 2]
    row0 = ds.feature_row(0)
    assert row0.indices.tolist() == [0, 2]
    assert row0.values.tolist() == [1.0, 2.0]
    assert ds.labels(0).tolist() == [0]
    assert ds.labels(1).tolist() == [1]
    assert ds.labels(2).tolist() == [0, 1]


def test_parse_minimal(tmp_path):
    ds = parse_dataset(_write(tmp_path, "1 1 1\n0 0:1.0\n"))
    assert (ds.n, ds.d, ds.L) == (1, 1, 1)
    assert ds.label_frequencies.tolist() == [1]


def test_parse_is_order_preserving(tmp_path):
    ds = parse_dataset(_write(tmp_path, FIXTURE))
    assert ds.feature_row(1).indices.tolist() == [1]
    assert ds.feature_row(2).indices.tolist() == [3]


def test_missing_label_field_is_empty(tmp_path):
    ds = parse_dataset(_write(tmp_path, "2 3 2\n 0:1.5 2:0.25\n1 1:1\n"))
    assert ds.labels(0).size == 0
    assert ds.feature_row(0).indices.tolist() == [0, 2]
    assert ds.label_frequencies.tolist() == [0, 1]


def test_empty_line_is_featureless_unlabeled(tmp_path):
    ds = parse_dataset(_write(tmp_path, "1 3 2\n\n"))
    assert ds.labels(0).size == 0
    assert ds.feature_row(0).nnz == 0


def test_parse_without_trailing_newline(tmp_path):
    ds = parse_dataset(_write(tmp_path, "1 2 1\n0 1:0.5"))
    assert ds.feature_row(0).indices.tolist() == [1]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("3 4\n", "header"),
        ("a 4 2\n", "header"),
        ("0 4 2\n", "positive"),
        ("2 4 2\n0 0:1\n", "expected 2 sample lines"),
        ("1 4 2\n0 0:1\n1 1:1\n", "expected 1 sample lines"),
        ("1 4 2\n0 4:1.0\n", "line 2: feature index 4"),
        ("1 4 2\n2 0:1.0\n", "line 2: label index 2"),
        ("1 4 2\n0 1:nan\n", "line 2: non-finite"),
        ("1 4 2\n0 1:inf\n", "line 2: non-finite"),
        ("1 4 2\n0 1:9e99\n", "line 2: non-finite"),
        ("1 4 2\n0 1:1.0 1:2.0\n", "line 2: duplicate feature index 1"),
        ("1 4 2\n0:1.0\n", "label field contains ':'"),
        ("1 4 2\n0 1\n", "line 2: bad feature pair"),
        ("1 4 2\nx 1:1\n", "line 2: bad label"),
    ],
)
def test_parse_errors(tmp_path, text, fragment):
    with pytest.raises(DatasetFormatError, match=fragment):
        parse_dataset(_write(tmp_path, text))


def test_out_of_range_error_names_offending_line(tmp_path):
    text = "3 4 2\n0 0:1\n1 0:1 3:2\n0 4:1\n"
    with pytest.raises(DatasetFormatError, match="line 4"):
        parse_dataset(_write(tmp_path, text))


def test_roundtrip_fixture(tmp_path):
    ds = parse_dataset(_write(tmp_path, FIXTURE))
    again = parse_dataset(_write(tmp_path, format_dataset(ds), name="again.txt"))
    assert same_dataset(ds, again)


def test_roundtrip_synthetic(tmp_path, small_ds):
    path = tmp_path / "synth.txt"
    write_dataset(small_ds, path)
    assert same_dataset(small_ds, parse_dataset(path))


@st.composite
def tiny_datasets(draw):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 10))
    L = draw(st.integers(1, 6))
    feature_rows, label_rows = [], []
    for _ in range(n):
        nnz = draw(st.integers(0, min(d, 4)))
        idx = np.array(
            sorted(draw(st.sets(st.integers(0, d - 1), min_size=nnz, max_size=nnz))),
            dtype=np.int64,
        )
        vals = np.array(
            draw(
                st.lists(
                    st.floats(
                        -1e10,
                        1e10,
                        width=32,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    min_size=len(idx),
                    max_size=len(idx),
                )
            ),
            dtype=np.float32,
        )
        labs = np.array(
            sorted(draw(st.sets(st.integers(0, L - 1), max_size=L))), dtype=np.int64
        )
        feature_rows.append((idx, vals))
        label_rows.append(labs)
    return _assemble(feature_rows, label_rows, d, L)


@settings(deadline=None, max_examples=60)
@given(tiny_datasets())
def test_roundtrip_property(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("rt") / "ds.txt"
    write_dataset(ds, path)
    assert same_dataset(ds, parse_dataset(path))


@settings(deadline=None, max_examples=60)
@given(tiny_datasets())
def test_label_frequencies_sum_to_assignments(ds):
    assert int(ds.label_frequencies.sum()) == ds.label_indices.size


def test_sparse_vector_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SparseVector(np.array([2, 1]), np.array([1.0, 1.0], dtype=np.float32))
    with pytest.raises(ValueError, match="finite"):
        SparseVector(np.array([0]), np.array([np.nan], dtype=np.float32))
    with pytest.raises(ValueError, match="parallel"):
        SparseVector(np.array([0, 1]), np.array([1.0], dtype=np.float32))


def test_synthetic_deterministic():
    kwargs = dict(
        n=100, d=1000, L=20, sparsity=10, labels_per_sample=2, clusters=5, seed=7
    )
    a = generate_synthetic(**kwargs)
    b = generate_synthetic(**kwargs)
    assert same_dataset(a, b)
    assert format_dataset(a) == format_dataset(b)


def test_synthetic_single_cluster_shares_label_pool():
    ds = generate_synthetic(
        n=200, d=500, L=40, sparsity=8, labels_per_sample=2, clusters=1, seed=9
    )
    used = set(ds.label_indices.tolist())
    # one cluster: every sample draws from the same pool of 2 * labels_per_sample
    assert len(used) <= 4


def test_synthetic_values_positive_and_valid(small_ds):
    assert np.all(small_ds.feat_values > 0)
    assert np.all(small_ds.feat_indices < small_ds.d)
    assert np.all(small_ds.label_indices < small_ds.L)
    for i in range(small_ds.n):
        assert np.all(np.diff(small_ds.feature_row(i).indices) > 0)
        assert np.all(np.diff(small_ds.labels(i)) > 0)
        assert small_ds.labels(i).size >= 1


def test_synthetic_cluster_cosine_separation():
    """Pairs sharing a label (same-cluster proxy: label pools are cluster
    specific) must be more similar on average than pairs sharing none."""
    ds = generate_synthetic(
        n=2000, d=20000, L=50, sparsity=30, labels_per_sample=3, clusters=10, seed=11
    )
    X = to_scipy(ds.to_feature_csr(np.float64))
    sq = X.copy()
    sq.data = sq.data**2
    norms = np.sqrt(np.asarray(sq.sum(axis=1)).ravel())
    rng = np.random.default_rng(0)
    a = rng.integers(0, ds.n, size=20000)
    b = rng.integers(0, ds.n, size=20000)
    keep = a != b
    a, b = a[keep], b[keep]
    dots = np.asarray(X[a].multiply(X[b]).sum(axis=1)).ravel()
    cos = dots / (norms[a] * norms[b])
    shared = np.array(
        [bool(set(ds.labels(i)) & set(ds.labels(j))) for i, j in zip(a, b)]
    )
    assert shared.any() and (~shared).any()
    assert cos[shared].mean() > cos[~shared].mean()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, d=5, L=2, sparsity=1, labels_per_sample=1, clusters=1, seed=0),
        dict(n=5, d=5, L=2, sparsity=9, labels_per_sample=1, clusters=1, seed=0),
        dict(n=5, d=5, L=2, sparsity=1, labels_per_sample=3, clusters=1, seed=0),
        dict(n=5, d=5, L=2, sparsity=1, labels_per_sample=1, clusters=0, seed=0),
    ],
)
def test_synthetic_parameter_bounds(kwargs):
    with pytest.raises(ValueError):
        generate_synthetic(**kwargs)


def test_split_dataset(small_ds):
    train, test = split_dataset(small_ds, 200)
    assert (train.n, test.n) == (200, 100)
    assert train.d == test.d == small_ds.d
    assert train.feature_row(5).indices.tolist() == small_ds.feature_row(5).indices.tolist()
    assert test.labels(0).tolist() == small_ds.labels(200).tolist()
    # frequencies recomputed per part
    assert int(train.label_frequencies.sum()) == train.label_indices.size
    total = train.label_frequencies + test.label_frequencies
    assert np.array_equal(total, small_ds.label_frequencies)
    with pytest.raises(ValueError):
        split_dataset(small_ds, small_ds.n)


def test_parse_holds_the_dataset_once(tmp_path):
    """Each piece's features go straight into arrays sized by the scan, so
    the parse peaks near the dataset plus one piece's temporaries, not at
    the dataset twice (pieces kept, then concatenated)."""
    rng = np.random.default_rng(0)
    n, d = 6000, 5000
    lines = [f"{n} {d} 4"]
    for i in range(n):
        cols = np.unique(rng.integers(0, d, 60)).tolist()
        lines.append(f"{i % 4} " + " ".join(f"{j}:0.5" for j in cols))
    path = _write(tmp_path, "\n".join(lines) + "\n")
    with mock.patch.object(data, "_CHUNK", 1 << 16):
        tracemalloc.start()
        try:
            ds = parse_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = sum(
        a.nbytes
        for a in (ds.feat_indptr, ds.feat_indices, ds.feat_values, ds.label_indptr, ds.label_indices)
    )
    assert size > 4_000_000
    assert peak < size + 2_000_000, (peak, size)
