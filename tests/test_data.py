import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import feature_row, feature_sha256, float64_features, labelsets, same_dataset, to_scipy

from ogeec import data
from ogeec.data import (
    DatasetFormatError,
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
    row0 = feature_row(ds, 0)
    assert row0.indices.tolist() == [0, 2]
    assert row0.values.tolist() == [1.0, 2.0]
    labels = labelsets(ds)
    assert labels[0].tolist() == [0]
    assert labels[1].tolist() == [1]
    assert labels[2].tolist() == [0, 1]


def test_parse_minimal(tmp_path):
    ds = parse_dataset(_write(tmp_path, "1 1 1\n0 0:1.0\n"))
    assert (ds.n, ds.d, ds.L) == (1, 1, 1)
    assert ds.label_frequencies.tolist() == [1]


def test_parse_is_order_preserving(tmp_path):
    ds = parse_dataset(_write(tmp_path, FIXTURE))
    assert feature_row(ds, 1).indices.tolist() == [1]
    assert feature_row(ds, 2).indices.tolist() == [3]


def test_missing_label_field_is_empty(tmp_path):
    ds = parse_dataset(_write(tmp_path, "2 3 2\n 0:1.5 2:0.25\n1 1:1\n"))
    assert labelsets(ds)[0].size == 0
    assert feature_row(ds, 0).indices.tolist() == [0, 2]
    assert ds.label_frequencies.tolist() == [0, 1]


def test_empty_line_is_featureless_unlabeled(tmp_path):
    ds = parse_dataset(_write(tmp_path, "1 3 2\n\n"))
    assert labelsets(ds)[0].size == 0
    assert feature_row(ds, 0).indices.size == 0


def test_parse_without_trailing_newline(tmp_path):
    ds = parse_dataset(_write(tmp_path, "1 2 1\n0 1:0.5"))
    assert feature_row(ds, 0).indices.tolist() == [1]


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
    assert int(ds.label_frequencies.sum()) == ds.labels.indices.size


def test_label_matrix_allocates_no_values():
    """Y is the dataset's label CSR: its data is a read-only view of one
    1.0, not an array of ones (8 MB for these 1,000,000 assignments), so
    building the dataset allocates its two indptrs and nothing more; a split
    part's Y is such a view too."""
    n = L = 1000
    rows = data._Rows(
        np.zeros(n, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32),
        np.full(n, L), np.tile(np.arange(L), n),
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = data._dataset(rows, 1, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    Y, indptrs = ds.labels, ds.features.indptr.nbytes + ds.labels.indptr.nbytes
    # besides its indptrs, the dataset's few Python objects
    assert peak - before - indptrs < 4096, peak - before
    assert Y.indices is rows.label_indices and np.array_equal(Y.indptr, np.arange(0, n * L + 1, L))
    assert Y.shape == (n, L) and Y.data.shape == (n * L,) and not Y.data.flags.writeable
    assert Y.data[0] == Y.data[-1] == 1.0
    assert split_dataset(ds, 400)[1].labels.data.strides == (0,)


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
    used = set(ds.labels.indices.tolist())
    # one cluster: every sample draws from the same pool of 2 * labels_per_sample
    assert len(used) <= 4


def test_synthetic_values_positive_and_valid(small_ds):
    assert np.all(small_ds.features.data > 0)
    assert np.all(small_ds.features.indices < small_ds.d)
    assert np.all(small_ds.labels.indices < small_ds.L)
    for i, labels in enumerate(labelsets(small_ds)):
        assert np.all(np.diff(feature_row(small_ds, i).indices) > 0)
        assert np.all(np.diff(labels) > 0)
        assert labels.size >= 1


def test_synthetic_cluster_cosine_separation():
    """Pairs sharing a label (same-cluster proxy: label pools are cluster
    specific) must be more similar on average than pairs sharing none."""
    ds = generate_synthetic(
        n=2000, d=20000, L=50, sparsity=30, labels_per_sample=3, clusters=10, seed=11
    )
    X = to_scipy(float64_features(ds))
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
    sets = labelsets(ds)
    shared = np.array([bool(set(sets[i]) & set(sets[j])) for i, j in zip(a, b)])
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
    assert feature_row(train, 5).indices.tolist() == feature_row(small_ds, 5).indices.tolist()
    assert labelsets(test)[0].tolist() == labelsets(small_ds)[200].tolist()
    # frequencies recomputed per part
    assert int(train.label_frequencies.sum()) == train.labels.indices.size
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
        for a in (*ds.features[:3], ds.labels.indptr, ds.labels.indices)
    )
    assert size > 3_000_000  # int32 indices: a second copy would not fit in the slack
    assert peak < size + 2_000_000, (peak, size)


@pytest.mark.parametrize("d, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_feature_indices_are_int32_below_2_31_columns(tmp_path, d, dtype):
    """Feature indices are int32 below 2^31 columns and int64 from there,
    whether parsed or built in memory; a header's d is not allocated, and
    the digest of either dtype is the int64 one."""
    path = _write(tmp_path, f"2 {d} 3\n0 5:1.5 {d - 1}:2\n1,2 \n")
    tracemalloc.start()
    try:
        ds = parse_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert ds.features.indices.dtype == dtype
    assert ds.features.indices.tolist() == [5, d - 1]
    built = _assemble([(np.array([5, d - 1]), np.array([1.5, 2.0]))], [np.array([0])], d, 3)
    assert built.features.indices.dtype == dtype
    assert ds.feature_sha256 == feature_sha256(ds)


def test_dataset_shape_follows_its_csrs(small_ds):
    """n, d and L are read from the CSRs' shapes, and none can be set; a
    `planned_only` set keeps n and d once its feature arrays are dropped,
    and a read of a dropped array raises. CSRs of other row counts are
    refused."""
    assert (small_ds.n, small_ds.d) == small_ds.features.shape == (300, 2000)
    assert (small_ds.n, small_ds.L) == small_ds.labels.shape
    for name in ("n", "d", "L"):
        with pytest.raises(AttributeError):
            setattr(small_ds, name, 1)
    part = split_dataset(small_ds, 100)[1]
    assert (part.n, part.d, part.L) == (200, small_ds.d, small_ds.L)
    part.planned_only = True
    part.features_planned()
    assert (part.n, part.d, part.features.shape) == (200, small_ds.d, (200, small_ds.d))
    with pytest.raises(TypeError):
        part.features.indices[0]
    with pytest.raises(TypeError):
        feature_row(part, 0)
    with pytest.raises(ValueError, match="300 feature rows != 200 label rows"):
        data.SparseDataset(small_ds.features, part.labels)


def test_features_planned_drops_only_a_planned_only_sets_features(small_ds):
    """A set keeps its features unless its owner set `planned_only`; then
    `features_planned` drops them and keeps n, d, the labels and a digest
    taken before."""
    kept = split_dataset(small_ds, 100)[0]
    kept.features_planned()
    assert kept.features.indices is not None
    given_up = split_dataset(small_ds, 100)[0]
    digest = given_up.feature_sha256
    given_up.planned_only = True
    given_up.features_planned()
    assert given_up.features.indptr is given_up.features.indices is given_up.features.data is None
    assert (given_up.n, given_up.d, given_up.feature_sha256) == (100, small_ds.d, digest)
    assert labelsets(given_up)[7].tolist() == labelsets(kept)[7].tolist()
    assert np.array_equal(given_up.label_frequencies, kept.label_frequencies)
