import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    embed_single,
    feature_row,
    from_scipy,
    knn_scan,
    lexsort_top_k,
    neighbor_lists,
    predict,
    rank_rows,
    row_scores,
    score_csr,
    score_dicts,
    score_matrix,
)

from ogeec import predictor
from ogeec.csr import CSR
from ogeec.embedding import EmbeddedMatrix, project_csr
from ogeec.predictor import (
    batch_predict,
    format_predictions,
    knn,
    propagate,
    top_k,
)


def matrix_of(columns: np.ndarray) -> EmbeddedMatrix:
    data = np.asfortranarray(np.asarray(columns, dtype=np.float32))
    return EmbeddedMatrix(r=data.shape[0], n=data.shape[1], data=data)


def naive_knn(data: np.ndarray, q: np.ndarray, k: int):
    """Independent reference scan: per-column float64 dots, full sort."""
    sims = [
        float(np.dot(q.astype(np.float64), data[:, i].astype(np.float64)))
        for i in range(data.shape[1])
    ]
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
    return [(i, sims[i]) for i in order[: min(k, len(sims))]]


def test_knn_query_equals_training_column(small_spec, small_ds, small_embedded):
    j = 11
    q = embed_single(small_spec, feature_row(small_ds, j))
    entries = neighbor_lists(*knn(q, small_embedded, 5))
    assert entries[0][0] == j
    assert abs(entries[0][1] - 1.0) < 1e-5


def test_knn_orthogonal_columns():
    train = matrix_of(np.eye(3))
    q = np.array([1.0, 0.0, 0.0], dtype=np.float32)
    assert neighbor_lists(*knn(q, train, 3)) == [(0, 1.0), (1, 0.0), (2, 0.0)]


def test_knn_matches_naive_scan():
    rng = np.random.default_rng(8)
    cols = rng.normal(size=(200, 500))
    cols /= np.linalg.norm(cols, axis=0)
    train = matrix_of(cols)
    for qi in range(20):
        q = rng.normal(size=200)
        q = (q / np.linalg.norm(q)).astype(np.float32)
        got = neighbor_lists(*knn(q, train, 7))
        want = naive_knn(train.data, q, 7)
        assert [i for i, _ in got] == [i for i, _ in want]
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in want], rtol=0, atol=1e-12
        )


def test_knn_tie_break_ascending_index():
    base = np.array([[0.6, 1.0, 0.6, 0.3], [0.8, 0.0, 0.8, 0.954]])
    train = matrix_of(base)
    q = np.array([0.6, 0.8], dtype=np.float32)
    entries = neighbor_lists(*knn(q, train, 3))
    # columns 0 and 2 are byte-identical: exact tie, lower index first
    assert [i for i, _ in entries][:2] == [0, 2]
    assert entries[0][1] == entries[1][1]


def test_knn_k_larger_than_n():
    train = matrix_of(np.eye(2))
    q = np.array([1.0, 0.0], dtype=np.float32)
    index, sims = knn(q, train, 10)
    assert index.shape == sims.shape == (2,)
    assert len(neighbor_lists(index, sims)) == 2


def test_knn_dimension_mismatch(small_embedded):
    with pytest.raises(ValueError, match="dimensionality"):
        knn(np.zeros(small_embedded.r + 1, dtype=np.float32), small_embedded, 3)


@settings(deadline=None, max_examples=50)
@given(
    cols=arrays(
        np.float64,
        st.tuples(st.integers(2, 6), st.integers(1, 12)),
        elements=st.floats(-1, 1, allow_nan=False),
    ),
    extra=arrays(np.float64, st.integers(2, 6), elements=st.floats(-1, 1, allow_nan=False)),
    k=st.integers(1, 5),
)
def test_knn_monotone_under_added_sample(cols, extra, k):
    """A new training sample can only enter the list or displace entries whose
    similarity is not above its own; survivors keep their relative order."""
    if extra.shape[0] != cols.shape[0]:
        extra = np.resize(extra, cols.shape[0])
    q = np.ones(cols.shape[0], dtype=np.float32)
    old = neighbor_lists(*knn(q, matrix_of(cols), k))
    new = neighbor_lists(*knn(q, matrix_of(np.column_stack([cols, extra])), k))
    n_old = cols.shape[1]
    old_ids = [i for i, _ in old]
    new_ids = [i for i, _ in new]
    assert set(new_ids) <= set(old_ids) | {n_old}
    survivors = [i for i in old_ids if i in set(new_ids)]
    assert [i for i in new_ids if i != n_old] == survivors
    if n_old in set(new_ids):
        sim_new = dict(new)[n_old]
        for i, s in old:
            if i not in set(new_ids):
                assert s <= sim_new + 1e-12


@st.composite
def search_cases(draw):
    """A train matrix with adversarial columns, a block of queries, k, and the
    query rows per screen tile."""
    r = draw(st.integers(1, 12))
    n = draw(st.integers(1, 30))
    data = draw(arrays(np.float32, (r, n), elements=st.floats(-4, 4, width=32)))
    for j in range(n):
        kind = draw(st.sampled_from(["keep", "duplicate", "zero", "ulp", "scale"]))
        src = data[:, draw(st.integers(0, n - 1))].copy()
        if kind == "duplicate":
            data[:, j] = src
        elif kind == "zero":
            data[:, j] = 0.0
        elif kind == "ulp":  # a near-tie: one element one float32 ulp away
            i = draw(st.integers(0, r - 1))
            src[i] = np.nextafter(src[i], np.float32(np.inf))
            data[:, j] = src
        elif kind == "scale":  # non-unit columns
            data[:, j] *= draw(st.sampled_from([1e-3, 0.5, 3.0, 1e3]))
    m = draw(st.integers(1, 7))
    if draw(st.booleans()):
        queries = draw(arrays(np.float64, (r, m), elements=st.floats(-4, 4)))
    else:
        queries = draw(arrays(np.float32, (r, m), elements=st.floats(-4, 4, width=32)))
    for i in range(m):
        if draw(st.booleans()):  # a query on a training column scores near-ties
            queries[:, i] = data[:, draw(st.integers(0, n - 1))]
    k = draw(st.integers(1, n + 3))
    return data, queries, k, draw(st.integers(1, m))


@settings(deadline=None, max_examples=300)
@given(case=search_cases())
def test_knn_equals_full_scan(case):
    """The screened kernel returns the full float64 scan's (index, score)
    lists exactly: on near-ties, duplicate and zero columns, non-unit columns,
    float64 queries, k >= n, n within one tile and a ragged last tile."""
    data, queries, k, tile_rows = case
    n = data.shape[1]
    with mock.patch.multiple(predictor, _SCREEN_FLOATS=tile_rows * n, _SELECT_FLOATS=tile_rows * n):
        got = neighbor_lists(*knn(queries, matrix_of(data), k))
    assert got == [knn_scan(queries[:, i], data, k) for i in range(queries.shape[1])]


@pytest.mark.parametrize("k", [1, 5, 39])
def test_knn_kth_blocks_cut_by_a_tile_boundary(k):
    """Tiles of 23 queries take the k-th screen score in blocks of 2 rows,
    so each tile ends inside a block: the lists are the full scan's."""
    rng = np.random.default_rng(4)
    data = rng.normal(size=(8, 40)).astype(np.float32)
    data[:, 20:30] = data[:, :10]  # duplicate columns: exact ties
    queries = rng.normal(size=(8, 50))
    queries[:, ::7] = data[:, :8]  # queries on training columns
    with mock.patch.multiple(predictor, _SCREEN_FLOATS=23 * 40, _SELECT_FLOATS=23 * 40):
        got = neighbor_lists(*knn(queries, matrix_of(data), k))
    assert got == [knn_scan(queries[:, i], data, k) for i in range(50)]


@pytest.mark.parametrize("scale", [1e-300, 1e30, 1e200])
def test_knn_queries_beyond_float32_range(scale):
    """A query too small or too large for float32 still gets the exact answer."""
    rng = np.random.default_rng(1)
    data = rng.normal(size=(16, 50)).astype(np.float32)
    q = rng.normal(size=16) * scale
    assert neighbor_lists(*knn(q, matrix_of(data), 4)) == knn_scan(q, data, 4)


def test_knn_with_k_at_least_n_holds_arrays_not_pairs():
    """With k >= n every (query, column) pair is a neighbour: 4M of them
    here, 64 MB as index and score arrays. One Python (int, float) pair each
    would take about 450 MiB."""
    rng = np.random.default_rng(2)
    n = 2000
    train = matrix_of(rng.normal(size=(16, n)))
    queries = rng.normal(size=(16, n)).astype(np.float32)
    tracemalloc.start()
    try:
        index, sims = knn(queries, train, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index.shape == sims.shape == (n, n)
    assert peak <= 128 * 2**20, f"peak {peak / 2**20:.0f} MiB"


def test_propagate_single_neighbor():
    labelsets = [np.array([2, 5])]
    assert propagate([(0, 0.8)], labelsets) == {2: 0.8, 5: 0.8}


def test_propagate_two_neighbors_hand_sum():
    labelsets = [np.array([1, 3]), np.array([3])]
    scores = propagate([(0, 0.9), (1, 0.4)], labelsets)
    assert scores == {1: 0.9, 3: pytest.approx(1.3, abs=1e-12)}


def test_propagate_clamps_negative_similarity():
    labelsets = [np.array([0, 1])]
    assert propagate([(0, -0.2)], labelsets) == {}
    assert propagate([(0, 0.0)], labelsets) == {}


def test_propagate_linearity_over_disjoint_neighbors():
    rng = np.random.default_rng(0)
    labelsets = [rng.choice(20, size=3, replace=False) for _ in range(10)]
    first = [(i, float(rng.uniform(0.1, 1.0))) for i in range(5)]
    second = [(i, float(rng.uniform(0.1, 1.0))) for i in range(5, 10)]
    merged = propagate(first + second, labelsets)
    a = propagate(first, labelsets)
    b = propagate(second, labelsets)
    summed = {w: a.get(w, 0.0) + b.get(w, 0.0) for w in set(a) | set(b)}
    assert merged.keys() == summed.keys()
    for w in merged:
        assert merged[w] == pytest.approx(summed[w], abs=1e-12)


def test_propagate_bad_index():
    with pytest.raises(IndexError):
        propagate([(3, 0.5)], [np.array([0])])


def test_rank_labels_memory_grows_only_by_its_output():
    """From 2,000 to 20,000 queries (E = 3 learners of k = 5 neighbours, 75
    of L = 983 labels per train sample) `rank_labels`' tracemalloc peak
    grows by at most its (m, K) output, 16 bytes per (query, slot), plus
    256 KiB: it holds one label block at a time, and 2,000 queries already
    fill several. Blocks of 2^21 floats (2,133 queries) held 2,000 queries in
    one short block, and the peak grew with the block."""
    rng = np.random.default_rng(6)
    n, L, per, E, k, K = 2_000, 983, 75, 3, 5, 5
    indices = np.sort(np.argpartition(rng.random((n, L)), per, axis=1)[:, :per]).ravel()
    Y = CSR(np.ones(indices.size), indices, np.arange(n + 1, dtype=np.int64) * per, (n, L))
    peaks = []
    for m in (2_000, 20_000):
        learners = [(rng.integers(0, n, (m, k)), rng.random((m, k))) for _ in range(E)]
        tracemalloc.start()
        try:
            predictor.rank_labels(learners, Y, K)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 16 * K * 18_000 + 256 * 1024, peaks


def test_top_k_labels_tie_rule():
    S = score_csr([{5: 0.8, 2: 0.8}, {1: 0.9, 3: 1.3}, {}], 6)
    assert top_k(S, 1)[0].tolist() == [[2], [3], [-1]]
    assert top_k(S, 3)[0].tolist() == [[2, 5, -1], [3, 1, -1], [-1, -1, -1]]
    assert top_k(S, 4)[1].tolist()[2] == [0.0] * 4


# few distinct values, so rows hold exact ties, signed zeros and explicit zeros
_RANK_SCORES = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(-1e300, 1e300)


@st.composite
def ranking_rows(draw):
    """CSR arrays of signed scores: empty rows and rows of distinct, unsorted
    column indices, plus a K that may exceed every row."""
    rows = draw(
        st.lists(st.lists(st.integers(0, 40), unique=True, max_size=12), min_size=1, max_size=6)
    )
    indices = np.array([j for row in rows for j in row], dtype=np.int64)
    data = np.array([draw(_RANK_SCORES) for _ in range(indices.size)], dtype=np.float64)
    indptr = np.cumsum([0, *map(len, rows)])
    return data, indices, indptr, draw(st.integers(1, 14))


@settings(deadline=None, max_examples=300)
@given(case=ranking_rows())
def test_top_k_equals_sorted_oracle(case):
    """top_k ranks by (-score, index) as a Python sort does, from a CSR
    matrix and from its three arrays; each score keeps its bits (-0.0 too)."""
    data, indices, indptr, K = case
    want = rank_rows(data, indices, indptr, K)
    want_index = np.array([[i for i, _ in row] + [-1] * (K - len(row)) for row in want])
    want_top = np.array([[s for _, s in row] + [0.0] * (K - len(row)) for row in want])
    matrix = from_scipy(sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, 41)))
    assert matrix.nnz == data.size  # explicit zeros stay stored
    for scores in ((data, indices, indptr), matrix):
        index, top = top_k(scores, K)
        assert np.array_equal(index, want_index)
        assert np.array_equal(top.view(np.int64), want_top.view(np.int64))


@st.composite
def selection_rows(draw):
    """CSR arrays for the selection stage: m = 0 to 8 rows of up to 60
    distinct, unsorted indices, maybe one row of 100 to 400, scores drawn
    from a pool of at most 6 values (ties at the K-th score, signed zeros,
    +-inf), a K below the longest row more often than not, and a
    _SELECT_FLOATS small enough to split the rows into several blocks."""
    m = draw(st.integers(0, 8))
    lengths = draw(st.lists(st.integers(0, 60), min_size=m, max_size=m))
    if m and draw(st.booleans()):
        lengths[draw(st.integers(0, m - 1))] = draw(st.integers(100, 400))
    pool = draw(st.lists(_RANK_SCORES | st.sampled_from([-np.inf, np.inf]), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = np.concatenate([np.empty(0, np.int64), *(rng.permutation(500)[:n] for n in lengths)])
    data = rng.choice(np.array(pool), size=indices.size)
    indptr = np.cumsum([0, *lengths])
    return data, indices, indptr, draw(st.integers(1, 70)), draw(st.integers(1, 2000))


@settings(deadline=None, max_examples=300)
@given(case=selection_rows())
def test_top_k_selection_equals_sorted_oracle(case):
    """With rows longer than K, ties at the K-th score, +-inf, no rows at all,
    and row blocks split inside the matrix, top_k still ranks by
    (-score, index) as a Python sort does, and keeps each score's bits."""
    data, indices, indptr, K, tile = case
    m = indptr.size - 1
    want_index, want_top = np.full((m, K), -1), np.zeros((m, K))
    for i, row in enumerate(rank_rows(data, indices, indptr, K)):
        want_index[i, : len(row)] = [j for j, _ in row]
        want_top[i, : len(row)] = [s for _, s in row]
    matrix = from_scipy(sp.csr_matrix((data, indices, indptr), shape=(m, 500)))
    with mock.patch.object(predictor, "_SELECT_FLOATS", tile):
        for scores in ((data, indices, indptr), matrix):
            index, top = top_k(scores, K)
            assert np.array_equal(index, want_index)
            assert np.array_equal(top.view(np.int64), want_top.view(np.int64))


@pytest.mark.parametrize("tile", [5, 1 << 21])
@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_top_k_ranks_nan_after_minus_inf(tile, K):
    """NaN ranks after every number, -inf included, and NaNs tie by index;
    rows of one block each (tile 5) or all in one, longer or shorter than K."""
    data = np.tile([np.nan, 1.0, -np.inf, 0.5, np.nan], 3)
    indptr = np.array([0, 5, 10, 15])
    indices = np.tile(np.arange(5), 3)
    with mock.patch.object(predictor, "_SELECT_FLOATS", tile):
        index, top = top_k((data, indices, indptr), K)
    want = [1, 3, 2, 0, 4, -1][:K]
    assert index.tolist() == [want] * 3
    assert np.array_equal(top, [[1.0, 0.5, -np.inf, np.nan, np.nan, 0.0][:K]] * 3, equal_nan=True)


def test_top_k_lexsorts_only_the_entries_reaching_the_kth_score():
    """On distinct scores the lexsort sees at most m * K entries: the rows'
    K-th scores are selected before anything is sorted."""
    m, n, K = 200, 300, 5
    scores = from_scipy(sp.csr_matrix(np.random.default_rng(3).permutation(m * n).reshape(m, n) + 1.0))
    want = lexsort_top_k(scores.data, scores.indices, scores.indptr, K)
    sorted_sizes, lexsort = [], np.lexsort

    def spy(keys):
        sorted_sizes.append(len(keys[0]))
        return lexsort(keys)

    with mock.patch.object(predictor.np, "lexsort", spy):
        index, top = top_k(scores, K)
    assert sorted_sizes and max(sorted_sizes) <= m * K
    assert np.array_equal(index, want[0]) and np.array_equal(top, want[1])


def test_predict_is_composition(small_spec, small_ds, small_embedded):
    labelsets = small_ds.labelsets()
    query = feature_row(small_ds, 3)
    direct = predict(small_spec, small_embedded, labelsets, query, 5)
    q = embed_single(small_spec, query)
    manual = propagate(neighbor_lists(*knn(q, small_embedded, 5)), labelsets)
    assert direct == manual


def test_predict_training_point_matches_itself(small_spec, small_ds, small_embedded):
    q = embed_single(small_spec, feature_row(small_ds, 17))
    entries = neighbor_lists(*knn(q, small_embedded, 5))
    by_index = dict(entries)
    assert 17 in by_index
    assert abs(by_index[17] - 1.0) < 1e-5


def test_batch_predict_equals_per_query(small_spec, small_ds, small_embedded, train_test):
    train, test = train_test
    # reuse the small corpus as both train and queries to keep this quick
    labelsets = small_ds.labelsets()
    sub = small_ds
    queries = project_csr(small_spec, sub.to_feature_csr(np.float64))
    batched = score_matrix(*batch_predict(small_embedded, queries, 5), small_ds.label_matrix())
    for i in range(0, sub.n, 37):
        single = predict(small_spec, small_embedded, labelsets, feature_row(sub, i), 5)
        assert row_scores(batched, i) == single


def test_batch_predict_worker_invariance(small_spec, small_ds, small_embedded):
    labels = small_ds.label_matrix()
    X = small_ds.to_feature_csr(np.float64)
    one, many = (
        score_matrix(*batch_predict(small_embedded, project_csr(small_spec, X, workers=w), 5), labels)
        for w in (1, 4)
    )
    assert score_dicts(one) == score_dicts(many)


def test_format_predictions():
    scores = score_csr([{3: 1.25, 1: 0.5}, {}, {2: 0.75}], 4)
    text = format_predictions(*top_k(scores, 2))
    assert text == "3:1.25\t1:0.5\n\n2:0.75\n"
