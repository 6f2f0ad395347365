"""The numpy kernels of `ogeec.csr` against the scipy.sparse expressions they
replaced (`oracles.sp_*`), bit for bit: every output float, index and row
pointer must be equal.

Inputs hold explicit zeros, all-zero and empty rows, rows of very different
lengths, products that underflow to 0, -1 neighbour pads, zero and negative
similarities, E = 1, block boundaries inside the rows, and pairs of a row
with itself.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    from_scipy,
    sp_label_scores,
    sp_normalize_rows,
    sp_pair_dots,
    sp_row_products,
    sp_vstack,
    vstack,
)

from ogeec import csr, predictor
from ogeec.csr import (
    CSR,
    RowProducts,
    label_scores,
    normalize_rows,
    pair_dots,
    sorted_unique,
)
from ogeec.predictor import rank_labels, top_k

# explicit and signed zeros, values whose products underflow to 0 or whose
# squares overflow, and ordinary values
_VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-170, -1e-170, 1e-300, 1e200, 5e-324]) | st.floats(
    -1e3, 1e3, allow_nan=False
)


def _same(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _same_csr(got: CSR, want) -> bool:
    return (
        tuple(got.shape) == tuple(want.shape)
        and _same(got.data, want.data)
        and np.array_equal(got.indices, want.indices)
        and np.array_equal(got.indptr, want.indptr)
    )


@st.composite
def matrices(draw, d=None, order="any"):
    """A CSR of up to 8 rows over d columns: each row distinct columns in
    random, ascending or descending order, lengths from 0 to d (one row may
    be up to 40 times longer than the others), values from a pool of at most
    6 drawn from _VALUES."""
    d = draw(st.integers(1, 300)) if d is None else d
    m = draw(st.integers(0, 8))
    lengths = draw(st.lists(st.integers(0, min(d, 8)), min_size=m, max_size=m))
    if m and draw(st.booleans()):
        lengths[draw(st.integers(0, m - 1))] = draw(st.integers(0, d))
    pool = np.array(draw(st.lists(_VALUES, min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = draw(st.sampled_from(["any", "ascending", "descending"])) if order == "any" else order
    rows = []
    for n in lengths:
        cols = rng.permutation(d)[:n]
        if order != "any":
            cols = np.sort(cols)[:: 1 if order == "ascending" else -1]
        rows.append(cols)
    indices = np.concatenate([np.empty(0, np.int64), *rows])
    indptr = np.cumsum([0, *lengths])
    return CSR(rng.choice(pool, size=indices.size), indices, indptr, (m, d))


@settings(deadline=None, max_examples=300)
@given(X=matrices())
def test_normalize_rows_equals_scipy(X):
    got, norms = normalize_rows(X)
    want, want_norms = sp_normalize_rows(X)
    assert _same_csr(got, want)
    assert _same(norms, want_norms)


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_vstack_equals_scipy(data):
    top = data.draw(matrices())
    bottom = data.draw(matrices(d=top.shape[1]))
    assert _same_csr(vstack(top, bottom), sp_vstack(top, bottom))


@settings(deadline=None, max_examples=300)
@given(X=matrices(), b=st.integers(1, 7), chunk=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_row_products_equal_scipy(X, b, chunk, seed):
    """Chunks of 1 to 64 floats put chunk boundaries between rows of every
    length; F holds zeros and values whose products underflow."""
    rng = np.random.default_rng(seed)
    F = rng.choice(np.array([0.0, -0.0, 1e-200, -3e-170, 0.5, -1.25, 7.0]), size=(b, X.shape[1]))
    F += rng.normal(size=F.shape) * (rng.random(F.shape) < 0.5)
    got = np.empty((b, X.shape[0]))
    with mock.patch.object(csr, "_CHUNK_FLOATS", chunk):
        RowProducts(X, b, np.arange(X.shape[1]))(np.ascontiguousarray(F.T), got)
    assert _same(got, sp_row_products(X, F))


# similarities that tie, that are zero or negative (they transfer nothing),
# whose division by E underflows, and ordinary ones
_SIMS = st.sampled_from([0.0, -0.0, -0.5, 5e-324, 0.25, 1.0]) | st.floats(1e-3, 1e3)


@st.composite
def label_side(draw):
    """Y of up to 12 train samples over up to 30 labels (label sets may be
    empty), and E learners' (m, k) neighbour arrays for m of at most 9, with
    -1 pads anywhere in a row."""
    n = draw(st.integers(1, 12))
    L = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = [np.sort(rng.permutation(L)[: draw(st.integers(0, L))]) for _ in range(n)]
    Y = CSR(
        np.ones(sum(map(len, sets))),
        np.concatenate([np.empty(0, np.int64), *sets]),
        np.cumsum([0, *map(len, sets)]),
        (n, L),
    )
    m = draw(st.integers(1, 9))
    learners = []
    for _ in range(draw(st.sampled_from([1, 1, 2, 3, 5]))):
        k = draw(st.integers(0, n))
        index = np.array([rng.permutation(n)[:k] for _ in range(m)]).reshape(m, k)
        index[rng.random((m, k)) < 0.2] = -1
        sims = np.array([draw(_SIMS) for _ in range(m * k)]).reshape(m, k)
        learners.append((index, sims))
    return learners, Y


@settings(deadline=None, max_examples=300)
@given(case=label_side())
def test_label_scores_equal_scipy(case):
    learners, Y = case
    got = label_scores(learners, Y)
    want = sp_label_scores(learners, Y)
    want.sort_indices()  # label_scores stores each row in ascending label order
    assert _same_csr(got, want)


@settings(deadline=None, max_examples=300)
@given(case=label_side(), rows=st.sampled_from([1, 7, 10]), K=st.sampled_from([1, 5, 31]))
def test_rank_labels_equals_one_ranking_of_all_queries(case, rows, K):
    """`predictor.rank_labels` in blocks of 1, 7 or more than m queries, so
    that block boundaries fall inside the queries or nowhere, and at K of 1,
    5 or more than L, gives the bits of `top_k` of the scipy scores of all
    queries at once. `top_k`'s selection blocks take the same size."""
    learners, Y = case
    tile = rows * Y.shape[1]
    with mock.patch.multiple(predictor, _LABEL_FLOATS=tile, _SELECT_FLOATS=tile):
        labels, scores = rank_labels(learners, Y, K)
    want_labels, want_scores = top_k(from_scipy(sp_label_scores(learners, Y)), K)
    assert np.array_equal(labels, want_labels)
    assert _same(scores, want_scores)


@settings(deadline=None, max_examples=300)
@given(X=matrices(order="descending"), data=st.data())
def test_pair_dots_equal_scipy(X, data):
    """Rows in descending column order, as `normalize_rows` stores a parsed
    dataset, with pairs of a row with itself."""
    m = X.shape[0]
    if m == 0:
        return
    rows = st.integers(0, m - 1)
    a = np.array(data.draw(st.lists(rows, min_size=1, max_size=20)), dtype=np.int64)
    b = np.array([data.draw(st.sampled_from([int(i), data.draw(rows)])) for i in a], dtype=np.int64)
    assert _same(pair_dots(X, a, b), sp_pair_dots(X, a, b))


def test_pair_dots_of_a_normalized_parse_equal_scipy():
    """A row's columns are ascending as parsed, then descending once
    normalized; all pairs of 40 rows, including each row with itself."""
    rng = np.random.default_rng(9)
    lengths = rng.integers(0, 30, 40)
    indices = np.concatenate([np.sort(rng.permutation(200)[:n]) for n in lengths])
    X = CSR(rng.normal(size=indices.size), indices, np.cumsum([0, *lengths]), (40, 200))
    Xn = normalize_rows(X)[0]
    a, b = np.divmod(np.arange(40 * 40), 40)
    assert _same(pair_dots(Xn, a, b), sp_pair_dots(Xn, a, b))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3), max_size=40))
def test_sorted_unique_equals_np_unique(values):
    values = np.array(values, dtype=np.int64)
    got, want = sorted_unique(values), np.unique(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)
