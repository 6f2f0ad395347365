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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    from_scipy,
    label_scores,
    planned_values,
    position_major,
    scaled_rows,
    sp_label_scores,
    sp_normalize_rows,
    sp_pair_dots,
    sp_row_products,
    sp_vstack,
    to_scipy,
    vstack,
)

from ogeec import csr, ensemble, predictor
from ogeec.csr import (
    CSR,
    RowProducts,
    inv_norms,
    pair_dots,
    sorted_unique,
)
from ogeec.embedding import PlannedRows
from ogeec.ensemble import EnsembleSpec
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
    length; F holds zeros and values whose products underflow. The rows are
    X's unit rows, as scipy's `diags(1 / norms) @ X` stores them."""
    rng = np.random.default_rng(seed)
    F = rng.choice(np.array([0.0, -0.0, 1e-200, -3e-170, 0.5, -1.25, 7.0]), size=(b, X.shape[1]))
    F += rng.normal(size=F.shape) * (rng.random(F.shape) < 0.5)
    got = np.empty((b, X.shape[0]))
    with mock.patch.object(csr, "_CHUNK_FLOATS", chunk):
        RowProducts([X], b, np.arange(X.shape[1]))(np.ascontiguousarray(F.T), got)
    assert _same(got, sp_row_products(sp_normalize_rows(X)[0], F))


@settings(deadline=None, max_examples=200)
@given(data=st.data(), b=st.integers(1, 7), chunk=st.integers(1, 64), entries=st.integers(1, 40))
def test_row_products_plan_every_stored_entry(data, b, chunk, entries):
    """`RowProducts`, filled straight from one to three parts, holds the
    position-major layout and bits of the `vstack`ed unit rows of each part
    with every stored entry kept (`scaled_rows`: explicit zeros, products
    that underflow and rows whose squares overflow keep their entries, as
    ±0), and `PlannedRows`' plan is the columns of those entries; chunks of
    1 to 64 floats and `inv_norms` blocks of 1 to 40 entries put boundaries
    inside rows. Each part's `scaled_rows`, its zeros eliminated, is scipy's
    `diags(1 / norms) @ X` (`sp_normalize_rows`)."""
    top = data.draw(matrices())
    parts = [top] + [data.draw(matrices(d=top.shape[1])) for _ in range(data.draw(st.integers(0, 2)))]
    place = np.random.default_rng(b).permutation(top.shape[1]).astype(np.int32)
    for part in parts:
        nonzero = to_scipy(scaled_rows(part))
        nonzero.eliminate_zeros()
        assert _same_csr(from_scipy(nonzero), sp_normalize_rows(part)[0])
    stacked = scaled_rows(parts[0])
    for part in parts[1:]:
        stacked = vstack(stacked, scaled_rows(part))
    with mock.patch.multiple(csr, _CHUNK_FLOATS=chunk, _NORMALIZE_ENTRIES=entries):
        got = RowProducts(parts, b, place)
        order, chunks = position_major(stacked, b, place)
    planned = PlannedRows(*parts)
    assert (got.n, planned.n, planned.d) == (stacked.shape[0], *stacked.shape)
    assert np.array_equal(np.sort(planned.plan.columns), sorted_unique(stacked.indices))
    assert np.array_equal(got.order, order) and len(got.chunks) == len(chunks)
    assert got.cols.size == got.vals.size == stacked.nnz
    for (a, counts, offsets), (a0, counts0, offsets0, cols, vals) in zip(got.chunks, chunks):
        assert (a, counts) == (a0, counts0)
        assert [o - offsets[0] for o in offsets] == offsets0
        assert np.array_equal(got.cols[offsets[0] : offsets[-1]], cols)
        assert _same(planned_values(got, a, counts, offsets), vals)


def _rows_csr(rows, d, dtype):
    """A CSR of rows given as {column: value}, each in the order given."""
    indices = np.array([j for row in rows for j in row], dtype=np.int32)
    values = np.array([v for row in rows for v in row.values()], dtype=dtype)
    return CSR(values, indices, np.cumsum([0, *map(len, rows)]), (len(rows), d))


def test_row_products_hold_stored_values_and_row_scales():
    """A parsed set is planned at 8 bytes per nonzero, each entry's int32
    column and float32 stored value, with one float64 1 / norm per row in
    chunk order; each step's (1 / norm) * x then gives scipy's products of
    the float64 unit rows for a zero row (1 / norm 0), a row of explicit
    zeros, ±0 entries between nonzero values and two rows longer than one
    chunk of 2^16 floats. A float64 part, whose value times its 1 / norm
    is subnormal, keeps float64 values and the same bits."""
    rng = np.random.default_rng(3)
    b, d = 2, 70_000

    def long_row(n):
        cols = rng.permutation(d)[:n].tolist()
        values = rng.uniform(-2, 2, n)
        values[::97] = 0.0
        return dict(zip(cols, values.tolist()))

    short = [{}, {5: 0.0, 9: -0.0}, {1: 0.0, 4: 2.5, 7: -0.0, 8: -1.0, 30: 0.0}, {69_999: 3.0}]
    rows = [long_row(66_000), *short[:3], long_row(66_500), short[3]]
    parsed = _rows_csr(rows, d, np.float32)
    tiny = _rows_csr([{0: 1e150, 1: 1e-160, 2: 3.0}, {3: -1e-300, 0: 1e-10}], d, np.float64)
    F = rng.normal(size=(b, d))
    F[:, ::13] = 0.0
    FT = np.ascontiguousarray(F.T)
    place = np.arange(d, dtype=np.int32)
    got = RowProducts([parsed], b, place)
    assert got.cols.dtype == np.int32 and got.vals.dtype == np.float32
    assert got.cols.nbytes + got.vals.nbytes == 8 * parsed.nnz
    assert got.scale.dtype == np.float64 and got.scale.shape == (parsed.shape[0],)
    assert _same(got.scale, inv_norms(parsed)[got.order])
    assert 0.0 in got.scale and max(map(len, rows)) > csr._CHUNK_FLOATS
    out = np.empty((b, parsed.shape[0]))
    got(FT, out)
    as_float64 = parsed._replace(data=parsed.data.astype(np.float64))
    assert _same(out, sp_row_products(sp_normalize_rows(as_float64)[0], F))
    small = _rows_csr(short, d, np.float32)
    mixed = RowProducts([small, tiny], b, place)
    assert mixed.vals.dtype == np.float64
    values = np.concatenate([planned_values(mixed, *chunk) for chunk in mixed.chunks])
    assert np.any((values != 0) & (np.abs(values) < np.finfo(np.float64).tiny))
    out = np.empty((b, mixed.n))
    mixed(FT, out)
    small64 = small._replace(data=small.data.astype(np.float64))
    assert _same(out, sp_row_products(sp_normalize_rows(vstack(small64, tiny))[0], F))


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


def test_label_scores_after_a_first_learner_that_hits_no_cell():
    """A first learner of -1 pads alone, whose bincount is int64, starts the
    sum as scipy's empty S_1 does: the later learners' scores, over E."""
    Y = CSR(np.ones(5), np.array([0, 2, 1, 2, 3]), np.array([0, 2, 4, 5]), (3, 4))
    empty = (np.full((2, 3), -1), np.zeros((2, 3)))
    later = (np.array([[0, 2, -1], [1, -1, -1]]), np.array([[0.5, 0.25, 0.0], [1.0, 0.0, 0.0]]))
    for learners in ([empty, later], [empty, later, empty], [empty]):
        got = label_scores(learners, Y)
        want = sp_label_scores(learners, Y)
        want.sort_indices()
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
    """Rows in descending column order, with pairs of a row with itself:
    the dot products of the unit rows that scipy's `diags(1 / norms) @ X`
    stores, from X and its rows' 1 / norms."""
    m = X.shape[0]
    if m == 0:
        return
    rows = st.integers(0, m - 1)
    a = np.array(data.draw(st.lists(rows, min_size=1, max_size=20)), dtype=np.int64)
    b = np.array([data.draw(st.sampled_from([int(i), data.draw(rows)])) for i in a], dtype=np.int64)
    assert _same(pair_dots(X, inv_norms(X), a, b), sp_pair_dots(sp_normalize_rows(X)[0], a, b))


def test_pair_dots_of_a_normalized_parse_equal_scipy():
    """A row's columns are ascending as parsed, then descending once
    normalized; all pairs of 40 rows, including each row with itself."""
    rng = np.random.default_rng(9)
    lengths = rng.integers(0, 30, 40)
    indices = np.concatenate([np.sort(rng.permutation(200)[:n]) for n in lengths])
    X = CSR(rng.normal(size=indices.size), indices, np.cumsum([0, *lengths]), (40, 200))
    Xn = sp_normalize_rows(X)[0]
    a, b = np.divmod(np.arange(40 * 40), 40)
    assert _same(pair_dots(X, inv_norms(X), a, b), sp_pair_dots(Xn, a, b))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3), max_size=40))
def test_sorted_unique_equals_np_unique(values):
    values = np.array(values, dtype=np.int64)
    got, want = sorted_unique(values), np.unique(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(deadline=None, max_examples=100)
@given(case=label_side(), rows=st.sampled_from([1, 7, 10]), K=st.sampled_from([1, 5, 31]))
def test_rank_prefixes_equal_scipy_at_every_size(case, rows, K):
    """`predictor.rank_prefixes` in blocks of 1, 7 or more than m queries
    gives each size s, requested in descending order and twice for s = 1,
    the bits of `top_k` of the scipy scores of the first s learners, and
    `rank_labels` of each learner alone those of that learner's."""
    learners, Y = case
    E = len(learners)
    tile = rows * Y.shape[1]
    with mock.patch.multiple(predictor, _LABEL_FLOATS=tile, _SELECT_FLOATS=tile):
        fused = predictor.rank_prefixes(learners, Y, K, [*range(E, 0, -1), 1])
        assert list(fused) == list(range(1, E + 1))
        wants = [(fused[s], learners[:s]) for s in fused]
        wants += [(rank_labels([learner], Y, K), [learner]) for learner in learners]
    for (labels, scores), used in wants:
        want_labels, want_scores = top_k(from_scipy(sp_label_scores(used, Y)), K)
        assert np.array_equal(labels, want_labels)
        assert _same(scores, want_scores)


def test_rank_prefixes_refuse_sizes_outside_one_to_e():
    """No ranking of 0 learners, or of more than E, exists: rather than
    return an array it never filled, the pass refuses such a size, and an
    empty `sizes`, before it builds any label block."""
    Y = CSR(np.ones(3), np.array([0, 1, 1]), np.array([0, 2, 3]), (2, 2))
    learner = (np.array([[0, 1]]), np.array([[0.5, 0.25]]))
    with mock.patch.object(predictor, "learner_scores", side_effect=AssertionError):
        for sizes in ([1, 3], [2], [0], [0, 1], []):
            with pytest.raises(ValueError, match=r"sizes must be nonempty and lie in \[1, 1\]"):
                predictor.rank_prefixes([learner], Y, 2, sizes)


def test_rank_prefixes_build_each_learners_scores_once_per_block():
    """Ten learners at every size from 1 to 10, in three blocks of queries,
    take ten label blocks per block of queries, where ranking each size
    apart takes 55; the ensemble-size sweep, which also ranks each learner
    alone, takes twenty."""
    rng = np.random.default_rng(2)
    Y = CSR(np.ones(40), rng.integers(0, 6, 40), np.arange(0, 41, 2), (20, 6))
    learners = [(rng.integers(0, 20, (9, 3)), rng.random((9, 3))) for _ in range(10)]
    spec = EnsembleSpec(seeds=tuple(range(10)), d=10, r=2, k=3)
    calls = []

    def counted(*args):
        calls.append(1)
        return csr.learner_scores(*args)

    with mock.patch.multiple(predictor, learner_scores=counted, _LABEL_FLOATS=3 * 6), \
            mock.patch.object(ensemble, "learner_neighbours", lambda *a, **kw: iter(learners)):
        predictor.rank_prefixes(learners, Y, 4, range(1, 11))
        assert len(calls) == 3 * 10
        calls.clear()
        ensemble.sweep_ensemble_size(spec, mock.Mock(labels=Y), None, range(1, 11), 4)
        assert len(calls) == 3 * 20
