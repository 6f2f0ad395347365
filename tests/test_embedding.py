import dataclasses
import hashlib
import json
import os
import pathlib
import struct
import tracemalloc
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    box_muller,
    Row,
    embed_single,
    feature_row,
    feature_sha256,
    float64_features,
    fuse,
    gaussian_words,
    planned_values,
    position_major,
    project_full,
    ranking_dicts,
    score_dicts,
    scaled_rows,
    score_matrix,
    truth_matrix,
    sp_normalize_rows,
    vstack,
)

from ogeec import csr, data, embedding
from ogeec.cli import main
from ogeec.csr import CSR
from ogeec.data import SparseDataset, generate_synthetic, parse_dataset, split_dataset, write_dataset
from ogeec.embedding import (
    EmbeddedMatrix,
    EmbeddingSpec,
    PlannedRows,
    _philox_words,
    _project,
    column_plan,
    embed,
    load_cache,
    materialize_rows,
    project_csr,
    save_cache,
)
from ogeec.ensemble import fused_scores, learner_embeddings, make_ensemble_spec
from ogeec.jl import measure_distortion
from ogeec.predictor import batch_predict

GOLDEN = pathlib.Path(__file__).parent / "golden" / "embed_single_seed42_d10_r4.json"


def column_norms(matrix: EmbeddedMatrix) -> np.ndarray:
    return np.sqrt(np.sum(np.square(matrix.data, dtype=np.float64), axis=0))


def test_spec_validation():
    with pytest.raises(ValueError):
        EmbeddingSpec(seed=0, d=10, r=11)
    with pytest.raises(ValueError):
        EmbeddingSpec(seed=0, d=10, r=0)
    EmbeddingSpec(seed=-123, d=10, r=10)  # negative seeds are legal


def full_rows(spec: EmbeddingSpec, start: int, stop: int) -> np.ndarray:
    """F[start:stop] in column order: `materialize_rows` at the plan of every
    column, put back in column order."""
    plan = column_plan(np.ones(spec.d, dtype=bool))
    return materialize_rows(spec, start, stop, cols=plan).take(plan.place(spec.d), axis=1)


def definition_rows(spec: EmbeddingSpec, start: int, stop: int) -> np.ndarray:
    """F[start:stop] from the definitional stream, `box_muller`."""
    rows = [box_muller(spec.seed, i, spec.d) for i in range(start, stop)]
    return np.array(rows).reshape(stop - start, spec.d)


def test_materialize_row_deterministic():
    spec = EmbeddingSpec(seed=7, d=500, r=8)
    assert np.array_equal(full_rows(spec, 3, 4), full_rows(spec, 3, 4))


def test_materialize_rows_are_distinct_streams():
    spec = EmbeddingSpec(seed=7, d=500, r=8)
    assert not np.array_equal(full_rows(spec, 0, 1), full_rows(spec, 1, 2))


def test_materialize_row_out_of_range():
    spec = EmbeddingSpec(seed=7, d=500, r=8)
    plan = column_plan(np.ones(spec.d, dtype=bool))
    with pytest.raises(IndexError):
        materialize_rows(spec, 8, 9, cols=plan)
    with pytest.raises(IndexError):
        materialize_rows(spec, -1, 0, cols=plan)


def test_materialize_rows_matches_single_rows():
    spec = EmbeddingSpec(seed=11, d=300, r=10)
    block = full_rows(spec, 2, 7)
    for i in range(2, 7):
        assert np.array_equal(block[i - 2], full_rows(spec, i, i + 1)[0])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    count=st.integers(1, 300),
    data=st.data(),
)
def test_gaussian_row_equals_box_muller_definition(seed, count, data):
    """A row of F drawn at every column is the definitional row bit for bit."""
    stream = data.draw(st.integers(0, count - 1))
    spec = EmbeddingSpec(seed=seed, d=count, r=stream + 1)
    row = full_rows(spec, stream, stream + 1)
    assert row.tobytes() == definition_rows(spec, stream, stream + 1).tobytes()


@pytest.mark.parametrize("count", [782_585, 782_584])
def test_gaussian_row_equals_box_muller_definition_at_wide_d(count):
    spec = EmbeddingSpec(seed=3, d=count, r=12)
    assert full_rows(spec, 11, 12).tobytes() == box_muller(3, 11, count).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    streams=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    m=st.integers(1, 40) | st.sampled_from([391_292, 391_293]),
    start=st.integers(0, 9),
)
def test_philox_halves_are_the_stream_in_order(seed, streams, m, start):
    """A row's u1 words, then its u2 words, drawn from any offset are those
    words of its substream, from one generator per thread re-keyed for each
    row: an m that splits Philox's four-word blocks (m odd) leaves no
    buffered word for the next row, and two threads drawing at once do not
    share one."""

    def halves(stream):
        first = _philox_words(seed, stream, start, m)
        return np.concatenate([first, _philox_words(seed, stream, m + start, m)])

    def expected(stream):
        words = gaussian_words(seed, stream, 2 * m + start)
        return np.concatenate([words[start : start + m], words[m + start :]])

    want = [expected(s) for s in streams]
    assert all(np.array_equal(got, w) for got, w in zip(map(halves, streams), want))
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(halves, streams * 2))
    assert all(np.array_equal(g, w) for g, w in zip(got, want * 2))


def _support(draw, d: int) -> np.ndarray:
    kind = draw(st.sampled_from(["empty", "full", "last", "random"]))
    used = np.zeros(d, dtype=bool)
    if kind == "full":
        used[:] = True
    elif kind == "last":
        used[-1] = True
    elif kind == "random":
        used[:] = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    return used


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_materialize_rows_at_a_plan_equals_full_rows_at_its_columns(data):
    """F[start:stop, plan.columns] bit for bit, the used even columns first:
    d of 1, 2, odd and even; the last column of an odd d; empty, full and
    random supports; drawn in pieces of any size into the head of a row- or
    column-major `out`."""
    d = data.draw(st.sampled_from([1, 2, 3, 4, 5, 8, 63, 64]) | st.integers(1, 300))
    used = _support(data.draw, d)
    spec = EmbeddingSpec(seed=data.draw(st.integers(-(2**63), 2**63 - 1)), d=d, r=min(d, 4))
    start = data.draw(st.integers(0, spec.r))
    stop = data.draw(st.integers(start, spec.r))
    plan = column_plan(used)
    assert np.array_equal(np.sort(plan.columns), np.flatnonzero(used))
    assert np.all(plan.columns[: plan.cos.size] % 2 == 0)
    assert np.all(plan.columns[plan.cos.size :] % 2 == 1)
    assert np.array_equal(plan.place(d)[plan.columns], np.arange(plan.columns.size))
    full = definition_rows(spec, start, stop)
    # pieces of a few pairs and rows, so a row is drawn in many pieces
    pieces = {"_PIECE_FLOATS": data.draw(st.integers(1, 64)), "_PIECE_PAIRS": data.draw(st.integers(1, 8))}
    for layout in ("C", "F"):
        out = np.full((stop - start + 1, plan.columns.size), np.nan, order=layout)
        with mock.patch.multiple(embedding, **pieces):
            part = materialize_rows(spec, start, stop, cols=plan, out=out)
        assert part.shape == (stop - start, plan.columns.size)
        assert part.tobytes() == np.ascontiguousarray(full[:, plan.columns]).tobytes()
        assert np.isnan(out[stop - start :]).all()


def _csr(rows, d: int) -> CSR:
    """CSR rows from lists of (column, value), kept in the order given."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    cols = [j for r in rows for j, _ in r]
    vals = [v for r in rows for _, v in r]
    return CSR(
        np.array(vals, dtype=np.float64), np.array(cols, dtype=np.int32), indptr, (len(rows), d)
    )


def _random_rows(sizes, d: int, seed: int = 3) -> CSR:
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        cols = np.sort(rng.choice(d, size=n, replace=False)).tolist()
        rows.append(list(zip(cols, rng.normal(size=n).tolist())))
    return _csr(rows, d)


_PROJECT_CASES = {
    "random": _random_rows([0, 7, 1, 30, 12, 0, 5], 301),
    "last-column-of-odd-d": _csr([[(300, 2.0)], [(0, 1.0), (300, -0.5)], [(1, 3.0)]], 301),
    "unsorted-rows": _csr([[(9, 1.5), (2, -1.0), (4, 0.25)], [(3, 2.0), (0, 1.0)]], 10),
    "all-zero": _csr([[], [], []], 301),
    "no-rows": _csr([], 301),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize("case", list(_PROJECT_CASES))
def test_project_equals_full_f_oracle(monkeypatch, case, workers, dtype):
    """Drawing F only at the used columns leaves every projected element the
    same stored-order sum as drawing all of F."""
    X = _PROJECT_CASES[case]
    spec = EmbeddingSpec(seed=5, d=X.shape[1], r=min(X.shape[1], 13))
    expect = project_full(spec, sp_normalize_rows(X)[0], dtype)
    # blocks of 1 row, of 5 (ragged), and of r + 1 (one block per worker),
    # each drawn in one piece and in pieces of 2 pairs and 3 rows
    for block in (1, 5, spec.r + 1):
        monkeypatch.setattr(embedding, "_row_block", lambda c: block)
        for floats, pairs in ((embedding._PIECE_FLOATS, embedding._PIECE_PAIRS), (6, 2)):
            with mock.patch.multiple(embedding, _PIECE_FLOATS=floats, _PIECE_PAIRS=pairs):
                out = _project(spec, PlannedRows(X, r=spec.r, workers=workers), dtype)
            assert out.shape == expect.shape and out.dtype == dtype
            assert out.tobytes(order="A") == np.asfortranarray(expect).tobytes(order="A")


def _desk_shaped() -> CSR:
    """1,900 samples of 15 features over d = 8,000, using c = 4,800 columns,
    as the desk benchmark corpus does (so `_row_block(c)` is 208)."""
    n, per_row, c = 1900, 15, 4800
    indices = (np.arange(n * per_row) * 7 % c).astype(np.int32)  # distinct within a row
    values = np.random.default_rng(2).uniform(0.1, 2.0, indices.size)
    return CSR(values, indices, np.arange(0, indices.size + 1, per_row), (n, 8000))


@pytest.mark.parametrize(
    "workers, bounds, height", [(1, [0, 100], 100), (2, [0, 50, 100], 50), (3, [0, 33, 66, 100], 34)]
)
def test_plan_is_chunked_for_the_blocks_it_runs(workers, bounds, height):
    """The plan alone decides a projection's sizes: at desk's shape and
    r = 100, F's rows split into one range per worker, and each range runs
    blocks of at most a range (below `_row_block`'s 208 rows), for which the
    rows are chunked: on 2 workers, 50-row blocks and _CHUNK_FLOATS // 51
    rows per chunk."""
    X = _desk_shaped()
    planned = PlannedRows(X, r=100, workers=workers)
    assert planned.plan.columns.size == 4800 and embedding._row_block(4800) == 208
    assert (planned.bounds, planned.height) == (bounds, height)
    assert planned.products.rows == csr._CHUNK_FLOATS // (height + 1)


@pytest.mark.parametrize("r", [7, 100, 200])
def test_project_is_identical_across_workers_and_block_heights(monkeypatch, r):
    """`_project` gives the bits of the full-F oracle on 1, 2 and 3 workers,
    with `_row_block` forced to 1, to 4 and to 3 (which divides no r here),
    each plan chunked for the blocks it runs."""
    X = _PROJECT_CASES["random"]
    spec = EmbeddingSpec(seed=5, d=X.shape[1], r=r)
    expect = np.asfortranarray(project_full(spec, sp_normalize_rows(X)[0], np.float64)).tobytes(order="A")
    for block in (1, 4, 3):
        monkeypatch.setattr(embedding, "_row_block", lambda c: block)
        for workers in (1, 2, 3):
            planned = PlannedRows(X, r=r, workers=workers)
            assert planned.height == min(block, -(-r // workers))
            assert _project(spec, planned, np.float64).tobytes(order="A") == expect


def test_a_spec_of_another_r_than_the_plan_is_refused():
    """A plan is sized for its r: projecting it at another r, by any of the
    three entry points, is refused in one line before any row of F is drawn."""
    X = _PROJECT_CASES["random"]
    planned = PlannedRows(X, r=7, workers=2)
    spec = EmbeddingSpec(seed=5, d=X.shape[1], r=8)
    message = "planned (dimensionality, r) = (301, 7) != the spec's (301, 8)"
    entry_points = (
        lambda: _project(spec, planned, np.float64),
        lambda: embedding.project_rows(spec, planned),
        lambda: list(embedding.embed_prefixes(spec, planned, [8])),
    )
    with mock.patch.object(embedding, "materialize_rows", side_effect=AssertionError):
        for project in entry_points:
            with pytest.raises(ValueError) as exc:
                project()
            assert str(exc.value) == message


def test_gaussian_stream_moments():
    v = full_rows(EmbeddingSpec(seed=42, d=100000, r=1), 0, 1)[0]
    assert abs(v.mean()) < 0.02
    assert abs(v.var() - 1.0) < 0.03


def test_seed_changes_stream():
    one, two = (full_rows(EmbeddingSpec(seed=s, d=64, r=1), 0, 1) for s in (1, 2))
    assert not np.array_equal(one, two)


def test_embed_zero_vector_gives_zero_column(small_spec):
    from ogeec.data import _assemble

    rows = [
        (np.array([], dtype=np.int64), np.array([], dtype=np.float32)),
        (np.array([3], dtype=np.int64), np.array([2.0], dtype=np.float32)),
    ]
    labels = [np.array([0], dtype=np.int64)] * 2
    ds = _assemble(rows, labels, small_spec.d, 1)
    emb = embed(small_spec, ds)
    assert np.all(emb.data[:, 0] == 0.0)
    assert abs(column_norms(emb)[1] - 1.0) < 1e-5


def test_embed_one_hot_selects_normalized_matrix_column():
    spec = EmbeddingSpec(seed=5, d=64, r=16)
    j = 17
    x = Row(np.array([j]), np.array([5.0], dtype=np.float32))
    out = embed_single(spec, x)
    F = definition_rows(spec, 0, spec.r)
    col = F[:, j] / np.linalg.norm(F[:, j])
    np.testing.assert_allclose(out, col.astype(np.float32), rtol=0, atol=1e-6)


def test_embed_scale_invariance(small_spec, small_ds):
    x = feature_row(small_ds, 7)
    # power-of-two scale: float32-exact, so pre-normalization cancels bitwise
    x4 = Row(x.indices, x.values * np.float32(4.0))
    assert np.array_equal(embed_single(small_spec, x), embed_single(small_spec, x4))
    x5 = Row(x.indices, x.values * np.float32(5.0))
    np.testing.assert_allclose(
        embed_single(small_spec, x), embed_single(small_spec, x5), rtol=0, atol=1e-6
    )


def test_embed_column_norms(small_embedded):
    norms = column_norms(small_embedded)
    assert np.all(np.abs(norms - 1.0) < 1e-5)
    assert small_embedded.data.dtype == np.float32
    assert small_embedded.data.flags["F_CONTIGUOUS"]


def test_embed_single_agrees_with_embed_columns(small_spec, small_ds, small_embedded):
    for i in range(0, 50):
        q = embed_single(small_spec, feature_row(small_ds, i))
        assert np.array_equal(q, small_embedded.data[:, i]), i


def test_embed_single_golden():
    """`project_csr` of one sample's CSR row, its float32 values widened."""
    golden = json.loads(GOLDEN.read_text())
    spec = EmbeddingSpec(**golden["spec"])
    indices = np.array(golden["input"]["indices"], dtype=np.int64)
    values = np.array(golden["input"]["values"], dtype=np.float32).astype(np.float64)
    X = CSR(values, indices, np.array([0, indices.size]), (1, spec.d))
    out = project_csr(spec, X).ravel()
    assert [float(v) for v in out] == golden["expected"]


def test_scaled_row_source_leaves_embedding_unchanged(small_spec, small_ds, monkeypatch):
    """Re-normalization absorbs any common scale on F; a power-of-two scale
    is exact in float arithmetic, so outputs match bitwise."""

    def scaled4(spec, start, stop, *, cols, out=None, scratch=None):
        return 4.0 * materialize_rows(spec, start, stop, cols=cols)

    def scaled3(spec, start, stop, *, cols, out=None, scratch=None):
        return 3.0 * materialize_rows(spec, start, stop, cols=cols)

    base = embed(small_spec, small_ds)
    monkeypatch.setattr(embedding, "materialize_rows", scaled4)
    times4 = embed(small_spec, small_ds)
    assert np.array_equal(base.data, times4.data)
    monkeypatch.setattr(embedding, "materialize_rows", scaled3)
    times3 = embed(small_spec, small_ds)
    np.testing.assert_allclose(base.data, times3.data, rtol=0, atol=1e-6)


def test_norm_preservation_in_expectation():
    """Mean over 200 seeds of ||Fx||^2 / r stays within 5% of 1 for unit x."""
    d, r = 400, 50
    rng = np.random.default_rng(1)
    x = np.zeros(d)
    idx = np.sort(rng.choice(d, 20, replace=False))
    x[idx] = rng.uniform(0.5, 1.5, size=20)
    x /= np.linalg.norm(x)
    vals = []
    for seed in range(200):
        F = full_rows(EmbeddingSpec(seed=seed, d=d, r=r), 0, r)
        vals.append(np.sum((F @ x) ** 2) / r)
    assert abs(np.mean(vals) - 1.0) < 0.05


def test_embed_worker_count_invariance(small_spec, small_ds):
    one = embed(small_spec, small_ds, workers=1)
    many = embed(small_spec, small_ds, workers=4)
    assert np.array_equal(one.data, many.data)


@pytest.mark.parametrize("r", [32, 4])
@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_projection_generates_each_row_once(small_ds, monkeypatch, r, workers):
    """Workers split F's rows: one call materializes every row exactly once,
    and the output is byte-identical to one worker walking F in one block."""
    spec = EmbeddingSpec(seed=42, d=small_ds.d, r=r)
    reference = embed(spec, small_ds, workers=1)
    generated = []

    def counting(spec, start, stop, *, cols, out=None, scratch=None):
        generated.extend(range(start, stop))
        return materialize_rows(spec, start, stop, cols=cols, out=out, scratch=scratch)

    # blocks of 5 rows, so a worker's range spans several blocks
    monkeypatch.setattr(embedding, "_row_block", lambda d: 5)
    monkeypatch.setattr(embedding, "materialize_rows", counting)
    out = embed(spec, small_ds, workers=workers)
    assert sorted(generated) == list(range(r))
    assert np.array_equal(out.data, reference.data)


def test_fused_scores_generates_each_row_once_per_learner(monkeypatch):
    """Each learner projects its train set and every query in one pass over F,
    however many queries there are."""
    ds = generate_synthetic(
        n=4200, d=200, L=10, sparsity=5, labels_per_sample=1, clusters=4, seed=5
    )
    train, test = split_dataset(ds, 60)
    assert test.n > 4096
    spec = make_ensemble_spec(3, 2, d=ds.d, r=8, k=3)
    generated = Counter()

    def counting(spec, start, stop, *, cols, out=None, scratch=None):
        generated.update((spec.seed, i) for i in range(start, stop))
        return materialize_rows(spec, start, stop, cols=cols, out=out, scratch=scratch)

    monkeypatch.setattr(embedding, "materialize_rows", counting)
    fused_scores(spec, train, test, 3, workers=2)
    assert generated == Counter({(s, i): 1 for s in spec.seeds for i in range(spec.r)})


def dataset_of(rows, d: int, L: int = 4) -> SparseDataset:
    """A dataset whose sample i has the {index: value} features rows[i]."""
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    features = CSR(
        np.array([r[i] for r in rows for i in sorted(r)], dtype=np.float32),
        np.array([i for r in rows for i in sorted(r)], dtype=np.int64),
        indptr,
        (len(rows), d),
    )
    return SparseDataset(features, truth_matrix([[i % L] for i in range(len(rows))], L))


def _one_pass_cases():
    rng = np.random.default_rng(8)

    def rows(n, lo, hi, empty_every=0):
        out = []
        for i in range(n):
            cols = rng.choice(np.arange(lo, hi), 6, replace=False)
            empty = empty_every and i % empty_every == 0
            out.append({} if empty else {int(j): rng.uniform(0.1, 3.0) for j in cols})
        return out

    d = 300
    return {
        "zero-rows-in-train": (rows(40, 0, d, empty_every=7), rows(25, 0, d)),
        "zero-rows-in-test": (rows(40, 0, d), rows(25, 0, d, empty_every=4)),
        "test-features-unseen-in-train": (rows(40, 0, 150), rows(25, 150, d)),
        "one-test-sample": (rows(40, 0, d), rows(1, 0, d)),
        "empty-rows-in-both": (rows(40, 0, d, empty_every=3), rows(25, 0, d, empty_every=2)),
    }


_CASES = _one_pass_cases()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_one_pass_equals_separate_projections(monkeypatch, tmp_path, case, workers):
    """Projecting train and test together (`learner_embeddings`) gives
    bit-identical train matrices, query blocks and fused scores to embedding
    and projecting them apart, for blocks of 1 row, 5 rows (ragged) and
    r + 1 rows, and with one cached learner between uncached ones that
    share the command's planned rows."""
    train_rows, test_rows = _CASES[case]
    train, test = dataset_of(train_rows, 300), dataset_of(test_rows, 300)
    espec = make_ensemble_spec(11, 3, d=300, r=12, k=3)
    apart = [
        (embed(ls, train), project_csr(ls, float64_features(test)))
        for ls in map(espec.learner, range(espec.size))
    ]
    labels = train.labels
    per_learner = [score_dicts(score_matrix(*batch_predict(m, q, espec.k), labels)) for m, q in apart]
    reference = [fuse(list(scores)) for scores in zip(*per_learner)]

    prefix = str(tmp_path / "emb")
    save_cache(prefix, apart[1][0], espec.learner(1), train)  # learner 1 cached, 0 and 2 projected
    for block in (1, 5, espec.r + 1):
        monkeypatch.setattr(embedding, "_row_block", lambda c: block)
        for cache in (None, prefix):
            found = learner_embeddings(espec, train, test, workers=workers, cache=cache)
            for (matrix, queries), (_, got, got_queries) in zip(apart, found, strict=True):
                assert (got.r, got.n) == (matrix.r, matrix.n)
                assert got.data.flags.f_contiguous and got_queries.shape == queries.shape
                assert np.array_equal(got.data, matrix.data)
                assert np.array_equal(got_queries, queries)
            fused = fused_scores(espec, train, test, train.L, workers=workers, cache=cache)
            assert ranking_dicts(fused) == reference


def _assert_planned_as_old_path(planned: PlannedRows, parts) -> None:
    """`planned` holds the bits of the old path: each part's unit rows with
    every stored entry kept (`scaled_rows`; without its zeros, the bits of
    the old `normalize_rows`), the parts stacked by `vstack`, the column
    plan of every stored entry, and their position-major layout built in one
    pass (`position_major`)."""
    X = scaled_rows(float64_features(parts[0]))
    for part in parts[1:]:
        X = vstack(X, scaled_rows(float64_features(part)))
    used = np.zeros(X.shape[1], dtype=bool)
    used[X.indices] = True
    plan = column_plan(used)
    for field in dataclasses.fields(plan):
        assert np.array_equal(getattr(planned.plan, field.name), getattr(plan, field.name))
    assert (planned.n, planned.d) == X.shape
    order, chunks = position_major(X, planned.height, plan.place(X.shape[1]))
    P = planned.products
    assert np.array_equal(P.order, order) and len(P.chunks) == len(chunks)
    assert P.cols.size == P.vals.size == X.nnz
    for (a, counts, offsets), (a0, counts0, offsets0, cols, vals) in zip(P.chunks, chunks):
        assert (a, counts) == (a0, counts0)
        assert [o - offsets[0] for o in offsets] == offsets0
        assert np.array_equal(P.cols[offsets[0] : offsets[-1]], cols)
        assert planned_values(P, a, counts, offsets).tobytes() == vals.tobytes()


def _adversarial_sets():
    """Train and test sets with empty rows, explicit zero values, rows whose
    values are all zero, one-entry rows and 300-entry rows, which are longer
    than a normalize block and than a chunk at the sizes the test sets."""
    rng = np.random.default_rng(12)
    d = 400

    def row(n):
        return {int(j): float(rng.uniform(-3, 3)) for j in rng.choice(d, n, replace=False)}

    mixed = [{}, row(5), {7: 0.0, 9: 2.0}, {3: 0.0, 4: 0.0}, {11: 1.5}, row(300), {}, row(40),
             {0: -1.0}, {399: 0.0, 5: 1.0, 6: 0.0}, row(2)]
    cases = {
        "mixed-train-one-test-sample": (mixed, [row(7)]),
        "one-empty-test-sample": (mixed, [{}]),
        "zeros-only": ([{1: 0.0}, {}, {2: 0.0, 3: 0.0}], [{5: 0.0}]),
        "long-test-rows": ([{1: 1.0}], [row(300), {}, {8: 2.0}, row(300), {9: 0.0}]),
    }
    return {name: (dataset_of(a, d), dataset_of(b, d)) for name, (a, b) in cases.items()}


_ADVERSARIAL = _adversarial_sets()


@pytest.mark.parametrize("entries", [1, 7, csr._NORMALIZE_ENTRIES])
# chunk sizes: a few floats, the default, and 2^17 floats, the default before
# chunks shrank, which holds every set here in one chunk
@pytest.mark.parametrize("chunk", [4, 12, csr._CHUNK_FLOATS, 1 << 17])
@pytest.mark.parametrize("case", sorted(_ADVERSARIAL))
def test_streamed_rows_equal_the_old_path(monkeypatch, case, chunk, entries):
    """`PlannedRows` normalizes in blocks of 1, 7 or the default entries
    and fills chunks of 1, 2, 13,107 (the default) or 26,214 rows (b = 4)
    position by position; its stacked rows and the test rows it plans alone
    hold the old path's bits."""
    train, test = _ADVERSARIAL[case]
    monkeypatch.setattr(embedding, "_row_block", lambda c: 4)
    with mock.patch.multiple(csr, _NORMALIZE_ENTRIES=entries, _CHUNK_FLOATS=chunk):
        _assert_planned_as_old_path(PlannedRows(train.features, test.features, r=8), [train, test])
        _assert_planned_as_old_path(PlannedRows(test.features, r=8), [test])


def test_train_test_rows_holds_a_test_copy_planned_on_demand():
    """No normalized copy of the test rows is held beside the stacked rows:
    the test set is normalized and planned alone (`PlannedRows` of its CSR)
    only on demand, which `learner_embeddings` makes when a learner is
    cached, and that plan holds the test rows once."""
    train, test = (dataset_of(part, 300) for part in _CASES["zero-rows-in-test"])
    rows = PlannedRows(train.features, test.features, r=9)
    assert (rows.n, rows.d) == (train.n + test.n, train.d)
    assert not any(isinstance(v, (CSR, np.ndarray)) for v in vars(rows).values())
    assert "test" not in vars(rows)
    alone = PlannedRows(test.features, r=9)
    assert (alone.n, alone.d) == (test.n, test.d)
    assert alone.products.cols.size == test.features.nnz
    _assert_planned_as_old_path(alone, [test])
    assert all(a.dtype == np.int32 for a in vars(rows.plan).values())
    assert rows.products.cols.dtype == np.int32


# train and test samples as {column: value}: explicit +0 and -0 entries
# before, between and after the nonzero values, column 3 held by zeros
# alone, and a train and a test sample of zeros alone
_EXPLICIT_ZEROS = (
    [{0: 0.0, 7: 1.5, 9: 0.0, 12: -2.0, 30: 0.75}, {3: -0.0, 8: 0.5},
     {1: 2.0, 3: 0.0, 5: 0.0, 6: -1.0, 7: 3.0, 40: 0.0}, {2: 1.0, 10: -0.5, 20: 0.25},
     {3: 0.0, 11: -0.0}, {4: 1.25, 9: 2.0, 33: -0.0, 41: 1.0}],
    [{3: 0.0, 5: 2.0, 7: -1.0, 12: 0.0}, {3: -0.0, 8: 0.0}, {2: 0.5, 9: 0.0, 30: 1.0, 47: 0.0}],
)


@pytest.mark.parametrize("workers", [1, 2])
def test_explicit_zeros_change_no_output_bit(tmp_path, workers):
    """Files whose samples hold `j:0` and `j:-0` pairs project and predict
    to the same bits as the files without those pairs: both sets stacked
    and the test set alone (`PlannedRows`), chunks of one row and of
    the default size, and the `predict` TSV bytes."""
    d, L = 48, 3
    paths = {}
    for kind, keep in (("zeros", lambda v: True), ("plain", lambda v: v != 0)):
        for name, rows in zip(("train", "test"), _EXPLICIT_ZEROS):
            lines = [f"{len(rows)} {d} {L}"]
            for i, row in enumerate(rows):
                feats = [f"{j}:{v:g}" for j, v in sorted(row.items()) if keep(v)]
                lines.append(" ".join([str(i % L), *feats]))
            paths[kind, name] = tmp_path / f"{kind}-{name}.txt"
            paths[kind, name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    zeros, plain = ([parse_dataset(paths[kind, n]) for n in ("train", "test")] for kind in ("zeros", "plain"))
    assert zeros[0].features.nnz > plain[0].features.nnz
    spec = EmbeddingSpec(seed=4, d=d, r=16)
    for chunk in (16, csr._CHUNK_FLOATS):
        with mock.patch.object(csr, "_CHUNK_FLOATS", chunk):
            for sets, alone in ((zeros, plain), (zeros[1:], plain[1:])):
                got = embedding.project_rows(spec, PlannedRows(*(ds.features for ds in sets), r=16, workers=workers))
                want = embedding.project_rows(spec, PlannedRows(*(ds.features for ds in alone), r=16, workers=workers))
                assert got.tobytes(order="A") == want.tobytes(order="A")

    model = tmp_path / "model.txt"
    train = ["train", "--train", str(paths["plain", "train"]), "--model", str(model)]
    assert main([*train, "--r", "16", "--k", "3", "--learners", "2", "--seed", "7"]) == 0
    tsv = {}
    for kind in ("zeros", "plain"):
        tsv[kind] = tmp_path / f"{kind}.tsv"
        argv = ["predict", "--model", str(model), "--train", str(paths[kind, "train"])]
        argv += ["--test", str(paths[kind, "test"]), "--out", str(tsv[kind]), "--workers", str(workers)]
        assert main(argv) == 0
    assert tsv["zeros"].read_bytes() == tsv["plain"].read_bytes()


def test_preparation_and_projection_write_no_input():
    """Normalizing, planning and projecting leave every dataset array and
    every caller's CSR as they were; each is read-only during the run, so a
    write would raise."""
    train, test = (dataset_of(part, 300) for part in _CASES["empty-rows-in-both"])
    X = _random_rows([0, 7, 1, 30, 12, 0, 5], 301)
    arrays = [a for ds in (train, test) for a in ds.features[:3]]
    arrays += [X.data, X.indices, X.indptr]
    before = [a.tobytes() for a in arrays]
    for a in arrays:
        a.flags.writeable = False
    spec, xspec = EmbeddingSpec(seed=3, d=300, r=9), EmbeddingSpec(seed=3, d=301, r=9)
    list(learner_embeddings(make_ensemble_spec(3, 2, d=300, r=9, k=1), train, test, workers=2))
    embedding.project_rows(spec, PlannedRows(test.features, r=9))
    _project(xspec, PlannedRows(X, X, r=9, workers=2), np.float64)
    project_csr(xspec, X)
    embed(spec, train)
    measure_distortion(train, spec, 50, 1)
    assert [a.tobytes() for a in arrays] == before


def _uniform_dataset(n: int, d: int, per_row: int, rng) -> SparseDataset:
    """n samples of about `per_row` features drawn uniformly from d."""
    rows = [np.unique(rng.integers(0, d, per_row)) for _ in range(n)]
    indices = np.concatenate(rows)
    features = CSR(
        rng.uniform(0.1, 2.0, indices.size).astype(np.float32),
        indices,
        np.cumsum([0] + [r.size for r in rows]).astype(np.int64),
        (n, d),
    )
    return SparseDataset(features, truth_matrix([[i % 3] for i in range(n)], 3))


# one transposed block of F per projection worker
_BLOCK_BYTES = 8_000_000


@pytest.mark.parametrize("workers", [1, 2])
def test_projection_memory_is_bounded_by_the_block_budget(workers):
    """At d = 200,000, with about 140,000 used columns, planning the stacked
    samples and projecting them holds per worker one transposed block of F
    (8 MB) and 1 MiB of scratch, which serves the Box-Muller pieces and then
    the RowProducts chunks; besides, the samples once, position-major
    (about 8 bytes per nonzero), O(d) for the column plan, and the output.
    A row-major block beside the transposed one, or the samples held twice,
    would exceed it."""
    rng = np.random.default_rng(0)
    d = 200_000
    train, test = _uniform_dataset(300, d, 600, rng), _uniform_dataset(100, d, 600, rng)
    spec = EmbeddingSpec(seed=1, d=d, r=64)
    tracemalloc.start()
    try:
        rows = PlannedRows(train.features, test.features, r=spec.r, workers=workers)
        n, nnz = rows.n, rows.products.cols.size
        embedding.project_rows(spec, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_worker = _BLOCK_BYTES + (1 << 20)
    bound = workers * per_worker + 24 * nnz + 32 * d + 4 * spec.r * n
    assert peak <= bound, (peak, bound)


def test_train_test_rows_memory_is_bounded_per_nonzero():
    """On a wide-shaped corpus (d = 782,585, about 300 nonzeros per sample,
    1.2M in all), preparing the samples holds at most 20 bytes per nonzero
    above the parsed sets, plus the column plan's O(d) and O(n): the
    position-major copy (8 bytes per nonzero) and block-sized temporaries.
    Normalizing each set whole, then stacking and remapping the copies, held
    about 66 bytes per nonzero. At this d the O(d) term hides a stacked
    copy of the unit rows; `test_train_test_rows_makes_no_stacked_copy`
    finds one."""
    rng = np.random.default_rng(5)
    d = 782_585
    train, test = _uniform_dataset(3000, d, 300, rng), _uniform_dataset(1000, d, 300, rng)
    tracemalloc.start()
    try:
        rows = PlannedRows(train.features, test.features, r=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nnz, n = train.features.nnz + test.features.nnz, train.n + test.n
    assert rows.products.cols.size == nnz
    assert peak <= 20 * nnz + 32 * d + 64 * n, (peak, nnz)


def test_train_test_rows_makes_no_stacked_copy():
    """With nnz far above d (d = 20,000, about 1.2M nonzeros), preparing the
    samples holds at most 12 bytes per nonzero above the parsed sets, plus
    O(d) and O(n): the position-major copy (8) filled straight from the
    parsed arrays. A stacked copy of the unit rows beside it (12 more, about
    20.5 in all) fails."""
    rng = np.random.default_rng(6)
    d = 20_000
    train, test = _uniform_dataset(3000, d, 300, rng), _uniform_dataset(1000, d, 300, rng)
    tracemalloc.start()
    try:
        rows = PlannedRows(train.features, test.features, r=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nnz, n = train.features.nnz + test.features.nnz, train.n + test.n
    assert rows.products.cols.size == nnz > 50 * d
    assert peak <= 12 * nnz + 32 * d + 64 * n, (peak, nnz)


@pytest.mark.parametrize("r", [1, 5, 4096])
def test_normalize_columns_in_blocks_equals_each_column_alone(r):
    """Re-normalizing a column-major output in blocks (of 32 columns at
    r = 4,096) gives each column the bits of normalizing it alone, zero
    columns included; the blocks hold 1 MB of squares whatever n is."""
    rng = np.random.default_rng(r)
    out = np.asfortranarray(rng.normal(size=(r, 100)).astype(np.float32))
    out[:, ::9] = 0.0
    want = out.copy(order="F")
    for j in range(want.shape[1]):
        embedding._normalize_columns(want[:, j : j + 1])
    tracemalloc.start()
    try:
        embedding._normalize_columns(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tobytes(order="F") == want.tobytes(order="F")
    assert peak <= (1 << 20) + (1 << 18)


def test_train_test_rows_rejects_mismatched_dimensionality():
    with pytest.raises(ValueError, match="dimensionality"):
        PlannedRows(dataset_of([{1: 1.0}], 10).features, dataset_of([{1: 1.0}], 12).features, r=1)


@pytest.mark.parametrize("d, index", [(12, 1), (12, 11), (8, 1)])
def test_planned_rows_rejects_parts_of_another_dimensionality(d, index):
    """A part of other than the first part's 10 columns is refused by name:
    a wider one whose indices lie below 10 (once planned silently) or not
    (once a bare IndexError), and a narrower one."""
    first, second = dataset_of([{1: 1.0}], 10), dataset_of([{index: 1.0}], d)
    with pytest.raises(ValueError, match="dimensionality"):
        PlannedRows(first.features, second.features, r=1)


def test_embed_dimension_mismatch(small_spec):
    ds = generate_synthetic(
        n=10, d=100, L=5, sparsity=4, labels_per_sample=1, clusters=2, seed=0
    )
    with pytest.raises(ValueError, match="dimensionality"):
        embed(small_spec, ds)


def test_cache_roundtrip(tmp_path, small_spec, small_ds, small_embedded):
    """One file, named by the learner's seed; no sidecar and no temp file is
    left, and a learner with no file loads None."""
    prefix = str(tmp_path / "emb")
    assert save_cache(prefix, small_embedded, small_spec, small_ds) == f"{prefix}-42.ogec"
    assert os.listdir(tmp_path) == ["emb-42.ogec"]
    loaded = load_cache(prefix, small_spec, small_ds)
    assert loaded.r == small_embedded.r and loaded.n == small_embedded.n
    assert np.array_equal(loaded.data, small_embedded.data)
    other = EmbeddingSpec(seed=43, d=small_spec.d, r=small_spec.r)
    assert load_cache(prefix, other, small_ds) is None


@pytest.mark.parametrize("seed", [-1, 2**64 + 3])
def test_cache_keys_a_seed_as_its_philox_key_word(tmp_path, small_ds, seed):
    """The header holds seed mod 2^64, the key word F is drawn under, so a
    negative or a wide seed round-trips."""
    spec = EmbeddingSpec(seed=seed, d=small_ds.d, r=4)
    matrix = embed(spec, small_ds)
    path = save_cache(str(tmp_path / "emb"), matrix, spec, small_ds)
    assert path.endswith(f"emb-{seed}.ogec")
    assert struct.unpack_from("<Q", pathlib.Path(path).read_bytes(), 6) == (seed % 2**64,)
    assert np.array_equal(load_cache(str(tmp_path / "emb"), spec, small_ds).data, matrix.data)


def test_cache_wire_format(tmp_path, small_spec, small_ds, small_embedded):
    path = save_cache(str(tmp_path / "emb"), small_embedded, small_spec, small_ds)
    raw = pathlib.Path(path).read_bytes()
    header = struct.unpack_from("<4sHQQIQ32sI", raw)
    assert header[:6] == (b"OGEC", 2, 42, 2000, 32, 300)
    arrays = (small_ds.features.indptr, small_ds.features.indices, small_ds.features.data)
    csr_bytes = b"".join(a.astype(t).tobytes() for a, t in zip(arrays, ("<i8", "<i8", "<f4")))
    assert header[6] == hashlib.sha256(csr_bytes).digest()
    payload = raw[70:]
    assert header[7] == zlib.crc32(payload)
    cols = np.frombuffer(payload, dtype="<f4").reshape(300, 32)
    assert np.array_equal(cols.T, small_embedded.data)


@pytest.mark.parametrize("entries", [1, 3, 1 << 20])
def test_cache_of_int64_indices_loads_for_int32_indices(tmp_path, small_ds, entries):
    """A parsed set holds int32 feature indices, and `feature_sha256` hashes
    them as LE int64 a block of `entries` at a time: the digest of the
    whole-array formula that every v2 cache holds (`oracles.feature_sha256`),
    so a cache written under that formula still loads."""
    path = tmp_path / "train.txt"
    write_dataset(small_ds, path)
    train = parse_dataset(path)
    assert train.features.indices.dtype == np.int32
    with mock.patch.object(data, "_HASH_ENTRIES", entries):
        assert train.feature_sha256 == feature_sha256(small_ds) == feature_sha256(train)
    spec = EmbeddingSpec(seed=9, d=train.d, r=6)
    matrix = embed(spec, small_ds)
    payload = np.ascontiguousarray(matrix.data.T, dtype="<f4").tobytes()
    header = embedding._CACHE_HEADER.pack(
        b"OGEC", 2, 9, train.d, 6, train.n, feature_sha256(small_ds), zlib.crc32(payload)
    )
    (tmp_path / "emb-9.ogec").write_bytes(header + payload)
    assert np.array_equal(load_cache(str(tmp_path / "emb"), spec, train).data, matrix.data)


def test_cache_verification_failures(tmp_path, small_spec, small_ds, small_embedded):
    prefix = str(tmp_path / "emb")
    save_cache(prefix, small_embedded, small_spec, small_ds)
    narrower = EmbeddingSpec(seed=small_spec.seed, d=small_spec.d, r=16)
    other = r"is for \(Philox key, d, r\) = \(42, 2000, 32\), not \(42, 2000, 16\)"
    with pytest.raises(ValueError, match=other):
        load_cache(prefix, narrower, small_ds)
    with pytest.raises(ValueError, match="cache holds 300 samples but the train set has 200"):
        load_cache(prefix, small_spec, split_dataset(small_ds, 200)[0])
    X = small_ds.features
    changed = dataclasses.replace(small_ds, features=X._replace(data=X.data * np.float32(2)))
    with pytest.raises(ValueError, match="built from another train set; rebuild it"):
        load_cache(prefix, small_spec, changed)
    pathlib.Path(f"{prefix}-42.ogec").write_bytes(b"NOPE" + b"\x00" * 66)
    with pytest.raises(ValueError, match="bad magic or version"):
        load_cache(prefix, small_spec, small_ds)


def test_cache_rejects_a_non_finite_value_in_any_block(tmp_path, small_spec):
    """The finiteness check runs a block of columns at a time; a bad value
    in the first or in the last, partial, block is found."""
    spec = EmbeddingSpec(seed=small_spec.seed, d=small_spec.d, r=1)
    n = (1 << 20) + 3
    empty = np.zeros(n + 1, dtype=np.int64)
    no_entries = np.zeros(0, np.float32), empty[:0], empty
    train = SparseDataset(CSR(*no_entries, (n, spec.d)), CSR(*no_entries, (n, 1)))
    prefix = str(tmp_path / "emb")
    for at in (0, n - 1):
        data = np.ones((1, n), dtype=np.float32, order="F")
        data[0, at] = np.nan
        save_cache(prefix, EmbeddedMatrix(data), spec, train)
        with pytest.raises(ValueError, match="non-finite"):
            load_cache(prefix, spec, train)
