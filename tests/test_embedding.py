import json
import pathlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import box_muller, fuse, project_full, ranking_dicts, score_dicts, score_matrix

from ogeec import embedding
from ogeec.csr import CSR
from ogeec.data import SparseDataset, SparseVector, generate_synthetic, split_dataset
from ogeec.embedding import (
    EmbeddedMatrix,
    EmbeddingSpec,
    _project,
    column_plan,
    embed,
    embed_single,
    embed_train_test,
    gaussian_row,
    load_cache,
    materialize_row,
    materialize_rows,
    project_csr,
    save_cache,
    train_test_rows,
)
from ogeec.ensemble import fused_scores, make_ensemble_spec
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


def test_materialize_row_deterministic():
    spec = EmbeddingSpec(seed=7, d=500, r=8)
    assert np.array_equal(materialize_row(spec, 3), materialize_row(spec, 3))


def test_materialize_rows_are_distinct_streams():
    spec = EmbeddingSpec(seed=7, d=500, r=8)
    assert not np.array_equal(materialize_row(spec, 0), materialize_row(spec, 1))


def test_materialize_row_out_of_range():
    spec = EmbeddingSpec(seed=7, d=500, r=8)
    with pytest.raises(IndexError):
        materialize_row(spec, 8)
    with pytest.raises(IndexError):
        materialize_row(spec, -1)


def test_materialize_rows_matches_single_rows():
    spec = EmbeddingSpec(seed=11, d=300, r=10)
    block = materialize_rows(spec, 2, 7)
    for i in range(2, 7):
        assert np.array_equal(block[i - 2], materialize_row(spec, i))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    count=st.integers(1, 300),
)
def test_gaussian_row_equals_box_muller_definition(seed, stream, count):
    assert gaussian_row(seed, stream, count).tobytes() == box_muller(seed, stream, count).tobytes()


@pytest.mark.parametrize("count", [782_585, 782_584])
def test_gaussian_row_equals_box_muller_definition_at_wide_d(count):
    assert gaussian_row(3, 11, count).tobytes() == box_muller(3, 11, count).tobytes()


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
    random supports."""
    d = data.draw(st.sampled_from([1, 2, 3, 4, 5, 8, 63, 64]) | st.integers(1, 300))
    used = _support(data.draw, d)
    spec = EmbeddingSpec(seed=data.draw(st.integers(-(2**63), 2**63 - 1)), d=d, r=min(d, 4))
    start = data.draw(st.integers(0, spec.r))
    stop = data.draw(st.integers(start, spec.r))
    plan = column_plan(used)
    assert np.array_equal(np.sort(plan.columns), np.flatnonzero(used))
    assert np.all(plan.columns[: plan.cos.size] % 2 == 0)
    assert np.all(plan.columns[plan.cos.size :] % 2 == 1)
    assert np.array_equal(plan.place[plan.columns], np.arange(plan.columns.size))
    full = materialize_rows(spec, start, stop)
    part = materialize_rows(spec, start, stop, cols=plan)
    assert part.shape == (stop - start, plan.columns.size)
    assert part.tobytes() == np.ascontiguousarray(full[:, plan.columns]).tobytes()


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
    monkeypatch.setattr(embedding, "_row_block", lambda c: 5)
    out = _project(spec, X, dtype, workers=workers)
    expect = project_full(spec, X, dtype)
    assert out.shape == expect.shape and out.dtype == dtype
    assert out.tobytes(order="A") == np.asfortranarray(expect).tobytes(order="A")


def test_gaussian_stream_moments():
    v = gaussian_row(42, 0, 100000)
    assert abs(v.mean()) < 0.02
    assert abs(v.var() - 1.0) < 0.03


def test_seed_changes_stream():
    assert not np.array_equal(gaussian_row(1, 0, 64), gaussian_row(2, 0, 64))


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
    x = SparseVector(np.array([j]), np.array([5.0], dtype=np.float32))
    out = embed_single(spec, x)
    F = np.vstack([materialize_row(spec, i) for i in range(spec.r)])
    col = F[:, j] / np.linalg.norm(F[:, j])
    np.testing.assert_allclose(out, col.astype(np.float32), rtol=0, atol=1e-6)


def test_embed_scale_invariance(small_spec, small_ds):
    row = small_ds.feature_row(7)
    x = SparseVector(row.indices, row.values)
    # power-of-two scale: float32-exact, so pre-normalization cancels bitwise
    x4 = SparseVector(row.indices, row.values * np.float32(4.0))
    assert np.array_equal(embed_single(small_spec, x), embed_single(small_spec, x4))
    x5 = SparseVector(row.indices, row.values * np.float32(5.0))
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
        q = embed_single(small_spec, small_ds.feature_row(i))
        assert np.array_equal(q, small_embedded.data[:, i]), i


def test_embed_single_golden():
    golden = json.loads(GOLDEN.read_text())
    spec = EmbeddingSpec(**golden["spec"])
    x = SparseVector(
        np.array(golden["input"]["indices"]),
        np.array(golden["input"]["values"], dtype=np.float32),
    )
    out = embed_single(spec, x)
    assert [float(v) for v in out] == golden["expected"]


def test_scaled_row_source_leaves_embedding_unchanged(small_spec, small_ds, monkeypatch):
    """Re-normalization absorbs any common scale on F; a power-of-two scale
    is exact in float arithmetic, so outputs match bitwise."""

    def scaled4(spec, start, stop, *, cols=None):
        return 4.0 * materialize_rows(spec, start, stop, cols=cols)

    def scaled3(spec, start, stop, *, cols=None):
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
        F = np.vstack([gaussian_row(seed, i, d) for i in range(r)])
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

    def counting(spec, start, stop, *, cols=None):
        generated.extend(range(start, stop))
        return materialize_rows(spec, start, stop, cols=cols)

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

    def counting(spec, start, stop, *, cols=None):
        generated.update((spec.seed, i) for i in range(start, stop))
        return materialize_rows(spec, start, stop, cols=cols)

    monkeypatch.setattr(embedding, "materialize_rows", counting)
    fused_scores(spec, train, test, 3, workers=2)
    assert generated == Counter({(s, i): 1 for s in spec.seeds for i in range(spec.r)})


def dataset_of(rows, d: int, L: int = 4) -> SparseDataset:
    """A dataset whose sample i has the {index: value} features rows[i]."""
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    return SparseDataset(
        n=len(rows),
        d=d,
        L=L,
        feat_indptr=indptr,
        feat_indices=np.array([i for r in rows for i in sorted(r)], dtype=np.int64),
        feat_values=np.array([r[i] for r in rows for i in sorted(r)], dtype=np.float32),
        label_indptr=np.arange(len(rows) + 1, dtype=np.int64),
        label_indices=np.arange(len(rows), dtype=np.int64) % L,
    )


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
    }


_CASES = _one_pass_cases()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_one_pass_equals_separate_projections(monkeypatch, case, workers):
    """Projecting train and test together gives bit-identical train matrices,
    query blocks and fused scores to embedding and projecting them apart."""
    train_rows, test_rows = _CASES[case]
    train, test = dataset_of(train_rows, 300), dataset_of(test_rows, 300)
    espec = make_ensemble_spec(11, 2, d=300, r=12, k=3)
    apart = [
        (embed(ls, train), project_csr(ls, test.to_feature_csr(np.float64)))
        for ls in map(espec.learner, range(espec.size))
    ]
    labels = train.label_matrix()
    per_learner = [score_dicts(score_matrix(*batch_predict(m, q, espec.k), labels)) for m, q in apart]
    reference = [fuse(list(scores)) for scores in zip(*per_learner)]

    # blocks of 5 rows, so each worker's range spans ragged blocks
    monkeypatch.setattr(embedding, "_row_block", lambda d: 5)
    rows = train_test_rows(train, test)
    for i, (matrix, queries) in enumerate(apart):
        got, got_queries = embed_train_test(espec.learner(i), rows, workers=workers)
        assert (got.r, got.n) == (matrix.r, matrix.n)
        assert got.data.flags.f_contiguous and got_queries.shape == queries.shape
        assert np.array_equal(got.data, matrix.data)
        assert np.array_equal(got_queries, queries)
    cached = {espec.seeds[0]: apart[0][0]}  # one learner cached, one projected
    for provider in (None, lambda ls: cached.get(ls.seed)):
        fused = fused_scores(espec, train, test, train.L, workers=workers, matrix_provider=provider)
        assert ranking_dicts(fused) == reference


def test_train_test_rows_rejects_mismatched_dimensionality():
    with pytest.raises(ValueError, match="dimensionality"):
        train_test_rows(dataset_of([{1: 1.0}], 10), dataset_of([{1: 1.0}], 12))


def test_embed_dimension_mismatch(small_spec):
    ds = generate_synthetic(
        n=10, d=100, L=5, sparsity=4, labels_per_sample=1, clusters=2, seed=0
    )
    with pytest.raises(ValueError, match="dimensionality"):
        embed(small_spec, ds)


def test_embed_single_rejects_out_of_range_index(small_spec):
    x = SparseVector(np.array([small_spec.d]), np.array([1.0], dtype=np.float32))
    with pytest.raises(ValueError, match="out of range"):
        embed_single(small_spec, x)


def test_cache_roundtrip(tmp_path, small_spec, small_embedded):
    path = tmp_path / "train.ogec"
    save_cache(path, small_embedded, small_spec)
    loaded = load_cache(path, small_spec)
    assert loaded.r == small_embedded.r and loaded.n == small_embedded.n
    assert np.array_equal(loaded.data, small_embedded.data)


def test_cache_wire_format(tmp_path, small_spec, small_embedded):
    path = tmp_path / "train.ogec"
    save_cache(path, small_embedded, small_spec)
    raw = path.read_bytes()
    assert raw[:4] == b"OGEC"
    assert int.from_bytes(raw[4:6], "little") == 1
    assert int.from_bytes(raw[6:10], "little") == small_embedded.r
    assert int.from_bytes(raw[10:18], "little") == small_embedded.n
    first_col = np.frombuffer(raw[18 : 18 + 4 * small_embedded.r], dtype="<f4")
    assert np.array_equal(first_col, small_embedded.data[:, 0])
    meta = json.loads((tmp_path / "train.ogec.meta").read_text())
    assert meta == {"seed": small_spec.seed, "d": small_spec.d, "r": small_spec.r}


def test_cache_verification_failures(tmp_path, small_spec, small_embedded):
    path = tmp_path / "train.ogec"
    save_cache(path, small_embedded, small_spec)
    wrong = EmbeddingSpec(seed=small_spec.seed + 1, d=small_spec.d, r=small_spec.r)
    with pytest.raises(ValueError, match="does not match"):
        load_cache(path, wrong)
    bad = tmp_path / "bad.ogec"
    bad.write_bytes(b"NOPE" + b"\x00" * 14)
    with pytest.raises(ValueError, match="bad magic"):
        load_cache(bad, small_spec)
