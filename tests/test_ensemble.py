import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from oracles import (
    dict_neighbours,
    feature_row,
    float64_features,
    label_scores,
    labelsets,
    one_label_each,
    predict,
    ranking_dicts,
    row_scores,
    score_dicts,
    score_matrix,
    sweep_r,
    uniform_propensity,
)

from ogeec import embedding, ensemble, predictor
from ogeec.csr import CSR
from ogeec.embedding import EmbeddingSpec, embed, project_csr, save_cache
from ogeec.ensemble import (
    EnsembleSpec,
    fused_scores,
    learner_embeddings,
    learner_neighbours,
    make_ensemble_spec,
    read_metadata,
    sweep_dimension,
    sweep_ensemble_size,
    write_metadata,
)
from ogeec.metrics import evaluate
from ogeec.predictor import batch_predict, top_k


def test_make_spec_default_seed_schedule():
    spec = make_ensemble_spec(base_seed=7, learners=5, d=100, r=10, k=5)
    assert spec.seeds == (7, 8, 9, 10, 11)
    assert spec.size == 5


def test_validate_rejects_duplicates_and_empty():
    with pytest.raises(ValueError, match="distinct"):
        EnsembleSpec(seeds=(1, 1), d=10, r=2, k=5)
    with pytest.raises(ValueError, match="at least one"):
        EnsembleSpec(seeds=(), d=10, r=2, k=5)
    with pytest.raises(ValueError):
        EnsembleSpec(seeds=(1,), d=10, r=20, k=5)


def test_learner_embeddings_holds_no_learner_it_has_yielded(train_test, tmp_path):
    """Once the caller drops a learner's train matrix and query block,
    nothing else holds them, cached or projected, while the next learner
    projects."""
    train, test = train_test
    spec = make_ensemble_spec(3, 3, d=train.d, r=8, k=2)
    prefix = str(tmp_path / "emb")
    save_cache(prefix, embed(spec.learner(1), train), spec.learner(1), train)
    seeds = []
    for lspec, matrix, queries in learner_embeddings(spec, train, test, cache=prefix):
        seeds.append(lspec.seed)
        assert (matrix.n, queries.shape) == (train.n, (8, test.n))
        arrays = [matrix, matrix.data, queries]
        refs = [weakref.ref(a) for a in arrays + [a.base for a in arrays[1:] if a.base is not None]]
        del arrays, matrix, queries
        assert all(ref() is None for ref in refs), lspec.seed
    assert seeds == [3, 4, 5]


@pytest.fixture
def searched_with_plans_alive(monkeypatch):
    """For each `batch_predict` call from `ensemble`, how many of the
    `PlannedRows` built so far are still alive."""
    plans, alive = [], []
    init, search = embedding.PlannedRows.__init__, ensemble.batch_predict

    def planned(self, *parts, **kwargs):
        init(self, *parts, **kwargs)
        plans.append(weakref.ref(self))

    def counted(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in plans))
        return search(*args, **kwargs)

    monkeypatch.setattr(embedding.PlannedRows, "__init__", planned)
    monkeypatch.setattr(ensemble, "batch_predict", counted)
    return alive


@pytest.mark.parametrize("cached", [(), (1,), (0, 1, 2)])
def test_plans_are_dropped_before_the_last_learner_is_searched(
    train_test, tmp_path, searched_with_plans_alive, cached
):
    """Every learner but the last is searched while its plans are still
    needed; once the last one is projected, nothing holds them while it is
    searched, whichever learners are cached."""
    train, test = train_test
    spec = make_ensemble_spec(3, 3, d=train.d, r=8, k=2)
    prefix = str(tmp_path / "emb")
    for i in cached:
        save_cache(prefix, embed(spec.learner(i), train), spec.learner(i), train)
    planned = 1 if len(cached) in (0, 3) else 2  # the stacked rows, the test rows or both
    assert len(list(learner_neighbours(spec, train, test, cache=prefix))) == 3
    assert searched_with_plans_alive == [planned, planned, 0]


def test_sweep_dimension_drops_its_plan_once_projected(train_test, searched_with_plans_alive):
    """The one pass over F at max(rs) is the plan's last use: no r's search
    holds it."""
    train, test = train_test
    assert len(list(sweep_dimension(4, train, test, (8, 4, 6), 3, 5))) == 3
    assert searched_with_plans_alive == [0, 0, 0]


def _fuse(learners, L):
    """label_scores of learners given as one {label: score} dict per row."""
    return label_scores([dict_neighbours(dicts) for dicts in learners], one_label_each(L))


def test_fuse_hand_average():
    fused = _fuse([[{1: 0.8}], [{1: 0.4, 2: 0.6}]], 3)
    assert row_scores(fused, 0) == {
        1: pytest.approx(0.6, abs=1e-15), 2: pytest.approx(0.3, abs=1e-15)
    }


def test_fuse_scale_invariance_of_ranking():
    learners = [{1: 0.8, 3: 0.2}, {1: 0.4, 2: 0.6}]
    scaled = [{w: 2.5 * s for w, s in sv.items()} for sv in learners]
    a, b = (_fuse([[sv] for sv in group], 4) for group in (learners, scaled))
    assert np.array_equal(top_k(a, 3)[0], top_k(b, 3)[0])


def test_single_learner_ensemble_equals_predict(small_ds, small_spec, small_embedded):
    espec = EnsembleSpec(seeds=(small_spec.seed,), d=small_spec.d, r=small_spec.r, k=5)
    fused = ranking_dicts(fused_scores(espec, small_ds, small_ds, small_ds.L))
    train_labels = labelsets(small_ds)
    for i in (0, 9, 150, 299):
        query = feature_row(small_ds, i)
        assert fused[i] == predict(small_spec, small_embedded, train_labels, query, 5)


def test_duplicate_seeds_equal_one_learner(small_ds, small_spec, small_embedded):
    query = feature_row(small_ds, 21)
    single = predict(small_spec, small_embedded, labelsets(small_ds), query, 5)
    fused = row_scores(_fuse([[single]] * 3, small_ds.L), 0)
    assert fused.keys() == single.keys()
    for w in fused:
        assert fused[w] == pytest.approx(single[w], rel=1e-14)


def test_seed_order_invariance(small_ds, train_test):
    train, test = train_test
    sub = test  # 300 queries
    fwd = EnsembleSpec(seeds=(3, 11, 29), d=train.d, r=24, k=5)
    rev = EnsembleSpec(seeds=(29, 3, 11), d=train.d, r=24, k=5)
    a = fused_scores(fwd, train, sub, train.L)
    b = fused_scores(rev, train, sub, train.L)
    for sa, sb in zip(ranking_dicts(a), ranking_dicts(b)):
        assert sa.keys() == sb.keys()
        for w in sa:
            assert sa[w] == pytest.approx(sb[w], abs=1e-12)
    # the top 5 is a prefix of the ranking at K = L
    assert np.array_equal(a[0][:, :5], b[0][:, :5])


def test_fused_equals_mean_of_per_learner(train_test):
    train, test = train_test
    espec = EnsembleSpec(seeds=(1, 2, 3), d=train.d, r=24, k=5)
    labels = train.labels
    per = [
        score_dicts(score_matrix(*found, labels))
        for found in learner_neighbours(espec, train, test)
    ]
    fused = ranking_dicts(fused_scores(espec, train, test, train.L))
    for i in range(test.n):
        labels = set().union(*(per[e][i].keys() for e in range(3)))
        for w in labels:
            mean = sum(per[e][i].get(w, 0.0) for e in range(3)) / 3
            assert fused[i].get(w, 0.0) == pytest.approx(mean, abs=1e-12)


def test_fused_scores_rejects_duplicate_seeds(train_test):
    train, test = train_test
    with pytest.raises(ValueError, match="distinct"):
        fused_scores(EnsembleSpec(seeds=(5, 5), d=train.d, r=16, k=5), train, test, 5)


def _scorer(test):
    props = uniform_propensity(test.labels.shape[1])
    return lambda ranking: evaluate(ranking[0], test.labels, props)


def test_sweep_size_one_equals_single_learner_eval(train_test):
    train, test = train_test
    espec = EnsembleSpec(seeds=(4, 5, 6), d=train.d, r=24, k=5)
    own, fused = sweep_ensemble_size(espec, train, test, [1], 5)
    lspec = EmbeddingSpec(seed=4, d=train.d, r=24)
    emb = embed(lspec, train)
    queries = project_csr(lspec, float64_features(test))
    scores = score_matrix(*batch_predict(emb, queries, 5), train.labels)
    direct = evaluate(top_k(scores, 5)[0], test.labels, uniform_propensity(train.L))
    assert len(own) == 1 and list(fused) == [1]
    score = _scorer(test)
    assert score(fused[1]).values == direct.values
    assert score(own[0]).values == direct.values


def test_sweep_reports_are_order_independent(train_test):
    train, test = train_test
    espec = EnsembleSpec(seeds=(4, 5, 6), d=train.d, r=24, k=5)
    _, a = sweep_ensemble_size(espec, train, test, [1, 3], 5)
    _, b = sweep_ensemble_size(espec, train, test, [3, 1], 5)
    score = _scorer(test)
    assert score(a[1]).values == score(b[1]).values
    assert score(a[3]).values == score(b[3]).values


def test_sweep_size_bounds(train_test):
    train, test = train_test
    espec = EnsembleSpec(seeds=(4, 5), d=train.d, r=16, k=5)
    with pytest.raises(ValueError):
        sweep_ensemble_size(espec, train, test, [3], 5)
    with pytest.raises(ValueError):
        sweep_ensemble_size(espec, train, test, [], 5)


def test_sweep_returns_each_learner_in_seed_order_and_each_distinct_size(train_test):
    """`own` holds each learner's own ranking in seed order and `fused` the
    fusion of the first s learners, keyed by each distinct requested size
    s; each is the `rank_labels` arrays K wide that `fused_scores` returns
    for those seeds."""
    train, test = train_test
    espec = EnsembleSpec(seeds=(4, 5, 6), d=train.d, r=16, k=5)
    K = 7
    own, fused = sweep_ensemble_size(espec, train, test, [2, 2, 1], K)
    assert len(own) == 2 and list(fused) == [1, 2]
    wants = [(own[0], (4,)), (own[1], (5,)), (fused[1], (4,)), (fused[2], (4, 5))]
    for ranking, used in wants:
        want = fused_scores(EnsembleSpec(seeds=used, d=train.d, r=16, k=5), train, test, K)
        assert all(a.shape == (test.n, K) for a in ranking)
        assert all(np.array_equal(a, b) for a, b in zip(ranking, want))


def test_metadata_roundtrip(tmp_path):
    spec = make_ensemble_spec(base_seed=42, learners=4, d=1000, r=64, k=3)
    path = tmp_path / "model.txt"
    write_metadata(path, spec)
    again = read_metadata(path)
    assert again == spec
    text = path.read_text()
    assert text.splitlines()[0] == "base_seed 42"
    assert "seeds 42 43 44 45" in text
    assert "E 4" in text


def test_metadata_rejects_inconsistent_e(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("base_seed 1\nseeds 1 2\nd 10\nr 4\nk 5\nE 3\n")
    with pytest.raises(ValueError, match="E does not match"):
        read_metadata(path)
    path.write_text("seeds 1 2\nd 10\n")
    with pytest.raises(ValueError, match="malformed"):
        read_metadata(path)


@pytest.mark.parametrize("e_line", ["E", "E x"])
def test_metadata_rejects_malformed_e(tmp_path, e_line):
    path = tmp_path / "model.txt"
    path.write_text(f"base_seed 1\nseeds 1 2\nd 10\nr 4\nk 5\n{e_line}\n")
    with pytest.raises(ValueError) as exc:
        read_metadata(path)
    assert str(exc.value).startswith(f"{path}: malformed model metadata (")


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_dimension_equals_per_r_oracle(train_test, monkeypatch, workers):
    """Prefixes of one projection at max(rs) give every r's scores bit for bit,
    for unsorted and repeated r, r = 1 and prefixes cutting through a block;
    rankings at K = L hold every score."""
    train, test = train_test
    rs = (24, 8, 1, 24, 17)
    want = sweep_r(4, train, test, rs, 5, train.L)
    monkeypatch.setattr(embedding, "_row_block", lambda d: 5)
    got = sweep_dimension(4, train, test, rs, 5, train.L, workers=workers)
    assert [(r, ranking_dicts(R)) for r, R in got] == [(r, ranking_dicts(R)) for r, R in want]


def test_sweep_dimension_rejects_bad_r(train_test):
    train, test = train_test
    with pytest.raises(ValueError, match="nonempty"):
        list(sweep_dimension(4, train, test, (), 5, 5))
    with pytest.raises(ValueError, match="out of range"):
        list(sweep_dimension(4, train, test, (8, 0), 5, 5))
    with pytest.raises(ValueError, match="r must satisfy"):
        list(sweep_dimension(4, train, test, (8, train.d + 1), 5, 5))


def test_a_bad_r_fails_before_any_work(train_test, monkeypatch):
    """A bad r anywhere in rs is refused before any sample is planned or any
    row of F drawn: by `sweep_dimension`, and by `embed_prefixes` given a plan."""
    train, test = train_test
    planned, drawn = [], []
    init, materialize = embedding.PlannedRows.__init__, embedding.materialize_rows

    def counted_plan(self, *parts, **kwargs):
        planned.append(len(parts))
        init(self, *parts, **kwargs)

    def counted_rows(spec, start, stop, **kwargs):
        drawn.extend(range(start, stop))
        return materialize(spec, start, stop, **kwargs)

    monkeypatch.setattr(embedding.PlannedRows, "__init__", counted_plan)
    monkeypatch.setattr(embedding, "materialize_rows", counted_rows)
    with pytest.raises(ValueError, match="out of range"):
        list(sweep_dimension(4, train, test, [0, 4], 5, 5))
    assert planned == [] and drawn == []
    rows = embedding.PlannedRows(train.features, test.features, r=4)
    with pytest.raises(ValueError, match="out of range"):
        list(embedding.embed_prefixes(EmbeddingSpec(seed=4, d=train.d, r=4), rows, [4, 0]))
    assert planned == [2] and drawn == []


def test_label_memory_does_not_grow_with_queries(monkeypatch):
    """`fused_scores` scores and ranks one block of queries at a time: from
    300 to 1,200 queries its tracemalloc peak grows by at most the 16 bytes
    per (query, slot) of its (m, K) output plus a small slack, where scoring
    all queries before ranking them grows by their scores (about 150 labels
    per query here)."""
    rng = np.random.default_rng(3)
    n, L, k, E, K = 200, 300, 5, 3, 5
    sets = [np.sort(rng.choice(L, 30, replace=False)) for _ in range(n)]
    Y = CSR(np.ones(30 * n), np.concatenate(sets), np.arange(0, 30 * n + 1, 30), (n, L))
    spec = EnsembleSpec(seeds=tuple(range(E)), d=10, r=2, k=k)
    train = mock.Mock(labels=Y)
    monkeypatch.setattr(predictor, "_LABEL_FLOATS", 16 * L)  # 16 queries a block

    def growth(run):
        peaks = []
        for m in (300, 1200):
            found = [(rng.integers(0, n, (m, k)), rng.random((m, k))) for _ in range(E)]
            monkeypatch.setattr(ensemble, "learner_neighbours", lambda *a, **kw: iter(found))
            tracemalloc.start()
            try:
                run(found)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks[1] - peaks[0]

    bound = 16 * K * 900 + 32 * 1024
    assert growth(lambda found: fused_scores(spec, train, None, K)) <= bound
    assert growth(lambda found: top_k(label_scores(found, Y), K)) > bound
