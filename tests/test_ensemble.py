import numpy as np
import pytest
from oracles import predict, row_scores, score_csr, score_dicts, sweep_r, uniform_propensity

from ogeec import embedding
from ogeec.embedding import EmbeddingSpec, embed, project_csr
from ogeec.ensemble import (
    EnsembleSpec,
    _mean,
    fused_scores,
    learner_scores,
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


def test_fuse_hand_average():
    fused = _mean(score_csr([{1: 0.8}], 3) + score_csr([{1: 0.4, 2: 0.6}], 3), 2)
    assert row_scores(fused, 0) == {
        1: pytest.approx(0.6, abs=1e-15), 2: pytest.approx(0.3, abs=1e-15)
    }


def test_fuse_scale_invariance_of_ranking():
    learners = [{1: 0.8, 3: 0.2}, {1: 0.4, 2: 0.6}]
    scaled = [{w: 2.5 * s for w, s in sv.items()} for sv in learners]
    a, b = ([score_csr([sv], 4) for sv in group] for group in (learners, scaled))
    assert np.array_equal(top_k(_mean(a[0] + a[1], 2), 3)[0], top_k(_mean(b[0] + b[1], 2), 3)[0])


def test_single_learner_ensemble_equals_predict(small_ds, small_spec, small_embedded):
    espec = EnsembleSpec(seeds=(small_spec.seed,), d=small_spec.d, r=small_spec.r, k=5)
    fused = fused_scores(espec, small_ds, small_ds)
    labelsets = small_ds.labelsets()
    for i in (0, 9, 150, 299):
        query = small_ds.feature_row(i)
        assert row_scores(fused, i) == predict(small_spec, small_embedded, labelsets, query, 5)


def test_duplicate_seeds_equal_one_learner(small_ds, small_spec, small_embedded):
    query = small_ds.feature_row(21)
    single = predict(small_spec, small_embedded, small_ds.labelsets(), query, 5)
    S = score_csr([single], small_ds.L)
    fused = row_scores(_mean(S + S + S, 3), 0)
    assert fused.keys() == single.keys()
    for w in fused:
        assert fused[w] == pytest.approx(single[w], rel=1e-14)


def test_seed_order_invariance(small_ds, train_test):
    train, test = train_test
    sub = test  # 300 queries
    fwd = EnsembleSpec(seeds=(3, 11, 29), d=train.d, r=24, k=5)
    rev = EnsembleSpec(seeds=(29, 3, 11), d=train.d, r=24, k=5)
    a = fused_scores(fwd, train, sub)
    b = fused_scores(rev, train, sub)
    for sa, sb in zip(score_dicts(a), score_dicts(b)):
        assert sa.keys() == sb.keys()
        for w in sa:
            assert sa[w] == pytest.approx(sb[w], abs=1e-12)
    assert np.array_equal(top_k(a, 5)[0], top_k(b, 5)[0])


def test_fused_equals_mean_of_per_learner(train_test):
    train, test = train_test
    espec = EnsembleSpec(seeds=(1, 2, 3), d=train.d, r=24, k=5)
    per = [score_dicts(scores) for _, scores in learner_scores(espec, train, test)]
    fused = score_dicts(fused_scores(espec, train, test))
    for i in range(test.n):
        labels = set().union(*(per[e][i].keys() for e in range(3)))
        for w in labels:
            mean = sum(per[e][i].get(w, 0.0) for e in range(3)) / 3
            assert fused[i].get(w, 0.0) == pytest.approx(mean, abs=1e-12)


def test_fused_scores_rejects_duplicate_seeds(train_test):
    train, test = train_test
    with pytest.raises(ValueError, match="distinct"):
        fused_scores(EnsembleSpec(seeds=(5, 5), d=train.d, r=16, k=5), train, test)


def test_learner_count_validation(train_test):
    train, test = train_test
    espec = EnsembleSpec(seeds=(1, 2), d=train.d, r=16, k=5)
    with pytest.raises(ValueError, match="exceeds"):
        list(learner_scores(espec, train, test, learners=3))


def test_sweep_size_one_equals_single_learner_eval(train_test):
    train, test = train_test
    espec = EnsembleSpec(seeds=(4, 5, 6), d=train.d, r=24, k=5)
    model = uniform_propensity(train.L)
    result = sweep_ensemble_size(espec, train, test, [1], model)
    lspec = EmbeddingSpec(seed=4, d=train.d, r=24)
    emb = embed(lspec, train)
    queries = project_csr(lspec, test.to_feature_csr(np.float64))
    scores = batch_predict(emb, train.label_matrix(), queries, 5)
    direct = evaluate(top_k(scores, 5)[0], test.labelsets(), model)
    assert result.fused[1].values == direct.values
    assert result.per_learner[0].values == direct.values


def test_sweep_reports_are_order_independent(train_test):
    train, test = train_test
    espec = EnsembleSpec(seeds=(4, 5, 6), d=train.d, r=24, k=5)
    model = uniform_propensity(train.L)
    a = sweep_ensemble_size(espec, train, test, [1, 3], model)
    b = sweep_ensemble_size(espec, train, test, [3, 1], model)
    assert a.fused[1].values == b.fused[1].values
    assert a.fused[3].values == b.fused[3].values


def test_sweep_size_bounds(train_test):
    train, test = train_test
    espec = EnsembleSpec(seeds=(4, 5), d=train.d, r=16, k=5)
    model = uniform_propensity(train.L)
    with pytest.raises(ValueError):
        sweep_ensemble_size(espec, train, test, [3], model)
    with pytest.raises(ValueError):
        sweep_ensemble_size(espec, train, test, [], model)


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
    for unsorted and repeated r, r = 1 and prefixes cutting through a block."""
    train, test = train_test
    rs = (24, 8, 1, 24, 17)
    want = sweep_r(4, train, test, rs, 5)
    monkeypatch.setattr(embedding, "_row_block", lambda d: 5)
    got = sweep_dimension(4, train, test, rs, 5, workers=workers)
    assert [(r, score_dicts(S)) for r, S in got] == [(r, score_dicts(S)) for r, S in want]


def test_sweep_dimension_rejects_bad_r(train_test):
    train, test = train_test
    with pytest.raises(ValueError, match="nonempty"):
        list(sweep_dimension(4, train, test, (), 5))
    with pytest.raises(ValueError, match="out of range"):
        list(sweep_dimension(4, train, test, (8, 0), 5))
    with pytest.raises(ValueError, match="r must satisfy"):
        list(sweep_dimension(4, train, test, (8, train.d + 1), 5))
