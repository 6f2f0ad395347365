import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    evaluate_dicts,
    evaluate_unblocked,
    isin_truth_hits,
    ref_ndcg,
    ref_precision,
    ref_propensities,
    ref_psn,
    ref_psp,
    top_k_labels,
    top_labels,
    truth_matrix,
    uniform_propensity,
)

from ogeec import metrics
from ogeec.metrics import evaluate, propensity, truth_hits


def _one(name, predicted, truth, K, props=None):
    """`name`@K of one ranking, through `evaluate` on a one-sample batch; a
    sample with no true labels is skipped, so its metrics read 0."""
    labels = np.full((1, K), -1)
    labels[0, : len(predicted[:K])] = predicted[:K]
    if props is None:
        props = uniform_propensity(1 + max([*truth, *predicted], default=0))
    truths = truth_matrix([sorted(truth)], props.size)
    return evaluate(labels, truths, props, ks=(K,))[f"{name}@{K}"]


def precision_at_k(predicted, truth, K):
    return _one("P", predicted, truth, K)


def ndcg_at_k(predicted, truth, K):
    return _one("N", predicted, truth, K)


def psp_at_k(predicted, truth, props, K):
    return _one("PSP", predicted, truth, K, props)


def psn_at_k(predicted, truth, props, K):
    return _one("PSN", predicted, truth, K, props)


# ---------------------------------------------------------------------------
# precision / ndcg


def test_precision_examples():
    assert precision_at_k([3, 1, 7], {1, 3, 7}, 3) == 1.0
    assert precision_at_k([3, 1, 7], {3}, 3) == pytest.approx(1 / 3)
    assert precision_at_k([2], {2, 9}, 3) == pytest.approx(1 / 3)


def test_ndcg_perfect_is_one():
    assert ndcg_at_k([4, 2, 9], {2, 4, 9, 11}, 3) == pytest.approx(1.0)


def test_ndcg_hand_value():
    got = ndcg_at_k([9, 3], {3}, 3)
    assert got == pytest.approx((1 / math.log2(3)) / (1 / math.log2(2)), abs=1e-12)
    assert got == pytest.approx(0.6309, abs=1e-4)


def test_ndcg_empty_truth_is_zero():
    assert ndcg_at_k([1, 2], set(), 3) == 0.0


# ---------------------------------------------------------------------------
# propensity model


def test_propensity_formula_value():
    props = propensity(np.array([10]), n=1000, a=0.55, b=1.5)
    want = ref_propensities([10], 1000, 0.55, 1.5)[0]
    assert props[0] == pytest.approx(want, abs=1e-15)


def test_propensity_saturates_for_frequent_labels():
    props = propensity(np.array([10**9]), n=1000)
    assert props[0] > 0.999


def test_propensity_depends_only_on_frequency():
    props = propensity(np.array([7, 3, 7]), n=500)
    assert props[0] == props[2]


def test_propensity_monotone_in_frequency():
    props = propensity(np.arange(0, 2000, 10), n=5000)
    assert np.all(np.diff(props) >= 0)
    assert np.all(props > 0) and np.all(props <= 1)


def test_propensity_invalid_parameters():
    with pytest.raises(ValueError):
        propensity(np.array([1]), n=10, a=1.5)
    with pytest.raises(ValueError):
        propensity(np.array([1]), n=10, b=-1)
    with pytest.raises(ValueError):
        propensity(np.array([1]), n=0)


# ---------------------------------------------------------------------------
# propensity-scored metrics


def test_psp_with_uniform_model_equals_precision():
    props = uniform_propensity(10)
    pred, truth = [4, 2, 7], {2, 5, 9}
    assert psp_at_k(pred, truth, props, 3) == pytest.approx(
        precision_at_k(pred, truth, 3), abs=1e-15
    )


def test_psp_psn_perfect_is_one():
    # label 0 is rarer than label 2; PSN reaches 1 only when rare comes first
    props = propensity(np.array([3, 50, 400, 7]), n=1000)
    assert psp_at_k([2, 0], {0, 2}, props, 2) == pytest.approx(1.0)
    assert psp_at_k([0, 2], {0, 2}, props, 2) == pytest.approx(1.0)
    assert psn_at_k([0, 2], {0, 2}, props, 2) == pytest.approx(1.0)
    assert psn_at_k([2, 0], {0, 2}, props, 2) < 1.0


def test_psp_psn_three_sample_fixture_vs_reference():
    freqs = np.array([40, 2, 9, 130, 5])
    props = propensity(freqs, n=200, a=0.55, b=1.5)
    ref_props = ref_propensities(freqs, 200, 0.55, 1.5)
    cases = [
        ([0, 1, 2], {1, 4}),
        ([3, 4], {4}),
        ([1, 0, 3, 2, 4], {0, 1, 2, 3, 4}),
    ]
    for pred, truth in cases:
        for K in (1, 3, 5):
            assert psp_at_k(pred, truth, props, K) == pytest.approx(
                ref_psp(pred, truth, ref_props, K), abs=1e-12
            )
            assert psn_at_k(pred, truth, props, K) == pytest.approx(
                ref_psn(pred, truth, ref_props, K), abs=1e-12
            )


@settings(deadline=None, max_examples=100)
@given(
    pred=st.lists(st.integers(0, 9), max_size=6, unique=True),
    truth=st.sets(st.integers(0, 9), min_size=1, max_size=6),
    K=st.sampled_from([1, 3, 5]),
)
def test_all_metrics_in_unit_interval(pred, truth, K):
    props = propensity(np.arange(1, 11), n=100)
    for value in (
        precision_at_k(pred, truth, K),
        ndcg_at_k(pred, truth, K),
        psp_at_k(pred, truth, props, K),
        psn_at_k(pred, truth, props, K),
    ):
        assert 0.0 <= value <= 1.0 + 1e-12


@settings(deadline=None, max_examples=100)
@given(
    scores=st.dictionaries(st.integers(0, 9), st.floats(0.01, 5), min_size=1, max_size=8),
    truth=st.sets(st.integers(0, 9), min_size=1, max_size=5),
    K=st.sampled_from([1, 3, 5]),
)
@example(scores={0: 0.01, 1: 0.010000000000000002}, truth={0}, K=1)
def test_precision_invariant_to_monotone_score_transform(scores, truth, K):
    ranked = top_k_labels(scores, K)
    warped = {w: math.exp(s) for w, s in scores.items()}
    # exp is monotone but may round two close scores to one float, and the
    # tie then breaks by label
    assume(len(set(warped.values())) == len(set(scores.values())))
    assert precision_at_k(ranked, truth, K) == precision_at_k(
        top_k_labels(warped, K), truth, K
    )


@settings(deadline=None, max_examples=200)
@given(
    pred=st.lists(st.integers(0, 9), max_size=6, unique=True),
    truth=st.sets(st.integers(0, 9), min_size=1, max_size=6),
    K=st.sampled_from([1, 3, 5]),
)
def test_ndcg_one_iff_top_slots_all_correct(pred, truth, K):
    want = len(pred[: min(K, len(truth))]) == min(K, len(truth)) and all(
        w in truth for w in pred[: min(K, len(truth))]
    )
    assert (ndcg_at_k(pred, truth, K) == pytest.approx(1.0, abs=1e-12)) == want


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_single_perfect_sample():
    # truth needs at least 5 labels for P@5 to reach 1
    props = uniform_propensity(8)
    scores = {1: 2.0, 2: 1.5, 4: 1.0, 5: 0.8, 6: 0.5}
    report = evaluate(top_labels([scores]), truth_matrix([np.array([1, 2, 4, 5, 6])], 8), props)
    for name, value in report.values.items():
        assert value == pytest.approx(1.0), name
    assert report.samples == 1 and report.skipped == 0


def test_evaluate_excludes_empty_truth():
    props = uniform_propensity(6)
    truths = truth_matrix([np.array([], dtype=np.int64), np.array([1])], 6)
    report = evaluate(top_labels([{1: 1.0}, {1: 1.0}]), truths, props)
    assert report.samples == 1 and report.skipped == 1
    assert report["P@1"] == 1.0


def test_evaluate_definitional_identities_randomized():
    rng = np.random.default_rng(123)
    props = propensity(rng.integers(1, 300, size=30), n=900)
    for _ in range(1000):
        n_scores = rng.integers(1, 8)
        scores = {
            int(w): float(rng.uniform(0.01, 3))
            for w in rng.choice(30, size=n_scores, replace=False)
        }
        truth = set(
            int(w) for w in rng.choice(30, size=rng.integers(1, 6), replace=False)
        )
        ranked = top_k_labels(scores, 5)
        assert precision_at_k(ranked, truth, 1) == ndcg_at_k(ranked, truth, 1)
        assert psp_at_k(ranked, truth, props, 1) == psn_at_k(ranked, truth, props, 1)


def test_evaluate_ten_sample_fixture_matches_reference():
    """Frozen 10-sample fixture; every one of the 12 values must match the
    loop-based reference aggregation to 1e-9."""
    freqs = np.array([50, 3, 17, 220, 9, 1, 74, 31])
    n_train = 400
    props = propensity(freqs, n_train, a=0.55, b=1.5)
    ref_props = ref_propensities(freqs, n_train, 0.55, 1.5)
    predictions = [
        {0: 2.1, 3: 1.4, 5: 0.2},
        {1: 0.9, 2: 0.8, 4: 0.7, 6: 0.1},
        {7: 1.0},
        {2: 1.2, 3: 1.1, 0: 0.4, 1: 0.3, 6: 0.2, 5: 0.1},
        {},
        {4: 0.5, 5: 0.5},
        {6: 2.2, 0: 2.2},
        {1: 0.6, 7: 0.55, 3: 0.5, 2: 0.45, 4: 0.4},
        {5: 3.0, 2: 0.1},
        {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0},
    ]
    truths = [
        {0, 5},
        {2, 4},
        {7},
        {3},
        {1, 6},
        {0},
        {0, 6},
        {1, 2, 3},
        {5},
        {5, 6, 7},
    ]
    report = evaluate(
        top_labels(predictions), truth_matrix([sorted(t) for t in truths], freqs.size), props
    )
    for K in (1, 3, 5):
        for name, fn in (
            ("P", ref_precision),
            ("N", ref_ndcg),
            ("PSP", lambda p, t, k: ref_psp(p, t, ref_props, k)),
            ("PSN", lambda p, t, k: ref_psn(p, t, ref_props, k)),
        ):
            if name in ("P", "N"):
                vals = [fn(top_k_labels(sv, 5), t, K) for sv, t in zip(predictions, truths)]
            else:
                vals = [fn(top_k_labels(sv, 5), t, K) for sv, t in zip(predictions, truths)]
            want = sum(vals) / len(vals)
            assert report[f"{name}@{K}"] == pytest.approx(want, abs=1e-9), f"{name}@{K}"
    assert report.samples == 10 and report.skipped == 0


def test_report_identities_and_formats():
    props = uniform_propensity(4)
    report = evaluate(
        top_labels([{0: 1.0, 2: 0.5}, {1: 0.7}]),
        truth_matrix([np.array([0, 1]), np.array([2])], 4),
        props,
    )
    assert report["P@1"] == report["N@1"]
    assert report["PSP@1"] == report["PSN@1"]
    header, row = report.tsv_header(), report.tsv_row()
    assert header.split("\t")[0] == "P@1" and header.split("\t")[-1] == "skipped"
    assert len(header.split("\t")) == len(row.split("\t")) == 14
    grid = report.format_grid()
    assert "P" in grid and "@5" in grid and "samples 2" in grid


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        evaluate(top_labels([{0: 1.0}]), truth_matrix([], 2), uniform_propensity(2))


def test_evaluate_names_the_first_true_label_outside_the_model():
    """A true label at or above the model's L is refused with a ValueError
    naming it, not an IndexError from the propensity lookup; a predicted
    label outside the model that is no true label is a miss."""
    predictions = top_labels([{1: 2.0}, {9: 1.0}, {0: 1.0}])
    props = uniform_propensity(8)
    truths = truth_matrix([np.array([1]), np.array([2, 9, 8]), np.array([12])], 13)
    message = "^true label 8 of sample 1 is outside the propensity model's 8 labels$"
    with pytest.raises(ValueError, match=message):
        evaluate(predictions, truths, props, ks=(1,))
    truths = truth_matrix([np.array([1]), np.array([2]), np.array([0])], 8)
    report = evaluate(predictions, truths, props, ks=(1,))
    assert report["P@1"] == 2 / 3


def test_evaluate_counts_a_repeated_cutoff_once():
    props = uniform_propensity(8)
    predictions = top_labels([{1: 2.0, 2: 1.0}, {3: 1.0, 4: 0.5}])
    truths = truth_matrix([np.array([1]), np.array([4, 5])], 8)
    once = evaluate(predictions, truths, props, ks=(1, 3))
    twice = evaluate(predictions, truths, props, ks=(1, 1, 3))
    assert twice.values == once.values and twice["P@1"] == 0.5


def test_evaluate_counts_repeated_and_unsorted_truths_once():
    """A truths row that stores a label twice, or its labels out of order,
    reads as the set of its labels: the report equals the dict reference's
    on the same lists, which takes each list as a set."""
    rng = np.random.default_rng(11)
    L = 12
    rows = [
        dict(zip(rng.choice(L, 6, replace=False).tolist(), rng.uniform(0.1, 2, 6).tolist()))
        for _ in range(400)
    ]
    truths = [rng.choice(L, rng.integers(0, 7)).tolist() for _ in rows]  # with repeats
    assert any(len(set(t)) < len(t) for t in truths)
    assert any(t != sorted(t) for t in truths)
    props = propensity(rng.integers(0, 30, L), n=400)
    got = evaluate(top_labels(rows), truth_matrix(truths, L), props)
    want = evaluate_dicts(rows, truths, props)
    assert (got.values, got.samples, got.skipped) == (want.values, want.samples, want.skipped)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truth_hits_equal_unique_and_isin(data):
    """The sorted keys and the slot mask are the ones `np.unique` and
    `np.isin` give: truth sets empty, with repeats, holding label 0; slots
    with -1 pads and repeated labels."""
    L = data.draw(st.integers(1, 6))
    truths = data.draw(st.lists(st.lists(st.integers(0, L - 1), max_size=6), min_size=1, max_size=8))
    K = data.draw(st.integers(1, 4))
    slots = st.lists(st.integers(-1, L - 1), min_size=K, max_size=K)
    pred = np.array(data.draw(st.lists(slots, min_size=len(truths), max_size=len(truths))))
    keys, span, hit = truth_hits(pred, truth_matrix(truths, L))
    want_keys, want_span, want_hit = isin_truth_hits(pred, truths)
    assert span == want_span
    assert keys.dtype == want_keys.dtype and np.array_equal(keys, want_keys)
    assert hit.shape == want_hit.shape and np.array_equal(hit, want_hit)


@pytest.mark.parametrize("cells", [1, 7, 40, 1 << 16])
def test_evaluate_in_blocks_equals_one_batch(cells):
    """Blocks of 1 sample, of a few, and of every sample give the report of
    one pass over the whole batch, bit for bit: pads, empty and repeated
    truths, and repeated and unsorted cutoffs; a true label outside the
    model is named with its sample's index in the batch."""
    rng = np.random.default_rng(12)
    L, m, ks = 15, 37, (3, 1, 8, 3)
    pred = np.array([np.r_[rng.choice(L, 8 - pad, replace=False), [-1] * pad] for pad in rng.integers(0, 4, m)])
    truths = truth_matrix([rng.choice(L, rng.integers(0, 5)) for _ in range(m)], L)
    props = propensity(rng.integers(0, 30, L), n=500)
    with mock.patch.object(metrics, "_EVAL_CELLS", cells):
        got = evaluate(pred, truths, props, ks)
        bad = truth_matrix([[0]] * 30 + [[2, L + 1], [L + 3]], L + 4)
        with pytest.raises(ValueError, match=f"^true label {L + 1} of sample 30 is outside"):
            evaluate(pred[:32], bad, props, ks)
    want = evaluate_unblocked(pred, truths, props, ks)
    assert (got.values, got.samples, got.skipped) == (want.values, want.samples, want.skipped)
    assert got.samples < m


def test_evaluate_memory_does_not_grow_with_the_batch_times_k():
    """200 samples ranked to K = 20,000: `evaluate`'s tracemalloc peak stays
    under 4 MiB. One pass over all 4M (sample, slot) cells held about 49
    bytes per cell."""
    rng = np.random.default_rng(13)
    L, m, K = 30_000, 200, 20_000
    pred = np.array([rng.permutation(L)[:K] for _ in range(m)])
    truths = truth_matrix([row[rng.choice(K, 5, replace=False)] for row in pred], L)
    props = propensity(rng.integers(0, 30, L), n=500)
    tracemalloc.start()
    try:
        report = evaluate(pred, truths, props, (1, 5, K))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert report.samples == m and report[f"P@{K}"] == pytest.approx(5 / K)
    assert report[f"PSP@{K}"] == pytest.approx(1.0)
