"""The sparse label side against the dict reference in `oracles`, and the
scipy arithmetic that its scipy oracle (`oracles.sp_label_scores`) rests on.

Scores, prediction TSV text and metric reports must be exactly equal to the
dict path's: the score matrix changes the representation, not one float.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dict_neighbours,
    evaluate_dicts,
    format_dicts,
    fuse,
    label_scores,
    neighbor_arrays,
    one_label_each,
    ranking_dicts,
    score_dicts,
    score_matrix,
    sp_score_matrix,
    to_scipy,
    top_labels,
    truth_matrix,
)

from ogeec import ensemble
from ogeec.ensemble import EnsembleSpec, fused_scores, sweep_ensemble_size
from ogeec.metrics import evaluate, propensity
from ogeec.predictor import format_predictions, propagate

# similarities spanning 1e-3 to 1e3, a few repeated values so that scores tie
# across labels and learners, and nonpositive ones that transfer nothing
_SIM = st.one_of(
    st.floats(-3, 3).map(lambda e: 10.0**e),
    st.sampled_from([0.25, 0.5, 1.0]),
    st.sampled_from([0.0, -0.0, -0.5, -1e-3]),
)


@st.composite
def label_side(draw):
    n = draw(st.integers(1, 10))
    L = draw(st.integers(1, 12))
    labels = st.sets(st.integers(0, L - 1), max_size=L)  # may be empty
    sets = draw(st.lists(labels, min_size=n, max_size=n))
    labelsets = [np.array(sorted(s), dtype=np.int64) for s in sets]
    m = draw(st.integers(1, 8))
    E = draw(st.sampled_from([1, 3, 5, 7]))

    def neighbors():
        idx = draw(st.lists(st.integers(0, n - 1), max_size=min(n, 6), unique=True))
        return [(i, draw(_SIM)) for i in idx]

    learners = [[neighbors() for _ in range(m)] for _ in range(E)]
    truths = [sorted(draw(labels)) for _ in range(m)]
    ks = draw(st.sampled_from([(1, 2, 7), (1, 3, 5), (5, 3, 1), (4,)]))
    K = draw(st.integers(1, 9))
    freqs = draw(st.lists(st.integers(0, 50), min_size=L, max_size=L))
    return labelsets, L, learners, truths, ks, K, propensity(np.array(freqs), n=100)


@settings(deadline=None, max_examples=300)
@given(case=label_side())
def test_sparse_label_side_equals_dict_path(case):
    labelsets, L, learners, truths, ks, K, props = case
    Y = truth_matrix(labelsets, L)
    found = [neighbor_arrays(lists) for lists in learners]
    mats = [score_matrix(*nb, Y) for nb in found]
    dicts = [[propagate(nb, labelsets) for nb in lists] for lists in learners]
    for S, want in zip(mats, dicts):
        assert score_dicts(S) == want

    spec = EnsembleSpec(seeds=tuple(range(len(mats))), d=10, r=2, k=5)
    train = mock.Mock(labels=Y)
    with mock.patch.object(ensemble, "learner_neighbours", lambda *a, **kw: iter(found)):
        # ranked at K = L, the fused ranking holds every fused score
        fused, top, ranked = (fused_scores(spec, train, None, width) for width in (L, K, max(ks)))
        test = mock.Mock(n=len(truths), labels=truth_matrix(truths, L))
        sizes = list(range(1, len(mats) + 1))
        own, fused_rankings = sweep_ensemble_size(spec, train, test, sizes, max(ks))
    fused_dicts = [fuse(list(per_query)) for per_query in zip(*dicts)]
    assert ranking_dicts(fused) == fused_dicts
    assert format_predictions(*top) == format_dicts(fused_dicts, K)

    got = evaluate(ranked[0], truth_matrix(truths, L), props, ks=ks)
    want = evaluate_dicts(fused_dicts, truths, props, ks=ks)
    assert (got.values, got.samples, got.skipped) == (want.values, want.samples, want.skipped)
    assert got.tsv_row() == want.tsv_row()
    assert list(fused_rankings) == sizes
    for size, ranking in fused_rankings.items():
        prefix = [fuse(list(q[:size])) for q in zip(*dicts)]
        report = evaluate(ranking[0], test.labels, props, ks=ks)
        assert report.values == evaluate_dicts(prefix, truths, props, ks=ks).values
    assert len(own) == len(dicts)
    for ranking, per_query in zip(own, dicts):
        report = evaluate(ranking[0], test.labels, props, ks=ks)
        assert report.values == evaluate_dicts(per_query, truths, props, ks=ks).values


def _spread_neighbors(rng, m, n, k):
    """Per query k distinct neighbours with similarities from 1e-3 to 1e3."""
    lists = []
    for _ in range(m):
        index, sims = rng.choice(n, k, replace=False), 10.0 ** rng.uniform(-3, 3, k)
        lists.append([(int(i), float(s)) for i, s in zip(index, sims)])
    return lists


def test_product_sums_in_neighbour_order():
    """W @ Y adds each label's similarities in W's stored (neighbour) order.

    500 queries of 5 neighbours, about 75 labels per query. A scipy that
    sorted W's indices or summed in another order would change some sums;
    the reversed order below shows that it would.
    """
    rng = np.random.default_rng(5)
    n, L = 60, 120
    labelsets = [np.sort(rng.choice(L, 20, replace=False)) for _ in range(n)]
    lists = _spread_neighbors(rng, 500, n, 5)
    sims = [s for nb in lists for _, s in nb]
    index = [i for nb in lists for i, _ in nb]
    W = sp.csr_matrix((sims, index, np.arange(0, 2501, 5)), shape=(500, n))
    assert not W.has_sorted_indices
    stored = W.indices.copy()
    S = W @ to_scipy(truth_matrix(labelsets, L))
    assert np.array_equal(W.indices, stored)
    assert np.diff(S.indptr).mean() > 70
    want = [propagate(nb, labelsets) for nb in lists]
    assert score_dicts(S) == want
    assert score_dicts(score_matrix(*neighbor_arrays(lists), truth_matrix(labelsets, L))) == want
    reversed_order = [propagate(nb[::-1], labelsets) for nb in lists]
    assert reversed_order != want


def test_out_of_range_neighbour_is_rejected():
    """Only -1 is a pad: it is dropped and leaves its row empty. Any other
    index outside the train set raises, where numpy indexing would wrap a
    negative one around and scipy's `W @ Y` would read past Y."""
    Y = truth_matrix([np.array([0])], 1)
    sims = np.array([[0.5], [0.5]])
    S = score_matrix(np.array([[0], [-1]]), sims, Y)
    assert score_dicts(S) == [{0: 0.5}, {}]
    for bad in (1, -2):
        with pytest.raises(IndexError):
            score_matrix(np.array([[0], [bad]]), sims, Y)


def test_sum_adds_entries_or_keeps_the_lone_one():
    """A + B stores a + b where both hold a label and a or b where one does,
    for the unsorted matrices scipy's W @ Y returns and for sorted ones."""
    rng = np.random.default_rng(6)
    Y = truth_matrix([np.sort(rng.choice(80, 10, replace=False)) for _ in range(40)], 80)
    A, B = (
        sp_score_matrix(*neighbor_arrays(_spread_neighbors(rng, 300, 40, 4)), Y) for _ in range(2)
    )
    assert not A.has_sorted_indices
    for a, b in ((A, B), (A.sorted_indices(), B.sorted_indices())):
        da, db = score_dicts(a), score_dicts(b)
        want = [
            {w: x.get(w, 0.0) + y.get(w, 0.0) for w in x.keys() | y.keys()}
            for x, y in zip(da, db)
        ]
        assert score_dicts(a + b) == want
        lone = [{w: s for w, s in row.items() if w not in y} for row, y in zip(want, db)]
        assert all(row[w] == x[w] for row, x in zip(lone, da) for w in row)


def test_fusion_divides_each_score():
    """The mean is x / E for every stored x; S / E would multiply by 1 / E,
    which rounds differently for E = 3, 5, 7 and 10. The first learner
    scores S, and the others score nothing."""
    rng = np.random.default_rng(7)

    def values(size):
        return rng.uniform(1e-3, 1e3, size)

    S = sp.random(1000, 1000, density=0.1, format="csr", random_state=rng, data_rvs=values)
    S.sort_indices()  # label_scores stores each row in ascending label order
    assert S.nnz == 100_000
    first, nothing = dict_neighbours(score_dicts(S)), neighbor_arrays([[]] * 1000)
    for E in (3, 5, 7, 10):
        fused = label_scores([first] + [nothing] * (E - 1), one_label_each(1000))
        assert fused.data.tolist() == [x / E for x in S.data.tolist()]


def test_metric_means_add_samples_in_order():
    """Each mean adds the per-sample values in sample order, as the dict
    path's loop does; numpy's pairwise sum over 3,000 samples would not."""
    rng = np.random.default_rng(8)
    L = 200
    rows = [
        dict(zip(rng.choice(L, 12, replace=False).tolist(), rng.uniform(0.01, 3, 12).tolist()))
        for _ in range(3000)
    ]
    truths = [sorted(rng.choice(L, rng.integers(0, 8), replace=False).tolist()) for _ in rows]
    props = propensity(rng.integers(0, 40, L), n=3000)
    got = evaluate(top_labels(rows), truth_matrix(truths, L), props)
    want = evaluate_dicts(rows, truths, props)
    assert (got.values, got.samples, got.skipped) == (want.values, want.samples, want.skipped)
