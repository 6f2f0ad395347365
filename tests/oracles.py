"""Independent reference implementations used by the test suite.

Everything here is deliberately naive (dense arrays, python loops, full
sorts) and shares no code path with the package beyond the definitional
gaussian row stream, which is the identity of the projection matrix itself.
The one exception is `predict`, the per-query composition of the package's
own steps, which the batch paths are checked against.
"""

import math

import numpy as np

from ogeec.embedding import EmbeddingSpec, embed_single, materialize_row
from ogeec.predictor import knn, propagate


def dense_rows(ds) -> np.ndarray:
    out = np.zeros((ds.n, ds.d))
    for i in range(ds.n):
        row = ds.feature_row(i)
        out[i, row.indices] = row.values.astype(np.float64)
    return out


def normalize_rows(A: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(A, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return A / norms


def naive_end_to_end(seed, train_ds, test_ds, r, k):
    """Dense float64 matrix multiply plus full sort, per test sample."""
    d = train_ds.d
    spec = EmbeddingSpec(seed=seed, d=d, r=r)
    F = np.vstack([materialize_row(spec, i) for i in range(r)])
    P_train = normalize_rows(normalize_rows(dense_rows(train_ds)) @ F.T)
    P_test = normalize_rows(normalize_rows(dense_rows(test_ds)) @ F.T)
    labelsets = train_ds.labelsets()
    out = []
    for t in range(test_ds.n):
        sims = P_train @ P_test[t]
        order = sorted(range(train_ds.n), key=lambda i: (-sims[i], i))[:k]
        scores = {}
        for i in order:
            weight = max(float(sims[i]), 0.0)
            if weight <= 0.0:
                continue
            for w in labelsets[i]:
                scores[int(w)] = scores.get(int(w), 0.0) + weight
        out.append(scores)
    return out


def knn_scan(query, data, k):
    """Every column's float64 score, one column at a time, then a full sort.

    The score is the search kernel's definition: float64 products of the
    query and the column, summed along one contiguous vector.
    """
    q64 = np.asarray(query, dtype=np.float64)
    sims = [float((data[:, j].astype(np.float64) * q64).sum()) for j in range(data.shape[1])]
    order = sorted(range(len(sims)), key=lambda j: (-sims[j], j))
    return [(j, sims[j]) for j in order[:k]]


def predict(spec, train, labelsets, query, k):
    """Single-learner prediction for one query: embed_single, knn, propagate."""
    return propagate(knn(embed_single(spec, query), train, k), labelsets)


def ref_propensities(freqs, n, a, b):
    c = (math.log(n) - 1.0) * (b + 1.0) ** a
    return [1.0 / (1.0 + c * math.exp(-a * math.log(f + b))) for f in freqs]


def ref_precision(pred, truth, K):
    hits = 0
    for w in pred[:K]:
        if w in truth:
            hits += 1
    return hits / K


def ref_ndcg(pred, truth, K):
    if not truth:
        return 0.0
    dcg = 0.0
    for pos, w in enumerate(pred[:K]):
        if w in truth:
            dcg += 1.0 / math.log2(pos + 2)
    idcg = sum(1.0 / math.log2(i + 2) for i in range(min(K, len(truth))))
    return dcg / idcg


def ref_psp(pred, truth, props, K):
    if not truth:
        return 0.0
    num = 0.0
    for w in pred[:K]:
        if w in truth:
            num += 1.0 / props[w]
    best = sorted((1.0 / props[w] for w in truth), reverse=True)
    return num / sum(best[: min(K, len(best))])


def ref_psn(pred, truth, props, K):
    if not truth:
        return 0.0
    num = 0.0
    for pos, w in enumerate(pred[:K]):
        if w in truth:
            num += (1.0 / props[w]) / math.log2(pos + 2)
    best = sorted((1.0 / props[w] for w in truth), reverse=True)
    ideal = 0.0
    for i, wgt in enumerate(best[: min(K, len(best))]):
        ideal += wgt / math.log2(i + 2)
    return num / ideal
