"""Independent reference implementations used by the test suite.

Everything here is deliberately naive (dense arrays, python loops, full
sorts) and shares no code path with the package beyond the definitional
gaussian row stream, which is the identity of the projection matrix itself.
The exceptions are `predict`, the per-query composition of the package's
own steps, which the batch paths are checked against, `sweep_r`, one
`fused_scores` call per r, which the one-pass dimension sweep is checked
against, and the dict label side (`fuse`, `top_k_labels`,
`format_dicts`, `evaluate_dicts`): one {label: score} dict per sample, the
representation the sparse score matrix replaced, kept as its reference.
"""

import math

import numpy as np
import scipy.sparse as sp

from ogeec.embedding import EmbeddingSpec, embed_single, materialize_row
from ogeec.ensemble import EnsembleSpec, fused_scores
from ogeec.metrics import DEFAULT_KS, METRIC_NAMES, EvalReport
from ogeec.predictor import knn, propagate, top_k


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


def sweep_r(seed, train_ds, test_ds, rs, k):
    """(r, scores) of the `seed` learner, projected afresh at each r."""
    specs = [EnsembleSpec(seeds=(seed,), d=train_ds.d, r=r, k=k) for r in rs]
    return [(s.r, fused_scores(s, train_ds, test_ds)) for s in specs]


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


# ---------------------------------------------------------------------------
# the dict label side


def row_scores(S, i) -> dict:
    """Row i of a score matrix as {label: score}."""
    a, b = S.indptr[i], S.indptr[i + 1]
    return dict(zip(S.indices[a:b].tolist(), S.data[a:b].tolist()))


def score_dicts(S) -> list[dict]:
    """A score matrix as one {label: score} dict per row."""
    return [row_scores(S, i) for i in range(S.shape[0])]


def score_csr(dicts, L) -> sp.csr_matrix:
    """One {label: score} dict per row as an (m, L) score matrix."""
    indptr = np.cumsum([0] + [len(sv) for sv in dicts])
    indices = [w for sv in dicts for w in sv]
    data = [s for sv in dicts for s in sv.values()]
    data = np.array(data, dtype=float)
    return sp.csr_matrix((data, np.array(indices, dtype=np.int64), indptr), shape=(len(dicts), L))


def top_labels(dicts, K=5) -> np.ndarray:
    """The (m, K) top-label array of dict scores, for `evaluate`."""
    L = 1 + max((w for sv in dicts for w in sv), default=0)
    return top_k(score_csr(dicts, L), K)[0]


def fuse(score_vectors):
    """Uniform average: labels summed in learner order from 0.0, then divided
    by the learner count; a label absent from a learner contributes 0 for it."""
    acc = {}
    for sv in score_vectors:
        for w, s in sv.items():
            acc[w] = acc.get(w, 0.0) + s
    return {w: s / len(score_vectors) for w, s in acc.items()}


def top_k_labels(scores, K):
    """Labels by descending score, ties by ascending label index."""
    order = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [w for w, _ in order[:K]]


def format_dicts(scores, K) -> str:
    """Prediction TSV of dict scores: per sample the top K label:score pairs."""
    lines = []
    for sv in scores:
        lines.append("\t".join(f"{w}:{sv[w]:.6g}" for w in top_k_labels(sv, K)))
    return "\n".join(lines) + "\n"


def evaluate_dicts(predictions, truths, model, ks=DEFAULT_KS) -> EvalReport:
    """Mean metrics of dict scores over the samples with nonempty truth, one
    sample at a time with the `ref_*` metric functions."""
    props = model.propensities.tolist()
    max_k = max(ks)
    sums = {f"{m}@{k}": 0.0 for m in METRIC_NAMES for k in ks}
    used = skipped = 0
    for sv, truth in zip(predictions, truths):
        truth = set(int(t) for t in truth)
        if not truth:
            skipped += 1
            continue
        used += 1
        labels = top_k_labels(sv, max_k)
        for k in sorted(set(ks)):
            sums[f"P@{k}"] += ref_precision(labels, truth, k)
            sums[f"N@{k}"] += ref_ndcg(labels, truth, k)
            sums[f"PSP@{k}"] += ref_psp(labels, truth, props, k)
            sums[f"PSN@{k}"] += ref_psn(labels, truth, props, k)
    values = {name: total / max(used, 1) for name, total in sums.items()}
    return EvalReport(values=values, samples=used, skipped=skipped, ks=tuple(ks))
