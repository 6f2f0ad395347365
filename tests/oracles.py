"""Independent reference implementations used by the test suite.

Everything here is deliberately naive (dense arrays, python loops, full
sorts) and shares no code path with the package beyond the definitional
gaussian row stream, which is the identity of the projection matrix
itself. `box_muller` defines that stream step by step, and `project_full`
applies every column of F drawn from it, the reference for the projection
that draws only the columns its samples use. The exceptions are `predict`,
the per-query composition of the package's own steps, which the batch
paths are checked against, `sweep_r`, one `fused_scores` call per r, which
the one-pass dimension sweep is checked against, and the dict label side
(`fuse`, `top_k_labels`, `format_dicts`, `evaluate_dicts`): one
{label: score} dict per sample, the representation the sparse score matrix
replaced, kept as its reference. `parse_dataset` is the whole-file,
line-by-line parser the chunked parser replaced, with its own copies of the
per-line helpers; it builds its dataset with `data._assemble`, which the
chunked parser does not use. `lexsort_top_k` is `predictor.top_k` before
its selection stage, one lexsort of every stored entry, the reference that
`scripts/rank_bench.py` times it against.
"""

import math

import numpy as np
import scipy.sparse as sp

from ogeec.data import _F32_MAX, DatasetFormatError, SparseDataset, _assemble

from ogeec.embedding import EmbeddingSpec, embed_single, gaussian_words, materialize_row
from ogeec.ensemble import EnsembleSpec, fused_scores
from ogeec.metrics import DEFAULT_KS, METRIC_NAMES, EvalReport, PropensityModel
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


def box_muller(seed, stream, count):
    """The (seed, stream) gaussian row: Philox words to 53-bit uniforms
    u1 in (0, 1] and u2 in [0, 1), then column 2t = radius_t * cos(angle_t)
    and column 2t+1 = radius_t * sin(angle_t)."""
    m = (count + 1) // 2
    raw = gaussian_words(seed, stream, 2 * m)
    u1 = ((raw[:m] >> 11) + 1) * 2.0**-53
    u2 = (raw[m:] >> 11) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * m)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def project_full(spec, X, dtype):
    """F applied to CSR rows as an (r, n) `dtype` array, from every column of
    F, each element summed in its row's stored order."""
    F = np.vstack([box_muller(spec.seed, i, spec.d) for i in range(spec.r)])
    out = np.zeros((spec.r, X.shape[0]))
    for i in range(X.shape[0]):
        for jj in range(X.indptr[i], X.indptr[i + 1]):
            out[:, i] += X.data[jj] * F[:, X.indices[jj]]
    return out.astype(dtype)


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


def neighbor_lists(index, sims):
    """`knn`'s (m, k) arrays as one list of (index, sim) pairs per row, the
    -1 pads dropped; a single (k,) row gives a single list."""
    if np.ndim(index) == 1:
        return neighbor_lists([index], [sims])[0]
    return [
        [(i, s) for i, s in zip(row, vals) if i != -1]
        for row, vals in zip(np.asarray(index).tolist(), np.asarray(sims).tolist())
    ]


def neighbor_arrays(lists):
    """Ragged lists of (index, sim) pairs as (m, k) index and sim arrays, k the
    longest list's length, padded with -1 and 0.0 as `top_k` pads."""
    k = max(map(len, lists), default=0)
    index = np.full((len(lists), k), -1, dtype=np.int64)
    sims = np.zeros((len(lists), k))
    for row, pairs in enumerate(lists):
        for col, (i, s) in enumerate(pairs):
            index[row, col], sims[row, col] = i, s
    return index, sims


def predict(spec, train, labelsets, query, k):
    """Single-learner prediction for one query: embed_single, knn, propagate."""
    return propagate(neighbor_lists(*knn(embed_single(spec, query), train, k)), labelsets)


def sweep_r(seed, train_ds, test_ds, rs, k):
    """(r, scores) of the `seed` learner, projected afresh at each r."""
    specs = [EnsembleSpec(seeds=(seed,), d=train_ds.d, r=r, k=k) for r in rs]
    return [(s.r, fused_scores(s, train_ds, test_ds)) for s in specs]


def ref_propensities(freqs, n, a, b):
    c = (math.log(n) - 1.0) * (b + 1.0) ** a
    return [1.0 / (1.0 + c * math.exp(-a * math.log(f + b))) for f in freqs]


def uniform_propensity(L: int) -> PropensityModel:
    """All-ones model; PSP@K then reduces to P@K when |truth| >= K."""
    return PropensityModel(a=1.0, b=0.0, c=0.0, propensities=np.ones(L))


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


def rank_rows(data, indices, indptr, K):
    """Each CSR row's first K (index, score) pairs by descending score, ties
    by ascending index: one Python sort per row."""
    out = []
    for a, b in zip(indptr[:-1], indptr[1:]):
        row = zip(indices[a:b].tolist(), data[a:b].tolist())
        out.append(sorted(row, key=lambda entry: (-entry[1], entry[0]))[:K])
    return out


def lexsort_top_k(data, indices, indptr, K):
    """`predictor.top_k` as it was before its selection stage: one lexsort of
    every stored entry by (row, -score, index), then each row's first K, padded
    with index -1 and score 0.0. NaN ranks after every number."""
    m = indptr.size - 1
    rows = np.repeat(np.arange(m), np.diff(indptr))
    order = np.lexsort((indices, -data, rows))
    rank = np.arange(order.size) - indptr[rows]
    keep = rank < K
    best = np.full((m, K), -1, dtype=np.int64)
    top = np.zeros((m, K))
    best[rows[keep], rank[keep]] = indices[order[keep]]
    top[rows[keep], rank[keep]] = data[order[keep]]
    return best, top


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



def _parse_labels(token: str, L: int, lineno: int) -> np.ndarray:
    if token == "":
        return np.empty(0, dtype=np.int64)
    if ":" in token:
        raise DatasetFormatError(
            f"line {lineno}: label field contains ':' "
            "(unlabeled samples need a leading space)"
        )
    out = []
    for part in token.split(","):
        try:
            lab = int(part)
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: bad label {part!r}") from None
        if not 0 <= lab < L:
            raise DatasetFormatError(
                f"line {lineno}: label index {lab} out of range [0, {L})"
            )
        out.append(lab)
    return np.array(sorted(set(out)), dtype=np.int64)


def _parse_features(
    tokens: list[str], d: int, lineno: int
) -> tuple[np.ndarray, np.ndarray]:
    idx, val = [], []
    for tok in tokens:
        if tok == "":
            continue
        head, sep, tail = tok.partition(":")
        if not sep:
            raise DatasetFormatError(f"line {lineno}: bad feature pair {tok!r}")
        try:
            j = int(head)
            v = float(tail)
        except ValueError:
            raise DatasetFormatError(
                f"line {lineno}: bad feature pair {tok!r}"
            ) from None
        if not 0 <= j < d:
            raise DatasetFormatError(
                f"line {lineno}: feature index {j} out of range [0, {d})"
            )
        # values are stored as float32, so magnitudes beyond its range are
        # non-finite for this artifact
        if not math.isfinite(v) or abs(v) > _F32_MAX:
            raise DatasetFormatError(f"line {lineno}: non-finite value in {tok!r}")
        idx.append(j)
        val.append(v)
    indices = np.array(idx, dtype=np.int64)
    values = np.array(val, dtype=np.float32)
    if indices.size:
        order = np.argsort(indices, kind="stable")
        indices, values = indices[order], values[order]
        if np.any(np.diff(indices) == 0):
            dup = int(indices[np.flatnonzero(np.diff(indices) == 0)[0]])
            raise DatasetFormatError(f"line {lineno}: duplicate feature index {dup}")
    return indices, values


def parse_dataset(path) -> SparseDataset:
    """Parse and validate a dataset file; errors carry 1-based line numbers."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetFormatError("line 1: empty file")
    header = lines[0].split()
    if len(header) != 3:
        raise DatasetFormatError("line 1: header must be 'n d L'")
    try:
        n, d, L = (int(tok) for tok in header)
    except ValueError:
        raise DatasetFormatError("line 1: header must be 'n d L'") from None
    if n <= 0 or d <= 0 or L <= 0:
        raise DatasetFormatError("line 1: header fields must be positive")
    if len(lines) - 1 != n:
        raise DatasetFormatError(
            f"expected {n} sample lines after the header, found {len(lines) - 1}"
        )
    feature_rows, label_rows = [], []
    for i in range(n):
        lineno = i + 2
        fields = lines[i + 1].split(" ")
        label_rows.append(_parse_labels(fields[0], L, lineno))
        feature_rows.append(_parse_features(fields[1:], d, lineno))
    return _assemble(feature_rows, label_rows, d, L)
