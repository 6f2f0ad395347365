"""Independent reference implementations used by the test suite.

Everything here is deliberately naive (dense arrays, python loops, full
sorts) and shares no code path with the package beyond the definitional
gaussian row stream, which is the identity of the projection matrix
itself. `box_muller` defines that stream step by step and is the only
source of whole rows of F, since the package draws F only at the columns a
projection uses; `project_full` applies every column of F drawn from it, the
reference for that projection. `feature_row` gives one sample as a `Row`
of views into its dataset's feature CSR, for the per-sample oracles,
`float64_features` that CSR with float64 values, as the `sp_*` oracles take
it, and `labelsets` gives every sample's labels as a list of views of the
label CSR; `truth_matrix` builds a label CSR from such lists, as Y or as the
truths that `metrics.evaluate` reads. The
exceptions are `embed_single`, one sample projected alone through the
package's `project_csr` (no command
projects a single sample, so it lives here), `predict`, the per-query
composition of the package's own steps, which the batch paths are checked
against, `same_dataset`, the CSR-by-CSR comparison of two parsed
datasets, `sweep_r`, one `fused_scores` call per r, which
the one-pass dimension sweep is checked against, `score_matrix`, one
learner's label scores of every query at once, and `label_scores`, the
learners' mean of them, which the blocked label pass is checked against,
and the dict label side (`fuse`,
`top_k_labels`, `format_dicts`, `evaluate_dicts`): one {label: score} dict
per sample, the representation the sparse score matrix replaced, kept as
its reference. `parse_dataset` is the whole-file,
line-by-line parser that states the text format: each token is checked
against the grammar (`_DIGITS`, `_VALUE`, `_NON_FINITE`) before `int()` or
`float()` reads it, and the dataset is built with `data._assemble`, which
the numpy parser does not use; `scripts/kernel_bench.py` times that parser
against it. `lexsort_top_k` is `predictor.top_k` before its selection
stage, one lexsort of every stored entry, kept as `test_predictor.py`'s
oracle for it. The `sp_*` functions are the
scipy.sparse expressions that the numpy kernels of `ogeec.csr` replaced,
kept as their bit-for-bit references (`scripts/kernel_bench.py` times the
kernels against them); `to_scipy` and `from_scipy` convert at the boundary.
`scaled_rows`, `vstack` and `position_major` are the unit rows with every
stored entry kept, their stacking and the `RowProducts` build that the
streamed sample preparation replaced, kept as its reference; without its
zeros, `scaled_rows` is `sp_normalize_rows`' matrix.
`feature_sha256` is the cache digest as it was taken when feature indices
were int64: each array converted whole, the formula every v2 cache holds.
"""

import hashlib
import math
import re
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ogeec.csr import CSR, learner_scores, mean_scores
from ogeec.data import _F32_MAX, DatasetFormatError, SparseDataset, _assemble

from ogeec.embedding import project_csr
from ogeec.ensemble import EnsembleSpec, fused_scores
from ogeec.metrics import DEFAULT_KS, METRIC_NAMES, EvalReport
from ogeec.predictor import knn, propagate, top_k


class Row(NamedTuple):
    """One sample's features: its CSR indices and float32 values."""

    indices: np.ndarray
    values: np.ndarray


def feature_row(ds, i) -> Row:
    """Sample i of a `SparseDataset`, as views of its feature CSR."""
    X = ds.features
    a, b = X.indptr[i], X.indptr[i + 1]
    return Row(X.indices[a:b], X.data[a:b])


def labelsets(ds) -> list[np.ndarray]:
    """Each sample's labels, as views of its dataset's label CSR."""
    ptr = ds.labels.indptr
    return [ds.labels.indices[a:b] for a, b in zip(ptr[:-1], ptr[1:])]


def float64_features(ds) -> CSR:
    """The dataset's feature CSR with a float64 copy of its values."""
    return ds.features._replace(data=ds.features.data.astype(np.float64))


def truth_matrix(lists, L) -> CSR:
    """Per-sample label lists as a (len(lists) x L) label CSR, the form of Y
    and of the truths that `metrics.evaluate` reads: row i stores lists[i]
    in its order, repeats kept, with a 1 at each."""
    indices = np.concatenate([np.empty(0, np.int64), *(np.asarray(t, np.int64) for t in lists)])
    indptr = np.cumsum([0] + [len(t) for t in lists])
    return CSR(np.ones(indices.size), indices, indptr, (len(lists), L))


def dense_rows(ds) -> np.ndarray:
    out = np.zeros((ds.n, ds.d))
    for i in range(ds.n):
        row = feature_row(ds, i)
        out[i, row.indices] = row.values.astype(np.float64)
    return out


def normalize_rows(A: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(A, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return A / norms


def gaussian_words(seed, stream, count):
    """The first `count` raw 64-bit words of the (seed, stream) substream:
    Philox under the 128-bit key (seed << 64) | stream, with seed and stream
    each taken mod 2^64."""
    mask = (1 << 64) - 1
    return np.random.Philox(key=((seed & mask) << 64) | (stream & mask)).random_raw(count)


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
    F = np.vstack([box_muller(seed, i, train_ds.d) for i in range(r)])
    P_train = normalize_rows(normalize_rows(dense_rows(train_ds)) @ F.T)
    P_test = normalize_rows(normalize_rows(dense_rows(test_ds)) @ F.T)
    train_labels = labelsets(train_ds)
    out = []
    for t in range(test_ds.n):
        sims = P_train @ P_test[t]
        order = sorted(range(train_ds.n), key=lambda i: (-sims[i], i))[:k]
        scores = {}
        for i in order:
            weight = max(float(sims[i]), 0.0)
            if weight <= 0.0:
                continue
            for w in train_labels[i]:
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


def embed_single(spec, x):
    """One sample (a `Row`) projected alone: `project_csr` of its one-row
    CSR, the (r,) column that `embed` gives it in any dataset."""
    X = CSR(
        x.values.astype(np.float64),
        x.indices,
        np.array([0, x.indices.size], dtype=np.int64),
        (1, spec.d),
    )
    return project_csr(spec, X).ravel()


def predict(spec, train, labelsets, query, k):
    """Single-learner prediction for one query: embed_single, knn, propagate."""
    return propagate(neighbor_lists(*knn(embed_single(spec, query), train, k)), labelsets)


def sweep_r(seed, train_ds, test_ds, rs, k, K):
    """(r, top K ranking) of the `seed` learner, projected afresh at each r."""
    specs = [EnsembleSpec(seeds=(seed,), d=train_ds.d, r=r, k=k) for r in rs]
    return [(s.r, fused_scores(s, train_ds, test_ds, K)) for s in specs]


def feature_sha256(ds) -> bytes:
    """sha256 of the feature CSR, each array converted whole to LE int64,
    int64 and float32."""
    digest = hashlib.sha256()
    X = ds.features
    for array, dtype in zip((X.indptr, X.indices, X.data), ("<i8", "<i8", "<f4")):
        digest.update(np.ascontiguousarray(array, dtype=dtype))
    return digest.digest()


def same_dataset(a, b) -> bool:
    """Two `SparseDataset`s' feature and label CSRs equal: each array element
    for element, and each shape."""
    return all(
        X.shape == Y.shape and all(np.array_equal(x, y) for x, y in zip(X[:3], Y[:3]))
        for X, Y in ((a.features, b.features), (a.labels, b.labels))
    )


def ref_propensities(freqs, n, a, b):
    c = (math.log(n) - 1.0) * (b + 1.0) ** a
    return [1.0 / (1.0 + c * math.exp(-a * math.log(f + b))) for f in freqs]


def uniform_propensity(L: int) -> np.ndarray:
    """All-ones propensities; PSP@K then reduces to P@K when |truth| >= K."""
    return np.ones(L)


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


def ranking_dicts(ranking) -> list[dict]:
    """`top_k`'s (labels, scores) arrays as one {label: score} dict per row,
    the -1 pads dropped. A ranking at K = L holds every stored entry of the
    score matrix it ranks, so its dicts are that matrix's `score_dicts`."""
    return [
        {w: s for w, s in zip(row, vals) if w >= 0}
        for row, vals in zip(ranking[0].tolist(), ranking[1].tolist())
    ]


def label_scores(learners, labels) -> CSR:
    """The mean of the learners' label scores, (W_1·Y + ... + W_E·Y) / E, of
    every query at once: their `csr.learner_scores` blocks added in learner
    order, then `csr.mean_scores`, the arithmetic that the blocked label
    pass (`predictor.rank_prefixes`) does block by block."""
    total = None
    for index, sims in learners:
        block = learner_scores(index, sims, labels)
        total = block if total is None else np.add(total, block, out=total)
    return mean_scores(total, labels.shape[1], len(learners))


def score_matrix(index, sims, labels) -> CSR:
    """One learner's label scores of every query at once, S = W·Y, row i the
    `propagate` of row i's neighbours: `label_scores` of that learner alone,
    as one block."""
    return label_scores([(index, sims)], labels)


def score_csr(dicts, L) -> CSR:
    """One {label: score} dict per row as an (m, L) score matrix."""
    indptr = np.cumsum([0] + [len(sv) for sv in dicts])
    indices = [w for sv in dicts for w in sv]
    data = [s for sv in dicts for s in sv.values()]
    data = np.array(data, dtype=float)
    return CSR(data, np.array(indices, dtype=np.int64), indptr, (len(dicts), L))


def one_label_each(L) -> CSR:
    """The label matrix Y of L train samples where sample l carries label l
    alone, so that a neighbour l of weight w scores label l with w."""
    return CSR(np.ones(L), np.arange(L), np.arange(L + 1), (L, L))


def dict_neighbours(dicts):
    """One {label: score} dict per row as the (m, k) neighbour arrays whose
    scores against `one_label_each` are those dicts: neighbour l with
    similarity s per entry, in the dict's order, -1 pads."""
    return neighbor_arrays([list(sv.items()) for sv in dicts])


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


def evaluate_dicts(predictions, truths, propensities, ks=DEFAULT_KS) -> EvalReport:
    """Mean metrics of dict scores over the samples with nonempty truth, one
    sample at a time with the `ref_*` metric functions."""
    props = propensities.tolist()
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



def isin_truth_hits(pred, truths):
    """`metrics.truth_hits` by `np.unique` and `np.isin`: the sorted,
    deduplicated keys sample * span + label of the true labels, the span, and
    the mask of `pred`'s non-pad slots whose key is among them."""
    m = len(pred)
    labels = np.concatenate([np.empty(0, np.int64), *(np.asarray(t, np.int64) for t in truths)])
    span = int(max(labels.max(initial=-1), pred.max(initial=-1))) + 1
    keys = np.unique(np.repeat(np.arange(m), [len(t) for t in truths]) * span + labels)
    hit = np.isin(np.arange(m)[:, None] * span + pred, keys) & (pred >= 0)
    return keys, span, hit


# The grammar's tokens: labels, indices and header fields are ASCII digit
# runs, and a value is a decimal. int() and float() alone read more: signs on
# integers, "_", other scripts' digits and whitespace around a token. A value
# that float() reads as nan or inf is refused as non-finite.
_DIGITS = re.compile(r"[0-9]+")
_VALUE = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_NON_FINITE = re.compile(r"[+-]?(nan|inf|infinity)", re.IGNORECASE | re.ASCII)


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
        if not _DIGITS.fullmatch(part):
            raise DatasetFormatError(f"line {lineno}: bad label {part!r}")
        lab = int(part)
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
        if not sep or not _DIGITS.fullmatch(head):
            raise DatasetFormatError(f"line {lineno}: bad feature pair {tok!r}")
        if _NON_FINITE.fullmatch(tail):
            raise DatasetFormatError(f"line {lineno}: non-finite value in {tok!r}")
        if not _VALUE.fullmatch(tail):
            raise DatasetFormatError(f"line {lineno}: bad feature pair {tok!r}")
        j = int(head)
        v = float(tail)
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
    if len(header) != 3 or not all(_DIGITS.fullmatch(tok) for tok in header):
        raise DatasetFormatError("line 1: header must be 'n d L'")
    try:
        n, d, L = (int(tok) for tok in header)
    except ValueError:
        raise DatasetFormatError("line 1: header must be 'n d L'") from None
    if n <= 0 or d <= 0 or L <= 0:
        raise DatasetFormatError("line 1: header fields must be positive")
    if max(n, d, L) >= 2**63:
        raise DatasetFormatError("line 1: header fields must be below 2^63")
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


# ---------------------------------------------------------------------------
# the scipy.sparse expressions the numpy kernels of ogeec.csr replaced


def to_scipy(X: CSR) -> sp.csr_matrix:
    return sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def from_scipy(M) -> CSR:
    return CSR(M.data, M.indices, M.indptr, M.shape)


def sp_normalize_rows(X):
    """Unit-norm rows (zero rows stay zero) and the original row norms."""
    X = to_scipy(X)
    sq = X.copy()
    with np.errstate(over="ignore"):  # an overflowing row's norm is inf, its 1 / norm 0
        sq.data = sq.data**2
    norms = np.sqrt(np.asarray(sq.sum(axis=1)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return from_scipy(sp.diags(inv) @ X), norms


def scaled_rows(X):
    """X's rows scaled by their 1 / norms from `sp_normalize_rows` (0 for a
    zero row), each row reversed as scipy's `diags(1 / norms) @ X` stores
    it, but with every stored entry kept: a value or product that is 0
    stays, as ±0, where scipy drops it."""
    norms = sp_normalize_rows(X)[1]
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    row = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    pos = X.indptr[row] + X.indptr[row + 1] - 1 - np.arange(row.size)  # from each row's end
    return CSR(inv[row] * X.data[pos], X.indices[pos], np.asarray(X.indptr), X.shape)


def sp_vstack(top, bottom):
    return from_scipy(sp.vstack([to_scipy(top), to_scipy(bottom)], format="csr"))


def vstack(top, bottom):
    """The rows of `top`, then the rows of `bottom` (of as many columns), each
    as stored, as `sp_vstack` stacks them: how `csr.RowProducts` of several
    parts stacks each part's `scaled_rows`."""
    return CSR(
        np.concatenate([top.data[: top.nnz], bottom.data[: bottom.nnz]]),
        np.concatenate([top.indices[: top.nnz], bottom.indices[: bottom.nnz]]),
        np.concatenate([top.indptr, bottom.indptr[1:] - bottom.indptr[0] + top.nnz]),
        (top.shape[0] + bottom.shape[0], top.shape[1]),
    )


def position_major(X, b, place):
    """`csr.RowProducts`' layout of X for row blocks of b, as it was built
    before its arrays were filled position by position: X's column indices
    mapped through `place` in one int32 copy, then per chunk the int64 row
    and entry positions of all its entries at once. Returns the row order
    and the chunks' (first row, counts, offsets from the chunk's first
    entry, columns, values)."""
    from ogeec.csr import _CHUNK_FLOATS

    X = CSR(X.data, place[X.indices], X.indptr, X.shape)
    n, rows = X.shape[0], max(1, _CHUNK_FLOATS // (max(b, 1) + 1))
    lengths = np.diff(X.indptr)
    order = np.argsort(-lengths, kind="stable")
    slen = lengths[order]
    starts = X.indptr[:-1][order]
    chunks = []
    for a in range(0, n, rows):
        chunk = slen[a : a + rows]
        counts = np.searchsorted(-chunk, -np.arange(chunk[0]), side="left")
        offsets = np.concatenate(([0], np.cumsum(counts)))
        row = np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts)
        at = starts[a + row] + np.repeat(np.arange(counts.size), counts)
        chunks.append((a, counts.tolist(), offsets.tolist(), X.indices[at], X.data[at]))
    return order, chunks


def planned_values(P, a, counts, offsets):
    """The float64 values of one `csr.RowProducts` chunk (first row `a`,
    `counts` and `offsets` as in `P.chunks`), as its product steps form
    them: entry t of a position belongs to the chunk's row t, and its value
    is that row's 1 / norm times the stored value."""
    row = np.concatenate([np.arange(count, dtype=np.int64) for count in [0, *counts]])
    return P.scale[a + row] * P.vals[offsets[0] : offsets[-1]]


def sp_row_products(X, F):
    """(X @ F.T).T for one row block F of the projection matrix."""
    return (to_scipy(X) @ F.T).T


def sp_score_matrix(index, sims, labels):
    """S = W @ Y, W holding max(sim, 0) in neighbour order, -1 pads dropped."""
    keep = index >= 0
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    n = labels.shape[0]
    W = sp.csr_matrix((np.maximum(sims[keep], 0.0), index[keep], indptr), shape=(len(index), n))
    return W @ to_scipy(labels)


def sp_mean(total, count):
    """Every stored sum divided by `count`. Not `total / count`: scipy
    multiplies by 1 / count, which rounds differently."""
    return sp.csr_matrix((total.data / count, total.indices, total.indptr), shape=total.shape)


def sp_label_scores(learners, labels):
    """The learners' S = W @ Y added in learner order, then divided by E."""
    total = None
    for index, sims in learners:
        S = sp_score_matrix(index, sims, labels)
        total = S if total is None else total + S
    return sp_mean(total, len(learners))


def sp_pair_dots(X, a, b):
    X = to_scipy(X)
    return np.asarray(X[a].multiply(X[b]).sum(axis=1)).ravel()
