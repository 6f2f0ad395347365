"""Ranking metrics: P@K, nDCG@K and their propensity-scored variants.

All four follow the public extreme-classification evaluation conventions:
gain 1 for a relevant label, log2 position discounts, and a sigmoid propensity
model over training label frequencies. Propensity-scored metrics are
normalized per sample by the best score any ranking of the true labels could
reach, so every reported value lies in [0, 1]. Samples with no true labels are
left out of every mean and reported as a separate count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csr import CSR, sorted_unique
from .model import DEFAULT_A, DEFAULT_B, DEFAULT_KS
from .predictor import top_k

METRIC_NAMES = ("P", "N", "PSP", "PSN")


def propensity(
    frequencies: np.ndarray, n: int, a: float = DEFAULT_A, b: float = DEFAULT_B
) -> np.ndarray:
    """Each label's propensity p_l = 1 / (1 + C * (N_l + B)^-A), with
    C = (ln n - 1) * (B + 1)^A, from its training frequency N_l over n
    training samples. The array is clamped into (0, 1]; it is nondecreasing
    in label frequency, so rare labels get the largest 1/p_l weights."""
    if not 0 < a < 1:
        raise ValueError("A must lie in (0, 1)")
    if b < 0:
        raise ValueError("B must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    freq = np.asarray(frequencies, dtype=np.float64)
    c = (math.log(n) - 1.0) * (b + 1.0) ** a
    props = 1.0 / (1.0 + c * np.exp(-a * np.log(freq + b)))
    return np.clip(props, np.finfo(np.float64).tiny, 1.0)


@dataclass
class EvalReport:
    """The metric-by-K grid plus sample counts.

    P@1 == N@1 and PSP@1 == PSN@1 hold by definition on every input.
    """

    values: dict[str, float]
    samples: int
    skipped: int
    ks: tuple[int, ...] = DEFAULT_KS

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def tsv_header(self) -> str:
        names = [f"{m}@{k}" for m in METRIC_NAMES for k in self.ks]
        return "\t".join(names + ["samples", "skipped"])

    def tsv_row(self) -> str:
        vals = [
            f"{self.values[f'{m}@{k}']:.6f}" for m in METRIC_NAMES for k in self.ks
        ]
        return "\t".join(vals + [str(self.samples), str(self.skipped)])

    def format_grid(self) -> str:
        lines = ["metric" + "".join(f"{f'@{k}':>10}" for k in self.ks)]
        for m in METRIC_NAMES:
            cells = "".join(f"{self.values[f'{m}@{k}']:>10.4f}" for k in self.ks)
            lines.append(f"{m:<6}{cells}")
        lines.append(f"samples {self.samples} (skipped {self.skipped} with no labels)")
        return "\n".join(lines)


def truth_hits(pred: np.ndarray, truths: CSR) -> tuple[np.ndarray, int, np.ndarray]:
    """The true (sample, label) pairs as sorted, deduplicated keys
    sample * span + label, that span, and the mask of `pred`'s slots (an
    (m, K) label array padded with -1) that hold one of their sample's true
    labels. Row i of `truths` stores sample i's true labels as its columns,
    in any order and possibly repeated; its values are not read."""
    m = len(pred)
    labels = truths.indices[truths.indptr[0] : truths.indptr[-1]].astype(np.int64, copy=False)
    if labels.size and labels.min() < 0:
        raise ValueError("true labels must be nonnegative")
    span = int(max(labels.max(initial=-1), pred.max(initial=-1))) + 1
    keys = sorted_unique(np.repeat(np.arange(m), np.diff(truths.indptr)) * span + labels)
    slots = np.arange(m)[:, None] * span + pred
    # a slot's key is present when the sorted keys hold a run of it
    present = np.searchsorted(keys, slots, "right") > np.searchsorted(keys, slots)
    return keys, span, present & (pred >= 0)


def evaluate(
    predictions: np.ndarray,
    truths: CSR,
    propensities: np.ndarray,
    ks: tuple[int, ...] = DEFAULT_KS,
) -> EvalReport:
    """Mean metrics over all samples with nonempty truth.

    `predictions` is the (m, >= max(ks)) label array of `predictor.top_k`,
    best first and padded with -1; `truths` is the test samples' (m x L)
    label CSR (`SparseDataset.labels`), whose row i stores sample i's
    true labels (a repeat counts once; the values are not read);
    `propensities` is `propensity`'s array, one p per label. Per sample,
    with hits the true labels in the top K slots (a short ranking's missing
    slots count as wrong):
    P@K = hits / K; N@K = sum of 1/log2(pos + 2) over hits, over its best
    value for min(K, |truth|) hits; PSP@K = sum of 1/p over hits, over the
    sum of the min(K, |truth|) largest 1/p among the true labels (rarest
    first, ranked by `predictor.top_k`); PSN@K is PSP@K with each term
    discounted by log2(pos + 2). All samples are computed at once, but each
    sample's terms are added in rank order and the per-sample values in
    sample order, so every sum is the one a loop over samples makes. A true
    label without a propensity is a ValueError.
    """
    pred = np.asarray(predictions, dtype=np.int64)
    max_k = max(ks)
    if pred.ndim != 2 or len(pred) != truths.shape[0]:
        raise ValueError("predictions and truths must be parallel")
    if pred.shape[1] < max_k:
        raise ValueError(f"predictions need {max_k} columns, got {pred.shape[1]}")
    m = len(pred)
    pred = pred[:, :max_k]
    keys, span, hit = truth_hits(pred, truths)
    rows, labels = keys // span, keys % span
    L = propensities.size
    outside = np.flatnonzero(labels >= L)
    if outside.size:
        i = outside[0]
        raise ValueError(
            f"true label {labels[i]} of sample {rows[i]} is outside the "
            f"propensity model's {L} labels"
        )
    counts = np.bincount(rows, minlength=m)
    used = counts > 0
    hit = hit[used]

    inv = 1.0 / propensities
    gain = np.where(hit, inv[np.where(hit, pred[used], 0)], 0.0)
    # each sample's true-label weights, largest first, in its first max_k slots
    indptr = np.concatenate([[0], np.cumsum(counts)])
    best = top_k(CSR(inv[labels], labels, indptr, (m, L)), max_k)[1][used]
    counts = counts[used]

    # running sums along each ranking, added in rank order: column K-1 holds @K
    log2 = np.array([math.log2(pos + 2) for pos in range(max_k)])
    idcg = np.cumsum([0.0, *(1.0 / log2)])  # best N numerator for 0, 1, ... hits
    col = np.array(ks) - 1
    per_sample = {
        "P": np.cumsum(hit, axis=1)[:, col] / np.array(ks),
        "N": np.cumsum(np.where(hit, 1.0 / log2, 0.0), axis=1)[:, col]
        / idcg[np.minimum(counts[:, None], ks)],
        "PSP": np.cumsum(gain, axis=1)[:, col] / np.cumsum(best, axis=1)[:, col],
        "PSN": np.cumsum(gain / log2, axis=1)[:, col] / np.cumsum(best / log2, axis=1)[:, col],
    }
    # each mean adds the per-sample values in sample order; the last running
    # sum is [-1:] summed, which is that sum, or zeros when no sample counts
    samples = int(used.sum())
    totals = {name: np.cumsum(v, axis=0)[-1:].sum(axis=0) for name, v in per_sample.items()}
    values = {
        f"{name}@{k}": float(totals[name][j]) / max(samples, 1)
        for name in METRIC_NAMES
        for j, k in enumerate(ks)
    }
    return EvalReport(values=values, samples=samples, skipped=m - samples, ks=tuple(ks))
