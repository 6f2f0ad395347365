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
from typing import Sequence

import numpy as np

from .predictor import ScoreVector, top_k_labels

DEFAULT_KS = (1, 3, 5)
DEFAULT_A = 0.55
DEFAULT_B = 1.5
METRIC_NAMES = ("P", "N", "PSP", "PSN")


@dataclass(frozen=True)
class PropensityModel:
    """p_l = 1 / (1 + C * (N_l + B)^-A) with C = (ln n - 1) * (B + 1)^A.

    Propensities are clamped into (0, 1]; they are nondecreasing in label
    frequency, so rare labels get the largest 1/p_l weights.
    """

    a: float
    b: float
    c: float
    propensities: np.ndarray


def propensity(
    frequencies: np.ndarray, n: int, a: float = DEFAULT_A, b: float = DEFAULT_B
) -> PropensityModel:
    if not 0 < a < 1:
        raise ValueError("A must lie in (0, 1)")
    if b < 0:
        raise ValueError("B must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    freq = np.asarray(frequencies, dtype=np.float64)
    c = (math.log(n) - 1.0) * (b + 1.0) ** a
    props = 1.0 / (1.0 + c * np.exp(-a * np.log(freq + b)))
    props = np.clip(props, np.finfo(np.float64).tiny, 1.0)
    return PropensityModel(a=a, b=b, c=c, propensities=props)


def uniform_propensity(L: int) -> PropensityModel:
    """All-ones model; PSP@K then reduces to P@K when |truth| >= K."""
    return PropensityModel(a=1.0, b=0.0, c=0.0, propensities=np.ones(L))


def precision_at_k(predicted: Sequence[int], truth, K: int) -> float:
    """Fraction of the top K slots holding a true label; short lists count
    missing slots as wrong."""
    truth = set(truth)
    hits = sum(1 for w in predicted[:K] if w in truth)
    return hits / K


def _dcg(predicted: Sequence[int], truth: set, K: int) -> float:
    return sum(
        1.0 / math.log2(pos + 2)
        for pos, w in enumerate(predicted[:K])
        if w in truth
    )


def ndcg_at_k(predicted: Sequence[int], truth, K: int) -> float:
    """Position-discounted gain over the ideal; 0 when truth is empty."""
    truth = set(truth)
    if not truth:
        return 0.0
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(K, len(truth))))
    return _dcg(predicted, truth, K) / ideal


def psp_at_k(
    predicted: Sequence[int], truth, model: PropensityModel, K: int
) -> float:
    """Propensity-scored precision, normalized by the rarest-first ideal."""
    truth = set(truth)
    if not truth:
        return 0.0
    inv = 1.0 / model.propensities
    num = sum(inv[w] for w in predicted[:K] if w in truth)
    weights = sorted((float(inv[w]) for w in truth), reverse=True)
    ideal = sum(weights[: min(K, len(weights))])
    return num / ideal


def psn_at_k(
    predicted: Sequence[int], truth, model: PropensityModel, K: int
) -> float:
    """Propensity-scored nDCG: discounted 1/p gains over the rarest-first ideal."""
    truth = set(truth)
    if not truth:
        return 0.0
    inv = 1.0 / model.propensities
    num = sum(
        inv[w] / math.log2(pos + 2)
        for pos, w in enumerate(predicted[:K])
        if w in truth
    )
    weights = sorted((float(inv[w]) for w in truth), reverse=True)
    ideal = sum(
        wgt / math.log2(i + 2) for i, wgt in enumerate(weights[: min(K, len(weights))])
    )
    return num / ideal


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


def evaluate(
    predictions: Sequence[ScoreVector],
    truths: Sequence,
    model: PropensityModel,
    ks: tuple[int, ...] = DEFAULT_KS,
) -> EvalReport:
    """Mean metrics over all samples with nonempty truth."""
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths must be parallel")
    max_k = max(ks)
    sums = {f"{m}@{k}": 0.0 for m in METRIC_NAMES for k in ks}
    used = skipped = 0
    for sv, truth in zip(predictions, truths):
        truth = set(int(t) for t in truth)
        if not truth:
            skipped += 1
            continue
        used += 1
        ranked = top_k_labels(sv, max_k)
        for k in ks:
            sums[f"P@{k}"] += precision_at_k(ranked, truth, k)
            sums[f"N@{k}"] += ndcg_at_k(ranked, truth, k)
            sums[f"PSP@{k}"] += psp_at_k(ranked, truth, model, k)
            sums[f"PSN@{k}"] += psn_at_k(ranked, truth, model, k)
    denom = max(used, 1)
    values = {name: total / denom for name, total in sums.items()}
    return EvalReport(values=values, samples=used, skipped=skipped, ks=tuple(ks))
