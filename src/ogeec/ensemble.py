"""Ensembles of seeded learners fused by uniform score averaging.

A learner is just a seed: its projection matrix, the embedded training matrix
built from it, and the kNN propagation rule. The whole model is therefore a
handful of integers; the metadata file written here is everything needed to
rebuild it. Fusion averages each label's score across learners, counting 0
for learners that never scored it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .data import SparseDataset
from .embedding import EmbeddingSpec, embed
from .metrics import DEFAULT_KS, EvalReport, PropensityModel, evaluate
from .predictor import ScoreVector, batch_predict


@dataclass(frozen=True)
class EnsembleSpec:
    """Distinct learner seeds plus the shared d, r, k."""

    seeds: tuple[int, ...]
    d: int
    r: int
    k: int

    @property
    def size(self) -> int:
        return len(self.seeds)

    def learner(self, index: int) -> EmbeddingSpec:
        return EmbeddingSpec(seed=self.seeds[index], d=self.d, r=self.r)


def make_ensemble_spec(
    base_seed: int, learners: int, d: int, r: int, k: int
) -> EnsembleSpec:
    """Default seed schedule: base_seed + {0, 1, ..., E-1}."""
    if learners < 1:
        raise ValueError("learners must be positive")
    return EnsembleSpec(
        seeds=tuple(base_seed + i for i in range(learners)), d=d, r=r, k=k
    )


def validate_spec(spec: EnsembleSpec) -> None:
    if spec.size < 1:
        raise ValueError("ensemble needs at least one seed")
    if len(set(spec.seeds)) != spec.size:
        raise ValueError("ensemble seeds must be pairwise distinct")
    if spec.k < 1:
        raise ValueError("k must be positive")
    EmbeddingSpec(seed=spec.seeds[0], d=spec.d, r=spec.r)


def _accumulate(sums: list[ScoreVector], scores: list[ScoreVector]) -> None:
    """Add one learner's per-sample scores into the running per-sample sums."""
    for acc, sv in zip(sums, scores):
        for w, s in sv.items():
            acc[w] = acc.get(w, 0.0) + s


def _average(sums: list[ScoreVector], count: int) -> list[ScoreVector]:
    return [{w: s / count for w, s in acc.items()} for acc in sums]


def fuse(score_vectors: list[ScoreVector]) -> ScoreVector:
    """Uniform average; labels absent from a learner contribute 0 for it."""
    total: list[ScoreVector] = [{}]
    for sv in score_vectors:
        _accumulate(total, [sv])
    return _average(total, len(score_vectors))[0]


def learner_scores(
    spec: EnsembleSpec,
    dataset: SparseDataset,
    test: SparseDataset,
    *,
    learners: int | None = None,
    workers: int = 1,
    matrix_provider=None,
    timings: dict[str, float] | None = None,
):
    """Yield (seed, per-test-sample ScoreVector list) for each learner in order.

    Learners run in turn, each with its own training matrix, so memory does
    not grow with the ensemble size. `matrix_provider` overrides how that
    matrix is obtained (e.g. loading a verified cache).
    """
    validate_spec(spec)
    count = spec.size if learners is None else learners
    if not 1 <= count <= spec.size:
        raise ValueError(f"learner count {count} exceeds available seeds {spec.size}")
    labelsets = dataset.labelsets()
    for i in range(count):
        lspec = spec.learner(i)
        t0 = time.perf_counter()
        if matrix_provider is not None:
            train = matrix_provider(lspec)
        else:
            train = embed(lspec, dataset, workers=workers)
        if timings is not None:
            timings["train_embed_s"] = (
                timings.get("train_embed_s", 0.0) + time.perf_counter() - t0
            )
        scores = batch_predict(
            lspec, train, labelsets, test, spec.k,
            workers=workers, timings=timings,
        )
        yield spec.seeds[i], scores


def fused_scores(
    spec: EnsembleSpec,
    dataset: SparseDataset,
    test: SparseDataset,
    *,
    learners: int | None = None,
    workers: int = 1,
    matrix_provider=None,
    timings: dict[str, float] | None = None,
) -> list[ScoreVector]:
    """Fused per-sample scores over the first `learners` seeds (default: all)."""
    sums: list[ScoreVector] = [dict() for _ in range(test.n)]
    count = 0
    for _, scores in learner_scores(
        spec,
        dataset,
        test,
        learners=learners,
        workers=workers,
        matrix_provider=matrix_provider,
        timings=timings,
    ):
        count += 1
        _accumulate(sums, scores)
    return _average(sums, count)


@dataclass
class SweepResult:
    """Fused reports per ensemble size plus each learner's own report."""

    fused: dict[int, EvalReport]
    per_learner: list[EvalReport]
    seeds: tuple[int, ...]


def sweep_ensemble_size(
    spec: EnsembleSpec,
    dataset: SparseDataset,
    test: SparseDataset,
    sizes: list[int],
    model: PropensityModel,
    *,
    ks: tuple[int, ...] = DEFAULT_KS,
    workers: int = 1,
) -> SweepResult:
    """Evaluate fusions of the first s seeds for each requested size.

    Per-learner reports cover every learner consumed (max(sizes)), so callers
    can report single-learner mean and spread next to the fused numbers.
    """
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if max(sizes) > spec.size or min(sizes) < 1:
        raise ValueError(f"sizes must lie in [1, {spec.size}]")
    need = max(sizes)
    wanted = sorted(set(sizes))
    truths = test.labelsets()
    sums: list[ScoreVector] = [dict() for _ in range(test.n)]
    fused_reports: dict[int, EvalReport] = {}
    per_learner: list[EvalReport] = []
    done = 0
    for _, scores in learner_scores(
        spec, dataset, test, learners=need, workers=workers
    ):
        per_learner.append(evaluate(scores, truths, model, ks=ks))
        done += 1
        _accumulate(sums, scores)
        if done in wanted:
            fused_reports[done] = evaluate(_average(sums, done), truths, model, ks=ks)
    return SweepResult(
        fused=fused_reports,
        per_learner=per_learner,
        seeds=spec.seeds[:need],
    )


def format_metadata(spec: EnsembleSpec, base_seed: int | None = None) -> str:
    """The entire model as text: seeds and hyperparameters, nothing learned."""
    base = spec.seeds[0] if base_seed is None else base_seed
    lines = [
        f"base_seed {base}",
        "seeds " + " ".join(str(s) for s in spec.seeds),
        f"d {spec.d}",
        f"r {spec.r}",
        f"k {spec.k}",
        f"E {spec.size}",
    ]
    return "\n".join(lines) + "\n"


def write_metadata(path, spec: EnsembleSpec, base_seed: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_metadata(spec, base_seed))


def read_metadata(path) -> EnsembleSpec:
    fields: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if parts:
                fields[parts[0]] = parts[1:]
    try:
        seeds = tuple(int(s) for s in fields["seeds"])
        spec = EnsembleSpec(
            seeds=seeds,
            d=int(fields["d"][0]),
            r=int(fields["r"][0]),
            k=int(fields["k"][0]),
        )
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model metadata ({exc})") from None
    if "E" in fields and int(fields["E"][0]) != spec.size:
        raise ValueError(f"{path}: E does not match the seed list")
    return spec
