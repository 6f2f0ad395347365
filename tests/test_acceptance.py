"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing one pass/fail line (run with -s to see them inline).

The full-corpus reproduction (criterion 9) needs the public benchmark files
and hours of runtime, so it only runs when OGEEC_XML_DATA points at them.
"""

import os
import pathlib
import time

import numpy as np
import pytest

from oracles import (
    naive_end_to_end,
    ref_ndcg,
    ref_precision,
    ref_propensities,
    ref_psn,
    ref_psp,
    score_dicts,
    top_k_labels,
    top_labels,
)

from ogeec.cli import main
from ogeec.data import generate_synthetic, parse_dataset, split_dataset, write_dataset
from ogeec.embedding import EmbeddingSpec, embed, project_csr
from ogeec.ensemble import EnsembleSpec, fused_scores, make_ensemble_spec, sweep_ensemble_size
from ogeec.jl import jl_epsilon, measure_distortion
from ogeec.lsh import build_index, query_lsh
from ogeec.metrics import evaluate, propensity
from ogeec.predictor import batch_predict, score_matrix, top_k

TABLE_DATASET_ROWS = [  # r=200 for the three benchmark corpus sizes
    (196606, "0.1627", "0.8373", "1.1627"),
    (490449, "0.1687", "0.8313", "1.1687"),
    (1717899, "0.1766", "0.8234", "1.1766"),
]
TABLE_R_SWEEP_ROWS = [  # n=196606, r in {50,...,400}
    (50, "0.3254", "0.6746", "1.3254"),
    (100, "0.2301", "0.7699", "1.2301"),
    (150, "0.1879", "0.8121", "1.1879"),
    (200, "0.1627", "0.8373", "1.1627"),
    (250, "0.1455", "0.8545", "1.1455"),
    (300, "0.1328", "0.8672", "1.1328"),
    (350, "0.1230", "0.8770", "1.1230"),
    (400, "0.1150", "0.8850", "1.1150"),
]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_bound_tables(capsys, tmp_path):
    t0 = time.perf_counter()
    out_a = tmp_path / "a.tsv"
    out_b = tmp_path / "b.tsv"
    assert main(["analyze", "bounds", "--ns", "196606,490449,1717899", "--rs", "200", "--out", str(out_a)]) == 0
    assert main(
        ["analyze", "bounds", "--ns", "196606", "--rs", "50,100,150,200,250,300,350,400", "--out", str(out_b)]
    ) == 0
    elapsed = time.perf_counter() - t0

    rows_a = [line.split("\t") for line in out_a.read_text().splitlines()[1:]]
    for (n, eps, lo, hi), row in zip(TABLE_DATASET_ROWS, rows_a):
        assert row == [str(n), "200", eps, lo, hi], row
    rows_b = [line.split("\t") for line in out_b.read_text().splitlines()[1:]]
    for (r, eps, lo, hi), row in zip(TABLE_R_SWEEP_ROWS, rows_b):
        assert row == ["196606", str(r), eps, lo, hi], row
    report(
        1,
        elapsed < 1.0,
        f"11 bound rows exact to 4 decimals in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_distortion_bound():
    t0 = time.perf_counter()
    ds = generate_synthetic(
        n=2000, d=20000, L=50, sparsity=30, labels_per_sample=3, clusters=10, seed=11
    )
    spec = EmbeddingSpec(seed=5, d=20000, r=200)
    rep = measure_distortion(ds, spec, 10000, seed=17)
    elapsed = time.perf_counter() - t0
    assert rep.epsilon == pytest.approx(jl_epsilon(2000, 200).epsilon)
    report(
        2,
        rep.within_fraction >= 0.95 and elapsed < 60.0,
        f"{rep.within_fraction:.4f} of {rep.pairs} pairs within "
        f"[1-eps, 1+eps], eps={rep.epsilon:.4f}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_oracle_equivalence():
    ds = generate_synthetic(
        n=300, d=3000, L=40, sparsity=10, labels_per_sample=3, clusters=8, seed=21
    )
    train, test = split_dataset(ds, 200)
    spec = EmbeddingSpec(seed=9, d=3000, r=50)
    emb = embed(spec, train)
    queries = project_csr(spec, test.to_feature_csr(np.float64))
    real = batch_predict(emb, train.label_matrix(), queries, 5)
    naive = naive_end_to_end(9, train, test, 50, 5)
    max_diff = 0.0
    for got, want in zip(score_dicts(real), naive):
        assert set(got) == set(want)
        assert top_k_labels(got, 5) == top_k_labels(want, 5)
        for w in got:
            max_diff = max(max_diff, abs(got[w] - want[w]))
    report(
        3,
        max_diff < 1e-6,
        f"200-train/100-test predictions match the dense oracle "
        f"label-for-label, max score diff {max_diff:.2e} (< 1e-6)",
    )


def test_criterion_4_metrics_oracle():
    freqs = np.array([50, 3, 17, 220, 9, 1, 74, 31])
    model = propensity(freqs, 400, a=0.55, b=1.5)
    props = ref_propensities(freqs, 400, 0.55, 1.5)
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
        {0, 5}, {2, 4}, {7}, {3}, {1, 6}, {0}, {0, 6}, {1, 2, 3}, {5}, {5, 6, 7},
    ]
    rep = evaluate(top_labels(predictions), [sorted(t) for t in truths], model)
    max_err = 0.0
    for K in (1, 3, 5):
        ranked = [top_k_labels(sv, 5) for sv in predictions]
        refs = {
            "P": [ref_precision(p, t, K) for p, t in zip(ranked, truths)],
            "N": [ref_ndcg(p, t, K) for p, t in zip(ranked, truths)],
            "PSP": [ref_psp(p, t, props, K) for p, t in zip(ranked, truths)],
            "PSN": [ref_psn(p, t, props, K) for p, t in zip(ranked, truths)],
        }
        for name, vals in refs.items():
            want = sum(vals) / len(vals)
            max_err = max(max_err, abs(rep[f"{name}@{K}"] - want))
    identities_hold = True
    rng = np.random.default_rng(123)
    id_model = propensity(rng.integers(1, 300, size=30), n=900)
    for _ in range(1000):
        scores = {
            int(w): float(rng.uniform(0.01, 3))
            for w in rng.choice(30, size=rng.integers(1, 8), replace=False)
        }
        truth = set(
            int(w) for w in rng.choice(30, size=rng.integers(1, 6), replace=False)
        )
        one = evaluate(top_labels([scores]), [sorted(truth)], id_model)
        identities_hold &= one["P@1"] == one["N@1"]
        identities_hold &= one["PSP@1"] == one["PSN@1"]
    report(
        4,
        max_err < 1e-9 and identities_hold,
        f"12 fixture metrics within {max_err:.2e} of the reference (< 1e-9); "
        "P@1==N@1 and PSP@1==PSN@1 on 1000 randomized trials",
    )


def test_criterion_5_ensemble_trend(dataset_pairs):
    t0 = time.perf_counter()
    p1_first, p1_fused = [], []
    for seed, (train, test) in enumerate(dataset_pairs):
        spec = make_ensemble_spec(base_seed=10 * seed, learners=5, d=train.d, r=24, k=5)
        model = propensity(train.label_frequencies, train.n)
        res = sweep_ensemble_size(spec, train, test, [1, 5], model)
        p1_first.append(res.fused[1]["P@1"])
        p1_fused.append(res.fused[5]["P@1"])
    diffs = np.array(p1_fused) - np.array(p1_first)
    sem = diffs.std(ddof=1) / np.sqrt(len(diffs))
    elapsed = time.perf_counter() - t0
    report(
        5,
        diffs.mean() >= -sem and elapsed < 300.0,
        f"mean P@1 gain E=1 -> E=5 over 5 dataset seeds: {diffs.mean():+.4f} "
        f"(sem {sem:.4f}), {elapsed:.1f}s (< 5 min)",
    )


def test_criterion_6_embedding_dimension_trend(dataset_pairs):
    p50, p200 = [], []
    for seed, (train, test) in enumerate(dataset_pairs):
        model = propensity(train.label_frequencies, train.n)
        for r, sink in ((50, p50), (200, p200)):
            spec = EnsembleSpec(seeds=(10 * seed,), d=train.d, r=r, k=5)
            scores = fused_scores(spec, train, test)
            sink.append(evaluate(top_k(scores, 5)[0], test.labelsets(), model)["P@1"])
    diffs = np.array(p200) - np.array(p50)
    sem = diffs.std(ddof=1) / np.sqrt(len(diffs))
    report(
        6,
        diffs.mean() >= -sem and diffs.mean() > 0,
        f"mean P@1 gain r=50 -> r=200 over 5 dataset seeds: {diffs.mean():+.4f} "
        f"(sem {sem:.4f})",
    )


def test_criterion_7_prediction_determinism(tmp_path, dataset_pairs):
    train, test = dataset_pairs[0]
    train_path, test_path = tmp_path / "train.txt", tmp_path / "test.txt"
    write_dataset(train, train_path)
    write_dataset(test, test_path)
    model_path = tmp_path / "model.txt"
    assert main(
        [
            "train", "--train", str(train_path), "--model", str(model_path),
            "--r", "32", "--k", "5", "--learners", "2", "--seed", "7",
        ]
    ) == 0
    outputs = []
    for name, workers in (("a", "1"), ("b", "1"), ("w", str(os.cpu_count() or 2))):
        out = tmp_path / f"{name}.tsv"
        assert main(
            [
                "predict", "--model", str(model_path), "--train", str(train_path),
                "--test", str(test_path), "--out", str(out), "--workers", workers,
            ]
        ) == 0
        outputs.append(out.read_bytes())
    report(
        7,
        outputs[0] == outputs[1] == outputs[2],
        f"prediction TSVs byte-identical across 2 runs and worker counts "
        f"{{1, {os.cpu_count() or 2}}} ({len(outputs[0])} bytes)",
    )


def test_criterion_8_lsh_direction(dataset_pairs):
    ex_p1, lsh_p1 = [], []
    for seed, (train, test) in enumerate(dataset_pairs):
        model = propensity(train.label_frequencies, train.n)
        lspec = EmbeddingSpec(seed=10 * seed, d=train.d, r=64)
        emb = embed(lspec, train)
        labels = train.label_matrix()
        q_emb = project_csr(lspec, test.to_feature_csr(np.float64))
        exhaustive = batch_predict(emb, labels, q_emb, 5)
        ex_p1.append(evaluate(top_k(exhaustive, 5)[0], test.labelsets(), model)["P@1"])
        index = build_index(emb, T=10, H=16, seed=10 * seed)
        rows = [query_lsh(index, q_emb[:, i], 5) for i in range(test.n)]
        scores = score_matrix(*map(np.stack, zip(*rows)), labels)
        lsh_p1.append(evaluate(top_k(scores, 5)[0], test.labelsets(), model)["P@1"])
    mean_ex, mean_lsh = float(np.mean(ex_p1)), float(np.mean(lsh_p1))
    report(
        8,
        mean_ex >= mean_lsh,
        f"exhaustive P@1 {mean_ex:.4f} >= LSH P@1 {mean_lsh:.4f} "
        "(5 dataset seeds, default T=10 H=16)",
    )


@pytest.mark.skipif(
    "OGEEC_XML_DATA" not in os.environ,
    reason="full-corpus reproduction is optional: set OGEEC_XML_DATA to a "
    "directory holding delicious-200k/{train,test}.txt (hours of runtime)",
)
def test_criterion_9_full_corpus_reproduction():
    root = pathlib.Path(os.environ["OGEEC_XML_DATA"]) / "delicious-200k"
    train = parse_dataset(root / "train.txt")
    test = parse_dataset(root / "test.txt")
    spec = make_ensemble_spec(base_seed=0, learners=5, d=train.d, r=200, k=5)
    scores = fused_scores(spec, train, test, workers=os.cpu_count() or 1)
    model = propensity(train.label_frequencies, train.n, a=0.55, b=1.5)
    rep = evaluate(top_k(scores, 5)[0], test.labelsets(), model)
    targets = {  # five-learner fused reference values, in percent
        "P@1": 40.54, "P@3": 34.25, "P@5": 30.97,
        "N@1": 40.54, "N@3": 35.74, "N@5": 33.22,
        "PSP@1": 6.37, "PSP@3": 6.91, "PSP@5": 7.33,
        "PSN@1": 6.37, "PSN@3": 6.76, "PSN@5": 7.05,
    }
    ok = True
    for name, want in targets.items():
        tol = 0.5 if name.startswith("PS") else 1.0
        ok &= abs(rep[name] * 100 - want) <= tol
    report(9, ok, "full-corpus metrics within published tolerances")
