import argparse
import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import ogeec
from ogeec import cli, embedding
from ogeec.cli import main
from ogeec.data import parse_dataset, split_dataset, write_dataset
from ogeec.embedding import EmbeddingSpec, load_cache
from ogeec.ensemble import EnsembleSpec, fused_scores, read_metadata
from ogeec.metrics import evaluate, propensity
from ogeec.predictor import format_predictions, top_k


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated dataset pair plus a trained 2-learner model."""
    root = tmp_path_factory.mktemp("cli")
    train, test = root / "train.txt", root / "test.txt"
    model = root / "model.txt"
    assert (
        main(
            [
                "gen",
                "--n", "400", "--d", "2000", "--labels", "40",
                "--sparsity", "10", "--labels-per-sample", "2",
                "--clusters", "6", "--seed", "3",
                "--test-n", "100",
                "--out", str(train), "--test-out", str(test),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--train", str(train), "--model", str(model),
                "--r", "32", "--k", "5", "--learners", "2", "--seed", "7",
            ]
        )
        == 0
    )
    return root


def test_gen_writes_parseable_split(workspace):
    train = parse_dataset(workspace / "train.txt")
    test = parse_dataset(workspace / "test.txt")
    assert (train.n, test.n) == (400, 100)
    assert train.d == test.d == 2000


def test_gen_deterministic(tmp_path):
    args = [
        "gen", "--n", "50", "--d", "300", "--labels", "10", "--sparsity", "5",
        "--labels-per-sample", "2", "--clusters", "3", "--seed", "1",
    ]
    main(args + ["--out", str(tmp_path / "a.txt")])
    main(args + ["--out", str(tmp_path / "b.txt")])
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_train_metadata_deterministic(workspace, tmp_path):
    spec = read_metadata(workspace / "model.txt")
    assert spec == EnsembleSpec(seeds=(7, 8), d=2000, r=32, k=5)
    again = tmp_path / "model2.txt"
    main(
        [
            "train", "--train", str(workspace / "train.txt"),
            "--model", str(again),
            "--r", "32", "--k", "5", "--learners", "2", "--seed", "7",
        ]
    )
    assert again.read_bytes() == (workspace / "model.txt").read_bytes()


def test_train_missing_dataset_path_is_usage_error(tmp_path, capsys):
    rc = main(["train", "--model", str(tmp_path / "m.txt")])
    assert rc == 2
    assert "required" in capsys.readouterr().err


def test_nonexistent_file_is_runtime_error(tmp_path, capsys):
    rc = main(
        ["train", "--train", str(tmp_path / "nope.txt"), "--model", str(tmp_path / "m")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err


def _assert_predict_tsv_matches_library_path(workspace, tmp_path, topk):
    out = tmp_path / "preds.tsv"
    rc = main(
        [
            "predict", "--model", str(workspace / "model.txt"),
            "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
            "--out", str(out), "--workers", "1", "--topk", str(topk),
        ]
    )
    assert rc == 0
    spec = read_metadata(workspace / "model.txt")
    train = parse_dataset(workspace / "train.txt")
    test = parse_dataset(workspace / "test.txt")
    scores = fused_scores(spec, train, test)
    assert out.read_text() == format_predictions(*top_k(scores, topk))


def test_predict_tsv_matches_library_path(workspace, tmp_path):
    _assert_predict_tsv_matches_library_path(workspace, tmp_path, 5)


def test_predict_tsv_drops_pads_past_the_label_count(workspace, tmp_path):
    # 45 exceeds the workspace's 40 labels: the pads are dropped, not refused
    _assert_predict_tsv_matches_library_path(workspace, tmp_path, 45)


def test_predict_deterministic_across_runs_and_workers(workspace, tmp_path):
    paths = [tmp_path / name for name in ("p1.tsv", "p2.tsv", "pw.tsv")]
    for path, workers in zip(paths, ("1", "1", str(os.cpu_count() or 2))):
        rc = main(
            [
                "predict", "--model", str(workspace / "model.txt"),
                "--train", str(workspace / "train.txt"),
                "--test", str(workspace / "test.txt"),
                "--out", str(path), "--workers", workers,
            ]
        )
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def test_predict_output_independent_of_blas_threads_and_workers(tmp_path):
    """Fresh `ogeec predict` processes write the same bytes under one or two
    BLAS threads and one or three workers. 3000 train samples put the 800
    queries in two screen tiles, the second one ragged."""
    train, test, model = tmp_path / "train.txt", tmp_path / "test.txt", tmp_path / "m.txt"
    assert main(
        [
            "gen", "--n", "3000", "--d", "3000", "--labels", "60", "--sparsity", "12",
            "--labels-per-sample", "2", "--clusters", "12", "--seed", "5",
            "--test-n", "800", "--out", str(train), "--test-out", str(test),
        ]
    ) == 0
    assert main(
        ["train", "--train", str(train), "--model", str(model), "--r", "64",
         "--learners", "2", "--seed", "1"]
    ) == 0
    src = str(pathlib.Path(ogeec.__file__).resolve().parents[1])
    outputs = []
    for threads, workers in (("1", "1"), ("2", "1"), ("1", "3"), ("2", "3")):
        out = tmp_path / f"threads{threads}-workers{workers}.tsv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [
                sys.executable, "-m", "ogeec.cli", "predict", "--model", str(model),
                "--train", str(train), "--test", str(test), "--out", str(out),
                "--workers", workers,
            ],
            env=env, check=True, timeout=300, capture_output=True,
        )
        outputs.append(out.read_bytes())
    assert len(outputs[0].splitlines()) == 800
    assert outputs.count(outputs[0]) == len(outputs)


def test_predict_topk_controls_row_width(workspace, tmp_path, capsys):
    rc = main(
        [
            "predict", "--model", str(workspace / "model.txt"),
            "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
            "--topk", "3",
        ]
    )
    assert rc == 0
    rows = capsys.readouterr().out.strip("\n").split("\n")
    assert len(rows) == 100
    assert all(len(row.split("\t")) <= 3 for row in rows)
    for row in rows:
        for pair in row.split("\t"):
            if pair:
                label, score = pair.split(":")
                assert 0 <= int(label) < 40
                assert float(score) > 0


def test_eval_matches_library_composition(workspace, capsys):
    rc = main(
        [
            "eval", "--model", str(workspace / "model.txt"),
            "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    header, row = out[0].split("\t"), out[1].split("\t")
    got = dict(zip(header, row))

    spec = read_metadata(workspace / "model.txt")
    train = parse_dataset(workspace / "train.txt")
    test = parse_dataset(workspace / "test.txt")
    scores = fused_scores(spec, train, test)
    model = propensity(train.label_frequencies, train.n)
    want = evaluate(top_k(scores, 5)[0], test.labelsets(), model)
    for name in ("P@1", "N@1", "PSP@5", "PSN@3"):
        assert float(got[name]) == pytest.approx(want[name], abs=5e-7)
    assert got["P@1"] == got["N@1"]
    assert int(got["samples"]) == want.samples


def test_eval_reproduces_golden_report(workspace, capsys):
    """Frozen regression fixture: the 12 metric values for this exact gen and
    train configuration, recorded once from a verified run."""
    import pathlib

    golden = json.loads(
        (pathlib.Path(__file__).parent / "golden" / "eval_report.json").read_text()
    )
    rc = main(
        [
            "eval", "--model", str(workspace / "model.txt"),
            "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    got = dict(zip(out[0].split("\t"), out[1].split("\t")))
    for name, want in golden["values"].items():
        assert float(got[name]) == pytest.approx(want, abs=1e-6), name
    assert int(got["samples"]) == golden["samples"]
    assert int(got["skipped"]) == golden["skipped"]


def test_predict_single_learner_equals_ensemble_of_one(workspace, tmp_path):
    model_one = tmp_path / "one.txt"
    main(
        [
            "train", "--train", str(workspace / "train.txt"),
            "--model", str(model_one),
            "--r", "32", "--k", "5", "--learners", "1", "--seed", "7",
        ]
    )
    via_ensemble = tmp_path / "ens.tsv"
    main(
        [
            "predict", "--model", str(model_one),
            "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
            "--out", str(via_ensemble),
        ]
    )
    spec = read_metadata(model_one)
    train = parse_dataset(workspace / "train.txt")
    test = parse_dataset(workspace / "test.txt")
    from ogeec.embedding import embed, project_csr
    from ogeec.predictor import batch_predict

    lspec = spec.learner(0)
    emb = embed(lspec, train)
    queries = project_csr(lspec, test.to_feature_csr(np.float64))
    single = batch_predict(emb, train.label_matrix(), queries, spec.k)
    assert via_ensemble.read_text() == format_predictions(*top_k(single, 5))


def test_lsh_compare_writes_prediction_tsv(workspace, tmp_path, capsys):
    preds = tmp_path / "lsh.tsv"
    rc = main(
        [
            "analyze", "lsh-compare", "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
            "--r", "32", "--seed", "7", "--tables", "8", "--bits", "6",
            "--predictions-out", str(preds),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rows = preds.read_text().strip("\n").split("\n")
    assert len(rows) == 100
    for row in rows:
        for pair in row.split("\t"):
            if pair:
                label, score = pair.split(":")
                assert 0 <= int(label) < 40 and float(score) > 0


def test_eval_grid_output(workspace, capsys):
    rc = main(
        [
            "eval", "--model", str(workspace / "model.txt"),
            "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
            "--grid",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "metric" in out and "PSN" in out and "samples" in out


def test_cache_roundtrip_through_cli(workspace, tmp_path, capsys):
    prefix = str(tmp_path / "emb")
    rc = main(
        [
            "train", "--train", str(workspace / "train.txt"),
            "--model", str(tmp_path / "m.txt"),
            "--r", "16", "--k", "5", "--learners", "1", "--seed", "7",
            "--cache", prefix,
        ]
    )
    assert rc == 0
    cached = load_cache(f"{prefix}-7.ogec", EmbeddingSpec(seed=7, d=2000, r=16))
    assert cached.n == 400
    out = tmp_path / "cached.tsv"
    rc = main(
        [
            "predict", "--model", str(tmp_path / "m.txt"),
            "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
            "--cache", prefix, "--out", str(out),
        ]
    )
    assert rc == 0
    plain = tmp_path / "plain.tsv"
    main(
        [
            "predict", "--model", str(tmp_path / "m.txt"),
            "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
            "--out", str(plain),
        ]
    )
    assert out.read_bytes() == plain.read_bytes()


@pytest.fixture
def generated_rows(monkeypatch):
    """Rows of F materialized from here on, one entry per block."""
    rows = []

    def counted(orig):
        def wrapper(spec, start, stop, *, cols=None):
            rows.append(stop - start)
            return orig(spec, start, stop, cols=cols)

        return wrapper

    for module in (embedding, cli):
        monkeypatch.setattr(module, "materialize_rows", counted(module.materialize_rows))
    return rows


def test_train_cache_generates_each_row_of_f_once(workspace, tmp_path, generated_rows):
    rc = main(
        [
            "train", "--train", str(workspace / "train.txt"),
            "--model", str(tmp_path / "m.txt"), "--r", "16", "--learners", "2",
            "--seed", "7", "--workers", "2", "--cache", str(tmp_path / "emb"),
        ]
    )
    assert rc == 0
    assert sum(generated_rows) == 2 * 16  # r rows per learner


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_train_splits_generation_over_workers(workspace, tmp_path, generated_rows, capsys, workers):
    rc = main(
        [
            "train", "--train", str(workspace / "train.txt"),
            "--model", str(tmp_path / "m.txt"), "--r", "40", "--learners", "2",
            "--seed", "7", "--workers", str(workers),
        ]
    )
    assert rc == 0
    assert sum(generated_rows) == 2 * 40  # each row of F once, whatever the workers
    assert len(generated_rows) == 2 * workers  # one range of rows per worker
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": matrix generation ")[0] for line in lines[:2]] == [
        "learner seed=7", "learner seed=8",
    ]
    assert all(line.endswith("s (40x2000)") for line in lines[:2])


@pytest.mark.parametrize(
    "sample, message",
    [
        (b"0 1999:1 1:bad", "line 3: bad feature pair '1:bad'"),
        (b"0 1:\xff", "line 3: not valid UTF-8"),
    ],
)
def test_bad_test_file_is_named_in_a_one_line_error(workspace, tmp_path, capsys, sample, message):
    bad = tmp_path / "test_bad.txt"
    bad.write_bytes(b"2 2000 40\n0 1:1\n" + sample + b"\n")
    rc = main(
        [
            "predict", "--model", str(workspace / "model.txt"),
            "--train", str(workspace / "train.txt"), "--test", str(bad),
            "--out", str(tmp_path / "p.tsv"),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]


_DATA = ["--train", "{train}", "--test", "{test}", "--workers", "2", "--out", "{out}"]
_MODEL = ["--model", "{model}", *_DATA]


# command, --cache state, rows of F it may generate; the workspace model has
# 2 learners at r=32
@pytest.mark.parametrize(
    "argv, cache, rows",
    [
        pytest.param(["predict", *_MODEL], None, 2 * 32, id="predict"),
        pytest.param(["predict", *_MODEL], "all", 2 * 32, id="predict-cache"),
        pytest.param(
            ["predict", *_MODEL], "one missing", 2 * 32, id="predict-cache-missing"
        ),
        pytest.param(["eval", *_MODEL], None, 2 * 32, id="eval"),
        pytest.param(["eval", *_MODEL], "all", 2 * 32, id="eval-cache"),
        pytest.param(
            ["eval", *_MODEL], "one missing", 2 * 32, id="eval-cache-missing"
        ),
        pytest.param(
            ["analyze", "sweep-ensemble", *_DATA, "--r", "24", "--sizes", "1,3"],
            None, 3 * 24, id="sweep-ensemble",
        ),
        pytest.param(
            ["analyze", "sweep-r", *_DATA, "--rs", "16,40,8"], None, 40, id="sweep-r"
        ),
        pytest.param(
            ["analyze", "lsh-compare", *_DATA, "--r", "16"], None, 16, id="lsh-compare"
        ),
    ],
)
def test_each_command_generates_each_row_of_f_once_per_learner(
    workspace, tmp_path, generated_rows, argv, cache, rows
):
    """Train and test are projected in one pass over F, a cached learner
    projects only the test set, and a sweep over r projects once, at max(r)."""
    paths = {name: str(workspace / f"{name}.txt") for name in ("train", "test", "model")}
    argv = [a.format(out=tmp_path / "out", **paths) for a in argv]
    if cache is not None:
        prefix = str(tmp_path / "emb")
        train = ["train", "--train", paths["train"], "--model", str(tmp_path / "m.txt")]
        train += ["--r", "32", "--learners", "2", "--seed", "7", "--cache", prefix]
        assert main(train) == 0
        if cache == "one missing":
            os.remove(f"{prefix}-8.ogec")
        argv += ["--cache", prefix]
        generated_rows.clear()
    assert main(argv) == 0
    assert sum(generated_rows) == rows


_HUGE_K = "100000000000"  # 1e11 slots for each of 100 test samples: about 582 TiB


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["predict", *_MODEL, "--topk", _HUGE_K], "--topk", id="predict"),
        pytest.param(["eval", *_MODEL, "--ks", f"1,{_HUGE_K}"], "--ks", id="eval"),
        pytest.param(
            ["analyze", "sweep-r", *_DATA, "--rs", "8", "--ks", _HUGE_K], "--ks", id="sweep-r"
        ),
        pytest.param(
            ["analyze", "sweep-ensemble", *_DATA, "--ks", _HUGE_K], "--ks", id="sweep-ensemble"
        ),
        pytest.param(
            ["analyze", "lsh-compare", *_DATA, "--predictions-out", "{out}.tsv", "--topk", _HUGE_K],
            "--topk",
            id="lsh-compare",
        ),
    ],
)
def test_impossible_ranking_width_fails_in_one_line_before_embedding(
    workspace, tmp_path, generated_rows, capsys, argv, flag
):
    """A --topk or --ks whose (test samples x K) ranking cannot fit in memory
    exits 1 with one line, before any row of F is generated."""
    paths = {name: str(workspace / f"{name}.txt") for name in ("train", "test", "model")}
    argv = [a.format(out=tmp_path / "out", **paths) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {_HUGE_K} is too large: ranking 100 test samples")
    assert err.count("\n") == 1
    assert generated_rows == []


def test_cache_with_non_finite_payload_is_rejected(workspace, tmp_path, capsys):
    prefix = str(tmp_path / "emb")
    model = str(tmp_path / "m.txt")
    rc = main(
        [
            "train", "--train", str(workspace / "train.txt"), "--model", model,
            "--r", "16", "--learners", "1", "--seed", "7", "--cache", prefix,
        ]
    )
    assert rc == 0
    path = pathlib.Path(f"{prefix}-7.ogec")
    raw = bytearray(path.read_bytes())
    raw[18 + 4 * 5 : 18 + 4 * 6] = np.float32(np.nan).tobytes()  # column 0, row 5
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    rc = main(
        [
            "predict", "--model", model, "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"), "--cache", prefix,
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: ")
    assert "non-finite" in err[-1]
    assert not any("Traceback" in line for line in err)


def test_cache_of_another_train_set_is_rejected(workspace, tmp_path, capsys):
    prefix = str(tmp_path / "emb")
    train_args = ["--r", "16", "--k", "5", "--learners", "1", "--seed", "7"]
    rc = main(
        [
            "train", "--train", str(workspace / "train.txt"),
            "--model", str(tmp_path / "m.txt"), "--cache", prefix, *train_args,
        ]
    )
    assert rc == 0
    smaller = tmp_path / "train200.txt"
    write_dataset(split_dataset(parse_dataset(workspace / "train.txt"), 200)[0], smaller)
    capsys.readouterr()
    rc = main(
        [
            "predict", "--model", str(tmp_path / "m.txt"),
            "--train", str(smaller), "--test", str(workspace / "test.txt"),
            "--cache", prefix,
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: ")
    assert "cache holds 400 samples but the train set has 200" in err[-1]
    assert not any("Traceback" in line for line in err)



@pytest.mark.parametrize(
    "sidecar, message",
    [
        (b"[1, 2]", "cache metadata must be a JSON object"),
        (b"{oops}", "malformed cache metadata (Expecting property name"),
        (b"\xff{}", "malformed cache metadata ('utf-8' codec can't decode byte 0xff"),
    ],
    ids=["not-an-object", "not-json", "not-utf8"],
)
def test_bad_cache_sidecar_is_named_in_a_one_line_error(
    workspace, tmp_path, capsys, sidecar, message
):
    prefix = str(tmp_path / "emb")
    model = str(tmp_path / "m.txt")
    train = str(workspace / "train.txt")
    rc = main(
        [
            "train", "--train", train, "--model", model,
            "--r", "16", "--learners", "1", "--seed", "7", "--cache", prefix,
        ]
    )
    assert rc == 0
    meta = pathlib.Path(f"{prefix}-7.ogec.meta")
    meta.write_bytes(sidecar)
    capsys.readouterr()
    rc = main(
        [
            "predict", "--model", model, "--train", train,
            "--test", str(workspace / "test.txt"), "--cache", prefix,
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"error: {meta}: {message}")
    assert not any("Traceback" in line for line in err)


@pytest.mark.parametrize(
    "text, message",
    [
        (b"base_seed 1\nseeds 1 \xff\n", "'utf-8' codec can't decode byte 0xff"),
        (b"seeds 1 1\nd 2000\nr 16\nk 5\n", "ensemble seeds must be pairwise distinct"),
        (b"seeds\nd 2000\nr 16\nk 5\n", "ensemble needs at least one seed"),
        (b"seeds 1\nd 10\nr 16\nk 5\n", "r must satisfy 1 <= r <= d"),
        (b"seeds 1\nd 2000\nr 16\nk 0\n", "k must be positive"),
    ],
    ids=["not-utf8", "duplicate-seeds", "no-seeds", "r-above-d", "k-zero"],
)
def test_bad_model_file_fails_first_in_a_one_line_error(tmp_path, capsys, text, message):
    model = tmp_path / "m.txt"
    model.write_bytes(text)
    missing = str(tmp_path / "missing.txt")  # the data files are read after the model
    rc = main(["predict", "--model", str(model), "--train", missing, "--test", missing])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {model}: malformed model metadata ({message}")


# every data path is "{m}", a file that does not exist
_PREDICT = ["predict", "--model", "{m}", "--train", "{m}", "--test", "{m}"]
_TRAIN = ["train", "--train", "{m}", "--model", "{m}"]
_LSH = ["analyze", "lsh-compare", "--train", "{m}", "--test", "{m}"]
_DISTORTION = ["analyze", "distortion", "--train", "{m}"]
_EVAL = ["eval", "--model", "{m}", "--train", "{m}", "--test", "{m}"]
_GEN = ["gen", "--out", "{m}"]
_BAD_KNOBS = [
    [*_PREDICT, "--topk", "0"],
    [*_EVAL, "--ks", "1,0"],
    [*_PREDICT, "--k", "0"],
    [*_TRAIN, "--learners", "0"],
    [*_TRAIN, "--r", "0"],
    ["analyze", "sweep-ensemble", "--train", "{m}", "--test", "{m}", "--sizes", "2,0"],
    [*_LSH, "--tables", "0"],
    [*_LSH, "--bits", "0"],
    [*_LSH, "--bits", "65"],
    [*_DISTORTION, "--pairs", "0"],
    [*_DISTORTION, "--bins", "0"],
    [*_PREDICT, "--workers", "-3"],
    [*_EVAL, "--prop-a", "1.5"],
    [*_EVAL, "--prop-a", "0"],
    [*_EVAL, "--prop-b", "-1"],
    [*_EVAL, "--prop-b", "inf"],
    [*_GEN, "--n", "0"],
    [*_GEN, "--d", "0"],
    [*_GEN, "--labels", "0"],
    [*_GEN, "--clusters", "0"],
    [*_GEN, "--test-n", "-1"],
    [*_GEN, "--sparsity", "0"],
    [*_GEN, "--sparsity", "nan"],
    [*_GEN, "--d", "10", "--sparsity", "11"],
    [*_GEN, "--labels-per-sample", "0"],
    [*_GEN, "--labels", "4", "--labels-per-sample", "5"],
    [*_GEN, "--test-n", "3"],
    ["analyze", "bounds", "--ns", "100", "--rs", "0"],
    ["analyze", "bounds", "--rs", "8", "--ns", "1"],
    ["analyze", "sweep-r", "--train", "{m}", "--test", "{m}", "--rs", "0,8"],
]


@pytest.mark.parametrize("argv", _BAD_KNOBS, ids=[f"{a[-2]}={a[-1]}" for a in _BAD_KNOBS])
def test_bad_knob_is_usage_error_before_any_file_is_read(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.txt")
    rc = main([missing if a == "{m}" else a for a in argv])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: {argv[-2]} "), err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_removed_chunk_flag_is_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main([*_PREDICT, "--chunk", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --chunk 8" in capsys.readouterr().err


_BAD_CONFIG_VALUES = [
    ({"topk": "big"}, "--topk must be an integer, got 'big'"),
    ({"seed": "x"}, "--seed must be an integer, got 'x'"),
    ({"seed": True}, "--seed must be an integer, got True"),
    ({"r": 2.5}, "--r must be an integer, got 2.5"),
    ({"prop_a": "x"}, "--prop-a must be a number, got 'x'"),
    ({"prop_a": 1}, "--prop-a must lie in (0, 1), got 1"),
    ({"prop_b": -0.5}, "--prop-b must be a finite number >= 0, got -0.5"),
    ({"grid": 1}, "--grid must be true or false, got 1"),
    ({"ks": True}, "--ks must be comma-separated integers, got True"),
    ({"ks": [1.7, 3]}, "--ks must be comma-separated integers, got [1.7, 3]"),
    ({"ks": [True, 3]}, "--ks must be comma-separated integers, got [True, 3]"),
    ({"ks": ["1", "3"]}, "--ks must be comma-separated integers, got ['1', '3']"),
    ({"ks": 1.5}, "--ks must be comma-separated integers, got 1.5"),
    ({"ks": None}, "--ks must be comma-separated integers, got None"),
    ({"rs": "8,x"}, "--rs must be comma-separated integers, got '8,x'"),
    ({"train": 5}, "--train must be a string, got 5"),
    ({"out": 1}, "--out must be a string, got 1"),
    ({"topk": 0}, "--topk must be an integer >= 1, got 0"),
]


@pytest.mark.parametrize(
    "values, message",
    _BAD_CONFIG_VALUES,
    ids=[f"{k}={v}" for values, _ in _BAD_CONFIG_VALUES for k, v in values.items()],
)
def test_config_file_knobs_are_checked(tmp_path, capsys, values, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(values))
    rc = main(["--config", str(config), "train", "--train", "x", "--model", "y"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"usage error: {message}"]


def test_tuple_flag_that_is_not_integers_names_its_value(capsys):
    rc = main(["eval", "--ks", "1,x"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["usage error: --ks must be comma-separated integers, got '1,x'"]


@pytest.mark.parametrize("text", ["{bad", "", b"\xff\xfe{}"], ids=["syntax", "empty", "not-utf8"])
def test_config_file_that_is_not_json_is_usage_error(tmp_path, capsys, text):
    config = tmp_path / "cfg.json"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
    rc = main(["--config", str(config), "train", "--train", "x", "--model", "y"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"usage error: {config}: config file is not valid JSON: ")


def test_config_file_tuple_knobs_take_integer_lists_and_strings(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"ks": [1, 3], "rs": "16, 32"}))
    args = cli.build_parser().parse_args(["--config", str(config), "eval"])
    cfg, explicit = cli.resolve_config(args)
    assert (cfg.ks, cfg.rs) == ((1, 3), (16, 32))
    assert explicit == {"ks", "rs"}


@pytest.mark.parametrize("key", ["hold_matrices", "pre_normalize", "chunk"])
def test_removed_knobs_are_unknown_config_keys(tmp_path, capsys, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: True}))
    rc = main(["--config", str(config), "train", "--train", "x", "--model", "y"])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_precedence(workspace, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"r": 16, "learners": 1, "k": 3}))
    model_a = tmp_path / "a.txt"
    rc = main(
        [
            "--config", str(config),
            "train", "--train", str(workspace / "train.txt"),
            "--model", str(model_a), "--seed", "2", "--k", "5",
        ]
    )
    assert rc == 0
    spec = read_metadata(model_a)
    # r and learners from the file, k overridden by the flag
    assert spec == EnsembleSpec(seeds=(2,), d=2000, r=16, k=5)


def test_config_file_rejects_unknown_keys(workspace, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"radius": 16}))
    rc = main(
        [
            "--config", str(config),
            "train", "--train", str(workspace / "train.txt"),
            "--model", str(tmp_path / "m.txt"),
        ]
    )
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_analyze_bounds_zip_and_broadcast(capsys):
    assert main(["analyze", "bounds", "--ns", "196606", "--rs", "50,100"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "196606\t50\t0.3254\t0.6746\t1.3254"
    assert out[2] == "196606\t100\t0.2301\t0.7699\t1.2301"
    assert main(["analyze", "bounds", "--ns", "100,1000", "--rs", "10,20"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    rc = main(["analyze", "bounds", "--ns", "1,2,3", "--rs", "1,2"])
    assert rc == 2


def test_analyze_distortion_output(workspace, capsys):
    rc = main(
        [
            "analyze", "distortion", "--train", str(workspace / "train.txt"),
            "--r", "32", "--seed", "3", "--pairs", "400", "--pair-seed", "1",
            "--bins", "10",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    meta = [line for line in out if line.startswith("#")]
    rows = [line for line in out if line and not line.startswith("#")]
    assert any("within_fraction" in line for line in meta)
    assert rows[0] == "bin_lo\tbin_hi\tcount"
    counts = [int(row.split("\t")[2]) for row in rows[1:]]
    pairs_line = next(line for line in meta if line.startswith("# pairs"))
    assert sum(counts) == int(pairs_line.split()[2])


def test_analyze_sweep_r(workspace, capsys):
    rc = main(
        [
            "analyze", "sweep-r", "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
            "--rs", "16,32", "--seed", "7", "--workers", "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("r\tP@1")
    assert len(out) == 3
    assert out[1].split("\t")[0] == "16"


def test_analyze_sweep_ensemble(workspace, capsys):
    rc = main(
        [
            "analyze", "sweep-ensemble", "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
            "--r", "24", "--sizes", "1,2", "--seed", "7",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    labels = [row.split("\t")[0] for row in out]
    assert labels[0] == "config"
    assert "learner:7" in labels and "learner:8" in labels
    assert "learner_mean" in labels and "learner_std" in labels
    assert "fused:1" in labels and "fused:2" in labels
    by = {row.split("\t")[0]: row.split("\t")[1:] for row in out[1:]}
    assert by["fused:1"] == by["learner:7"]


def test_analyze_lsh_compare(workspace, capsys):
    rc = main(
        [
            "analyze", "lsh-compare", "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
            "--r", "32", "--seed", "7", "--tables", "8", "--bits", "10",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[1].startswith("exhaustive\t")
    assert out[2].startswith("lsh\t")
    assert "empty candidate sets" in captured.err


def test_eval_custom_ks(workspace, capsys):
    rc = main(
        [
            "eval", "--model", str(workspace / "model.txt"),
            "--train", str(workspace / "train.txt"),
            "--test", str(workspace / "test.txt"),
            "--ks", "1,3",
        ]
    )
    assert rc == 0
    header = capsys.readouterr().out.splitlines()[0].split("\t")
    assert header[:4] == ["P@1", "P@3", "N@1", "N@3"]
    assert len(header) == 10  # 4 metrics x 2 cutoffs + samples + skipped


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_analyze_without_subcommand_prints_analyze_help(capsys):
    assert main(["analyze"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ogeec analyze")
    for name in ("bounds", "distortion", "sweep-r", "sweep-ensemble", "lsh-compare"):
        assert name in err
    assert "predict" not in err


def test_generation_timing_at_benchmark_scale(tmp_path, capsys):
    """Matrix materialization for r=200, d=782585 finishes within 60 s on one
    worker (the corpus itself is tiny; only the generation pass is at scale)."""
    path = tmp_path / "wide.txt"
    path.write_text("3 782585 5\n0 0:1.0 700000:2.0\n1 5:1.0\n2,4 9:0.5\n")
    t0 = time.perf_counter()
    rc = main(
        [
            "train", "--train", str(path), "--model", str(tmp_path / "m.txt"),
            "--r", "200", "--learners", "1", "--seed", "0", "--workers", "1",
        ]
    )
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 60.0
    assert "matrix generation" in capsys.readouterr().err


# every subcommand's flags; a flag added to or dropped from one changes its
# command-line contract
_SUBCOMMAND_FLAGS = {
    "gen": "n d labels sparsity labels-per-sample clusters test-n test-out seed out",
    "train": "train model r k learners seed workers cache",
    "predict": "model train test out k learners workers topk cache",
    "eval": "model train test out k learners workers prop-a prop-b ks cache grid",
    "analyze bounds": "ns rs out",
    "analyze distortion": "pairs pair-seed bins train r seed out",
    "analyze sweep-r": "rs train test k seed workers prop-a prop-b ks out",
    "analyze sweep-ensemble": "sizes train test r k seed workers prop-a prop-b ks out",
    "analyze lsh-compare": (
        "tables bits predictions-out train test r k seed workers prop-a prop-b ks out topk"
    ),
}
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _subcommands(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """(name, knob actions) of every subcommand that runs a handler."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for group in groups:
        for name, sub in group.choices.items():
            yield from _subcommands(sub, (*path, name))
    if not groups:
        yield " ".join(path), [a for a in parser._actions if a.dest != "help"]


def _benchmark_commands(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports corpus
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return [c for w in module.WORKLOADS.values() for c in (w.setup, *w.measured)]


def test_subcommand_flags_are_pinned(monkeypatch):
    """Each subcommand keeps its flag set; every RunConfig field is one flag,
    of one type, on at least one subcommand; and every command the benchmark
    runs still parses and resolves."""
    commands = dict(_subcommands(cli.build_parser()))
    got = {name: {a.option_strings[0][2:] for a in acts} for name, acts in commands.items()}
    assert got == {name: set(flags.split()) for name, flags in _SUBCOMMAND_FLAGS.items()}
    kinds: dict[str, set] = {}
    for acts in commands.values():
        for a in acts:
            assert a.option_strings == ["--" + a.dest.replace("_", "-")]
            assert a.default is argparse.SUPPRESS
            kinds.setdefault(a.dest, set()).add((type(a), a.type))
    assert set(kinds) == {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert all(len(k) == 1 for k in kinds.values()), kinds
    paths = {"train": "train.txt", "test": "test.txt", "model": "model.txt", "out": "out"}
    for command in _benchmark_commands(monkeypatch):
        args = cli.build_parser().parse_args([a.format(**paths) for a in command.argv])
        assert callable(args.func)
        cli.resolve_config(args)


def test_knob_table_holds_each_run_config_field_once():
    """One entry per field, in field order, and one help text per flag, which
    ends in the field's default."""
    assert list(cli._KNOBS) == [f.name for f in dataclasses.fields(cli.RunConfig)]
    helps: dict[str, set] = {}
    for _, acts in _subcommands(cli.build_parser()):
        for a in acts:
            helps.setdefault(a.dest, set()).add(a.help)
    assert all(len(h) == 1 for h in helps.values()), helps
    assert helps["r"] == {"embedding dimensionality (default 200)"}
    assert helps["ks"] == {"comma-separated K cutoffs (default 1,3,5)"}
    assert helps["out"] == {"output file (default: stdout)"}
