import argparse
import dataclasses
import importlib.util
import itertools
import json
import os
import pathlib
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest

import ogeec
from ogeec import cli, data, embedding, ensemble, jl, trace
from ogeec.cli import main
from ogeec.data import parse_dataset, split_dataset, write_dataset
from ogeec.embedding import EmbeddedMatrix, EmbeddingSpec, load_cache, save_cache
from ogeec.ensemble import EnsembleSpec, fused_scores, read_metadata, write_metadata
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


def test_top_level_help_holds_no_developer_note(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("_knob", "_COMMANDS", "RunConfig"):
        assert name not in out
    for command in ("gen", "train", "predict", "eval", "analyze"):
        assert f"\n    {command} " in out


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
    assert out.read_text() == format_predictions(*fused_scores(spec, train, test, topk))


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



@pytest.mark.parametrize(
    "command",
    [
        ["predict", "--model", "{root}/model.txt", "--train", "{root}/train.txt",
         "--test", "{root}/test.txt", "--out", "{out}"],
        ["analyze", "distortion", "--train", "{root}/train.txt", "--r", "16",
         "--pairs", "200", "--out", "{out}"],
    ],
    ids=["predict", "distortion"],
)
def test_command_imports_no_scipy(workspace, tmp_path, command):
    """A command runs on numpy alone: `python -X importtime` lists every
    module the process imports, and none of them is scipy's."""
    imported = _imported_modules(workspace, tmp_path, command)
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []
    assert "ogeec.predictor" in imported and "numpy" in imported
    assert (tmp_path / "out.tsv").stat().st_size > 0


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--model", "{root}/model.txt", "--train", "{root}/train.txt",
         "--test", "{root}/test.txt", "--out", "{out}"],
        ["analyze", "lsh-compare", "--train", "{root}/train.txt",
         "--test", "{root}/test.txt", "--r", "16", "--out", "{out}"],
    ],
    ids=["eval", "lsh-compare"],
)
def test_command_imports_no_numpy_ma(workspace, tmp_path, command):
    """The metrics and LSH candidates deduplicate by a sort: `np.unique`'s
    hash path would import numpy.ma (through `np.ma.is_masked`)."""
    imported = _imported_modules(workspace, tmp_path, command)
    assert [name for name in imported if name.split(".")[:2] == ["numpy", "ma"]] == []
    assert "ogeec.metrics" in imported and "numpy" in imported
    assert (tmp_path / "out.tsv").stat().st_size > 0


@pytest.mark.parametrize(
    "command, numpy",
    [
        (["train", "--train", "{root}/train.txt", "--model", "{out}"], False),
        (["train", "--train", "{root}/train.txt", "--model", "{out}", "--cache", "{out}"], True),
        (["predict", "--model", "{root}/model.txt", "--train", "{root}/train.txt",
          "--test", "{root}/test.txt", "--out", "{out}"], True),
    ],
    ids=["train", "train-cache", "predict"],
)
def test_only_plain_train_starts_without_numpy(workspace, tmp_path, command, numpy):
    """Plain `train` reads the header and writes the model on the standard
    library alone (`ogeec.model`); a command that embeds loads numpy and the
    pipeline as before."""
    imported = _imported_modules(workspace, tmp_path, command)
    assert "ogeec.model" in imported
    assert any(name.split(".")[0] == "numpy" for name in imported) == numpy
    assert ("numpy" in imported and "ogeec.predictor" in imported) == numpy
    assert (tmp_path / "out.tsv").stat().st_size > 0


def test_workers_0_counts_the_cpus_this_process_may_run_on(monkeypatch):
    """--workers 0 is the affinity mask's CPU count where the platform has
    one (a cpuset may hold fewer than the host's), else the host's."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli.RunConfig(workers=0).effective_workers() == 3
    assert cli.RunConfig(workers=2).effective_workers() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli.RunConfig(workers=0).effective_workers() == 8


def _imported_modules(workspace, tmp_path, command) -> list[str]:
    """Every module `ogeec.cli` imports to run `command`, as listed by
    `python -X importtime`; {root} and {out} name the workspace and
    tmp_path / "out.tsv"."""
    src = str(pathlib.Path(ogeec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [arg.format(root=workspace, out=tmp_path / "out.tsv") for arg in command]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ogeec.cli", *argv],
        env=env, timeout=300, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return [
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]


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
    props = propensity(train.label_frequencies, train.n)
    want = evaluate(fused_scores(spec, train, test, 5)[0], test.labels, props)
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
    from oracles import float64_features, score_matrix

    from ogeec.predictor import batch_predict

    lspec = spec.learner(0)
    emb = embed(lspec, train)
    queries = project_csr(lspec, float64_features(test))
    single = score_matrix(*batch_predict(emb, queries, spec.k), train.labels)
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


def test_lsh_compare_outputs_do_not_depend_on_the_ranking_width(workspace, tmp_path, capsys):
    """lsh-compare ranks each side once, at max(max(ks), topk). Under the
    order (-score, label) the top --topk labels are a prefix of any wider
    ranking, and the metrics read only its first max(ks) columns, so
    widening either knob leaves the other's output as it is."""

    def run(ks, topk):
        preds = tmp_path / f"{ks}-{topk}.tsv"
        rc = main(
            [
                "analyze", "lsh-compare", "--train", str(workspace / "train.txt"),
                "--test", str(workspace / "test.txt"), "--r", "32", "--seed", "7",
                "--tables", "8", "--bits", "6", "--ks", ks, "--topk", topk,
                "--predictions-out", str(preds),
            ]
        )
        assert rc == 0
        return capsys.readouterr().out, preds.read_text().split("\n")

    out, tsv = run("1,3", "3")
    wide_out, wide_tsv = run("1,3", "12")
    assert wide_out == out
    assert run("1,3,12", "3")[1] == tsv
    assert any(row.count("\t") > 2 for row in wide_tsv)
    for row, wide in zip(tsv, wide_tsv):
        assert wide.split("\t")[:3] == row.split("\t")


def test_lsh_compare_k_above_train_size_equals_k_at_train_size(workspace, tmp_path, capsys):
    """No neighbour row is wider than the 400 train samples, on either side,
    so --k above n_train writes the files that --k = n_train writes."""

    def run(k):
        out, preds = tmp_path / f"{k}.tsv", tmp_path / f"{k}-preds.tsv"
        rc = main(
            [
                "analyze", "lsh-compare", "--train", str(workspace / "train.txt"),
                "--test", str(workspace / "test.txt"), "--r", "32", "--seed", "7",
                "--tables", "8", "--bits", "6", "--k", str(k),
                "--out", str(out), "--predictions-out", str(preds),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        return out.read_text(), preds.read_text()

    assert run(405) == run(400)


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
    assert sorted(os.listdir(tmp_path)) == ["emb-7.ogec", "m.txt"]  # no sidecar, no temp file
    spec, train = EmbeddingSpec(seed=7, d=2000, r=16), parse_dataset(workspace / "train.txt")
    cached = load_cache(prefix, spec, train)
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
        def wrapper(spec, start, stop, *, cols, out=None, scratch=None):
            rows.append(stop - start)
            return orig(spec, start, stop, cols=cols, out=out, scratch=scratch)

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


def test_train_draws_no_row_of_f_without_cache(
    workspace, tmp_path, generated_rows, capsys, monkeypatch
):
    """The model is a handful of integers: without --cache, train reads the
    train file's header and line count (`model.read_header`), tokenizes no
    sample line, generates nothing, and writes the metadata, whose size it
    reports; its one layer is that read."""
    tokenized = []
    monkeypatch.setattr(data, "_parse_canonical", lambda *args: tokenized.append(args))
    model = tmp_path / "m.txt"
    rc = main(
        [
            "train", "--train", str(workspace / "train.txt"), "--model", str(model),
            "--r", "40", "--learners", "2", "--seed", "7",
        ]
    )
    assert rc == 0
    assert generated_rows == [] and tokenized == []
    assert model.read_bytes() == b"base_seed 7\nseeds 7 8\nd 2000\nr 40\nk 5\nE 2\n"
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"model metadata written to {model} (42 bytes)" and len(err) == 2
    assert _layers("\n".join(err)) == ["parse_s"]


def test_train_memory_does_not_grow_with_the_sample_count(tmp_path):
    """Without --cache, train holds no per-sample array: its traced peak on
    20,000 sample lines is within 1 MiB of its peak on 200 lines of the same
    header d."""
    line = "3,7 " + " ".join(f"{j}:0.5" for j in range(0, 2000, 100)) + "\n"
    peaks = []
    for n in (200, 200, 20_000):  # the first run pays for one-time imports
        path = tmp_path / f"train{n}.txt"
        path.write_text(f"{n} 2000 10\n" + line * n)
        tracemalloc.start()
        try:
            assert main(["train", "--train", str(path), "--model", str(tmp_path / "m.txt")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] <= 1 << 20, peaks


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "[Errno 2] No such file or directory: '{path}'"),
        (b"2 50 3\n0 1:1\n1 7:\xff\n", "{path}: line 3: not valid UTF-8"),
        (b"2 50\n0 1:1\n1 7:1\n", "{path}: line 1: header must be 'n d L'"),
        (b"2 0 3\n0 1:1\n1 7:1\n", "{path}: line 1: header fields must be positive"),
        (b"3 50 3\n0 1:1\n1 7:1\n", "{path}: expected 3 sample lines after the header, found 2"),
        (b"2 3 3\n0 1:1\n1 2:1\n", "r must satisfy 1 <= r <= d, got r = 4 and d = 3"),
    ],
    ids=["missing", "not-utf8", "header-fields", "header-zero", "line-count", "r-above-d"],
)
def test_plain_train_refuses_what_it_reads_in_one_line(tmp_path, capsys, text, message):
    """Without --cache, train reads the file's bytes, its header and its line
    count, and refuses each in one line before any model is written."""
    path, model = tmp_path / "train.txt", tmp_path / "m.txt"
    if text is not None:
        path.write_bytes(text)
    rc = main(["train", "--train", str(path), "--model", str(model), "--r", "4"])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err.splitlines() == ["error: " + message.format(path=path)]
    assert not model.exists()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_train_model_is_identical_across_workers(workspace, tmp_path, workers):
    model = tmp_path / "m.txt"
    rc = main(
        [
            "train", "--train", str(workspace / "train.txt"), "--model", str(model),
            "--r", "32", "--k", "5", "--learners", "2", "--seed", "7",
            "--workers", str(workers),
        ]
    )
    assert rc == 0
    assert model.read_bytes() == (workspace / "model.txt").read_bytes()


def _tokenizing_commands_refuse(tmp_path, capsys, text: str, message: str, d: int) -> None:
    """Plain train, which tokenizes no sample line, accepts the train file
    `text`; train --cache refuses it in one line before any model or cache
    is written, and so do predict and eval, with the same message."""
    bad, model = tmp_path / "train.txt", tmp_path / "m.txt"
    bad.write_text(text, encoding="utf-8")
    train = ["train", "--train", str(bad), "--model", str(model), "--r", "4"]
    assert main(train) == 0
    model.unlink()
    capsys.readouterr()
    write_metadata(tmp_path / "known.txt", EnsembleSpec(seeds=(0,), d=d, r=4, k=2))
    files = ["--model", str(tmp_path / "known.txt"), "--train", str(bad), "--test", str(bad)]
    for argv in ([*train, "--cache", str(tmp_path / "c")], ["predict", *files], ["eval", *files]):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "") and "Traceback" not in err
        assert err.splitlines() == [f"error: {bad}: {message}"]
    assert not model.exists() and not list(tmp_path.glob("c-*"))


def test_malformed_train_file_fails_train_in_one_line(tmp_path, capsys):
    """A bad feature pair is not read by plain train, but train --cache,
    predict and eval, which tokenize the samples, refuse it in one line."""
    _tokenizing_commands_refuse(
        tmp_path, capsys, "2 50 3\n0 1:1\n1 7:x\n", "line 3: bad feature pair '7:x'", 50
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 10 20\n1_0 3:1.5\n٣ ٣:2\t 4:1_0.0\n", "line 2: bad label '1_0'"),
        ("1 10 20\n+1 1:1\n", "line 2: bad label '+1'"),
        ("1 10 20\n0 +1:1\n", "line 2: bad feature pair '+1:1'"),
        ("1 10 20\n0 1_0:1\n", "line 2: bad feature pair '1_0:1'"),
        ("1 10 20\n0\t1:1\n", "line 2: label field contains ':' (unlabeled samples need a leading space)"),
        ("1 10 20\n0 1:nan\n", "line 2: non-finite value in '1:nan'"),
    ],
    ids=["underscore-and-arabic-indic-digits", "signed-label", "signed-index", "underscore-index",
         "tab", "nan"],
)
def test_a_token_outside_the_grammar_fails_train_in_one_line(tmp_path, capsys, text, message):
    """Signs on labels or indices, "_", other scripts' digits, tabs and nan
    are outside the grammar, though `int()` or `float()` alone reads them:
    train --cache, predict and eval refuse the file in one line that names
    it and the line (plain train tokenizes no sample line)."""
    _tokenizing_commands_refuse(tmp_path, capsys, text, message, 10)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "distortion", "--train", "{train}", "--pairs", "100000000000"],
        ["analyze", "distortion", "--train", "{train}", "--bins", "1000000000000"],
        ["gen", "--n", "1000000000000", "--out", "{out}"],
        # numpy refuses (T * H) rows as a C ssize_t before it allocates any
        ["analyze", "lsh-compare", "--train", "{train}", "--test", "{test}",
         "--tables", "99999999999999999999"],
    ],
    ids=["pairs-745GiB", "bins-7.3TiB", "gen-n-7.3TiB", "tables-past-ssize_t"],
)
def test_a_knob_too_large_for_memory_fails_in_one_line(workspace, tmp_path, capsys, argv):
    """A knob whose first allocation no machine can make, or whose size no
    C integer holds, fails at once with one `error:` line and exit 1, not a
    traceback."""
    paths = {"train": workspace / "train.txt", "test": workspace / "test.txt",
             "out": tmp_path / "gen.txt"}
    rc = main([arg.format(**paths) for arg in argv])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, header",
    [("train", f"2 {2**63} 3"), ("predict", f"2 10 {2**63}"), ("eval", f"2 10 {2**63}")],
)
def test_a_header_field_of_2_63_fails_at_line_1(tmp_path, capsys, command, header):
    """Counts and indices are int64, so a header field of 2^63 or more is
    refused at line 1, not by an OverflowError in a later layer, nor by a
    model that no command can use."""
    data, model = tmp_path / "data.txt", tmp_path / "model.txt"
    data.write_text(header + "\n0 1:1\n1 2:1\n")
    write_metadata(model, EnsembleSpec(seeds=(0,), d=10, r=4, k=2))
    argv = [command, "--model", str(model), "--train", str(data)]
    rc = main(argv if command == "train" else [*argv, "--test", str(data)])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.splitlines() == [f"error: {data}: line 1: header fields must be below 2^63"]


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
    argv = _with_cache(workspace, tmp_path, argv, cache)
    generated_rows.clear()
    assert main(argv) == 0
    assert sum(generated_rows) == rows


def _with_cache(workspace, tmp_path, argv, cache):
    """`argv` with its paths filled in and, when `cache` is "all" or "one
    missing", the --cache prefix of the workspace model's 2 learners, with
    every cache file written or learner 8's removed."""
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
    return argv


@pytest.fixture
def planned_rows(monkeypatch):
    """The row count of each `PlannedRows` built from here on."""
    rows = []
    init = embedding.PlannedRows.__init__

    def counted(self, *parts, **kwargs):
        rows.append(sum(P.shape[0] for P in parts))
        init(self, *parts, **kwargs)

    monkeypatch.setattr(embedding.PlannedRows, "__init__", counted)
    return rows


# command, --cache state, and the rows of each `PlannedRows` it builds, in
# order; the workspace has 400 train and 100 test samples
@pytest.mark.parametrize(
    "argv, cache, planned",
    [
        pytest.param(["predict", *_MODEL], None, [500], id="predict"),
        pytest.param(["predict", *_MODEL], "all", [100], id="predict-cache"),
        pytest.param(["predict", *_MODEL], "one missing", [500, 100], id="predict-cache-missing"),
        pytest.param(["eval", *_MODEL], None, [500], id="eval"),
        pytest.param(["eval", *_MODEL], "all", [100], id="eval-cache"),
        pytest.param(["eval", *_MODEL], "one missing", [500, 100], id="eval-cache-missing"),
        pytest.param(
            ["train", "--train", "{train}", "--model", "{out}", "--r", "16", "--learners", "3",
             "--workers", "2", "--cache", "{out}-emb"],
            None, [400], id="train-cache",
        ),
        pytest.param(
            ["analyze", "sweep-ensemble", *_DATA, "--r", "24", "--sizes", "1,3"],
            None, [500], id="sweep-ensemble",
        ),
        pytest.param(["analyze", "sweep-r", *_DATA, "--rs", "16,40,8"], None, [500], id="sweep-r"),
        pytest.param(["analyze", "lsh-compare", *_DATA, "--r", "16"], None, [500], id="lsh-compare"),
    ],
)
def test_each_command_plans_each_set_of_samples_once(
    workspace, tmp_path, planned_rows, argv, cache, planned
):
    """Every learner shares one normalized and planned copy of each set of
    samples that some learner projects: the train rows stacked over the test
    rows unless every learner is cached, and the test rows alone only when
    some learner is; `train --cache` plans the train rows alone, once."""
    argv = _with_cache(workspace, tmp_path, argv, cache)
    planned_rows.clear()
    assert main(argv) == 0
    assert planned_rows == planned


@pytest.mark.parametrize(
    "argv, cache, freed",
    [
        pytest.param(["predict", *_MODEL], None, True, id="predict"),
        pytest.param(["predict", *_MODEL], "all", True, id="predict-cache"),
        pytest.param(["predict", *_MODEL], "one missing", True, id="predict-cache-missing"),
        pytest.param(["eval", *_MODEL], None, True, id="eval"),
        pytest.param(["eval", *_MODEL], "one missing", True, id="eval-cache-missing"),
        pytest.param(
            ["train", "--train", "{train}", "--model", "{out}", "--r", "16", "--learners", "2",
             "--cache", "{out}-emb"],
            None, True, id="train-cache",
        ),
        pytest.param(["analyze", "sweep-r", *_DATA, "--rs", "16,8"], None, True, id="sweep-r"),
        pytest.param(
            ["analyze", "sweep-ensemble", *_DATA, "--r", "16", "--sizes", "1,2"],
            None, True, id="sweep-ensemble",
        ),
        pytest.param(["analyze", "lsh-compare", *_DATA, "--r", "16"], None, True, id="lsh-compare"),
        pytest.param(
            ["analyze", "distortion", "--train", "{train}", "--r", "16", "--pairs", "50"],
            None, False, id="distortion",
        ),
    ],
)
def test_commands_hold_no_parsed_feature_array_once_planned(
    workspace, tmp_path, monkeypatch, argv, cache, freed
):
    """The commands that plan their samples hold no parsed feature array
    (indptr, indices, values) once the plan exists: weak references to each
    array that `cli.parse_dataset` returned are dead when the first
    projection starts. They then hand the freed heap back once
    (`ensemble.release_heap`), with no parsed feature array alive and
    before any projection. `analyze distortion` reads its dataset
    directly, so it keeps them."""
    argv = _with_cache(workspace, tmp_path, argv, cache)
    refs, alive, released = [], [], []
    parse, project, release = cli.parse_dataset, embedding._project, ensemble.release_heap

    def parsed(path):
        ds = parse(path)
        refs.extend(weakref.ref(a) for a in ds.features[:3])
        return ds

    def projected(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return project(*args, **kwargs)

    def releases():
        released.append((sum(ref() is not None for ref in refs), len(alive)))
        release()

    monkeypatch.setattr(cli, "parse_dataset", parsed)
    monkeypatch.setattr(embedding, "_project", projected)
    monkeypatch.setattr(jl, "_project", projected)
    monkeypatch.setattr(ensemble, "release_heap", releases)
    assert main(argv) == 0
    assert refs and alive
    assert alive[0] == (0 if freed else len(refs))
    assert released == ([(0, 0)] if freed else [])


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


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--model", "{model}"],
        ["analyze", "sweep-r", "--rs", "2,4"],
        ["analyze", "sweep-ensemble", "--r", "4", "--sizes", "1,2"],
        ["analyze", "lsh-compare", "--r", "4"],
    ],
    ids=["eval", "sweep-r", "sweep-ensemble", "lsh-compare"],
)
def test_test_label_outside_the_train_labels_fails_in_one_line_before_embedding(
    tmp_path, generated_rows, capsys, argv
):
    """A test label at or above the train set's L exits 1 with one line that
    names the test file and both label counts, before any row of F is
    generated; `predict` reads no test labels and still accepts the file."""
    train, test, model = (tmp_path / name for name in ("train.txt", "test.txt", "model.txt"))
    train.write_text("6 5 8\n0 0:1\n1 1:1\n2 2:1\n3,4 3:1\n5,6 4:1\n7 0:1 4:2\n")
    test.write_text("2 5 9\n0 0:1\n8 1:1\n")
    write_metadata(model, EnsembleSpec(seeds=(0, 1), d=5, r=4, k=3))
    data = ["--train", str(train), "--test", str(test)]
    assert main([a.format(model=model) for a in argv] + data) == 1
    out, err = capsys.readouterr()
    assert (out, generated_rows) == ("", [])
    assert err == (
        f"error: {test}: test label 8 is outside the train set's labels "
        "(the test set has 9 labels, the train set 8)\n"
    )
    assert main(["predict", "--model", str(model), *data]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "sweep-r", "--rs", "2,4"],
        ["analyze", "sweep-ensemble", "--r", "4", "--sizes", "1,2"],
        ["analyze", "lsh-compare", "--r", "4"],
    ],
    ids=["sweep-r", "sweep-ensemble", "lsh-compare"],
)
def test_analyze_refuses_a_test_set_of_another_dimensionality(tmp_path, generated_rows, capsys, argv):
    """Without a model, a test set whose d is not the train set's exits 1
    with one line naming both, before any row of F is generated."""
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    train.write_text("2 5 2\n0 0:1\n1 1:1\n")
    test.write_text("1 7 2\n0 6:1\n")
    assert main([*argv, "--train", str(train), "--test", str(test)]) == 1
    out, err = capsys.readouterr()
    assert (out, generated_rows) == ("", [])
    assert err == "error: test dataset dimensionality 7 != train dimensionality 5\n"


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
    # a NaN in a file whose crc32 holds: written as the cache was
    spec, train = EmbeddingSpec(seed=7, d=2000, r=16), parse_dataset(workspace / "train.txt")
    data = load_cache(prefix, spec, train).data.copy(order="F")
    data[5, 0] = np.nan  # column 0, row 5
    save_cache(prefix, EmbeddedMatrix(data), spec, train)
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


def test_model_write_replaces_the_whole_file(workspace, tmp_path, monkeypatch, capsys):
    """The model file is written beside its path and moved into place: a
    write that fails leaves the old file whole and no temp file, and a
    missing directory is named by the model's own path."""
    model = tmp_path / "m.txt"
    model.write_text("old\n")

    def broken(spec):
        raise ValueError("disk full")

    monkeypatch.setattr("ogeec.model.format_metadata", broken)
    args = ["train", "--train", str(workspace / "train.txt"), "--r", "8", "--model"]
    assert main([*args, str(model)]) == 1
    assert (model.read_text(), os.listdir(tmp_path)) == ("old\n", ["m.txt"])
    missing = tmp_path / "no" / "m.txt"
    assert main([*args, str(missing)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: [Errno 2] No such file or directory: '{missing}'"
    )


_MISSING_DIR = [
    ["train", "--train", "{train}", "--model", "{tmp}/m.txt", "--cache", "{tmp}/no/c"],
    ["train", "--train", "{train}", "--cache", "{tmp}/c", "--model", "{tmp}/no/m.txt"],
    ["predict", "--model", "{model}", "--train", "{train}", "--test", "{test}",
     "--out", "{tmp}/no/p.tsv"],
    ["eval", "--model", "{model}", "--train", "{train}", "--test", "{test}",
     "--out", "{tmp}/no/e.tsv"],
    ["analyze", "lsh-compare", "--train", "{train}", "--test", "{test}", "--r", "8",
     "--predictions-out", "{tmp}/no/p.tsv"],
    ["gen", "--out", "{tmp}/g.txt", "--test-n", "5", "--test-out", "{tmp}/no/t.txt"],
]


@pytest.mark.parametrize(
    "argv", _MISSING_DIR, ids=["cache", "model", "predict", "eval", "predictions-out", "gen"]
)
def test_a_missing_output_directory_fails_before_any_dataset_is_read(
    workspace, tmp_path, monkeypatch, generated_rows, capsys, argv
):
    """A file that a command would write in a missing directory exits 1
    with the one line that opening it gives, before any dataset is read or
    generated: no row of F is drawn and no cache or other file is written."""

    def unread(*args, **kwargs):
        raise AssertionError("a dataset was read")

    monkeypatch.setattr(cli, "parse_dataset", unread)
    monkeypatch.setattr(cli, "generate_synthetic", unread)
    paths = {name: workspace / f"{name}.txt" for name in ("train", "test", "model")}
    argv = [a.format(tmp=tmp_path, **paths) for a in argv]
    assert main(argv) == 1
    missing = next(a for a in argv if "/no/" in a)
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert (generated_rows, os.listdir(tmp_path)) == ([], [])


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "distortion", "--r", "600"],
        ["train", "--r", "600", "--model", "{tmp}/m.txt"],
        ["analyze", "sweep-r", "--rs", "8,600", "--test", "{data}"],
    ],
    ids=["distortion", "train", "sweep-r"],
)
def test_an_r_above_d_is_refused_with_both_values(tmp_path, capsys, argv):
    data = tmp_path / "d500.txt"
    data.write_text("2 500 2\n0 0:1\n1 499:1\n")
    argv = [a.format(tmp=tmp_path, data=data) for a in argv]
    assert main([*argv, "--train", str(data)]) == 1
    assert capsys.readouterr().err == (
        "error: r must satisfy 1 <= r <= d, got r = 600 and d = 500\n"
    )


# ---------------------------------------------------------------------------
# layer timings: one stderr line per layer a successful command ran

_TIMING = re.compile(r"[a-z]+_s \d+\.\d{3}")
_ALL_LAYERS = ["embed_s", "metrics_s", "parse_s", "propagate_s", "search_s"]


def _layers(err: str) -> list[str]:
    """The names on a command's timing lines, in their order."""
    return [line.split()[0] for line in err.splitlines() if _TIMING.fullmatch(line)]


def _predict_args(workspace) -> list[str]:
    return [
        "predict", "--model", str(workspace / "model.txt"),
        "--train", str(workspace / "train.txt"), "--test", str(workspace / "test.txt"),
    ]


@pytest.fixture
def one_second_spans(monkeypatch):
    """A clock for `trace` that ticks one second per reading, so each span
    adds exactly 1.000 (no span opens inside another)."""
    ticks = itertools.count()
    clock = types.SimpleNamespace(perf_counter=lambda: float(next(ticks)))
    monkeypatch.setattr(trace, "time", clock)


@pytest.mark.parametrize(
    "command, layers",
    [("predict", ["embed_s", "parse_s", "propagate_s", "search_s"]), ("eval", _ALL_LAYERS)],
)
def test_predict_and_eval_print_only_their_layer_timings(workspace, capsys, command, layers):
    assert main([command, *_predict_args(workspace)[1:]]) == 0
    err = capsys.readouterr().err
    assert _layers(err) == layers
    assert len(err.splitlines()) == len(layers)


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["analyze", "distortion", "--pairs", "200"], ["embed_s", "parse_s"]),
        (["analyze", "sweep-r", "--rs", "8,16", "--test", "{test}"], _ALL_LAYERS),
        (["analyze", "sweep-ensemble", "--r", "8", "--sizes", "1,2", "--test", "{test}"],
         _ALL_LAYERS),
        (["analyze", "lsh-compare", "--r", "8", "--test", "{test}"], _ALL_LAYERS),
    ],
    ids=["distortion", "sweep-r", "sweep-ensemble", "lsh-compare"],
)
def test_analyze_commands_print_the_layers_they_ran(workspace, capsys, argv, layers):
    argv = [a.format(test=workspace / "test.txt") for a in argv]
    assert main([*argv, "--train", str(workspace / "train.txt"), "--out", os.devnull]) == 0
    assert _layers(capsys.readouterr().err) == layers


def test_analyze_bounds_runs_no_layer(capsys):
    assert main(["analyze", "bounds", "--ns", "100", "--rs", "8"]) == 0
    assert capsys.readouterr().err == ""


def test_each_command_reports_its_own_layer_times(workspace, one_second_spans, capsys):
    """main clears the record before each command: a second run in the same
    process reports its own spans, not a running sum. Each of the two sets
    is parsed once, the model's two learners each project once and search
    once, and one label pass fuses them."""
    errs = []
    for _ in range(2):
        assert main(_predict_args(workspace)) == 0
        errs.append(capsys.readouterr().err)
    assert errs == ["embed_s 2.000\nparse_s 2.000\npropagate_s 1.000\nsearch_s 2.000\n"] * 2


def test_train_cache_reports_each_learners_projection_on_its_own_line(
    workspace, tmp_path, one_second_spans, capsys
):
    """Each learner's line takes its projection out of the record, so none is
    printed again as an embed_s line; the parse of the train set is."""
    model = tmp_path / "m.txt"
    argv = ["train", "--train", str(workspace / "train.txt"), "--model", str(model)]
    assert main([*argv, "--r", "8", "--learners", "2", "--cache", str(tmp_path / "c")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"learner seed={seed}: matrix generation and embedding 1.000s (8x2000), "
        f"cached to {tmp_path / 'c'}-{seed}.ogec"
        for seed in (0, 1)
    ] + [f"model metadata written to {model} (41 bytes)", "parse_s 1.000"]


def test_a_command_that_fails_after_its_spans_prints_one_line(workspace, monkeypatch, capsys):
    def broken(labels, scores):
        raise ValueError("disk full")

    monkeypatch.setattr(cli, "format_predictions", broken)
    assert main(_predict_args(workspace)) == 1
    assert capsys.readouterr().err == "error: disk full\n"


_REBUILD = "rebuild it with `ogeec train --cache`"


def _rewrite(edit):
    """Rewrite learner 7's cache file with edit(its bytes)."""

    def mutate(prefix, tmp_path):
        path = pathlib.Path(f"{prefix}-7.ogec")
        path.write_bytes(edit(path.read_bytes()))
        return path

    return mutate


def _flip_payload_byte(raw):
    raw = bytearray(raw)
    raw[70 + 29] ^= 0x01
    return bytes(raw)


def _swap(prefix, tmp_path):
    """Learners 7 and 8 each get the other's cache file."""
    a, b = pathlib.Path(f"{prefix}-7.ogec"), pathlib.Path(f"{prefix}-8.ogec")
    raw = a.read_bytes()
    a.write_bytes(b.read_bytes())
    b.write_bytes(raw)
    return a


def _from_another_train_set(prefix, tmp_path):
    """Learner 7's cache rebuilt from another train set of the same n and d."""
    other = tmp_path / "other.txt"
    gen = ["gen", "--n", "400", "--d", "2000", "--labels", "40", "--sparsity", "10"]
    assert main([*gen, "--labels-per-sample", "2", "--seed", "4", "--out", str(other)]) == 0
    train = ["train", "--train", str(other), "--model", str(tmp_path / "other.model")]
    assert main([*train, "--r", "16", "--learners", "1", "--seed", "7", "--cache", prefix]) == 0
    return pathlib.Path(f"{prefix}-7.ogec")


def _remove_learner_8(prefix, tmp_path):
    os.remove(f"{prefix}-8.ogec")


# learner seed, mutation of the cache files, and the error after the file's
# name (None: the command must print the uncached TSV)
@pytest.mark.parametrize(
    "seed, mutate, message",
    [
        pytest.param(
            7, _rewrite(lambda raw: raw[:40]), f"truncated cache header; {_REBUILD}",
            id="truncated-header",
        ),
        pytest.param(
            7, _rewrite(lambda raw: raw[:-4]),
            f"expected 25600 payload bytes, got 25596; {_REBUILD}",
            id="truncated-payload",
        ),
        pytest.param(
            7, _rewrite(_flip_payload_byte), f"payload fails its crc32 check; {_REBUILD}",
            id="flipped-payload-byte",
        ),
        pytest.param(
            7, _rewrite(lambda raw: struct.pack("<4sHIQ", b"OGEC", 1, 16, 400) + raw[70:]),
            f"cache format v1 is no longer read; {_REBUILD}", id="v1",
        ),
        pytest.param(
            7, _swap,
            f"cache is for (Philox key, d, r) = (8, 2000, 16), not (7, 2000, 16); {_REBUILD}",
            id="swapped-learners",
        ),
        pytest.param(
            7, _from_another_train_set, f"cache was built from another train set; {_REBUILD}",
            id="another-train-set",
        ),
        pytest.param(7, _remove_learner_8, None, id="one-learner-missing"),
        pytest.param(-1, None, None, id="seed-minus-1"),
        pytest.param(2**64 + 3, None, None, id="seed-2**64+3"),
    ],
)
def test_predict_cache_is_checked_against_model_and_train_set(
    workspace, tmp_path, capsys, seed, mutate, message
):
    """A bad cache file exits 1 with one stderr line naming it, no traceback
    and empty stdout; a good one, or none, gives the uncached TSV's bytes."""
    model, prefix = str(tmp_path / "m.txt"), str(tmp_path / "emb")
    data = ["--train", str(workspace / "train.txt"), "--test", str(workspace / "test.txt")]
    train = ["train", "--model", model, *data[:2], "--r", "16", "--learners", "2"]
    assert main([*train, "--seed", str(seed), "--cache", prefix]) == 0
    path = mutate(prefix, tmp_path) if mutate else None
    capsys.readouterr()
    predict = ["predict", "--model", model, *data]
    rc = main([*predict, "--cache", prefix])
    out, err = capsys.readouterr()
    if message is not None:
        assert (rc, out, err) == (1, "", f"error: {path}: {message}\n")
        return
    assert rc == 0
    assert main(predict) == 0
    assert capsys.readouterr().out == out


def test_a_late_learners_bad_cache_fails_before_any_projection(
    workspace, tmp_path, capsys, generated_rows
):
    """Every learner's cache file is checked before the first learner is
    projected: with learners 0-3 uncached and learner 4's payload corrupt,
    or holding a NaN under a valid crc32, predict exits 1 with that file's
    line and has drawn no row of F. A payload that fails both checks is
    reported by its crc32, as `load_cache` reports it."""
    data = ["--train", str(workspace / "train.txt"), "--test", str(workspace / "test.txt")]
    spec, train_ds = EmbeddingSpec(seed=11, d=2000, r=16), parse_dataset(workspace / "train.txt")
    for nan, flip, message in [
        (False, True, "payload fails its crc32 check"),
        (True, False, "payload holds non-finite values"),
        (True, True, "payload fails its crc32 check"),
    ]:
        model, prefix = str(tmp_path / f"m{nan}{flip}.txt"), str(tmp_path / f"emb{nan}{flip}")
        train = ["train", "--model", model, *data[:2], "--r", "16", "--learners", "5", "--seed", "7"]
        assert main([*train, "--cache", prefix]) == 0
        for seed in range(7, 11):
            os.remove(f"{prefix}-{seed}.ogec")
        if nan:  # written as the cache was, so its crc32 holds
            matrix = load_cache(prefix, spec, train_ds).data.copy(order="F")
            matrix[5, 0] = np.nan  # column 0, row 5
            save_cache(prefix, EmbeddedMatrix(matrix), spec, train_ds)
        path = f"{prefix}-11.ogec"
        if flip:  # a byte of column 0, row 7
            with open(path, "rb") as f:
                raw = _flip_payload_byte(f.read())
            with open(path, "wb") as f:
                f.write(raw)
        capsys.readouterr()
        generated_rows.clear()
        rc = main(["predict", "--model", model, *data, "--cache", prefix])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert err == f"error: {path}: {message}; {_REBUILD}\n"
        assert sum(generated_rows) == 0


@pytest.mark.parametrize(
    "text, message",
    [
        (b"base_seed 1\nseeds 1 \xff\n", "'utf-8' codec can't decode byte 0xff"),
        (b"base_seed 1\nseeds 1 1\nd 2000\nr 16\nk 5\nE 2\n", "ensemble seeds must be pairwise distinct"),
        (b"base_seed 1\nseeds\nd 2000\nr 16\nk 5\nE 0\n", "ensemble needs at least one seed"),
        (b"base_seed 1\nseeds 1\nd 10\nr 16\nk 5\nE 1\n", "r must satisfy 1 <= r <= d"),
        (b"base_seed 1\nseeds 1\nd 2000\nr 16\nk 0\nE 1\n", "k must be positive"),
    ],
    ids=["not-utf8", "duplicate-seeds", "no-seeds", "r-above-d", "k-zero"],
)
def test_bad_model_file_fails_first_in_a_one_line_error(tmp_path, capsys, text, message):
    """Each model file is one that `format_metadata` could write but for its
    fault; the model is refused before either data file is opened."""
    model = tmp_path / "m.txt"
    model.write_bytes(text)
    missing = str(tmp_path / "missing.txt")  # the data files are read after the model
    rc = main(["predict", "--model", str(model), "--train", missing, "--test", missing])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {model}: malformed model metadata ({message}")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_a_learner_count_above_the_models_e_fails_before_the_datasets(
    workspace, tmp_path, capsys, command, source
):
    """--learners above the model's E exits 1 with one line right after the
    model is read, whether a flag or the config file gives it: the datasets,
    which do not exist here, are never opened."""
    missing = str(tmp_path / "missing.txt")
    argv = [command, "--model", str(workspace / "model.txt"), "--train", missing, "--test", missing]
    if source == "flag":
        argv += ["--learners", "3"]
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"learners": 3}))
        argv = ["--config", str(config), *argv]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "", "error: learner count 3 exceeds available seeds 2\n")


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


def test_analyze_distortion_projects_on_every_worker(workspace, tmp_path, monkeypatch):
    """`analyze distortion` projects on --workers threads like every other
    command that projects: at 2 its plan has two ranges of F's rows, and
    its TSV is byte-identical to the one at 1."""
    bounds = []

    class Counted(embedding.PlannedRows):
        def __init__(self, *parts, **kwargs):
            super().__init__(*parts, **kwargs)
            bounds.append(self.bounds)

    monkeypatch.setattr(jl, "PlannedRows", Counted)
    argv = ["analyze", "distortion", "--train", str(workspace / "train.txt"), "--r", "32", "--pairs", "400"]
    for workers in (1, 2):
        assert main([*argv, "--workers", str(workers), "--out", str(tmp_path / f"{workers}.tsv")]) == 0
    assert bounds == [[0, 32], [0, 16, 32]]
    assert (tmp_path / "1.tsv").read_bytes() == (tmp_path / "2.tsv").read_bytes()


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


def test_generation_timing_at_benchmark_scale(tmp_path, generated_rows):
    """Generating F for r=200, d=782585 finishes within 60 s on one worker:
    predict draws every row's Philox stream over all d columns, though the
    corpus itself is tiny."""
    path, model = tmp_path / "wide.txt", tmp_path / "m.txt"
    path.write_text("3 782585 5\n0 0:1.0 700000:2.0\n1 5:1.0\n2,4 9:0.5\n")
    train = ["train", "--train", str(path), "--model", str(model), "--r", "200"]
    assert main([*train, "--learners", "1", "--seed", "0"]) == 0
    t0 = time.perf_counter()
    rc = main(
        [
            "predict", "--model", str(model), "--train", str(path), "--test", str(path),
            "--out", str(tmp_path / "p.tsv"), "--workers", "1",
        ]
    )
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 60.0
    assert sum(generated_rows) == 200


# every subcommand's flags; a flag added to or dropped from one changes its
# command-line contract
_SUBCOMMAND_FLAGS = {
    "gen": "n d labels sparsity labels-per-sample clusters test-n test-out seed out",
    "train": "train model r k learners seed workers cache",
    "predict": "model train test out k learners workers topk cache",
    "eval": "model train test out k learners workers prop-a prop-b ks cache grid",
    "analyze bounds": "ns rs out",
    "analyze distortion": "pairs pair-seed bins train r seed workers out",
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
    """Every RunConfig field carries its help and its bound, and each flag
    has one help text, which ends in the field's default."""
    for f in dataclasses.fields(cli.RunConfig):
        assert isinstance(f.metadata["help"], str) and f.metadata["help"], f.name
        assert f.metadata["low"] is None or isinstance(f.metadata["low"], int), f.name
    helps: dict[str, set] = {}
    for _, acts in _subcommands(cli.build_parser()):
        for a in acts:
            helps.setdefault(a.dest, set()).add(a.help)
    assert all(len(h) == 1 for h in helps.values()), helps
    assert helps["r"] == {"embedding dimensionality (default 200)"}
    assert helps["ks"] == {"comma-separated K cutoffs (default 1,3,5)"}
    assert helps["out"] == {"output file (default: stdout)"}
