"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q

Every workload runs at toy scale, the digest gate trips on a corrupted
output, and the self-time arithmetic is checked on a hand-built span tree.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOY_SEED = 990001  # never recorded in digests.json


def toy(name: str):
    wl = WORKLOADS[name]
    shape = dataclasses.replace(wl.shape, n_train=120, n_test=40, clusters=4)
    return dataclasses.replace(wl, shape=shape)


def test_self_times_on_hand_built_tree():
    main, worker = 1, 2
    # (id, name, start, end, parent, thread, cpu)
    spans = [
        (0, "root", 0.0, 10.0, None, main, 8.0),
        (1, "a", 1.0, 4.0, 0, main, 2.5),
        (2, "b", 3.0, 6.0, 0, worker, 3.0),  # overlaps a, on another thread
        (3, "c", 1.5, 2.5, 1, main, 1.0),
    ]
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx((10.0 - 5.0, 8.0 - 2.5))  # union of [1,4] and [3,6]
    assert own[1] == pytest.approx((3.0 - 1.0, 2.5 - 1.0))
    assert own[2] == pytest.approx((3.0, 3.0))
    assert own[3] == pytest.approx((1.0, 1.0))
    layers = tracer.layer_times(spans)
    assert layers["root"] == pytest.approx({"busy": 10.0, "self": 5.0, "cpu": 5.5})
    startup, residual = tracer.coverage(spans, -1.0, 12.0)
    assert startup == pytest.approx(1.0)
    assert residual == pytest.approx(13.0 - 1.0 - 10.0)


def test_union_length_merges_overlaps():
    assert tracer.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)
    assert tracer.union_length([]) == 0.0


def test_missing_wrap_target_fails_with_one_line(tmp_path, capsys):
    missing = (("ogeec.predictor", "no_such_function", "predictor.search"),)
    with pytest.raises(tracer.TraceTargetMissing, match="ogeec.predictor.no_such_function"):
        tracer.install(tracer.Recorder(), missing)
    assert tracer.main([str(tmp_path / "spans.json"), "predict"], missing) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["trace: wrap target ogeec.predictor.no_such_function no longer exists"]


def test_generator_is_deterministic_per_seed():
    shape = toy("desk").shape
    assert run.corpus.generate(shape, "desk", 3) == run.corpus.generate(shape, "desk", 3)
    assert run.corpus.generate(shape, "desk", 3) != run.corpus.generate(shape, "desk", 4)
    assert run.corpus.generate(shape, "desk", 3) != run.corpus.generate(shape, "mid", 3)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_at_toy_scale(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    result = run.run_workload(toy(name), TOY_SEED, 0.0, trace=False, record=False)
    assert result["problems"] == []
    assert set(result["metrics"]) == {m["name"] for m in run.load_spec()["end_to_end"]}
    assert all(s["median"] > 0 for s in result["metrics"].values())


@pytest.mark.parametrize("name", ["mid", "desk"])
def test_traced_run_reports_every_layer_metric(name):
    result = run.run_workload(toy(name), TOY_SEED, 0.0, trace=True, record=False)
    assert result["problems"] == []
    assert set(result["metrics"]) == {m["name"] for m in run.load_spec()["per_layer"]}
    values = {k: v["median"] for k, v in result["metrics"].items()}
    assert values["trace.coverage"] > 0.5
    if name == "desk":
        assert values["lsh.build_s"] > 0 and values["jl.distortion_s"] > 0
    else:
        assert values["lsh.build_s"] == 0 and values["baseline.w1_run_s"] > 0


def test_digest_gate_trips_on_corrupted_output():
    wl = toy("mid")
    paths, _ = run.prepare_inputs(wl, TOY_SEED)
    deadline = time.monotonic() + 120
    first = run.run_command(wl.setup, paths, "gate-train", deadline)
    good = run.run_command(wl.measured[0], paths, "gate-predict", deadline)
    assert run.gate([first, good], wl, paths, None) == []

    pred = paths.out / "predictions.tsv"
    pred.write_text(pred.read_text().replace(":", ";", 1))
    bad = dataclasses.replace(good, digests=run.output_digests(wl.measured[0], paths))
    problems = run.gate([good, bad], wl, paths, None)
    assert bad.failed and any("digest changed" in p for p in problems)
    assert any(p.startswith("predictions.tsv: unreadable") for p in problems)

    fresh = dataclasses.replace(good, failed=False)
    problems = run.gate([fresh], wl, paths, {"predictions.tsv": "0" * 64})
    assert fresh.failed and any("recorded" in p for p in problems)
