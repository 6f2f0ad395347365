"""The traced benchmark (perfbench/tracer.py) wraps program functions at the
module attribute where the program looks them up, and its counters read some
arguments by position. A refactor that moves or reorders one of them breaks
only the traced run, so these checks pin both contracts in the fast suite."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # importing wraps nothing
    return module


WRAP_TARGETS = _load_tracer().WRAP_TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [t[:2] for t in WRAP_TARGETS], ids=[f"{m}.{a}" for m, a, _ in WRAP_TARGETS]
)
def test_wrap_target_is_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize(
    "module_name, attr, leading",
    [
        ("ogeec.predictor", "propagate", ["neighbors", "labelsets"]),
        ("ogeec.predictor", "knn", ["query", "train"]),
        ("ogeec.embedding", "embed", ["spec", "dataset"]),
        ("ogeec.embedding", "project_csr", ["spec", "X"]),
        ("ogeec.embedding", "materialize_rows", ["spec", "start", "stop"]),
        ("ogeec.metrics", "evaluate", ["predictions"]),
    ],
)
def test_counted_arguments_keep_their_positions(module_name, attr, leading):
    params = inspect.signature(getattr(importlib.import_module(module_name), attr)).parameters
    assert list(params)[: len(leading)] == leading
