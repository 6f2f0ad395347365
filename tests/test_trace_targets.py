"""The traced benchmark (perfbench/tracer.py) wraps program functions at the
module attribute where the program looks them up, and its counters read some
arguments by position or count its calls (`lsh.queries` per `query_lsh`
call, `ensemble.learners` per `batch_predict` call). A refactor that moves,
reorders or batches one of them breaks only the traced run, so these checks
pin those contracts in the fast suite."""

import importlib
import importlib.util
import inspect
import pathlib
import re

import pytest

from ogeec import cli, ensemble

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


# an import that exists only for the tracer, as every such line must read
_TRACER_IMPORT = re.compile(
    r"from \.\w+ import (\w+)  # noqa: F401 -- kept only so a perfbench/tracer\.py"
    r" wrap target resolves, until ROADMAP item 4"
)


def _tracer_imports():
    """pytest params (module, line) of each line under src/ogeec that
    mentions the tracer beside a `noqa`, with ids `ogeec.<module>.<name>`
    of the name it imports, so an edit above it keeps the id; a line that
    `_TRACER_IMPORT` does not match keeps the id `file.py:lineno`."""
    for path in sorted((ROOT / "src" / "ogeec").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for at, line in enumerate(lines, 1):
            if "noqa" in line and "tracer" in line:
                match = _TRACER_IMPORT.fullmatch(line)
                name = f"ogeec.{path.stem}.{match.group(1)}" if match else f"{path.name}:{at}"
                yield pytest.param(f"ogeec.{path.stem}", line, id=name)


@pytest.mark.parametrize("module_name, line", list(_tracer_imports()))
def test_tracer_only_import_names_a_wrap_target(module_name, line):
    """Each import kept only for the tracer wraps a WRAP_TARGETS entry at the
    importing module, so none outlives its target."""
    match = _TRACER_IMPORT.fullmatch(line)
    assert match, line
    assert (module_name, match.group(1)) in {target[:2] for target in WRAP_TARGETS}


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


def _counting(monkeypatch, module, attr):
    """Replace module.attr by a wrapper that counts its calls."""
    calls = []
    orig = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace")
    train, test, model = root / "train.txt", root / "test.txt", root / "model.txt"
    gen = ["gen", "--n", "150", "--d", "300", "--labels", "12", "--sparsity", "6"]
    gen += ["--labels-per-sample", "2", "--clusters", "3", "--seed", "4", "--test-n", "40"]
    assert cli.main([*gen, "--out", str(train), "--test-out", str(test)]) == 0
    train_args = ["train", "--train", str(train), "--model", str(model), "--r", "8"]
    assert cli.main([*train_args, "--learners", "4"]) == 0
    return train, test, model


def test_lsh_compare_calls_query_lsh_once_per_query(corpus, monkeypatch, capsys):
    """lsh.queries counts `query_lsh` calls, so a batched call would undercount."""
    train, test, _ = corpus
    calls = _counting(monkeypatch, cli, "query_lsh")
    args = ["analyze", "lsh-compare", "--train", str(train), "--test", str(test), "--r", "8"]
    assert cli.main(args) == 0
    assert len(calls) == 40


def test_eval_calls_batch_predict_once_per_learner(corpus, monkeypatch, capsys):
    """ensemble.learners counts `batch_predict` calls."""
    train, test, model = corpus
    calls = _counting(monkeypatch, ensemble, "batch_predict")
    args = ["eval", "--model", str(model), "--train", str(train), "--test", str(test)]
    assert cli.main([*args, "--learners", "3"]) == 0
    assert len(calls) == 3
