"""Traced `ogeec` child and the span arithmetic that turns spans into layer times.

Run as a script, it imports `ogeec`, wraps each layer-boundary function at
the module attribute where the program looks it up, calls
`ogeec.cli.main(argv)` and writes every span and counter as JSON:

    python3 perfbench/tracer.py SPANS.json <ogeec arguments...>

A span is (id, name, start, end, parent, thread id, thread CPU seconds),
with start and end on the monotonic clock that the parent benchmark process
also reads. Spans stay in memory until the command returns. A span opened in
a worker thread that has no open span of its own takes as parent the
innermost span open on the main thread, which is the call waiting for that
worker.

Imported as a module it only provides the arithmetic; nothing is wrapped.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). A span name of None records counters only.
# Self time is computed for every span, so an outer layer never counts the
# time of the inner layers it calls.
WRAP_TARGETS = (
    ("ogeec.cli", "parse_dataset", "data.parse"),
    ("ogeec.embedding", "materialize_rows", "embedding.gen"),
    ("ogeec.cli", "materialize_rows", "embedding.gen"),
    ("ogeec.ensemble", "embed", "embedding.train_project"),
    ("ogeec.cli", "embed", "embedding.train_project"),
    ("ogeec.predictor", "project_csr", "embedding.query_project"),
    # lsh-compare imports project_csr from ogeec.embedding inside the
    # function; embed() calls it too, so a call inside train_project is
    # left to the train_project span.
    ("ogeec.embedding", "project_csr", "embedding.query_project"),
    ("ogeec.predictor", "knn", "predictor.search"),
    ("ogeec.predictor", "propagate", "predictor.propagate"),
    ("ogeec.cli", "propagate", "predictor.propagate"),
    ("ogeec.cli", "format_predictions", "predictor.format"),
    ("ogeec.ensemble", "fused_scores", "ensemble.fuse"),
    ("ogeec.ensemble", "sweep_ensemble_size", "ensemble.fuse"),
    ("ogeec.ensemble", "batch_predict", None),
    ("ogeec.metrics", "evaluate", "metrics.evaluate"),
    ("ogeec.ensemble", "evaluate", "metrics.evaluate"),
    ("ogeec.cli", "build_index", "lsh.build"),
    ("ogeec.cli", "query_lsh", "lsh.query"),
    ("ogeec.lsh", "candidates", None),
    ("ogeec.jl", "measure_distortion", "jl.distortion"),
)


class TraceTargetMissing(RuntimeError):
    """A wrap target no longer exists in the program."""


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rows: set[tuple[int, int, int]] = set()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[tuple[int, str]] = []

    def _stack(self) -> list[tuple[int, str]]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self) -> str | None:
        stack = self._stack() or self._main_stack
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        outer = stack or self._main_stack
        parent = outer[-1][0] if outer else None
        with self._lock:
            sid = next(self._ids)
        stack.append((sid, name))
        cpu = time.thread_time()
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            cpu = time.thread_time() - cpu
            stack.pop()
            with self._lock:
                self.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), cpu)
                )

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count(rec: Recorder, module: str, attr: str, args, kwargs, result) -> None:
    """Counters measured at the boundary, from arguments and results."""
    if attr == "parse_dataset":
        rec.add("data.parse_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))
    elif attr == "materialize_rows":
        spec = _arg(args, kwargs, 0, "spec")
        start, stop = _arg(args, kwargs, 1, "start"), _arg(args, kwargs, 2, "stop")
        rec.add("embedding.gen_rows", stop - start)
        with rec._lock:
            rec.rows.update((spec.seed, spec.d, i) for i in range(start, stop))
    elif attr == "embed":
        rec.add("embedding.project_nnz", _arg(args, kwargs, 1, "dataset").feat_indices.size)
    elif attr == "project_csr":
        rec.add("embedding.project_nnz", _arg(args, kwargs, 1, "X").nnz)
    elif attr == "knn":
        train = _arg(args, kwargs, 1, "train")
        rec.add("predictor.search_flops", 2.0 * train.r * train.n)
        rec.add("predictor.search_bytes", float(train.data.nbytes))
    elif attr == "propagate":
        neighbors = _arg(args, kwargs, 0, "neighbors")
        labelsets = _arg(args, kwargs, 1, "labelsets")
        rec.add(
            "predictor.label_updates",
            sum(len(labelsets[i]) for i, sim in neighbors if sim > 0.0),
        )
        rec.add("predictor.empty_rows", 0 if result else 1)
    elif attr == "batch_predict":
        rec.add("ensemble.learners", 1)
    elif attr == "evaluate":
        rec.add("metrics.samples", len(_arg(args, kwargs, 0, "predictions")))
    elif attr == "query_lsh":
        rec.add("lsh.queries", 1)
    elif attr == "candidates":
        index = _arg(args, kwargs, 0, "index")
        rec.add("lsh.candidates", result.size)
        rec.add("lsh.scan_fraction_sum", result.size / max(index.train.n, 1))
        rec.add("lsh.empty", 0 if result.size else 1)


def install(rec: Recorder, targets=WRAP_TARGETS) -> None:
    """Wrap every target; raise TraceTargetMissing naming the first absent one."""
    import importlib

    for module_name, attr, name in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            raise TraceTargetMissing(f"{module_name}.{attr}") from None
        orig = getattr(module, attr, None)
        if not callable(orig):
            raise TraceTargetMissing(f"{module_name}.{attr}")
        setattr(module, attr, _wrapper(rec, module_name, attr, name, orig))


def _wrapper(rec: Recorder, module: str, attr: str, name: str | None, orig):
    skip_inside = (
        "embedding.train_project" if (module, attr) == ("ogeec.embedding", "project_csr") else None
    )

    def wrapper(*args, **kwargs):
        if name is None or (skip_inside and rec.innermost() == skip_inside):
            result = orig(*args, **kwargs)
        else:
            with rec.span(name):
                result = orig(*args, **kwargs)
        _count(rec, module, attr, args, kwargs, result)
        return result

    wrapper.__wrapped__ = orig
    return wrapper


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, tuple[float, float]]:
    """Span id -> (self wall time, self CPU time).

    Self wall time is the span's duration minus the part of it that its
    child spans cover; children in parallel threads may overlap, so the
    covered part is their union, clipped to the parent's interval. Self CPU
    time is the span's thread CPU time minus that of its children on the
    same thread; children on other threads never ran on the parent's.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, tid, cpu in spans:
        if parent is not None:
            children[parent].append((start, end, tid, cpu))
    out = {}
    for sid, _, start, end, _, tid, cpu in spans:
        kids = children.get(sid, ())
        clipped = [(max(a, start), min(b, end)) for a, b, _, _ in kids if b > start and a < end]
        same_thread_cpu = sum(c for _, _, t, c in kids if t == tid)
        out[sid] = ((end - start) - union_length(clipped), cpu - same_thread_cpu)
    return out


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: busy (summed durations), self wall and self CPU time."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"busy": 0.0, "self": 0.0, "cpu": 0.0}
    )
    own = self_times(spans)
    for sid, name, start, end, *_ in spans:
        out[name]["busy"] += end - start
        out[name]["self"] += own[sid][0]
        out[name]["cpu"] += own[sid][1]
    return dict(out)


def coverage(spans, child_start: float, child_end: float) -> tuple[float, float]:
    """(startup, residual) of one traced process.

    startup runs from the child's start to its first span; residual is the
    rest of its wall time that no span covers.
    """
    if not spans:
        return child_end - child_start, 0.0
    startup = min(s[2] for s in spans) - child_start
    covered = union_length((s[2], s[3]) for s in spans)
    return startup, (child_end - child_start) - startup - covered


def main(argv: list[str], targets=WRAP_TARGETS) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <ogeec arguments...>", file=sys.stderr)
        return 2
    out_path, program_argv = argv[0], argv[1:]
    rec = Recorder()
    try:
        install(rec, targets)
    except TraceTargetMissing as exc:
        print(f"trace: wrap target {exc} no longer exists", file=sys.stderr)
        return 3
    import ogeec.cli

    try:
        status = ogeec.cli.main(program_argv)
    finally:
        counts = dict(rec.counts)
        counts["embedding.gen_distinct_rows"] = len(rec.rows)
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump({"spans": rec.spans, "counts": counts}, f)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
