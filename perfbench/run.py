#!/usr/bin/env python3
"""End-to-end benchmark of the ogeec CLI.

    python3 perfbench/run.py --workload mid --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run from anywhere inside a checkout; the program is imported from the
checkout's own `src/`. Each run:

1. generates the workload's corpus from --seed with the benchmark's own
   generator (cached under .perfbench/ and verified by sha256), outside any
   timed region;
2. times `ogeec train` several times (setup_s, the median);
3. runs the workload's measured commands back to back, one child process at
   a time (a closed loop with one client), until --seconds have passed;
4. checks every output: the same digest in every repetition, the digest
   recorded in digests.json when the seed has one, and well-formed contents;
5. prints every metric with its unit, median, quartiles and run count, then
   one JSON line with keys correct, attempted, failed and metrics.

With --trace 1 the run instead measures each command once untraced and once
under perfbench/tracer.py, and reports per-layer metrics. Every child gets
--workers 2 and two BLAS threads; its wall time, CPU time and peak RSS come
from os.wait4 on that child alone. Details of each run, including the
machine, library versions and input digests, go to
.perfbench/results/<workload>-seed<seed>-trace<t>.json.

--record writes the run's input and output digests into digests.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

import corpus
import tracer
from workloads import WORKERS, WORKLOADS, Command, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

SETUP_REPS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
P1_FLOOR = 0.2  # precision@1: every corpus scores above 0.35, chance is below 0.01
BASELINE_WORKLOADS = ("mid",)


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    name: str
    status: int
    start: float
    end: float
    cpu: float
    rss_mb: float
    steal: float  # share of the host's CPU time stolen while the child ran
    log: str
    digests: dict[str, str] = field(default_factory=dict)
    failed: bool = False

    @property
    def wall(self) -> float:
        return self.end - self.start


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat; (0, 0) elsewhere."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_child(name: str, argv: list[str], env: dict, log: Path, deadline: float) -> Child:
    """Run one child to completion; its rusage is its own, from wait4."""
    timeout = max(deadline - time.monotonic(), 1.0)
    steal0, total0 = _cpu_ticks()
    with open(log, "wb") as log_file:
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=log_file, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        end = time.monotonic()
    steal1, total1 = _cpu_ticks()
    return Child(
        name=name,
        status=proc.returncode,
        start=start,
        end=end,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        steal=(steal1 - steal0) / max(total1 - total0, 1),
        log=str(log),
    )


# ---------------------------------------------------------------------------
# inputs and outputs


@dataclass
class Paths:
    dir: Path
    train: Path
    test: Path
    model: Path
    out: Path

    def fill(self, template: str) -> str:
        return template.format(
            train=self.train, test=self.test, model=self.model, out=self.out
        )


def prepare_inputs(wl: Workload, seed: int) -> tuple[Paths, dict[str, str]]:
    """Generate the corpus once per (workload, seed); verify it on every run."""
    d = WORK / f"{wl.name}-seed{seed}"
    paths = Paths(d, d / "train.txt", d / "test.txt", d / "model.txt", d / "out")
    paths.out.mkdir(parents=True, exist_ok=True)
    manifest = d / "inputs.json"
    want = {"shape": asdict(wl.shape), "seed": seed}
    if manifest.is_file():
        recorded = json.loads(manifest.read_text())
        if {k: recorded.get(k) for k in want} == want:
            shas = {p.name: corpus.sha256_file(p) for p in (paths.train, paths.test) if p.is_file()}
            if shas == recorded.get("sha256"):
                return paths, shas
    train, test = corpus.generate(wl.shape, wl.name, seed)
    paths.train.write_text(train, encoding="utf-8")
    paths.test.write_text(test, encoding="utf-8")
    shas = {p.name: corpus.sha256_file(p) for p in (paths.train, paths.test)}
    manifest.write_text(json.dumps({**want, "sha256": shas}, indent=1))
    return paths, shas


def output_digests(cmd: Command, paths: Paths) -> dict[str, str]:
    out = {}
    for template in cmd.outputs:
        path = Path(paths.fill(template))
        out[path.name] = corpus.sha256_file(path) if path.is_file() else "missing"
    return out


def _metric_rows(path: Path, expect_rows: int) -> tuple[list[dict[str, str]], list[str]]:
    """Rows of a TSV with a header line, and the problems found in them."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    problems = []
    if len(rows) != expect_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {expect_rows}")
    for row in rows:
        for name, value in row.items():
            if "@" in name and not 0.0 <= float(value) <= 1.0:
                problems.append(f"{path.name}: {name}={value} outside [0, 1]")
    return rows, problems


def _precision_at_1(pred_path: Path, test_path: Path) -> float:
    with open(test_path, encoding="utf-8") as f:
        next(f)
        truths = [set(line.split(" ", 1)[0].split(",")) for line in f]
    lines = pred_path.read_text(encoding="utf-8").split("\n")[:-1]
    hits = sum(1 for line, t in zip(lines, truths) if line and line.split(":", 1)[0] in t)
    return hits / max(len(truths), 1)


def _check_predictions(path: Path, wl: Workload) -> list[str]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        return [f"{path.name}: no final newline"]
    lines.pop()
    if len(lines) != wl.shape.n_test:
        return [f"{path.name}: {len(lines)} rows, expected {wl.shape.n_test}"]
    for i, line in enumerate(lines):
        if not line:
            continue
        pairs = [p.split(":") for p in line.split("\t")]
        labels = [int(p[0]) for p in pairs]
        scores = [float(p[1]) for p in pairs]
        if (
            len(pairs) > 5
            or any(not 0 <= w < wl.shape.L for w in labels)
            or any(not s > 0.0 for s in scores)
            or any(a < b for a, b in zip(scores, scores[1:]))
        ):
            return [f"{path.name}: malformed row {i + 1}: {line[:80]!r}"]
    return []


def check_output(name: str, paths: Paths, wl: Workload) -> list[str]:
    """Problems with one output's contents; an empty list means well formed."""
    path = paths.out / name if name != "model.txt" else paths.model
    if not path.is_file():
        return [f"{name}: missing"]
    try:
        if name == "model.txt":
            fields = dict(
                line.split(" ", 1) for line in path.read_text(encoding="utf-8").splitlines()
            )
            problems = [] if int(fields["d"]) == wl.shape.d else [f"{name}: d={fields['d']}"]
        elif name.endswith("predictions.tsv"):
            problems = _check_predictions(path, wl)
            if not problems and name == "predictions.tsv":
                p1 = _precision_at_1(path, paths.test)
                if p1 < P1_FLOOR:
                    problems.append(f"{name}: precision@1 {p1:.3f} < {P1_FLOOR}")
        elif name == "eval.txt":
            grid = path.read_text(encoding="utf-8").splitlines()
            values = {row.split()[0]: [float(v) for v in row.split()[1:]] for row in grid[1:5]}
            problems = [
                f"{name}: {m} outside [0, 1]"
                for m, vs in values.items()
                if any(not 0.0 <= v <= 1.0 for v in vs)
            ]
            if values["P"][0] < P1_FLOOR:
                problems.append(f"{name}: P@1 {values['P'][0]} < {P1_FLOOR}")
        elif name == "distortion.tsv":
            lines = path.read_text(encoding="utf-8").splitlines()
            pairs = int(lines[0].split()[2])
            counts = [int(line.split("\t")[2]) for line in lines[5:]]
            problems = [] if sum(counts) == pairs else [f"{name}: histogram != pairs"]
        else:
            expect = {"eval.tsv": 1, "sweep_r.tsv": 8, "sweep_ensemble.tsv": 22,
                      "lsh_compare.tsv": 2}[name]
            rows, problems = _metric_rows(path, expect)
            if name == "eval.tsv" and float(rows[0]["P@1"]) < P1_FLOOR:
                problems.append(f"{name}: P@1 {rows[0]['P@1']} < {P1_FLOOR}")
    except (ValueError, KeyError, IndexError) as exc:
        problems = [f"{name}: unreadable ({exc!r})"]
    return problems


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Measurement:
    setups: list[Child] = field(default_factory=list)
    reps: list[list[Child]] = field(default_factory=list)

    def children(self) -> list[Child]:
        return self.setups + [c for rep in self.reps for c in rep]


def argv_for(cmd: Command, paths: Paths, workers: int) -> list[str]:
    args = [paths.fill(a) for a in cmd.argv]
    if "--workers" in args:
        args[args.index("--workers") + 1] = str(workers)
    return args


def run_command(
    cmd: Command, paths: Paths, tag: str, deadline: float, *, threads: int = WORKERS,
    prefix: list[str] | None = None,
) -> Child:
    argv = (prefix or [sys.executable, "-m", "ogeec.cli"]) + argv_for(cmd, paths, threads)
    child = run_child(cmd.name, argv, child_env(threads), paths.dir / f"{tag}.log", deadline)
    child.digests = output_digests(cmd, paths)
    return child


def measure(wl: Workload, paths: Paths, setups: int, seconds: float, deadline: float) -> Measurement:
    m = Measurement()
    for i in range(setups):
        m.setups.append(run_command(wl.setup, paths, f"setup{i}", deadline))
    began = time.monotonic()
    while not m.reps or time.monotonic() - began < seconds:
        rep = [
            run_command(cmd, paths, f"rep{len(m.reps)}-{cmd.name}", deadline)
            for cmd in wl.measured
        ]
        m.reps.append(rep)
        if any(c.status != 0 for c in rep):
            break
    return m


def gate(children: list[Child], wl: Workload, paths: Paths, recorded: dict | None) -> list[str]:
    """Mark failed children and return every problem found.

    A child fails if it exits non-zero, if an output differs from the first
    run of the same command, from the recorded digest, or is malformed.
    """
    problems: list[str] = []
    reference: dict[str, str] = {}
    checked: dict[str, list[str]] = {}
    for child in children:
        if child.status != 0:
            child.failed = True
            tail = Path(child.log).read_text(errors="replace").strip().splitlines()[-1:]
            problems.append(f"{child.name}: exit status {child.status} {tail}")
            continue
        for name, sha in child.digests.items():
            ref = reference.setdefault(name, sha)
            if sha != ref:
                problems.append(f"{name}: digest changed between runs")
                child.failed = True
            if recorded is not None and recorded.get(name) != sha:
                problems.append(f"{name}: digest {sha[:12]} != recorded {str(recorded.get(name))[:12]}")
                child.failed = True
            if sha not in checked:
                checked[sha] = check_output(name, paths, wl)
                problems.extend(checked[sha])
            if checked[sha]:
                child.failed = True
    return problems


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(wl: Workload, m: Measurement) -> dict[str, dict]:
    walls = [sum(c.wall for c in rep) for rep in m.reps]
    return {
        "run_s": quartiles(walls),
        "queries_per_s": quartiles([wl.queries() / w for w in walls]),
        "cpu_s": quartiles([sum(c.cpu for c in rep) for rep in m.reps]),
        "peak_rss_mb": quartiles([max(c.rss_mb for c in rep) for rep in m.reps]),
        "setup_s": quartiles([c.wall for c in m.setups]),
    }


# ---------------------------------------------------------------------------
# traced run


def traced(wl: Workload, paths: Paths, deadline: float) -> tuple[list[Child], dict]:
    """Run the set-up and measured commands once each under the tracer."""
    prefix = [sys.executable, str(HERE / "tracer.py")]
    children, layers, counts = [], {}, {}
    search_calls: list[float] = []
    startup = residual = covered_wall = 0.0
    for cmd in (wl.setup, *wl.measured):
        spans_path = paths.dir / f"spans-{cmd.name}.json"
        spans_path.unlink(missing_ok=True)
        child = run_command(
            cmd, paths, f"traced-{cmd.name}", deadline, prefix=prefix + [str(spans_path)]
        )
        children.append(child)
        if child.status != 0 or not spans_path.is_file():
            continue
        data = json.loads(spans_path.read_text())
        spans = [tuple(s) for s in data["spans"]]
        for name, times in tracer.layer_times(spans).items():
            total = layers.setdefault(name, dict.fromkeys(times, 0.0))
            for key, value in times.items():
                total[key] += value
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
        search_calls += [s[3] - s[2] for s in spans if s[1] == "predictor.search"]
        up, rest = tracer.coverage(spans, child.start, child.end)
        startup += up
        residual += rest
        covered_wall += child.wall
    return children, {
        "layers": layers, "counts": counts, "search_calls": search_calls,
        "startup": startup, "residual": residual, "wall": covered_wall,
    }


def per_layer(t: dict, traced_run_s: float, untraced: list[Child], w1: Child | None) -> dict:
    layers, c = t["layers"], t["counts"]

    def s(name, kind="self"):
        return layers.get(name, {}).get(kind, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    calls = sorted(t["search_calls"])

    def pct(q):
        return calls[min(len(calls) - 1, int(q * len(calls)))] * 1e6 if calls else 0.0

    parse_mb = c.get("data.parse_bytes", 0.0) / 1e6
    lsh_queries = c.get("lsh.queries", 0.0)
    measured = [ch for ch in untraced if ch.name != "train"]
    return {
        "data.parse_s": s("data.parse"),
        "data.parse_mb": parse_mb,
        "data.parse_mb_per_s": ratio(parse_mb, s("data.parse")),
        "embedding.gen_s": s("embedding.gen"),
        "embedding.gen_rows": c.get("embedding.gen_rows", 0.0),
        "embedding.gen_useful_ratio": ratio(
            c.get("embedding.gen_distinct_rows", 0.0), c.get("embedding.gen_rows", 0.0)
        ),
        "embedding.train_project_s": s("embedding.train_project"),
        "embedding.query_project_s": s("embedding.query_project"),
        "embedding.project_nnz": c.get("embedding.project_nnz", 0.0),
        "predictor.search_s": s("predictor.search"),
        "predictor.search_cpu_s": s("predictor.search", "cpu"),
        "predictor.search_calls": float(len(calls)),
        "predictor.search_call_p50_us": pct(0.50),
        "predictor.search_call_p99_us": pct(0.99),
        "predictor.search_flops": c.get("predictor.search_flops", 0.0),
        "predictor.search_bytes": c.get("predictor.search_bytes", 0.0),
        "predictor.search_gflops": ratio(c.get("predictor.search_flops", 0.0) / 1e9, s("predictor.search")),
        "predictor.propagate_s": s("predictor.propagate"),
        "predictor.propagate_cpu_s": s("predictor.propagate", "cpu"),
        "predictor.label_updates": c.get("predictor.label_updates", 0.0),
        "predictor.empty_rows": c.get("predictor.empty_rows", 0.0),
        "predictor.format_s": s("predictor.format"),
        "ensemble.fuse_s": s("ensemble.fuse"),
        "ensemble.fuse_cpu_s": s("ensemble.fuse", "cpu"),
        "ensemble.learners": c.get("ensemble.learners", 0.0),
        "metrics.evaluate_s": s("metrics.evaluate"),
        "metrics.evaluate_cpu_s": s("metrics.evaluate", "cpu"),
        "metrics.samples": c.get("metrics.samples", 0.0),
        "lsh.build_s": s("lsh.build"),
        "lsh.query_s": s("lsh.query"),
        "lsh.candidates_mean": ratio(c.get("lsh.candidates", 0.0), lsh_queries),
        "lsh.scan_fraction": ratio(c.get("lsh.scan_fraction_sum", 0.0), lsh_queries),
        "lsh.empty_share": ratio(c.get("lsh.empty", 0.0), lsh_queries),
        "jl.distortion_s": s("jl.distortion"),
        "proc.startup_s": t["startup"],
        "cli.residual_s": t["residual"],
        "trace.coverage": ratio(t["wall"] - t["residual"], t["wall"]),
        "trace.overhead_s": traced_run_s - sum(ch.wall for ch in measured),
        "baseline.w2_run_s": sum(ch.wall for ch in measured),
        "baseline.w2_peak_rss_mb": max(ch.rss_mb for ch in measured),
        "baseline.w1_run_s": w1.wall if w1 else 0.0,
        "baseline.w1_peak_rss_mb": w1.rss_mb if w1 else 0.0,
    }


# ---------------------------------------------------------------------------
# reporting


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": WORKERS},
        "workers": WORKERS,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    paths, input_shas = prepare_inputs(wl, seed)
    all_recorded = load_digests().get(wl.name, {}).get(str(seed))
    problems = []
    if all_recorded and not record and all_recorded["inputs"] != input_shas:
        problems.append(f"inputs {input_shas} != recorded {all_recorded['inputs']}")
    recorded = None if record or not all_recorded else all_recorded["outputs"]

    if not trace:
        m = measure(wl, paths, SETUP_REPS, seconds, deadline)
        children = m.children()
        problems += gate(children, wl, paths, recorded)
        stats = end_to_end(wl, m) if all(c.status == 0 for c in children) else {}
        extra = {}
    else:
        m = measure(wl, paths, 1, 0.0, deadline)
        untraced = m.children()
        traced_children, t = traced(wl, paths, deadline)
        w1 = None
        if wl.name in BASELINE_WORKLOADS:
            # --workers 1 with one BLAS thread: the single-threaded baseline,
            # which must also reproduce the 2-worker digests
            w1 = run_command(wl.measured[0], paths, "baseline-w1", deadline, threads=1)
            traced_children.append(w1)
        children = untraced + traced_children
        problems += gate(children, wl, paths, recorded)
        traced_run_s = sum(c.wall for c in traced_children if c.name != "train" and c is not w1)
        values = per_layer(t, traced_run_s, untraced, w1) if not problems else {}
        if values:
            values["failed_share"] = sum(c.failed for c in children) / len(children)
        stats = {k: quartiles([v]) for k, v in values.items()}
        extra = {"layers_s": t["layers"], "counts": t["counts"]}
        if values and values["trace.coverage"] < 0.9:
            print(f"warning: layer spans cover {values['trace.coverage']:.1%} of traced wall time",
                  file=sys.stderr)

    if record and not problems:
        digests = load_digests()
        outputs = {}
        for child in children:
            outputs.update(child.digests)
        digests.setdefault(wl.name, {})[str(seed)] = {"inputs": input_shas, "outputs": outputs}
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    result = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "shape": asdict(wl.shape),
        "queries_per_run": wl.queries(),
        "inputs_sha256": input_shas,
        "outputs_sha256": {k: v for c in children for k, v in c.digests.items()},
        "digests_recorded_for_seed": all_recorded is not None,
        "machine": machine(),
        "children": [
            {"name": c.name, "status": c.status, "wall_s": c.wall, "cpu_s": c.cpu,
             "peak_rss_mb": c.rss_mb, "host_steal": c.steal, "failed": c.failed}
            for c in children
        ],
        "metrics": stats,
        "problems": problems,
        "attempted": len(children),
        "failed": sum(c.failed for c in children) or (1 if problems else 0),
        **extra,
    }
    units = {m["name"]: m for m in load_spec()["per_layer" if trace else "end_to_end"]}
    for name, s in stats.items():
        s.update(unit=units[name]["unit"], better=units[name]["better"])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1)
    )
    return result


def print_summary(result: dict, spec_metrics: list[dict]) -> None:
    steal = max(c["host_steal"] for c in result["children"])
    print(
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['attempted']} children, {result['failed']} failed, "
        f"host CPU steal up to {steal:.0%} while a child ran"
    )
    for p in result["problems"]:
        print(f"  problem: {p}")
    for m in spec_metrics:
        s = result["metrics"].get(m["name"])
        if s is None:
            continue
        print(
            f"  {m['name']:<30} {s['median']:>14.6g} {m['unit']:<14} ({m['better']} is better; "
            f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="write digests.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ogeec" / "cli.py").is_file():
        print(f"perfbench: no ogeec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [
        run_workload(WORKLOADS[n], args.seed, seconds, bool(args.trace), args.record)
        for n in names
    ]
    for result in results:
        print_summary(result, spec_metrics)
    correct = all(not r["problems"] for r in results)
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for name, s in r["metrics"].items():
            metrics[prefix + name] = {"value": s["median"], "unit": s["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
