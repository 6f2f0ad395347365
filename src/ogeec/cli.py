"""Command-line front-end: dataset tools, training, prediction, evaluation,
and analysis sweeps.

All indices in dataset files are 0-based. Data goes to stdout (or --out);
diagnostics and timings go to stderr. Every command is deterministic for a
fixed configuration, including the worker count. Option precedence is
command-line flags over --config (JSON) over built-in defaults.

The knob table `_KNOBS` is the one place to add a knob: its entry gives the
help and the smallest valid value, its `RunConfig` field the type and the
default, and each `_COMMANDS` entry that names it takes it as a flag.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import ensemble as ens
from . import jl, lsh, metrics
from .data import (
    DatasetFormatError,
    SparseDataset,
    generate_synthetic,
    parse_dataset,
    split_dataset,
    write_dataset,
)
from .embedding import (
    EmbeddedMatrix,
    EmbeddingSpec,
    _row_block,
    embed,
    embed_train_test,
    load_cache,
    materialize_rows,
    save_cache,
    split_rows,
    train_test_rows,
)
from .predictor import batch_predict, format_predictions, score_matrix, top_k
from .predictor import propagate  # noqa: F401 -- perfbench/tracer.py wraps it here
from .lsh import build_index, query_lsh


class UsageError(ValueError):
    """Bad or missing configuration; exits with status 2."""


@dataclass
class RunConfig:
    """Every knob, resolved from flags > config file > defaults."""

    r: int = 200
    k: int = 5
    learners: int = 5
    seed: int = 0
    prop_a: float = 0.55
    prop_b: float = 1.5
    ks: tuple[int, ...] = (1, 3, 5)
    workers: int = 0  # 0 means all available cores
    topk: int = 5
    tables: int = lsh.DEFAULT_TABLES
    bits: int = lsh.DEFAULT_BITS
    pairs: int = 10000
    pair_seed: int = 0
    bins: int = 40
    grid: bool = False
    # gen
    n: int = 1000
    d: int = 5000
    labels: int = 50
    sparsity: float = 20.0
    labels_per_sample: float = 3.0
    clusters: int = 10
    test_n: int = 0
    # sweeps
    rs: tuple[int, ...] = (50, 100, 150, 200, 250, 300, 350, 400)
    ns: tuple[int, ...] = ()
    sizes: tuple[int, ...] = (1, 2, 3, 4, 5)
    # paths
    train: str | None = None
    test: str | None = None
    model: str | None = None
    out: str | None = None
    test_out: str | None = None
    cache: str | None = None
    predictions_out: str | None = None

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


# The one table of knob facts besides RunConfig, which gives each knob's type
# and default: field -> (help, smallest valid value or None). Every element of
# a tuple knob is held to its bound.
_KNOBS = {
    "r": ("embedding dimensionality", 1),
    "k": ("nearest neighbours", 1),
    "learners": ("ensemble size E", 1),
    "seed": ("base seed", None),
    "prop_a": ("propensity A; 0.6 for Amazon-family", None),
    "prop_b": ("propensity B; 2.6 for Amazon-family", None),
    "ks": ("comma-separated K cutoffs", 1),
    "workers": (
        "projection threads, 0 for all cores; they split F's rows, so each row "
        "is generated once per projection. Search is one GEMM per learner, "
        "threaded by BLAS",
        0,
    ),
    "topk": ("labels per row in the prediction TSV", 1),
    "tables": ("LSH tables T", 1),
    "bits": ("bits per code H", 1),
    "pairs": ("sampled pairs", 1),
    "pair_seed": ("pair sampling seed", None),
    "bins": ("histogram bins", 1),
    "grid": ("print the metric grid instead of TSV", None),
    "n": ("sample count", 1),
    "d": ("feature dimensionality", 1),
    "labels": ("label vocabulary size", 1),
    "sparsity": ("mean nonzeros per sample, at most --d", None),
    "labels_per_sample": ("mean labels per sample, at most --labels", None),
    "clusters": ("latent cluster count", 1),
    "test_n": ("held-out samples to split off", 0),
    "rs": ("comma-separated output dimensionalities r", 1),
    "ns": ("comma-separated sample counts", 2),
    "sizes": ("comma-separated ensemble sizes", 1),
    "train": ("training dataset file", None),
    "test": ("test dataset file", None),
    "model": ("model metadata file", None),
    "out": ("output file (default: stdout)", None),
    "test_out": ("path for the held-out split", None),
    "cache": ("embedded-matrix cache prefix (written by train, read back)", None),
    "predictions_out": ("also write the LSH predictions as a TSV (predict format)", None),
}

_FIELDS = {f.name: f for f in fields(RunConfig)}

# RunConfig annotation -> (argparse keywords, config-file value types, what a
# value must be); _int_tuple parses tuple knobs from either source
_TYPES = {
    "int": ({"type": int}, int, "an integer"),
    "float": ({"type": float}, (int, float), "a number"),
    "bool": ({"action": "store_true"}, bool, "true or false"),
    "str | None": ({}, (str, type(None)), "a string"),
    "tuple[int, ...]": ({}, object, "comma-separated integers"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _help(name: str) -> str:
    """The knob's help, ending in its RunConfig default when it has one."""
    text, default = _KNOBS[name][0], _FIELDS[name].default
    if default is None or isinstance(default, bool) or default == ():
        return text
    shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
    return f"{text} (default {shown})"


def _is_a(value, kinds) -> bool:
    """isinstance, where a bool is only a bool and a list (a tuple knob's
    value) holds only integers."""
    if isinstance(value, list):
        return kinds is object and all(_is_a(v, int) for v in value)
    return isinstance(value, kinds) and isinstance(value, bool) == (kinds is bool)


def _int_tuple(name: str, value) -> tuple[int, ...]:
    tokens = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        return tuple(int(tok) for tok in tokens if str(tok).strip())
    except ValueError:
        raise UsageError(
            f"{_flag(name)} must be comma-separated integers, got {value!r}"
        ) from None


def _check_knobs(cfg: RunConfig) -> None:
    for name, (_, low) in _KNOBS.items():
        if low is None:
            continue
        value = getattr(cfg, name)
        values = value if isinstance(value, tuple) else (value,)
        # a tuple knob may be empty only where its default is (ns: only
        # `analyze bounds` needs it, and says so itself)
        if not values and _FIELDS[name].default:
            raise UsageError(f"{_flag(name)} needs at least one value")
        for v in values:
            if v < low:
                raise UsageError(f"{_flag(name)} must be an integer >= {low}, got {v!r}")
    if cfg.bits > lsh.MAX_BITS:
        raise UsageError(f"--bits must be at most {lsh.MAX_BITS}, got {cfg.bits}")
    if not 0 < cfg.prop_a < 1:
        raise UsageError(f"--prop-a must lie in (0, 1), got {cfg.prop_a!r}")
    if not 0 <= cfg.prop_b < float("inf"):
        raise UsageError(f"--prop-b must be a finite number >= 0, got {cfg.prop_b!r}")


def resolve_config(args: argparse.Namespace) -> tuple[RunConfig, set[str]]:
    """Merge layers, check every knob, and report which keys were set explicitly."""
    file_cfg: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as f:
            try:
                file_cfg = json.load(f)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise UsageError(f"{config_path}: config file is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise UsageError(f"{config_path}: config file must hold a JSON object")
    cli_cfg = {k: v for k, v in vars(args).items() if k in _FIELDS}
    for key, value in file_cfg.items():
        if key not in _FIELDS:
            raise UsageError(f"unknown config key {key!r}")
        _, kinds, what = _TYPES[_FIELDS[key].type]
        if not _is_a(value, kinds):
            raise UsageError(f"{_flag(key)} must be {what}, got {value!r}")
    merged = {**file_cfg, **cli_cfg}
    for key, value in merged.items():
        if _FIELDS[key].type == "tuple[int, ...]":
            merged[key] = _int_tuple(key, value)
    cfg = RunConfig(**merged)
    _check_knobs(cfg)
    return cfg, set(merged)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"{_flag(name)} is required (flag or config file)")


@contextlib.contextmanager
def _output(path: str | None):
    """The file at `path`, or stdout when no path is given; a file is closed
    on exit."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as f:
        yield f


def _load_model(cfg: RunConfig, explicit: set[str]) -> ens.EnsembleSpec:
    spec = ens.read_metadata(cfg.model)
    if "k" in explicit and cfg.k != spec.k:
        spec = ens.EnsembleSpec(seeds=spec.seeds, d=spec.d, r=spec.r, k=cfg.k)
    return spec


def _cache_provider(cfg: RunConfig, dataset: SparseDataset):
    if cfg.cache is None:
        return None

    def provider(lspec: EmbeddingSpec) -> EmbeddedMatrix | None:
        path = f"{cfg.cache}-{lspec.seed}.ogec"
        if not os.path.exists(path):
            return None  # embedded together with the queries
        print(f"loading cached matrix {path}", file=sys.stderr)
        matrix = load_cache(path, lspec)
        if matrix.n != dataset.n:
            raise ValueError(
                f"{path}: cache holds {matrix.n} samples but the train set has "
                f"{dataset.n}; rebuild it with `ogeec train --cache`"
            )
        return matrix

    return provider


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, "out")
    if not 0 < cfg.sparsity <= cfg.d:
        raise UsageError(f"--sparsity must lie in (0, --d] = (0, {cfg.d}], got {cfg.sparsity!r}")
    if not 0 < cfg.labels_per_sample <= cfg.labels:
        raise UsageError(
            f"--labels-per-sample must lie in (0, --labels] = (0, {cfg.labels}], "
            f"got {cfg.labels_per_sample!r}"
        )
    if cfg.test_n and cfg.test_out is None:
        raise UsageError("--test-n needs --test-out (flag or config file)")
    total = cfg.n + cfg.test_n
    ds = generate_synthetic(
        n=total,
        d=cfg.d,
        L=cfg.labels,
        sparsity=cfg.sparsity,
        labels_per_sample=cfg.labels_per_sample,
        clusters=cfg.clusters,
        seed=cfg.seed,
    )
    if cfg.test_n:
        train, test = split_dataset(ds, cfg.n)
        write_dataset(train, cfg.out)
        write_dataset(test, cfg.test_out)
        print(
            f"wrote {train.n} train samples to {cfg.out}, "
            f"{test.n} test samples to {cfg.test_out}",
            file=sys.stderr,
        )
    else:
        write_dataset(ds, cfg.out)
        print(f"wrote {ds.n} samples to {cfg.out}", file=sys.stderr)
    return 0


def _time_generation(spec: EmbeddingSpec, workers: int) -> float:
    """Materialize every row of F once, discarding the blocks; the workers
    split F's rows."""
    t0 = time.perf_counter()
    block = _row_block(spec.d)

    def fill(lo: int, hi: int) -> None:
        for s in range(lo, hi, block):
            materialize_rows(spec, s, min(s + block, hi))

    split_rows(spec.r, workers, fill)
    return time.perf_counter() - t0


def cmd_train(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, "train", "model")
    ds = parse_dataset(cfg.train)
    spec = ens.make_ensemble_spec(cfg.seed, cfg.learners, ds.d, cfg.r, cfg.k)
    workers = cfg.effective_workers()
    for i in range(spec.size):
        lspec = spec.learner(i)
        shape = f"({lspec.r}x{lspec.d})"
        if cfg.cache is None:
            gen_s = _time_generation(lspec, workers)
            print(
                f"learner seed={lspec.seed}: matrix generation {gen_s:.3f}s {shape}",
                file=sys.stderr,
            )
            continue
        # the embedding pass generates F once; it is the generation time too
        t0 = time.perf_counter()
        matrix = embed(lspec, ds, workers=workers)
        embed_s = time.perf_counter() - t0
        path = f"{cfg.cache}-{lspec.seed}.ogec"
        save_cache(path, matrix, lspec)
        print(
            f"learner seed={lspec.seed}: matrix generation and embedding "
            f"{embed_s:.3f}s {shape}, cached to {path}",
            file=sys.stderr,
        )
    ens.write_metadata(cfg.model, spec)
    print(f"model metadata written to {cfg.model}", file=sys.stderr)
    return 0


# bytes per (test sample, ranked slot): top_k's index and score arrays take
# 16, and the prediction TSV's Python lists or evaluate's arrays about 40-50
# more (tracemalloc peaks)
_RANK_SLOT_BYTES = 64


def _check_rank_width(queries: int, flag: str, K: int) -> None:
    """Refuse a K whose (queries x K) ranking would not fit in this machine's
    memory; a command checks this after reading its datasets and before
    embedding them."""
    need = _RANK_SLOT_BYTES * queries * K
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ValueError(
            f"{flag} {K} is too large: ranking {queries} test samples needs "
            f"{need / 2**30:.0f} GiB, more than this machine's "
            f"{memory / 2**30:.1f} GiB of memory"
        )


def _predict_scores(cfg: RunConfig, explicit: set[str], flag: str, K: int):
    _require(cfg, "model", "train", "test")
    spec = _load_model(cfg, explicit)
    train_ds = parse_dataset(cfg.train)
    test_ds = parse_dataset(cfg.test)
    for name, ds in (("train", train_ds), ("test", test_ds)):
        if ds.d != spec.d:
            raise ValueError(
                f"{name} dataset dimensionality {ds.d} != model d {spec.d}"
            )
    _check_rank_width(test_ds.n, flag, K)
    limit = cfg.learners if "learners" in explicit else None
    workers = cfg.effective_workers()
    timings: dict[str, float] = {}
    scores = ens.fused_scores(
        spec,
        train_ds,
        test_ds,
        learners=limit,
        workers=workers,
        matrix_provider=_cache_provider(cfg, train_ds),
        timings=timings,
    )
    return spec, train_ds, test_ds, scores, timings


def _evaluator(cfg: RunConfig, train: SparseDataset, test: SparseDataset):
    """scores -> EvalReport of each row's top max(ks) labels against `test`'s."""
    model = metrics.propensity(train.label_frequencies, train.n, cfg.prop_a, cfg.prop_b)
    truths = test.labelsets()
    return lambda scores: metrics.evaluate(top_k(scores, max(cfg.ks))[0], truths, model, ks=cfg.ks)


def _print_timings(timings: dict[str, float]) -> None:
    for key in sorted(timings):
        print(f"{key} {timings[key]:.3f}", file=sys.stderr)


def cmd_predict(cfg: RunConfig, explicit: set[str]) -> int:
    _, _, _, scores, timings = _predict_scores(cfg, explicit, "--topk", cfg.topk)
    with _output(cfg.out) as stream:
        stream.write(format_predictions(*top_k(scores, cfg.topk)))
    _print_timings(timings)
    return 0


def cmd_eval(cfg: RunConfig, explicit: set[str]) -> int:
    _, train_ds, test_ds, scores, timings = _predict_scores(cfg, explicit, "--ks", max(cfg.ks))
    t0 = time.perf_counter()
    report = _evaluator(cfg, train_ds, test_ds)(scores)
    timings["metrics_s"] = time.perf_counter() - t0
    with _output(cfg.out) as stream:
        if cfg.grid:
            stream.write(report.format_grid() + "\n")
        else:
            stream.write(report.tsv_header() + "\n" + report.tsv_row() + "\n")
    _print_timings(timings)
    return 0


def cmd_analyze_bounds(cfg: RunConfig, explicit: set[str]) -> int:
    if not cfg.ns:
        raise UsageError("--ns is required for analyze bounds")
    ns, rs = cfg.ns, cfg.rs
    if len(ns) == len(rs):
        pairs = list(zip(ns, rs))
    elif len(ns) == 1:
        pairs = [(ns[0], r) for r in rs]
    elif len(rs) == 1:
        pairs = [(n, rs[0]) for n in ns]
    else:
        raise UsageError("--ns and --rs must zip (equal lengths) or broadcast")
    with _output(cfg.out) as stream:
        stream.write("n\tr\tepsilon\tlower\tupper\n")
        for n, r in pairs:
            b = jl.jl_epsilon(n, r)
            stream.write(f"{n}\t{r}\t{b.epsilon:.4f}\t{b.lower:.4f}\t{b.upper:.4f}\n")
    return 0


def cmd_analyze_distortion(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, "train")
    ds = parse_dataset(cfg.train)
    spec = EmbeddingSpec(seed=cfg.seed, d=ds.d, r=cfg.r)
    report = jl.measure_distortion(
        ds, spec, cfg.pairs, cfg.pair_seed, bins=cfg.bins
    )
    with _output(cfg.out) as stream:
        stream.write(f"# pairs {report.pairs} skipped {report.skipped}\n")
        stream.write(f"# epsilon {report.epsilon:.6f}\n")
        stream.write(f"# within_fraction {report.within_fraction:.6f}\n")
        stream.write(
            f"# ratio min {report.ratio_min:.6f} median {report.ratio_median:.6f} "
            f"max {report.ratio_max:.6f}\n"
        )
        stream.write("bin_lo\tbin_hi\tcount\n")
        for lo, hi, c in zip(
            report.hist_edges[:-1], report.hist_edges[1:], report.hist_counts
        ):
            stream.write(f"{lo:.6f}\t{hi:.6f}\t{int(c)}\n")
    return 0


def cmd_analyze_sweep_r(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, "train", "test")
    train_ds = parse_dataset(cfg.train)
    test_ds = parse_dataset(cfg.test)
    _check_rank_width(test_ds.n, "--ks", max(cfg.ks))
    evaluate = _evaluator(cfg, train_ds, test_ds)
    sweep = ens.sweep_dimension(
        cfg.seed, train_ds, test_ds, cfg.rs, cfg.k, workers=cfg.effective_workers()
    )
    with _output(cfg.out) as stream:
        for i, (r, scores) in enumerate(sweep):
            report = evaluate(scores)
            if i == 0:
                stream.write("r\t" + report.tsv_header() + "\n")
            stream.write(f"{r}\t" + report.tsv_row() + "\n")
    return 0


def cmd_analyze_sweep_ensemble(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, "train", "test")
    train_ds = parse_dataset(cfg.train)
    test_ds = parse_dataset(cfg.test)
    _check_rank_width(test_ds.n, "--ks", max(cfg.ks))
    spec = ens.make_ensemble_spec(
        cfg.seed, max(cfg.sizes), train_ds.d, cfg.r, cfg.k
    )
    model = metrics.propensity(
        train_ds.label_frequencies, train_ds.n, cfg.prop_a, cfg.prop_b
    )
    result = ens.sweep_ensemble_size(
        spec,
        train_ds,
        test_ds,
        list(cfg.sizes),
        model,
        ks=cfg.ks,
        workers=cfg.effective_workers(),
    )
    with _output(cfg.out) as stream:
        names = [f"{m}@{k}" for m in metrics.METRIC_NAMES for k in cfg.ks]
        stream.write("config\t" + "\t".join(names) + "\n")

        def row(label: str, values: list[float]) -> str:
            return label + "\t" + "\t".join(f"{v:.6f}" for v in values) + "\n"

        for seed, rep in zip(result.seeds, result.per_learner):
            stream.write(row(f"learner:{seed}", [rep[m] for m in names]))
        grid = np.array(
            [[rep[m] for m in names] for rep in result.per_learner]
        )
        stream.write(row("learner_mean", list(grid.mean(axis=0))))
        stream.write(row("learner_std", list(grid.std(axis=0, ddof=0))))
        for size in sorted(result.fused):
            rep = result.fused[size]
            stream.write(row(f"fused:{size}", [rep[m] for m in names]))
    return 0


def cmd_analyze_lsh_compare(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, "train", "test")
    train_ds = parse_dataset(cfg.train)
    test_ds = parse_dataset(cfg.test)
    _check_rank_width(test_ds.n, "--ks", max(cfg.ks))
    if cfg.predictions_out:
        _check_rank_width(test_ds.n, "--topk", cfg.topk)
    workers = cfg.effective_workers()
    lspec = EmbeddingSpec(seed=cfg.seed, d=train_ds.d, r=cfg.r)
    # one pass over F serves both searches
    train_emb, queries = embed_train_test(
        lspec, train_test_rows(train_ds, test_ds), workers=workers
    )
    labels = train_ds.label_matrix()
    exhaustive = batch_predict(train_emb, labels, queries, cfg.k)

    index = build_index(train_emb, T=cfg.tables, H=cfg.bits, seed=cfg.seed)
    # one call per query: perfbench/tracer.py counts lsh.queries per call
    rows = [query_lsh(index, queries[:, i], cfg.k) for i in range(test_ds.n)]
    lsh_index, lsh_sims = (np.stack(arrays) for arrays in zip(*rows))
    empty = int(np.count_nonzero(lsh_index[:, 0] < 0))
    lsh_scores = score_matrix(lsh_index, lsh_sims, labels)

    rep_ex, rep_lsh = map(_evaluator(cfg, train_ds, test_ds), (exhaustive, lsh_scores))
    if cfg.predictions_out:
        # same TSV shape the predict command emits, for side-by-side tooling
        with open(cfg.predictions_out, "w", encoding="utf-8") as f:
            f.write(format_predictions(*top_k(lsh_scores, cfg.topk)))
    with _output(cfg.out) as stream:
        stream.write("method\t" + rep_ex.tsv_header() + "\n")
        stream.write("exhaustive\t" + rep_ex.tsv_row() + "\n")
        stream.write("lsh\t" + rep_lsh.tsv_row() + "\n")
    print(
        f"lsh tables={cfg.tables} bits={cfg.bits}: "
        f"{empty} queries had empty candidate sets",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


# (command path, help, handler, the knobs it takes as flags); a command with
# no handler groups the commands below it
_COMMANDS = (
    (
        ("gen",), "generate a synthetic clustered dataset", cmd_gen,
        "n d labels sparsity labels_per_sample clusters test_n test_out seed out",
    ),
    (
        ("train",), "emit model metadata (and optional matrix caches)", cmd_train,
        "train model r k learners seed workers cache",
    ),
    (
        ("predict",), "batch-predict top-K labels as TSV", cmd_predict,
        "model train test out k learners workers topk cache",
    ),
    (
        ("eval",), "predict and score against test labels", cmd_eval,
        "model train test out k learners workers prop_a prop_b ks cache grid",
    ),
    (("analyze",), "bound tables, distortion, sweeps", None, ""),
    (
        ("analyze", "bounds"), "theoretical distance-error bound table",
        cmd_analyze_bounds, "ns rs out",
    ),
    (
        ("analyze", "distortion"), "empirical pairwise distance distortion",
        cmd_analyze_distortion, "pairs pair_seed bins train r seed out",
    ),
    (
        ("analyze", "sweep-r"), "single-learner metrics across r values",
        cmd_analyze_sweep_r, "rs train test k seed workers prop_a prop_b ks out",
    ),
    (
        ("analyze", "sweep-ensemble"), "fused metrics across ensemble sizes",
        cmd_analyze_sweep_ensemble,
        "sizes train test r k seed workers prop_a prop_b ks out",
    ),
    (
        ("analyze", "lsh-compare"), "exhaustive search vs the LSH baseline",
        cmd_analyze_lsh_compare,
        "tables bits predictions_out train test r k seed workers prop_a prop_b ks out topk",
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ogeec",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    groups = {(): parser.add_subparsers(dest="command")}
    for path, help_text, handler, knobs in _COMMANDS:
        p = groups[path[:-1]].add_parser(path[-1], help=help_text)
        if handler is None:
            groups[path] = p.add_subparsers(dest=f"{path[-1]}_cmd")
            p.set_defaults(help_parser=p)
        else:
            p.set_defaults(func=handler)
        # flags left unset stay out of the namespace, so config-file values
        # and RunConfig defaults show through
        for name in knobs.split():
            p.add_argument(
                _flag(name),
                default=argparse.SUPPRESS,
                help=_help(name),
                **_TYPES[_FIELDS[name].type][0],
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        # the help of the innermost command group named, e.g. `analyze`
        getattr(args, "help_parser", parser).print_help(sys.stderr)
        return 2
    try:
        cfg, explicit = resolve_config(args)
        return args.func(cfg, explicit)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
