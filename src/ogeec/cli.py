"""Command-line front-end: dataset tools, training, prediction, evaluation,
and analysis sweeps.

All indices in dataset files are 0-based. Data goes to stdout (or --out);
diagnostics and timings go to stderr. Every command is deterministic for a
fixed configuration, including the worker count. Option precedence is
command-line flags over --config (JSON) over built-in defaults. Plain
`train` (no --cache) reads the train file's header and writes the model on
the standard library alone; every other command loads numpy when it starts.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace

from . import trace
from .model import (
    DEFAULT_A, DEFAULT_B, DEFAULT_BINS, DEFAULT_BITS, DEFAULT_KS, DEFAULT_TABLES, MAX_BITS,
    DatasetFormatError, EmbeddingSpec, make_ensemble_spec, read_header, read_metadata, write_metadata,
)

# What every command but plain `train` reads: name -> (module, attribute, or
# None for the module itself). `_pipeline` binds each as a module global on
# first use, so plain `train` loads no numpy; until then a module
# `__getattr__` serves it, as to perfbench/tracer.py, whose wrapper it keeps.
_LAZY = {
    "np": ("numpy", None),
    "ens": (".ensemble", None),
    "jl": (".jl", None),
    "metrics": (".metrics", None),
    **{name: (".data", name) for name in ("SparseDataset", "generate_synthetic", "parse_dataset")},
    **{name: (".data", name) for name in ("split_dataset", "write_dataset")},
    "save_cache": (".embedding", "save_cache"),
    "build_index": (".lsh", "build_index"),
    "query_lsh": (".lsh", "query_lsh"),
    **{name: (".predictor", name) for name in ("batch_predict", "format_predictions", "rank_labels")},
    "materialize_rows": (".embedding", "materialize_rows"),  # kept only so a perfbench/tracer.py wrap target resolves, until ROADMAP item 4
    "embed": (".embedding", "embed"),  # kept only so a perfbench/tracer.py wrap target resolves, until ROADMAP item 4
    "propagate": (".predictor", "propagate"),  # kept only so a perfbench/tracer.py wrap target resolves, until ROADMAP item 4
}


def _pipeline() -> None:
    """Bind every `_LAZY` name not yet bound: a wrapper set on one stays.
    Each module is imported as an import statement imports it, so
    `python -X importtime` lists it."""
    for name, (module, attr) in _LAZY.items():
        if name not in globals():
            path = __package__ + module if module.startswith(".") else module
            __import__(path)
            globals()[name] = getattr(sys.modules[path], attr) if attr else sys.modules[path]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _pipeline()
    return globals()[name]


class UsageError(ValueError):
    """Bad or missing configuration; exits with status 2."""


# A knob is one `RunConfig` field, declared with `_knob`: its type, default,
# help and smallest valid value; each `_COMMANDS` entry that names it takes it
# as a flag.
def _knob(default, help: str, low: int | None = None):
    """A RunConfig field: its default, its help and its smallest valid value
    (None: no bound). Every element of a tuple knob is held to its bound."""
    return field(default=default, metadata={"help": help, "low": low})


@dataclass
class RunConfig:
    """Every knob, resolved from flags > config file > defaults."""

    r: int = _knob(200, "embedding dimensionality", 1)
    k: int = _knob(5, "nearest neighbours", 1)
    learners: int = _knob(5, "ensemble size E", 1)
    seed: int = _knob(0, "base seed")
    prop_a: float = _knob(DEFAULT_A, "propensity A; 0.6 for Amazon-family")
    prop_b: float = _knob(DEFAULT_B, "propensity B; 2.6 for Amazon-family")
    ks: tuple[int, ...] = _knob(DEFAULT_KS, "comma-separated K cutoffs", 1)
    workers: int = _knob(
        0,
        "projection threads, 0 for every CPU this process may run on: each runs its "
        "range of F's rows in blocks of one height (at most 32 rows and about 8 MB) "
        "that the plan sets, so each row is generated once. Search runs one float32 "
        "GEMM per tile of at most 256 queries and 2^21 // n_train, threaded by BLAS, "
        "whose idle threads sleep when it ends",
        0,
    )
    topk: int = _knob(5, "labels per row in the prediction TSV", 1)
    tables: int = _knob(DEFAULT_TABLES, "LSH tables T", 1)
    bits: int = _knob(DEFAULT_BITS, "bits per code H", 1)
    pairs: int = _knob(10000, "sampled pairs", 1)
    pair_seed: int = _knob(0, "pair sampling seed")
    bins: int = _knob(DEFAULT_BINS, "histogram bins", 1)
    grid: bool = _knob(False, "print the metric grid instead of TSV")
    # gen
    n: int = _knob(1000, "sample count", 1)
    d: int = _knob(5000, "feature dimensionality", 1)
    labels: int = _knob(50, "label vocabulary size", 1)
    sparsity: float = _knob(20.0, "mean nonzeros per sample, at most --d")
    labels_per_sample: float = _knob(3.0, "mean labels per sample, at most --labels")
    clusters: int = _knob(10, "latent cluster count", 1)
    test_n: int = _knob(0, "held-out samples to split off", 0)
    # sweeps
    rs: tuple[int, ...] = _knob(
        (50, 100, 150, 200, 250, 300, 350, 400), "comma-separated output dimensionalities r", 1
    )
    ns: tuple[int, ...] = _knob((), "comma-separated sample counts", 2)
    sizes: tuple[int, ...] = _knob((1, 2, 3, 4, 5), "comma-separated ensemble sizes", 1)
    # paths
    train: str | None = _knob(None, "training dataset file")
    test: str | None = _knob(None, "test dataset file")
    model: str | None = _knob(None, "model metadata file")
    out: str | None = _knob(None, "output file (default: stdout)")
    test_out: str | None = _knob(None, "path for the held-out split")
    cache: str | None = _knob(None, "embedded-matrix cache prefix (written by train, read back)")
    predictions_out: str | None = _knob(
        None, "also write the LSH predictions as a TSV (predict format)"
    )

    def effective_workers(self) -> int:
        """--workers, or with 0 the CPUs this process may run on."""
        if self.workers > 0:
            return self.workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


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
    text, default = _FIELDS[name].metadata["help"], _FIELDS[name].default
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
    for name, knob in _FIELDS.items():
        low = knob.metadata["low"]
        if low is None:
            continue
        value = getattr(cfg, name)
        values = value if isinstance(value, tuple) else (value,)
        # a tuple knob may be empty only where its default is (ns: only
        # `analyze bounds` needs it, and says so itself)
        if not values and knob.default:
            raise UsageError(f"{_flag(name)} needs at least one value")
        for v in values:
            if v < low:
                raise UsageError(f"{_flag(name)} must be an integer >= {low}, got {v!r}")
    if cfg.bits > MAX_BITS:
        raise UsageError(f"--bits must be at most {MAX_BITS}, got {cfg.bits}")
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


# the knobs naming a file that a command writes, checked before it reads any
# dataset; train, which writes the --model and --cache that others read,
# checks those itself
_WRITTEN = ("out", "test_out", "predictions_out")


def _check_dirs(*paths: str | None) -> None:
    """Refuse a file to write whose directory is missing, with the one-line
    error that opening it would raise."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


@contextlib.contextmanager
def _output(path: str | None):
    """The file at `path`, or stdout when no path is given; a file is closed
    on exit."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as f:
        yield f


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


def cmd_train(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, "train", "model")
    _check_dirs(cfg.model, cfg.cache)
    # the model is seeds, d, r and k: without --cache, only the header's d is
    # read, and the commands that tokenize the samples refuse a bad sample line
    ds = None if cfg.cache is None else parse_dataset(cfg.train)
    d = read_header(cfg.train)[1] if ds is None else ds.d
    spec = make_ensemble_spec(cfg.seed, cfg.learners, d, cfg.r, cfg.k)
    if ds is not None:
        ds.feature_sha256  # each cache file holds it: taken before planning drops the features
        ds.planned_only = True
        # the samples are planned once; each learner's one pass over F is
        # its generation time too, taken out of the record that main prints
        for lspec, matrix, _ in ens.learner_embeddings(spec, ds, workers=cfg.effective_workers()):
            path = save_cache(cfg.cache, matrix, lspec, ds)
            del matrix  # freed before the next learner is projected
            print(
                f"learner seed={lspec.seed}: matrix generation and embedding "
                f"{trace.seconds.pop('embed_s'):.3f}s ({lspec.r}x{lspec.d}), cached to {path}",
                file=sys.stderr,
            )
    write_metadata(cfg.model, spec)
    size = os.path.getsize(cfg.model)  # the whole model, the paper's second claim
    print(f"model metadata written to {cfg.model} ({size} bytes)", file=sys.stderr)
    return 0


# bytes per (test sample, ranked slot): top_k's index and score arrays take
# 16, and evaluate's arrays about 49 more (tracemalloc peaks); the prediction
# TSV makes Python objects of ranked labels only, not of pads
_RANK_SLOT_BYTES = 64


def _read_sets(
    cfg: RunConfig, explicit: set[str], flag: str, K: int, *, model: bool = False
) -> tuple[ens.EnsembleSpec | None, SparseDataset, SparseDataset]:
    """The model (with `model`; an explicit --learners keeps its first seeds
    and an explicit --k replaces its k), the train set and the test set,
    checked before any embedding: the flags are given, the learner count is
    at most the model's E (before either dataset is read), the datasets' d is
    the model's (else the train set's), and the (test samples x K) ranking
    of `flag` K fits in this machine's memory. The command reads no feature
    of either set once they are planned, so planning drops their features."""
    _require(cfg, *(["model"] if model else []), "train", "test")
    spec = read_metadata(cfg.model) if model else None
    if spec is not None:
        count = cfg.learners if "learners" in explicit else spec.size
        if count > spec.size:
            raise ValueError(f"learner count {count} exceeds available seeds {spec.size}")
        spec = replace(spec, seeds=spec.seeds[:count], k=cfg.k if "k" in explicit else spec.k)
    train_ds, test_ds = parse_dataset(cfg.train), parse_dataset(cfg.test)
    train_ds.planned_only = test_ds.planned_only = True
    d, what = (train_ds.d, "train dimensionality") if spec is None else (spec.d, "model d")
    for name, ds in (("train", train_ds), ("test", test_ds)):
        if ds.d != d:
            raise ValueError(f"{name} dataset dimensionality {ds.d} != {what} {d}")
    need = _RANK_SLOT_BYTES * test_ds.n * K
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ValueError(
            f"{flag} {K} is too large: ranking {test_ds.n} test samples needs "
            f"{need / 2**30:.0f} GiB, more than this machine's "
            f"{memory / 2**30:.1f} GiB of memory"
        )
    return spec, train_ds, test_ds


def _evaluator(cfg: RunConfig, train: SparseDataset, test: SparseDataset):
    """ranking -> EvalReport of its top max(ks) labels against `test`'s,
    weighted by `train`'s label propensities. It refuses a test label
    outside `train`'s labels when it is made, so a command makes it after
    reading its datasets and before embedding them."""
    top = int(test.labels.indices.max(initial=-1))
    if top >= train.L:
        raise ValueError(
            f"{cfg.test}: test label {top} is outside the train set's labels "
            f"(the test set has {test.L} labels, the train set {train.L})"
        )
    props = metrics.propensity(train.label_frequencies, train.n, cfg.prop_a, cfg.prop_b)

    @trace.span("metrics_s")
    def score(ranking):
        return metrics.evaluate(ranking[0], test.labels, props, ks=cfg.ks)

    return score


def _predict_ranking(cfg: RunConfig, explicit: set[str], flag: str, K: int, evaluated: bool):
    """The fused top K labels of every test sample and, with `evaluated`,
    the evaluator, whose label check runs before any embedding."""
    spec, train_ds, test_ds = _read_sets(cfg, explicit, flag, K, model=True)
    evaluate = _evaluator(cfg, train_ds, test_ds) if evaluated else None
    ranking = ens.fused_scores(
        spec, train_ds, test_ds, K, workers=cfg.effective_workers(), cache=cfg.cache
    )
    return ranking, evaluate


def cmd_predict(cfg: RunConfig, explicit: set[str]) -> int:
    ranking, _ = _predict_ranking(cfg, explicit, "--topk", cfg.topk, False)
    with _output(cfg.out) as stream:
        stream.write(format_predictions(*ranking))
    return 0


def cmd_eval(cfg: RunConfig, explicit: set[str]) -> int:
    ranking, evaluate = _predict_ranking(cfg, explicit, "--ks", max(cfg.ks), True)
    report = evaluate(ranking)
    with _output(cfg.out) as stream:
        if cfg.grid:
            stream.write(report.format_grid() + "\n")
        else:
            stream.write(report.tsv_header() + "\n" + report.tsv_row() + "\n")
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
            eps = jl.jl_epsilon(n, r)
            stream.write(f"{n}\t{r}\t{eps:.4f}\t{1.0 - eps:.4f}\t{1.0 + eps:.4f}\n")
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
    _, train_ds, test_ds = _read_sets(cfg, explicit, "--ks", max(cfg.ks))
    evaluate = _evaluator(cfg, train_ds, test_ds)
    sweep = ens.sweep_dimension(
        cfg.seed, train_ds, test_ds, cfg.rs, cfg.k, max(cfg.ks), workers=cfg.effective_workers()
    )
    with _output(cfg.out) as stream:
        for i, (r, ranking) in enumerate(sweep):
            report = evaluate(ranking)
            if i == 0:
                stream.write("r\t" + report.tsv_header() + "\n")
            stream.write(f"{r}\t" + report.tsv_row() + "\n")
    return 0


def cmd_analyze_sweep_ensemble(cfg: RunConfig, explicit: set[str]) -> int:
    _, train_ds, test_ds = _read_sets(cfg, explicit, "--ks", max(cfg.ks))
    evaluate = _evaluator(cfg, train_ds, test_ds)
    spec = make_ensemble_spec(cfg.seed, max(cfg.sizes), train_ds.d, cfg.r, cfg.k)
    own, fused = ens.sweep_ensemble_size(
        spec, train_ds, test_ds, cfg.sizes, max(cfg.ks), workers=cfg.effective_workers()
    )
    own = [evaluate(ranking) for ranking in own]
    fused = {size: evaluate(ranking) for size, ranking in fused.items()}
    with _output(cfg.out) as stream:
        names = [f"{m}@{k}" for m in metrics.METRIC_NAMES for k in cfg.ks]
        stream.write("config\t" + "\t".join(names) + "\n")

        def row(label: str, values: list[float]) -> str:
            return label + "\t" + "\t".join(f"{v:.6f}" for v in values) + "\n"

        for seed, rep in zip(spec.seeds, own):
            stream.write(row(f"learner:{seed}", [rep[m] for m in names]))
        grid = np.array([[rep[m] for m in names] for rep in own])
        stream.write(row("learner_mean", list(grid.mean(axis=0))))
        stream.write(row("learner_std", list(grid.std(axis=0, ddof=0))))
        for size in sorted(fused):
            stream.write(row(f"fused:{size}", [fused[size][m] for m in names]))
    return 0


def cmd_analyze_lsh_compare(cfg: RunConfig, explicit: set[str]) -> int:
    # each side is ranked once; the TSV's top topk is a prefix of the ranking
    K = max(*cfg.ks, cfg.topk if cfg.predictions_out else 1)
    _, train_ds, test_ds = _read_sets(cfg, explicit, "--topk" if K > max(cfg.ks) else "--ks", K)
    evaluate = _evaluator(cfg, train_ds, test_ds)
    # one learner; its one pass over F serves both searches
    spec = ens.EnsembleSpec(seeds=(cfg.seed,), d=train_ds.d, r=cfg.r, k=cfg.k)
    _, train_emb, queries = next(
        ens.learner_embeddings(spec, train_ds, test_ds, workers=cfg.effective_workers())
    )
    labels = train_ds.labels
    exhaustive = rank_labels([batch_predict(train_emb, queries, cfg.k)], labels, K)

    index = build_index(train_emb, T=cfg.tables, H=cfg.bits, seed=cfg.seed)
    # one call per query: perfbench/tracer.py counts lsh.queries per call
    rows = [query_lsh(index, queries[:, i], cfg.k) for i in range(test_ds.n)]
    lsh_index, lsh_sims = (np.stack(arrays) for arrays in zip(*rows))
    empty = int(np.count_nonzero(lsh_index[:, 0] < 0))
    lsh_ranking = rank_labels([(lsh_index, lsh_sims)], labels, K)

    rep_ex, rep_lsh = evaluate(exhaustive), evaluate(lsh_ranking)
    if cfg.predictions_out:
        # same TSV shape the predict command emits, for side-by-side tooling
        with _output(cfg.predictions_out) as f:
            f.write(format_predictions(*(a[:, : cfg.topk] for a in lsh_ranking)))
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
        ("train",), "emit model metadata from the train header (--cache: also embed)", cmd_train,
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
            p.set_defaults(func=handler, writes=[n for n in knobs.split() if n in _WRITTEN])
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
    trace.seconds.clear()
    try:
        cfg, explicit = resolve_config(args)
        _check_dirs(*(getattr(cfg, name) for name in args.writes))
        if args.func is not cmd_train or cfg.cache is not None:  # plain train needs no numpy
            _pipeline()
        status = args.func(cfg, explicit)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DatasetFormatError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation that failed
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    for name in sorted(trace.seconds):  # the wall seconds of each layer the command ran
        print(f"{name} {trace.seconds[name]:.3f}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
