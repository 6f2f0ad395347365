"""Command-line front-end: dataset tools, training, prediction, evaluation,
and analysis sweeps.

All indices in dataset files are 0-based. Data goes to stdout (or --out);
diagnostics and timings go to stderr. Every command is deterministic for a
fixed configuration, including the worker count. Option precedence is
command-line flags over --config (JSON) over built-in defaults.
"""

from __future__ import annotations

import argparse
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


_INT_TUPLES = {"ks", "rs", "ns", "sizes"}

# config-file value types by RunConfig annotation; _int_tuple parses tuple knobs
_FILE_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "str | None": ((str, type(None)), "a string"),
    "tuple[int, ...]": (object, "comma-separated integers"),
}

# knob -> smallest valid value; every element of a tuple knob is checked.
# ns may stay empty: only `analyze bounds` needs it, and says so itself.
_MINIMUMS = {
    "r": 1, "k": 1, "learners": 1, "topk": 1, "ks": 1, "sizes": 1,
    "tables": 1, "bits": 1, "pairs": 1, "bins": 1, "workers": 0,
    "n": 1, "d": 1, "labels": 1, "clusters": 1, "test_n": 0,
    "rs": 1, "ns": 2,
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _int_tuple(name: str, value) -> tuple[int, ...]:
    tokens = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        return tuple(int(tok) for tok in tokens if str(tok).strip())
    except ValueError:
        raise UsageError(f"{_flag(name)} expects comma-separated integers") from None


def _check_knobs(cfg: RunConfig) -> None:
    for name, low in _MINIMUMS.items():
        value = getattr(cfg, name)
        values = value if isinstance(value, tuple) else (value,)
        if not values and name != "ns":
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
            file_cfg = json.load(f)
        if not isinstance(file_cfg, dict):
            raise UsageError(f"{config_path}: config file must hold a JSON object")
    cli_cfg = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "config", "command", "analyze_cmd")
    }
    annotations = {f.name: f.type for f in fields(RunConfig)}
    for key, value in file_cfg.items():
        if key not in annotations:
            raise UsageError(f"unknown config key {key!r}")
        kinds, what = _FILE_TYPES[annotations[key]]
        if not isinstance(value, kinds) or isinstance(value, bool) != (kinds is bool):
            raise UsageError(f"{_flag(key)} must be {what}, got {value!r}")
    merged = {**file_cfg, **cli_cfg}
    for key in _INT_TUPLES & set(merged):
        merged[key] = _int_tuple(key, merged[key])
    cfg = RunConfig(**merged)
    _check_knobs(cfg)
    return cfg, set(merged)


def _require(cfg: RunConfig, explicit: set[str], *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"{_flag(name)} is required (flag or config file)")


def _open_out(path: str | None):
    return open(path, "w", encoding="utf-8") if path else sys.stdout


def _close_out(stream) -> None:
    if stream is not sys.stdout:
        stream.close()


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
    _require(cfg, explicit, "out")
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
        _require(cfg, explicit, "test_out")
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


def _time_generation(spec: EmbeddingSpec) -> float:
    """Materialize every row of F once, discarding the blocks."""
    t0 = time.perf_counter()
    block = _row_block(spec.d)
    for s in range(0, spec.r, block):
        materialize_rows(spec, s, min(s + block, spec.r))
    return time.perf_counter() - t0


def cmd_train(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, explicit, "train", "model")
    ds = parse_dataset(cfg.train)
    spec = ens.make_ensemble_spec(cfg.seed, cfg.learners, ds.d, cfg.r, cfg.k)
    ens.validate_spec(spec)
    workers = cfg.effective_workers()
    for i in range(spec.size):
        lspec = spec.learner(i)
        shape = f"({lspec.r}x{lspec.d})"
        if cfg.cache is None:
            gen_s = _time_generation(lspec)
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
    ens.write_metadata(cfg.model, spec, base_seed=cfg.seed)
    print(f"model metadata written to {cfg.model}", file=sys.stderr)
    return 0


def _predict_scores(cfg: RunConfig, explicit: set[str]):
    _require(cfg, explicit, "model", "train", "test")
    spec = _load_model(cfg, explicit)
    train_ds = parse_dataset(cfg.train)
    test_ds = parse_dataset(cfg.test)
    for name, ds in (("train", train_ds), ("test", test_ds)):
        if ds.d != spec.d:
            raise ValueError(
                f"{name} dataset dimensionality {ds.d} != model d {spec.d}"
            )
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
    _, _, _, scores, timings = _predict_scores(cfg, explicit)
    stream = _open_out(cfg.out)
    try:
        stream.write(format_predictions(*top_k(scores, cfg.topk)))
    finally:
        _close_out(stream)
    _print_timings(timings)
    return 0


def cmd_eval(cfg: RunConfig, explicit: set[str]) -> int:
    _, train_ds, test_ds, scores, timings = _predict_scores(cfg, explicit)
    t0 = time.perf_counter()
    report = _evaluator(cfg, train_ds, test_ds)(scores)
    timings["metrics_s"] = time.perf_counter() - t0
    stream = _open_out(cfg.out)
    try:
        if cfg.grid:
            stream.write(report.format_grid() + "\n")
        else:
            stream.write(report.tsv_header() + "\n" + report.tsv_row() + "\n")
    finally:
        _close_out(stream)
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
    stream = _open_out(cfg.out)
    try:
        stream.write("n\tr\tepsilon\tlower\tupper\n")
        for n, r in pairs:
            b = jl.jl_epsilon(n, r)
            stream.write(f"{n}\t{r}\t{b.epsilon:.4f}\t{b.lower:.4f}\t{b.upper:.4f}\n")
    finally:
        _close_out(stream)
    return 0


def cmd_analyze_distortion(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, explicit, "train")
    ds = parse_dataset(cfg.train)
    spec = EmbeddingSpec(seed=cfg.seed, d=ds.d, r=cfg.r)
    report = jl.measure_distortion(
        ds, spec, cfg.pairs, cfg.pair_seed, bins=cfg.bins
    )
    stream = _open_out(cfg.out)
    try:
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
    finally:
        _close_out(stream)
    return 0


def cmd_analyze_sweep_r(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, explicit, "train", "test")
    train_ds = parse_dataset(cfg.train)
    test_ds = parse_dataset(cfg.test)
    evaluate = _evaluator(cfg, train_ds, test_ds)
    sweep = ens.sweep_dimension(
        cfg.seed, train_ds, test_ds, cfg.rs, cfg.k, workers=cfg.effective_workers()
    )
    stream = _open_out(cfg.out)
    try:
        for i, (r, scores) in enumerate(sweep):
            report = evaluate(scores)
            if i == 0:
                stream.write("r\t" + report.tsv_header() + "\n")
            stream.write(f"{r}\t" + report.tsv_row() + "\n")
    finally:
        _close_out(stream)
    return 0


def cmd_analyze_sweep_ensemble(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, explicit, "train", "test")
    train_ds = parse_dataset(cfg.train)
    test_ds = parse_dataset(cfg.test)
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
    stream = _open_out(cfg.out)
    try:
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
    finally:
        _close_out(stream)
    return 0


def cmd_analyze_lsh_compare(cfg: RunConfig, explicit: set[str]) -> int:
    _require(cfg, explicit, "train", "test")
    train_ds = parse_dataset(cfg.train)
    test_ds = parse_dataset(cfg.test)
    workers = cfg.effective_workers()
    lspec = EmbeddingSpec(seed=cfg.seed, d=train_ds.d, r=cfg.r)
    # one pass over F serves both searches
    train_emb, queries = embed_train_test(
        lspec, train_test_rows(train_ds, test_ds), workers=workers
    )
    labels = train_ds.label_matrix()
    exhaustive = batch_predict(train_emb, labels, queries, cfg.k)

    index = build_index(train_emb, T=cfg.tables, H=cfg.bits, seed=cfg.seed)
    neighbors = [query_lsh(index, queries[:, i], cfg.k) for i in range(test_ds.n)]
    empty = sum(1 for nbs in neighbors if not nbs)
    lsh_scores = score_matrix(neighbors, labels)

    rep_ex, rep_lsh = map(_evaluator(cfg, train_ds, test_ds), (exhaustive, lsh_scores))
    if cfg.predictions_out:
        # same TSV shape the predict command emits, for side-by-side tooling
        with open(cfg.predictions_out, "w", encoding="utf-8") as f:
            f.write(format_predictions(*top_k(lsh_scores, cfg.topk)))
    stream = _open_out(cfg.out)
    try:
        stream.write("method\t" + rep_ex.tsv_header() + "\n")
        stream.write("exhaustive\t" + rep_ex.tsv_row() + "\n")
        stream.write("lsh\t" + rep_lsh.tsv_row() + "\n")
    finally:
        _close_out(stream)
    print(
        f"lsh tables={cfg.tables} bits={cfg.bits}: "
        f"{empty} queries had empty candidate sets",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    table = {
        "train": (("--train",), dict(help="training dataset file")),
        "test": (("--test",), dict(help="test dataset file")),
        "model": (("--model",), dict(help="model metadata file")),
        "out": (("--out",), dict(help="output file (default: stdout)")),
        "r": (("--r",), dict(type=int, help="embedding dimensionality (default 200)")),
        "k": (("--k",), dict(type=int, help="nearest neighbours (default 5)")),
        "learners": (
            ("--learners",),
            dict(type=int, help="ensemble size E (default 5)"),
        ),
        "seed": (("--seed",), dict(type=int, help="base seed (default 0)")),
        "workers": (
            ("--workers",),
            dict(type=int, help="projection threads; they split F's rows, so each row "
                 "is generated once per projection (default: all cores). Search is "
                 "one GEMM per learner, threaded by BLAS"),
        ),
        "prop_a": (
            ("--prop-a",),
            dict(type=float, help="propensity A (default 0.55; 0.6 for Amazon-family)"),
        ),
        "prop_b": (
            ("--prop-b",),
            dict(type=float, help="propensity B (default 1.5; 2.6 for Amazon-family)"),
        ),
        "ks": (("--ks",), dict(help="comma-separated K cutoffs (default 1,3,5)")),
        "topk": (
            ("--topk",),
            dict(type=int, help="labels per row in the prediction TSV (default 5)"),
        ),
        "cache": (
            ("--cache",),
            dict(help="embedded-matrix cache prefix (written by train, read back)"),
        ),
        "grid": (
            ("--grid",),
            dict(action="store_true", help="print the metric grid instead of TSV"),
        ),
    }
    for name in names:
        flags, kwargs = table[name]
        p.add_argument(*flags, default=argparse.SUPPRESS, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ogeec",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="generate a synthetic clustered dataset")
    p.add_argument("--n", type=int, default=argparse.SUPPRESS, help="sample count")
    p.add_argument("--d", type=int, default=argparse.SUPPRESS, help="feature dimensionality")
    p.add_argument("--labels", type=int, default=argparse.SUPPRESS, help="label vocabulary size")
    p.add_argument("--sparsity", type=float, default=argparse.SUPPRESS, help="mean nonzeros per sample")
    p.add_argument(
        "--labels-per-sample", type=float, default=argparse.SUPPRESS, help="mean labels per sample"
    )
    p.add_argument("--clusters", type=int, default=argparse.SUPPRESS, help="latent cluster count")
    p.add_argument(
        "--test-n", type=int, default=argparse.SUPPRESS, help="held-out samples to split off"
    )
    p.add_argument(
        "--test-out", default=argparse.SUPPRESS, help="path for the held-out split"
    )
    _add_common(p, "seed", "out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="emit model metadata (and optional matrix caches)")
    _add_common(p, "train", "model", "r", "k", "learners", "seed", "workers", "cache")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="batch-predict top-K labels as TSV")
    _add_common(
        p, "model", "train", "test", "out", "k", "learners", "workers",
        "topk", "cache",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="predict and score against test labels")
    _add_common(
        p, "model", "train", "test", "out", "k", "learners", "workers",
        "prop_a", "prop_b", "ks", "cache", "grid",
    )
    p.set_defaults(func=cmd_eval)

    pa = sub.add_parser("analyze", help="bound tables, distortion, sweeps")
    asub = pa.add_subparsers(dest="analyze_cmd")

    p = asub.add_parser("bounds", help="theoretical distance-error bound table")
    p.add_argument("--ns", default=argparse.SUPPRESS, help="comma-separated sample counts")
    p.add_argument(
        "--rs", default=argparse.SUPPRESS, help="comma-separated output dimensionalities"
    )
    _add_common(p, "out")
    p.set_defaults(func=cmd_analyze_bounds)

    p = asub.add_parser("distortion", help="empirical pairwise distance distortion")
    p.add_argument("--pairs", type=int, default=argparse.SUPPRESS, help="sampled pairs")
    p.add_argument(
        "--pair-seed", type=int, default=argparse.SUPPRESS, help="pair sampling seed"
    )
    p.add_argument("--bins", type=int, default=argparse.SUPPRESS, help="histogram bins")
    _add_common(p, "train", "r", "seed", "out")
    p.set_defaults(func=cmd_analyze_distortion)

    p = asub.add_parser("sweep-r", help="single-learner metrics across r values")
    p.add_argument(
        "--rs", default=argparse.SUPPRESS, help="comma-separated r values to sweep"
    )
    _add_common(
        p, "train", "test", "k", "seed", "workers", "prop_a", "prop_b",
        "ks", "out",
    )
    p.set_defaults(func=cmd_analyze_sweep_r)

    p = asub.add_parser("sweep-ensemble", help="fused metrics across ensemble sizes")
    p.add_argument(
        "--sizes", default=argparse.SUPPRESS, help="comma-separated ensemble sizes"
    )
    _add_common(
        p, "train", "test", "r", "k", "seed", "workers", "prop_a",
        "prop_b", "ks", "out",
    )
    p.set_defaults(func=cmd_analyze_sweep_ensemble)

    p = asub.add_parser("lsh-compare", help="exhaustive search vs the LSH baseline")
    p.add_argument("--tables", type=int, default=argparse.SUPPRESS, help="LSH tables T")
    p.add_argument("--bits", type=int, default=argparse.SUPPRESS, help="bits per code H")
    p.add_argument(
        "--predictions-out",
        default=argparse.SUPPRESS,
        help="also write the LSH predictions as a TSV (predict format)",
    )
    _add_common(
        p, "train", "test", "r", "k", "seed", "workers", "prop_a",
        "prop_b", "ks", "out", "topk",
    )
    p.set_defaults(func=cmd_analyze_lsh_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
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
