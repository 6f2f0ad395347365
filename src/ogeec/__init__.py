"""OGEEC: on-the-fly gaussian random-projection embeddings with exhaustive
weighted-kNN label propagation for extreme multi-label classification.

A learner is a seeded random projection plus the kNN propagation rule; it
carries zero trained parameters. Ensembles average the prediction scores of
learners built from distinct seeds.

Importing the package sets OPENBLAS_THREAD_TIMEOUT to 4 unless the
environment already sets it, so BLAS's idle threads sleep as soon as a GEMM
ends; export another value to override it.
"""

import os

# OpenBLAS (numpy's BLAS) reads this once, when numpy loads it, so it is set
# before any import below loads numpy. Its idle worker threads busy-wait for
# 2**timeout timer cycles after each threaded GEMM; the built-in 28 is 0.13 s
# of a core per search tile at 2.1 GHz, taken from the next learner's
# projection threads. 4 is OpenBLAS's minimum. GEMM results do not depend on it.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

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
    embed,
    load_cache,
    save_cache,
)
from .ensemble import (
    EnsembleSpec,
    fused_scores,
    make_ensemble_spec,
    read_metadata,
    sweep_ensemble_size,
    write_metadata,
)
from .jl import DistortionReport, jl_epsilon, measure_distortion
from .lsh import LshIndex, build_index, query_lsh
from .metrics import EvalReport, evaluate, propensity
from .predictor import (
    batch_predict,
    knn,
    propagate,
    rank_labels,
    top_k,
)

__all__ = [
    "DatasetFormatError",
    "DistortionReport",
    "EmbeddedMatrix",
    "EmbeddingSpec",
    "EnsembleSpec",
    "EvalReport",
    "LshIndex",
    "SparseDataset",
    "batch_predict",
    "build_index",
    "embed",
    "evaluate",
    "fused_scores",
    "generate_synthetic",
    "jl_epsilon",
    "knn",
    "load_cache",
    "make_ensemble_spec",
    "measure_distortion",
    "parse_dataset",
    "propagate",
    "propensity",
    "query_lsh",
    "rank_labels",
    "read_metadata",
    "save_cache",
    "split_dataset",
    "sweep_ensemble_size",
    "top_k",
    "write_dataset",
    "write_metadata",
]

__version__ = "0.1.0"
