"""OGEEC: on-the-fly gaussian random-projection embeddings with exhaustive
weighted-kNN label propagation for extreme multi-label classification.

A learner is a seeded random projection plus the kNN propagation rule; it
carries zero trained parameters. Ensembles average the prediction scores of
learners built from distinct seeds.
"""

from .data import (
    DatasetFormatError,
    SparseDataset,
    SparseVector,
    generate_synthetic,
    parse_dataset,
    split_dataset,
    write_dataset,
)
from .embedding import (
    EmbeddedMatrix,
    EmbeddingSpec,
    embed,
    embed_single,
    load_cache,
    materialize_row,
    save_cache,
)
from .ensemble import (
    EnsembleSpec,
    fuse,
    fused_scores,
    make_ensemble_spec,
    read_metadata,
    sweep_ensemble_size,
    write_metadata,
)
from .jl import BoundReport, DistortionReport, jl_epsilon, measure_distortion
from .lsh import LshIndex, build_index, query_lsh
from .metrics import (
    EvalReport,
    PropensityModel,
    evaluate,
    ndcg_at_k,
    precision_at_k,
    propensity,
    psn_at_k,
    psp_at_k,
)
from .predictor import (
    ScoreVector,
    batch_predict,
    knn,
    propagate,
    top_k_labels,
    write_predictions,
)

__all__ = [
    "BoundReport",
    "DatasetFormatError",
    "DistortionReport",
    "EmbeddedMatrix",
    "EmbeddingSpec",
    "EnsembleSpec",
    "EvalReport",
    "LshIndex",
    "PropensityModel",
    "ScoreVector",
    "SparseDataset",
    "SparseVector",
    "batch_predict",
    "build_index",
    "embed",
    "embed_single",
    "evaluate",
    "fuse",
    "fused_scores",
    "generate_synthetic",
    "jl_epsilon",
    "knn",
    "load_cache",
    "make_ensemble_spec",
    "materialize_row",
    "measure_distortion",
    "ndcg_at_k",
    "parse_dataset",
    "precision_at_k",
    "propagate",
    "propensity",
    "psn_at_k",
    "psp_at_k",
    "query_lsh",
    "read_metadata",
    "save_cache",
    "split_dataset",
    "sweep_ensemble_size",
    "top_k_labels",
    "write_dataset",
    "write_metadata",
    "write_predictions",
]

__version__ = "0.1.0"
