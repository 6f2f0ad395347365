"""OGEEC: on-the-fly gaussian random-projection embeddings with exhaustive
weighted-kNN label propagation for extreme multi-label classification.

A learner is a seeded random projection plus the kNN propagation rule; it
carries zero trained parameters. Ensembles average the prediction scores of
learners built from distinct seeds.

Importing the package loads no numpy: each name of `__all__` is imported
from its module on first use (`__getattr__`), so `python -m ogeec.cli train`
runs on the standard library alone. Importing it first sets
OPENBLAS_THREAD_TIMEOUT to 4 unless the environment already sets it, so
BLAS's idle threads sleep as soon as a GEMM ends; export another value to
override it.
"""

import os
import sys

# OpenBLAS (numpy's BLAS) reads this once, when numpy loads it, so it is set
# before any name below can load numpy. Its idle worker threads busy-wait for
# 2**timeout timer cycles after each threaded GEMM; the built-in 28 is 0.13 s
# of a core per search tile at 2.1 GHz, taken from the next learner's
# projection threads. 4 is OpenBLAS's minimum. GEMM results do not depend on it.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

# each exported name's module
_HOMES = {
    name: module
    for module, names in {
        "data": "SparseDataset generate_synthetic parse_dataset split_dataset write_dataset",
        "embedding": "EmbeddedMatrix embed load_cache save_cache",
        "ensemble": "fused_scores sweep_ensemble_size",
        "jl": "DistortionReport jl_epsilon measure_distortion",
        "lsh": "LshIndex build_index query_lsh",
        "metrics": "EvalReport evaluate propensity",
        "model": "DatasetFormatError EmbeddingSpec EnsembleSpec make_ensemble_spec read_metadata write_metadata",
        "predictor": "batch_predict knn propagate rank_labels top_k",
    }.items()
    for name in names.split()
}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """An exported name, imported from its module and kept on first use."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_HOMES[name]}"
    __import__(module)  # as an import statement: `python -X importtime` lists it
    value = globals()[name] = getattr(sys.modules[module], name)
    return value


__version__ = "0.1.0"
