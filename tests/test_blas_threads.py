"""Importing ogeec makes OpenBLAS's idle threads sleep as soon as a GEMM ends.

OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when numpy loads it, so each
check runs in a fresh interpreter.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ogeec

SRC = str(pathlib.Path(ogeec.__file__).resolve().parents[1])

# one search screen tile of the dense-labels benchmark workload: 1,500
# queries x r = 200 against 500 training columns, then 0.4 s idle; prints the
# process's CPU seconds (every thread) over the idle window, which starts
# once the GEMM has returned, so that it holds only the idle threads' spin
_TILE_THEN_IDLE = """
import resource, time
import ogeec
import numpy as np

rng = np.random.default_rng(0)
queries = rng.standard_normal((1500, 200)).astype(np.float32)
train = rng.standard_normal((200, 500)).astype(np.float32)
queries @ train
usage = resource.getrusage(resource.RUSAGE_SELF)
start = usage.ru_utime + usage.ru_stime
time.sleep(0.4)
usage = resource.getrusage(resource.RUSAGE_SELF)
print(usage.ru_utime + usage.ru_stime - start)
"""


def _run(code: str, **env_vars: str) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=120, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _numpy_blas() -> str:
    return np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]


def test_import_defaults_the_thread_timeout_and_keeps_a_user_value():
    show = "import os, ogeec; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    assert _run(show) == "4"
    assert _run(show, OPENBLAS_THREAD_TIMEOUT="28") == "28"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread on one core")
@pytest.mark.skipif("openblas" not in _numpy_blas().lower(), reason="numpy's BLAS is not OpenBLAS")
def test_blas_threads_sleep_after_a_search_tile_gemm():
    """OpenBLAS's default timeout keeps its idle worker spinning about 0.13 s
    after a threaded GEMM; the package default lets it sleep at once."""
    cpu_s = float(_run(_TILE_THEN_IDLE, OPENBLAS_NUM_THREADS="2"))
    assert cpu_s < 0.05, f"{cpu_s:.3f} s of CPU in the 0.4 s after the GEMM"
