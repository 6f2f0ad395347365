"""Every script under scripts/ still imports what it needs: `--help` imports
the script's whole module, so a program or oracle name that a script uses
and that moves or goes fails here, not on the script's next real run.

The two measuring scripts also run once on a small input, each in its own
process, since `embed_memory.py` replaces module attributes: a phase of
`predict` that moves, is renamed or runs a different number of times
changes `embed_memory.py`'s rows, and a kernel whose bits leave its scipy
oracle's, a search whose neighbours leave the full scan's, a parse that
leaves the line-by-line oracle's dataset, or a header read that leaves its
(n, d, L), fails `kernel_bench.py`."""

import collections
import os
import pathlib
import subprocess
import sys

import pytest

from ogeec import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


def _run(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_help_exits_zero(name):
    assert _run(name, "--help").startswith("usage:")


def test_embed_memory_prints_one_row_per_phase_call(tmp_path):
    gen = ["gen", "--n", "120", "--d", "200", "--labels", "10", "--sparsity", "5", "--seed", "3"]
    out = ["--test-n", "30", "--out", tmp_path / "train.txt", "--test-out", tmp_path / "test.txt"]
    assert cli.main([*gen, *map(str, out)]) == 0
    stdout = _run("embed_memory.py", tmp_path, "--r", 8, "--learners", 2, "--workers", 1)
    lines = stdout.splitlines()
    assert lines[0] == "phase\tseconds\tpeak_rss_mib\ttraced_peak_mib\ttraced_after_mib"
    notes = [line for line in lines if line.startswith("#")]
    assert len(notes) == 1 and "nonzeros: preparation peak" in notes[0], stdout
    rows = collections.Counter(line.split("\t")[0] for line in lines[1:] if line not in notes)
    assert rows == {"import": 1, "parse": 2, "plan": 1, "projection": 2, "search": 2, "label pass": 1}


def test_kernel_bench_kernels_match_their_oracles(tmp_path):
    stdout = _run("kernel_bench.py", "--workload", "dense-labels", "--repeat", 1, "--scratch", tmp_path)
    rows = [line.split("\t") for line in stdout.splitlines() if line.startswith("dense-labels\t")]
    assert [(row[1], row[-1]) for row in rows] == [
        ("label_scores", "identical"), ("pair_dots", "identical"), ("projection", "identical"),
        ("search", "identical"), ("parse", "identical"), ("header", "identical"),
    ], stdout
