"""scripts/compare_runs.py tells identical runs from different ones."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

from combadc.runner import run_sweep
from combadc.scenario import load_config

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_runs.py"

# one short sweep point keeps each run well under a second
TINY_SWEEP = """
sweep.start = 5ghz
sweep.stop = 5ghz
sweep.duration = 20us
metrics.n_avg = 1
"""


def _compare(a, b) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(a), str(b)], capture_output=True, text=True
    )


def test_same_seed_matches_and_other_seed_differs(tmp_path):
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        cfg = load_config(TINY_SWEEP + f"run.master_seed = {seed}\n")
        run_sweep(cfg, tmp_path / name)

    same = _compare(tmp_path / "a", tmp_path / "b")
    assert same.returncode == 0, same.stdout
    assert "artifact sweep.csv: sha256 matches" in same.stdout
    assert "sinad_db: max |diff| 0\n" in same.stdout

    other = _compare(tmp_path / "a", tmp_path / "c")
    assert other.returncode == 1, other.stdout
    assert "artifact sweep.csv: sha256 differs" in other.stdout
    assert "task line 0 differs:" in other.stdout  # the task seed
    assert "config payload differs" in other.stdout

    # a changed artifact alone, with every task line and the config equal
    edited = tmp_path / "d"
    shutil.copytree(tmp_path / "a", edited)
    manifest = edited / "manifest.txt"
    manifest.write_text(re.sub(r"sha256=\w+", "sha256=0", manifest.read_text()))
    alone = _compare(tmp_path / "a", edited)
    assert alone.returncode == 1, alone.stdout
    assert "artifact sweep.csv: sha256 differs" in alone.stdout
    assert "task line" not in alone.stdout
