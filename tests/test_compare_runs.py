"""scripts/compare_runs.py tells identical runs from different ones."""

import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


# bins of a synthetic spectrum: three in band (0-500 MHz), two above
FREQS = [0.0, 250e6, 500e6, 750e6, 1000e6]


def _spectrum_run(path, powers):
    """A run directory holding one spectrum artifact with these bin powers."""
    path.mkdir()
    rows = "".join(f"{f:.6f},{p:.6f}\n" for f, p in zip(FREQS, powers))
    (path / "spectrum_ch1.csv").write_text("# n_fft = 8\nfreq_hz,power_db\n" + rows)
    # a stand-in digest, distinct per run
    (path / "manifest.txt").write_text(
        f"# combadc run manifest\n# artifact spectrum_ch1.csv sha256={path.name}\n#\n"
    )
    return path


def test_spectrum_band_power_and_strongest_bin(tmp_path):
    base = [-195.0, -10.0, -20.0, -3.0, -50.0]
    a = _spectrum_run(tmp_path / "a", base)

    # one deep bin moves: the largest bin difference, but the band and
    # the peak hold
    notch = _spectrum_run(tmp_path / "notch", [-194.8] + base[1:])
    out = _compare(a, notch).stdout
    assert "power_db: max |diff| 0.2\n" in out
    assert "in-band power (0-500 MHz): |diff| 0 dB\n" in out
    assert "strongest bin: |diff| 0 dB, same bin 7.5e+08 Hz\n" in out

    # in band 0.1 + 0.01 W becomes 0.1 + 0.05 W; the peak moves up a bin
    moved = _spectrum_run(tmp_path / "moved", [-195.0, -10.0, -13.0103, -3.0, -2.0])
    moved = _compare(a, moved)
    band = re.search(r"in-band power \(0-500 MHz\): \|diff\| (\S+) dB", moved.stdout)
    assert float(band.group(1)) == pytest.approx(10.0 * math.log10(0.15 / 0.11), abs=1e-5)
    assert "strongest bin: |diff| 1 dB, bins 7.5e+08 vs 1e+09 Hz\n" in moved.stdout
    assert moved.returncode == 1


def test_config_lines_in_one_payload_are_named(tmp_path):
    # the manifest of a run from before a key was removed, against one after
    payloads = {
        "old": "run.master_seed = 1\n\ndac.full_scale = 1.0\nsweep.snap = on\n",
        "new": "run.master_seed = 1\n\nsweep.snap = off\n",
    }
    for name, payload in payloads.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.txt").write_text(
            "# combadc run manifest\n# subcommand = sweep-sine\n#\n" + payload
        )
    out = _compare(tmp_path / "old", tmp_path / "new")
    assert out.returncode == 1
    assert (
        "config payload differs\n"
        "  - dac.full_scale = 1.0\n"
        "  - sweep.snap = on\n"
        "  + sweep.snap = off\n"
    ) in out.stdout
    assert "master_seed" not in out.stdout
