"""scripts/compare_runs.py tells identical runs from different ones."""

import hashlib
import importlib.util
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


def _script_module():
    spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MATRIX = _script_module().MATRIX


@pytest.mark.parametrize(
    "text", [text for _, _, text in MATRIX], ids=[name for name, _, _ in MATRIX]
)
def test_matrix_configs_load(text):
    # a config a validate rule rejects showed only as a `differ` row,
    # after a whole matrix run
    load_config(text)


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

    # an artifact edited after its run, under its unchanged manifest: a
    # trailing blank line, which no column difference shows
    tampered = tmp_path / "e"
    shutil.copytree(tmp_path / "a", tampered)
    csv = tampered / "sweep.csv"
    csv.write_text(csv.read_text() + "\n")
    edited_csv = _compare(tmp_path / "a", tampered)
    assert edited_csv.returncode == 1, edited_csv.stdout
    assert (
        f"artifact sweep.csv: file does not match its manifest in {tampered}\n"
        "artifact sweep.csv: sha256 matches\n"
    ) in edited_csv.stdout
    assert "sinad_db: max |diff| 0\n" in edited_csv.stdout


# bins of a synthetic spectrum: three in band (0-500 MHz), two above
FREQS = [0.0, 250e6, 500e6, 750e6, 1000e6]


def _run(path, artifacts, payload=""):
    """A run directory holding these artifacts (name -> text), under a
    manifest with these config lines."""
    path.mkdir()
    manifest = "# combadc run manifest\n"
    for name, text in artifacts.items():
        (path / name).write_text(text)
        sha = hashlib.sha256(text.encode()).hexdigest()
        manifest += f"# artifact {name} sha256={sha}\n"
    (path / "manifest.txt").write_text(manifest + "#\n" + payload)
    return path


def _spectrum_run(path, powers, payload=""):
    """A run directory holding one spectrum artifact with these bin powers,
    under a manifest with these config lines."""
    rows = "".join(f"{f:.6f},{p:.6f}\n" for f, p in zip(FREQS, powers))
    text = "# n_fft = 8\nfreq_hz,power_db\n" + rows
    return _run(path, {"spectrum_ch1.csv": text}, payload)


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


def test_spectrum_band_is_half_the_slice_width(tmp_path):
    # the same bins, the second run on a 2 GHz slice: its band takes the
    # 750 MHz and 1 GHz bins too
    base = [-195.0, -10.0, -20.0, -3.0, -50.0]
    watts = [10.0 ** (p / 10.0) for p in base]
    a = _spectrum_run(tmp_path / "a", base, "combs.delta_f = 1000000000.0\n")
    wide = _spectrum_run(tmp_path / "wide", base, "combs.delta_f = 2000000000.0\n")
    out = _compare(a, wide).stdout
    band = re.search(r"in-band power \(0-500 vs 0-1000 MHz\): \|diff\| (\S+) dB", out)
    assert float(band.group(1)) == pytest.approx(
        10.0 * math.log10(sum(watts) / sum(watts[:3])), abs=1e-5
    )
    assert "strongest bin: |diff| 0 dB, same bin 7.5e+08 Hz\n" in out


def test_drift_reads_headline_figures_not_bins(tmp_path):
    script = _script_module()
    base = [-195.0, -10.0, -20.0, -3.0, -50.0]
    a = _spectrum_run(tmp_path / "a", base)
    # the largest bin difference, in a notch: the band and the peak hold
    notch = _spectrum_run(tmp_path / "notch", [-185.0] + base[1:])
    c = script.compare(str(a), str(notch))
    assert c.differs and c.drift == (0.0, "-")
    assert "  power_db: max |diff| 10" in c.lines
    # the strongest bin moves up 1 dB
    peak = _spectrum_run(tmp_path / "peak", base[:3] + [-2.0, -50.0])
    assert script.compare(str(a), str(peak)).drift == pytest.approx((1.0, "peak_power_db"))


def _scm_run(path, snrs):
    """A run directory holding one `scm_snr.csv` with these channel SNRs."""
    rows = "".join(f"{ch},{snr:.6f}\n" for ch, snr in snrs.items())
    return _run(path, {"scm_snr.csv": "channel,snr_db\n" + rows})


def test_changed_channel_snr_reads_as_snr_drift(tmp_path):
    script = _script_module()
    a = _scm_run(tmp_path / "a", {1: 19.72, 2: 19.5})
    b = _scm_run(tmp_path / "b", {1: 19.72, 2: 19.25})
    assert script.headline_figures(str(a)) == {
        ("scm_snr.csv", "1", "snr_db"): 19.72,
        ("scm_snr.csv", "2", "snr_db"): 19.5,
    }
    assert script.compare(str(a), str(b)).drift == pytest.approx((0.25, "snr_db"))
    assert script.compare(str(a), str(tmp_path / "a")).drift == (0.0, "-")


def test_figure_in_one_run_only_reads_as_infinite_drift(tmp_path):
    script = _script_module()
    a = _scm_run(tmp_path / "a", {1: 19.72, 2: 19.5})
    failed = _scm_run(tmp_path / "failed", {1: 19.72})  # channel 2 failed
    assert script.compare(str(a), str(failed)).drift == (math.inf, "snr_db")
    assert script.compare(str(failed), str(a)).drift == (math.inf, "snr_db")


def test_config_lines_in_one_payload_are_named(tmp_path):
    # the manifest of a run from before a key was removed, against one after
    payloads = {
        "old": "run.master_seed = 1\n\ndac.full_scale = 1.0\nmetrics.snap = on\n",
        "new": "run.master_seed = 1\n\nmetrics.snap = off\n",
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
        "  - metrics.snap = on\n"
        "  + metrics.snap = off\n"
    ) in out.stdout
    assert "master_seed" not in out.stdout


def test_missing_artifact_file_is_a_difference(tmp_path):
    a = _spectrum_run(tmp_path / "a", [-195.0, -10.0, -20.0, -3.0, -50.0])
    gone = tmp_path / "gone"
    shutil.copytree(a, gone)
    (gone / "spectrum_ch1.csv").unlink()  # the manifest still names it
    out = _compare(a, gone)
    assert out.returncode == 1, out.stderr
    assert f"artifact spectrum_ch1.csv: file missing in {gone}\n" in out.stdout
    assert "power_db" not in out.stdout  # no columns to compare


def test_missing_manifest_is_a_difference(tmp_path):
    a = _spectrum_run(tmp_path / "a", [-195.0, -10.0, -20.0, -3.0, -50.0])
    empty = tmp_path / "empty"
    empty.mkdir()
    out = _compare(a, empty)
    assert out.returncode == 1, out.stderr
    assert f"manifest.txt: file missing in {empty}\n" in out.stdout


def test_matrix_tells_a_moved_tree_from_the_same_tree(tmp_path):
    # a one-config matrix, run at a revision's tree against itself and
    # against a copy whose shot noise is twice as strong
    head = subprocess.run(
        ["git", "-C", str(SCRIPT.parent), "rev-parse", "HEAD"], capture_output=True
    )
    if head.returncode != 0:
        pytest.skip("not a git checkout: no revision to unpack")
    script = _script_module()
    tree = tmp_path / "head"
    script.export_tree("HEAD", str(tree))
    moved = tmp_path / "moved"
    shutil.copytree(tree, moved)
    comb = moved / "src" / "combadc" / "comb.py"
    text = comb.read_text()
    assert "_ELEMENTARY_CHARGE = 1.602176634e-19\n" in text
    comb.write_text(text.replace("1.602176634e-19\n", "3.204353268e-19\n"))
    runs = [("tiny-sweep", ["sweep-sine"], TINY_SWEEP)]

    lines, differs = script.run_matrix(str(tree), str(tree), runs, str(tmp_path / "a"))
    assert not differs, lines
    assert re.fullmatch(r"tiny-sweep +1/1 +1/1  0 +match", lines[1]), lines

    lines, differs = script.run_matrix(str(tree), str(moved), runs, str(tmp_path / "b"))
    assert differs, lines
    # the figures move, the task lines (labels and seeds) hold
    row = re.fullmatch(
        r"tiny-sweep +0/1 +1/1  (\S+) \((sfdr_db|sinad_db|enob_bits)\) +differ", lines[1]
    )
    assert row and float(row.group(1)) > 0.0, lines
    assert lines[-1].startswith("wall time: A ")
