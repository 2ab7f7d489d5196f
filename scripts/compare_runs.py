#!/usr/bin/env python3
"""Compare two run directories artifact by artifact, or a revision's
runs against the working tree's over a fixed matrix of small configs.

    python3 scripts/compare_runs.py DIR_A DIR_B
    python3 scripts/compare_runs.py --matrix REV [--work DIR]

Each directory holds the `manifest.txt` of one `sweep-sine`, `run-scm` or
`spectrum` run and the artifacts it names. The report says, per artifact,
whether each run's file still hashes to the sha256 its manifest records
(`file does not match its manifest` when not) and whether the two
recorded sha256s match; lists every `# task` line that differs once
`elapsed_s` is set aside, and each config line found in only one
payload, as `- key = value` (only in DIR_A) or `+ key = value` (only in
DIR_B); and prints, for every numeric column of every CSV artifact present in both
runs, the largest absolute difference between the two. For a spectrum
(`freq_hz,power_db`) it also prints the difference of the in-band power,
0 to half the run's slice width `combs.delta_f` as its manifest gives it
(1 GHz when the manifest does not name it), and of the strongest bin, and
whether the strongest bin is the same bin in both: a single bin deep in a
notch can move by tenths of a dB while the band and the peak hold. A
directory without a `manifest.txt`, or an artifact its manifest names but
the directory lacks, is reported as `file missing in DIR`. Exit status is 0 when
everything matches and 1 when anything differs.

With `--matrix REV` the script unpacks the committed tree of git revision
REV with `git archive` (local, no network), runs every config of `MATRIX`
through `python -m combadc.cli` at REV and at the working tree, and
prints one table: per run, the artifacts matched, the task lines matched,
the largest figure drift (the largest column difference above, with its
column) and whether the pair matches in full, config payload included.
`--work DIR` keeps the unpacked tree and the run directories under DIR
(a temporary directory, removed at the end, otherwise); the pairwise mode
then explains any row. Exit status is 0 when every run matches. The
matrix's 23 runs take about 21-23 s per revision on two CPU cores.
"""

import argparse
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

_ELAPSED = re.compile(r" elapsed_s=\S+")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def manifest_path(run_dir: str) -> str:
    return os.path.join(run_dir, "manifest.txt")


def read_manifest(run_dir: str) -> tuple[dict[str, str], list[str], list[str]]:
    """(artifact name -> sha256, task lines without elapsed_s, config lines)."""
    artifacts, tasks, payload = {}, [], []
    with open(manifest_path(run_dir)) as fh:
        for line in fh.read().splitlines():
            if line.startswith("# artifact "):
                name, sha = line[len("# artifact ") :].rsplit(" sha256=", 1)
                artifacts[name] = sha
            elif line.startswith("# task "):
                tasks.append(_ELAPSED.sub("", line))
            elif line and not line.startswith("#"):
                payload.append(line)
    return artifacts, tasks, payload


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = [l for l in fh.read().splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def slice_width(payload: list[str]) -> float:
    """The run's `combs.delta_f` in Hz from its config lines, or the
    key's 1 GHz default when they do not name it."""
    for line in payload:
        key, _, value = line.partition(" = ")
        if key == "combs.delta_f":
            return float(value)
    return 1e9


def column_diffs(
    path_a: str, path_b: str, edges: tuple[float, float]
) -> tuple[list[str], dict[str, float]]:
    """One report line per numeric column, and per numeric column its max
    |a - b| over shared rows (a header that differs reads inf); a
    spectrum's in-band power reads each run's bins up to its edge in
    ``edges``."""
    head_a, rows_a = read_csv(path_a)
    head_b, rows_b = read_csv(path_b)
    if head_a != head_b:
        line = f"  header differs: {','.join(head_a)} vs {','.join(head_b)}"
        return [line], {"header": math.inf}
    out, diffs = [], {}
    if len(rows_a) != len(rows_b):
        out.append(f"  rows differ: {len(rows_a)} vs {len(rows_b)}")
    for col, name in enumerate(head_a):
        try:
            diff = max(
                (abs(float(a[col]) - float(b[col])) for a, b in zip(rows_a, rows_b)),
                default=0.0,
            )
        except ValueError:
            continue  # not a numeric column
        out.append(f"  {name}: max |diff| {diff:.6g}")
        diffs[name] = diff
    if head_a == ["freq_hz", "power_db"] and rows_a and rows_b:
        out += spectrum_diffs(rows_a, rows_b, edges)
    return out, diffs


def spectrum_figures(
    rows: list[list[str]], edge_hz: float
) -> tuple[float, float, float]:
    """(in-band power from 0 to ``edge_hz`` in dB, strongest bin in dB, its
    frequency)."""
    freqs = [float(f) for f, _ in rows]
    powers = [float(p) for _, p in rows]
    in_band = sum(10.0 ** (p / 10.0) for f, p in zip(freqs, powers) if f <= edge_hz)
    peak = max(range(len(powers)), key=powers.__getitem__)
    return 10.0 * math.log10(in_band), powers[peak], freqs[peak]


def spectrum_diffs(
    rows_a: list[list[str]], rows_b: list[list[str]], edges: tuple[float, float]
) -> list[str]:
    band_a, peak_a, f_a = spectrum_figures(rows_a, edges[0])
    band_b, peak_b, f_b = spectrum_figures(rows_b, edges[1])
    where = f"same bin {f_a:g} Hz" if f_a == f_b else f"bins {f_a:g} vs {f_b:g} Hz"
    band = " vs ".join(dict.fromkeys(f"0-{edge / 1e6:g}" for edge in edges))
    return [
        f"  in-band power ({band} MHz): |diff| {abs(band_a - band_b):.6g} dB",
        f"  strongest bin: |diff| {abs(peak_a - peak_b):.6g} dB, {where}",
    ]


class Comparison(NamedTuple):
    """What ``compare`` found about two run directories."""

    lines: list[str]  # the report
    differs: bool
    artifacts: tuple[int, int]  # (matched, named by either manifest)
    tasks: tuple[int, int]  # (task lines matched, lines in the longer list)
    drift: tuple[float, str]  # largest column difference, and its column


def compare(dir_a: str, dir_b: str) -> Comparison:
    """Compare two run directories: the report lines and the counts."""
    missing = [d for d in (dir_a, dir_b) if not os.path.isfile(manifest_path(d))]
    if missing:
        lines = [f"manifest.txt: file missing in {d}" for d in missing]
        lines.append(f"differ: {dir_a} vs {dir_b}")
        return Comparison(lines, True, (0, 0), (0, 0), (math.inf, "manifest"))
    art_a, tasks_a, cfg_a = read_manifest(dir_a)
    art_b, tasks_b, cfg_b = read_manifest(dir_b)
    lines, differs = [], False
    art_matched, drift = 0, (0.0, "-")
    for name in sorted(set(art_a) | set(art_b)):
        if name not in art_a or name not in art_b:
            lines.append(f"artifact {name}: only in {dir_a if name in art_a else dir_b}")
            differs = True
            continue
        present = intact = True
        for run_dir, art in ((dir_a, art_a), (dir_b, art_b)):
            path = os.path.join(run_dir, name)
            if not os.path.isfile(path):
                lines.append(f"artifact {name}: file missing in {run_dir}")
                present = intact = False
            elif file_sha256(path) != art[name]:
                lines.append(
                    f"artifact {name}: file does not match its manifest in {run_dir}"
                )
                intact = False
        same = art_a[name] == art_b[name]
        differs |= not (same and intact)
        art_matched += same and intact
        lines.append(f"artifact {name}: sha256 {'matches' if same else 'differs'}")
        if name.endswith(".csv") and present:
            report, diffs = column_diffs(
                os.path.join(dir_a, name),
                os.path.join(dir_b, name),
                (slice_width(cfg_a) / 2.0, slice_width(cfg_b) / 2.0),
            )
            lines += report
            for column, diff in diffs.items():
                if diff > drift[0]:
                    drift = (diff, column)
    n_tasks = max(len(tasks_a), len(tasks_b))
    task_matched = 0
    for i in range(n_tasks):
        a = tasks_a[i] if i < len(tasks_a) else "(none)"
        b = tasks_b[i] if i < len(tasks_b) else "(none)"
        if a != b:
            lines += [f"task line {i} differs:", f"  A {a}", f"  B {b}"]
            differs = True
        else:
            task_matched += 1
    if cfg_a != cfg_b:
        lines.append("config payload differs")
        lines += [f"  - {line}" for line in cfg_a if line not in cfg_b]
        lines += [f"  + {line}" for line in cfg_b if line not in cfg_a]
        differs = True
    lines.append(f"{'differ' if differs else 'match'}: {dir_a} vs {dir_b}")
    n_art = len(set(art_a) | set(art_b))
    return Comparison(
        lines, differs, (art_matched, n_art), (task_matched, n_tasks), drift
    )


# ---------------------------------------------------------------------------
# the revision matrix

# three sweep points, on sub-bands 1, 6 and 10, at the full 70 us record
_SWEEP = "sweep.start = 0.5ghz\nsweep.stop = 10.5ghz\nsweep.step = 5ghz\n"

# eight channels keep a 1.25 GHz grid's burst below the DAC's 11 GHz filter
_WIDE_SLICE = "combs.delta_f = 1.25ghz\nscm.active_channels = 1,2,3,4,5,6,7,8\n"
# a channel plan that fits the 0.5 GHz slice, and an FFT that its 70 us
# capture holds four times at 0.5 GSa/s
_NARROW_SLICE = (
    "combs.delta_f = 0.5ghz\nscm.baud = 400mhz\nscm.baseband_offset = 20mhz\n"
    "metrics.n_fft = 8192\n"
)

# shot and ASE beat off: the receiver noise is the thermal current alone
_THERMAL_ONLY = "link.shot = off\nlink.osnr_db = inf\n"

# (name, subcommand and its flags, config lines): small runs that between
# them take every stage's switched-off and alternative paths. The 2.048 us
# bursts are the default; the all-odd burst's DAC codes flip at exact
# zeros on any change of FFT arithmetic, so its drift shows, not hides.
# Every config loads at the working tree (tests/test_compare_runs.py).
MATRIX = [
    ("sweep", ["sweep-sine"], _SWEEP),
    ("sweep-cmrr-inf", ["sweep-sine"], _SWEEP + "link.cmrr_db = inf\n"),
    ("sweep-tia-inf", ["sweep-sine"], _SWEEP + "link.tia_sat_dbm = inf\n"),
    ("sweep-dac-bits-off", ["sweep-sine"], _SWEEP + "dac.bits = off\n"),
    # the figures read the receiver chain's rounding unquantized
    ("sweep-adc-bits-off", ["sweep-sine"], _SWEEP + "adc.bits = off\n"),
    ("sweep-dac-clip-off", ["sweep-sine"], _SWEEP + "dac.clip = off\n"),
    # thermal alone of the receiver's noise currents: its draw keeps its bytes
    ("sweep-thermal-only", ["sweep-sine"], _SWEEP + _THERMAL_ONLY),
    # a walking phase track takes the beat's off-grid path
    ("sweep-linewidth", ["sweep-sine"], _SWEEP + "combs.drive_linewidth = 1khz\n"),
    ("sweep-delta-f-1.25", ["sweep-sine"], _SWEEP + _WIDE_SLICE),
    ("sweep-delta-f-0.5", ["sweep-sine"], _SWEEP + _NARROW_SLICE),
    # a constant path drift turns the beat's phase track on
    ("sweep-drift", ["sweep-sine"], _SWEEP + "combs.differential_drift = 1000\n"),
    # a second master seed: five sweep points, 2.5 GHz apart, and the default burst
    ("sweep-seed-7", ["sweep-sine"], "sweep.step = 2.5ghz\nrun.master_seed = 7\n"),
    ("scm", ["run-scm"], ""),
    ("scm-seed-7", ["run-scm"], "run.master_seed = 7\n"),
    ("scm-jobs-2", ["run-scm", "--jobs", "2"], ""),
    ("scm-odd", ["run-scm"], "scm.active_channels = 1,3,5\n"),
    ("scm-muted", ["run-scm"], "scm.active_channels = 1\n"),
    ("scm-lms", ["run-scm"], "demod.equalizer = lms\n"),
    ("scm-cascade", ["run-scm"], "combs.source = cascade\n"),
    ("scm-delta-f-1.25", ["run-scm"], _WIDE_SLICE),
    ("scm-eq-none", ["run-scm"], "demod.equalizer = none\n"),
    (
        "scm-switches-off",
        ["run-scm"],
        "link.cmrr_db = inf\nlink.tia_sat_dbm = inf\ndac.bits = off\ndac.clip = off\n",
    ),
    ("spectrum-long", ["spectrum", "--channel", "5"], "scm.duration = 16.384us\n"),
]


def export_tree(rev: str, dest: str) -> None:
    """Unpack the committed tree of git revision ``rev`` of this repository
    into ``dest``, with ``git archive``: local, no network, no worktree."""
    tar = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        capture_output=True,
        check=True,
    ).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)


def run_config(tree: str, argv: list[str], text: str, out_dir: str) -> float:
    """Run ``combadc.cli`` from ``tree``'s sources on config ``text`` into
    ``out_dir``, one BLAS thread; the wall time in s. A failing run leaves
    what it wrote, which ``compare`` reports."""
    os.makedirs(out_dir)
    config = os.path.join(out_dir, "matrix.cfg")
    with open(config, "w") as fh:
        fh.write(text)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "combadc.cli", *argv, "--config", config]
    t0 = time.perf_counter()
    subprocess.run(cmd + ["--out", out_dir], env=env, capture_output=True)
    return time.perf_counter() - t0


def run_matrix(
    tree_a: str, tree_b: str, runs: list[tuple], work: str, labels=("A", "B")
) -> tuple[list[str], bool]:
    """Each run of ``runs`` at source trees ``tree_a`` and ``tree_b``, under
    ``work``: the table and whether any run differs."""
    head = f"{'run':<20} {'artifacts':>9} {'tasks':>7}  {'largest drift':<26} result"
    lines, differs, wall = [head], False, [0.0, 0.0]
    for name, argv, text in runs:
        dirs = [os.path.join(work, side, name) for side in ("a", "b")]
        for i, tree in enumerate((tree_a, tree_b)):
            wall[i] += run_config(tree, argv, text, dirs[i])
        c = compare(*dirs)
        differs |= c.differs
        drift = f"{c.drift[0]:.6g} ({c.drift[1]})" if c.drift[0] else "0"
        lines.append(
            f"{name:<20} {'%d/%d' % c.artifacts:>9} {'%d/%d' % c.tasks:>7}  "
            f"{drift:<26} {'differ' if c.differs else 'match'}"
        )
    lines.append(
        f"wall time: {labels[0]} {wall[0]:.1f} s, {labels[1]} {wall[1]:.1f} s"
    )
    return lines, differs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", nargs="?")
    ap.add_argument("dir_b", nargs="?")
    ap.add_argument(
        "--matrix", metavar="REV", help="run MATRIX at git revision REV and here"
    )
    ap.add_argument(
        "--work", metavar="DIR", help="keep the matrix's tree and runs under DIR"
    )
    args = ap.parse_args(argv)
    if args.matrix is None:
        if args.dir_b is None:
            ap.error("give two run directories, or --matrix REV")
        c = compare(args.dir_a, args.dir_b)
        print("\n".join(c.lines))
        return 1 if c.differs else 0
    if args.dir_a is not None:
        ap.error("--matrix takes no run directories")
    work = args.work or tempfile.mkdtemp(prefix="compare-runs-")
    try:
        tree = os.path.join(work, "rev")
        export_tree(args.matrix, tree)
        labels = (args.matrix, "working tree")
        lines, differs = run_matrix(tree, ROOT, MATRIX, work, labels)
    finally:
        if args.work is None:
            shutil.rmtree(work)
    print(f"A = {args.matrix}, B = working tree")
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
