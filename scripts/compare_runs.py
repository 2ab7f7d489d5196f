#!/usr/bin/env python3
"""Compare two run directories artifact by artifact.

    python3 scripts/compare_runs.py DIR_A DIR_B

Each directory holds the `manifest.txt` of one `sweep-sine`, `run-scm` or
`spectrum` run and the artifacts it names. The report says, per artifact,
whether each run's file still hashes to the sha256 its manifest records
(`file does not match its manifest` when not) and whether the two
recorded sha256s match; lists every `# task` line that differs once
`elapsed_s` is set aside, and each config line found in only one
payload, as `- key = value` (only in DIR_A) or `+ key = value` (only in
DIR_B); and prints, for every numeric column of every CSV artifact present in both
runs, the largest absolute difference between the two. For a spectrum
(`freq_hz,power_db`) it also prints the difference of the 0-500 MHz
in-band power and of the strongest bin, and whether the strongest bin is
the same bin in both: a single bin deep in a notch can move by tenths of
a dB while the band and the peak hold. A directory without a
`manifest.txt`, or an artifact its manifest names but the directory
lacks, is reported as `file missing in DIR`. Exit status is 0 when
everything matches and 1 when anything differs.
"""

import argparse
import hashlib
import math
import os
import re
import sys

_ELAPSED = re.compile(r" elapsed_s=\S+")


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


def column_diffs(path_a: str, path_b: str) -> list[str]:
    """One report line per numeric column: max |a - b| over shared rows."""
    head_a, rows_a = read_csv(path_a)
    head_b, rows_b = read_csv(path_b)
    if head_a != head_b:
        return [f"  header differs: {','.join(head_a)} vs {','.join(head_b)}"]
    out = []
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
    if head_a == ["freq_hz", "power_db"] and rows_a and rows_b:
        out += spectrum_diffs(rows_a, rows_b)
    return out


_IN_BAND_HZ = 500e6


def spectrum_figures(rows: list[list[str]]) -> tuple[float, float, float]:
    """(0-500 MHz in-band power in dB, strongest bin in dB, its frequency)."""
    freqs = [float(f) for f, _ in rows]
    powers = [float(p) for _, p in rows]
    in_band = sum(10.0 ** (p / 10.0) for f, p in zip(freqs, powers) if f <= _IN_BAND_HZ)
    peak = max(range(len(powers)), key=powers.__getitem__)
    return 10.0 * math.log10(in_band), powers[peak], freqs[peak]


def spectrum_diffs(rows_a: list[list[str]], rows_b: list[list[str]]) -> list[str]:
    band_a, peak_a, f_a = spectrum_figures(rows_a)
    band_b, peak_b, f_b = spectrum_figures(rows_b)
    where = f"same bin {f_a:g} Hz" if f_a == f_b else f"bins {f_a:g} vs {f_b:g} Hz"
    return [
        f"  in-band power (0-500 MHz): |diff| {abs(band_a - band_b):.6g} dB",
        f"  strongest bin: |diff| {abs(peak_a - peak_b):.6g} dB, {where}",
    ]


def compare(dir_a: str, dir_b: str) -> tuple[list[str], bool]:
    """Report lines and whether anything differs."""
    missing = [d for d in (dir_a, dir_b) if not os.path.isfile(manifest_path(d))]
    if missing:
        lines = [f"manifest.txt: file missing in {d}" for d in missing]
        return lines + [f"differ: {dir_a} vs {dir_b}"], True
    art_a, tasks_a, cfg_a = read_manifest(dir_a)
    art_b, tasks_b, cfg_b = read_manifest(dir_b)
    lines, differs = [], False
    for name in sorted(set(art_a) | set(art_b)):
        if name not in art_a or name not in art_b:
            lines.append(f"artifact {name}: only in {dir_a if name in art_a else dir_b}")
            differs = True
            continue
        present = True
        for run_dir, art in ((dir_a, art_a), (dir_b, art_b)):
            path = os.path.join(run_dir, name)
            if not os.path.isfile(path):
                lines.append(f"artifact {name}: file missing in {run_dir}")
                differs, present = True, False
            elif file_sha256(path) != art[name]:
                lines.append(
                    f"artifact {name}: file does not match its manifest in {run_dir}"
                )
                differs = True
        same = art_a[name] == art_b[name]
        differs |= not same
        lines.append(f"artifact {name}: sha256 {'matches' if same else 'differs'}")
        if name.endswith(".csv") and present:
            lines += column_diffs(os.path.join(dir_a, name), os.path.join(dir_b, name))
    for i in range(max(len(tasks_a), len(tasks_b))):
        a = tasks_a[i] if i < len(tasks_a) else "(none)"
        b = tasks_b[i] if i < len(tasks_b) else "(none)"
        if a != b:
            lines += [f"task line {i} differs:", f"  A {a}", f"  B {b}"]
            differs = True
    if cfg_a != cfg_b:
        lines.append("config payload differs")
        lines += [f"  - {line}" for line in cfg_a if line not in cfg_b]
        lines += [f"  + {line}" for line in cfg_b if line not in cfg_a]
        differs = True
    lines.append(f"{'differ' if differs else 'match'}: {dir_a} vs {dir_b}")
    return lines, differs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    args = ap.parse_args(argv)
    lines, differs = compare(args.dir_a, args.dir_b)
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
