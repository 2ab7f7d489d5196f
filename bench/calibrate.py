"""Regenerate bench/reference.json, the reference the output check uses.

Usage, from the repository root:

    python3 bench/calibrate.py

Each workload runs once per calibration seed (untimed). A headline
figure's reference value is its mean over those seeds and its tolerance is
``K_SIGMA`` sample standard deviations, never less than the figure's
floor. The bench judges runs on arbitrary seeds, so the tolerance has to
cover seed-to-seed spread; a change that only redraws noise (a new noise
realization per seed) stays inside it, and a wrong result does not. The
sha256 of every artifact is recorded for the calibration seeds and for
RECORD_SEEDS (the benchmark's own seed and the held-out seed), for the
information-only byte-identity line of bench/run.py.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from run import BENCH, OUT_ROOT, Session, headline_figures, load_json, read_manifest

CALIBRATION_SEEDS = tuple(range(1001, 1021))
RECORD_SEEDS = (1, 2)
K_SIGMA = 6.0
# smallest tolerance per figure suffix, in the figure's own unit
FLOORS = {"_db": 0.05, "_bits": 0.01}


def floor_for(name: str) -> float:
    return next(v for suffix, v in FLOORS.items() if name.endswith(suffix))


def calibrate(workload: dict, session: Session) -> dict:
    samples: dict[str, list[float]] = {}
    sha256 = {}
    for seed in CALIBRATION_SEEDS + RECORD_SEEDS:
        rep = session.child(workload, seed)
        statuses, artifacts = read_manifest(rep["out"])
        if any(status != "ok" for status in statuses):
            sys.exit(f"seed {seed}: a task failed, no reference can be set")
        sha256[str(seed)] = artifacts
        if seed in CALIBRATION_SEEDS:
            for name, value in headline_figures(workload, rep["out"]).items():
                samples.setdefault(name, []).append(value)
        shutil.rmtree(rep["out"])
    figures = {}
    for name, values in samples.items():
        sd = statistics.stdev(values)
        figures[name] = {
            "value": statistics.fmean(values),
            "tol": max(K_SIGMA * sd, floor_for(name)),
            "sd": sd,
            "min": min(values),
            "max": max(values),
        }
    return {"figures": figures, "sha256": sha256}


def main() -> None:
    spec = load_json(BENCH / "spec.json")
    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="calibrate-", dir=OUT_ROOT))
    session = Session(work_dir)
    reference = {
        "rule": (
            f"value = mean over calibration seeds; tol = max({K_SIGMA:g} x sample sd, "
            f"floor {FLOORS})"
        ),
        "calibration_seeds": list(CALIBRATION_SEEDS),
        "recorded_seeds": list(RECORD_SEEDS),
    }
    try:
        for name, workload in spec["workloads"].items():
            t0 = time.monotonic()
            reference[name] = calibrate(workload, session)
            print(f"{name}: {time.monotonic() - t0:.0f} s", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
