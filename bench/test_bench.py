"""Smoke test of the benchmark itself, on tiny configs.

Run from the repository root:

    python3 -m pytest bench

Uses a 1-point, 20 us sweep and the default burst demodulated on one
channel, so it takes well under a minute. It checks that every declared
metric is printed with its unit, that traced and untraced artifacts hash
the same, that a corrupted reference figure is counted as a failed
operation, that the definitions in BENCHMARK.json and spec.json agree,
that the host-speed probe leaves its caller's peak memory alone, and that
the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import probe
import run as bench

TINY = {
    "sweep": {
        "call": "run_sweep",
        "config": [
            "sweep.start = 5.5ghz",
            "sweep.stop = 5.5ghz",
            "sweep.duration = 20us",
            "metrics.n_fft = 4096",
        ],
        "channels": None,
    },
    "scm": {"call": "run_scm", "config": [], "channels": [1]},
}
SEED = 7
NO_FIGURES = {"figures": {}}


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(bench, "MIN_SETUPS", 1)


@pytest.fixture(scope="module")
def declared():
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def spec():
    return json.loads((bench.BENCH / "spec.json").read_text())


def exact_reference(workload: dict) -> dict:
    """Reference whose figures are this seed's own, with a zero-width tolerance."""
    bench.OUT_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="test-", dir=bench.OUT_ROOT))
    try:
        rep = bench.Session(work_dir).child(workload, SEED)
        figures = bench.headline_figures(workload, rep["out"])
    finally:
        shutil.rmtree(work_dir)
    return {"figures": {k: {"value": v, "tol": 0.0} for k, v in figures.items()}}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(trace, declared, capsys):
    summary = bench.measure(TINY["scm"], NO_FIGURES, SEED, 0, bool(trace))
    result = bench.report("scm", SEED, summary, declared, bool(trace))
    text = capsys.readouterr().out
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # one operation per repetition: the demodulated channel's task
    assert result["attempted"] == summary["reps"] + summary["traced_reps"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for m in wanted:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert f"{m['name']} " in text and f" {m['unit']}" in text
    assert "fail_frac    0.0000 ratio" in text
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_artifacts_hash_like_untraced(name):
    summary = bench.measure(TINY[name], NO_FIGURES, SEED, 0, True)
    assert summary["trace_identical"] and summary["deterministic"]
    assert summary["correct"]
    layers = summary["layers"]
    assert layers["runner.tasks"] == 1 and layers["runner.tasks_failed"] == 0
    if name == "sweep":
        assert layers["metrics.sine_metrics.calls"] == 1
        assert layers["comb.samples"] == 640_000  # 20 us at 32 GSa/s
    else:
        assert layers["demod.symbols"] == 1638
        assert layers["frontend.scm_waveform.calls"] == 1


def test_corrupted_reference_figure_counts_as_failed():
    workload = TINY["sweep"]
    reference = exact_reference(workload)
    assert len(reference["figures"]) == 3  # SFDR, SINAD, ENOB of one point
    clean = bench.measure(workload, reference, SEED, 0, False)
    assert clean["failed"] == 0 and clean["correct"]

    name = "5.5000GHz.sinad_db"
    reference["figures"][name]["value"] += 1.0
    corrupted = bench.measure(workload, reference, SEED, 0, False)
    assert corrupted["attempted"] == 4 * corrupted["reps"]  # 1 task + 3 figures
    assert corrupted["failed"] == corrupted["reps"]
    assert corrupted["bad_figures"] == [name]
    assert not corrupted["correct"]


def test_definitions_agree(declared, spec):
    assert [w["name"] for w in declared["workloads"]] == list(spec["workloads"])
    layer_metrics = [m for layer in spec["layers"].values() for m in layer["metrics"]]
    assert [m["name"] for m in declared["per_layer"]] == layer_metrics
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert e2e == {k: v["unit"] for k, v in spec["end_to_end"].items() if k in e2e}
    references = json.loads((bench.BENCH / "reference.json").read_text())
    for name in spec["workloads"]:
        assert references[name]["figures"]


def test_probe_leaves_caller_peak_memory_alone():
    # the probe runs between set-up and the run_* call, so it must not
    # raise the repetition's ru_maxrss, which peak_rss_mb reports; run in
    # this process, its arrays would add some 20 MiB, while the fork and
    # the pipe touch a few pages
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert probe.forked_measure() > 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 1024  # KiB


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
