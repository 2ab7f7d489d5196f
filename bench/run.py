"""combadc benchmark: run one workload, time it, check its outputs.

Usage, from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (defined in bench/spec.json): ``sweep``, ``scm`` and
``spectrum-long``. Each repetition runs in a fresh interpreter
(bench/child.py) with BLAS/OpenMP threads capped at 1, so it pays its own
start-up and memory costs. Repetitions run back to back, one at a time,
until ``--seconds`` have passed (at least one). Set-up-only repetitions
top the set-up samples up to five. Every figure printed is a median over
the repetitions.

``setup_s`` and ``run_s`` are wall times corrected for the host's speed.
The host is a share of a larger machine whose speed swings by half or
more for tens of seconds at a time, so each repetition also times a fixed
host-speed probe (bench/probe.py) right after set-up and right after the
run, and scales its wall times by the probe's reference time over its
measured time. The uncorrected medians and the probe's median time are
printed beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, taken from spans recorded by wrapping the package's
public stage functions from outside (bench/tracer.py); it checks that the
traced artifacts hash the same as the untraced ones and reports the
tracing overhead on ``run_s``.

Outputs are checked on every repetition: each manifest task must be ``ok``
and each headline figure must lie within its tolerance in
bench/reference.json. Every task and every figure is one operation;
``fail_frac`` is failed over attempted. All repetitions of one seed must
write identical artifact bytes. Whether those match the sha256 recorded
for the seed is printed for information only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when the benchmark ran, whatever the outcome of the checks, and
non-zero when it could not run (for example when ``src/combadc`` is
missing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".bench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_SETUPS = 5
# every process this script starts must be done this long after it began
DEADLINE_S = 170.0

# band of the folded PAM4 channel in spectrum_chN.csv: DC up to
# scm.baseband_offset + scm.baud * (1 + scm.rolloff) / 2 at the defaults
IN_BAND_HZ = (0.0, 40e6 + 800e6 * 1.1 / 2)


class BenchError(Exception):
    """The benchmark could not run."""


def load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Session:
    """Starts child repetitions for one benchmark invocation."""

    def __init__(self, work_dir: Path, deadline: float | None = None):
        self.work_dir = work_dir
        self.deadline = deadline
        self.count = 0

    def child(
        self,
        workload: dict,
        seed: int,
        *,
        trace: bool = False,
        setup_only: bool = False,
        spans: Path | None = None,
    ) -> dict:
        self.count += 1
        out = self.work_dir / f"rep{self.count}"
        cmd = [
            sys.executable,
            str(BENCH / "child.py"),
            "--workload-json",
            json.dumps({key: workload[key] for key in ("call", "config", "channels")}),
            "--seed",
            str(seed),
            "--out",
            str(out),
            "--trace",
            "1" if trace else "0",
        ]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = None
        if self.deadline is not None:
            timeout = self.deadline - time.monotonic()
            if timeout <= 0:
                raise BenchError("out of time before a repetition could start")
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--launched", repr(launched)],
                env=child_env(),
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("a repetition ran past the deadline") from None
        if proc.returncode != 0:
            raise BenchError(
                f"repetition exited with code {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["out"] = out
        return result


def read_manifest(out: Path) -> tuple[list[str], dict[str, str]]:
    """Task statuses and artifact sha256s from a run's manifest.txt."""
    statuses, artifacts = [], {}
    for line in (out / "manifest.txt").read_text().splitlines():
        if line.startswith("# task "):
            statuses.append(line.split(" status=", 1)[1].split()[0])
        elif line.startswith("# artifact "):
            _, _, name, digest = line.split()
            artifacts[name] = digest.removeprefix("sha256=")
    return statuses, artifacts


def _read_csv(path: Path) -> list[list[str]]:
    rows = [
        line.split(",")
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    return rows[1:]  # header


def headline_figures(workload: dict, out: Path) -> dict[str, float]:
    """The figures a workload is judged by, read from its artifacts."""
    figures: dict[str, float] = {}
    call = workload["call"]
    if call == "run_sweep":
        for freq, sfdr, sinad, enob in _read_csv(out / "sweep.csv"):
            figures[f"{freq}GHz.sfdr_db"] = float(sfdr)
            figures[f"{freq}GHz.sinad_db"] = float(sinad)
            figures[f"{freq}GHz.enob_bits"] = float(enob)
    elif call == "run_scm":
        for channel, snr in _read_csv(out / "scm_snr.csv"):
            figures[f"ch{channel}.snr_db"] = float(snr)
    else:
        channel = workload["channels"][0]
        path = out / f"spectrum_ch{channel}.csv"
        if path.exists():
            rows = [(float(f), float(p)) for f, p in _read_csv(path)]
            lo, hi = IN_BAND_HZ
            inband = sum(10.0 ** (p / 10.0) for f, p in rows if lo < f <= hi)
            # the strongest bin's level, not its index: the PAM4 spectrum
            # is flat across the band, so the index is seed-random
            figures[f"ch{channel}.peak_power_db"] = max(p for _, p in rows)
            figures[f"ch{channel}.inband_power_db"] = 10.0 * math.log10(inband)
    return figures


def check_figures(figures: dict[str, float], reference: dict) -> list[str]:
    """Names of reference figures that are missing or outside tolerance."""
    bad = []
    for name, ref in reference["figures"].items():
        value = figures.get(name)
        if value is None or not abs(value - ref["value"]) <= ref["tol"]:
            bad.append(name)
    return bad


def artifact_bytes(out: Path, artifacts: dict[str, str]) -> int:
    return sum((out / name).stat().st_size for name in [*artifacts, "manifest.txt"])


def inspect_repetition(rep: dict, workload: dict, reference: dict) -> dict:
    """Add task, figure and artifact facts to a child's result."""
    out = rep["out"]
    statuses, artifacts = read_manifest(out)
    bad = check_figures(headline_figures(workload, out), reference)
    tasks_failed = sum(status != "ok" for status in statuses)
    rep.update(
        tasks=len(statuses),
        tasks_failed=tasks_failed,
        artifacts=artifacts,
        artifact_bytes=artifact_bytes(out, artifacts),
        bad_figures=bad,
        attempted=len(statuses) + len(reference["figures"]),
        failed=tasks_failed + len(bad),
    )
    shutil.rmtree(out)
    return rep


def environment(versions: dict) -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        **versions,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def measure(
    workload: dict,
    reference: dict,
    seed: int,
    seconds: float,
    trace: bool,
    spans_path: Path | None = None,
) -> dict:
    """Run one workload for ``seconds`` and return the checked summary."""
    started = time.monotonic()
    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT))
    session = Session(work_dir, started + DEADLINE_S)
    try:
        # fills the page cache and __pycache__ the way a second run finds them
        warm = session.child(workload, seed, setup_only=True)
        plain, traced = [], []
        t0 = time.monotonic()
        while not plain or time.monotonic() - t0 < seconds:
            plain.append(
                inspect_repetition(session.child(workload, seed), workload, reference)
            )
            if trace:
                rep = session.child(workload, seed, trace=True, spans=spans_path)
                traced.append(inspect_repetition(rep, workload, reference))
        setups = list(plain)
        while len(setups) < MIN_SETUPS:
            setups.append(session.child(workload, seed, setup_only=True))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reps = plain + traced
    digests = {json.dumps(r["artifacts"], sort_keys=True) for r in plain}
    run_s = [r["run_s"] for r in plain]
    summary = {
        "reps": len(plain),
        "traced_reps": len(traced),
        "setup_only": len(setups) - len(plain),
        "setup_s": median([r["setup_s"] for r in setups]),
        "setup_wall_s": median([r["setup_wall_s"] for r in setups]),
        "run_s": median(run_s),
        "run_s_range": (min(run_s), max(run_s)),
        "run_wall_s": median([r["run_wall_s"] for r in plain]),
        "probe_s": median(
            [r["probe_setup_s"] for r in setups] + [r["probe_run_s"] for r in plain]
        ),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "bad_figures": sorted({name for r in reps for name in r["bad_figures"]}),
        "deterministic": len(digests) == 1,
        "artifacts": plain[0]["artifacts"],
        "env": environment(warm["versions"]),
        "elapsed_s": time.monotonic() - started,
    }
    recorded = reference.get("sha256", {}).get(str(seed))
    summary["sha256_recorded"] = None if recorded is None else recorded == summary["artifacts"]
    if trace:
        layers = {
            key: median([r["layers"][key] for r in traced]) for key in traced[0]["layers"]
        }
        traced_run_s = median([r["run_s"] for r in traced])
        layers.update(
            {
                "runner.tasks": traced[0]["tasks"],
                "runner.tasks_failed": traced[0]["tasks_failed"],
                "runner.artifact_bytes": traced[0]["artifact_bytes"],
                "trace.run_s": traced_run_s,
                "trace.overhead_s": traced_run_s - summary["run_s"],
            }
        )
        summary["layers"] = layers
        summary["trace_identical"] = all(
            r["artifacts"] == summary["artifacts"] for r in traced
        )
    summary["correct"] = (
        summary["failed"] == 0
        and summary["deterministic"]
        and summary.get("trace_identical", True)
    )
    return summary


def report(name: str, seed: int, summary: dict, declared: dict, trace: bool) -> dict:
    """Print the human-readable report and return the result object."""
    s = summary
    fail_frac = s["failed"] / s["attempted"]
    print(
        f"workload {name}  seed {seed}  repetitions {s['reps']}"
        + (f" + {s['traced_reps']} traced" if trace else "")
        + f"  set-up only {s['setup_only']}  elapsed {s['elapsed_s']:.1f} s"
    )
    print(f"  setup_s      {s['setup_s']:.4f} s  (wall {s['setup_wall_s']:.4f} s)")
    lo, hi = s["run_s_range"]
    print(
        f"  run_s        {s['run_s']:.4f} s  (min {lo:.4f}, max {hi:.4f}; "
        f"wall {s['run_wall_s']:.4f} s)"
    )
    print(f"  peak_rss_mb  {s['peak_rss_mb']:.2f} MiB")
    print(
        f"  fail_frac    {fail_frac:.4f} ratio  "
        f"({s['failed']} of {s['attempted']} operations failed)"
    )
    print(f"  host-speed probe {s['probe_s']:.4f} s")
    if s["bad_figures"]:
        print(f"  figures outside tolerance: {', '.join(s['bad_figures'])}")
    print(f"  artifacts identical across repetitions: {s['deterministic']}")
    if trace:
        print(f"  traced artifacts identical to untraced: {s['trace_identical']}")
    recorded = {None: "no record for this seed", True: "yes", False: "no"}
    print(f"  artifacts match recorded sha256 (information only): {recorded[s['sha256_recorded']]}")
    print(f"  env {json.dumps(s['env'], sort_keys=True)}")

    if trace:
        values = s["layers"]
        wanted = declared["per_layer"]
        for m in wanted:
            print(f"  {m['name']:34s} {values[m['name']]:.6g} {m['unit']}")
    else:
        values = s
        wanted = declared["end_to_end"]
    return {
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        if not (ROOT / "src" / "combadc" / "__init__.py").is_file():
            raise BenchError(f"no combadc sources under {ROOT / 'src'}")
        declared = load_json(ROOT / "BENCHMARK.json")
        spec = load_json(BENCH / "spec.json")
        references = load_json(BENCH / "reference.json")
        if args.workload not in spec["workloads"]:
            raise BenchError(
                f"unknown workload {args.workload!r}; choose from {sorted(spec['workloads'])}"
            )
        spans_path = None
        if args.trace:
            spans_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
        summary = measure(
            spec["workloads"][args.workload],
            references[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            spans_path,
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = report(args.workload, args.seed, summary, declared, bool(args.trace))
    if spans_path is not None:
        print(f"  spans of the last traced repetition: {spans_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
