"""Record a labelled benchmark result under bench/results/.

Usage, from the repository root:

    python3 bench/record.py --label baseline --seeds 1 2

Runs ``bench/run.py`` on every workload for each seed, untraced and then
traced, with BENCHMARK.json's ``run_seconds``, and writes
``bench/results/BENCH_<label>.json`` with each run's result line and the
environment it printed. With two or more seeds, the later seeds are
held-out seeds: their ``run_s`` and ``peak_rss_mb`` must agree with the
first seed's within the BENCHMARK.json bounds, since cost must not depend
on the seed. The comparison is stored and printed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys

from run import BENCH, ROOT, load_json

HELD_OUT_METRICS = ("run_s", "peak_rss_mb")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l.split(None, 1)[1]) for l in lines if l.startswith("  env "))
    print(proc.stdout, flush=True)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": env,
        "result": json.loads(lines[-1]),
    }


def held_out(runs: list[dict], seeds: list[int], bounds: dict) -> dict:
    plain = {(r["workload"], r["seed"]): r["result"]["metrics"] for r in runs if not r["trace"]}
    table = {}
    for workload in sorted({w for w, _ in plain}):
        first = plain[(workload, seeds[0])]
        for seed in seeds[1:]:
            other = plain[(workload, seed)]
            for metric in HELD_OUT_METRICS:
                a, b = first[metric]["value"], other[metric]["value"]
                rel = b / a - 1.0
                table[f"{workload}/{metric}/seed{seed}"] = {
                    f"seed{seeds[0]}": a,
                    f"seed{seed}": b,
                    "rel_diff": rel,
                    "bound": bounds[metric],
                    "within": abs(rel) <= bounds[metric],
                }
    return table


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = p.parse_args()
    declared = load_json(ROOT / "BENCHMARK.json")
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    runs = []
    for trace in (0, 1):
        for seed in args.seeds:
            for w in declared["workloads"]:
                runs.append(run_once(w["name"], seed, seconds, trace))
    record = {
        "label": args.label,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "procedure": (
            f"python3 bench/run.py --workload <w> --seed <s> --seconds {seconds} "
            "--trace <0|1>; medians over fresh-interpreter repetitions"
        ),
        "seeds": args.seeds,
        "runs": runs,
    }
    if len(args.seeds) > 1:
        record["held_out"] = held_out(runs, args.seeds, bounds)
        for key, row in record["held_out"].items():
            print(f"held-out {key}: {row['rel_diff']:+.3%} (bound {row['bound']:.0%}) "
                  f"{'ok' if row['within'] else 'OUTSIDE'}")
    out = BENCH / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
