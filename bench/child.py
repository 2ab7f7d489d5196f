"""One benchmark repetition, in a fresh interpreter.

Imports numpy, scipy and combadc from the checkout's ``src``, parses the
workload config, makes the single ``run_*`` call with ``jobs=1`` and prints
one JSON line: ``setup_wall_s`` (from ``--launched``, the parent's
monotonic clock reading taken just before it started this process, to the
end of ``load_config``), ``run_wall_s``, ``peak_rss_mb``, the library
versions, and the host-speed probe's time right after set-up
(``probe_setup_s``) and right after the run (``probe_run_s``). ``setup_s``
and ``run_s`` are the wall times corrected for the host's speed (see
probe.py): each is scaled by ``probe.REFERENCE_S`` over the probe time
next to it, the set-up probe for set-up and the mean of both for the run.
The process pins itself to the CPU it started on, so the probes and the
run share it.
With ``--trace 1`` the public stage functions are wrapped from outside
(see tracer.py) before ``load_config``, the spans are written to
``--spans`` at the end and their per-layer reduction is added to the line.

bench/run.py starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        stat = Path("/proc/self/stat").read_text()
        return int(stat.rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return min(os.sched_getaffinity(0))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload-json", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--launched", type=float, required=True)
    args = p.parse_args()
    workload = json.loads(args.workload_json)
    os.sched_setaffinity(0, {current_cpu()})

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import combadc

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        spec = json.loads((BENCH / "spec.json").read_text())
        tracer = Tracer(spec["layers"])
        tracer.install(combadc)

    lines = workload["config"] + [f"run.master_seed = {args.seed}"]
    cfg = combadc.load_config("\n".join(lines) + "\n")
    result = {
        "setup_wall_s": time.monotonic() - args.launched,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    import probe

    result["probe_setup_s"] = probe.forked_measure()
    result["setup_s"] = result["setup_wall_s"] * probe.REFERENCE_S / result["probe_setup_s"]
    if not args.setup_only:
        call = workload["call"]
        channels = workload["channels"]
        t0 = time.perf_counter()
        try:
            if call == "run_sweep":
                combadc.run_sweep(cfg, args.out, jobs=1)
            elif call == "run_scm":
                combadc.run_scm(cfg, args.out, jobs=1, channels=channels)
            elif call == "run_spectrum":
                combadc.run_spectrum(cfg, args.out, channel=channels[0])
            else:
                raise SystemExit(f"unknown workload call {call!r}")
        except combadc.CombAdcError:
            # run_spectrum raises after writing the manifest that marks
            # its task failed; the parent counts it from the manifest
            pass
        result["run_wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.setup_only:
        result["probe_run_s"] = probe.forked_measure()
        speed = probe.REFERENCE_S / ((result["probe_setup_s"] + result["probe_run_s"]) / 2)
        result["run_s"] = result["run_wall_s"] * speed
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
