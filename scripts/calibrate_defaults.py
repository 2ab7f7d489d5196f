#!/usr/bin/env python3
"""Reproduce the measurements behind the shipped default scenario.

Two calibrations live in the defaults and this script re-derives both:

1. Comb shape: the cascaded-modulator comb generator has a phase-modulation
   depth knob; the default (18.2 rad, with a 1.6 rad intensity stage) comes
   from a small grid search for the flattest 24-tone comb.  Section A prints
   that grid.

2. Noise budget: the PAM4 drive level (DAC clip interference), the
   receiver thermal density and a small comb amplitude tilt jointly set a
   3.64 dB sweep SINAD decline from 0.5 to 10.5 GHz, a channel-1 SNR of
   19.72 dB, a 1.82 dB channel-1..10 decline and a 2.77 dB
   single-channel-mute improvement.  Those are what the default cell (the
   shipped one) prints at the default master seed, 12345: one seed, not
   an average.  Section B measures any requested grid cell.

Run time is about 2 s per noise-budget cell at --jobs 2; the comb grid is
instant.

    python3 scripts/calibrate_defaults.py
    python3 scripts/calibrate_defaults.py --drive 0.46,0.48,0.50 --tilt 0,2
"""

import argparse
import os
import tempfile
import time

from combadc import SignalError, comb_from_cascade, load_config, run_scm, run_sweep


def comb_flatness_grid(n_tones: int = 24) -> tuple[float, float, float]:
    """Print the grid; return the flattest cell as (flatness_db, pm, im)."""
    print(f"A. cascade comb flatness over the first {n_tones} tones")
    print("   pm_rad   im_depth   flatness_db")
    import numpy as np

    best = None
    for pm in (12.0, 15.0, 17.2, 18.2, 19.0):
        for im in (0.0, 1.25, 1.5, 1.6):
            try:
                amps = comb_from_cascade(pm, im, n_tones)
            except SignalError:
                print(f"   {pm:5.2f}    {im:5.2f}      too few usable lines")
                continue
            p = 20 * np.log10(amps)
            flat = float(p.max() - p.min())
            mark = ""
            if best is None or flat < best[0]:
                best = (flat, pm, im)
                mark = "  <- best so far"
            print(f"   {pm:5.2f}    {im:5.2f}      {flat:6.2f}{mark}")
    print(f"   flattest: pm={best[1]}, im={best[2]} ({best[0]:.2f} dB)\n")
    return best


def _rows(path: str) -> list[list[str]]:
    """Data rows of a CSV artifact, header dropped."""
    with open(path) as fh:
        return [line.split(",") for line in fh.read().strip().splitlines()[1:]]


def budget_cell(drive: float, thermal: float, tilt: float, jobs: int) -> None:
    base = (
        f"scm.drive_rms = {drive}\n"
        f"link.thermal_noise_density = {thermal}\n"
        f"combs.tone_tilt_db = {tilt}\n"
    )
    t0 = time.time()

    with tempfile.TemporaryDirectory() as out:
        sweep_dir, scm_dir, mute_dir = (os.path.join(out, d) for d in ("sweep", "scm", "mute"))
        cfg = load_config(base + "sweep.start = 0.5ghz\nsweep.stop = 10.5ghz\nsweep.step = 2.5ghz\n")
        run_sweep(cfg, sweep_dir, jobs=jobs)
        rows = _rows(os.path.join(sweep_dir, "sweep.csv"))
        sinad = [float(r[2]) for r in rows]
        sfdr = [float(r[1]) for r in rows]

        run_scm(load_config(base), scm_dir, jobs=jobs)
        snr = dict(_rows(os.path.join(scm_dir, "scm_snr.csv")))
        run_scm(load_config(base + "scm.active_channels = 1\n"), mute_dir, jobs=1)
        alone = float(_rows(os.path.join(mute_dir, "scm_snr.csv"))[0][1])

    ch1, ch10 = float(snr["1"]), float(snr["10"])
    print(
        f"   drive={drive:.3f} thermal={thermal:.2e} tilt={tilt:.1f}: "
        f"sweep SINAD {sinad[0]:.2f}..{sinad[-1]:.2f} (decline {sinad[0] - sinad[-1]:.2f}, "
        f"SFDR>={min(sfdr):.1f})  ch1 {ch1:.2f}  ch1-ch10 {ch1 - ch10:.2f}  "
        f"mute gain {alone - ch1:.2f}   [{time.time() - t0:.0f}s]"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--drive", default="0.48", help="comma list of scm.drive_rms values")
    ap.add_argument("--thermal", default="4.4e-11", help="comma list of thermal densities")
    ap.add_argument("--tilt", default="2.0", help="comma list of comb tilts (dB)")
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--skip-comb", action="store_true")
    args = ap.parse_args()

    if not args.skip_comb:
        comb_flatness_grid()

    print(
        "B. noise-budget grid (targets, the default cell at seed 12345: "
        "sweep decline 3.64, ch1 19.72, ch1-ch10 1.82, mute 2.77)"
    )
    for drive in (float(v) for v in args.drive.split(",")):
        for thermal in (float(v) for v in args.thermal.split(",")):
            for tilt in (float(v) for v in args.tilt.split(",")):
                budget_cell(drive, thermal, tilt, args.jobs)


if __name__ == "__main__":
    main()
