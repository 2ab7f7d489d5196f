"""Shared builders for the test suite.

Most tests need a small comb pair or a synthetic capture; building them
here keeps the individual files focused on the property under test.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from combadc.adc import AdcConfig, SubbandCapture
from combadc.comb import LinkConfig, ScenarioCombs, flat_comb
from combadc.frontend import quantize_midrise
from combadc.waveform import time_vector


def flatness_db(amps) -> float:
    """Max-to-min tone power ratio of a comb's amplitudes in dB."""
    return 20.0 * float(np.log10(amps.max() / amps.min()))


def make_combs(
    n_tones: int = 24,
    delta_f: float = 1e9,
    tilt_db: float = 0.0,
    linewidth: float = 0.0,
    drift: float = 0.0,
) -> ScenarioCombs:
    return ScenarioCombs(
        signal_amps=flat_comb(n_tones, tilt_db),
        lo_amps=flat_comb(n_tones),
        delta_f=delta_f,
        linewidth=linewidth,
        differential_phase_drift=drift,
    )


def quiet_link(**overrides) -> LinkConfig:
    """Link with its noise terms off: no ASE beat, no CMRR leak, no thermal
    current, no shot noise and no TIA saturation. Tests switch a term back
    on by overriding its value."""
    base = dict(
        osnr_db=np.inf,
        cmrr_db=np.inf,
        thermal_noise_density=0.0,
        shot=False,
        tia_sat_dbm=np.inf,
    )
    base.update(overrides)
    return LinkConfig(**base)


def tone_capture(
    freq: float,
    amplitude: float = 0.9999,
    rate: float = 1e9,
    n: int = 70000,
    bits: int = 14,
    noise_rms: float = 0.0,
    seed: int = 7,
    full_scale: float = 1.0,
) -> SubbandCapture:
    """Synthetic already-digitized capture, no analog chain involved."""
    t = time_vector(n, rate)
    x = amplitude * np.cos(2.0 * np.pi * freq * t)
    if noise_rms > 0.0:
        x = x + np.random.default_rng(seed).normal(0.0, noise_rms, n)
    cfg = AdcConfig(bits=bits, rate=rate, full_scale=full_scale, aa_cutoff=None)
    return SubbandCapture(
        codes=quantize_midrise(x, bits, full_scale),
        cfg=cfg,
        full_scale_used=full_scale,
    )


_PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as status:
        return int(status.read().split("VmHWM:")[1].split()[0])
"""


def child_peak(script: str) -> list[int]:
    """Run ``script`` in a fresh Python child that imports the package from
    this checkout and defines ``peak_kib()``, the child's own peak resident
    set (its VmHWM, in KiB); return the integers the script prints.

    The child's ``ru_maxrss`` would not do: on Linux it starts at the
    spawning process's peak, so under a test process larger than the child
    a rise reads 0.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_KIB + script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    return [int(v) for v in done.stdout.split()]


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
