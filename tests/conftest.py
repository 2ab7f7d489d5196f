"""Shared builders for the test suite.

Most tests need a small comb pair or a synthetic capture; building them
here keeps the individual files focused on the property under test.
"""

import numpy as np
import pytest

from combadc.adc import AdcConfig, SubbandCapture
from combadc.comb import LinkConfig, ScenarioCombs, flat_comb
from combadc.waveform import time_vector


def flatness_db(spec) -> float:
    """Max-to-min tone power ratio of a comb in dB."""
    return 20.0 * float(np.log10(spec.tone_amps.max() / spec.tone_amps.min()))


def make_combs(
    n_tones: int = 24,
    f_sig: float = 26e9,
    delta_f: float = 1e9,
    tilt_db: float = 0.0,
    drive_linewidth: float = 0.0,
    seed_linewidth: float = 5e3,
    drift: float = 0.0,
) -> ScenarioCombs:
    return ScenarioCombs(
        signal=flat_comb(n_tones, f_sig, tilt_db, drive_linewidth),
        lo=flat_comb(n_tones, f_sig + delta_f),
        seed_linewidth=seed_linewidth,
        differential_phase_drift=drift,
    )


def quiet_link(**overrides) -> LinkConfig:
    """Link with its noise terms off: no ASE beat, no CMRR leak, no thermal
    current. Tests switch a term back on by overriding its value; shot
    noise and TIA saturation are keyword switches of ``subband_beat``."""
    base = dict(
        osnr_db=np.inf,
        cmrr_db=np.inf,
        thermal_noise_density=0.0,
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
    step = full_scale / 2 ** (bits - 1)
    codes = np.clip(
        np.floor(x / step), -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    ).astype(np.int64)
    cfg = AdcConfig(bits=bits, rate=rate, full_scale=full_scale, aa_cutoff=None)
    return SubbandCapture(
        codes=codes,
        cfg=cfg,
        subband_index=1,
        full_scale_used=full_scale,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
