"""Sine-test metrics: SFDR, SINAD, ENOB over the folded sub-band.

The analysis stream is the capture resampled to 1 GSa/s, so one sub-band
occupies the 0-500 MHz half-band. Metrics integrate bin powers from an
averaged periodogram; because the windows are power-normalized, every
figure here is a pure ratio and indifferent to absolute capture gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adc import SubbandCapture
from .errors import MeasurementError, SignalError
from .waveform import SampledWaveform, periodogram, resample_waveform

__all__ = ["MetricsReport", "check_analysis_grid", "sine_metrics"]

ANALYSIS_RATE = 1e9

# folded test tones are kept inside this window: above the converter's
# AC-coupling notch with margin, below the detector filter edge
FOLD_WINDOW_HZ = (170e6, 455e6)

# AC-coupled region excluded from the default analysis band
_NOTCH_HZ = 10e6

# bins on each side of the fundamental's peak counted as its power
GUARD_BINS = 3


@dataclass
class MetricsReport:
    sfdr_db: float
    sinad_db: float
    enob_bits: float
    fundamental_hz: float
    analysis_band: tuple[float, float]


def check_analysis_grid(n_fft: int) -> None:
    """Raise SignalError when ``n_fft`` analysis bins cannot score a folded tone.

    A snapped tone needs a grid bin inside ``FOLD_WINDOW_HZ``, and SINAD
    needs analysis-band bins left once the fundamental's peak and
    ``GUARD_BINS`` on each side of it are taken out.
    """
    grid = ANALYSIS_RATE / n_fft
    lo, hi = FOLD_WINDOW_HZ
    if np.ceil(lo / grid) > np.floor(hi / grid):
        raise SignalError(
            f"the {n_fft}-point, {grid / 1e6:g} MHz analysis grid has no bin "
            f"inside the {lo / 1e6:g}-{hi / 1e6:g} MHz fold window"
        )
    band = n_fft // 2 - int(_NOTCH_HZ // grid)
    span = 2 * GUARD_BINS + 1
    if band <= span:
        raise SignalError(
            f"the {n_fft}-point analysis band holds {band} bins of {grid / 1e6:g} "
            f"MHz, no more than the {span} the fundamental and its guard bins take"
        )


def sine_metrics(
    cap: SubbandCapture | SampledWaveform,
    expected_baseband_hz: float,
    *,
    analysis_rate: float = ANALYSIS_RATE,
    n_fft: int = 16384,
    n_avg: int = 4,
    window: str = "rectangular",
    include_notch: bool = False,
) -> MetricsReport:
    """Tone quality figures from one sub-band capture.

    The capture is resampled to ``analysis_rate``, the fundamental is
    located within +-2 bins of the expected baseband frequency, and its
    power is summed over ``GUARD_BINS`` neighbors on each side. SINAD
    integrates everything else across the analysis band (default 10 to
    500 MHz, widened to 0 to 500 MHz by ``include_notch``); SFDR compares
    against the single largest non-fundamental bin in the same band.
    """
    wave = cap.to_waveform() if isinstance(cap, SubbandCapture) else cap
    stream = resample_waveform(wave, analysis_rate)

    need = n_fft * n_avg
    if stream.n < need:
        raise MeasurementError(
            f"capture too short: {stream.n} samples at {analysis_rate:g} Sa/s, "
            f"need {need}"
        )
    # drop rate-conversion / coupling transients where length allows
    skip = min(1024, (stream.n - need) // 2)
    x = SampledWaveform(stream.samples[skip : skip + need], analysis_rate)

    spec = periodogram(x, n_fft=n_fft, n_avg=n_avg, window=window)
    p = spec.power_linear

    f_lo = 0.0 if include_notch else _NOTCH_HZ
    f_hi = analysis_rate / 2.0
    band = spec.band_mask(f_lo, f_hi)

    expected_bin = int(round(expected_baseband_hz / spec.rbw))
    lo = max(expected_bin - 2, 0)
    hi = min(expected_bin + 2, p.size - 1)
    peak = lo + int(np.argmax(p[lo : hi + 1]))

    in_band_med = np.median(p[band])
    if p[peak] < in_band_med * 100.0:
        raise MeasurementError(
            f"no fundamental near {expected_baseband_hz:g} Hz: peak bin only "
            f"{10 * np.log10(p[peak] / in_band_med):.1f} dB above the median floor"
        )

    g_lo = max(peak - GUARD_BINS, 0)
    g_hi = min(peak + GUARD_BINS, p.size - 1)
    p_fund = float(p[g_lo : g_hi + 1].sum())

    rest = band.copy()
    rest[g_lo : g_hi + 1] = False
    p_other = float(p[rest].sum())
    if p_other <= 0.0:
        raise MeasurementError("analysis band holds no power outside the fundamental")

    sinad = 10.0 * np.log10(p_fund / p_other)
    sfdr = 10.0 * np.log10(p_fund / float(p[rest].max()))
    return MetricsReport(
        sfdr_db=sfdr,
        sinad_db=sinad,
        enob_bits=(sinad - 1.76) / 6.02,
        fundamental_hz=peak * spec.rbw,
        analysis_band=(f_lo, f_hi),
    )
