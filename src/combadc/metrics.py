"""Sine-test metrics: SFDR, SINAD, ENOB over the folded sub-band.

The analysis stream is the capture resampled to the slice width δf, so
one sub-band occupies the 0 to δf/2 half-band. Metrics integrate bin
powers from an averaged periodogram; the windows are power-normalized, so
every figure is a pure ratio and indifferent to absolute capture gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SignalError
from .waveform import SampledWaveform, periodogram, resample_waveform

__all__ = [
    "MetricsConfig",
    "MetricsReport",
    "check_analysis_grid",
    "fold_bins",
    "sine_metrics",
]

# folded test tones are kept inside this window, in thousandths of δf:
# above the converter's AC-coupling notch with margin, below the
# detector filter edge
FOLD_PER_MILLE = (170, 455)

# AC-coupled region excluded from the default analysis band
_NOTCH_HZ = 10e6

# bins on each side of the fundamental's peak counted as its power
GUARD_BINS = 3


@dataclass
class MetricsConfig:
    """The sine test's set-up: an ``n_avg``-fold averaged ``n_fft``-point
    periodogram of the analysis stream, and the tone grid with its window."""

    n_fft: int = 16384
    n_avg: int = 4
    # snap tones onto the analysis FFT grid (coherent test) and score them
    # through a rectangular window; off means off-grid frequencies scored
    # through a 4-term Blackman-Harris window
    snap: bool = True
    # widen the analysis band down to DC, over the AC-coupling notch
    include_notch_band: bool = False

    def __post_init__(self):
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise SignalError(f"n_fft must be a power of two >= 2, got {self.n_fft}")
        if self.n_avg < 1:
            raise SignalError(f"n_avg must be at least 1, got {self.n_avg}")


@dataclass
class MetricsReport:
    sfdr_db: float
    sinad_db: float
    enob_bits: float
    fundamental_hz: float


def fold_bins(n_fft: int, delta_f: float) -> tuple[float, int, int]:
    """The bin spacing of ``n_fft`` bins across a ``delta_f``-wide slice, and
    the first and last bin inside the fold window, the same at any ``delta_f``
    (the last below the first when no bin falls inside)."""
    lo, hi = FOLD_PER_MILLE
    return delta_f / n_fft, -(-lo * n_fft // 1000), hi * n_fft // 1000


def check_analysis_grid(n_fft: int, delta_f: float) -> None:
    """Raise SignalError when ``n_fft`` analysis bins cannot score a folded tone.

    A snapped tone needs a grid bin inside the fold window, and SINAD
    needs analysis-band bins left once the fundamental's peak and
    ``GUARD_BINS`` on each side of it are taken out.
    """
    grid, bin_lo, bin_hi = fold_bins(n_fft, delta_f)
    if bin_lo > bin_hi:
        lo, hi = FOLD_PER_MILLE
        raise SignalError(
            f"the {n_fft}-point, {grid / 1e6:g} MHz analysis grid has no bin "
            f"inside the fold window, {lo / 10:g}-{hi / 10:g} % of delta_f"
        )
    band = n_fft // 2 - int(_NOTCH_HZ // grid)
    span = 2 * GUARD_BINS + 1
    if band <= span:
        raise SignalError(
            f"the {n_fft}-point analysis band holds {band} bins of {grid / 1e6:g} "
            f"MHz, no more than the {span} the fundamental and its guard bins take"
        )


def sine_metrics(
    wave: SampledWaveform,
    expected_baseband_hz: float,
    cfg: MetricsConfig,
    analysis_rate: float,
) -> MetricsReport:
    """Tone quality figures from one sub-band capture's waveform.

    The waveform is resampled to ``analysis_rate``, the fundamental is
    located within +-2 bins of the expected baseband frequency, and its
    power is summed over ``GUARD_BINS`` neighbors on each side. SINAD
    integrates everything else across the analysis band (10 MHz to half
    ``analysis_rate``, from 0 with ``cfg.include_notch_band``); SFDR compares
    against the single largest non-fundamental bin in the same band. A
    snapped tone (``cfg.snap``) sits on the grid and is scored through a
    rectangular window, any other through a 4-term Blackman-Harris one.
    """
    stream = resample_waveform(wave, analysis_rate)

    need = cfg.n_fft * cfg.n_avg
    if stream.n < need:
        raise SignalError(
            f"capture too short: {stream.n} samples at {analysis_rate:g} Sa/s, "
            f"need {need}"
        )
    # drop rate-conversion / coupling transients where length allows
    skip = min(1024, (stream.n - need) // 2)
    x = SampledWaveform(stream.samples[skip : skip + need], analysis_rate)

    window = "rectangular" if cfg.snap else "blackman-harris-4term"
    spec = periodogram(x, n_fft=cfg.n_fft, n_avg=cfg.n_avg, window=window)
    p = spec.power_linear

    f_lo = 0.0 if cfg.include_notch_band else _NOTCH_HZ
    f_hi = analysis_rate / 2.0
    band = spec.band_mask(f_lo, f_hi)

    expected_bin = int(round(expected_baseband_hz / spec.rbw))
    lo = max(expected_bin - 2, 0)
    hi = min(expected_bin + 2, p.size - 1)
    peak = lo + int(np.argmax(p[lo : hi + 1]))

    in_band_med = np.median(p[band])
    if p[peak] < in_band_med * 100.0:
        raise SignalError(
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
        raise SignalError("analysis band holds no power outside the fundamental")

    sinad = 10.0 * np.log10(p_fund / p_other)
    sfdr = 10.0 * np.log10(p_fund / float(p[rest].max()))
    return MetricsReport(
        sfdr_db=sfdr,
        sinad_db=sinad,
        enob_bits=(sinad - 1.76) / 6.02,
        fundamental_hz=peak * spec.rbw,
    )
