import numpy as np
import pytest

from combadc.errors import SignalError
from combadc.metrics import MetricsConfig, sine_metrics
from combadc.waveform import SampledWaveform, time_vector

from conftest import tone_capture

RATE = 1e9
N_FFT = 16384
RBW = RATE / N_FFT
N = N_FFT * 4 + 2048
DEFAULT = MetricsConfig()
WIDE = MetricsConfig(include_notch_band=True)


def _constructed_capture(snr_db=40.0, spur_dbc=None, amp=0.9, k_fund=2561, seed=12):
    """Sine plus white noise with an exactly known in-band ratio.

    The noise variance is solved from the analysis-band bin count so the
    in-band noise power sits ``snr_db`` below the tone: an independent
    oracle for the metric, not a readback of it.
    """
    t = time_vector(N, RATE)
    x = amp * np.cos(2.0 * np.pi * (k_fund * RBW) * t)
    n_band = 8192 - 163 - 7  # interior bins above 10 MHz minus the guard
    sigma2 = (amp**2 / 2.0) * 10 ** (-snr_db / 10.0) * 8192 / n_band
    x = x + np.random.default_rng(seed).normal(0.0, np.sqrt(sigma2), N)
    if spur_dbc is not None:
        a_spur = amp * 10 ** (spur_dbc / 20.0)
        x = x + a_spur * np.cos(2.0 * np.pi * (3413 * RBW) * t)
    return SampledWaveform(x, RATE)


def test_sinad_matches_constructed_snr():
    rep = sine_metrics(_constructed_capture(40.0), 2561 * RBW, DEFAULT, RATE)
    assert rep.sinad_db == pytest.approx(40.0, abs=0.3)
    assert rep.fundamental_hz == pytest.approx(2561 * RBW)


def test_sfdr_reads_injected_spur():
    wave = _constructed_capture(40.0, spur_dbc=-45.0)
    rep = sine_metrics(wave, 2561 * RBW, DEFAULT, RATE)
    assert rep.sfdr_db == pytest.approx(45.0, abs=0.3)
    assert rep.sinad_db < 40.0  # the spur also counts against SINAD


def test_enob_definition():
    rep = sine_metrics(_constructed_capture(40.0), 2561 * RBW, DEFAULT, RATE)
    assert rep.enob_bits == (rep.sinad_db - 1.76) / 6.02


def test_metrics_gain_invariant():
    wave = _constructed_capture(35.0)
    a = sine_metrics(wave, 2561 * RBW, DEFAULT, RATE)
    louder = SampledWaveform(wave.samples * 12.5, RATE)
    b = sine_metrics(louder, 2561 * RBW, DEFAULT, RATE)
    assert b.sinad_db == pytest.approx(a.sinad_db, abs=1e-9)
    assert b.sfdr_db == pytest.approx(a.sfdr_db, abs=1e-9)


def test_metrics_accepts_quantized_capture():
    f = 2561 * RBW
    cap = tone_capture(f)
    rep = sine_metrics(cap.to_waveform(), f, DEFAULT, RATE)
    assert rep.sinad_db == pytest.approx(6.02 * 14 + 1.76, abs=1.0)


def test_notch_flag_widens_band():
    # park a strong extra tone below the coupling notch: invisible by
    # default, dominant once the notch is included
    t = time_vector(N, RATE)
    wave = _constructed_capture(60.0)
    low = 0.2 * np.cos(2.0 * np.pi * (82 * RBW) * t)  # ~5 MHz
    x = SampledWaveform(wave.samples + low, RATE)
    narrow = sine_metrics(x, 2561 * RBW, DEFAULT, RATE)
    wide = sine_metrics(x, 2561 * RBW, WIDE, RATE)
    assert narrow.sinad_db - wide.sinad_db > 10.0


def test_no_fundamental_raises():
    noise = np.random.default_rng(3).normal(0.0, 1.0, N)
    with pytest.raises(SignalError, match="no fundamental"):
        sine_metrics(SampledWaveform(noise, RATE), 2561 * RBW, DEFAULT, RATE)


def test_short_capture_raises():
    x = SampledWaveform(np.zeros(1000), RATE)
    with pytest.raises(SignalError, match="too short"):
        sine_metrics(x, 100e6, DEFAULT, RATE)


# ------------------------------------------- IEEE Std 1241 sine-fit oracle


def _four_parameter_fit(y, rate, f_start, iterations=30):
    """Four-parameter sine fit of IEEE Std 1241 (4.1.4.3).

    Least squares on y ~ A cos(wn) + B sin(wn) + C, the frequency w
    refined each pass by a linearized fourth column
    n * (-A sin(wn) + B cos(wn)). Returns (amplitude, frequency,
    residual), independent of any spectral estimate.
    """
    n = np.arange(y.size, dtype=np.float64)
    w = 2.0 * np.pi * f_start / rate
    cols = [np.cos(w * n), np.sin(w * n), np.ones_like(n)]
    a, b, _ = np.linalg.lstsq(np.column_stack(cols), y, rcond=None)[0]
    for _ in range(iterations):
        c, s = np.cos(w * n), np.sin(w * n)
        design = np.column_stack([c, s, np.ones_like(n), n * (b * c - a * s)])
        a, b, _, dw = np.linalg.lstsq(design, y, rcond=None)[0]
        w += dw
        if abs(dw) < 1e-15:
            break
    c, s = np.cos(w * n), np.sin(w * n)
    fitted = np.linalg.lstsq(np.column_stack([c, s, np.ones_like(n)]), y, rcond=None)[0]
    residual = y - np.column_stack([c, s, np.ones_like(n)]) @ fitted
    return np.hypot(fitted[0], fitted[1]), w * rate / (2.0 * np.pi), residual


def _fit_figures(y, rate, f_start, full_scale_range):
    amp, freq, residual = _four_parameter_fit(y, rate, f_start)
    nad = np.sqrt(np.mean(residual**2))  # rms noise and distortion
    sinad = 20.0 * np.log10(amp / np.sqrt(2.0) / nad)
    enob = np.log2(full_scale_range / (nad * np.sqrt(12.0)))
    return freq, sinad, enob


# The fit sees every sample; sine_metrics leaves the 7 guard bins around
# the tone out of its noise sum (7 of 8193 bins, 0.004 dB for white
# noise). With the notch band included both span 0 to Nyquist, so SINAD
# must agree to 0.02 dB. The fit starts 0.05 analysis bin (0.2 bin of the
# whole record, inside the linearization's reach) off the tone and must
# land on it. IEEE ENOB uses the converter's range, sine_metrics the
# 1.76/6.02 rule; they agree for a tone spanning the range (0.01 bit).


def test_sine_fit_oracle_on_quantized_tone():
    f = 2561 * RBW
    cap = tone_capture(f, amplitude=0.999, n=N_FFT * 4, bits=8)
    rep = sine_metrics(cap.to_waveform(), f, WIDE, RATE)
    freq, sinad, enob = _fit_figures(cap.values(), RATE, f + 0.05 * RBW, 2.0)
    assert freq == pytest.approx(f, abs=1e-6 * RBW)
    assert rep.sinad_db == pytest.approx(sinad, abs=0.02)
    assert rep.enob_bits == pytest.approx(enob, abs=0.01)
    assert enob == pytest.approx(8.0, abs=0.05)  # ideal 8-bit quantizer


def test_sine_fit_oracle_on_tone_plus_noise():
    f = 3001 * RBW
    amp, sigma = 0.9, 0.9 / np.sqrt(2.0) * 10 ** (-40.0 / 20.0)
    t = time_vector(N_FFT * 4, RATE)
    noise = np.random.default_rng(41).normal(0.0, sigma, t.size)
    wave = SampledWaveform(amp * np.cos(2.0 * np.pi * f * t) + noise, RATE)
    rep = sine_metrics(wave, f, WIDE, RATE)
    freq, sinad, enob = _fit_figures(wave.samples, RATE, f - 0.05 * RBW, 2.0 * amp)
    assert freq == pytest.approx(f, abs=1e-4 * RBW)
    assert sinad == pytest.approx(40.0, abs=0.1)  # 65,536 noise samples
    assert rep.sinad_db == pytest.approx(sinad, abs=0.02)
    assert rep.enob_bits == pytest.approx(enob, abs=0.01)
