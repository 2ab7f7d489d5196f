from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal as sps

from combadc.errors import SignalError
from combadc.waveform import (
    _SPLIT_BLOCK,
    SampledWaveform,
    _add_analytic,
    apply_fir,
    fir_lowpass,
    periodogram,
    resample_waveform,
    rms,
    rrc_taps,
    spectral_tilt_taps,
    white_noise,
    wiener_phase,
)


# ---------------------------------------------------------------- containers


def test_waveform_rejects_bad_input():
    with pytest.raises(SignalError):
        SampledWaveform(np.array([]), 1e9)
    with pytest.raises(SignalError):
        SampledWaveform(np.array([0.0, np.nan]), 1e9)
    with pytest.raises(SignalError):
        SampledWaveform(np.zeros(4), 0.0)
    with pytest.raises(SignalError):
        SampledWaveform(np.zeros((2, 2)), 1e9)


def test_waveform_basics():
    w = SampledWaveform(np.ones(1000), 1e6)
    assert w.n == 1000
    c = w.copy()
    c.samples[0] = 5.0
    assert w.samples[0] == 1.0


# --------------------------------------------------------------- periodogram


def test_periodogram_parseval_rectangular(rng):
    x = rng.normal(0.0, 1.3, 4096)
    spec = periodogram(SampledWaveform(x, 1e9), n_fft=4096)
    assert spec.power_linear.sum() == pytest.approx(np.mean(x**2), rel=1e-12)


def test_periodogram_parseval_averaged(rng):
    x = rng.normal(0.0, 0.7, 8 * 1024)
    spec = periodogram(SampledWaveform(x, 1e9), n_fft=1024, n_avg=8)
    assert spec.power_linear.sum() == pytest.approx(np.mean(x**2), rel=1e-12)


def test_periodogram_sine_power_calibration():
    # bin-centered sine of amplitude A: the spectrum integrates to A^2/2
    # regardless of window, and the peak bin alone carries it for the
    # rectangular window
    rate, n_fft, amp = 1e9, 16384, 0.35
    k = 4100
    t = np.arange(n_fft) / rate
    x = amp * np.cos(2 * np.pi * (k * rate / n_fft) * t)
    for window in ("rectangular", "blackman-harris-4term"):
        spec = periodogram(SampledWaveform(x, rate), n_fft=n_fft, window=window)
        assert spec.power_linear.sum() == pytest.approx(amp**2 / 2, rel=1e-6)
    spec = periodogram(SampledWaveform(x, rate), n_fft=n_fft)
    assert spec.power_linear[k] == pytest.approx(amp**2 / 2, rel=1e-9)
    assert spec.bin_freqs[k] == pytest.approx(k * rate / n_fft)


def test_periodogram_rbw_bookkeeping(rng):
    spec = periodogram(
        SampledWaveform(rng.normal(size=16384 * 4), 1e9), n_fft=16384, n_avg=4
    )
    assert spec.rbw == pytest.approx(1e9 / 16384)
    assert spec.n_fft == 16384 and spec.n_avg == 4


def test_periodogram_noise_floor_offset(rng):
    # mean bin power times the bin count equals total power (Parseval), so
    # the average floor sits 10*log10(n_bins) below the integrated power
    x = rng.normal(0.0, 1.0, 16384 * 4)
    spec = periodogram(SampledWaveform(x, 1e9), n_fft=16384, n_avg=4)
    total = spec.power_linear.sum()
    floor_offset = 10 * np.log10(total / spec.power_linear.mean())
    assert floor_offset == pytest.approx(10 * np.log10(spec.power_linear.size), abs=1e-9)


def test_periodogram_validation(rng):
    w = SampledWaveform(rng.normal(size=4096), 1e9)
    with pytest.raises(SignalError):
        periodogram(w, n_fft=1000)  # not a power of two
    with pytest.raises(SignalError):
        periodogram(w, n_fft=4096, n_avg=2)  # too short
    with pytest.raises(SignalError):
        periodogram(w, n_fft=1024, window="hann")


@settings(max_examples=25, deadline=None)
@given(
    n_fft=st.sampled_from([256, 1024, 4096]),
    n_avg=st.integers(min_value=1, max_value=4),
    sigma=st.floats(min_value=0.01, max_value=10.0),
)
def test_periodogram_parseval_property(n_fft, n_avg, sigma):
    x = np.random.default_rng(n_fft * n_avg).normal(0.0, sigma, n_fft * n_avg)
    spec = periodogram(SampledWaveform(x, 2.4e9), n_fft=n_fft, n_avg=n_avg)
    assert spec.power_linear.sum() == pytest.approx(np.mean(x**2), rel=1e-9)


# ---------------------------------------------------------------------- RRC


def test_rrc_unit_energy():
    for beta, sps_s, span in ((0.1, 4, 16), (0.35, 8, 24), (0.0, 2, 12)):
        h = rrc_taps(beta, sps_s, span)
        assert h.size == span * sps_s + 1
        assert np.sum(h**2) == pytest.approx(1.0, rel=1e-12)


def test_rrc_cascade_is_nyquist_near_center():
    # matched pair: raised-cosine response, ISI-free at the nearest symbol
    # offsets. At rolloff 0.1 the truncated tails leave ~1e-2 residuals at
    # the span edge (offset 8), so the all-offsets check lives in the
    # wide-rolloff test below where truncation is benign.
    h = rrc_taps(0.1, 4, 16)
    g = np.convolve(h, h)
    center = g.size // 2
    assert g[center] == pytest.approx(1.0, abs=1e-3)
    assert abs(g[center + 4]) < 1e-3 and abs(g[center - 4]) < 1e-3
    assert abs(g[center + 8]) < 1e-3 and abs(g[center - 8]) < 1e-3


def test_rrc_cascade_all_offsets_wide_rolloff():
    h = rrc_taps(0.35, 8, 24)
    g = np.convolve(h, h)
    center = g.size // 2
    sym = g[center::8]
    assert sym[0] == pytest.approx(1.0, abs=1e-3)
    assert np.max(np.abs(sym[1:])) < 1e-3
    # same on the anticausal side by symmetry
    assert np.max(np.abs(g[center::-8][1:])) < 1e-3


def test_rrc_symmetry_and_sinc_limit():
    h = rrc_taps(0.25, 4, 12)
    assert np.allclose(h, h[::-1], atol=1e-15)
    h0 = rrc_taps(0.0, 4, 16)
    t = (np.arange(h0.size) - (h0.size - 1) / 2) / 4
    ref = np.sinc(t)
    ref = ref / np.sqrt(np.sum(ref**2))
    assert np.allclose(h0, ref, atol=1e-12)


def test_rrc_validation():
    with pytest.raises(SignalError):
        rrc_taps(1.2, 4, 16)
    with pytest.raises(SignalError):
        rrc_taps(0.1, 1, 16)
    with pytest.raises(SignalError):
        rrc_taps(0.1, 4, 7)


# ------------------------------------------------------------------ filters


def test_fir_lowpass_response():
    rate = 32e9
    taps = fir_lowpass(11e9, rate, transition_hz=0.08 * 11e9)
    w, h = sps.freqz(taps, worN=4096, fs=rate)
    gain_db = 20 * np.log10(np.abs(h) + 1e-30)
    passband = gain_db[w <= 0.95 * 11e9]
    assert np.max(np.abs(passband)) < 0.1
    assert gain_db[np.argmin(np.abs(w - 11e9))] == pytest.approx(-6.0, abs=1.0)
    stop = gain_db[w >= 11e9 + 0.6 * 0.08 * 11e9]
    assert np.max(stop) < -50.0


def test_fir_lowpass_default_transition():
    taps = fir_lowpass(1.2e9, 32e9)
    w, h = sps.freqz(taps, worN=4096, fs=32e9)
    gain_db = 20 * np.log10(np.abs(h) + 1e-30)
    assert np.max(np.abs(gain_db[w <= 0.8 * 1.2e9])) < 0.5
    assert np.max(gain_db[w >= 1.4 * 1.2e9]) < -40.0
    assert taps.size % 2 == 1


def test_rrc_designs_are_made_once_and_read_only():
    taps = rrc_taps(0.1, 4, 16)
    assert rrc_taps(0.1, 4, 16) is taps
    with pytest.raises(ValueError, match="read-only"):
        taps[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        taps *= 2.0


def test_fir_lowpass_rejects_impossible_design():
    with pytest.raises(SignalError):
        fir_lowpass(0.6e9, 1e9)  # above Nyquist
    with pytest.raises(SignalError):
        fir_lowpass(0.45e9, 1e9, transition_hz=0.2e9)  # band edge past Nyquist


def test_apply_fir_zero_phase():
    # group delay compensated and passband gain ~1: a deep-passband tone
    # comes through essentially unchanged, with no shift to hunt for
    rate = 1e9
    t = np.arange(8192) / rate
    x = np.cos(2 * np.pi * 5e6 * t)
    y = apply_fir(x, fir_lowpass(100e6, rate))
    body = slice(500, 7500)
    assert rms(y[body] - x[body]) < 0.02
    with pytest.raises(SignalError):
        apply_fir(x, np.ones(4))


def test_apply_fir_linearity(rng):
    taps = fir_lowpass(100e6, 1e9)
    x, y = rng.normal(size=2048), rng.normal(size=2048)
    lhs = apply_fir(2.0 * x - 3.0 * y, taps)
    rhs = 2.0 * apply_fir(x, taps) - 3.0 * apply_fir(y, taps)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_spectral_tilt_taps_profile():
    rate = 32e9
    for tilt in (3.0, 8.0):
        taps = spectral_tilt_taps(rate, tilt)
        w, h = sps.freqz(taps, worN=8192, fs=rate)
        gain = 20 * np.log10(np.abs(h) + 1e-30)

        def at(f):
            return gain[np.argmin(np.abs(w - f))]

        assert at(0.1e9) == pytest.approx(0.0, abs=0.15)
        assert at(10e9) == pytest.approx(-tilt, abs=0.15)
        assert at(5.05e9) == pytest.approx(-tilt / 2, abs=0.2)
        assert at(14e9) == pytest.approx(-tilt, abs=0.2)


# --------------------------------------------------------------- resampling


def test_resample_identity(rng):
    w = SampledWaveform(rng.normal(size=1000), 2.4e9)
    y = resample_waveform(w, 2.4e9)
    assert np.array_equal(y.samples, w.samples)
    assert y.samples is not w.samples


def test_resample_tone_preserved():
    rate_in, rate_out = 2.4e9, 1.0e9
    n = 48000
    t = np.arange(n) / rate_in
    f0 = 250e6
    x = np.cos(2 * np.pi * f0 * t)
    y = resample_waveform(SampledWaveform(x, rate_in), rate_out)
    assert y.rate == rate_out
    assert y.n == pytest.approx(n * rate_out / rate_in, abs=2)
    t_out = np.arange(y.n) / rate_out
    ref = np.cos(2 * np.pi * f0 * t_out)
    body = slice(512, y.n - 512)
    assert rms(y.samples[body] - ref[body]) < 5e-3


def test_resample_preserves_dc():
    w = SampledWaveform(np.full(4096, 0.731), 2e9)
    y = resample_waveform(w, 1e9)
    assert np.allclose(y.samples, 0.731, atol=1e-12)


def test_resample_rejects_awkward_ratio():
    w = SampledWaveform(np.zeros(1024), 1e9)
    with pytest.raises(SignalError):
        resample_waveform(w, 1e9 * np.pi)
    with pytest.raises(SignalError):
        resample_waveform(w, 1e9 * 997 / 1000)


def test_resample_output_timestamps():
    # output sample k must sit at k / new_rate: check with a linear ramp,
    # whose band-limited interpolation is itself
    rate_in, rate_out = 4e9, 1e9
    n = 8192
    x = np.linspace(0.0, 1.0, n)
    y = resample_waveform(SampledWaveform(x, rate_in), rate_out)
    k = np.arange(200, y.n - 200)
    expected = x[0] + (k * rate_in / rate_out) * (x[1] - x[0])
    assert np.max(np.abs(y.samples[200:-200] - expected)) < 1e-3


def _zero_stuff_resample(x, rate, new_rate):
    # the resampler as its docstring states it: zero-stuff by up, the
    # Kaiser low-pass applied by direct convolution centred on each
    # stuffed sample, then every down-th output
    frac = Fraction(new_rate / rate).limit_denominator(64)
    up, down = frac.numerator, frac.denominator
    mean = x.mean()
    stuffed = np.zeros(x.size * up)
    stuffed[::up] = (x - mean) * up
    f_half = 0.5 * min(rate, new_rate)
    taps = fir_lowpass(0.95 * f_half, rate * up, transition_hz=0.1 * f_half)
    assert stuffed.size > taps.size  # np.convolve "same" keeps the longer length
    return np.convolve(stuffed, taps, mode="same")[::down] + mean


@pytest.mark.parametrize("n", [2000, 2001])
@pytest.mark.parametrize(
    "rate, new_rate",
    [
        (2.4e9, 1e9),  # 5/12, the metrics analysis stream
        (2.4e9, 2 * 800e6),  # 2/3, demod's sps * baud from the ADC rate
        (1e9, 4e9),
        (3e9, 1e9),
    ],
)
def test_resample_matches_zero_stuff_reference(rate, new_rate, n, rng):
    x = rng.standard_normal(n) + 0.3
    got = resample_waveform(SampledWaveform(x, rate), new_rate)
    want = _zero_stuff_resample(x, rate, new_rate)
    assert got.rate == new_rate
    assert got.n == want.size
    assert np.max(np.abs(got.samples - want)) <= 1e-12


# ------------------------------------------------------- analytic placement


def _analytic_reference(part, lo, hi, m, shifts, weight):
    """Bins lo..hi-1 of ``np.fft.rfft(part)`` times ``weight``, DC and
    Nyquist at half of it, laid on ``m`` bins from bin lo and rolled by
    each shift in turn, summed."""
    bins = np.fft.rfft(part)[lo:hi] * weight
    k = np.arange(lo, hi)
    bins[(k == 0) | (2 * k == part.size)] *= 0.5
    laid = np.zeros(m, dtype=np.complex128)
    laid[: hi - lo] = bins
    return sum(np.roll(laid, lo + shift) for shift in shifts)


@pytest.mark.parametrize("imag", [False, True])
@pytest.mark.parametrize("n", [2 * _SPLIT_BLOCK + 8, 2 * _SPLIT_BLOCK + 9])
@pytest.mark.parametrize(
    "lo,hi,m,shifts,weight",
    [
        # the burst's case: every rfft bin, past a split-block edge, onto a
        # full-length target at two shifts that wrap past either end
        (0, None, None, (20_000, -20_000), 1.0),
        # the beat's case: a band across a split-block edge onto a shorter
        # target, the middle of its 5000 bins on DC
        (_SPLIT_BLOCK - 3000, _SPLIT_BLOCK + 4, 5000, (500 - _SPLIT_BLOCK,), 2.0),
        # a band from DC, and one across a split-block edge to the last bin
        (0, 100, 256, (-30,), 2.0),
        (_SPLIT_BLOCK - 4000, None, 4096, (100,), 2.0),
    ],
)
def test_add_analytic_matches_rfft_weights_and_roll(n, imag, lo, hi, m, shifts, weight):
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    hi = n // 2 + 1 if hi is None else hi
    m = n if m is None else m
    # the bins are added to what the target already holds
    target = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    want = target + _analytic_reference(y if imag else x, lo, hi, m, shifts, weight)
    z = np.fft.fft(x + 1j * y)
    _add_analytic(z, lo, hi, target, shifts, imag=imag, weight=weight)
    np.testing.assert_allclose(target, want, rtol=0.0, atol=1e-9)


# -------------------------------------------------------------------- noise


def test_white_noise_density_law():
    rate, dens = 2.4e9, 4.4e-11
    x = white_noise(400_000, rate, dens, 99)
    assert np.var(x) == pytest.approx(dens**2 * rate / 2, rel=0.02, abs=0.0)


def test_wiener_phase_increment_law():
    lw, rate, n = 5e3, 1e9, 300_000
    theta = wiener_phase(lw, n, rate, 17)
    assert theta[0] == 0.0
    inc = np.diff(theta)
    assert np.var(inc) == pytest.approx(2 * np.pi * lw / rate, rel=0.02)
    assert np.array_equal(wiener_phase(0.0, 64, rate, 17), np.zeros(64))
    with pytest.raises(SignalError):
        wiener_phase(-1.0, 64, rate, 17)


def test_noise_determinism():
    a = white_noise(1000, 1e9, 1e-10, 42)
    b = white_noise(1000, 1e9, 1e-10, 42)
    c = white_noise(1000, 1e9, 1e-10, 43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
