"""The package's numpy filter design and FIR kernels against scipy.signal.

The package never imports ``scipy.signal`` (it costs about a second of
start-up); each kernel that stands in for one of its functions is checked
here against that function, which only the tests import.
"""

import numpy as np
import pytest
from scipy import signal as sps

from combadc.adc import _dc_block
from combadc.demod import _analytic
from combadc.waveform import (
    SampledWaveform,
    SpectrumEstimate,
    apply_fir,
    fir_lowpass,
    lowpass_band,
    periodogram,
    polyphase_fir,
    spectral_tilt_taps,
    spectrum_to_csv,
)

# (cutoff, rate, transition) of the designs the package makes: DAC
# reconstruction, photodiode, ADC anti-alias, demod channel, the
# resampler's at 5x, plus a test design
DESIGNS = [
    (11e9, 32e9, 0.08 * 11e9),
    (1.2e9, 32e9, None),
    (650e6, 9.6e9, None),
    (1.2e9, 9.6e9, None),
    (460e6, 2.4e9, 40e6),
    (0.95 * 1.2e9, 5 * 9.6e9, 0.1 * 1.2e9),
    (100e6, 1e9, None),
]


@pytest.mark.parametrize("cutoff,rate,transition", DESIGNS)
def test_fir_lowpass_equals_kaiserord_firwin(cutoff, rate, transition):
    center, width = lowpass_band(cutoff, rate, transition)
    numtaps, beta = sps.kaiserord(60.0, width / (rate / 2.0))
    numtaps += 1 - numtaps % 2
    want = sps.firwin(numtaps, center, window=("kaiser", beta), fs=rate)
    np.testing.assert_array_equal(fir_lowpass(cutoff, rate, transition), want)


@pytest.mark.parametrize("tilt_db", [-300.0, 0.0, 3.0, 300.0])
def test_spectral_tilt_taps_equal_firwin2(tilt_db):
    rate = 32e9
    nyq = rate / 2.0
    grid = np.linspace(0.0, nyq, 129)
    frac = np.clip((grid - 0.1e9) / (10e9 - 0.1e9), 0.0, 1.0)
    want = sps.firwin2(257, grid / nyq, 10.0 ** (-tilt_db * frac / 20.0))
    np.testing.assert_array_equal(spectral_tilt_taps(rate, tilt_db), want)


@pytest.mark.parametrize(
    "window,scipy_window", [("rectangular", "boxcar"), ("blackman-harris-4term", "blackmanharris")]
)
def test_periodogram_equals_per_segment_loop(window, scipy_window, rng, tmp_path):
    """The one 2-D transform gives the same bins, bit for bit, as one
    transform per segment with scipy's window, and so the same CSV bytes."""
    n_fft, n_avg = 1024, 6
    wave = SampledWaveform(rng.standard_normal(n_fft * n_avg + 100), 2.4e9)
    w = sps.get_window(scipy_window, n_fft, fftbins=True)
    w = w / np.sqrt(np.mean(np.square(w)))
    acc = np.zeros(n_fft // 2 + 1)
    for k in range(n_avg):
        acc += np.square(np.abs(np.fft.rfft(wave.samples[k * n_fft : (k + 1) * n_fft] * w)))
    want = acc / (n_avg * n_fft**2)
    want[1:-1] *= 2.0

    spec = periodogram(wave, n_fft=n_fft, n_avg=n_avg, window=window)
    np.testing.assert_array_equal(spec.power_linear, want)
    ref = SpectrumEstimate(
        bin_freqs=np.fft.rfftfreq(n_fft, d=1.0 / wave.rate),
        power_db=10.0 * np.log10(np.maximum(want, 1e-40)),
        rbw=wave.rate / n_fft,
        n_fft=n_fft,
        n_avg=n_avg,
        window=window,
    )
    spectrum_to_csv(spec, tmp_path / "got.csv")
    spectrum_to_csv(ref, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# tolerance relative to the output peak, from each dtype's rounding
@pytest.mark.parametrize("dtype,tol", [(np.float32, 2e-6), (np.float64, 1e-13)])
@pytest.mark.parametrize(
    "n,m",
    [(2_000_000, 389), (67_200, 27), (67_200, 51), (16_800, 221), (390, 389), (5, 389), (1, 3)],
)
def test_apply_fir_equals_oaconvolve_same(n, m, dtype, tol, rng):
    x = rng.standard_normal(n).astype(dtype)
    taps = rng.standard_normal(m)
    want = sps.oaconvolve(x, taps.astype(dtype), mode="same")
    got = apply_fir(x, taps)
    assert got.dtype == dtype and got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.max(np.abs(want)))


def _upfirdn_zero_phase(x, taps, up, down, n_out):
    """The package's former rate conversion: upfirdn with the filter
    delay moved onto its decimation phase by leading zeros."""
    half = taps.size // 2
    lead = (-half) % down
    first = (half + lead) // down
    return sps.upfirdn(np.concatenate((np.zeros(lead), taps)), x, up, down)[
        first : first + n_out
    ]


# (taps, samples, up, down): the burst's RRC shaping, the sweep's
# 2.4 -> 1 GSa/s analysis resample and demod's symbol-rate resample
LIVE_SHAPES = [(641, 1_638, 40, 1), (881, 168_000, 5, 12), (221, 4_916, 2, 3)]


@pytest.mark.parametrize("m,n,up,down", LIVE_SHAPES)
def test_polyphase_fir_equals_upfirdn_live_shapes(m, n, up, down, rng):
    x = rng.standard_normal(n)
    taps = rng.standard_normal(m)
    n_out = -(-n * up // down)
    want = _upfirdn_zero_phase(x, taps, up, down, n_out)
    got = polyphase_fir(x, taps, up, down, n_out)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def test_polyphase_fir_equals_upfirdn_small_ratios(rng):
    for _ in range(40):
        up, down = (int(v) for v in rng.integers(1, 65, 2))
        m = 2 * int(rng.integers(0, 200)) + 1
        n = int(rng.integers(1, 400))
        x = rng.standard_normal(n).astype(rng.choice([np.float32, np.float64]))
        taps = rng.standard_normal(m)
        n_out = -(-n * up // down)
        want = _upfirdn_zero_phase(x, taps, up, down, n_out)
        got = polyphase_fir(x, taps, up, down, n_out)
        # upfirdn stops at the end of the full convolution, where short
        # taps leave the rest of the zero-phase output at exactly zero
        assert got.dtype == np.float64 and got.size == n_out >= want.size
        assert not np.any(got[want.size :])
        np.testing.assert_allclose(
            got[: want.size], want, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(want))),
            err_msg=f"m={m} n={n} up={up} down={down}",
        )


@pytest.mark.parametrize("cutoff", [1e3, 1e6, 10e6, 1e9, 4.7e9, 1e12])
@pytest.mark.parametrize("n", [1, 5, 31, 32, 33, 1000, 672_000])
def test_dc_block_equals_lfilter(cutoff, n, rng):
    rate = 9.6e9
    x = rng.standard_normal(n) + 3.0
    a = np.exp(-2.0 * np.pi * cutoff / rate)
    g = (1.0 + a) / 2.0
    want = sps.lfilter([g, -g], [1.0, -a], x)
    got = _dc_block(x, cutoff, rate)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("n", [1, 2, 7, 4096, 65_537])
def test_analytic_equals_hilbert(n, rng):
    x = rng.standard_normal(n)
    np.testing.assert_array_equal(_analytic(x), sps.hilbert(x))
