import numpy as np
import pytest

from combadc import adc
from combadc.adc import AdcConfig, _lagrange_sample, adc_capture
from combadc.errors import SignalError
from combadc.metrics import MetricsConfig, sine_metrics
from combadc.waveform import SampledWaveform, time_vector

RATE_IN = 8e9
N_OUT = 16384 * 4 + 2048  # analysis length plus transient skip
ANALYSIS_RATE = 1e9


def _law_cfg(**kw):
    base = dict(
        bits=14,
        rate=1e9,
        full_scale=1.0,
        jitter_rms=0.0,
        aa_cutoff=None,
        ac_couple=None,
    )
    base.update(kw)
    return AdcConfig(**base)


def _tone_input(freq, amp=0.9999, n_out=N_OUT):
    n_in = n_out * int(RATE_IN / 1e9)
    t = time_vector(n_in, RATE_IN)
    return SampledWaveform(amp * np.cos(2.0 * np.pi * freq * t), RATE_IN)


def _bin_freq(k, n_fft=16384):
    return k * ANALYSIS_RATE / n_fft


def test_zero_input_zero_codes():
    cap = adc_capture(SampledWaveform(np.zeros(8192), RATE_IN), _law_cfg(), 0)
    assert np.all(cap.codes == 0)
    assert cap.n == 1024  # floor((8192-1)/8) + 1
    assert cap.full_scale_used == 1.0


def test_auto_full_scale_is_capture_peak():
    x = _tone_input(_bin_freq(2561), amp=0.37, n_out=4096)
    cap = adc_capture(x, _law_cfg(bits=None, full_scale="auto"), 0)
    assert cap.full_scale_used == pytest.approx(np.max(np.abs(cap.analog)))
    assert cap.full_scale_used == pytest.approx(0.37, rel=1e-4)


def test_quantization_law_14bit():
    # odd analysis bin, so the sampled sine visits 16384 distinct phases
    # and the quantization error is properly averaged
    f = _bin_freq(2561)
    cap = adc_capture(_tone_input(f), _law_cfg(), seed=1)
    rep = sine_metrics(cap.to_waveform(), f, MetricsConfig(), ANALYSIS_RATE)
    assert rep.sinad_db == pytest.approx(6.02 * 14 + 1.76, abs=1.0)
    assert rep.enob_bits == pytest.approx((rep.sinad_db - 1.76) / 6.02)


def test_quantization_noise_frequency_independent():
    reps = [
        sine_metrics(
            adc_capture(_tone_input(_bin_freq(k)), _law_cfg(), 1).to_waveform(),
            _bin_freq(k),
            MetricsConfig(),
            ANALYSIS_RATE,
        )
        for k in (1639, 7373)  # ~100 MHz and ~450 MHz, both odd bins
    ]
    assert abs(reps[0].sinad_db - reps[1].sinad_db) < 0.2


def test_jitter_law_400mhz():
    # sigma chosen so -20 log10(2 pi f sigma) = 40 dB at the test tone
    f = _bin_freq(6554)  # nearest grid line to 400 MHz
    sigma = 10 ** (-40.0 / 20.0) / (2.0 * np.pi * 400e6)
    cfg = _law_cfg(bits=None, jitter_rms=sigma)
    cap = adc_capture(_tone_input(f, amp=0.99), cfg, seed=3)
    rep = sine_metrics(cap.to_waveform(), f, MetricsConfig(), ANALYSIS_RATE)
    assert rep.sinad_db == pytest.approx(40.0, abs=1.0)


def _lagrange_8(x, positions):
    """The 8-point Lagrange interpolation written out for every position."""
    pos = np.clip(positions, 0.0, x.size - 1.0)
    base = np.clip(np.floor(pos).astype(np.int64) - 3, 0, x.size - 8)
    out = np.zeros(pos.size)
    for j in range(8):
        w = np.ones(pos.size)
        for m in range(8):
            if m != j:
                w *= (pos - base - m) / (j - m)
        out += w * x[base + j]
    return out


# The Farrow form rounds differently from the product form: 1e-14 of the
# peak was measured on these records (its t**7 term reaches 4**7 at the
# clamped ends), so 1e-13 of the peak bounds the difference.
_FARROW_TOL = 1e-13


def test_fractional_positions_interpolate():
    n = 4000
    t = np.arange(n)
    x = np.cos(2 * np.pi * 0.05 * t)
    positions = np.arange(1, 999) * 4.0 + 0.37
    got = _lagrange_sample(x, positions)
    assert np.max(np.abs(got - _lagrange_8(x, positions))) <= _FARROW_TOL * np.max(x)
    # an eight-point fit of a tone at a tenth of the Nyquist rate
    assert np.max(np.abs(got - np.cos(2 * np.pi * 0.05 * positions))) < 1e-6
    assert np.max(np.abs(got - x[np.round(positions).astype(int)])) > 0.05


def test_sampler_blocks_keep_every_bit(monkeypatch):
    # the outputs are taken a block at a time: two blocks and a part,
    # jittered, clamped at both ends, give a one-block evaluation's bits,
    # and the product form's values within its rounding
    rng = np.random.default_rng(11)
    x = rng.standard_normal(160_020)
    positions = np.arange(40_000) * 4.0 + rng.normal(0.0, 0.3, 40_000)
    positions[[0, -1]] = [-2.5, 160_030.0]
    blocked = _lagrange_sample(x, positions)
    monkeypatch.setattr(adc, "_SAMPLE_BLOCK", positions.size)
    assert blocked.tobytes() == _lagrange_sample(x, positions).tobytes()
    peak = np.max(np.abs(x))
    assert np.max(np.abs(blocked - _lagrange_8(x, positions))) <= _FARROW_TOL * peak


@pytest.mark.parametrize("degree", range(8))
def test_sampler_reproduces_polynomials(degree):
    # an 8-point Lagrange polynomial reproduces every polynomial of degree
    # 7 or less, between the taps and at the clamped ends alike; the bound
    # is the Farrow form's rounding, measured at 1.7e-14 of the peak
    rng = np.random.default_rng(degree)
    coef = rng.standard_normal(degree + 1)
    n = 64

    def poly(k):
        return np.polynomial.polynomial.polyval(2.0 * k / (n - 1) - 1.0, coef)

    x = poly(np.arange(n))
    positions = np.concatenate(
        [rng.uniform(0.0, n - 1.0, 500), [-3.0, 0.0, 0.5, n - 1.5, n - 1.0, n + 5.0]]
    )
    want = poly(np.clip(positions, 0.0, n - 1.0))
    got = _lagrange_sample(x, positions)
    assert np.max(np.abs(got - want)) <= _FARROW_TOL * np.max(np.abs(x))


def test_on_grid_instants_return_their_samples():
    # t is the position less the fourth tap's: 0 on the input grid, where
    # Horner's pass leaves the constant coefficient, that tap times 1
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1000)
    positions = rng.integers(3, x.size - 4, 3000).astype(np.float64)
    got = _lagrange_sample(x, positions)
    assert got.tobytes() == x[positions.astype(np.int64)].tobytes()


def test_capture_determinism():
    f = _bin_freq(2561)
    x = _tone_input(f, n_out=4096)
    cfg = _law_cfg(jitter_rms=2e-12)
    a = adc_capture(x, cfg, seed=7)
    b = adc_capture(x, cfg, seed=7)
    c = adc_capture(x, cfg, seed=8)
    assert np.array_equal(a.codes, b.codes)
    assert not np.array_equal(a.codes, c.codes)


def test_ac_coupling_removes_offset():
    x = SampledWaveform(0.25 * np.ones(65536), RATE_IN)
    cfg = _law_cfg(ac_couple=10e6, full_scale=1.0)
    cap = adc_capture(x, cfg, 0)
    tail = cap.values()[cap.n // 2 :]
    assert np.max(np.abs(tail)) < 1e-3


def test_anti_alias_filter_guards_the_band():
    in_band = _tone_input(_bin_freq(2561), amp=0.5, n_out=8192)
    out_band = _tone_input(0.8e9, amp=0.5, n_out=8192)
    cfg = _law_cfg(aa_cutoff=0.45e9)
    p_in = np.var(adc_capture(in_band, cfg, 0).values())
    p_out = np.var(adc_capture(out_band, cfg, 0).values())
    assert 10 * np.log10(p_out / p_in) < -50.0


def test_oversampling_precondition():
    with pytest.raises(SignalError):
        adc_capture(SampledWaveform(np.zeros(4096), 2e9), _law_cfg(), 0)


def test_config_validation():
    with pytest.raises(SignalError):
        AdcConfig(bits=0)
    with pytest.raises(SignalError):
        AdcConfig(bits=30)
    with pytest.raises(SignalError):
        AdcConfig(rate=1e9, aa_cutoff=0.6e9)
    with pytest.raises(SignalError):
        AdcConfig(jitter_rms=-1e-12)
    with pytest.raises(SignalError):
        AdcConfig(full_scale="wide")
    with pytest.raises(SignalError):
        AdcConfig(full_scale=0.0)
