"""Each stage keeps its input's dtype: the runner's analog records are
float32 from the burst (or tone) to the ADC's sampler, and float64 from
the codes on, while float64 in still gives float64 out. In either
precision, no stage writes into its caller's array.

The float64 oracles in the module tests pin float64-in, float64-out; these
cases pin the float32 side and how far single precision moves a result,
down to the figures of the sweep's quietest point.
"""

import numpy as np
import pytest

from combadc.adc import MIN_OVERSAMPLING, AdcConfig, _dc_block, adc_capture
from combadc.comb import LinkConfig, beat_spectrum, mzm_field, subband_beat
from combadc.frontend import (
    DacConfig,
    ScmConfig,
    dac_model,
    gen_pam4_symbols,
    scm_waveform,
    sine_waveform,
)
from combadc.metrics import MetricsConfig, sine_metrics
from combadc.runner import _scm_burst, _task_seeds, snap_sweep_frequency
from combadc.scenario import build_combs, load_config
from combadc.units import db_to_amplitude_ratio
from combadc.waveform import (
    SampledWaveform,
    _add_analytic,
    _rfft_bins,
    apply_fir,
    fir_lowpass,
)

from conftest import make_combs

RATE = 32e9


def _f32(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def test_waveform_keeps_float32_and_casts_the_rest_to_float64():
    assert SampledWaveform(_f32([0.5, -1.0]), RATE).samples.dtype == np.float32
    for samples in ([1, 2], np.arange(3, dtype=np.int16), np.ones(2, dtype=np.float16)):
        assert SampledWaveform(samples, RATE).samples.dtype == np.float64
    assert SampledWaveform(_f32([0.25]), RATE).copy().samples.dtype == np.float32


def test_apply_fir_filters_float32_in_float32(rng):
    x = rng.normal(size=5000)
    taps = fir_lowpass(2e9, RATE)
    y32 = apply_fir(_f32(x), taps)
    assert y32.dtype == np.float32
    y64 = apply_fir(_f32(x).astype(np.float64), taps)
    assert y64.dtype == np.float64
    # float32 rounding: about 1e-7 of the signal
    np.testing.assert_allclose(y32, y64, atol=1e-6 * np.max(np.abs(y64)))


@pytest.mark.parametrize("quantize", [True, False])
def test_dac_model_keeps_float32(quantize):
    x = _f32(sine_waveform(5.25e9, 0.9, 65536 / RATE, RATE).samples)
    cfg = DacConfig(bits=6 if quantize else None, electrical_rolloff_db=3.0)
    y32 = dac_model(SampledWaveform(x, RATE), cfg, 5)
    assert y32.samples.dtype == np.float32
    x64 = SampledWaveform(x.astype(np.float64), RATE)
    y64 = dac_model(x64, cfg, 5)
    assert y64.samples.dtype == np.float64
    # same codes and the same noise draw; only the rounding differs
    np.testing.assert_allclose(y32.samples, y64.samples, atol=1e-5)


@pytest.mark.parametrize("clip", [True, False])
@pytest.mark.parametrize("bits", [1, 6, 16])
def test_dac_quantizer_in_float32_is_exact(bits, clip, rng):
    # the DAC's step is a power of two, so the float32 quantizer must give
    # the float64 result rounded to float32 bit for bit: on the code
    # boundaries, at the rails, at signed zero, past the rails and between
    half = 2 ** (bits - 1)
    edges = np.arange(-half, half + 1) / half
    special = [1.0, -1.0, 0.0, -0.0, 1.5, -1.5, 3.0, -7.25, 1e-30, -1e-30]
    x = _f32(np.concatenate([edges, special, rng.uniform(-1.2, 1.2, 4096)]))
    cfg = DacConfig(bits=bits, clip=clip, lpf_cutoff=None, residual_noise_db=None)
    y32 = dac_model(SampledWaveform(x, RATE), cfg, 1).samples
    y64 = dac_model(SampledWaveform(x.astype(np.float64), RATE), cfg, 1).samples
    assert y32.dtype == np.float32
    assert np.array_equal(y32.view(np.uint32), y64.astype(np.float32).view(np.uint32))


def test_mzm_field_keeps_float32(rng):
    v = _f32(rng.uniform(-1.0, 1.0, 4096))
    mu32 = mzm_field(SampledWaveform(v, RATE), 0.3).samples
    assert mu32.dtype == np.float32
    mu64 = mzm_field(SampledWaveform(v.astype(np.float64), RATE), 0.3).samples
    np.testing.assert_allclose(mu32, mu64, atol=1e-7)


@pytest.mark.parametrize("duration", [0.512e-6, 2.048e-6, 16.384e-6])
def test_scm_burst_in_float32_matches_float64(duration):
    cfg = ScmConfig(duration=duration)
    symbols = {
        k: gen_pam4_symbols(cfg.symbols_per_burst, 100 + k)
        for k in range(1, cfg.n_channels + 1)
    }
    b32 = scm_waveform(cfg, symbols, RATE, 1e9, dtype=np.float32).samples
    b64 = scm_waveform(cfg, symbols, RATE, 1e9).samples
    assert b32.dtype == np.float32 and b64.dtype == np.float64
    # synthesized in complex64, not the float64 burst rounded at the end
    assert not np.array_equal(b32, b64.astype(np.float32))
    # complex64 transforms: about 2e-7 of the burst's peak
    np.testing.assert_allclose(b32, b64, rtol=0.0, atol=1e-6 * np.max(np.abs(b64)))


def test_runner_burst_is_float32_to_its_beat_spectrum():
    cfg = load_config("scm.duration = 0.512us\nscm.active_channels = 1,2,3\n")
    _, spectrum = _scm_burst(cfg)
    assert spectrum.samples.dtype == np.complex64


@pytest.mark.parametrize("imag", [False, True])
def test_analytic_bins_of_complex64_stay_complex64(imag):
    # the split, the weights and the placement in complex64, bit for bit a
    # reference gathered by index and computed in complex64; the bins span
    # two split blocks and the Nyquist bin, and both shifts wrap
    n, m, shifts = 32776, 20000, (3000, -5000)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = np.fft.fft(x).astype(np.complex64)
    k = np.arange(n // 2 + 1)
    mirror = np.conj(z[-k])
    ref = (z[k] - mirror) * -0.5j if imag else (z[k] + mirror) * 0.5
    assert ref.dtype == np.complex64
    bins = _rfft_bins(z, 0, k.size, imag=imag)
    assert bins.dtype == np.complex64
    assert np.array_equal(bins, ref)

    ref *= 2.0
    ref[0] *= 0.5
    ref[-1] *= 0.5
    expected = np.zeros(m, np.complex64)
    for shift in shifts:
        np.add.at(expected, (k + shift) % m, ref)
    target = np.zeros(m, np.complex64)
    # the placement reads a real part, and the imaginary part of x is the
    # real part of -j x
    _add_analytic(-1j * z if imag else z, 0, k.size, target, shifts)
    assert np.array_equal(target, expected)


@pytest.mark.parametrize("out_rate", [None, 9.6e9])  # None: the 32 GSa/s input rate
def test_beat_of_float32_field_is_float32_and_matches(out_rate):
    out_rate = out_rate or RATE
    x = sine_waveform(5.25e9, 0.2, 65536 / RATE, RATE).samples
    mu32 = mzm_field(SampledWaveform(_f32(x), RATE), 0.3)
    mu64 = SampledWaveform(mu32.samples.astype(np.float64), RATE)
    combs = make_combs()
    link = LinkConfig()
    i32 = subband_beat(beat_spectrum(mu32), 5, combs, link, 7, out_rate=out_rate).samples
    i64 = subband_beat(beat_spectrum(mu64), 5, combs, link, 7, out_rate=out_rate).samples
    assert i32.dtype == np.float32
    # the float32 transforms' rounding stays 120 dB under the current's peak
    np.testing.assert_allclose(i32, i64, atol=1e-6 * np.max(np.abs(i64)))


def test_off_grid_beat_of_float32_field_is_float32_and_matches():
    # a walking phase track takes the complex inverse and exp(j theta)
    x = sine_waveform(5.25e9, 0.2, 65536 / RATE, RATE).samples
    mu32 = mzm_field(SampledWaveform(_f32(x), RATE), 0.3)
    mu64 = SampledWaveform(mu32.samples.astype(np.float64), RATE)
    combs = make_combs(linewidth=1e3)
    link = LinkConfig()
    i32 = subband_beat(beat_spectrum(mu32), 5, combs, link, 7, out_rate=9.6e9).samples
    i64 = subband_beat(beat_spectrum(mu64), 5, combs, link, 7, out_rate=9.6e9).samples
    assert i32.dtype == np.float32
    np.testing.assert_allclose(i32, i64, atol=1e-6 * np.max(np.abs(i64)))


def test_adc_front_end_keeps_float32_and_codes_hold(rng):
    # a sub-band current at 9.6 GSa/s: a 250 MHz tone over a DC offset and
    # white noise, 2.048 us long
    rate = 9.6e9
    t = np.arange(19661) / rate
    x = 0.2 + np.cos(2.0 * np.pi * 250e6 * t) + 0.01 * rng.standard_normal(t.size)
    x32 = _f32(x)
    x64 = x32.astype(np.float64)
    assert _dc_block(x32, 10e6, rate).dtype == np.float32
    cap32 = adc_capture(SampledWaveform(x32, rate), AdcConfig(), 5)
    cap64 = adc_capture(SampledWaveform(x64, rate), AdcConfig(), 5)
    assert cap32.full_scale_used == pytest.approx(cap64.full_scale_used, rel=1e-6)
    moved = cap32.codes != cap64.codes
    # float32 coupling and filtering move a few codes by 1 LSB, no more
    assert np.max(np.abs(cap32.codes - cap64.codes)) <= 1
    assert np.mean(moved) < 0.01
    # unquantized, the sampler's float64 output shows the float32 rounding:
    # present (the stages ran in float32), and 120 dB under the peak
    a32 = adc_capture(SampledWaveform(x32, rate), AdcConfig(bits=None), 5).analog
    a64 = adc_capture(SampledWaveform(x64, rate), AdcConfig(bits=None), 5).analog
    assert a32.dtype == np.float64
    err = np.max(np.abs(a32 - a64))
    assert 0.0 < err < 1e-6 * np.max(np.abs(a64))


# ROADMAP item 5's quietest row: thermal, shot and ASE off, no quantizers
QUIET_POINT = """link.thermal_noise_density = 0
link.shot = off
link.osnr_db = inf
dac.bits = off
adc.bits = off
run.master_seed = 1001
"""


def test_quietest_sweep_point_scores_alike_in_float32_and_float64():
    # the 5.5 GHz sweep point through the stage functions, once on the
    # float32 chain and once cast to float64 at the source: where float32
    # rounding would show first, SINAD and SFDR agree within 0.01 dB
    cfg = load_config(QUIET_POINT)
    combs = build_combs(cfg)
    f_actual, n, folded = snap_sweep_frequency(5.5e9, cfg, combs)
    seeds = _task_seeds(cfg.run.master_seed, "sweep", 0, 3)
    tone = sine_waveform(f_actual, 1.0, cfg.sweep.duration, cfg.dac.rate)
    gain = db_to_amplitude_ratio(-cfg.link.sine_backoff_db)
    reports = []
    for dtype in (np.float32, np.float64):
        x = SampledWaveform(tone.samples.astype(dtype), tone.rate)
        y = dac_model(x, cfg.dac, seeds[0])
        v = np.clip(y.samples * gain, -1.0, 1.0)
        mu = mzm_field(SampledWaveform(v, y.rate), cfg.link.drive_scale)
        out_rate = MIN_OVERSAMPLING * cfg.adc.rate
        current = subband_beat(
            beat_spectrum(mu), n, combs, cfg.link, seeds[1], out_rate=out_rate
        )
        assert current.samples.dtype == dtype
        cap = adc_capture(current, cfg.adc, seeds[2])
        reports.append(sine_metrics(cap.to_waveform(), folded, cfg.metrics, combs.delta_f))
    r32, r64 = reports
    # the quiet row: SINAD about 46.5 dB, SFDR about 78.6 dB
    assert r64.sinad_db > 45.0 and r64.sfdr_db > 75.0
    assert r32.sinad_db == pytest.approx(r64.sinad_db, abs=0.01)
    assert r32.sfdr_db == pytest.approx(r64.sfdr_db, abs=0.01)


def _read_only(x: np.ndarray) -> np.ndarray:
    """A copy of ``x`` that raises on any write into it."""
    x = x.copy()
    x.setflags(write=False)
    return x


@pytest.mark.parametrize("bits", [6, None])
@pytest.mark.parametrize("clip", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stages_never_write_into_their_input(dtype, clip, bits, rng):
    # the DAC, the modulator, the ADC and the metrics work in place in
    # arrays of their own; a read-only input raises if one writes into it
    x = _read_only(rng.uniform(-1.2, 1.2, 20000).astype(dtype))
    for dac in (
        DacConfig(bits=bits, clip=clip, electrical_rolloff_db=3.0),
        # no noise and no filter: the quantizer's or the clip's own copy
        DacConfig(bits=bits, clip=clip, residual_noise_db=None, lpf_cutoff=None),
    ):
        assert dac_model(SampledWaveform(x, RATE), dac, 3).samples.dtype == dtype
    v = _read_only(np.clip(x, -1.0, 1.0))
    assert mzm_field(SampledWaveform(v, RATE), 0.3).samples.dtype == dtype

    def tone(rate: float) -> SampledWaveform:
        t = np.arange(int(20e-6 * rate)) / rate
        x = (0.5 * np.cos(2.0 * np.pi * 250e6 * t)).astype(dtype)
        return SampledWaveform(_read_only(x), rate)

    for adc in (
        AdcConfig(bits=14 if bits else None),
        # no coupling and no filter: the sampler reads the input itself
        AdcConfig(bits=14 if bits else None, ac_couple=None, aa_cutoff=None),
    ):
        adc_capture(tone(9.6e9), adc, 5)
    report = sine_metrics(tone(2.4e9), 250e6, MetricsConfig(n_avg=1), 1e9)
    assert report.fundamental_hz == pytest.approx(250e6, abs=1e9 / 16384)
