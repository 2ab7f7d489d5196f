"""Each stage keeps its input's dtype: float32 in gives float32 out at the
DAC rate, and the sub-band beat hands float64 on to the receiver. In
either precision, no stage writes into its caller's array.

The float64 oracles in the module tests pin float64-in, float64-out; these
cases pin the float32 side and how far single precision moves a result.
"""

import numpy as np
import pytest

from combadc.adc import AdcConfig, adc_capture
from combadc.comb import LinkConfig, beat_spectrum, mzm_field, subband_beat
from combadc.frontend import DacConfig, dac_model, sine_waveform
from combadc.metrics import MetricsConfig, sine_metrics
from combadc.waveform import SampledWaveform, apply_fir, fir_lowpass

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


@pytest.mark.parametrize("out_rate", [None, 9.6e9])  # None: the 32 GSa/s input rate
def test_beat_of_float32_field_is_float64_and_matches(out_rate):
    out_rate = out_rate or RATE
    x = sine_waveform(5.25e9, 0.2, 65536 / RATE, RATE).samples
    mu32 = mzm_field(SampledWaveform(_f32(x), RATE), 0.3)
    mu64 = SampledWaveform(mu32.samples.astype(np.float64), RATE)
    combs = make_combs()
    link = LinkConfig()
    i32 = subband_beat(beat_spectrum(mu32), 5, combs, link, 7, out_rate=out_rate).samples
    i64 = subband_beat(beat_spectrum(mu64), 5, combs, link, 7, out_rate=out_rate).samples
    assert i32.dtype == np.float64
    # the float32 transforms' rounding stays 120 dB under the current's peak
    np.testing.assert_allclose(i32, i64, atol=1e-6 * np.max(np.abs(i64)))


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
