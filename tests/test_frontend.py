import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import hilbert

from combadc.errors import SignalError
from combadc.frontend import (
    DacConfig,
    _phasor,
    ScmConfig,
    check_slot,
    dac_model,
    dequantize_midrise,
    gen_pam4_symbols,
    quantize_midrise,
    scm_waveform,
    sine_waveform,
)
from combadc.metrics import MetricsConfig, sine_metrics
from combadc.waveform import (
    _GAUSS_BLOCK,
    _SPLIT_BLOCK,
    SampledWaveform,
    _add_gaussian,
    _rfft_bins,
    apply_fir,
    fir_lowpass,
    periodogram,
    rrc_taps,
    spectral_tilt_taps,
)

from conftest import child_peak


# the reference comb pair's sub-band grid: channel k rides k * GRID
GRID = 1e9


# ------------------------------------------------------------------ symbols


def test_pam4_lattice_and_power():
    sym = gen_pam4_symbols(200_000, 1)
    lattice = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(5.0)
    assert set(np.round(np.unique(sym), 12)) == set(np.round(lattice, 12))
    assert np.mean(sym**2) == pytest.approx(1.0, rel=0.01)
    # all four levels drawn roughly uniformly
    counts = np.array([(sym == lv).sum() for lv in lattice])
    assert counts.min() > 0.2 * sym.size


def test_pam_symbols_determinism_and_orders():
    assert np.array_equal(gen_pam4_symbols(100, 5), gen_pam4_symbols(100, 5))
    assert not np.array_equal(gen_pam4_symbols(100, 5), gen_pam4_symbols(100, 6))
    two = gen_pam4_symbols(10_000, 2, levels=2)
    assert set(np.unique(two)) == {-1.0, 1.0}
    with pytest.raises(SignalError):
        gen_pam4_symbols(0, 1)
    with pytest.raises(SignalError):
        gen_pam4_symbols(10, 1, levels=3)


# -------------------------------------------------------------------- burst


def test_burst_symbol_budget():
    cfg = ScmConfig()
    assert cfg.symbols_per_burst == 1638
    assert cfg.active_set() == tuple(range(1, 11))
    assert ScmConfig(active_channels=(3, 7)).active_set() == (3, 7)


def test_scm_config_validation():
    with pytest.raises(SignalError):
        check_slot(ScmConfig(baud=950e6, rolloff=0.1), GRID)  # 1.045 GHz > 1 GHz grid
    with pytest.raises(SignalError):
        check_slot(ScmConfig(baseband_offset=0.6e9), GRID)
    with pytest.raises(SignalError):
        ScmConfig(n_channels=0)


def _one_channel_burst(k, rate=32e9, seed=11, cfg=None):
    cfg = cfg or ScmConfig(active_channels=(k,))
    sym = gen_pam4_symbols(cfg.symbols_per_burst, seed)
    return cfg, sym, scm_waveform(cfg, {k: sym}, rate, GRID)


def test_scm_slot_confinement():
    # channel 5 occupies 40 MHz +- 440 MHz around the 5 GHz subcarrier;
    # everything outside its 1 GHz slot is shaping sidelobe, way down
    k, rate = 5, 32e9
    _, _, wave = _one_channel_burst(k, rate)
    spec = periodogram(wave, n_fft=16384, n_avg=4)
    slot = spec.band_mask(k * 1e9 - 0.5e9, k * 1e9 + 0.5e9)
    p_in = spec.power_linear[slot].sum()
    p_out = spec.power_linear[~slot].sum()
    assert 10 * np.log10(p_in / p_out) > 30.0


def test_scm_linearity_in_symbols():
    cfg = ScmConfig(active_channels=(4,))
    a = gen_pam4_symbols(cfg.symbols_per_burst, 1)
    b = gen_pam4_symbols(cfg.symbols_per_burst, 2)
    w_a = scm_waveform(cfg, {4: a}, 32e9, GRID).samples
    w_b = scm_waveform(cfg, {4: b}, 32e9, GRID).samples
    w_ab = scm_waveform(cfg, {4: a + b}, 32e9, GRID).samples
    assert np.allclose(w_ab, w_a + w_b, atol=1e-12)


def test_scm_constant_symbols_are_two_lines():
    # a constant symbol stream leaves only the offset-carrier pair:
    # subcarrier +- baseband offset (4.96 and 5.04 GHz for channel 5)
    cfg = ScmConfig(active_channels=(5,))
    sym = np.ones(cfg.symbols_per_burst)
    wave = scm_waveform(cfg, {5: sym}, 32e9, GRID)
    # the lines are not bin-centered at any power-of-two FFT length, so use
    # the leakage-contained window
    spec = periodogram(wave, n_fft=16384, n_avg=4, window="blackman-harris-4term")
    p = spec.power_linear.copy()
    top = np.argsort(p)[-2:]
    got = sorted(spec.bin_freqs[top])
    assert got[0] == pytest.approx(5e9 - 40e6, abs=2 * spec.rbw)
    assert got[1] == pytest.approx(5e9 + 40e6, abs=2 * spec.rbw)
    # the pair carries essentially all the power
    guard = np.zeros_like(p, dtype=bool)
    for b in top:
        guard[max(b - 6, 0) : b + 7] = True
    assert p[guard].sum() / p.sum() > 0.95


def _scm_reference(cfg, symbols, rate):
    # the burst built channel by channel in time: symbol train, RRC by
    # direct circular convolution (the train wrapped by half the taps on
    # each side, as a generator replaying the record in a loop emits it),
    # full-rate Hilbert transform, offset mix, then the subcarrier multiply
    sps = int(round(rate / cfg.baud))
    n = int(round(cfg.duration * rate))
    t = np.arange(n) / rate
    taps = rrc_taps(cfg.rolloff, sps, 16)
    offset_lo = np.exp(2j * np.pi * cfg.baseband_offset * t)
    total = np.zeros(n)
    for k in cfg.active_set():
        train = np.zeros(n)
        train[np.arange(cfg.symbols_per_burst) * sps] = symbols[k]
        wrapped = np.pad(train, taps.size // 2, mode="wrap")
        shaped = np.convolve(wrapped, taps, mode="valid")
        offset_bb = np.real(hilbert(shaped) * offset_lo)
        total += offset_bb * np.cos(2.0 * np.pi * k * GRID * t)
    return total


def _assert_matches_reference(cfg, rate):
    symbols = {
        k: gen_pam4_symbols(cfg.symbols_per_burst, 100 + k)
        for k in range(1, cfg.n_channels + 1)
    }
    got = scm_waveform(cfg, symbols, rate, GRID).samples
    want = _scm_reference(cfg, symbols, rate)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("duration", [0.512e-6, 2.048e-6])
@pytest.mark.parametrize(
    "active",
    # all ten, three spread, a lone channel, two and three adjacent, and
    # nine of ten
    [None, (1, 4, 9), (5,), (1, 2), (1, 2, 3), (1, 2, 3, 5, 6, 7, 8, 9, 10)],
)
def test_scm_matches_time_domain_reference(duration, active):
    cfg = ScmConfig(duration=duration, active_channels=active)
    _assert_matches_reference(cfg, 32e9)


def test_scm_matches_reference_on_odd_record():
    # 900 MBd at 25 samples per symbol: 1.022 us is 22,995 samples, an
    # odd record whose last rfft bin is not a Nyquist bin
    cfg = ScmConfig(baud=900e6, duration=1.022e-6, active_channels=(2, 7, 10))
    assert round(cfg.duration * 22.5e9) % 2 == 1
    _assert_matches_reference(cfg, 22.5e9)


def test_scm_odd_record_past_one_split_block_matches_reference():
    # 1.458 us at 22.5 GSa/s is 32,805 samples: odd, and its 16,403 rfft
    # bins fill one split block and spill into a second
    cfg = ScmConfig(baud=900e6, duration=1.458e-6, active_channels=(3, 6, 9))
    n = round(cfg.duration * 22.5e9)
    assert n % 2 == 1 and n // 2 + 1 > _SPLIT_BLOCK
    _assert_matches_reference(cfg, 22.5e9)


def test_scm_pair_is_the_sum_of_its_channels():
    # the burst is linear in its channel set: channels 3 and 8 together
    # give the sum of the bursts of each alone
    symbols = {
        k: gen_pam4_symbols(ScmConfig().symbols_per_burst, 40 + k) for k in (3, 8)
    }
    pair = scm_waveform(ScmConfig(active_channels=(3, 8)), symbols, 32e9, GRID).samples
    alone = [
        scm_waveform(ScmConfig(active_channels=(k,)), symbols, 32e9, GRID).samples
        for k in (3, 8)
    ]
    assert np.max(np.abs(pair - (alone[0] + alone[1]))) < 1e-12


_PEAK_RSS = """
import numpy as np
from combadc.frontend import ScmConfig, gen_pam4_symbols, scm_waveform
short, cfg = ScmConfig(duration=0.512e-6), ScmConfig(duration=16.384e-6)
symbols = {k: gen_pam4_symbols(cfg.symbols_per_burst, k) for k in range(1, 11)}
warm = {k: s[: short.symbols_per_burst] for k, s in symbols.items()}
scm_waveform(short, warm, 32e9, 1e9, np.float32)
before = peak_kib()
burst = scm_waveform(cfg, symbols, 32e9, 1e9, np.float32).samples
print(peak_kib() - before, burst.nbytes)
"""


def test_scm_burst_takes_no_full_length_scratch():
    # the 16.384 us burst, 2^19 float32 samples: peak memory may grow by the
    # output, the complex64 spectrum (twice the output) and 3 MiB, as long
    # as what the spectrum's fill holds fits in it: the taps' response (half
    # the output, 1 MiB) and one channel's train, symbol spectrum and block
    # buffer (n / 8 samples each at the default gcd of 8, 1.25 MiB), with
    # the short transforms' plans. Shaped records, a pair buffer and
    # full-length transforms would add about 14 MiB.
    rise_kib, out_bytes = child_peak(_PEAK_RSS)
    assert rise_kib * 1024 < out_bytes + 2 * out_bytes + 3 * 2**20


@pytest.mark.parametrize("n", [2 * _SPLIT_BLOCK + 8, 2 * _SPLIT_BLOCK + 9])
@pytest.mark.parametrize(
    "lo,hi",
    # DC, the edge between the first two split blocks, and the last bins
    # (the Nyquist bin when n is even)
    [(0, 5), (_SPLIT_BLOCK - 3, _SPLIT_BLOCK + 4), (_SPLIT_BLOCK, _SPLIT_BLOCK + 5)],
)
def test_rfft_bins_split_one_complex_fft_into_two_real_ones(n, lo, hi):
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    z = np.fft.fft(x + 1j * y)
    np.testing.assert_allclose(
        _rfft_bins(z, lo, hi), np.fft.rfft(x)[lo:hi], rtol=0.0, atol=1e-10
    )
    np.testing.assert_allclose(
        _rfft_bins(z, lo, hi, imag=True), np.fft.rfft(y)[lo:hi], rtol=0.0, atol=1e-10
    )
    # the mirror bins Z[-k] are read as a reversed slice; gathered by index
    # instead, the same sums give the same bits, in either input precision,
    # each computed in its own
    for zz in (z, z.astype(np.complex64)):
        bins = zz[lo:hi]
        mirror = np.conj(zz[-np.arange(lo, hi)])
        assert np.array_equal(_rfft_bins(zz, lo, hi), (bins + mirror) * 0.5)
        assert np.array_equal(_rfft_bins(zz, lo, hi, imag=True), (bins - mirror) * -0.5j)


def test_scm_off_carrier_grid_is_rejected():
    # 2.0001 us at 32 GSa/s is 64,003 samples: 2000.09 cycles of 1 GHz
    cfg = ScmConfig(duration=2.0001e-6, active_channels=(1,))
    sym = gen_pam4_symbols(cfg.symbols_per_burst, 1)
    with pytest.raises(SignalError, match="whole number"):
        scm_waveform(cfg, {1: sym}, 32e9, GRID)


def test_scm_missing_or_wrong_symbols():
    cfg = ScmConfig(active_channels=(1, 2))
    sym = gen_pam4_symbols(cfg.symbols_per_burst, 1)
    with pytest.raises(SignalError):
        scm_waveform(cfg, {1: sym}, 32e9, GRID)
    with pytest.raises(SignalError):
        scm_waveform(cfg, {1: sym, 2: sym[:-1]}, 32e9, GRID)
    with pytest.raises(SignalError):
        scm_waveform(cfg, {1: sym, 2: sym}, 8e9, GRID)  # rate too low for 10 ch
    with pytest.raises(SignalError):
        scm_waveform(ScmConfig(active_channels=(1,)), {1: sym}, 32.1e9, GRID)


def test_sine_waveform():
    w = sine_waveform(1e9, 0.5, 1e-6, 32e9)
    assert w.n == 32000
    assert w.samples[0] == pytest.approx(0.5)
    assert np.max(np.abs(w.samples)) <= 0.5 + 1e-12
    with pytest.raises(SignalError):
        sine_waveform(17e9, 1.0, 1e-6, 32e9)


@pytest.mark.parametrize("freq,n", [(5.5e9, 3000), (3.3e9, 5000), (0.0, 1500)])
def test_sine_waveform_matches_cosine(freq, n):
    # the tone is built from two short exponentials, not one cos per
    # sample; over a few 1024-sample blocks it is the cosine to 1e-12,
    # and then rounded once to float32 (a relative 2**-24 at most)
    w = sine_waveform(freq, 0.8, n / 32e9, 32e9)
    want = 0.8 * np.cos(2.0 * np.pi * freq * np.arange(n) / 32e9)
    assert w.samples.dtype == np.float32
    np.testing.assert_allclose(w.samples, want, rtol=2.0**-24, atol=2e-12)


# both sides round a phase w*k of up to 6.6e5 rad (10.37 GHz, 300,001
# samples), an error of about 1e-10; each row is the product of two short
# exponentials, which adds no more than that
_PHASE_ATOL = 1e-9


@pytest.mark.parametrize("n", [1, 1024, 300_001])
@pytest.mark.parametrize("freq", [0.5e9, 5.5e9, 10.37e9])
def test_tone_taken_in_row_blocks_keeps_every_bit(freq, n):
    # the tone is formed 256 rows of 1024 samples at a time; 300,001
    # samples span two blocks and a partial row, and no row strays from
    # the cosine by more than the rounding of its phase
    w = 2.0 * np.pi * freq / 32e9
    k = np.arange(n)
    np.testing.assert_allclose(_phasor(w, n), np.cos(w * k), rtol=0.0, atol=_PHASE_ATOL)


@pytest.mark.parametrize("amplitude", [1.0, 0.8])
@pytest.mark.parametrize("n", [1, 1024, 300_001])
@pytest.mark.parametrize("freq", [0.5e9, 5.5e9, 10.37e9])
def test_float32_tone_is_the_float64_tone_rounded(freq, n, amplitude):
    # the tone is written straight into float32, scaled in float64 first:
    # bit for bit the float64 tone times the amplitude, then cast
    want = (_phasor(2.0 * np.pi * freq / 32e9, n) * amplitude).astype(np.float32)
    got = sine_waveform(freq, amplitude, n / 32e9, 32e9).samples
    assert got.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("n", [1024, 300_001])
def test_offset_mix_in_row_blocks_keeps_every_bit(n):
    # the burst's offset mix Re(x e^{jwk}) is formed in the same row blocks
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = 2.0 * np.pi * 40e6 / 32e9
    want = (x * np.exp(1j * w * np.arange(n))).real
    np.testing.assert_allclose(_phasor(w, n, times=x), want, rtol=0.0, atol=_PHASE_ATOL)


# ---------------------------------------------------------------- quantizer


def test_midrise_anchors():
    codes = quantize_midrise(np.array([0.0, 0.24, -0.26, 0.999]), 3, 1.0)
    # step = 0.25: 0 -> 0, 0.24 -> 0, -0.26 -> -2, 0.999 -> 3 (rail)
    assert codes.tolist() == [0, 0, -2, 3]
    vals = dequantize_midrise(codes, 3, 1.0)
    assert vals.tolist() == [0.125, 0.125, -0.375, 0.875]
    # rails clip
    assert quantize_midrise(np.array([5.0, -5.0]), 3, 1.0).tolist() == [3, -4]
    # no-clip mode keeps going
    assert quantize_midrise(np.array([5.0]), 3, 1.0, clip=False)[0] == 20


def test_midrise_monotone():
    x = np.linspace(-1.2, 1.2, 10_001)
    codes = quantize_midrise(x, 6, 1.0)
    assert np.all(np.diff(codes) >= 0)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(min_value=2, max_value=14),
    x=st.floats(min_value=-0.999, max_value=0.999),
)
def test_midrise_roundtrip_error_bound(bits, x):
    step = 1.0 / 2 ** (bits - 1)
    y = dequantize_midrise(quantize_midrise(np.array([x]), bits, 1.0), bits, 1.0)[0]
    assert abs(y - x) <= step / 2 + 1e-12


# ---------------------------------------------------------------------- DAC


def test_dac_all_switches_off_is_identity(rng):
    cfg = DacConfig(bits=None, clip=False, residual_noise_db=None, lpf_cutoff=None)
    x = SampledWaveform(rng.uniform(-2, 2, 4096), cfg.rate)
    y = dac_model(x, cfg, 1)
    assert np.array_equal(y.samples, x.samples)


@pytest.mark.parametrize("clip", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [2 * _GAUSS_BLOCK, 2 * _GAUSS_BLOCK + 777, 1000])
def test_dac_model_is_the_plain_composition(n, dtype, clip, rng):
    # in place, its noise added a block at a time, the DAC gives the bytes
    # of the plain composition: clip, quantize and dequantize, one float32
    # Gaussian draw of the whole record added, then the one FIR
    cfg = DacConfig(clip=clip, electrical_rolloff_db=3.0)
    x = rng.uniform(-1.3, 1.3, n).astype(dtype)
    y = np.clip(x, -1.0, 1.0) if clip else x
    y = dequantize_midrise(quantize_midrise(y, cfg.bits, 1.0, clip=clip), cfg.bits, 1.0)
    sigma = np.sqrt(0.5 * 10.0 ** (cfg.residual_noise_db / 10.0))
    noise = _add_gaussian(np.zeros(n, np.float32), sigma, np.random.default_rng(9))
    y = (noise + y).astype(dtype)
    reconstruction = fir_lowpass(cfg.lpf_cutoff, cfg.rate, 0.08 * cfg.lpf_cutoff)
    want = apply_fir(y, np.convolve(reconstruction, spectral_tilt_taps(cfg.rate, 3.0)))
    got = dac_model(SampledWaveform(x, cfg.rate), cfg, 9).samples
    assert got.dtype == dtype
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_dac_rate_mismatch():
    with pytest.raises(SignalError):
        dac_model(SampledWaveform(np.zeros(64), 16e9), DacConfig(), 1)


def test_dac_quantization_law_6bit():
    # near-full-scale bin-centered sine, quantization alone: SINAD over
    # the DAC's own Nyquist = 6.02*6 + 1.76 within 1 dB. The bin index is
    # coprime to the FFT length so the tone sweeps the full phase grid;
    # a shared factor would leave the quantization error sampled at a
    # handful of phases and off the phase-averaged law by over a dB.
    cfg = DacConfig(bits=6, residual_noise_db=None, lpf_cutoff=None)
    rbw = cfg.rate / 16384
    tone = sine_waveform(2561 * rbw, 0.999, 16384 * 4 / cfg.rate, cfg.rate)
    out = dac_model(tone, cfg, 1)
    rep = sine_metrics(out, 2561 * rbw, MetricsConfig(), cfg.rate)
    assert rep.sinad_db == pytest.approx(6.02 * 6 + 1.76, abs=1.0)


def test_dac_residual_noise_level(rng):
    # the calibration term alone: white, variance relative to a
    # full-scale sine as configured
    cfg = DacConfig(bits=None, clip=False, residual_noise_db=-34.0, lpf_cutoff=None)
    x = SampledWaveform(np.zeros(400_000), cfg.rate)
    y = dac_model(x, cfg, 7)
    want = 0.5 * 10 ** (-3.4)
    assert np.var(y.samples) == pytest.approx(want, rel=0.02)
    again = dac_model(x, cfg, 7)
    assert np.array_equal(y.samples, again.samples)


def test_dac_reconstruction_lpf_flat_in_band():
    # the filter must not shave tones near the top of the sweep band;
    # compare rms over the interior (clear of the filter edge transients)
    cfg = DacConfig(bits=None, clip=False, residual_noise_db=None)
    n = 16384 * 2
    body = slice(2048, n - 2048)

    def drop_db(f):
        tone = sine_waveform(f, 0.2, n / cfg.rate, cfg.rate)
        out = dac_model(tone, cfg, 1)
        from combadc.waveform import rms

        return 20 * np.log10(rms(out.samples[body]) / rms(tone.samples[body]))

    assert abs(drop_db(10.455e9)) < 0.05
    assert abs(drop_db(0.5e9)) < 0.05
    # and a tone past cutoff is strongly rejected
    assert drop_db(14e9) < -40.0


@pytest.mark.parametrize("lpf_cutoff", [11e9, None])
def test_dac_one_fir_matches_reconstruction_then_tilt(lpf_cutoff, rng):
    # the merged FIR against the reconstruction low-pass and the tilt run
    # back to back; the cascade truncates its intermediate "same" output,
    # so the two may differ only within half the merged length of an edge
    cfg = DacConfig(lpf_cutoff=lpf_cutoff)
    x = SampledWaveform(rng.uniform(-1.2, 1.2, 20001), cfg.rate)
    tilted = DacConfig(lpf_cutoff=lpf_cutoff, electrical_rolloff_db=3.0)
    got = dac_model(x, tilted, 5).samples
    h2 = spectral_tilt_taps(cfg.rate, 3.0)
    want = apply_fir(dac_model(x, cfg, 5).samples, h2)
    h1 = np.ones(1)
    if lpf_cutoff is not None:
        h1 = fir_lowpass(lpf_cutoff, cfg.rate, transition_hz=0.08 * lpf_cutoff)
    edge = (h1.size + h2.size) // 2
    assert got.size == want.size
    assert np.max(np.abs(got[edge:-edge] - want[edge:-edge])) <= 1e-12


def test_dac_clip_stage():
    cfg = DacConfig(bits=None, lpf_cutoff=None, residual_noise_db=None)
    x = SampledWaveform(np.array([0.5, 1.5, -2.0, 0.0]), cfg.rate)
    y = dac_model(x, cfg, 1)
    assert np.max(np.abs(y.samples)) <= 1.0
    assert y.samples[0] == 0.5


def test_dac_config_validation():
    with pytest.raises(SignalError):
        DacConfig(bits=0)
    with pytest.raises(SignalError):
        DacConfig(lpf_cutoff=17e9)  # >= Nyquist of 32 GSa/s
