"""Whole-system acceptance checks.

One test per headline requirement of the reference system, each asserting
at its stated tolerance, so a verbose pytest run reads as a pass/fail
checklist. The expensive artifacts (the full sweep and the channelized
runs) are produced once per session by module-scoped fixtures and shared
by the tests that grade them.
"""

import time

import numpy as np
import pytest

from combadc.adc import AdcConfig, adc_capture
from combadc.comb import mzm_field, subband_beat
from combadc.demod import demod_pam4
from combadc.frontend import DacConfig, dac_model, gen_pam4_symbols, sine_waveform
from combadc.metrics import sine_metrics
from combadc.runner import run_scm, run_sweep, snap_sweep_frequency
from combadc.scenario import build_combs, load_config
from combadc.units import db_to_amplitude_ratio
from combadc.waveform import SampledWaveform, periodogram, time_vector

from conftest import make_combs
from test_demod import _cfg as demod_cfg
from test_demod import _ssb_capture

ANALYSIS_RATE = 1e9
N_FFT = 16384
RBW = ANALYSIS_RATE / N_FFT

FAST_SWEEP = """
sweep.start = 3ghz
sweep.stop = 5ghz
sweep.step = 0.5ghz
sweep.duration = 20us
metrics.n_avg = 1
"""


def _read_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep_full")
    t0 = time.perf_counter()
    run_sweep(load_config(""), str(out), jobs=4)
    elapsed = time.perf_counter() - t0
    return _read_rows(out / "sweep.csv"), elapsed


@pytest.fixture(scope="module")
def scm_run(tmp_path_factory):
    full = tmp_path_factory.mktemp("scm_full")
    muted = tmp_path_factory.mktemp("scm_muted")
    t0 = time.perf_counter()
    manifest = run_scm(load_config(""), str(full), jobs=4)
    run_scm(load_config("scm.active_channels = 1"), str(muted), jobs=1)
    elapsed = time.perf_counter() - t0
    snr = dict(_read_rows(full / "scm_snr.csv"))
    snr_muted = dict(_read_rows(muted / "scm_snr.csv"))
    return snr, snr_muted, elapsed, manifest, str(full)


def test_tone_mapping_into_subband_five():
    # a 5.25 GHz drive must appear at 250 MHz (within one analysis bin)
    # in sub-band 5, and 4.75 GHz must fold onto the same bin; each
    # single-tone measurement finishes in under 10 seconds
    cfg = load_config("")
    combs = build_combs(cfg)
    backoff = db_to_amplitude_ratio(-cfg.link.sine_backoff_db)
    peaks = []
    for f_request in (5.25e9, 4.75e9):
        t0 = time.perf_counter()
        f_actual, n, folded = snap_sweep_frequency(f_request, cfg, combs)
        assert n == 5
        x = sine_waveform(f_actual, 1.0, cfg.sweep.duration, cfg.dac.rate)
        y = dac_model(x, cfg.dac, seed=1)
        v = np.clip(y.samples * backoff / 1.0, -1.0, 1.0)
        mu = mzm_field(SampledWaveform(v, y.rate), cfg.link.drive_scale)
        cap = adc_capture(subband_beat(mu, n, combs, cfg.link, seed=2), n, cfg.adc, seed=3)
        rep = sine_metrics(cap, folded)
        assert time.perf_counter() - t0 < 10.0
        assert rep.fundamental_hz == pytest.approx(250e6, abs=RBW)
        peaks.append(rep.fundamental_hz)
    assert peaks[0] == peaks[1]


def test_metric_readout_on_constructed_capture():
    # a capture built with exactly 40.0 dB in-band SNR must read back as
    # SINAD 40.0 +-0.5; adding a -45 dBc spur must read SFDR 45.0 +-0.5;
    # ENOB must equal (SINAD - 1.76) / 6.02 exactly
    n = N_FFT * 4 + 2048
    t = time_vector(n, ANALYSIS_RATE)
    amp = 0.9
    tone = amp * np.cos(2.0 * np.pi * (2561 * RBW) * t)
    n_band = 8192 - 163 - 7
    sigma2 = (amp**2 / 2.0) * 1e-4 * 8192 / n_band
    noise = np.random.default_rng(8).normal(0.0, np.sqrt(sigma2), n)
    clean = sine_metrics(SampledWaveform(tone + noise, ANALYSIS_RATE), 2561 * RBW)
    assert clean.sinad_db == pytest.approx(40.0, abs=0.5)

    spur = amp * 10 ** (-45.0 / 20.0) * np.cos(2.0 * np.pi * (3413 * RBW) * t)
    spurred = sine_metrics(SampledWaveform(tone + noise + spur, ANALYSIS_RATE), 2561 * RBW)
    assert spurred.sfdr_db == pytest.approx(45.0, abs=0.5)
    assert spurred.enob_bits == (spurred.sinad_db - 1.76) / 6.02


def test_quantization_law_end_to_end():
    # ideal 14-bit converter on a full-scale sine: SINAD 86.0 +-1;
    # the 6-bit transmit DAC alone: 37.9 +-1
    f = 2561 * RBW
    n_out = N_FFT * 4 + 2048
    t = time_vector(n_out * 8, 8e9)
    adc_cfg = AdcConfig(
        bits=14, rate=1e9, full_scale=1.0, jitter_rms=0.0, aa_cutoff=None, ac_couple_hz=None
    )
    cap = adc_capture(
        SampledWaveform(0.9999 * np.cos(2 * np.pi * f * t), 8e9), 1, adc_cfg, seed=1
    )
    assert sine_metrics(cap, f).sinad_db == pytest.approx(86.0, abs=1.0)

    dac_cfg = DacConfig(bits=6, residual_noise_db=None, lpf_cutoff=None)
    dac_rbw = dac_cfg.rate / N_FFT
    tone = sine_waveform(
        2561 * dac_rbw, 0.999 * 1.0, N_FFT * 4 / dac_cfg.rate, dac_cfg.rate
    )
    rep = sine_metrics(dac_model(tone, dac_cfg, 1), 2561 * dac_rbw, analysis_rate=dac_cfg.rate)
    assert rep.sinad_db == pytest.approx(37.9, abs=1.0)


def test_spectral_bookkeeping_rbw_and_floor(rng):
    # 16384-point 4-average periodogram at 1 GSa/s: RBW 61.0 kHz, and a
    # white floor sits 39.1 +-0.3 dB below the integrated noise power
    wave = SampledWaveform(rng.normal(0.0, 0.1, N_FFT * 4), ANALYSIS_RATE)
    spec = periodogram(wave, n_fft=N_FFT, n_avg=4)
    assert round(spec.rbw / 1e3, 1) == 61.0
    p = spec.power_linear
    offset_db = 10.0 * np.log10(p.sum() / p.mean())
    assert offset_db == pytest.approx(39.1, abs=0.3)


def test_calibrated_sweep_profile(sweep_run):
    # full sweep at defaults: 41 points, SFDR above 45 dB everywhere,
    # SINAD inside 20 +-3 dB falling monotonically (0.3 dB wiggle
    # allowance) by 3 +-1 dB from 0.5 to 10.5 GHz, in under 5 minutes
    rows, elapsed = sweep_run
    assert elapsed < 300.0
    assert len(rows) == 41
    freqs = [r[0] for r in rows]
    assert freqs[0] == 0.5 and freqs[-1] == 10.5
    sfdr = [r[1] for r in rows]
    sinad = [r[2] for r in rows]
    assert min(sfdr) > 45.0
    assert all(17.0 <= s <= 23.0 for s in sinad)
    for prev, cur in zip(sinad, sinad[1:]):
        assert cur <= prev + 0.3
    assert sinad[0] - sinad[-1] == pytest.approx(3.0, abs=1.0)


def test_channelized_snr_profile_and_muting(scm_run):
    # all ten channels demodulate; channel 1 lands at 20.1 +-1.5 dB,
    # channel 10 sits 2.5 +-1 dB below it, and muting the other nine
    # channels buys channel 1 about 3 dB (+-1); all inside 5 minutes
    snr, snr_muted, elapsed, _, _ = scm_run
    assert elapsed < 300.0
    assert sorted(snr) == [float(ch) for ch in range(1, 11)]
    assert snr[1.0] == pytest.approx(20.1, abs=1.5)
    assert snr[1.0] - snr[10.0] == pytest.approx(2.5, abs=1.0)
    assert snr_muted[1.0] - snr[1.0] == pytest.approx(3.0, abs=1.0)


def test_equalizer_recovers_rolloff():
    # synthetic 8 dB roll-off across the symbol band: the 17-tap FFE
    # gains at least 3 dB over the unequalized slicer, and adaptive LMS
    # finishes within 1 dB of the direct Wiener solve
    sym = gen_pam4_symbols(1638, seed=13)
    kw = dict(noise_rms=0.01, seed=31, droop_a=0.42)
    raw = demod_pam4(_ssb_capture(sym, **kw), demod_cfg(equalizer="none"), sym)
    lms = demod_pam4(_ssb_capture(sym, **kw), demod_cfg(equalizer="lms"), sym)
    wien = demod_pam4(_ssb_capture(sym, **kw), demod_cfg(equalizer="wiener"), sym)
    assert lms.snr_db - raw.snr_db >= 3.0
    assert lms.snr_db >= wien.snr_db - 1.0


def test_jitter_sensitivity_law():
    # with quantization disabled, clock jitter sized for a 40 dB ceiling
    # at 400 MHz reads SINAD 40 +-1; with jitter at zero the readout is
    # frequency independent within 0.2 dB
    sigma = 10 ** (-40.0 / 20.0) / (2.0 * np.pi * 400e6)
    base = dict(bits=14, rate=1e9, full_scale=1.0, aa_cutoff=None, ac_couple_hz=None)
    n_out = N_FFT * 4 + 2048
    t = time_vector(n_out * 8, 8e9)

    def capture(k, jitter_rms, quantize):
        f = k * RBW
        x = SampledWaveform(0.99 * np.cos(2 * np.pi * f * t), 8e9)
        cfg = AdcConfig(jitter_rms=jitter_rms, **base)
        return sine_metrics(adc_capture(x, 1, cfg, seed=3, quantize=quantize), f)

    assert capture(6554, sigma, False).sinad_db == pytest.approx(40.0, abs=1.0)

    lo = capture(1639, 0.0, True).sinad_db
    hi = capture(7373, 0.0, True).sinad_db
    assert abs(lo - hi) < 0.2


def test_seed_phase_immunity():
    # the shared seed laser's linewidth must not reach the beat product:
    # captures with 0 and 5 kHz are bit for bit identical
    cfg = load_config("")
    t = time_vector(65536, 32e9)
    mu = SampledWaveform(0.1 * np.cos(2 * np.pi * 5.25e9 * t), 32e9)
    caps = []
    for lw in (0.0, 5e3):
        combs = make_combs(drive_linewidth=300.0, seed_linewidth=lw)
        beat = subband_beat(mu, 5, combs, cfg.link, seed=42)
        caps.append(adc_capture(beat, 5, cfg.adc, seed=43))
    assert np.array_equal(caps[0].codes, caps[1].codes)


def test_deterministic_artifacts_across_jobs(scm_run, tmp_path):
    # same seed, different worker counts: every CSV byte-identical
    _, _, _, manifest4, _ = scm_run
    serial = run_scm(load_config(""), str(tmp_path / "scm1"), jobs=1)
    assert serial.artifacts == manifest4.artifacts

    a = run_sweep(load_config(FAST_SWEEP), str(tmp_path / "sw1"), jobs=1)
    b = run_sweep(load_config(FAST_SWEEP), str(tmp_path / "sw4"), jobs=4)
    assert a.artifacts == b.artifacts
    assert _read_bytes(tmp_path / "sw1/sweep.csv") == _read_bytes(tmp_path / "sw4/sweep.csv")
