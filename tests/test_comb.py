import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from combadc import comb
from combadc.comb import (
    LinkConfig,
    ScenarioCombs,
    cascade_harmonics,
    comb_from_cascade,
    flat_comb,
    _band_half,
    _differential_phase,
    beat_spectrum,
    mzm_field,
    subband_beat,
)
from combadc.errors import ConfigError, SignalError
from combadc.scenario import CombsSection
from combadc.units import dbm_to_watts
from combadc.waveform import (
    SampledWaveform,
    _add_analytic,
    _rfft_bins,
    periodogram,
    time_vector,
)

from conftest import child_peak, flatness_db, make_combs, quiet_link


# ----------------------------------------------------------------- comb gen


def test_cascade_energy_conservation():
    # a pure phase modulator has |g(t)| = 1: total line power is exactly 1
    c = cascade_harmonics(18.2, 0.0)
    assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-9)
    # with the intensity stage the field is attenuated, never amplified
    c2 = cascade_harmonics(18.2, 1.6)
    assert np.sum(np.abs(c2) ** 2) < 1.0


def test_cascade_comb_default_operating_point():
    amps = comb_from_cascade(18.2, 1.6, 24)
    assert amps.size == 24
    assert amps.max() == pytest.approx(1.0)
    assert flatness_db(amps) < 3.0


def _flattest_window_loop(amps, n_tones, floor):
    """Reference: first window of n_tones lines, all above floor, whose
    weakest line is strongest; None when no window qualifies."""
    best = None
    for start in range(amps.size - n_tones + 1):
        run = amps[start : start + n_tones]
        if (run > floor).all() and (best is None or run.min() > best[1]):
            best = (start, run.min())
    return None if best is None else best[0]


@pytest.mark.parametrize("pm,im", [(18.2, 1.6), (18.2, 0.0), (5.0, 0.8), (1.45, 0.0)])
@pytest.mark.parametrize("n_tones", [1, 7, 24, 40])
def test_cascade_comb_picks_the_flattest_window(pm, im, n_tones):
    amps = np.abs(cascade_harmonics(pm, im))
    start = _flattest_window_loop(amps, n_tones, amps.max() * 10 ** (-40 / 20))
    if start is None:
        with pytest.raises(SignalError, match="usable lines"):
            comb_from_cascade(pm, im, n_tones)
        return
    window = amps[start : start + n_tones]
    assert np.array_equal(comb_from_cascade(pm, im, n_tones), window / window.max())


def test_cascade_comb_too_weak_drive():
    with pytest.raises(SignalError):
        comb_from_cascade(1.45, 0.0, 24)


def test_calibration_script_picks_the_shipped_cascade():
    path = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_defaults.py"
    spec = importlib.util.spec_from_file_location("calibrate_defaults", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    flatness, pm, im = script.comb_flatness_grid()
    shipped = CombsSection()
    assert (pm, im) == (shipped.cascade_pm, shipped.cascade_im)
    assert flatness == pytest.approx(2.06, abs=0.005)


def test_flat_comb_tilt():
    amps = flat_comb(24, tilt_db=2.0)
    assert amps[0] == 1.0
    assert 20 * np.log10(amps[0] / amps[-1]) == pytest.approx(2.0)
    assert flatness_db(amps) == pytest.approx(2.0)
    assert flatness_db(flat_comb(24)) == 0.0


def test_scenario_combs_validation():
    pair = dict(signal_amps=flat_comb(2), lo_amps=flat_comb(2), delta_f=1e9)
    assert ScenarioCombs(**pair).n_pairs == 2
    for change in [
        dict(signal_amps=np.ones(0), lo_amps=np.ones(0)),
        dict(signal_amps=np.ones(3)),
        dict(signal_amps=np.array([1.0, 0.0])),
        dict(lo_amps=np.array([1.0, np.inf])),
        dict(linewidth=-1.0),
        dict(delta_f=0.0),
        dict(delta_f=-1e9),
    ]:
        with pytest.raises(ConfigError):
            ScenarioCombs(**{**pair, **change})


@pytest.mark.parametrize(
    "key", ["sig_power_per_ch_dbm", "lo_power_per_tone_dbm", "sine_backoff_db"]
)
def test_only_the_noise_ratios_may_be_infinite(key):
    # inf drops the ASE beat, the leak and (a level, not a ratio) the TIA
    # saturation; any other infinite level would leave every beat
    # non-finite, or the sweep tone silent
    LinkConfig(osnr_db=np.inf, cmrr_db=np.inf, tia_sat_dbm=np.inf)
    with pytest.raises(ConfigError, match="only osnr_db, cmrr_db and tia_sat_dbm"):
        LinkConfig(**{key: np.inf})


def test_scenario_combs_geometry():
    combs = make_combs()
    assert combs.delta_f == pytest.approx(1e9)
    assert combs.n_pairs == 24


# ---------------------------------------------------------------- modulator


def test_mzm_small_signal_slope_and_symmetry(rng):
    v = rng.uniform(-1, 1, 4096)
    mu = mzm_field(SampledWaveform(v, 32e9), 0.02).samples
    assert np.allclose(mu, 0.5 * np.pi * 0.02 * v, rtol=1e-3)
    mu_neg = mzm_field(SampledWaveform(-v, 32e9), 0.02).samples
    assert np.allclose(mu_neg, -mu, atol=1e-15)


def test_mzm_third_harmonic_bounded():
    rate, n = 32e9, 16384
    k = 341  # odd bin, third harmonic 1023 also on the grid
    t = time_vector(n, rate)
    v = np.cos(2 * np.pi * (k * rate / n) * t)
    mu = mzm_field(SampledWaveform(v, rate), 0.3)
    spec = periodogram(mu, n_fft=n)
    hd3 = spec.power_db[3 * k] - spec.power_db[k]
    assert hd3 < -40.0
    # and it is real distortion, not numerical floor
    assert hd3 > -80.0


def test_mzm_rejects_unnormalized_drive():
    with pytest.raises(SignalError):
        mzm_field(SampledWaveform(np.array([0.0, 1.4]), 32e9), 0.3)
    with pytest.raises(SignalError):
        mzm_field(SampledWaveform(np.zeros(4), 32e9), 0.0)


# ----------------------------------------------------------------- beat law


def _mu_tone(f, rate=32e9, n=65536, amp=0.05):
    t = time_vector(n, rate)
    return SampledWaveform(amp * np.cos(2 * np.pi * f * t), rate)


def test_beat_downconverts_to_folded_frequency():
    # content at 5.25 GHz seen by pair 5 lands at 250 MHz; 4.75 GHz folds
    # onto the same bin
    combs = make_combs()
    link = quiet_link()
    for f in (5.25e9, 4.75e9):
        spectrum = beat_spectrum(_mu_tone(f))
        out = subband_beat(spectrum, 5, combs, link, 3, out_rate=32e9)
        spec = periodogram(out, n_fft=16384)
        peak_hz = spec.bin_freqs[np.argmax(spec.power_linear)]
        assert peak_hz == pytest.approx(250e6, abs=2 * spec.rbw)


def test_beat_gain_matches_link_budget():
    # heterodyne amplitude = 2 R sqrt(P_ch P_lo) a_sig a_lo for a unit tone
    combs = make_combs(tilt_db=2.0)
    link = quiet_link()
    n = 65536
    spectrum = beat_spectrum(_mu_tone(5.25e9, n=n, amp=0.05))
    out = subband_beat(spectrum, 5, combs, link, 3, out_rate=32e9)
    a_sig = combs.signal_amps[4]
    want = (
        2.0
        * link.responsivity
        * np.sqrt(
            dbm_to_watts(link.sig_power_per_ch_dbm)
            * dbm_to_watts(link.lo_power_per_tone_dbm)
        )
        * a_sig
        * 0.05
    )
    body = slice(4096, n - 4096)
    got = np.sqrt(2.0) * np.sqrt(np.mean(out.samples[body] ** 2))
    assert got == pytest.approx(want, rel=0.01)


def test_beat_linear_in_modulation():
    combs = make_combs()
    link = quiet_link()
    spectra = (beat_spectrum(_mu_tone(5.25e9, amp=amp)) for amp in (0.02, 0.06))
    a, b = (subband_beat(s, 5, combs, link, 3, out_rate=32e9) for s in spectra)
    assert np.allclose(b.samples, 3.0 * a.samples, atol=1e-12)


def test_beat_thermal_noise_variance():
    # with only thermal noise on and zero modulation, the output variance
    # equals the density law filtered by the photodiode response
    combs = make_combs()
    link = quiet_link(thermal_noise_density=4.4e-11)
    n = 400_000
    spectrum = beat_spectrum(SampledWaveform(np.zeros(n), 32e9))
    out = subband_beat(spectrum, 1, combs, link, seed=9, out_rate=32e9)
    from combadc.waveform import fir_lowpass

    taps = fir_lowpass(link.pd_bandwidth, 32e9)
    sigma_in = link.thermal_noise_density**2 * 32e9 / 2.0
    want = sigma_in * np.sum(taps**2)
    assert np.var(out.samples) == pytest.approx(want, rel=0.03, abs=0.0)


def test_beat_cmrr_leak_scales():
    combs = make_combs()
    n = 32768
    spectrum = beat_spectrum(_mu_tone(0.3e9, n=n, amp=0.2))
    base, leak35, leak29 = (
        subband_beat(spectrum, 1, combs, quiet_link(cmrr_db=cmrr_db), 3, out_rate=32e9)
        for cmrr_db in (np.inf, 35.0, 29.0)
    )
    d35 = leak35.samples - base.samples
    d29 = leak29.samples - base.samples
    ratio = np.sqrt(np.mean(d29**2) / np.mean(d35**2))
    assert ratio == pytest.approx(10 ** (6 / 20), rel=1e-3)


def test_beat_tia_soft_limit():
    combs = make_combs()
    # huge drive against a low saturation point: output pinned near the rail
    link = quiet_link(tia_sat_dbm=-60.0)
    spectrum = beat_spectrum(_mu_tone(1.25e9, amp=0.9))
    out = subband_beat(spectrum, 1, combs, link, 3, out_rate=32e9)
    sat = 2.0 * link.responsivity * np.sqrt(
        dbm_to_watts(link.lo_power_per_tone_dbm) * dbm_to_watts(link.tia_sat_dbm)
    )
    assert np.max(np.abs(out.samples)) <= sat * (1 + 1e-12)
    assert np.max(np.abs(out.samples)) > 0.9 * sat


def test_beat_index_and_rate_guards():
    combs = make_combs()
    link = quiet_link()
    spectrum = beat_spectrum(_mu_tone(1e9))
    with pytest.raises(SignalError):
        subband_beat(spectrum, 0, combs, link, 1, out_rate=32e9)
    with pytest.raises(SignalError):
        subband_beat(spectrum, 25, combs, link, 1, out_rate=32e9)
    slow = beat_spectrum(_mu_tone(1e9, rate=2e9, n=4096))
    with pytest.raises(SignalError):
        subband_beat(slow, 5, combs, link, 1, out_rate=2e9)


# -------------------------------------------------------- phase bookkeeping


def test_drive_phase_noise_scales_with_pair_index():
    # the synthesizer walk enters multiplied by n: same seed, so the
    # phase track for pair 3 is exactly 3x the track for pair 1
    combs = make_combs(linewidth=300.0)
    t1 = _differential_phase(1, combs, 10_000, 1e9, seed=5)
    t3 = _differential_phase(3, combs, 10_000, 1e9, seed=5)
    assert np.allclose(t3, 3.0 * t1, atol=1e-12)
    assert np.sqrt(np.mean(np.square(t1 - t1[0]))) > 0.0


def test_path_drift_is_common_to_all_pairs():
    combs = make_combs(drift=200.0)
    t1 = _differential_phase(1, combs, 100_000, 1e9, seed=5)
    t9 = _differential_phase(9, combs, 100_000, 1e9, seed=5)
    assert np.allclose(t1, t9, atol=1e-15)
    assert t1[-1] == pytest.approx(200.0 * (t1.size - 1) / 1e9)


def test_beat_determinism():
    combs = make_combs()
    link = LinkConfig()
    spectrum = beat_spectrum(_mu_tone(5.25e9, amp=0.1))
    a = subband_beat(spectrum, 5, combs, link, seed=42, out_rate=32e9)
    b = subband_beat(spectrum, 5, combs, link, seed=42, out_rate=32e9)
    c = subband_beat(spectrum, 5, combs, link, seed=43, out_rate=32e9)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


# ------------------------------------------------- band-select down-conversion


def _link_gain(link, combs, n):
    return (
        2.0
        * link.responsivity
        * np.sqrt(
            dbm_to_watts(link.sig_power_per_ch_dbm)
            * dbm_to_watts(link.lo_power_per_tone_dbm)
        )
        * combs.signal_amps[n - 1]
        * combs.lo_amps[n - 1]
    )


def _tone_fit(x, rate, freqs, body=2048):
    """Least-squares amplitudes of cosines at known frequencies, edges cut."""
    t = time_vector(x.size, rate)[body:-body]
    cols = []
    for f in freqs:
        cols += [np.cos(2 * np.pi * f * t), np.sin(2 * np.pi * f * t)]
    coef, *_ = np.linalg.lstsq(np.array(cols).T, x[body:-body], rcond=None)
    return np.hypot(coef[0::2], coef[1::2])


def _check_hilbert_mix_oracle(n_samples, n, phased, rng):
    from scipy import signal as sps

    from combadc.waveform import apply_fir, fir_lowpass

    if phased:
        combs = ScenarioCombs(
            signal_amps=comb_from_cascade(18.2, 1.6, 24),
            lo_amps=flat_comb(24),
            delta_f=1e9,
            differential_phase_drift=3e5,
        )
    else:
        combs = make_combs(tilt_db=2.0)
    link = quiet_link()
    rate = 32e9
    mu = SampledWaveform(0.05 * rng.standard_normal(n_samples), rate)
    out = subband_beat(beat_spectrum(mu), n, combs, link, 3, out_rate=rate)
    t = time_vector(n_samples, rate)
    theta = combs.differential_phase_drift * t
    assert np.any(theta) == phased
    lo = np.exp(1j * (theta - 2 * np.pi * n * combs.delta_f * t))
    mixed = _link_gain(link, combs, n) * np.real(sps.hilbert(mu.samples) * lo)
    want = apply_fir(mixed, fir_lowpass(link.pd_bandwidth, rate))
    assert out.rate == rate and out.n == n_samples
    assert np.max(np.abs(out.samples - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("n_samples", [65536, 65537])
@pytest.mark.parametrize("n", [1, 4, 10])
def test_beat_matches_hilbert_mix_oracle(n_samples, n, rng):
    # full rate, impairments off: the frequency-domain down-conversion is
    # the analytic signal mixed down by n * delta_f and low-passed; 65537
    # samples put the downshift off the FFT bin grid
    _check_hilbert_mix_oracle(n_samples, n, False, rng)


@pytest.mark.parametrize("n_samples", [65536, 65537])
@pytest.mark.parametrize("n", [1, 4, 10])
def test_beat_matches_hilbert_mix_oracle_phased(n_samples, n, rng):
    # the phased pair (cascade signal comb against a flat LO, plus path
    # drift) mixes in a nonzero differential phase on the bin grid as well
    _check_hilbert_mix_oracle(n_samples, n, True, rng)


@pytest.mark.parametrize("out_rate", [None, 9.6e9])  # None: the 32 GSa/s input rate
def test_beat_subband_one_mirror_rejected(out_rate):
    # 0.7 GHz seen by pair 1 lands at 0.3 GHz; a leaky Hilbert transform
    # would also put its -0.7 GHz image at 1.7 GHz. The photodiode band is
    # widened so the filter cannot hide that image.
    combs = make_combs()
    link = quiet_link(pd_bandwidth=3e9)
    n_in = 64000  # 0.5 MHz bins at 32 GSa/s and at 9.6 GSa/s
    out_rate = out_rate or 32e9
    spectrum = beat_spectrum(_mu_tone(0.7e9, n=n_in))
    out = subband_beat(spectrum, 1, combs, link, 3, out_rate=out_rate)
    assert out.rate == out_rate
    body = out.samples[1000:-1000]
    spec = np.abs(np.fft.rfft(body * np.blackman(body.size)))
    freqs = np.fft.rfftfreq(body.size, 1.0 / out.rate)

    def level(f):
        return np.max(spec[np.abs(freqs - f) < 3e6])

    assert freqs[np.argmax(spec)] == pytest.approx(0.3e9, abs=3e6)
    assert 20 * np.log10(level(1.7e9) / level(0.3e9)) < -60.0


@pytest.mark.parametrize(
    "n, n_samples", [(1, 65536), (10, 65536), (1, 65537), (10, 65537)]
)
def test_beat_decimated_matches_full_rate_in_band(n, n_samples):
    # the same tones through the full-rate and the 9.6 GSa/s output: folded
    # tones in the photodiode passband (below 0.8 * 1.2 GHz) keep their
    # level within 0.01 dB; on the filter skirt up to 1.2 GHz the filter
    # designed on the coarser grid may differ by up to 0.1 dB
    combs = make_combs()
    link = quiet_link()
    rate = 32e9
    offsets = np.array([0.2e9, -0.45e9, 0.7e9, 1.1e9])
    t = time_vector(n_samples, rate)
    mu = SampledWaveform(
        sum(0.02 * np.cos(2 * np.pi * (n * 1e9 + df) * t) for df in offsets), rate
    )
    spectrum = beat_spectrum(mu)
    full = subband_beat(spectrum, n, combs, link, 3, out_rate=rate)
    dec = subband_beat(spectrum, n, combs, link, 3, out_rate=9.6e9)
    assert 9.6e9 <= dec.rate < 9.7e9
    assert dec.n / dec.rate == pytest.approx(full.n / full.rate, rel=1e-12)
    folded = np.abs(offsets)
    a_full = _tone_fit(full.samples, full.rate, folded, body=4096)
    a_dec = _tone_fit(dec.samples, dec.rate, folded, body=1300)
    err_db = np.abs(20 * np.log10(a_dec / a_full))
    assert np.all(err_db[folded < 0.96e9] < 0.01)
    assert np.all(err_db < 0.1)


def test_beat_thermal_noise_variance_at_output_rate():
    # thermal noise is a density: drawn at the output rate and filtered
    # there, its variance follows density^2 * rate_out / 2 * sum(h^2)
    from combadc.waveform import fir_lowpass

    combs = make_combs()
    link = quiet_link(thermal_noise_density=4.4e-11)
    spectrum = beat_spectrum(SampledWaveform(np.zeros(1_600_000), 32e9))
    out = subband_beat(spectrum, 1, combs, link, 9, out_rate=9.6e9)
    assert out.rate == 9.6e9 and out.n == 480_000
    taps = fir_lowpass(link.pd_bandwidth, out.rate)
    want = link.thermal_noise_density**2 * out.rate / 2.0 * np.sum(taps**2)
    assert np.var(out.samples) == pytest.approx(want, rel=0.03, abs=0.0)


@pytest.mark.parametrize(
    "terms",
    [
        dict(thermal_noise_density=4.4e-11),
        dict(shot=True),
        dict(osnr_db=55.0),
        dict(thermal_noise_density=4.4e-11, shot=True, osnr_db=55.0),
    ],
    ids=["thermal", "shot", "ase", "all"],
)
def test_beat_receiver_noise_is_the_summed_density(terms):
    # closed form, from the link's own levels: thermal d^2, shot 4 q R
    # (P_lo + P_ch), and the ASE beat 4 R^2 P_lo S_ase with S_ase the ASE
    # density that the OSNR sets in its 12.5 GHz (0.1 nm) reference band.
    # The three are independent, so their variances add. Filtered by the
    # 51-tap photodiode response at 9.6 GSa/s, the 480,000-sample variance
    # estimate has a relative sd of about 0.4 %; 2 % is five of those.
    from combadc.waveform import fir_lowpass

    link = quiet_link(**terms)
    p_ch = dbm_to_watts(link.sig_power_per_ch_dbm)
    p_lo = dbm_to_watts(link.lo_power_per_tone_dbm)
    r = link.responsivity
    density = link.thermal_noise_density**2
    if link.shot:
        density += 4.0 * 1.602176634e-19 * r * (p_lo + p_ch)
    if np.isfinite(link.osnr_db):
        s_ase = p_ch * 10.0 ** (-link.osnr_db / 10.0) / 12.5e9
        density += 4.0 * r**2 * p_lo * s_ase
    spectrum = beat_spectrum(SampledWaveform(np.zeros(1_600_000), 32e9))
    out = subband_beat(spectrum, 1, make_combs(), link, 9, out_rate=9.6e9)
    taps = fir_lowpass(link.pd_bandwidth, out.rate)
    want = density * out.rate / 2.0 * np.sum(taps**2)
    assert np.var(out.samples) == pytest.approx(want, rel=0.02, abs=0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_beat_thermal_current_is_the_thermal_stream(dtype):
    # with shot and ASE off, the receiver noise is the thermal stream's draw
    # at the thermal density, bit for bit, before the photodiode filter
    from combadc.seeding import derive_rng
    from combadc.waveform import apply_fir, fir_lowpass, white_noise

    link = quiet_link(thermal_noise_density=4.4e-11)
    spectrum = beat_spectrum(SampledWaveform(np.zeros(160_000, dtype), 32e9))
    out = subband_beat(spectrum, 1, make_combs(), link, 9, out_rate=9.6e9)
    noise = np.zeros(out.n, dtype)
    white_noise(noise, out.rate, link.thermal_noise_density, derive_rng(9, "thermal"))
    want = apply_fir(noise, fir_lowpass(link.pd_bandwidth, out.rate))
    assert out.samples.dtype == dtype
    np.testing.assert_array_equal(out.samples, want)


@pytest.mark.parametrize("out_rate", [64e9, 0.0, -9.6e9, np.nan])
def test_beat_rejects_output_rate_above_input(out_rate):
    # out_rate has no default, and the guard takes only a rate in
    # (0, the 32 GSa/s modulation rate]
    spectrum = beat_spectrum(_mu_tone(1e9))
    with pytest.raises(SignalError, match="output rate"):
        subband_beat(spectrum, 1, make_combs(), quiet_link(), 1, out_rate=out_rate)


# ------------------------------------------------- paired transform, inverse


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_samples", [65536, 65537])
@pytest.mark.parametrize("n", [1, 14])
def test_beat_leak_matches_direct_detection_oracle(n, n_samples, dtype, rng):
    # the leak is the direct-detection mu^2 term: with the heterodyne band
    # the same in both runs, the difference of a finite and an infinite
    # CMRR is that term alone, band-limited to the output grid and then
    # filtered by the photodiode. At 9.6 GSa/s sub-band 1's band is clipped
    # at DC and sub-band 14's reaches the record's Nyquist bin; 65537
    # samples put the downshift off the bin grid.
    from combadc.waveform import apply_fir, fir_lowpass

    combs = make_combs()
    mu = SampledWaveform((0.3 * rng.standard_normal(n_samples)).astype(dtype), 32e9)
    link = quiet_link(cmrr_db=-20.0)  # a leak about as loud as the beat
    spectrum = beat_spectrum(mu)
    leaky = subband_beat(spectrum, n, combs, link, 3, out_rate=9.6e9)
    clean = subband_beat(spectrum, n, combs, quiet_link(), 3, out_rate=9.6e9)
    n_out = leaky.n
    mu64 = mu.samples.astype(np.float64)
    half = np.fft.rfft(mu64**2)[: n_out // 2 + 1]
    p_ch = dbm_to_watts(link.sig_power_per_ch_dbm)
    kappa = 10.0 ** (-link.cmrr_db / 20.0)
    leak = kappa * link.responsivity * p_ch * np.fft.irfft(half, n_out) * n_out / n_samples
    want = apply_fir(leak, fir_lowpass(link.pd_bandwidth, leaky.rate))
    # float64 rounding, or float32 rounding of a transform that also holds mu
    tol = 1e-10 if dtype == np.float64 else 1e-5
    got = leaky.samples - clean.samples
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


# the beat's band against the record: inside it, clipped at DC, past
# its Nyquist bin; even and odd outputs, down to one and two bins
_BAND_CASES = [
    (4096, 700, 512),  # inside the record's band, even and odd output
    (4096, 700, 511),
    (4096, -200, 512),  # clipped at DC
    (4095, -200, 511),
    (4096, 1800, 512),  # reaching past the record's Nyquist bin
    (4095, 1800, 511),
    (64, -1, 2),
    (64, 5, 1),
]


@pytest.mark.parametrize("n_in,first,n_out", _BAND_CASES)
def test_on_grid_band_and_half_keep_every_bit(n_in, first, n_out, rng):
    # the beat's band, placed by _add_analytic in FFT order with source bin
    # first + n_out // 2 on DC: bit for bit the split bins copied into a
    # centred band, doubled but for DC and Nyquist, and ifftshifted
    z = rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)
    lo, hi = max(first, 0), min(first + n_out, n_in // 2 + 1)
    src = _rfft_bins(z, lo, hi)
    weights = np.full(src.size, 2.0)
    if lo == 0:
        weights[0] = 1.0
    if n_in % 2 == 0 and hi == n_in // 2 + 1:
        weights[-1] = 1.0
    centred = np.zeros(n_out, dtype=np.complex128)
    centred[lo - first : hi - first] = src * weights
    want = np.fft.ifftshift(centred)
    band = np.zeros(n_out, dtype=np.complex128)
    _add_analytic(z, lo, hi, band, (-(first + n_out // 2),))
    assert np.array_equal(band.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("n_in,first,n_out", _BAND_CASES)
def test_band_half_read_from_the_spectrum_keeps_every_bit(n_in, first, n_out, dtype, rng):
    # the on-grid beat reads its band's Hermitian half straight from the
    # record's spectrum: bit for bit, signed zeros included, the half of
    # the band that _add_analytic places. DC and Nyquist bins are real, so
    # z and -z give each of them both signs.
    z = (rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)).astype(dtype)
    k0 = first + n_out // 2
    for z in (z, -z):
        band = np.zeros(n_out, dtype=dtype)
        _add_analytic(z, max(first, 0), min(first + n_out, n_in // 2 + 1), band, (-k0,))
        want = _rfft_bins(band, 0, n_out // 2 + 1)
        got = _band_half(z, k0, n_out)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "n_samples, combs_kw, calls",
    [
        (65536, {}, 0),  # an ideal pair, its band on the bin grid
        (65537, {}, 1),  # a residual shift: the band off the bin grid
        (65536, {"drift": 2e5}, 1),
        (65536, {"linewidth": 1e3}, 1),
    ],
)
def test_only_a_phased_band_builds_the_phase_track(n_samples, combs_kw, calls, monkeypatch):
    # whether the differential phase track is zero is read from the pair's
    # config and the downshift, never from a record of zeros
    seen = []

    def track(*args):
        seen.append(args)
        return _differential_phase(*args)

    monkeypatch.setattr(comb, "_differential_phase", track)
    spectrum = beat_spectrum(_mu_tone(5.25e9, amp=0.1, n=n_samples))
    subband_beat(spectrum, 5, make_combs(**combs_kw), quiet_link(), 3, out_rate=9.6e9)
    assert len(seen) == calls


@pytest.mark.parametrize("cmrr_db", [np.inf, 35.0])
@pytest.mark.parametrize("out_rate", [None, 9.6e9])  # None: the 32 GSa/s input rate
@pytest.mark.parametrize("n", [1, 14])
def test_beat_real_inverse_matches_complex_inverse(n, out_rate, cmrr_db, rng):
    # a band on the bin grid with a zero phase track takes the real
    # inverse; a drift too slow to move the phase by 1e-9 rad over the
    # record sends the same band through the complex inverse and exp(j theta)
    mu = SampledWaveform(0.3 * rng.standard_normal(65536), 32e9)
    link = quiet_link(cmrr_db=cmrr_db)
    drifting = make_combs(drift=1e-4)
    theta = _differential_phase(n, drifting, mu.n, mu.rate, seed=3)
    assert 0.0 < np.max(np.abs(theta)) < 1e-9
    out_rate = out_rate or mu.rate
    spectrum = beat_spectrum(mu)
    real = subband_beat(spectrum, n, make_combs(), link, 3, out_rate=out_rate)
    cplx = subband_beat(spectrum, n, drifting, link, 3, out_rate=out_rate)
    # exp(j theta) moves the output by at most max|theta| of its peak
    peak = np.max(np.abs(real.samples))
    assert np.max(np.abs(real.samples - cplx.samples)) <= 1e-9 * peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("drift", [0.0, 2e5])
@pytest.mark.parametrize("cmrr_db", [35.0, np.inf])
@pytest.mark.parametrize("n", [1, 10])
def test_beat_from_shared_spectrum_is_bit_identical(n, cmrr_db, drift, dtype, rng):
    # a run takes its record's spectrum once and every sub-band reads its
    # bins from it: a sub-band read after another must be bit-identical to
    # the same sub-band read from a fresh spectrum, noise, photodiode filter
    # and TIA included
    mu = SampledWaveform((0.3 * rng.standard_normal(65536)).astype(dtype), 32e9)
    combs = make_combs(drift=drift)
    link = LinkConfig(cmrr_db=cmrr_db)
    spectrum = beat_spectrum(mu)
    assert spectrum.samples.dtype == np.result_type(dtype, np.complex64)
    # every sub-band reads the one spectrum, so none may write into it
    with pytest.raises(ValueError):
        spectrum.samples[0] = 0.0
    assert np.any(_differential_phase(n, combs, 100, mu.rate, 3)) == (drift != 0.0)
    other = 14 if n == 1 else 1
    for out_rate in (32e9, 9.6e9):
        want = subband_beat(beat_spectrum(mu), n, combs, link, 3, out_rate=out_rate)
        subband_beat(spectrum, other, combs, link, 3, out_rate=out_rate)
        got = subband_beat(spectrum, n, combs, link, 3, out_rate=out_rate)
        assert got.rate == want.rate
        assert np.array_equal(got.samples, want.samples)


# ------------------------------------------------- the beat's split transform

# 2 x 32,771 has prime rows, 3^9 is odd, 2^16 square, and 2,240,000 is the
# sweep's record (1400 x 1600)
_SPLIT_LENGTHS = [2 * 32771, 3**9, 65536, 2_240_000]


def _field(n, dtype, rng):
    """The beat's kind of record: a modulator field of a tone over noise."""
    t = time_vector(n, 32e9)
    v = 0.9 * np.cos(2 * np.pi * 5.3e9 * t + 0.3) + rng.uniform(-0.1, 0.1, n)
    return mzm_field(SampledWaveform(v.astype(dtype), 32e9), 0.3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prime_record_takes_the_plain_transform(dtype, rng):
    # a prime n splits into one row: the plain transform, bit for bit
    mu = _field(65537, dtype, rng).samples
    want = scipy.fft.fft(mu + 1j * mu**2)
    got = beat_spectrum(SampledWaveform(mu, 32e9)).samples
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", _SPLIT_LENGTHS)
def test_split_transform_is_as_accurate_as_one_transform(n, rng):
    # in single precision the split's error against a double-precision
    # reference is within 10 % of scipy.fft's own for the same input
    mu = _field(n, np.float32, rng).samples
    x = mu.astype(np.float64)
    want = np.fft.fft(x + 1j * x * x)

    def rms_error(z):
        return np.sqrt(np.mean(np.abs(z - want) ** 2))

    own = rms_error(scipy.fft.fft(mu + 1j * mu**2))
    assert rms_error(beat_spectrum(SampledWaveform(mu, 32e9)).samples) <= 1.1 * own


@pytest.mark.parametrize("n", _SPLIT_LENGTHS)
def test_split_transform_in_double_precision(n, rng):
    mu = _field(n, np.float64, rng).samples
    want = np.fft.fft(mu + 1j * mu**2)
    got = beat_spectrum(SampledWaveform(mu, 32e9)).samples
    assert got.dtype == np.complex128
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


_PEAK_RSS = """
import numpy as np
from combadc.comb import beat_spectrum
from combadc.waveform import SampledWaveform
rng = np.random.default_rng(1)
beat_spectrum(SampledWaveform(rng.random(4096, dtype=np.float32), 32e9))
mu = SampledWaveform(rng.random(2_240_000, dtype=np.float32), 32e9)
before = peak_kib()
spectrum = beat_spectrum(mu)
print(peak_kib() - before, spectrum.samples.nbytes)
"""


def test_split_transform_takes_no_full_length_scratch():
    # the sweep's 2.24 M-sample float32 record: peak memory may grow by the
    # spectrum and a few rows and columns of scratch; one n-point transform
    # would add two n-point buffers inside scipy.fft (about 34 MiB)
    rise_kib, spectrum_bytes = child_peak(_PEAK_RSS)
    assert rise_kib * 1024 < spectrum_bytes + 8 * 2**20
