import numpy as np
import pytest

from combadc.comb import (
    CombSpec,
    LinkConfig,
    ScenarioCombs,
    cascade_harmonics,
    check_comb_scaling,
    comb_from_cascade,
    flat_comb,
    _differential_phase,
    mzm_field,
    subband_beat,
)
from combadc.errors import ConfigError, SignalError
from combadc.units import dbm_to_watts
from combadc.waveform import SampledWaveform, periodogram, time_vector

from conftest import flatness_db, make_combs, quiet_link

# the beat's two keyword switches; quiet_link() silences the link terms
_ALL_OFF = dict(shot=False, tia_saturation=False)


# ----------------------------------------------------------------- comb gen


def test_cascade_energy_conservation():
    # a pure phase modulator has |g(t)| = 1: total line power is exactly 1
    c = cascade_harmonics(18.2, 0.0)
    assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-9)
    # with the intensity stage the field is attenuated, never amplified
    c2 = cascade_harmonics(18.2, 1.6)
    assert np.sum(np.abs(c2) ** 2) < 1.0


def test_cascade_comb_default_operating_point():
    spec = comb_from_cascade(18.2, 1.6, 24)
    assert spec.n_tones == 24
    assert spec.tone_amps.max() == pytest.approx(1.0)
    assert flatness_db(spec) < 3.0


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
    c = cascade_harmonics(pm, im)
    amps = np.abs(c)
    start = _flattest_window_loop(amps, n_tones, amps.max() * 10 ** (-40 / 20))
    if start is None:
        with pytest.raises(ValueError, match="usable lines"):
            comb_from_cascade(pm, im, n_tones)
        return
    spec = comb_from_cascade(pm, im, n_tones)
    window = amps[start : start + n_tones]
    assert np.array_equal(spec.tone_amps, window / window.max())
    assert np.array_equal(spec.tone_phases, np.angle(c[start : start + n_tones]))


def test_cascade_comb_too_weak_drive():
    with pytest.raises(ValueError):
        comb_from_cascade(1.45, 0.0, 24)


def test_flat_comb_tilt():
    spec = flat_comb(24, 26e9, tilt_db=2.0)
    assert spec.tone_amps[0] == 1.0
    assert 20 * np.log10(spec.tone_amps[0] / spec.tone_amps[-1]) == pytest.approx(2.0)
    assert flatness_db(spec) == pytest.approx(2.0)
    assert flatness_db(flat_comb(24, 26e9)) == 0.0


def test_comb_spec_validation():
    with pytest.raises(ConfigError):
        CombSpec(spacing=-1.0, n_tones=2, tone_amps=np.ones(2))
    with pytest.raises(ConfigError):
        CombSpec(spacing=26e9, n_tones=3, tone_amps=np.ones(2))
    with pytest.raises(ConfigError):
        CombSpec(spacing=26e9, n_tones=2, tone_amps=np.array([1.0, 0.0]))


def test_scenario_combs_geometry():
    combs = make_combs()
    assert combs.delta_f == pytest.approx(1e9)
    assert combs.n_pairs == 24
    with pytest.raises(ConfigError):
        ScenarioCombs(signal=flat_comb(4, 27e9), lo=flat_comb(4, 26e9))


# ----------------------------------------------------------------- coverage


def test_validate_scaling_default_geometry():
    # 10 GHz in 24 sub-bands of the 1 GHz grid, images 26 GHz apart
    check_comb_scaling(10e9, make_combs(), n_subbands=24)


def test_validate_scaling_band_too_wide_for_grid():
    combs = make_combs()
    with pytest.raises(SignalError, match="subband-tiling"):
        check_comb_scaling(30e9, combs, n_subbands=24)
    assert combs.delta_f < 30e9 / 24


def test_validate_scaling_tone_images_collide():
    with pytest.raises(SignalError) as fault:
        check_comb_scaling(14e9, make_combs(), n_subbands=24)
    assert "tone-separation" in str(fault.value)
    assert "subband-tiling" not in str(fault.value)


def test_comb_scaling_counts_tone_pairs():
    with pytest.raises(SignalError) as fault:
        check_comb_scaling(10e9, make_combs(n_tones=8), n_subbands=10)
    assert str(fault.value) == "10 channels exceed 8 usable tone pairs"


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
    link = quiet_link(tia_sat_dbm=100.0)
    for f in (5.25e9, 4.75e9):
        out = subband_beat(_mu_tone(f), 5, combs, link, seed=3, **_ALL_OFF)
        spec = periodogram(out, n_fft=16384)
        peak_hz = spec.bin_freqs[np.argmax(spec.power_linear)]
        assert peak_hz == pytest.approx(250e6, abs=2 * spec.rbw)


def test_beat_gain_matches_link_budget():
    # heterodyne amplitude = 2 R sqrt(P_ch P_lo) a_sig a_lo for a unit tone
    combs = make_combs(tilt_db=2.0)
    link = quiet_link(tia_sat_dbm=100.0)
    n = 65536
    out = subband_beat(_mu_tone(5.25e9, n=n, amp=0.05), 5, combs, link, 3, **_ALL_OFF)
    a_sig = combs.signal.tone_amps[4]
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
    link = quiet_link(tia_sat_dbm=100.0)
    a = subband_beat(_mu_tone(5.25e9, amp=0.02), 5, combs, link, 3, **_ALL_OFF)
    b = subband_beat(_mu_tone(5.25e9, amp=0.06), 5, combs, link, 3, **_ALL_OFF)
    assert np.allclose(b.samples, 3.0 * a.samples, atol=1e-12)


def test_beat_thermal_noise_variance():
    # with only thermal noise on and zero modulation, the output variance
    # equals the density law filtered by the photodiode response
    combs = make_combs()
    link = quiet_link(thermal_noise_density=4.4e-11, tia_sat_dbm=100.0)
    n = 400_000
    out = subband_beat(
        SampledWaveform(np.zeros(n), 32e9), 1, combs, link, seed=9, **_ALL_OFF
    )
    from combadc.waveform import fir_lowpass

    taps = fir_lowpass(link.pd_bandwidth, 32e9)
    sigma_in = link.thermal_noise_density**2 * 32e9 / 2.0
    want = sigma_in * np.sum(taps**2)
    assert np.var(out.samples) == pytest.approx(want, rel=0.03)


def test_beat_cmrr_leak_scales():
    combs = make_combs()
    n = 32768
    mu = _mu_tone(0.3e9, n=n, amp=0.2)
    base = subband_beat(mu, 1, combs, quiet_link(tia_sat_dbm=100.0), 3, **_ALL_OFF)
    leak35 = subband_beat(
        mu, 1, combs, quiet_link(cmrr_db=35.0, tia_sat_dbm=100.0), 3, **_ALL_OFF
    )
    leak29 = subband_beat(
        mu, 1, combs, quiet_link(cmrr_db=29.0, tia_sat_dbm=100.0), 3, **_ALL_OFF
    )
    d35 = leak35.samples - base.samples
    d29 = leak29.samples - base.samples
    ratio = np.sqrt(np.mean(d29**2) / np.mean(d35**2))
    assert ratio == pytest.approx(10 ** (6 / 20), rel=1e-3)


def test_beat_tia_soft_limit():
    combs = make_combs()
    # huge drive against a low saturation point: output pinned near the rail
    link = quiet_link(tia_sat_dbm=-60.0)
    flags = dict(_ALL_OFF)
    flags["tia_saturation"] = True
    out = subband_beat(_mu_tone(1.25e9, amp=0.9), 1, combs, link, 3, **flags)
    sat = 2.0 * link.responsivity * np.sqrt(
        dbm_to_watts(link.lo_power_per_tone_dbm) * dbm_to_watts(link.tia_sat_dbm)
    )
    assert np.max(np.abs(out.samples)) <= sat * (1 + 1e-12)
    assert np.max(np.abs(out.samples)) > 0.9 * sat


def test_beat_index_and_rate_guards():
    combs = make_combs()
    link = quiet_link()
    with pytest.raises(SignalError):
        subband_beat(_mu_tone(1e9), 0, combs, link, 1)
    with pytest.raises(SignalError):
        subband_beat(_mu_tone(1e9), 25, combs, link, 1)
    with pytest.raises(SignalError):
        subband_beat(_mu_tone(1e9, rate=2e9, n=4096), 5, combs, link, 1)


# -------------------------------------------------------- phase bookkeeping


def test_seed_linewidth_never_reaches_the_beat():
    # mutual coherence: the seed laser's phase cancels structurally, so
    # the beat is bit-identical whatever the linewidth says
    link = LinkConfig()
    mu = _mu_tone(5.25e9, amp=0.1)
    outs = [
        subband_beat(mu, 5, make_combs(seed_linewidth=lw), link, seed=42)
        for lw in (0.0, 5e3)
    ]
    assert np.array_equal(outs[0].samples, outs[1].samples)


def test_drive_phase_noise_scales_with_pair_index():
    # the synthesizer walk enters multiplied by n: same seed, so the
    # phase track for pair 3 is exactly 3x the track for pair 1
    combs = make_combs(drive_linewidth=300.0)
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
    mu = _mu_tone(5.25e9, amp=0.1)
    a = subband_beat(mu, 5, combs, link, seed=42)
    b = subband_beat(mu, 5, combs, link, seed=42)
    c = subband_beat(mu, 5, combs, link, seed=43)
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
        * combs.signal.tone_amps[n - 1]
        * combs.lo.tone_amps[n - 1]
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
            signal=comb_from_cascade(18.2, 1.6, 24, spacing=26e9),
            lo=flat_comb(24, 27e9),
            differential_phase_drift=3e5,
        )
    else:
        combs = make_combs(tilt_db=2.0)
    link = quiet_link()
    rate = 32e9
    mu = SampledWaveform(0.05 * rng.standard_normal(n_samples), rate)
    out = subband_beat(mu, n, combs, link, seed=3, **_ALL_OFF)
    t = time_vector(n_samples, rate)
    static = combs.signal.tone_phases[n - 1] - combs.lo.tone_phases[n - 1]
    assert (static != 0.0) == phased
    theta = static + combs.differential_phase_drift * t
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


@pytest.mark.parametrize("out_rate", [None, 9.6e9])
def test_beat_subband_one_mirror_rejected(out_rate):
    # 0.7 GHz seen by pair 1 lands at 0.3 GHz; a leaky Hilbert transform
    # would also put its -0.7 GHz image at 1.7 GHz. The photodiode band is
    # widened so the filter cannot hide that image.
    combs = make_combs()
    link = quiet_link(pd_bandwidth=3e9)
    n_in = 64000  # 0.5 MHz bins at 32 GSa/s and at 9.6 GSa/s
    mu = _mu_tone(0.7e9, n=n_in)
    out = subband_beat(mu, 1, combs, link, 3, out_rate=out_rate, **_ALL_OFF)
    want_rate = 32e9 if out_rate is None else out_rate
    assert out.rate == want_rate
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
    full = subband_beat(mu, n, combs, link, 3, **_ALL_OFF)
    dec = subband_beat(mu, n, combs, link, 3, out_rate=9.6e9, **_ALL_OFF)
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
    link = quiet_link(thermal_noise_density=4.4e-11, tia_sat_dbm=100.0)
    mu = SampledWaveform(np.zeros(1_600_000), 32e9)
    out = subband_beat(mu, 1, combs, link, 9, out_rate=9.6e9, **_ALL_OFF)
    assert out.rate == 9.6e9 and out.n == 480_000
    taps = fir_lowpass(link.pd_bandwidth, out.rate)
    want = link.thermal_noise_density**2 * out.rate / 2.0 * np.sum(taps**2)
    assert np.var(out.samples) == pytest.approx(want, rel=0.03)


def test_beat_rejects_output_rate_above_input():
    with pytest.raises(SignalError):
        subband_beat(_mu_tone(1e9), 1, make_combs(), quiet_link(), 1, out_rate=64e9)
