"""Comb pair, modulator, and per-sub-band beat model.

The two combs share a seed laser and differ only in line spacing, so the
tone pair with index n beats optical content near n times the signal-comb
spacing down to an electrical band centered at n * delta_f. Because every
comb tone carries the same modulation, sub-band n can be simulated
directly from the modulator field factor mu(t) on an electrical-rate grid;
no THz-wide optical field is ever synthesized.

The beat is computed as a digital down-converter. One forward FFT of mu
gives both the analytic signal (negative bins dropped, positive bins
doubled) and, shifted by n * delta_f, the complex baseband of the
sub-band; only the bins around it are kept and transformed back on a
shorter record. Detector noise, the photodiode filter and the
transimpedance stage then run at that reduced rate. The noise sources are
specified as densities, so the physics does not depend on the rate.

Precision: ``mzm_field`` keeps its drive's dtype, so a float32 drive
gives a float32 field factor. The beat takes its two full-length FFTs
(of mu and mu^2) with ``scipy.fft``, which transforms float32 in single
precision (``numpy.fft`` would work in double and run slower), and
writes the selected band into complex128: everything at the output rate
is float64 whatever the input dtype.

Phase bookkeeping: the seed laser's phase enters both beat terms
identically and cancels in the difference, so it never appears in the
differential phase track at all. What remains is the RF-synthesizer walk
(scaled by n, since tone n sits n harmonics out) and a slow thermal path
drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len, rfft

from .errors import ConfigError, SignalError
from .seeding import derive_rng
from .units import db_to_amplitude_ratio, dbm_to_watts
from .waveform import (
    SampledWaveform,
    apply_fir,
    fir_lowpass,
    time_vector,
    white_noise,
    wiener_phase,
)

__all__ = [
    "CombSpec",
    "ScenarioCombs",
    "LinkConfig",
    "cascade_harmonics",
    "comb_from_cascade",
    "flat_comb",
    "check_comb_scaling",
    "downshift_hz",
    "mzm_field",
    "subband_beat",
]

# the SI elementary charge in C (exact since 2019)
_ELEMENTARY_CHARGE = 1.602176634e-19

# reference bandwidth for optical SNR figures
_OSNR_REF_BW = 12.5e9


@dataclass
class CombSpec:
    """One comb: line spacing plus per-tone field amplitudes and phases.

    Amplitudes are linear field units normalized so the strongest tone is
    1.0; absolute power scaling lives in LinkConfig.
    """

    spacing: float
    n_tones: int
    tone_amps: np.ndarray
    tone_phases: np.ndarray = None
    drive_linewidth: float = 0.0

    def __post_init__(self):
        if self.spacing <= 0:
            raise ConfigError("comb spacing must be positive")
        if self.n_tones < 1:
            raise ConfigError("comb needs at least one tone")
        self.tone_amps = np.asarray(self.tone_amps, dtype=np.float64)
        if self.tone_amps.size != self.n_tones:
            raise ConfigError("tone amplitude list does not match n_tones")
        if not np.all((self.tone_amps > 0) & np.isfinite(self.tone_amps)):
            raise ConfigError("tone amplitudes must be positive and finite")
        if self.tone_phases is None:
            self.tone_phases = np.zeros(self.n_tones)
        else:
            self.tone_phases = np.asarray(self.tone_phases, dtype=np.float64)
            if self.tone_phases.size != self.n_tones:
                raise ConfigError("tone phase list does not match n_tones")
        if self.drive_linewidth < 0:
            raise ConfigError("drive linewidth must be non-negative")


@dataclass
class ScenarioCombs:
    """The mutually coherent comb pair of one scenario."""

    signal: CombSpec
    lo: CombSpec
    # Hz; the seed laser is shared, so its phase cancels in every beat and
    # no output depends on this (the tests pin that invariance)
    seed_linewidth: float = 5e3
    differential_phase_drift: float = 0.0  # rad/s, slow thermal path drift

    def __post_init__(self):
        if self.lo.spacing <= self.signal.spacing:
            raise ConfigError(
                "LO comb must be spaced wider than the signal comb "
                "(delta_f would not be positive)"
            )
        if self.seed_linewidth < 0:
            raise ConfigError("seed linewidth must be non-negative")

    @property
    def delta_f(self) -> float:
        return self.lo.spacing - self.signal.spacing

    @property
    def n_pairs(self) -> int:
        return min(self.signal.n_tones, self.lo.n_tones)


@dataclass
class LinkConfig:
    """Optical/electrical parameters of the analog link."""

    drive_scale: float = 0.3  # peak drive as a fraction of the modulator's V_pi
    sig_power_per_ch_dbm: float = -15.0
    lo_power_per_tone_dbm: float = -4.0  # 8 dBm comb minus 12 dB attenuation
    osnr_db: float = 55.0
    pd_bandwidth: float = 1.2e9
    tia_sat_dbm: float = -13.0
    cmrr_db: float = 35.0
    responsivity: float = 0.8
    thermal_noise_density: float = 4.4e-11  # A/sqrt(Hz), calibrated
    # post-DAC attenuation applied only in the sine-test path, dB. Keeps
    # the DAC itself fully exercised while the modulator sees a small
    # drive; calibrated so sine and multi-channel runs share one link.
    sine_backoff_db: float = 13.4

    def __post_init__(self):
        if not 0.0 < self.drive_scale <= 1.0:
            raise ConfigError("drive_scale must be in (0, 1]")
        if self.pd_bandwidth <= 0:
            raise ConfigError("photodiode bandwidth must be positive")
        if self.responsivity <= 0:
            raise ConfigError("responsivity must be positive")
        if self.thermal_noise_density < 0:
            raise ConfigError("thermal noise density must be non-negative")
        # past 300 dB a level's power ratio, and the products of them the
        # beat forms, overflow or vanish: a typo, not a level. inf is how
        # the two noise ratios drop their term.
        levels = [self.sig_power_per_ch_dbm, self.lo_power_per_tone_dbm, self.tia_sat_dbm]
        levels += [self.sine_backoff_db, self.osnr_db, self.cmrr_db]
        if not all(-300.0 <= db <= 300.0 or db == np.inf for db in levels):
            raise ConfigError("dB and dBm levels must lie within -300..300")


def cascade_harmonics(
    pm_index: float, im_depth: float, n_grid: int = 4096
) -> np.ndarray:
    """Complex line amplitudes of the phase+intensity modulator cascade.

    Both modulators are driven by the same RF sine. The phase modulator
    contributes exp(j * pm_index * sin), the intensity modulator (biased
    at quadrature) a field factor cos(pi/4 + im_depth/2 * sin); im_depth 0
    means the intensity stage is absent. Returned array is fftshift
    ordered: index n_grid//2 is the carrier (0th harmonic).
    """
    if pm_index <= 0:
        raise ValueError("phase-modulation index must be positive")
    theta = 2.0 * np.pi * np.arange(n_grid) / n_grid
    drive = np.sin(theta)
    g = np.exp(1j * pm_index * drive)
    if im_depth != 0.0:
        g = g * np.cos(np.pi / 4.0 + 0.5 * im_depth * drive)
    return np.fft.fftshift(np.fft.fft(g)) / n_grid


def comb_from_cascade(
    pm_index: float,
    im_depth: float,
    n_tones: int,
    spacing: float = 26e9,
    drive_linewidth: float = 0.0,
) -> CombSpec:
    """Comb lines from a sinusoidally driven modulator cascade.

    Picks the flattest run of ``n_tones`` consecutive harmonics (the
    window maximizing the weakest line) and normalizes its peak to 1.
    Raises if no window keeps every line above -40 dBc of the global
    maximum - that means the drive does not generate enough usable lines.
    """
    c = cascade_harmonics(pm_index, im_depth)
    amps = np.abs(c)
    floor = amps.max() * db_to_amplitude_ratio(-40.0)
    # weakest line of every run of n_tones consecutive harmonics
    weakest = amps[:0]
    if n_tones <= amps.size:
        weakest = np.lib.stride_tricks.sliding_window_view(amps, n_tones).min(axis=1)
    if not np.any(weakest > floor):
        raise ValueError(
            f"modulator cascade (pm={pm_index}, im={im_depth}) does not yield "
            f"{n_tones} usable lines"
        )
    start = int(np.argmax(weakest))
    window = slice(start, start + n_tones)
    return CombSpec(
        spacing=spacing,
        n_tones=n_tones,
        tone_amps=amps[window] / amps[window].max(),
        tone_phases=np.angle(c[window]),
        drive_linewidth=drive_linewidth,
    )


def flat_comb(
    n_tones: int,
    spacing: float,
    tilt_db: float = 0.0,
    drive_linewidth: float = 0.0,
) -> CombSpec:
    """Idealized comb: equal tones, optionally with a linear power tilt.

    ``tilt_db`` is total power drop from the first to the last tone;
    0 keeps the comb perfectly flat.
    """
    if n_tones == 1 or tilt_db == 0.0:
        amps = np.ones(n_tones)
    else:
        ramp = np.arange(n_tones) / (n_tones - 1)
        amps = db_to_amplitude_ratio(-tilt_db * ramp)
    return CombSpec(
        spacing=spacing,
        n_tones=n_tones,
        tone_amps=amps,
        drive_linewidth=drive_linewidth,
    )


def check_comb_scaling(bandwidth: float, combs: ScenarioCombs, n_subbands: int) -> None:
    """Raise SignalError, naming every reason, when the comb pair cannot
    slice ``bandwidth`` into ``n_subbands`` sub-bands.

    The sub-band grid must tile the band (delta_f at least B/N), half the
    signal-comb spacing must exceed the band so neighboring tone images
    stay clear, and every sub-band needs a tone pair of its own.
    """
    faults = []
    need = bandwidth / n_subbands
    if combs.delta_f < need:
        faults.append(f"subband-tiling: delta_f {combs.delta_f:g} Hz vs B/N {need:g} Hz")
    f_sig = combs.signal.spacing
    if f_sig <= 2.0 * bandwidth:
        faults.append(f"tone-separation: f_sig/2 {f_sig / 2.0:g} Hz vs B {bandwidth:g} Hz")
    if n_subbands > combs.n_pairs:
        faults.append(f"{n_subbands} channels exceed {combs.n_pairs} usable tone pairs")
    if faults:
        raise SignalError("; ".join(faults))


def downshift_hz(n: int, delta_f: float, rate: float) -> float:
    """Sub-band n's ``n * delta_f`` downshift; raises SignalError when a
    modulation grid at ``rate`` cannot represent it."""
    if rate <= 2.0 * n * delta_f:
        raise SignalError(
            f"modulation grid at {rate:g} Sa/s cannot represent the "
            f"{n * delta_f:g} Hz downshift for sub-band {n}"
        )
    return n * delta_f


def mzm_field(v: SampledWaveform, drive_scale: float) -> SampledWaveform:
    """Field factor of a null-biased interferometric modulator.

    ``v`` must be normalized to unit peak; the realized drive is
    drive_scale * V_pi peak, giving mu = sin(pi/2 * drive_scale * v).
    At the null the carrier is suppressed and the field is an odd,
    nearly linear function of the drive. The output keeps the drive's dtype.
    """
    peak = np.max(np.abs(v.samples))
    if peak > 1.0 + 1e-9:
        raise SignalError(
            f"modulator drive must be normalized to unit peak (got {peak:g})"
        )
    if not 0.0 < drive_scale <= 1.0:
        raise SignalError("drive_scale must be in (0, 1]")
    mu = np.sin(0.5 * np.pi * drive_scale * v.samples)
    return SampledWaveform(mu, v.rate)


def _differential_phase(
    n: int, combs: ScenarioCombs, n_samples: int, rate: float, seed: int
) -> np.ndarray:
    """Differential beat phase for tone pair n.

    The seed-laser contribution is common to both combs and cancels
    identically, so it is structurally absent here regardless of
    seed_linewidth. The RF-synthesizer walk scales by n; path drift does
    not (it is an optical path-length effect shared by all pairs). A zero
    drive linewidth or drift leaves its term out.
    """
    theta = np.zeros(n_samples)
    lw = combs.signal.drive_linewidth + combs.lo.drive_linewidth
    if lw > 0:
        theta = theta + n * wiener_phase(
            lw, n_samples, rate, derive_rng(seed, "drive-phase")
        )
    if combs.differential_phase_drift != 0.0:
        theta = theta + combs.differential_phase_drift * time_vector(n_samples, rate)
    static = (
        combs.signal.tone_phases[n - 1] - combs.lo.tone_phases[n - 1]
    )
    if static != 0.0:
        theta = theta + static
    return theta


def _analytic_band(
    spectrum: np.ndarray, n_in: int, k0: int, n_out: int
) -> np.ndarray:
    """``n_out`` bins of an analytic signal's spectrum around bin ``k0``,
    FFT-ordered.

    ``spectrum`` is the ``rfft`` of an ``n_in``-sample real record. Bin
    ``k0`` lands on DC. Only the kept bins get the analytic weights: DC
    and Nyquist once, every other positive bin twice. Output bins whose
    source lies below DC or past the end of ``spectrum`` stay zero, which
    is what drops the negative frequencies.
    """
    centred = np.zeros(n_out, dtype=np.complex128)
    first = k0 - n_out // 2  # source bin of centred[0]
    lo = max(first, 0)
    src = spectrum[lo : first + n_out]
    kept = centred[lo - first : lo - first + src.size]
    np.multiply(src, 2.0, out=kept)
    if lo == 0:
        kept[0] = spectrum[0]
    if n_in % 2 == 0 and first + n_out >= spectrum.size:
        kept[-1] = spectrum[-1]
    return np.fft.ifftshift(centred)


def subband_beat(
    mu: SampledWaveform,
    n: int,
    combs: ScenarioCombs,
    link: LinkConfig,
    seed: int,
    *,
    out_rate: float | None = None,
    shot: bool = True,
    tia_saturation: bool = True,
) -> SampledWaveform:
    """Balanced photocurrent of sub-band n, at ``out_rate`` or above.

    The heterodyne term mixes the analytic modulation down by n * delta_f
    with the differential phase track applied; balanced-detection leakage
    adds an attenuated direct-detection |mu|^2 term; shot, thermal and
    amplified-spontaneous-emission beat noise enter as white currents.
    Everything then passes the photodiode band limit and the soft
    transimpedance saturation.

    Each link term is off when its own value says so: an infinite
    ``link.cmrr_db`` drops the leak, an infinite ``link.osnr_db`` the ASE
    beat, and a zero ``link.thermal_noise_density`` the thermal current.
    Only ``shot`` and ``tia_saturation`` have no such value and keep a
    keyword switch.

    The down-conversion is exact band selection in the frequency domain:
    the output keeps the spectrum within half its rate of the sub-band
    centre and covers the same time span as ``mu``. ``out_rate=None``
    keeps the rate of ``mu``. Otherwise the output length is the smallest
    fast FFT length at or above ``out_rate`` times the duration, so the
    realized rate (the returned waveform's ``rate``) can sit slightly
    above ``out_rate``. A downshift that is not a whole number of FFT bins
    is split into a bin shift and a residual mix at the output rate.
    """
    if not 1 <= n <= combs.n_pairs:
        raise SignalError(
            f"sub-band index {n} outside the available 1..{combs.n_pairs}"
        )
    rate = mu.rate
    shift_hz = downshift_hz(n, combs.delta_f, rate)
    n_in = mu.n
    if out_rate is None:
        n_out = n_in
    elif 0.0 < out_rate <= rate:
        n_out = min(n_in, next_fast_len(int(np.ceil(n_in * out_rate / rate - 1e-6))))
    else:
        raise SignalError(
            f"output rate {out_rate!r} Sa/s must be positive and at most the "
            f"modulation rate {rate:g} Sa/s"
        )
    rate_out = rate * n_out / n_in
    scale = n_out / n_in  # inverse FFT normalizes by n_out, the forward by n_in

    p_ch = dbm_to_watts(link.sig_power_per_ch_dbm)
    p_lo = dbm_to_watts(link.lo_power_per_tone_dbm)
    r = link.responsivity

    gain = (
        2.0
        * r
        * np.sqrt(p_ch * p_lo)
        * combs.signal.tone_amps[n - 1]
        * combs.lo.tone_amps[n - 1]
    )

    spectrum = rfft(mu.samples)
    shift = shift_hz * n_in / rate  # downshift in bins
    k0 = int(round(shift))
    z = np.fft.ifft(_analytic_band(spectrum, n_in, k0, n_out)) * scale

    theta = _differential_phase(n, combs, n_out, rate_out, seed)
    residual = (shift - k0) * rate / n_in  # Hz, under half a bin
    if residual != 0.0:
        theta = theta - 2.0 * np.pi * residual * time_vector(n_out, rate_out)
    # the default track is zero on a band that sits on the bin grid
    if np.any(theta):
        z = z * np.exp(1j * theta)
    i = gain * z.real

    if np.isfinite(link.cmrr_db):
        kappa = db_to_amplitude_ratio(-link.cmrr_db)
        leak = rfft(np.square(mu.samples))[: n_out // 2 + 1].astype(np.complex128)
        i = i + kappa * r * p_ch * np.fft.irfft(leak, n_out) * scale

    if link.thermal_noise_density > 0:
        i = i + white_noise(
            n_out, rate_out, link.thermal_noise_density, derive_rng(seed, "thermal")
        )
    if shot:
        dens = np.sqrt(4.0 * _ELEMENTARY_CHARGE * r * (p_lo + p_ch))
        i = i + white_noise(n_out, rate_out, dens, derive_rng(seed, "shot"))
    if np.isfinite(link.osnr_db):
        s_ase = p_ch * 10.0 ** (-link.osnr_db / 10.0) / _OSNR_REF_BW
        dens = 2.0 * r * np.sqrt(p_lo * s_ase)
        i = i + white_noise(n_out, rate_out, dens, derive_rng(seed, "osnr"))

    i = apply_fir(i, fir_lowpass(link.pd_bandwidth, rate_out))

    if tia_saturation:
        sat = 2.0 * r * np.sqrt(p_lo * dbm_to_watts(link.tia_sat_dbm))
        i = sat * np.tanh(i / sat)
    return SampledWaveform(i, rate_out)
