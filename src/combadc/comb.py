"""Comb pair, modulator, and per-sub-band beat model.

The two combs share a seed laser and differ only in line spacing, by
delta_f, so the tone pair with index n beats the optical content of its
signal-comb line down to an electrical band centered at n * delta_f.
Because every comb tone carries the same modulation, sub-band n can be
simulated directly from the modulator field factor mu(t) on an
electrical-rate grid; no THz-wide optical field is ever synthesized. The
model assumes, and does not simulate, that the signal-comb spacing clears
twice the band, so the images of neighbouring tones never overlap; the
absolute spacing then enters no sub-band, and only delta_f is held.

The beat is computed as a digital down-converter. The spectrum of mu
gives both the analytic signal (negative bins dropped, positive bins
doubled) and, shifted by n * delta_f, the complex baseband of the
sub-band; only the bins around it are kept and transformed back on a
shorter record. The balanced-detection leak needs the spectrum of mu^2
as well, and one complex FFT of mu + j mu^2 gives both: mu's spectrum is
its Hermitian half and mu^2's its anti-Hermitian half, read only at the
bins that are kept. ``waveform._add_analytic`` splits mu's kept bins out,
gives them the analytic weights and places them, shifted down by
n * delta_f, on the shorter record in FFT order: the one placement that
also stacks ``frontend.scm_waveform``'s channels up onto their
subcarriers and forms the demodulator's analytic signal. The complex FFT
(``beat_spectrum``) is the record's half of the channelizer: every run
takes it once, as two batched passes over an n1 x n2 split of the record
with no full-length scratch, and each sub-band reads its own bins from
it. Where the differential phase track is zero (a band on the bin grid,
no drive noise, no drift) only the band's Hermitian half is needed: it
is read straight from the spectrum, and one real inverse transform
returns it and the leak. Detector noise, the photodiode filter and the
transimpedance stage then run at the reduced rate. The noise sources
are specified as densities, so the physics does not depend on the rate.

Precision: every stage keeps its input's dtype. ``mzm_field`` gives a
float32 field factor for a float32 drive. The beat's one full-length
transform, the complex FFT of mu + j mu^2, runs in ``scipy.fft``, which
transforms single precision in single precision (``numpy.fft`` would work
in double and run slower); each twiddle between its two passes is rounded
once from double. The band, the leak and the current at the output rate
stay in the spectrum's precision, so a float32 field gives a float32
current through the noise, the photodiode filter and the TIA; the noise
is ``white_noise``'s float32 samples, added in place. The ADC's sampler
returns to float64.

Phase bookkeeping: the seed laser's phase enters both beat terms
identically and cancels in the difference, so it never appears in the
differential phase track at all. Both combs come from one generator
shape, so their line phases are equal pair by pair and cancel too; a
pair is held as its two amplitudes alone. What remains is the
RF-synthesizer walk, which carries both synthesizers' linewidths summed
and is scaled by n (tone n sits n harmonics out), and a slow thermal
path drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, fftshift, ifft, irfft, next_fast_len

from .errors import ConfigError, SignalError
from .seeding import derive_rng
from .units import db_to_amplitude_ratio, dbm_to_watts
from .waveform import (
    SampledWaveform,
    _add_analytic,
    _rfft_bins,
    apply_fir,
    fir_lowpass,
    time_vector,
    white_noise,
    wiener_phase,
)

__all__ = [
    "BeatSpectrum",
    "ScenarioCombs",
    "LinkConfig",
    "cascade_harmonics",
    "comb_from_cascade",
    "flat_comb",
    "downshift_hz",
    "beat_spectrum",
    "mzm_field",
    "subband_beat",
]

# the SI elementary charge in C (exact since 2019)
_ELEMENTARY_CHARGE = 1.602176634e-19

# reference bandwidth for optical SNR figures
_OSNR_REF_BW = 12.5e9

# rows of the beat's split FFT taken, and twiddled, at a time
_TWIDDLE_ROWS = 32


@dataclass
class ScenarioCombs:
    """The mutually coherent comb pair of one scenario, as the beat reads it:
    pair n's two field amplitudes (linear, normalized so the strongest LO
    tone is 1.0; absolute power lives in LinkConfig), its offset
    n * delta_f, and the differential phase walk and drift."""

    signal_amps: np.ndarray
    lo_amps: np.ndarray
    delta_f: float  # Hz, LO-comb spacing minus signal-comb spacing
    linewidth: float = 0.0  # Hz, the two synthesizer linewidths summed
    differential_phase_drift: float = 0.0  # rad/s, slow thermal path drift

    def __post_init__(self):
        self.signal_amps = np.asarray(self.signal_amps, dtype=np.float64)
        self.lo_amps = np.asarray(self.lo_amps, dtype=np.float64)
        if self.lo_amps.size < 1 or self.signal_amps.shape != self.lo_amps.shape:
            raise ConfigError("comb pair needs at least one tone, as many on each side")
        amps = np.concatenate([self.signal_amps, self.lo_amps])
        if not np.all((amps > 0) & np.isfinite(amps)):
            raise ConfigError("tone amplitudes must be positive and finite")
        if self.linewidth < 0:
            raise ConfigError("linewidth must be non-negative")
        if not self.delta_f > 0:
            raise ConfigError("delta_f must be positive")

    @property
    def n_pairs(self) -> int:
        return self.lo_amps.size


@dataclass
class LinkConfig:
    """Optical/electrical parameters of the analog link."""

    drive_scale: float = 0.3  # peak drive as a fraction of the modulator's V_pi
    sig_power_per_ch_dbm: float = -15.0
    lo_power_per_tone_dbm: float = -4.0  # 8 dBm comb minus 12 dB attenuation
    osnr_db: float = 55.0
    pd_bandwidth: float = 1.2e9
    tia_sat_dbm: float = -13.0  # inf: a linear transimpedance stage
    cmrr_db: float = 35.0
    responsivity: float = 0.8
    thermal_noise_density: float = 4.4e-11  # A/sqrt(Hz), calibrated
    # photocurrent shot noise, which has no level of its own to zero
    shot: bool = True
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
        # the two noise ratios and the TIA saturation drop their term; no
        # other level has an off value, and an infinite one leaves every
        # beat non-finite (or, as the sine backoff, silent).
        switched = (self.osnr_db, self.cmrr_db, self.tia_sat_dbm)
        levels = [self.sig_power_per_ch_dbm, self.lo_power_per_tone_dbm]
        levels += [self.sine_backoff_db] + [db for db in switched if db != np.inf]
        if not all(-300.0 <= db <= 300.0 for db in levels):
            raise ConfigError(
                "dB and dBm levels must lie within -300..300; only osnr_db, "
                "cmrr_db and tia_sat_dbm may be inf"
            )


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
        raise SignalError("phase-modulation index must be positive")
    theta = 2.0 * np.pi * np.arange(n_grid) / n_grid
    drive = np.sin(theta)
    g = np.exp(1j * pm_index * drive)
    if im_depth != 0.0:
        g = g * np.cos(np.pi / 4.0 + 0.5 * im_depth * drive)
    return fftshift(fft(g)) / n_grid


def comb_from_cascade(pm_index: float, im_depth: float, n_tones: int) -> np.ndarray:
    """Line amplitudes of a sinusoidally driven modulator cascade.

    Picks the flattest run of ``n_tones`` consecutive harmonics (the
    window maximizing the weakest line) and normalizes its peak to 1.
    Raises if no window keeps every line above -40 dBc of the global
    maximum - that means the drive does not generate enough usable lines.
    """
    amps = np.abs(cascade_harmonics(pm_index, im_depth))
    floor = amps.max() * db_to_amplitude_ratio(-40.0)
    # weakest line of every run of n_tones consecutive harmonics
    weakest = amps[:0]
    if n_tones <= amps.size:
        weakest = np.lib.stride_tricks.sliding_window_view(amps, n_tones).min(axis=1)
    if not np.any(weakest > floor):
        raise SignalError(
            f"modulator cascade (pm={pm_index}, im={im_depth}) does not yield "
            f"{n_tones} usable lines"
        )
    start = int(np.argmax(weakest))
    window = amps[start : start + n_tones]
    return window / window.max()


def flat_comb(n_tones: int, tilt_db: float = 0.0) -> np.ndarray:
    """Idealized comb amplitudes: equal tones, optionally with a linear tilt.

    ``tilt_db`` is total power drop from the first to the last tone;
    0 keeps the comb perfectly flat.
    """
    if n_tones == 1 or tilt_db == 0.0:
        return np.ones(n_tones)
    ramp = np.arange(n_tones) / (n_tones - 1)
    return db_to_amplitude_ratio(-tilt_db * ramp)


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
    peak = max(v.samples.max(), -v.samples.min())
    if peak > 1.0 + 1e-9:
        raise SignalError(
            f"modulator drive must be normalized to unit peak (got {peak:g})"
        )
    if not 0.0 < drive_scale <= 1.0:
        raise SignalError("drive_scale must be in (0, 1]")
    # one fresh record, taken through the sine in place; v is not written
    mu = 0.5 * np.pi * drive_scale * v.samples
    np.sin(mu, out=mu)
    return SampledWaveform(mu, v.rate)


def _differential_phase(
    n: int, combs: ScenarioCombs, n_samples: int, rate: float, seed: int
) -> np.ndarray:
    """Differential beat phase for tone pair n.

    The seed-laser contribution is common to both combs and cancels
    identically, so it is structurally absent here. The RF-synthesizer
    walk, whose linewidth is the sum of the two combs', scales by n; path
    drift does not (it is an optical path-length effect shared by all
    pairs). A zero linewidth or drift leaves its term out.
    """
    theta = np.zeros(n_samples)
    if combs.linewidth > 0:
        theta += n * wiener_phase(
            combs.linewidth, n_samples, rate, derive_rng(seed, "drive-phase")
        )
    if combs.differential_phase_drift != 0.0:
        theta += combs.differential_phase_drift * time_vector(n_samples, rate)
    return theta


@dataclass(frozen=True)
class BeatSpectrum:
    """The FFT of mu + j mu^2 of a modulation record mu at ``rate``, one
    complex bin per sample of mu: the burst's half of the beat, which
    every sub-band's ``subband_beat`` can read its own bins from."""

    samples: np.ndarray
    rate: float

    @property
    def n(self) -> int:
        return self.samples.size


def beat_spectrum(mu: SampledWaveform) -> BeatSpectrum:
    """The one full-length transform of the beat: the FFT of mu + j mu^2,
    read-only, since one spectrum serves every sub-band of a burst. It is
    Bailey's four-step FFT over an n1 x n2 split, n1 the largest divisor of
    n not above sqrt(n): sample j1 + n1 j2 goes to row j1, column j2; the
    rows are transformed and twiddled by W_n^(j1 k2), then the columns,
    leaving bin n2 k1 + k2 at row k1, column k2. No pass takes an n-point
    scratch; a prime n is one row, the plain transform."""
    n = mu.n
    n1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    n2, w = n // n1, -2j * np.pi / n
    z = np.empty((n1, n2), dtype=np.result_type(mu.samples, np.complex64))
    x = mu.samples.reshape(n2, n1).T
    k2 = np.arange(n2)
    # row r + i of a block takes W_n^(r k2) W_n^(i k2), formed in double and
    # rounded once; row 0's twiddles are all 1
    step = np.exp(np.arange(1, min(_TWIDDLE_ROWS, n1))[:, None] * k2 * w)
    tw = np.empty(step.shape, z.dtype)
    for r in range(0, n1, _TWIDDLE_ROWS):
        rows = z[r : r + _TWIDDLE_ROWS]
        rows.real = x[r : r + _TWIDDLE_ROWS]
        np.square(rows.real, out=rows.imag)
        fft(rows, axis=1, overwrite_x=True)  # in place: a complex input
        base = np.exp(r * k2 % n * w) if r else 1.0
        m = len(rows) - 1
        rows[1:] *= np.multiply(step[:m], base, out=tw[:m], casting="same_kind")
        if r:
            rows[0] *= base
    z = fft(z, axis=0, overwrite_x=True).reshape(n)
    z.setflags(write=False)
    return BeatSpectrum(z, mu.rate)


def _band_half(z: np.ndarray, k0: int, n_out: int) -> np.ndarray:
    """``_rfft_bins(band, 0, n_out // 2 + 1)`` bit for bit, for ``band`` the
    n_out analytic bins ``A`` that ``subband_beat`` centres on source bin k0:
    ``(conj A[k0 - k] + A[k0 + k]) / 2``, read from ``z`` without the band."""
    first = k0 - n_out // 2
    lo, hi = max(first, 0), min(first + n_out, z.size // 2 + 1)
    half = np.zeros(n_out // 2 + 1, z.dtype)
    # bins up to k0 land on k0 - j, conjugated as 0 - im (no negative zero)
    _add_analytic(z, lo, min(k0 + 1, hi), half[::-1], (half.size - 1 - k0,))
    np.subtract(0.0, half.imag, out=half.imag)
    _add_analytic(z, max(k0, lo), hi, half, (-k0,))
    if n_out % 2 == 0 and lo == first < hi:  # bin n_out / 2 holds A[first]
        _add_analytic(z, first, first + 1, half, (n_out // 2 - first,))
    half *= 0.5
    return half


def subband_beat(
    mu: BeatSpectrum,
    n: int,
    combs: ScenarioCombs,
    link: LinkConfig,
    seed: int,
    *,
    out_rate: float,
) -> SampledWaveform:
    """Balanced photocurrent of sub-band n, at ``out_rate`` or above.

    The heterodyne term mixes the analytic modulation down by n * delta_f
    with the differential phase track applied; balanced-detection leakage
    adds an attenuated direct-detection |mu|^2 term; shot, thermal and
    amplified-spontaneous-emission beat noise enter as one white current
    at their summed density, drawn from the thermal stream.
    Everything then passes the photodiode band limit and the soft
    transimpedance saturation.

    Each link term is off when its own value says so: an infinite
    ``link.cmrr_db`` drops the leak, an infinite ``link.osnr_db`` the ASE
    beat, a zero ``link.thermal_noise_density`` the thermal current, an
    infinite ``link.tia_sat_dbm`` the saturation, and ``link.shot`` off
    the shot noise.

    The down-conversion is exact band selection in the frequency domain:
    the output keeps the spectrum within half its rate of the sub-band
    centre and covers the same time span as ``mu``. The output length is
    the smallest fast FFT length at or above ``out_rate`` times the
    duration, so the realized rate (the returned waveform's ``rate``) can
    sit slightly above ``out_rate``. A downshift that is not a whole
    number of FFT bins is split into a bin shift and a residual mix at the
    output rate.

    ``mu`` is the record's ``beat_spectrum``, read by every sub-band. A
    band with a zero phase track (by config) reads its Hermitian half from
    ``mu`` into one real inverse FFT that carries the leak as well; any
    other band takes a complex inverse and the factor exp(j theta).
    """
    if not 1 <= n <= combs.n_pairs:
        raise SignalError(
            f"sub-band index {n} outside the available 1..{combs.n_pairs}"
        )
    rate = mu.rate
    shift_hz = downshift_hz(n, combs.delta_f, rate)
    n_in = mu.n
    if 0.0 < out_rate <= rate:
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
        * combs.signal_amps[n - 1]
        * combs.lo_amps[n - 1]
    )

    shift = shift_hz * n_in / rate  # downshift in bins
    k0 = int(round(shift))
    residual = (shift - k0) * rate / n_in  # Hz, under half a bin
    z = mu.samples
    # an infinite cmrr_db gives kappa = 0: no leak
    kappa = db_to_amplitude_ratio(-link.cmrr_db)
    leak = _rfft_bins(z, 0, n_out // 2 + 1, imag=True)
    leak *= kappa * r * p_ch

    # an ideal pair on the bin grid: Re(ifft(band)) = irfft(band's half)
    if combs.linewidth == 0 and combs.differential_phase_drift == 0 and residual == 0:
        half = _band_half(z, k0, n_out)
        half *= gain
        half += leak
        i = irfft(half, n_out)
        i *= scale
    else:
        theta = _differential_phase(n, combs, n_out, rate_out, seed)
        if residual != 0.0:
            theta -= 2.0 * np.pi * residual * time_vector(n_out, rate_out)
        # the analytic band in FFT order, source bin k0 on DC: the n_out bins
        # around k0 that the record's rfft holds
        first = k0 - n_out // 2
        band = np.zeros(n_out, dtype=z.dtype)
        _add_analytic(z, max(first, 0), min(first + n_out, n_in // 2 + 1), band, (-k0,))
        i = ifft(band, overwrite_x=True)
        i *= np.exp(1j * theta)  # in float64, rounded to the band's dtype
        i = i.real.copy()
        i *= gain * scale
        i += irfft(leak, n_out) * scale

    # thermal, shot and ASE beat are independent white currents, so they
    # are one draw at the summed variance density, added in place
    var = link.thermal_noise_density**2
    if link.shot:
        var += 4.0 * _ELEMENTARY_CHARGE * r * (p_lo + p_ch)
    if np.isfinite(link.osnr_db):
        s_ase = p_ch * 10.0 ** (-link.osnr_db / 10.0) / _OSNR_REF_BW
        var += 4.0 * r**2 * p_lo * s_ase
    if var > 0:
        white_noise(n_out, rate_out, np.sqrt(var), derive_rng(seed, "thermal"), out=i)

    i = apply_fir(i, fir_lowpass(link.pd_bandwidth, rate_out))

    if np.isfinite(link.tia_sat_dbm):
        sat = 2.0 * r * np.sqrt(p_lo * dbm_to_watts(link.tia_sat_dbm))
        i /= sat
        np.tanh(i, out=i)
        i *= sat
    return SampledWaveform(i, rate_out)
