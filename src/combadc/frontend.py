"""Signal synthesis and the DAC front-end model.

Produces the two stimulus families the testbench uses: single sine waves
for dynamic-range characterization, and the multi-channel subcarrier PAM4
burst. Both are then pushed through a model of a coarse, fast DAC
(clipping, few-bit quantization, a residual-noise calibration term, and
one FIR for the reconstruction low-pass and the cabling's spectral
tilt).

Channel construction note: each channel's PAM4 baseband is shaped with a
root-raised-cosine, converted to its analytic form, shifted up by
``baseband_offset`` and the real part taken, and only then multiplied
onto the ``k * channel_spacing`` subcarrier. The resulting double-sideband
spectrum occupies the channel slot symmetrically with a small spectral
hole at the subcarrier itself. After sub-band downconversion the two
sidebands fold onto each other coherently, so the recovered baseband is
an ordinary offset-carrier PAM signal instead of an irrecoverable
self-overlapped one; the hole is what keeps the content clear of the
receiver's AC-coupling notch. ``scm_waveform`` builds all channels as
one spectrum, with every subcarrier on an FFT bin of the record.

The DAC's full scale is +-1: the testbench's figures are ratios, so
every level (tone amplitude, burst drive, residual noise) is one of it.

Both sources come out in float64. ``dac_model`` keeps its input's dtype
(its quantizer decides in float64 and its noise is drawn in float64, and
both are cast back), so the caller picks the precision of the DAC-rate
chain by the dtype it hands in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import SignalError
from .waveform import (
    SampledWaveform,
    apply_fir,
    fir_lowpass,
    lowpass_band,
    polyphase_fir,
    rrc_taps,
    samples_per_symbol,
    spectral_tilt_taps,
)

__all__ = [
    "ScmConfig",
    "DacConfig",
    "burst_sps",
    "check_carrier_grid",
    "gen_pam4_symbols",
    "scm_waveform",
    "sine_waveform",
    "quantize_midrise",
    "dequantize_midrise",
    "dac_model",
]


@dataclass
class ScmConfig:
    """Shape of the subcarrier-multiplexed PAM4 burst."""

    n_channels: int = 10
    channel_spacing: float = 1e9
    baud: float = 800e6
    baseband_offset: float = 40e6
    rolloff: float = 0.1
    duration: float = 2.048e-6
    levels: int = 4
    # rms drive level of the composite at the DAC, as a fraction of DAC
    # full scale; chosen by calibration (sets how hard the converter and
    # its clipping are exercised)
    drive_rms: float = 0.48
    # None means all channels transmit; otherwise 1-based indices, kept
    # sorted and free of repeats so equal plans compare and dump equal
    active_channels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n_channels < 1:
            raise SignalError("need at least one channel")
        if self.baud <= 0:
            raise SignalError("baud must be positive")
        if not 0.0 <= self.rolloff <= 1.0:
            raise SignalError("roll-off must lie in [0, 1]")
        if self.active_channels is not None:
            self.active_channels = tuple(sorted(set(self.active_channels)))
            if not self.active_channels:
                raise SignalError("active channel list is empty")
        if self.baud * (1.0 + self.rolloff) > self.channel_spacing:
            raise SignalError(
                "channel grid too dense: baud*(1+rolloff) exceeds channel spacing"
            )
        if not 0.0 < self.baseband_offset < self.channel_spacing / 2.0:
            raise SignalError("baseband offset must lie inside half a channel slot")

    @property
    def symbols_per_burst(self) -> int:
        return int(np.floor(self.duration * self.baud))

    def active_set(self) -> tuple[int, ...]:
        if self.active_channels is None:
            return tuple(range(1, self.n_channels + 1))
        return self.active_channels


# the reconstruction low-pass's transition width as a fraction of its
# cutoff: tight, so the spec'd bandwidth is the -6 dB point and the
# passband stays flat to 0.96x cutoff, and in-band tones see no droop
_LPF_TRANSITION = 0.08


@dataclass
class DacConfig:
    """The coarse DAC; its full scale is +-1, and levels are fractions of it."""

    bits: int = 6
    rate: float = 32e9
    lpf_cutoff: float | None = 11e9
    # total added white noise, dB relative to a full-scale sine, integrated
    # over the whole output Nyquist band; None disables the term.
    # Calibration knob standing in for every converter imperfection the
    # bit count alone does not capture.
    residual_noise_db: float | None = -34.0

    def __post_init__(self):
        if self.bits < 1:
            raise SignalError("DAC needs at least 1 bit")
        if self.lpf_cutoff is not None:
            lowpass_band(self.lpf_cutoff, self.rate, _LPF_TRANSITION * self.lpf_cutoff)
        if self.residual_noise_db is not None and abs(self.residual_noise_db) > 300.0:
            raise SignalError("residual noise must lie within -300..300 dB")


def gen_pam4_symbols(count: int, seed, levels: int = 4) -> np.ndarray:
    """Uniform PAM symbols at unit mean power, deterministic per seed.

    Levels are { -(L-1), ..., -1, +1, ..., +(L-1) } in steps of 2, scaled
    by sqrt(3 / (L^2 - 1)); for PAM4 that is {-3,-1,+1,+3}/sqrt(5).
    ``seed`` may be an integer or a numpy Generator.
    """
    if count < 1:
        raise SignalError("symbol count must be >= 1")
    if levels < 2 or levels % 2 != 0:
        raise SignalError("PAM order must be an even count >= 2")
    rng = np.random.default_rng(seed)
    lattice = np.arange(-(levels - 1), levels, 2, dtype=np.float64)
    sym = rng.choice(lattice, size=count)
    return sym * np.sqrt(3.0 / (levels**2 - 1))


def burst_sps(cfg: ScmConfig, rate: float) -> int:
    """Samples per symbol of the burst at ``rate``; raises SignalError when
    the rate cannot carry the channel plan or a whole count per symbol."""
    if rate < 2.2 * cfg.n_channels * cfg.channel_spacing:
        raise SignalError(
            f"simulation rate {rate:g} too low for "
            f"{cfg.n_channels} channels on a {cfg.channel_spacing:g} Hz grid"
        )
    return samples_per_symbol(rate, cfg.baud)


def check_carrier_grid(cfg: ScmConfig, rate: float) -> None:
    """Raise SignalError when the ``round(duration * rate)``-sample burst
    cannot put every subcarrier on an FFT bin (a fractional count of
    ``channel_spacing`` cycles)."""
    n = cfg.duration * rate
    if not np.isfinite(cfg.channel_spacing * n / rate):
        raise SignalError(f"{cfg.duration:g} s at {rate:g} Sa/s is too long to count")
    n = int(round(n))
    cycles = cfg.channel_spacing * n / rate
    if abs(cycles - round(cycles)) > 1e-6:
        raise SignalError(
            f"the {n}-sample ({cfg.duration:g} s) burst holds {cycles:.6g} cycles "
            f"of the {cfg.channel_spacing:g} Hz channel spacing, not a whole number"
        )


def scm_waveform(
    cfg: ScmConfig, per_channel_symbols: dict[int, np.ndarray], rate: float
) -> SampledWaveform:
    """Assemble the composite multi-channel burst at the simulation rate.

    ``per_channel_symbols`` maps 1-based channel index to its unit-power
    symbol sequence. The output is the plain sum of channels (no level
    scaling here; drive normalization happens at the DAC boundary), so the
    waveform is linear in any one channel's symbols.

    Built in the frequency domain: ``Re(a) cos(w_k t)`` is
    ``Re(a (e^{j w_k t} + e^{-j w_k t}) / 2)`` and ``w_k`` sits on bin
    ``k * s1``, so each channel's analytic spectrum (one ``rfft``) is added
    circularly shifted by ``+-k * s1`` bins, and one inverse FFT and the
    common ``baseband_offset`` mix give the burst. The RRC shaping stays a
    linear convolution (zeros outside the record), so edge symbols come out
    as from the time-domain construction; only the Hilbert step is circular.
    """
    sps = burst_sps(cfg, rate)
    check_carrier_grid(cfg, rate)
    n = int(round(cfg.duration * rate))
    s1 = int(round(cfg.channel_spacing * n / rate))  # subcarrier spacing in bins
    n_sym = cfg.symbols_per_burst
    # scaled so the matched receive filter sees unit symbol amplitude
    taps = rrc_taps(cfg.rolloff, sps, 16)

    n_half = n // 2 + 1  # rfft length
    spectrum = np.zeros(n, dtype=np.complex128)
    for k in cfg.active_set():
        if k not in per_channel_symbols:
            raise SignalError(f"missing symbols for channel {k}")
        sym = np.asarray(per_channel_symbols[k], dtype=np.float64)
        if sym.size != n_sym:
            raise SignalError(
                f"channel {k}: expected {n_sym} symbols, got {sym.size}"
            )
        # symbol m at sample m*sps: the filter is applied zero-phase
        shaped = polyphase_fir(sym, taps, sps, 1, n)
        # analytic-signal weights (DC and Nyquist once, positive bins
        # twice) times the 1/2 of the cosine's two exponentials
        a = fft.rfft(shaped)
        a[0] *= 0.5
        if n % 2 == 0:
            a[-1] *= 0.5
        for start in (k * s1 % n, -k * s1 % n):  # circular shift by +-k*s1
            head = min(n_half, n - start)
            spectrum[start : start + head] += a[:head]
            spectrum[: n_half - head] += a[head:]
    burst = fft.ifft(spectrum, overwrite_x=True)
    burst *= _phasor(2.0 * np.pi * cfg.baseband_offset / rate, n)
    return SampledWaveform(burst.real.copy(), rate)


def _phasor(w: float, n: int) -> np.ndarray:
    """``exp(1j * w * k)`` for ``k < n``: with k = 1024a + b, the outer
    product of e^{jw 1024a} and e^{jwb}, two short exponentials instead of
    one per sample."""
    coarse = np.exp(1j * w * 1024 * np.arange(-(-n // 1024)))
    fine = np.exp(1j * w * np.arange(1024))
    return np.outer(coarse, fine).ravel()[:n]


def sine_waveform(
    freq: float, amplitude: float, duration: float, rate: float
) -> SampledWaveform:
    """Pure cosine tone, phase 0 at t=0."""
    if not 0.0 <= freq < rate / 2.0:
        raise SignalError(f"tone at {freq:g} Hz does not fit below Nyquist of {rate:g}")
    n = int(round(duration * rate))
    if n < 1:
        raise SignalError("duration shorter than one sample")
    return SampledWaveform(amplitude * _phasor(2.0 * np.pi * freq / rate, n).real, rate)


def quantize_midrise(
    x: np.ndarray, bits: int, full_scale: float, clip: bool = True
) -> np.ndarray:
    """Uniform mid-rise quantizer: 2**bits codes across [-full_scale, +full_scale].

    Code c represents the interval [c*step, (c+1)*step); zero input maps
    to code 0. With ``clip`` the codes saturate at the rails; without it
    the transfer stays linear beyond full scale (ideal headroom).
    """
    step = full_scale / 2 ** (bits - 1)
    codes = np.floor(np.asarray(x, dtype=np.float64) / step)
    if clip:
        codes = np.clip(codes, -(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
    return codes.astype(np.int64)


def dequantize_midrise(codes: np.ndarray, bits: int, full_scale: float) -> np.ndarray:
    step = full_scale / 2 ** (bits - 1)
    return (np.asarray(codes, dtype=np.float64) + 0.5) * step


def dac_model(
    x: SampledWaveform,
    cfg: DacConfig,
    seed,
    *,
    quantize: bool = True,
    clip: bool = True,
    electrical_rolloff_db: float = 0.0,
) -> SampledWaveform:
    """Convert an ideal waveform into what the coarse DAC actually emits,
    as seen past the analog cabling.

    Stage order: clip, quantize, add the residual-noise calibration term,
    then one FIR that is the reconstruction low-pass convolved with the
    ``electrical_rolloff_db`` spectral tilt of the cabling and connectors.
    ``quantize`` and ``clip`` isolate the first two stages;
    ``cfg.residual_noise_db = None``, ``cfg.lpf_cutoff = None`` and a zero
    roll-off drop the others. With all of them off this is the identity.
    The output has the dtype of ``x.samples``.
    """
    if abs(x.rate - cfg.rate) > 1e-6 * cfg.rate:
        raise SignalError(
            f"waveform rate {x.rate:g} does not match DAC rate {cfg.rate:g}"
        )
    dtype = x.samples.dtype
    y = x.samples
    if clip:
        y = np.clip(y, -1.0, 1.0)
    if quantize:
        codes = quantize_midrise(y, cfg.bits, 1.0, clip=clip)
        y = dequantize_midrise(codes, cfg.bits, 1.0).astype(dtype, copy=False)
    if cfg.residual_noise_db is not None:
        rng = np.random.default_rng(seed)
        # relative to the full-scale sine's power of 1/2
        sigma = np.sqrt(0.5 * 10.0 ** (cfg.residual_noise_db / 10.0))
        noise = rng.normal(0.0, sigma, y.size)
        noise += y
        y = noise.astype(dtype, copy=False)
    taps = np.ones(1)  # identity
    if cfg.lpf_cutoff is not None:
        taps = fir_lowpass(cfg.lpf_cutoff, cfg.rate, _LPF_TRANSITION * cfg.lpf_cutoff)
    if electrical_rolloff_db != 0.0:
        # both filters are linear and adjacent: one pass at the DAC rate
        taps = np.convolve(taps, spectral_tilt_taps(cfg.rate, electrical_rolloff_db))
    if taps.size > 1:
        y = apply_fir(y, taps)
    return SampledWaveform(y, cfg.rate)
