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
onto the ``k * grid`` subcarrier, ``grid`` being the comb pair's
sub-band grid ``combs.delta_f``: channel k rides sub-band k. The
resulting double-sideband spectrum occupies the channel slot
symmetrically with a small spectral hole at the subcarrier itself. After
sub-band downconversion the two sidebands fold onto each other
coherently, so the recovered baseband is an ordinary offset-carrier PAM
signal instead of an irrecoverable self-overlapped one; the hole is what
keeps the content clear of the receiver's AC-coupling notch.
``scm_waveform`` builds all channels as one spectrum, with every
subcarrier on an FFT bin of the record. The channels' shaped records go
two to a complex FFT, one as its real and one as its imaginary part, and
``waveform._add_analytic`` reads each channel's analytic spectrum back as
the Hermitian or anti-Hermitian half of the result and adds it at the
channel's two subcarrier shifts, the placement the beat uses to move a
sub-band down. That is one full-length forward transform per pair of
channels, not per channel.

The DAC's full scale is +-1: the testbench's figures are ratios, so
every level (tone amplitude, burst drive, residual noise) is one of it.

The tone comes out in float32, the precision of the analog chain: it is
formed in float64 and rounded once as it is written. The burst comes out
in the dtype its caller asks for, float64 by default; the runner asks for
float32, so its analog records are float32 from the burst to the ADC's
sampler. ``dac_model`` keeps its input's dtype (its quantizer works in that
dtype, exactly, since the step is a power of two; its noise is
``waveform._add_gaussian``'s float32 samples, added in place), so the
caller picks the precision of the DAC-rate chain by the dtype it hands
in. It works in one copy of its input that it owns, clipped, quantized
and noised in place, and never writes into the caller's record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import SignalError
from .waveform import (
    SampledWaveform,
    _add_analytic,
    _add_gaussian,
    _as_samples,
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
    "check_slot",
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
    # sorted and free of repeats however the plan is set, so equal plans
    # compare, run and dump equal
    active_channels: tuple[int, ...] | None = None

    def __setattr__(self, name, value):
        if name == "active_channels" and value is not None:
            value = tuple(sorted(set(value)))
        super().__setattr__(name, value)

    def __post_init__(self):
        if self.n_channels < 1:
            raise SignalError("need at least one channel")
        if self.baud <= 0:
            raise SignalError("baud must be positive")
        if not 0.0 <= self.rolloff <= 1.0:
            raise SignalError("roll-off must lie in [0, 1]")
        if self.active_channels == ():
            raise SignalError("active channel list is empty")
        # a drive far past full scale only clips harder; 1e6 (120 dB past
        # it) keeps the burst, unclipped and through a +300 dB tilt, far
        # inside float32's 3.4e38, where 1e38 overflows the runner's scaling
        if not 0.0 < self.drive_rms <= 1e6:
            raise SignalError("drive rms must lie in (0, 1e6]")

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

    # None: no quantizer, the DAC passes its input through unrounded
    bits: int | None = 6
    # saturate at full scale; off, the DAC has ideal headroom
    clip: bool = True
    rate: float = 32e9
    lpf_cutoff: float | None = 11e9
    # total added white noise, dB relative to a full-scale sine, integrated
    # over the whole output Nyquist band; None disables the term.
    # Calibration knob standing in for every converter imperfection the
    # bit count alone does not capture.
    residual_noise_db: float | None = -34.0
    # spectral tilt of the cabling and connectors past the DAC, linear in
    # dB across 0.1-10 GHz; 0 drops it
    electrical_rolloff_db: float = 0.0

    def __post_init__(self):
        if self.bits is not None and self.bits < 1:
            raise SignalError("DAC needs at least 1 bit")
        if self.lpf_cutoff is not None:
            lowpass_band(self.lpf_cutoff, self.rate, _LPF_TRANSITION * self.lpf_cutoff)
        if self.residual_noise_db is not None and abs(self.residual_noise_db) > 300.0:
            raise SignalError("residual noise must lie within -300..300 dB")
        spectral_tilt_taps(self.rate, self.electrical_rolloff_db)


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


def check_slot(cfg: ScmConfig, grid: float) -> None:
    """Raise SignalError when a channel does not fit its ``grid``-wide
    sub-band: the shaped band must fit the slot, and the offset carrier
    must lie inside half of it."""
    if cfg.baud * (1.0 + cfg.rolloff) > grid:
        raise SignalError("channel grid too dense: baud*(1+rolloff) exceeds the grid")
    if not 0.0 < cfg.baseband_offset < grid / 2.0:
        raise SignalError("baseband offset must lie inside half a channel slot")


def burst_sps(cfg: ScmConfig, rate: float, grid: float) -> int:
    """Samples per symbol of the burst at ``rate``, channel k on the
    ``k * grid`` subcarrier; raises SignalError when the rate cannot carry
    the channel plan or a whole count per symbol."""
    if rate < 2.2 * cfg.n_channels * grid:
        raise SignalError(
            f"simulation rate {rate:g} too low for "
            f"{cfg.n_channels} channels on a {grid:g} Hz grid"
        )
    return samples_per_symbol(rate, cfg.baud)


def check_carrier_grid(cfg: ScmConfig, rate: float, grid: float) -> None:
    """Raise SignalError when the ``round(duration * rate)``-sample burst
    cannot put every subcarrier on an FFT bin (a fractional count of
    ``grid`` cycles)."""
    n = cfg.duration * rate
    if not np.isfinite(grid * n / rate):
        raise SignalError(f"{cfg.duration:g} s at {rate:g} Sa/s is too long to count")
    n = int(round(n))
    cycles = grid * n / rate
    if abs(cycles - round(cycles)) > 1e-6:
        raise SignalError(
            f"the {n}-sample ({cfg.duration:g} s) burst holds {cycles:.6g} cycles "
            f"of the {grid:g} Hz sub-band grid, not a whole number"
        )


def scm_waveform(
    cfg: ScmConfig,
    per_channel_symbols: dict[int, np.ndarray],
    rate: float,
    grid: float,
    dtype=np.float64,
) -> SampledWaveform:
    """Assemble the composite multi-channel burst at the simulation rate,
    channel k on the ``k * grid`` subcarrier, in ``dtype`` (float32 or
    float64).

    ``per_channel_symbols`` maps 1-based channel index to its unit-power
    symbol sequence. The output is the plain sum of channels (no level
    scaling here; drive normalization happens at the DAC boundary), so the
    waveform is linear in any one channel's symbols. Every active
    channel's symbols are checked before any transform is taken.

    Built in the frequency domain: ``Re(a) cos(w_k t)`` is
    ``Re(a (e^{j w_k t} + e^{-j w_k t}) / 2)`` and ``w_k`` sits on bin
    ``k * s1``, so each channel's analytic spectrum is added circularly
    shifted by ``+-k * s1`` bins, and one inverse FFT and the common
    ``baseband_offset`` mix give the burst. The active channels go in
    pairs, one shaped record as the real and one as the imaginary part of
    a single complex FFT (an odd count's last channel with a zero
    partner); ``_add_analytic`` reads each channel's analytic bins back
    from it as the Hermitian or anti-Hermitian half, at weight 1 (the
    analytic 2 times the cosine's 1/2), and adds them at both shifts. The
    RRC shaping stays a linear convolution (zeros outside the record), so
    edge symbols come out as from the time-domain construction; only the
    Hilbert step is circular. The pair buffer, the spectrum and the
    inverse are complex in ``dtype``'s precision; the shaped records and
    the offset mix are taken in float64 and rounded as they are written.
    """
    check_slot(cfg, grid)
    sps = burst_sps(cfg, rate, grid)
    check_carrier_grid(cfg, rate, grid)
    n = int(round(cfg.duration * rate))
    s1 = int(round(grid * n / rate))  # subcarrier spacing in bins
    n_sym = cfg.symbols_per_burst
    active = cfg.active_set()
    symbols = []
    for k in active:
        if k not in per_channel_symbols:
            raise SignalError(f"missing symbols for channel {k}")
        sym = np.asarray(per_channel_symbols[k], dtype=np.float64)
        if sym.size != n_sym:
            raise SignalError(
                f"channel {k}: expected {n_sym} symbols, got {sym.size}"
            )
        symbols.append(sym)
    # scaled so the matched receive filter sees unit symbol amplitude
    taps = rrc_taps(cfg.rolloff, sps, 16)

    n_half = n // 2 + 1  # rfft length
    cdtype = np.result_type(dtype, np.complex64)
    spectrum = np.zeros(n, dtype=cdtype)
    z = np.empty(n, dtype=cdtype)  # one pair of channels at a time
    for i in range(0, len(active), 2):
        # symbol m at sample m*sps: the filter is applied zero-phase
        z.real = polyphase_fir(symbols[i], taps, sps, 1, n)
        if i + 1 < len(active):
            z.imag = polyphase_fir(symbols[i + 1], taps, sps, 1, n)
        else:
            z.imag = 0.0  # an odd count's last channel has a zero partner
        z = fft.fft(z, overwrite_x=True)
        for imag, k in enumerate(active[i : i + 2]):
            _add_analytic(
                z, 0, n_half, spectrum, (k * s1, -k * s1), imag=bool(imag), weight=1.0
            )
    del z  # the pair buffer is not held through the inverse and the mix
    burst = fft.ifft(spectrum, overwrite_x=True)
    w = 2.0 * np.pi * cfg.baseband_offset / rate
    return SampledWaveform(_phasor(w, n, times=burst, dtype=dtype), rate)


def _phasor(
    w: float,
    n: int,
    times: np.ndarray | None = None,
    amplitude: float = 1.0,
    dtype=np.float64,
) -> np.ndarray:
    """``amplitude`` times the real part of ``times * exp(1j * w * k)`` for
    ``k < n``, with ``times`` omitted meaning 1, written into a ``dtype``
    record: the product is taken in float64 and rounded once, on the
    write. With k = 1024a + b, the phasor is the outer product of
    e^{jw 1024a} and e^{jwb}, two short exponentials instead of one per
    sample. It is taken 16 rows (256 kB of complex128) at a time, in cache
    and without a full-length complex array (twice the float64 result)."""
    coarse = np.exp(1j * w * 1024 * np.arange(-(-n // 1024)))
    fine = np.exp(1j * w * np.arange(1024))
    out = np.empty(n, dtype)
    for a in range(0, n, 16 * 1024):
        b = min(a + 16 * 1024, n)
        block = np.outer(coarse[a // 1024 : -(-b // 1024)], fine).ravel()[: b - a]
        if times is not None:
            block *= times[a:b]
        np.multiply(block.real, amplitude, out=out[a:b])
    return out


def sine_waveform(
    freq: float, amplitude: float, duration: float, rate: float
) -> SampledWaveform:
    """Pure cosine tone, phase 0 at t=0, in float32: the float64 tone
    times ``amplitude``, rounded."""
    if not 0.0 <= freq < rate / 2.0:
        raise SignalError(f"tone at {freq:g} Hz does not fit below Nyquist of {rate:g}")
    n = int(round(duration * rate))
    if n < 1:
        raise SignalError("duration shorter than one sample")
    tone = _phasor(2.0 * np.pi * freq / rate, n, amplitude=amplitude, dtype=np.float32)
    return SampledWaveform(tone, rate)


def quantize_midrise(
    x: np.ndarray,
    bits: int,
    full_scale: float,
    clip: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform mid-rise quantizer: 2**bits codes across [-full_scale, +full_scale].

    Code c represents the interval [c*step, (c+1)*step); zero input maps
    to code 0. With ``clip`` the codes saturate at the rails; without it
    the transfer stays linear beyond full scale (ideal headroom). The
    codes are whole numbers in the input's float dtype (float32 stays
    float32, anything else becomes float64), written into ``out`` when
    given (``x`` itself quantizes in place). With a full scale that is a
    power of two, as the DAC's 1.0, the step is one too: float32 then
    gives the float64 codes, and ``dequantize_midrise`` the float64
    values rounded to float32, bit for bit.
    """
    codes = np.divide(_as_samples(x), full_scale / 2 ** (bits - 1), out=out)
    np.floor(codes, out=codes)
    if clip:
        np.clip(codes, -(2 ** (bits - 1)), 2 ** (bits - 1) - 1, out=codes)
    return codes


def dequantize_midrise(
    codes: np.ndarray, bits: int, full_scale: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Interval centres of mid-rise ``codes``, in their float dtype
    (float32 stays float32, integers and the rest become float64),
    written into ``out`` when given."""
    y = np.add(_as_samples(codes), 0.5, out=out)
    y *= full_scale / 2 ** (bits - 1)
    return y


def dac_model(x: SampledWaveform, cfg: DacConfig, seed) -> SampledWaveform:
    """Convert an ideal waveform into what the coarse DAC actually emits,
    as seen past the analog cabling.

    Stage order: clip, quantize, add the residual-noise calibration term,
    then one FIR that is the reconstruction low-pass convolved with the
    ``cfg.electrical_rolloff_db`` spectral tilt of the cabling and
    connectors. ``cfg.clip = False``, ``cfg.bits = None``,
    ``cfg.residual_noise_db = None``, ``cfg.lpf_cutoff = None`` and a zero
    roll-off drop one stage each. With all of them off this is the
    identity. The output has the dtype of ``x.samples``.
    """
    if abs(x.rate - cfg.rate) > 1e-6 * cfg.rate:
        raise SignalError(
            f"waveform rate {x.rate:g} does not match DAC rate {cfg.rate:g}"
        )
    # the one copy the stages below write into: the caller's record is
    # never written
    y = np.clip(x.samples, -1.0, 1.0) if cfg.clip else x.samples.copy()
    if cfg.bits is not None:
        quantize_midrise(y, cfg.bits, 1.0, clip=cfg.clip, out=y)
        dequantize_midrise(y, cfg.bits, 1.0, out=y)
    if cfg.residual_noise_db is not None:
        # relative to the full-scale sine's power of 1/2
        sigma = np.sqrt(0.5 * 10.0 ** (cfg.residual_noise_db / 10.0))
        _add_gaussian(y, sigma, np.random.default_rng(seed))
    taps = np.ones(1)  # identity
    if cfg.lpf_cutoff is not None:
        taps = fir_lowpass(cfg.lpf_cutoff, cfg.rate, _LPF_TRANSITION * cfg.lpf_cutoff)
    if cfg.electrical_rolloff_db != 0.0:
        # both filters are linear and adjacent: one pass at the DAC rate
        tilt = spectral_tilt_taps(cfg.rate, cfg.electrical_rolloff_db)
        taps = np.convolve(taps, tilt)
    if taps.size > 1:
        y = apply_fir(y, taps)
    return SampledWaveform(y, cfg.rate)
