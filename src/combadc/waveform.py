"""Sampled-waveform containers and the DSP primitives built on them.

Everything downstream (modulator, beat model, ADC, metrics, demod) moves
data around as :class:`SampledWaveform` and relies on the helpers here for
filtering, rate conversion, spectral estimation and noise synthesis.

Conventions the rest of the package depends on:

* ``periodogram`` windows are normalized to unit RMS, so the summed
  one-sided spectrum satisfies Parseval: ``sum(linear bins) == mean(x**2)``.
  Tone power is recovered by summing bins, and ratios of such sums are
  calibration-free. The default window is rectangular because test tones
  are placed on the bin grid (coherent sampling); Blackman-Harris 4-term
  is available for off-grid work.
* FIR application is zero-phase: odd-length symmetric taps applied by
  overlap-add convolution in ``same`` mode, so filtered waveforms stay
  aligned with their time axis and timing recovery reduces to a known
  delay of 0. Overlap-add transforms blocks about eight times the filter
  length instead of the whole record, which is what keeps long captures
  cheap.
* Analytic spectra are the ``rfft`` bins weighted 2, DC and Nyquist 1,
  placed circularly shifted by ``_add_analytic`` (beat, demodulator) or
  ``_add_shifted`` (burst). Full-length transforms are ``_split_fft``'s.
* Rate conversion is polyphase: ``polyphase_fir`` computes only the
  outputs it keeps, never the zero-stuffed intermediate record. It only
  accepts ratios that reduce to small integer fractions; anything else is
  a configuration mistake, not something to approximate silently.
* Filter design is closed-form numpy, bit for bit the taps of SciPy's
  ``kaiserord``/``firwin`` and ``firwin2``; the package never imports
  ``scipy.signal``, which alone takes about 1 s to load.
* Samples are float64, or float32 where the caller chose it: a
  ``SampledWaveform`` keeps float32 samples and casts anything else to
  float64; ``apply_fir`` filters, and ``_rfft_bins`` and ``_add_analytic``
  read and place bins, in their input's precision. The runner's analog
  records are float32 from the burst (or tone) to the ADC's sampler, and
  float64 from the codes on; every stage keeps its input's dtype, so
  float64 in still gives float64 out.
* Every Gaussian draw of the package, the DAC's residual noise, the
  receiver current, the phase walk's steps and the ADC's jitter, is
  ``_add_gaussian``'s: a blocked Box-Muller transform over the stage's
  own generator's uniforms, float32 samples added in place into the
  caller's record, so no full-length noise record is allocated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft
from scipy.special import i0

from .errors import SignalError

__all__ = [
    "SampledWaveform",
    "SpectrumEstimate",
    "time_vector",
    "rms",
    "periodogram",
    "spectrum_to_csv",
    "rrc_taps",
    "samples_per_symbol",
    "lowpass_band",
    "fir_lowpass",
    "apply_fir",
    "polyphase_fir",
    "spectral_tilt_taps",
    "resample_plan",
    "resample_waveform",
    "white_noise",
    "wiener_phase",
]


@dataclass
class SampledWaveform:
    """A real-valued signal sampled uniformly at ``rate`` Sa/s."""

    samples: np.ndarray
    rate: float

    def __post_init__(self):
        self.samples = _as_samples(self.samples)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise SignalError("waveform samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.samples)):
            raise SignalError("waveform contains non-finite samples")
        if self.rate <= 0:
            raise SignalError("sample rate must be positive")

    @property
    def n(self) -> int:
        return self.samples.size

    def copy(self) -> "SampledWaveform":
        return SampledWaveform(self.samples.copy(), self.rate)


def _as_samples(x) -> np.ndarray:
    """``x`` as a float array: float32 stays float32, anything else becomes float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def _rfft_bins(z: np.ndarray, lo: int, hi: int, imag: bool = False) -> np.ndarray:
    """Bins ``lo..hi-1`` (``0 <= lo < hi <= z.size``) of the ``rfft`` of
    the real part of the record whose FFT is ``z`` (of its imaginary part
    with ``imag``), in the precision of ``z`` (complex64 stays complex64).

    Both parts are real records, so their spectra are the Hermitian and
    anti-Hermitian halves of ``z``: ``(Z[k] + conj Z[-k]) / 2`` and
    ``(Z[k] - conj Z[-k]) / 2j``.
    """
    n = z.size
    # conj Z[-k] for k = lo..hi-1: Z[n - k] read backwards, Z[0] at k = 0
    bins = np.empty(hi - lo, dtype=np.result_type(z, np.complex64))
    first = max(lo, 1)
    np.conjugate(z[n - hi + 1 : n - first + 1][::-1], out=bins[first - lo :])
    if lo == 0:
        bins[0] = np.conj(z[0])
    if imag:
        np.subtract(z[lo:hi], bins, out=bins)
        bins *= -0.5j
    else:
        bins += z[lo:hi]
        bins *= 0.5
    return bins


# bins that ``_add_analytic`` splits, weights and adds at once
_SPLIT_BLOCK = 1 << 14


def _add_analytic(
    z: np.ndarray,
    lo: int,
    hi: int,
    target: np.ndarray,
    shifts,
    imag: bool = False,
    weight: float = 2.0,
) -> None:
    """Add bins ``lo..hi-1`` of the analytic spectrum of the real part of
    the record whose FFT is ``z`` (of its imaginary part with ``imag``)
    into ``target``, once per circular shift in ``shifts``: source bin j
    lands on ``target[(j + shift) % target.size]``.

    The bins are ``_rfft_bins``'s, split ``_SPLIT_BLOCK`` at a time and
    weighted ``weight`` (``weight / 2`` on DC and on the Nyquist bin of an
    even ``z.size``); ``hi - lo`` must not exceed ``target.size``.
    """
    n = z.size
    for b0 in range(lo, hi, _SPLIT_BLOCK):
        b1 = min(b0 + _SPLIT_BLOCK, hi)
        a = _rfft_bins(z, b0, b1, imag=imag)
        a *= weight
        if b0 == 0:
            a[0] *= 0.5
        if n % 2 == 0 and b1 == n // 2 + 1:
            a[-1] *= 0.5
        _add_shifted(a, b0, target, shifts)


def _add_shifted(a: np.ndarray, b0: int, target: np.ndarray, shifts) -> None:
    """Add ``a``, source bins b0.., into ``target`` at each circular shift."""
    for shift in shifts:
        start = (shift + b0) % target.size
        head = min(a.size, target.size - start)
        target[start : start + head] += a[:head]
        target[: a.size - head] += a[head:]


# rows of a split transform taken, and twiddled, at a time
_SPLIT_ROWS = 32


def _split_zeros(n: int, dtype) -> np.ndarray:
    """Zeros (n1, n2) for ``_split_fft``, n1 the largest divisor of n <= sqrt(n)."""
    n1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return np.zeros((n1, n // n1), dtype)


def _split_fft(z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Bailey's four-step FFT of the complex (n1, n2) ``z``, in place: sample
    j1 + n1 j2 at [j1, j2] goes to bin n2 k1 + k2 at [k1, k2] by the rows,
    the twiddles W_n^(j1 k2) and the columns; the inverse runs back. Row
    r + i of a block takes W_n^(r k2) W_n^(i k2), formed in double, rounded once."""
    transform = sfft.ifft if inverse else sfft.fft
    w = (2j if inverse else -2j) * np.pi / z.size
    k2 = np.arange(z.shape[1])
    step = np.exp(np.arange(1, min(_SPLIT_ROWS, len(z)))[:, None] * k2 * w)
    tw = np.empty(step.shape, z.dtype)
    transform(z, axis=0 if inverse else 1, overwrite_x=True)  # in place
    for r in range(0, len(z), _SPLIT_ROWS):
        rows = z[r : r + _SPLIT_ROWS]
        base = np.exp(r * k2 % z.size * w) if r else 1.0
        m = len(rows) - 1
        rows[1:] *= np.multiply(step[:m], base, out=tw[:m], casting="same_kind")
        if r:
            rows[0] *= base
    transform(z, axis=1 if inverse else 0, overwrite_x=True)
    return z


# windows accepted by periodogram, as cosine-sum coefficients
_WINDOWS = {
    "rectangular": (1.0,),
    "blackman-harris-4term": (0.35875, 0.48829, 0.14128, 0.01168),
}

_DB_FLOOR = -400.0


@dataclass
class SpectrumEstimate:
    """Averaged one-sided power spectrum.

    ``power_db`` holds total power per bin (not density), so a sine of
    amplitude A contributes bins summing to A**2/2 and Parseval holds over
    the whole axis. Bins that come out exactly zero are clamped to -400 dB
    so serialized files stay finite.
    """

    bin_freqs: np.ndarray
    power_db: np.ndarray
    rbw: float
    n_fft: int
    n_avg: int
    window: str = "rectangular"
    power_linear: np.ndarray = field(default=None, repr=False)

    def band_mask(self, f_lo: float, f_hi: float) -> np.ndarray:
        """Boolean mask selecting bins with f_lo < freq <= f_hi."""
        return (self.bin_freqs > f_lo) & (self.bin_freqs <= f_hi)


def time_vector(n: int, rate: float) -> np.ndarray:
    return np.arange(n) / rate


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(np.abs(np.asarray(x))))))


def periodogram(
    wave: SampledWaveform,
    n_fft: int = 16384,
    n_avg: int = 1,
    window: str = "rectangular",
) -> SpectrumEstimate:
    """Average ``n_avg`` non-overlapping ``n_fft``-point periodograms.

    The window is rescaled to unit RMS so the estimate is power-calibrated
    (see module docstring).
    """
    if n_fft < 2 or (n_fft & (n_fft - 1)) != 0:
        raise SignalError(f"n_fft must be a power of two, got {n_fft}")
    if window not in _WINDOWS:
        raise SignalError(
            f"unknown window {window!r}; choose from {sorted(_WINDOWS)}"
        )
    x = wave.samples
    if x.size < n_fft * n_avg:
        raise SignalError(
            f"waveform too short for spectral estimate: have {x.size} samples, "
            f"need {n_fft}*{n_avg}"
        )

    w = _cosine_window(_WINDOWS[window], n_fft, periodic=True)
    w = w / np.sqrt(np.mean(np.square(w)))

    segs = x[: n_avg * n_fft].reshape(n_avg, n_fft) * w
    p = np.square(np.abs(sfft.rfft(segs))).sum(axis=0) / (n_avg * n_fft**2)

    # fold negative frequencies onto the positive side; DC and Nyquist
    # have no mirror partner
    p[1:-1] *= 2.0

    power_db = 10.0 * np.log10(np.maximum(p, 10.0 ** (_DB_FLOOR / 10.0)))
    freqs = sfft.rfftfreq(n_fft, d=1.0 / wave.rate)
    return SpectrumEstimate(
        bin_freqs=freqs,
        power_db=power_db,
        rbw=wave.rate / n_fft,
        n_fft=n_fft,
        n_avg=n_avg,
        window=window,
        power_linear=p,
    )


def spectrum_to_csv(spec: SpectrumEstimate, path) -> None:
    """Write ``freq_hz,power_db`` rows with a commented metadata header."""
    with open(path, "w") as fh:
        fh.write(f"# rbw_hz = {spec.rbw!r}\n")
        fh.write(f"# n_fft = {spec.n_fft}\n")
        fh.write(f"# n_avg = {spec.n_avg}\n")
        fh.write(f"# window = {spec.window}\n")
        fh.write("freq_hz,power_db\n")
        # one %-format over Python floats, frequency and power interleaved
        rows = np.column_stack((spec.bin_freqs, spec.power_db)).ravel().tolist()
        fh.write(("%.6f,%.6f\n" * spec.bin_freqs.size) % tuple(rows))


# root-raised-cosine designs kept per process (a run uses at most two).
# A kept design is read-only, so no caller can change it in place.
# Low-pass designs are not kept: one costs about 0.1 ms, and keeping them
# changed where the sweep's large arrays land in the malloc heap, so a
# 5-point sweep process peaked at 209 MiB every time, against 200.5 MiB
# in most runs without them.
_DESIGNS_KEPT = 8


@functools.lru_cache(maxsize=_DESIGNS_KEPT)
def rrc_taps(rolloff: float, sps_per_sym: int, span: int) -> np.ndarray:
    """Root-raised-cosine taps, ``span * sps_per_sym + 1`` long, unit energy.

    rolloff: excess-bandwidth factor in [0, 1]; 0 degenerates to a sinc.
    sps_per_sym: samples per symbol, >= 2.
    span: filter length in symbols, even and >= 8 so the cascade of two
        such filters satisfies the Nyquist ISI criterion to ~1e-3.

    Unit tap energy means the matched cascade has unit gain at the symbol
    instants. Designs are made once per process and returned read-only.
    """
    if not 0.0 <= rolloff <= 1.0:
        raise SignalError("roll-off must lie in [0, 1]")
    if sps_per_sym < 2:
        raise SignalError("need at least 2 samples per symbol")
    if span < 8 or span % 2 != 0:
        raise SignalError("span must be even and >= 8 symbols")
    n = span * sps_per_sym + 1
    t = (np.arange(n) - (n - 1) / 2) / sps_per_sym
    h = np.empty(n)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            h[i] = 1.0 + rolloff * (4.0 / np.pi - 1.0)
        elif rolloff > 0 and abs(abs(ti) - 1.0 / (4.0 * rolloff)) < 1e-9:
            h[i] = (rolloff / np.sqrt(2.0)) * (
                (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * rolloff))
                + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * rolloff))
            )
        else:
            num = np.sin(np.pi * ti * (1.0 - rolloff)) + 4.0 * rolloff * ti * np.cos(
                np.pi * ti * (1.0 + rolloff)
            )
            den = np.pi * ti * (1.0 - (4.0 * rolloff * ti) ** 2)
            h[i] = num / den
    h /= np.sqrt(np.sum(np.square(h)))
    h.setflags(write=False)
    return h


def samples_per_symbol(rate: float, baud: float) -> int:
    """``rate / baud``; raises SignalError unless it is a whole number >= 1."""
    ratio = rate / baud
    if not 1.0 <= ratio < np.inf or abs(ratio - round(ratio)) > 1e-9:
        raise SignalError(
            f"rate {rate:g} Sa/s is not an integer multiple of the {baud:g} Bd baud"
        )
    return int(round(ratio))


# a transition band narrower than this fraction of Nyquist needs more
# than 30,000 Kaiser taps: a cutoff typo, not a filter (the designs in
# use need 50 to about 9,000)
_MIN_TRANSITION = 1.0 / 4096


def lowpass_band(
    cutoff: float, rate: float, transition_hz: float | None = None
) -> tuple[float, float]:
    """Centre and width of the transition band ``fir_lowpass`` designs;
    raises SignalError when that band does not fit between 0 and Nyquist
    or is too narrow to design."""
    nyq = rate / 2.0
    if not 0.0 < cutoff < nyq:
        raise SignalError(f"cutoff {cutoff:g} Hz out of range for rate {rate:g} Sa/s")
    if transition_hz is None:
        width = 0.6 * cutoff
        center = 1.1 * cutoff
    else:
        width = float(transition_hz)
        center = cutoff
    if center + width / 2.0 >= nyq:
        raise SignalError(
            f"low-pass design does not fit below Nyquist: cutoff {cutoff:g} Hz "
            f"at rate {rate:g} Sa/s"
        )
    if not width >= _MIN_TRANSITION * nyq:
        raise SignalError(f"a {width:g} Hz transition is too narrow at rate {rate:g} Sa/s")
    return center, width


def _cosine_window(coeffs, n: int, periodic: bool = False) -> np.ndarray:
    """Cosine-sum window ``sum_k coeffs[k] cos(k t)``, ``t`` spanning -pi..pi
    over ``n`` points (symmetric) or ``n + 1`` points less the last
    (periodic, for spectral analysis)."""
    t = np.linspace(-np.pi, np.pi, n + periodic)
    w = np.zeros(t.size)
    for k, c in enumerate(coeffs):
        w += c * np.cos(k * t)
    return w[:n]


def fir_lowpass(
    cutoff: float,
    rate: float,
    transition_hz: float | None = None,
) -> np.ndarray:
    """Linear-phase Kaiser low-pass, odd length, 60 dB stopband.

    The default transition band is 0.6 * cutoff wide and sits above the
    cutoff, keeping content below 0.8 * cutoff flat within 0.5 dB and
    rejecting everything above 1.4 * cutoff by at least 40 dB. Pass
    ``transition_hz`` to pin the -6 dB point at ``cutoff`` with a chosen
    width instead (used where band selection has to be surgical).
    Kaiser's formulas give the length and the window's beta (for over 50
    dB); the taps are the windowed ideal low-pass scaled to unit DC gain.
    """
    center, width = lowpass_band(cutoff, rate, transition_hz)
    nyq = rate / 2.0
    numtaps = int(np.ceil((60.0 - 7.95) / 2.285 / (np.pi * (width / nyq)) + 1))
    numtaps += 1 - numtaps % 2
    beta = 0.1102 * (60.0 - 8.7)
    half = (numtaps - 1) / 2.0
    t = np.arange(numtaps) - half
    kaiser = i0(beta * np.sqrt(1 - (t / half) ** 2.0)) / i0(beta)
    fc = center / nyq
    h = fc * np.sinc(fc * t) * kaiser
    return h / np.sum(h)


# the FIR kernels work through a record in chunks of about this many
# bytes, so that every temporary stays small
_CHUNK_BYTES = 1 << 20


def apply_fir(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Filter with group-delay compensation (odd-length linear-phase taps),
    in the precision of ``x`` (float32 stays float32): the ``same``-mode
    convolution, by overlap-add over blocks that fill an FFT of about eight
    filter lengths, a chunk of blocks to each 2-D ``rfft``."""
    if taps.size % 2 != 1:
        raise SignalError("zero-phase application needs an odd tap count")
    x = _as_samples(x)
    n, m = x.size, taps.size
    n_fft = sfft.next_fast_len(min(n + m - 1, 8 * m), real=True)
    # input samples per block; a record of more than one block has
    # step >= m - 1, so a tail spills into the next block only
    step = n_fft - m + 1
    n_blocks = -(-n // step)
    gain = sfft.rfft(taps.astype(x.dtype, copy=False), n_fft)
    full = np.zeros(n_blocks * step + m - 1, x.dtype)
    full[:n] = x
    rows = full[: n_blocks * step].reshape(n_blocks, step)
    per = max(1, _CHUNK_BYTES // (n_fft * x.itemsize))
    tail = np.zeros(m - 1, x.dtype)
    for b0 in range(0, n_blocks, per):
        y = sfft.irfft(sfft.rfft(rows[b0 : b0 + per], n_fft) * gain, n_fft)
        y[1:, : m - 1] += y[:-1, step:]
        y[0, : m - 1] += tail
        tail = y[-1, step:].copy()
        rows[b0 : b0 + per] = y[:, :step]
    full[n_blocks * step :] = tail
    return full[m // 2 : m // 2 + n]


def spectral_tilt_taps(rate: float, tilt_db: float) -> np.ndarray:
    """257-tap FIR whose gain slopes linearly in dB from 0 at 0.1 GHz down
    to ``-tilt_db`` at 10 GHz, flat outside that span: the gain on 129
    points, interpolated onto 513, given a linear phase, inverse transformed
    and Hamming-windowed.

    Stands in for the aggregate electrical roll-off of cabling and
    connectors with a single adjustable number. A tilt past 300 dB either
    way fails, as every other dB level does: it is a typo, and its gains
    swamp the float32 DAC chain or, far enough out, overflow.
    """
    if not abs(tilt_db) <= 300.0:
        raise SignalError(f"electrical tilt {tilt_db:g} dB not in -300..300 dB")
    f_lo, f_hi, numtaps = 0.1e9, 10.0e9, 257
    nyq = rate / 2.0
    grid = np.linspace(0.0, nyq, 129)
    frac = np.clip((grid - f_lo) / (f_hi - f_lo), 0.0, 1.0)
    gain = 10.0 ** (-tilt_db * frac / 20.0)
    mesh = np.linspace(0.0, 1.0, 513)  # 1 + 2**ceil(log2(numtaps)) points
    shift = np.exp(-(numtaps - 1) / 2.0 * 1j * np.pi * mesh)
    taps = sfft.irfft(np.interp(mesh, grid / nyq, gain) * shift)[:numtaps]
    return taps * _cosine_window((0.54, 1.0 - 0.54), numtaps)


def resample_plan(rate: float, new_rate: float) -> tuple[int, int]:
    """``(up, down)``, both at most 64, whose ratio is ``new_rate / rate``;
    raises SignalError when the ratio does not reduce to such a fraction."""
    ratio = new_rate / rate
    frac = Fraction(ratio).limit_denominator(64) if 0.0 < ratio < np.inf else Fraction(0)
    if frac.numerator > 64 or frac.numerator < 1:
        raise SignalError(f"unsupported resampling ratio {ratio!r}")
    if abs(float(frac) - ratio) > 1e-9 * ratio:
        raise SignalError(
            f"resampling ratio {ratio!r} does not reduce to a small fraction"
        )
    return frac.numerator, frac.denominator


def polyphase_fir(
    x: np.ndarray, taps: np.ndarray, up: int, down: int, n_out: int
) -> np.ndarray:
    """``y[k] = sum_i x[i] taps[k * down + taps.size // 2 - i * up]`` for
    ``k < n_out``: odd-length ``taps`` applied zero-phase to ``x`` stuffed
    with ``up - 1`` zeros, keeping one output in ``down``, in float64.

    Only kept outputs are computed. Output ``k = r + up * s`` reads every
    ``up``-th tap, from a phase set by r alone, against ``x`` at an offset
    that moves ``down`` samples per s: row s of the outputs is one window
    of ``x`` times a matrix with residue r's taps in column r."""
    m = taps.size
    n_phase = -(-m // up)  # taps per phase
    r = np.arange(up)
    q, p = np.divmod(r * down + m // 2, up)
    width = n_phase + q[-1] - q[0]
    padded = np.zeros(n_phase * up)
    padded[:m] = taps
    j = np.arange(n_phase)
    phases = np.zeros((width, up))
    # in column r, tap p_r + j * up meets x[q_r - j], which is window
    # position q_r - q_0 + n_phase - 1 - j
    at = (q - q[0] + n_phase - 1)[:, None] - j
    phases[at, r[:, None]] = padded[p[:, None] + j * up]

    # row s reads x[s * down + q[0] - n_phase + 1 :][:width], zeros outside x
    n_rows = -(-n_out // up)
    xp = np.zeros(max(n_phase - 1 + x.size, q[0] + (n_rows - 1) * down + width))
    xp[n_phase - 1 : n_phase - 1 + x.size] = x
    windows = sliding_window_view(xp[q[0] :], width)[::down][:n_rows]
    out = np.empty((n_rows, up))
    # a contiguous copy of 256 kB of windows keeps the product in BLAS and cache
    per = max(1, _CHUNK_BYTES // 4 // (width * 8))
    for s0 in range(0, n_rows, per):
        rows = np.ascontiguousarray(windows[s0 : s0 + per])
        np.matmul(rows, phases, out=out[s0 : s0 + per])
    return out.reshape(-1)[:n_out]


def resample_waveform(wave: SampledWaveform, new_rate: float) -> SampledWaveform:
    """Polyphase rate conversion for small rational ratios ``up/down``.

    The filter is a Kaiser low-pass at ``up`` times the input rate whose
    passband reaches 0.9 of the smaller Nyquist (flat within ~0.02 dB)
    and whose stopband starts at that Nyquist (>= 60 dB).
    ``polyphase_fir`` applies it, computing only the kept outputs, so the
    ``down - 1`` discarded outputs and the stuffed zeros cost nothing.
    Output sample k sits at time k / new_rate (the filter delay is
    removed), so downstream symbol indexing needs no offset hunting. The
    mean is carried around the filter so DC survives exactly.
    """
    up, down = resample_plan(wave.rate, new_rate)
    if up == down:
        return wave.copy()
    x = wave.samples
    mean = x.mean()
    f_half = 0.5 * min(wave.rate, new_rate)
    taps = fir_lowpass(0.95 * f_half, wave.rate * up, transition_hz=0.1 * f_half)
    n_out = -(-x.size * up // down)
    y = polyphase_fir((x - mean) * up, taps, up, down, n_out)
    return SampledWaveform(y + mean, new_rate)


# samples ``_add_gaussian`` draws and adds at once: its uniforms and
# temporaries, about 1.5 MB, stay in cache
_GAUSS_BLOCK = 1 << 16


def _add_gaussian(out: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add ``out.size`` independent N(0, sigma**2) samples, each a float32,
    into ``out`` (float32 or float64) in place, and return it.

    The Gaussian kernel of every noise draw: a Box-Muller transform over
    pairs of consecutive float64 uniforms (u, v) from ``rng``. Pair i gives
    samples 2i and 2i + 1, ``r cos(2 pi v)`` and ``r sin(2 pi v)`` with
    ``r = sigma sqrt(-2 log1p(-u))``. The radius and the angle ``2 pi v``
    are taken in float64 and rounded to float32, so the 53-bit u reaches
    8.57 sigma; the cosine, the sine and the products are float32
    (numpy's SIMD loops). An odd count drops the last pair's sine.
    The samples are drawn and added ``_GAUSS_BLOCK`` at a time, and a pair
    is its own arithmetic, so a record drawn in even-sized parts, from one
    generator in sequence, gets the samples of one draw of the whole.
    """
    for a in range(0, out.size, _GAUSS_BLOCK):
        m = min(_GAUSS_BLOCK, out.size - a)
        u = rng.random(m + m % 2).reshape(-1, 2)
        half = u.shape[0]
        r = np.negative(u[:, 0])
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        radius = np.multiply(r, sigma, out=np.empty(half, np.float32))
        angle = np.multiply(u[:, 1], 2.0 * np.pi, out=np.empty(half, np.float32))
        pairs = np.empty((half, 2), np.float32)
        np.multiply(np.cos(angle), radius, out=pairs[:, 0])
        np.multiply(np.sin(angle), radius, out=pairs[:, 1])
        out[a : a + m] += pairs.reshape(-1)[:m]
    return out


def white_noise(
    n: int, rate: float, density: float, seed, out: np.ndarray | None = None
) -> np.ndarray:
    """Gaussian noise with one-sided spectral density ``density`` X/sqrt(Hz):
    ``n`` float32 samples, or, given ``out`` (``n`` samples, float32 or
    float64), the same samples added into it in place.

    Variance is density**2 * rate / 2, the density integrated over the
    Nyquist band.
    """
    if out is None:
        out = np.zeros(n, np.float32)
    elif out.size != n:
        raise SignalError(f"noise of {n} samples cannot add into {out.size}")
    sigma = density * np.sqrt(rate / 2.0)
    return _add_gaussian(out, sigma, np.random.default_rng(seed))


def wiener_phase(linewidth: float, n: int, rate: float, seed) -> np.ndarray:
    """Random-walk phase track for a Lorentzian line of the given FWHM.

    Increment variance per sample is 2 * pi * linewidth / rate; the walk
    starts at zero. linewidth == 0 returns all zeros. The steps are
    float32 samples, summed in float64: a float32 sum of hundreds of
    thousands of steps drifts.
    """
    if linewidth < 0:
        raise SignalError("linewidth must be non-negative")
    theta = np.zeros(n)
    if linewidth == 0.0:
        return theta
    var = 2.0 * np.pi * linewidth / rate
    _add_gaussian(theta[1:], np.sqrt(var), np.random.default_rng(seed))
    return np.cumsum(theta, out=theta)
