"""Low-speed high-resolution ADC model and its capture container.

The converter sees an oversampled analog waveform and produces integer
codes: AC coupling, anti-alias filtering, (optionally jittered) sampling
by an 8-point Lagrange interpolator in Farrow form, clipping, and uniform
mid-rise quantization. The capture carries what it needs to dequantize itself.
The coupling and the filter keep the input's dtype (float32 stays
float32); the sampler's output, and everything after it, is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SignalError
from .frontend import dequantize_midrise, quantize_midrise
from .seeding import derive_rng
from .waveform import (
    SampledWaveform,
    _add_gaussian,
    _as_samples,
    apply_fir,
    fir_lowpass,
    lowpass_band,
)

__all__ = ["AdcConfig", "SubbandCapture", "adc_capture"]

# the analog input must arrive at least this many times faster than the
# converter samples for the band-limited interpolation to stay accurate
MIN_OVERSAMPLING = 4.0


@dataclass
class AdcConfig:
    # None: no quantizer, the capture holds its clipped analog samples
    bits: int | None = 14
    rate: float = 2.4e9
    # "auto" scales full range to each capture's peak, as the default
    # scenario does; a number pins an absolute full scale instead
    full_scale: float | str = "auto"
    jitter_rms: float = 0.0
    aa_cutoff: float | None = 1.2e9
    ac_couple: float | None = 10e6

    def __post_init__(self):
        if self.bits is not None and not 1 <= self.bits <= 24:
            raise SignalError("ADC resolution must be between 1 and 24 bits")
        if self.rate <= 0:
            raise SignalError("sample rate must be positive")
        if self.aa_cutoff is not None:
            if self.aa_cutoff > self.rate / 2.0:
                raise SignalError("anti-alias cutoff cannot exceed Nyquist")
            # the filter runs at the input rate, at least MIN_OVERSAMPLING x rate
            lowpass_band(self.aa_cutoff, MIN_OVERSAMPLING * self.rate)
        if self.ac_couple is not None and self.ac_couple <= 0.0:
            # a negative corner puts the DC blocker's pole outside the unit circle
            raise SignalError("AC-coupling corner must be positive")
        if self.jitter_rms < 0:
            raise SignalError("jitter must be non-negative")
        if isinstance(self.full_scale, str):
            if self.full_scale != "auto":
                raise SignalError("full_scale is a number or 'auto'")
        elif self.full_scale <= 0:
            raise SignalError("full scale must be positive")


@dataclass
class SubbandCapture:
    """Digitized record of one sub-band.

    ``codes`` holds integer samples when quantization ran; otherwise
    (``cfg.bits`` None) ``analog`` holds the continuous-valued samples.
    ``full_scale_used`` is the realized full scale (resolved from "auto"
    if needed) so dequantization is self-contained.
    """

    codes: np.ndarray | None
    cfg: AdcConfig
    full_scale_used: float
    analog: np.ndarray | None = None

    def __post_init__(self):
        if self.codes is None and self.analog is None:
            raise SignalError("capture must hold codes or analog samples")
        if self.codes is not None:
            self.codes = np.asarray(self.codes, dtype=np.int64)
            rail = 2 ** (self.cfg.bits - 1)
            if np.any(self.codes < -rail) or np.any(self.codes > rail - 1):
                raise SignalError("codes exceed the converter's range")

    @property
    def n(self) -> int:
        return self.codes.size if self.codes is not None else self.analog.size

    def values(self) -> np.ndarray:
        """Sample values in input units (dequantized if quantized)."""
        if self.codes is None:
            return self.analog
        return dequantize_midrise(self.codes, self.cfg.bits, self.full_scale_used)

    def to_waveform(self) -> SampledWaveform:
        return SampledWaveform(self.values(), self.cfg.rate)


def _dc_block(x: np.ndarray, cutoff: float, rate: float) -> np.ndarray:
    """First-order highpass (DC blocker) with -3 dB near ``cutoff``."""
    a = np.exp(-2.0 * np.pi * cutoff / rate)
    g = (1.0 + a) / 2.0  # unity gain at Nyquist
    return _first_order(_as_samples(x), g, -g, a)


def _first_order(x: np.ndarray, b0: float, b1: float, a: float) -> np.ndarray:
    """``y[n] = b0 x[n] + b1 x[n-1] + a y[n-1]`` from rest, 32 outputs at a
    time: each block is one row of a matrix product of its inputs, the
    input and the output (the carry) before it with the filter's response
    to each. The carries are the same recursion, with ``a**32``, on the
    block ends. The products run in the precision of ``x`` (float32 stays
    float32), the response designed in float64 and rounded to it."""
    k = 32
    n = x.size
    n_blocks = -(-n // k)
    j = np.arange(k)
    lag = j - j[:, None]  # output index minus input index
    resp = np.zeros((k + 2, k))
    resp[:k] = np.where(lag >= 0, b0 * a ** np.maximum(lag, 0), 0.0) + np.where(
        lag >= 1, b1 * a ** np.maximum(lag - 1, 0), 0.0
    )
    resp[k] = b1 * a**j  # the previous block's last input
    resp[k + 1] = a ** (j + 1)  # the previous block's last output
    resp = resp.astype(x.dtype, copy=False)
    rows = np.zeros((n_blocks, k + 2), x.dtype)
    whole = (n_blocks - 1) * k
    rows[:-1, :k] = x[:whole].reshape(-1, k)
    rows[-1, : n - whole] = x[whole:]
    rows[1:, k] = rows[:-1, k - 1]
    if n_blocks > 1:
        ends = rows[:, : k + 1] @ resp[: k + 1, k - 1]
        rows[1:, k + 1] = _first_order(ends[:-1], 1.0, 0.0, a**k)
    return (rows @ resp).reshape(-1)[:n]


# _FARROW[p, j]: t**p's coefficient in tap j's Lagrange basis polynomial on the
# nodes t = -3..4, rounded once from Python integers (np.poly costs 0.2 MiB RSS)
_FARROW = np.zeros((8, 8))
for _j, _t in enumerate(range(-3, 5)):
    _c, _d = [1], 1  # the product of (t - r) over the other nodes r
    for _r in set(range(-3, 5)) - {_t}:
        _c, _d = [a - _r * b for a, b in zip([0] + _c, _c + [0])], _d * (_t - _r)
    _FARROW[:, _j] = [a / _d for a in _c]

# outputs per block: their taps and coefficients, 1 MB each, stay in cache
_SAMPLE_BLOCK = 1 << 14


def _lagrange_sample(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Band-limited interpolation of ``x`` at fractional sample positions,
    clamped to the valid span, by a sliding 8-point Lagrange polynomial:
    with the input oversampled 4x or more its error sits far below every
    modeled noise source. In Farrow form, an output's eight taps times
    ``_FARROW`` give its coefficients in t, its position less the fourth
    tap's, for one Horner pass; on the grid, three samples or more from an
    end, t is 0 and the output is that sample, bit for bit."""
    n = x.size
    out = np.empty(positions.size)
    taps, coef = np.empty((2, 8, min(_SAMPLE_BLOCK, out.size)))
    for a in range(0, out.size, _SAMPLE_BLOCK):
        pos = np.clip(positions[a : a + _SAMPLE_BLOCK], 0.0, n - 1.0)
        base = np.clip(np.floor(pos).astype(np.int64) - 3, 0, n - 8)
        t = pos - (base + 3)
        for j in range(8):
            taps[j, : t.size] = x[j:][base]
        c = np.matmul(_FARROW, taps[:, : t.size], out=coef[:, : t.size])
        y = np.multiply(c[7], t, out=out[a : a + t.size])
        for p in range(6, 0, -1):
            y += c[p]
            y *= t
        y += c[0]
    return out


def adc_capture(
    x: SampledWaveform,
    cfg: AdcConfig,
    seed: int,
) -> SubbandCapture:
    """Digitize an oversampled analog sub-band waveform.

    Pipeline: AC-couple, anti-alias filter (both at the input rate),
    interpolate at the jittered sampling instants, clip, quantize (unless
    ``cfg.bits`` is None). The capture holds one sample per converter
    period of the record, so its length does not depend on how far above
    4x the input is oversampled. The jitter, ``cfg.jitter_rms`` rms, is
    the "jitter" stream's float32 Gaussian samples (``_add_gaussian``),
    added in place onto the float64 instants in input samples.
    """
    if x.rate < MIN_OVERSAMPLING * cfg.rate:
        raise SignalError(
            f"analog input at {x.rate:g} Sa/s is not oversampled enough for "
            f"a {cfg.rate:g} Sa/s converter (need 4x)"
        )
    ratio = x.rate / cfg.rate
    # every sampling instant inside the record, whatever the input rate;
    # an instant past the last input sample reads that sample
    n_out = int(np.ceil(x.n / ratio - 1e-9))

    y = x.samples
    if cfg.ac_couple is not None:
        y = _dc_block(y, cfg.ac_couple, x.rate)
    if cfg.aa_cutoff is not None:
        y = apply_fir(y, fir_lowpass(cfg.aa_cutoff, x.rate))

    positions = np.arange(n_out) * ratio
    if cfg.jitter_rms > 0.0:
        _add_gaussian(positions, cfg.jitter_rms * x.rate, derive_rng(seed, "jitter"))
    sampled = _lagrange_sample(y, positions)

    if cfg.full_scale == "auto":
        fs = float(np.max(np.abs(sampled)))
        if fs == 0.0:
            fs = 1.0
    else:
        fs = float(cfg.full_scale)

    if cfg.bits is not None:
        return SubbandCapture(
            codes=quantize_midrise(sampled, cfg.bits, fs, clip=True),
            cfg=cfg,
            full_scale_used=fs,
        )
    return SubbandCapture(
        codes=None,
        cfg=cfg,
        full_scale_used=fs,
        analog=np.clip(sampled, -fs, fs),
    )
