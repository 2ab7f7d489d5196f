"""Sub-band PAM4 demodulation with a data-aided feed-forward equalizer.

Works on one digitized sub-band at a time. The folded channel sits at
``baseband_offset`` +- half the shaped symbol bandwidth; everything above
the half-band (remnants of neighboring channels) is filtered off, the
offset carrier is removed using the analytic signal, and the matched
filter plus fractional decimation hand symbol-spaced snapshots to the
equalizer. All model filters are zero-phase, so symbol m lives exactly at
sample m * sps and timing recovery is a no-op by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import SignalError
from .waveform import (
    SampledWaveform,
    _add_analytic,
    apply_fir,
    fir_lowpass,
    resample_plan,
    resample_waveform,
    rms,
    rrc_taps,
    samples_per_symbol,
    time_vector,
)

__all__ = [
    "DemodConfig",
    "capture_filters",
    "demod_pam4",
    "ffe_lms",
    "symbol_budget",
    "wiener_ffe",
]

# symbols dropped at each burst edge before any statistics
_EDGE_DISCARD = 48

# training symbols the equalizer needs per tap
_TRAINING_PER_TAP = 10

# tap-energy bound beyond which LMS is declared divergent
_TAP_NORM_BOUND = 1e6


@dataclass
class DemodConfig:
    baseband_offset: float = 40e6
    baud: float = 800e6
    rolloff: float = 0.1
    equalizer: str = "wiener"  # wiener | lms | none
    ffe_taps: int = 17
    sps: int = 2
    training_fraction: float = 0.5

    def __post_init__(self):
        if self.ffe_taps % 2 != 1 or self.ffe_taps < 1:
            raise SignalError("equalizer length must be odd")
        if self.sps < 2:
            raise SignalError("need at least 2 samples per symbol")
        if not 0.0 < self.training_fraction < 1.0:
            raise SignalError("training fraction must be in (0, 1)")
        if self.equalizer not in ("lms", "wiener", "none"):
            raise SignalError("equalizer must be lms, wiener or none")


def _symbol_windows(y: np.ndarray, n_sym: int, taps: int, sps: int) -> np.ndarray:
    """Matrix whose row m is the equalizer input window around symbol m."""
    half = (taps - 1) // 2
    pad = np.concatenate([np.zeros(half), y, np.zeros(half + sps)])
    idx = np.arange(n_sym)[:, None] * sps + np.arange(taps)[None, :]
    return pad[idx]


def _training_windows(
    y: np.ndarray, training: np.ndarray, taps: int, sps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Input windows of every symbol ``y`` covers and the float64 training;
    raises SignalError when the training does not fit the taps or record."""
    if taps % 2 != 1:
        raise SignalError("equalizer length must be odd")
    training = np.asarray(training, dtype=np.float64)
    if training.size < _TRAINING_PER_TAP * taps:
        raise SignalError(
            f"training too short: {training.size} symbols for {taps} taps"
        )
    n_sym = y.size // sps
    if training.size > n_sym:
        raise SignalError("more training symbols than received symbols")
    return _symbol_windows(y, n_sym, taps, sps), training


def ffe_lms(
    y: np.ndarray,
    training: np.ndarray,
    taps: int = 17,
    step: float = 0.5,
    sps: int = 2,
    passes: int = 12,
) -> tuple[np.ndarray, np.ndarray]:
    """Transform-domain LMS feed-forward equalizer, data-aided then frozen.

    ``y`` is the real sps-per-symbol sequence with symbol m centered at
    sample m * sps; ``training`` are the known symbols adapted against.
    Returns the frozen (time-domain) taps and the equalized output for
    every symbol the input covers.

    The gradient steps run on the DCT of each input window with per-bin
    power normalization. A fractionally spaced equalizer fed a band
    limited signal sees a wildly spread input correlation (the stopband
    region is barely excited), and plain sample-normalized LMS leaves
    those slow modes stuck partway for any realistic training length.
    Whitening bin by bin makes the convergence rate spectrum-independent;
    the fitted point is the same Wiener solution either way. The defaults,
    step 0.5 and 12 passes, are the measured operating point that
    ``demod.equalizer = lms`` runs at. Normalized LMS is stable only below
    a step of 2, and noise in the per-bin power estimates lowers that edge
    by seed and burst. Over seeds 1, 2, 3, 7 and 12345 of the 10-channel
    run, 0.5 converged on every channel; on the default burst 1.25 failed
    0-2 channels and 1.5 failed 9-10, and on a 16.384 us burst 1.0 failed
    one on two seeds and 1.25 failed 1-4. Divergence surfaces as a
    SignalError, not garbage.

    Step m, ``w += g_m (t_m - u_m . w)`` with ``g_m = step u_m / denom``,
    is an affine map of ``[w; 1]``, and the windows repeat on every pass.
    So one loop over the training symbols composes the map of a pass and
    the map of the taps' sum over its averaged updates, and a pass is two
    small matrix-vector products. Only the summation order differs from
    the per-symbol recurrence: over 1 to 48 passes, steps 0.5 and 1.5 and
    170 to 1,000 training symbols the taps agree with it to 5e-15.
    """
    windows, training = _training_windows(y, training, taps, sps)
    if passes < 1:
        raise SignalError(f"need at least one LMS pass, got {passes}")
    n_train = training.size

    # orthonormal transform: inner products (and the divergence norm
    # check) carry over unchanged between domains
    u_train = sfft.dct(windows[:n_train], type=2, axis=1, norm="ortho")
    denom = np.mean(u_train**2, axis=0) * taps + 1e-12
    gain = step * u_train / denom
    # step m as a row acting on [w; 1]: the error is -(u_m . w - t_m)
    err_row = np.column_stack([u_train, -training])

    spike = np.zeros(taps)
    spike[(taps - 1) // 2] = 1.0
    w = sfft.dct(spike, type=2, norm="ortho")
    # burn-in, then Polyak-average the taps: washes out the stochastic
    # gradient wiggle so the frozen filter sits at the converged mean.
    # A single pass averages from its middle; pass 0 of a multi-pass run
    # is all burn-in and every later pass averages every update.
    burn = n_train // 2 if passes == 1 else n_train
    avg_from = burn if passes == 1 else 0  # first averaged symbol of a pass
    # affine maps of the taps, as matrices acting on [w; 1]
    h_pass = np.eye(taps + 1)  # one pass
    h_sum = np.zeros((taps, taps + 1))  # the sum of w over a pass's averaged updates
    w_sum = np.zeros(taps)
    # overflow inside a diverging run is expected right up until the norm
    # check turns it into a loud error, so keep numpy quiet about it
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(n_train):
            h_pass[:taps] -= np.outer(gain[m], err_row[m] @ h_pass)
            if m >= avg_from:
                h_sum += h_pass[:taps]
        v = np.append(w, 1.0)
        for p in range(passes):
            if p or passes == 1:
                w_sum += h_sum @ v
            v = h_pass @ v
            norm = float(v[:taps] @ v[:taps])
            if not np.isfinite(norm) or norm > _TAP_NORM_BOUND:
                raise SignalError(
                    f"LMS diverged (tap energy {norm:.3g}); reduce the step size"
                )
    w_time = sfft.idct(w_sum / (passes * n_train - burn), type=2, norm="ortho")
    return w_time, windows @ w_time


def wiener_ffe(
    y: np.ndarray,
    training: np.ndarray,
    taps: int = 17,
    sps: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct least-squares solve of the equalization problem, with a
    relative ridge of 1e-9: the default equalizer, and the point that
    ``ffe_lms`` converges to."""
    windows, training = _training_windows(y, training, taps, sps)
    x_train = windows[: training.size]
    r = x_train.T @ x_train
    ridge = 1e-9 * np.trace(r) / taps
    w = np.linalg.solve(r + ridge * np.eye(taps), x_train.T @ training)
    return w, windows @ w


def _ls_gain(y: np.ndarray, a: np.ndarray) -> float:
    denom = float(y @ y)
    return float(y @ a) / denom if denom > 0 else 1.0


def capture_filters(rate: float, cfg: DemodConfig) -> tuple[np.ndarray, np.ndarray]:
    """Channel low-pass and matched-filter taps for a capture at ``rate``;
    raises SignalError when no capture at that rate can be demodulated."""
    sps_in = samples_per_symbol(rate, cfg.baud)
    resample_plan(rate, cfg.sps * cfg.baud)
    # keep the folded channel, reject everything past the half-band
    edge = cfg.baseband_offset + cfg.baud * (1.0 + cfg.rolloff) / 2.0
    channel = fir_lowpass(edge + 20e6, rate, transition_hz=40e6)
    return channel, rrc_taps(cfg.rolloff, sps_in, 16)


def symbol_budget(n_sym: int, cfg: DemodConfig) -> tuple[int, slice]:
    """Training length and scored span of an ``n_sym``-symbol burst;
    raises SignalError when either is too short."""
    n_train = int(round(cfg.training_fraction * n_sym))
    if n_train < _TRAINING_PER_TAP * cfg.ffe_taps:
        raise SignalError(
            f"{n_sym} symbols leave too little training for {cfg.ffe_taps} taps"
        )
    lo = max(n_train, _EDGE_DISCARD)
    hi = n_sym - _EDGE_DISCARD
    if hi - lo < 100:
        raise SignalError("too few evaluation symbols after training and edges")
    return n_train, slice(lo, hi)


def _analytic(x: np.ndarray) -> np.ndarray:
    """Analytic signal of ``x``, its Hilbert transform as the imaginary part:
    one FFT round trip through ``_add_analytic``, which keeps the positive
    frequencies, doubled but for DC and Nyquist."""
    spec = np.zeros(x.size, dtype=np.complex128)
    _add_analytic(sfft.fft(x), 0, x.size // 2 + 1, spec, (0,))
    return sfft.ifft(spec, overwrite_x=True)


def demod_pam4(
    wave: SampledWaveform, cfg: DemodConfig, tx_symbols: np.ndarray
) -> float:
    """Recover one channel's PAM4 symbols from its captured waveform and
    score them data-aided: the channel's SNR in dB.

    Raises SignalError when the adapted filter ends up worse than no
    equalizer at all (non-convergence); callers doing batch runs catch it
    and record the channel as failed.
    """
    tx = np.asarray(tx_symbols, dtype=np.float64)
    channel, matched = capture_filters(wave.rate, cfg)
    x = apply_fir(wave.samples, channel)

    t = time_vector(x.size, wave.rate)
    bb = _analytic(x) * np.exp(-2j * np.pi * cfg.baseband_offset * t)

    # fold-coherent sidebands put the data in the real part, so only it is
    # matched-filtered and resampled
    re = apply_fir(bb.real, matched)
    z = resample_waveform(SampledWaveform(re, wave.rate), cfg.sps * cfg.baud).samples

    n_avail = z.size // cfg.sps
    if n_avail < tx.size:
        raise SignalError(
            f"capture covers only {n_avail} symbols, transmitter sent {tx.size}"
        )
    scale = rms(z)
    if scale == 0.0:
        raise SignalError("capture is identically zero")
    z = z / scale

    n_sym = tx.size
    n_train, sel = symbol_budget(n_sym, cfg)
    raw = z[: n_sym * cfg.sps : cfg.sps]

    if cfg.equalizer == "lms":
        _, eq = ffe_lms(z, tx[:n_train], cfg.ffe_taps, sps=cfg.sps)
    elif cfg.equalizer == "wiener":
        _, eq = wiener_ffe(z, tx[:n_train], cfg.ffe_taps, cfg.sps)
    else:
        eq = raw
    eq = eq[:n_sym]

    # score on symbols the filter never trained on, clear of burst edges
    err = eq[sel] * _ls_gain(eq[sel], tx[sel]) - tx[sel]
    snr = 10.0 * np.log10(float(tx[sel] @ tx[sel]) / float(err @ err))

    if cfg.equalizer != "none":
        raw_gain = _ls_gain(raw[sel], tx[sel])
        raw_err = raw[sel] * raw_gain - tx[sel]
        # 10% tolerance: in an already-flat channel the adapted filter ties
        # the raw samples to within sampling noise, and that tie must not
        # read as failure; genuine non-convergence lands orders of
        # magnitude above this line
        if not float(err @ err) <= 1.10 * float(raw_err @ raw_err):
            raise SignalError(
                "equalized MSE exceeds the pre-equalization MSE; "
                "training did not converge"
            )

    return float(snr)
