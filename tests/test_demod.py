import numpy as np
import pytest
import scipy.fft as sfft
from scipy import signal as sps_mod

from combadc.demod import DemodConfig, demod_pam4, ffe_lms, symbol_budget, wiener_ffe
from combadc.errors import SignalError
from combadc.frontend import gen_pam4_symbols
from combadc.waveform import SampledWaveform, apply_fir, rrc_taps, time_vector

RATE = 2.4e9
BAUD = 800e6
OFFSET = 40e6
SPS_IN = 3
N_SYM = 1638


def _ssb_capture(sym, noise_rms=0.0, seed=5, droop_a=None):
    """Captured waveform of shaped PAM4 on a 40 MHz offset carrier, the way
    a folded sub-band carries it: single-sideband, data in the in-phase rail."""
    train = np.zeros(sym.size * SPS_IN)
    train[::SPS_IN] = sym
    m = apply_fir(train, rrc_taps(0.1, SPS_IN, 16))
    theta = 2.0 * np.pi * OFFSET * time_vector(m.size, RATE)
    x = np.real(sps_mod.hilbert(m) * np.exp(1j * theta))
    if droop_a is not None:
        x = sps_mod.filtfilt([1.0 - droop_a], [1.0, -droop_a], x)
    if noise_rms > 0.0:
        x = x + np.random.default_rng(seed).normal(0.0, noise_rms, x.size)
    return SampledWaveform(x, RATE)


def _cfg(**kw):
    base = dict(baseband_offset=OFFSET, baud=BAUD, rolloff=0.1)
    base.update(kw)
    return DemodConfig(**base)


# --------------------------------------------------------------- equalizers


def _lms_reference(y, training, taps, step, sps, passes):
    """The equalizer as one Python LMS step per training symbol.

    Same windows, DCT whitening, start point, burn-in, Polyak average and
    divergence check as ``ffe_lms``, written as the plain recurrence.
    """
    half = (taps - 1) // 2
    n_sym = y.size // sps
    pad = np.concatenate([np.zeros(half), y, np.zeros(half + sps)])
    windows = pad[np.arange(n_sym)[:, None] * sps + np.arange(taps)[None, :]]
    u_all = sfft.dct(windows, type=2, axis=1, norm="ortho")
    denom = np.mean(u_all[: training.size] ** 2, axis=0) * taps + 1e-12
    spike = np.zeros(taps)
    spike[half] = 1.0
    w = sfft.dct(spike, type=2, norm="ortho")
    n_passes = max(1, passes)
    burn = training.size // 2 if n_passes == 1 else training.size
    w_avg = np.zeros(taps)
    n_avg = 0
    update = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_passes):
            for m in range(training.size):
                u = u_all[m]
                err = training[m] - float(w @ u)
                w = w + step * err * u / denom
                update += 1
                if update > burn:
                    w_avg += w
                    n_avg += 1
            norm = float(w @ w)
            if not np.isfinite(norm) or norm > 1e6:
                raise SignalError(f"LMS diverged (tap energy {norm:.3g})")
    return sfft.idct(w_avg / n_avg, type=2, norm="ortho")


def _shaped_isi_sequence(n_sym, seed):
    """Band-limited PAM4 at 2 samples per symbol through a short ISI channel."""
    sym = gen_pam4_symbols(n_sym, seed=seed)
    y = np.zeros(sym.size * 2)
    y[::2] = sym
    y = apply_fir(y, rrc_taps(0.1, 2, 16))
    y = np.convolve(y, [0.25, 0.0, 1.0, 0.0, -0.3], mode="same")
    return sym, y + np.random.default_rng(seed).normal(0.0, 0.02, y.size)


def test_lms_identity_on_clean_sequence(rng):
    sym = gen_pam4_symbols(800, seed=1)
    y = np.zeros(sym.size * 2)
    y[::2] = sym
    taps, eq = ffe_lms(y, sym[:400], taps=17, step=0.5, sps=2, passes=4)
    assert np.allclose(eq[400:790], sym[400:790], atol=5e-3)
    center = np.zeros(17)
    center[8] = 1.0
    assert np.allclose(taps, center, atol=5e-3)


def test_wiener_solves_known_channel():
    sym = gen_pam4_symbols(1000, seed=2)
    y = np.zeros(sym.size * 2)
    y[::2] = sym
    y = np.convolve(y, [0.2, 0.0, 1.0, 0.0, -0.35], mode="same")
    taps, eq = wiener_ffe(y, sym[:500], taps=17, sps=2)
    err = eq[500:950] - sym[500:950]
    assert 10 * np.log10(np.mean(sym[500:950] ** 2) / np.mean(err**2)) > 30.0


def _windows_by_hand(y, taps, sps):
    """Row m holds y[m*sps - half + k] for k < taps, zero off the record."""
    half = (taps - 1) // 2
    rows = []
    for m in range(y.size // sps):
        start = m * sps - half
        rows.append([y[i] if 0 <= i < y.size else 0.0 for i in range(start, start + taps)])
    return np.array(rows)


# band-limited input, so the training correlation is ill-conditioned
# (condition number 190 to 4,000), on and off the 10-per-tap floor
@pytest.mark.parametrize("n_train,taps", [(170, 17), (819, 17), (300, 5)])
def test_wiener_matches_least_squares_on_hand_built_windows(n_train, taps):
    sym, y = _shaped_isi_sequence(1100, seed=8)
    x = _windows_by_hand(y, taps, 2)
    w_ls = np.linalg.lstsq(x[:n_train], sym[:n_train], rcond=None)[0]
    w, eq = wiener_ffe(y, sym[:n_train], taps=taps, sps=2)
    # the ridge lam = 1e-9 trace(R) / taps moves the solve by
    # lam (R + lam I)^-1 w_ls, at most lam / eig_min(R) of |w_ls|; 1e-10
    # of |w_ls| covers the round-off of the normal equations (cond * eps
    # is below 1e-12 here)
    r = x[:n_train].T @ x[:n_train]
    lam = 1e-9 * np.trace(r) / taps
    tol = (lam / np.linalg.eigvalsh(r)[0] + 1e-10) * np.linalg.norm(w_ls)
    assert np.linalg.norm(w - w_ls) <= tol
    np.testing.assert_allclose(eq[: x.shape[0]], x @ w, rtol=0.0, atol=1e-12)


def test_lms_tracks_wiener_on_isi_channel():
    sym = gen_pam4_symbols(1638, seed=3)
    y = np.zeros(sym.size * 2)
    y[::2] = sym
    y = np.convolve(y, [0.25, 0.0, 1.0, 0.0, -0.3], mode="same")
    y = y + np.random.default_rng(7).normal(0.0, 0.02, y.size)

    def out_snr(eq):
        err = eq[819:1590] - sym[819:1590]
        return 10 * np.log10(np.mean(sym[819:1590] ** 2) / np.mean(err**2))

    _, eq_w = wiener_ffe(y, sym[:819], taps=17, sps=2)
    _, eq_l = ffe_lms(y, sym[:819], taps=17, step=0.5, sps=2, passes=12)
    assert out_snr(eq_l) >= out_snr(eq_w) - 1.0


def test_lms_divergence_is_loud():
    sym = gen_pam4_symbols(600, seed=4)
    y = np.zeros(sym.size * 2)
    y[::2] = sym
    y = np.convolve(y, [0.4, 0.0, 1.0, 0.0, -0.4], mode="same")
    with pytest.raises(SignalError, match="diverged"):
        ffe_lms(y, sym[:300], taps=17, step=60.0, sps=2, passes=8)
    with pytest.raises(SignalError, match="diverged"):
        _lms_reference(y, sym[:300], 17, 60.0, 2, 8)


@pytest.mark.parametrize("equalize", [ffe_lms, wiener_ffe])
def test_training_guards(equalize):
    with pytest.raises(SignalError):
        equalize(np.zeros(100), np.zeros(20), taps=16)
    with pytest.raises(SignalError, match="training too short"):
        equalize(np.zeros(10000), np.zeros(50), taps=17)
    with pytest.raises(SignalError, match="more training"):
        equalize(np.zeros(400), gen_pam4_symbols(300, 0), taps=17, sps=2)


def test_lms_guards():
    # no pass count runs as one pass
    with pytest.raises(SignalError, match="at least one LMS pass"):
        ffe_lms(np.zeros(400), gen_pam4_symbols(170, 0), taps=17, sps=2, passes=0)


# a grid of training spans, pass counts and steps, then two passes (the
# first whose sum map is the full one) and 48 passes
@pytest.mark.parametrize(
    "passes,n_train",
    [(p, n) for p in (1, 4, 12) for n in (170, 300, 819, 1000)]
    + [(2, 300), (2, 1000), (48, 300), (1, 192), (2, 192), (12, 192)],
)
@pytest.mark.parametrize("step", [0.5, 1.5])
def test_lms_matches_per_symbol_reference(n_train, passes, step):
    sym, y = _shaped_isi_sequence(1100, seed=8)
    ref = _lms_reference(y, sym[:n_train], 17, step, 2, passes)
    taps, _ = ffe_lms(y, sym[:n_train], taps=17, step=step, sps=2, passes=passes)
    assert np.max(np.abs(taps - ref)) <= 1e-12


def test_lms_approaches_wiener_with_more_passes():
    # excess training MSE over the direct least-squares solve: measured
    # 3.7, 2.1, 1.8 and 1.2 % at 1, 4, 12 and 48 passes
    sym = gen_pam4_symbols(2000, seed=3)
    y = np.zeros(sym.size * 2)
    y[::2] = sym
    y = np.convolve(y, [0.25, 0.0, 1.0, 0.0, -0.3], mode="same")
    y = y + np.random.default_rng(7).normal(0.0, 0.02, y.size)
    train = sym[:1000]
    _, eq_ls = wiener_ffe(y, train, taps=17, sps=2)
    floor = np.mean((eq_ls[:1000] - train) ** 2)
    excess = []
    for passes in (1, 4, 12, 48):
        _, eq = ffe_lms(y, train, taps=17, step=0.5, sps=2, passes=passes)
        excess.append(np.mean((eq[:1000] - train) ** 2) / floor - 1.0)
    assert all(a > b for a, b in zip(excess, excess[1:]))
    assert 0.0 <= excess[-1] < 0.015


# ------------------------------------------------------------ full receiver


def test_demod_matches_noise_budget():
    # SSB receiver: noise density doubles only below the offset carrier,
    # so symbol noise is (1 + 2*offset/baud) * sigma^2 through the unit
    # energy matched filter. Noise is set well above the truncated-RRC
    # ISI floor (about -34 dB) so the law is read cleanly.
    sym = gen_pam4_symbols(N_SYM, seed=11)
    sigma = 0.1
    cap = _ssb_capture(sym, noise_rms=sigma, seed=21)
    snr_db = demod_pam4(cap, _cfg(equalizer="none"), sym)
    predicted = -10.0 * np.log10((1.0 + 2.0 * OFFSET / BAUD) * sigma**2)
    assert snr_db == pytest.approx(predicted, abs=0.5)


def test_demod_noise_doubling():
    # same seed: the second capture carries exactly sqrt(2) x the same
    # noise samples, so the SNR drop is the clean power ratio
    sym = gen_pam4_symbols(N_SYM, seed=11)
    a = demod_pam4(_ssb_capture(sym, 0.1, seed=21), _cfg(equalizer="none"), sym)
    b = demod_pam4(
        _ssb_capture(sym, 0.1 * np.sqrt(2.0), seed=21), _cfg(equalizer="none"), sym
    )
    assert a - b == pytest.approx(3.01, abs=0.3)


@pytest.mark.parametrize(
    "n_sym,kw,n_train,span",
    [
        (N_SYM, {}, 819, (819, N_SYM - 48)),
        # training shorter than the edge discard: scoring starts at the edge
        (400, dict(ffe_taps=3, training_fraction=0.1), 40, (48, 352)),
    ],
    ids=["training-first", "edge-first"],
)
def test_symbol_budget_scores_after_training_and_edges(n_sym, kw, n_train, span):
    assert symbol_budget(n_sym, _cfg(**kw)) == (n_train, slice(*span))


def test_ffe_recovers_rolled_off_channel():
    # ~8 dB droop across the symbol band: the adapted filter must claw
    # back at least 3 dB over the raw matched-filter samples
    sym = gen_pam4_symbols(N_SYM, seed=13)
    kw = dict(noise_rms=0.01, seed=31, droop_a=0.42)
    raw = demod_pam4(_ssb_capture(sym, **kw), _cfg(equalizer="none"), sym)
    lms = demod_pam4(_ssb_capture(sym, **kw), _cfg(equalizer="lms"), sym)
    wien = demod_pam4(_ssb_capture(sym, **kw), _cfg(equalizer="wiener"), sym)
    assert lms >= raw + 3.0
    assert lms >= wien - 1.0


def test_demod_rate_must_fit_baud():
    sym = gen_pam4_symbols(200, seed=1)
    bad = SampledWaveform(_ssb_capture(sym[:200], 0.0).samples[:4000], 2.0e9)
    with pytest.raises(SignalError, match="integer multiple"):
        demod_pam4(bad, _cfg(), sym)


def test_demod_config_validation():
    with pytest.raises(SignalError):
        _cfg(ffe_taps=16)
    with pytest.raises(SignalError):
        _cfg(sps=1)
    with pytest.raises(SignalError):
        _cfg(training_fraction=1.0)
    with pytest.raises(SignalError):
        _cfg(equalizer="zf")
