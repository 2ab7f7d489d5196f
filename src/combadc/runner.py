"""Scenario orchestration: sine sweeps, multi-channel runs, artifacts.

Every run decomposes into independent tasks (one per sweep frequency or
per channel). Task seeds derive from (master_seed, task kind, index)
alone, so outputs are byte-identical however the tasks are scheduled;
``--jobs`` only changes wall time. A channelized run builds its transmit
burst once and hands it to every channel task, as the physical system
sends one burst to all sub-band detectors. A failed task is recorded in
the manifest with its reason and the run carries on, whether the task
raised any error or its worker process died.

The manifest written next to the CSVs doubles as a config file: all
bookkeeping lives in comment lines, the config snapshot is the payload,
and re-running with ``--config manifest.txt`` reproduces every artifact
bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .adc import MIN_OVERSAMPLING, SubbandCapture, adc_capture
from .comb import ScenarioCombs, mzm_field, subband_beat
from .demod import demod_pam4
from .errors import CombAdcError, ConfigError
from .frontend import dac_model, gen_pam4_symbols, scm_waveform, sine_waveform
from .metrics import ANALYSIS_RATE, FOLD_WINDOW_HZ, sine_metrics
from .scenario import (
    ScenarioConfig,
    build_combs,
    build_demod,
    dump_config,
    validate_scenario,
)
from .seeding import derive_seed_sequence
from .units import db_to_amplitude_ratio
from .waveform import SampledWaveform, periodogram, rms, spectrum_to_csv

__all__ = [
    "RunManifest",
    "TaskRecord",
    "run_scm",
    "run_spectrum",
    "run_sweep",
    "snap_sweep_frequency",
]


@dataclass
class TaskRecord:
    index: int
    label: str
    seed: int
    elapsed_s: float
    status: str  # ok | failed
    detail: str = ""


@dataclass
class RunManifest:
    subcommand: str
    config_text: str
    artifacts: dict[str, str] = field(default_factory=dict)  # name -> sha256
    tasks: list[TaskRecord] = field(default_factory=list)

    def to_text(self) -> str:
        lines = ["# combadc run manifest", f"# subcommand = {self.subcommand}"]
        for name in sorted(self.artifacts):
            lines.append(f"# artifact {name} sha256={self.artifacts[name]}")
        for t in self.tasks:
            line = (
                f"# task {t.index} {t.label} seed={t.seed} "
                f"elapsed_s={t.elapsed_s:.3f} status={t.status}"
            )
            if t.detail:
                line += f" detail={t.detail}"
            lines.append(line)
        lines.append("#")
        lines.append(self.config_text.rstrip("\n"))
        return "\n".join(lines) + "\n"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _task_seeds(master_seed: int, kind: str, index: int, count: int) -> list[int]:
    state = derive_seed_sequence(master_seed, kind, index).generate_state(count)
    return [int(word) for word in state]


def _window_name(cfg: ScenarioConfig) -> str:
    if cfg.metrics.window != "auto":
        return cfg.metrics.window
    return "rectangular" if cfg.sweep.snap else "blackman-harris-4term"


def snap_sweep_frequency(
    f_request: float, cfg: ScenarioConfig, combs: ScenarioCombs
) -> tuple[float, int, float]:
    """Pick the sub-band and the exact tone for one sweep point.

    Returns (synthesized frequency, sub-band index, folded baseband
    frequency). The folded tone is clamped into the clean analysis
    window and, when snapping is on, centered on the analysis FFT grid
    so a rectangular window needs no leakage correction.
    """
    delta_f = combs.delta_f
    n = int(np.clip(round(f_request / delta_f), 1, combs.n_pairs))
    offset = f_request - n * delta_f
    side = 1.0 if offset >= 0 else -1.0
    fold_lo, fold_hi = FOLD_WINDOW_HZ
    folded = float(np.clip(abs(offset), fold_lo, fold_hi))
    if cfg.sweep.snap:
        # clamp on the grid-aligned window so rounding cannot push the
        # tone back past either edge
        grid = ANALYSIS_RATE / cfg.metrics.n_fft
        bin_lo = int(np.ceil(fold_lo / grid))
        bin_hi = int(np.floor(fold_hi / grid))
        folded = int(np.clip(round(folded / grid), bin_lo, bin_hi)) * grid
    return n * delta_f + side * folded, n, folded


def _front_end(
    x: SampledWaveform, cfg: ScenarioConfig, dac_seed: int, post_gain: float = 1.0
) -> SampledWaveform:
    """Shared transmit chain: DAC with the analog roll-off, drive, modulator.

    The chain runs in float32, the one place a run picks single precision:
    its rounding sits about 130 dB below full scale, far under the 14-bit
    converter's 86 dB floor, and at the DAC rate it halves the memory
    traffic. Every stage keeps its input's dtype, and the beat returns
    to float64 at the sub-band rate.
    """
    imp = cfg.impairments
    y = dac_model(
        SampledWaveform(x.samples.astype(np.float32), x.rate),
        cfg.dac,
        dac_seed,
        quantize=imp.dac_quantization,
        clip=imp.dac_clip,
        electrical_rolloff_db=cfg.run.electrical_rolloff_db,
    )
    # drive conditioner: filters may overshoot a little past full scale
    v = np.clip(y.samples * post_gain, -1.0, 1.0)
    return mzm_field(SampledWaveform(v, y.rate), cfg.link.drive_scale)


def _capture_subband(
    mu: SampledWaveform,
    n: int,
    cfg: ScenarioConfig,
    combs: ScenarioCombs,
    beat_seed: int,
    adc_seed: int,
) -> SubbandCapture:
    imp = cfg.impairments
    current = subband_beat(
        mu,
        n,
        combs,
        cfg.link,
        beat_seed,
        out_rate=MIN_OVERSAMPLING * cfg.adc.rate,
        shot=imp.shot,
        tia_saturation=imp.tia_saturation,
    )
    return adc_capture(current, n, cfg.adc, adc_seed, quantize=imp.adc_quantization)


# ---------------------------------------------------------------------------
# sine sweep


def _sweep_point(args: tuple[ScenarioConfig, int, float]) -> tuple[TaskRecord, str]:
    """One sweep point: its task record and its CSV row ("" if it failed)."""
    cfg, index, f_request = args
    t0 = time.perf_counter()
    seeds = _task_seeds(cfg.run.master_seed, "sweep", index, 3)
    combs = build_combs(cfg)
    f_actual, n, f_folded = snap_sweep_frequency(f_request, cfg, combs)
    label = _sweep_label(f_request, f_actual, n)
    try:
        x = sine_waveform(f_actual, 1.0, cfg.sweep.duration, cfg.dac.rate)
        gain = db_to_amplitude_ratio(-cfg.link.sine_backoff_db)
        mu = _front_end(x, cfg, seeds[0], gain)
        del x  # free the float64 tone before the beat's full-length FFT
        cap = _capture_subband(mu, n, cfg, combs, seeds[1], seeds[2])
        report = sine_metrics(
            cap,
            f_folded,
            analysis_rate=ANALYSIS_RATE,
            n_fft=cfg.metrics.n_fft,
            n_avg=cfg.metrics.n_avg,
            window=_window_name(cfg),
            include_notch=cfg.metrics.include_notch_band,
        )
    except Exception as exc:
        return _task(index, label, seeds[0], t0, exc), ""
    row = (
        f"{f_request / 1e9:.4f},{report.sfdr_db:.6f},"
        f"{report.sinad_db:.6f},{report.enob_bits:.6f}\n"
    )
    return _task(index, label, seeds[0], t0), row


def _sweep_label(f_request: float, f_actual: float, n: int) -> str:
    return f"freq_ghz={f_request / 1e9:.6f} actual_hz={f_actual!r} subband={n}"


def _sweep_crashed(args, t0: float, exc: Exception) -> tuple[TaskRecord, str]:
    """``_sweep_point``'s result for a point whose worker process died."""
    cfg, index, f_request = args
    f_actual, n, _ = snap_sweep_frequency(f_request, cfg, build_combs(cfg))
    seed = _task_seeds(cfg.run.master_seed, "sweep", index, 3)[0]
    return _task(index, _sweep_label(f_request, f_actual, n), seed, t0, exc), ""


def _task(
    index: int, label: str, seed: int, t0: float, exc: Exception | None = None
) -> TaskRecord:
    """Manifest record of a task started at ``t0``; failed if ``exc`` is given."""
    elapsed_s = time.perf_counter() - t0
    if exc is None:
        return TaskRecord(index, label, seed, elapsed_s, "ok")
    return TaskRecord(index, label, seed, elapsed_s, "failed", _failure_detail(exc))


def _failure_detail(exc: Exception) -> str:
    """Non-empty one-line manifest reason for a failed task.

    Errors from outside the package are not expected, so their reason
    also names their type and the line that raised them; their message
    alone (numpy's "Singular matrix") rarely says enough.
    """
    text = " ".join(str(exc).split())
    if isinstance(exc, CombAdcError) and text:
        return text
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"[{os.path.basename(frame.filename)}:{frame.lineno}]"
    if text:
        return f"{type(exc).__name__}: {text} {where}"
    return f"{type(exc).__name__} {where}"


def _run_tasks(worker, arg_list, jobs: int, crashed):
    """``worker`` of each task in ``arg_list``, in list order.

    A worker process that dies (an OOM kill, a segfault) breaks the pool;
    each task left unfinished then runs alone in a fresh pool, to the same
    bytes since its seeds come from its index. A task that breaks its own
    pool too gets ``crashed(args, t0, exc)`` as its result.
    """
    if jobs <= 1 or len(arg_list) <= 1:
        return [worker(a) for a in arg_list]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(worker, a) for a in arg_list]
        results = [None if f.exception() else f.result() for f in futures]
    for i, a in enumerate(arg_list):
        if results[i] is None:
            t0 = time.perf_counter()
            with ProcessPoolExecutor(max_workers=1) as pool:
                try:
                    results[i] = pool.submit(worker, a).result()
                except BrokenProcessPool:
                    exc = CombAdcError("worker process exited abruptly")
                    results[i] = crashed(a, t0, exc)
    return results


def run_sweep(cfg: ScenarioConfig, out_dir: str, jobs: int = 1) -> RunManifest:
    """Single-tone sweep: one CSV row per requested frequency."""
    validate_scenario(cfg)
    if cfg.run.source == "scm":
        raise ConfigError("source: config selects the channelized source, not sine")
    os.makedirs(out_dir, exist_ok=True)

    freqs = cfg.sweep.frequencies()
    args = [(cfg, i, fr) for i, fr in enumerate(freqs)]
    results = _run_tasks(_sweep_point, args, jobs, _sweep_crashed)

    manifest = RunManifest(
        subcommand="sweep-sine",
        config_text=dump_config(cfg),
        tasks=[record for record, _ in results],
    )
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write("freq_ghz,sfdr_db,sinad_db,enob_bits\n")
        fh.writelines(row for _, row in results)
    manifest.artifacts["sweep.csv"] = _sha256(csv_path)
    _write_manifest(manifest, out_dir)
    return manifest


# ---------------------------------------------------------------------------
# channelized run


def _scm_symbols(cfg: ScenarioConfig) -> dict[int, np.ndarray]:
    """Symbol streams for every channel in the plan, muted or not.

    Generating the full plan keeps channel k's symbols identical whatever
    subset is active, so mute experiments change nothing but the sum.
    """
    n_sym = cfg.scm.symbols_per_burst
    return {
        ch: gen_pam4_symbols(
            n_sym,
            _task_seeds(cfg.run.master_seed, "scm-symbols", ch, 1)[0],
            cfg.scm.levels,
        )
        for ch in range(1, cfg.scm.n_channels + 1)
    }


def _scm_mu(cfg: ScenarioConfig, symbols: dict[int, np.ndarray]) -> SampledWaveform:
    """Transmit-side field factor for the burst, channel-independent.

    The drive level is calibrated once against the full channel plan;
    muting channels removes their power from the composite instead of
    re-normalizing, the way a transmitter with fixed per-channel gain
    behaves.
    """
    full_plan = dataclasses.replace(cfg.scm, active_channels=None)
    reference = scm_waveform(full_plan, symbols, cfg.dac.rate)
    level = cfg.scm.drive_rms / rms(reference.samples)
    if cfg.scm.active_set() == full_plan.active_set():
        burst = reference
    else:
        burst = scm_waveform(cfg.scm, symbols, cfg.dac.rate)
    x = SampledWaveform(burst.samples * level, burst.rate)
    dac_seed = _task_seeds(cfg.run.master_seed, "scm-dac", 0, 1)[0]
    return _front_end(x, cfg, dac_seed)


def _spectrum_name(channel: int) -> str:
    return f"spectrum_ch{channel}.csv"


def _scm_channel(
    args: tuple[ScenarioConfig, int, int, SampledWaveform, np.ndarray | None, str],
) -> tuple[TaskRecord, float | None]:
    """One channel: its task record and its SNR (None if failed or not asked).

    The channel is captured and its spectrum written. Given the channel's
    transmitted symbols it is demodulated first, and a channel whose
    demodulation fails writes no spectrum; without them (a spectrum run)
    the equalizer never runs.
    """
    cfg, index, channel, mu, tx, out_dir = args
    t0 = time.perf_counter()
    seeds = _task_seeds(cfg.run.master_seed, "scm", channel, 2)
    try:
        combs = build_combs(cfg)
        cap = _capture_subband(mu, channel, cfg, combs, seeds[0], seeds[1])
        snr_db = None
        if tx is not None:
            snr_db = demod_pam4(cap, build_demod(cfg, channel), tx).snr_db

        wave = cap.to_waveform()
        n_fft = 1 << int(np.log2(wave.n))
        spec = periodogram(wave, n_fft=n_fft, n_avg=wave.n // n_fft)
        spectrum_to_csv(spec, os.path.join(out_dir, _spectrum_name(channel)))
    except Exception as exc:
        return _scm_failed(args, t0, exc)
    return _task(index, f"channel={channel}", seeds[0], t0), snr_db


def _scm_failed(args, t0: float, exc: Exception) -> tuple[TaskRecord, None]:
    """``_scm_channel``'s result for a channel that failed or whose worker died."""
    cfg, index, channel = args[:3]
    seed = _task_seeds(cfg.run.master_seed, "scm", channel, 2)[0]
    return _task(index, f"channel={channel}", seed, t0, exc), None


def _scm_results(
    cfg: ScenarioConfig,
    channels: list[int],
    out_dir: str,
    jobs: int,
    demodulate: bool,
) -> list[tuple[TaskRecord, float | None]]:
    """Capture ``channels`` of one transmit burst, built once per run.

    Every channel task gets the same field factor and, when
    ``demodulate``, its own symbols; if the burst itself cannot be built,
    each channel records that failure.
    """
    t0 = time.perf_counter()
    try:
        symbols = _scm_symbols(cfg)
        mu = _scm_mu(cfg, symbols)
    except Exception as exc:
        return [_scm_failed((cfg, i, ch), t0, exc) for i, ch in enumerate(channels)]
    args = [
        (cfg, i, ch, mu, symbols[ch] if demodulate else None, out_dir)
        for i, ch in enumerate(channels)
    ]
    return _run_tasks(_scm_channel, args, jobs, _scm_failed)


def run_scm(
    cfg: ScenarioConfig,
    out_dir: str,
    jobs: int = 1,
    channels: list[int] | None = None,
) -> RunManifest:
    """Channelized burst run: demodulate every active channel.

    ``channels`` narrows which sub-bands are demodulated; every active
    channel still transmits, so a narrowed run sees the same interference
    as the full one.
    """
    validate_scenario(cfg)
    if cfg.run.source == "sweep":
        raise ConfigError("source: config selects the sine source, not channels")
    os.makedirs(out_dir, exist_ok=True)

    active = sorted(cfg.scm.active_set())
    if channels is None:
        channels = active
    else:
        missing = sorted(set(channels) - set(active))
        if missing:
            raise ConfigError(f"channel-set: channel {missing[0]} is not active")
        channels = sorted(set(channels))
    results = _scm_results(cfg, channels, out_dir, jobs, demodulate=True)

    manifest = RunManifest(
        subcommand="run-scm",
        config_text=dump_config(cfg),
        tasks=[record for record, _ in results],
    )
    csv_path = os.path.join(out_dir, "scm_snr.csv")
    with open(csv_path, "w") as fh:
        fh.write("channel,snr_db\n")
        for channel, (_, snr_db) in zip(channels, results):
            if snr_db is not None:
                fh.write(f"{channel},{snr_db:.6f}\n")
                name = _spectrum_name(channel)
                manifest.artifacts[name] = _sha256(os.path.join(out_dir, name))
    manifest.artifacts["scm_snr.csv"] = _sha256(csv_path)
    _write_manifest(manifest, out_dir)
    return manifest


def run_spectrum(cfg: ScenarioConfig, out_dir: str, channel: int) -> RunManifest:
    """Capture one sub-band of the channelized burst and dump its spectrum.

    The channel is not demodulated, so an equalizer that would diverge on
    it does not fail the run.
    """
    validate_scenario(cfg)
    if cfg.run.source == "sweep":
        raise ConfigError("source: config selects the sine source, not channels")
    if channel not in cfg.scm.active_set():
        raise ConfigError(f"channel-set: channel {channel} is not active")
    os.makedirs(out_dir, exist_ok=True)

    ((record, _),) = _scm_results(cfg, [channel], out_dir, jobs=1, demodulate=False)
    manifest = RunManifest(
        subcommand="spectrum", config_text=dump_config(cfg), tasks=[record]
    )
    if record.status == "failed":
        _write_manifest(manifest, out_dir)
        raise CombAdcError(record.detail)
    name = _spectrum_name(channel)
    manifest.artifacts[name] = _sha256(os.path.join(out_dir, name))
    _write_manifest(manifest, out_dir)
    return manifest


def _write_manifest(manifest: RunManifest, out_dir: str) -> None:
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(manifest.to_text())
