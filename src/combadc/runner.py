"""Scenario orchestration: sine sweeps, multi-channel runs, artifacts.

Every run decomposes into independent tasks (one per sweep frequency or
per channel). Task seeds derive from (master_seed, task kind, index)
alone, so outputs are byte-identical however the tasks are scheduled;
``--jobs`` only changes wall time. A channelized run builds its transmit
burst once, as the physical system sends one burst to all sub-band
detectors. Each run takes its record's beat spectrum (the FFT of
mu + j mu^2) once, and each sub-band reads its bins from it; a sweep
point is a one-channel burst. The parent builds each task's label, seed
and arguments once; a worker returns only its CSV row or SNR, and
``_run_tasks`` times every task and writes every manifest record. A
failed task is recorded with its reason and the run carries on, whether
the task raised any error or its worker process died. ``spectrum`` is
the channelized run for one channel, without demodulation.

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
from .comb import BeatSpectrum, ScenarioCombs, beat_spectrum, mzm_field, subband_beat
from .demod import demod_pam4
from .errors import CombAdcError, ConfigError
from .frontend import dac_model, gen_pam4_symbols, scm_waveform, sine_waveform
from .metrics import FOLD_PER_MILLE, fold_bins, sine_metrics
from .scenario import ScenarioConfig, build_demod, dump_config, validate_scenario
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


def _finish_run(
    cfg: ScenarioConfig, out_dir: str, subcommand: str, tasks: list, names: list[str]
) -> RunManifest:
    """Hash the artifacts ``names`` in ``out_dir`` and write its manifest.txt."""
    manifest = RunManifest(subcommand, dump_config(cfg), tasks=tasks)
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            manifest.artifacts[name] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(manifest.to_text())
    return manifest


def _task_seeds(master_seed: int, kind: str, index: int, count: int) -> list[int]:
    state = derive_seed_sequence(master_seed, kind, index).generate_state(count)
    return [int(word) for word in state]


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
    fold_lo, fold_hi = (k * delta_f / 1000 for k in FOLD_PER_MILLE)
    folded = float(np.clip(abs(offset), fold_lo, fold_hi))
    if cfg.metrics.snap:
        # clamp on the grid-aligned window so rounding cannot push the
        # tone back past either edge
        grid, bin_lo, bin_hi = fold_bins(cfg.metrics.n_fft, delta_f)
        folded = int(np.clip(round(folded / grid), bin_lo, bin_hi)) * grid
    return n * delta_f + side * folded, n, folded


def _front_end(
    x: SampledWaveform, cfg: ScenarioConfig, dac_seed: int, post_gain: float = 1.0
) -> SampledWaveform:
    """Shared transmit chain: DAC with the analog roll-off, drive, modulator.

    The chain runs in the precision of ``x``, float32 for the tone and the
    burst the runner builds: its rounding sits about 130 dB below full
    scale, far under the 14-bit converter's 86 dB floor, and at the DAC
    rate it halves the memory traffic. Every stage keeps its input's
    dtype as far as the ADC's sampler, which returns to float64.
    """
    y = dac_model(x, cfg.dac, dac_seed)
    # drive conditioner, in the DAC's output record: filters may
    # overshoot a little past full scale
    v = y.samples
    v *= post_gain
    np.clip(v, -1.0, 1.0, out=v)
    return mzm_field(SampledWaveform(v, y.rate), cfg.link.drive_scale)


def _capture_subband(
    spectrum: BeatSpectrum,
    n: int,
    cfg: ScenarioConfig,
    combs: ScenarioCombs,
    beat_seed: int,
    adc_seed: int,
) -> SubbandCapture:
    """Sub-band ``n`` of a record's beat spectrum through the beat and the ADC."""
    out_rate = MIN_OVERSAMPLING * cfg.adc.rate
    current = subband_beat(spectrum, n, combs, cfg.link, beat_seed, out_rate=out_rate)
    return adc_capture(current, cfg.adc, adc_seed)


# ---------------------------------------------------------------------------
# task protocol


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


def _attempt(work, args: tuple):
    """``work(*args)`` as (result, elapsed_s, failure detail); the detail
    is "" on success, and the result None on failure."""
    t0 = time.perf_counter()
    try:
        result, detail = work(*args), ""
    except Exception as exc:
        result, detail = None, _failure_detail(exc)
    return result, time.perf_counter() - t0, detail


def _settle(tasks: list[tuple], outcomes: list[tuple]) -> tuple[list[TaskRecord], list]:
    """Manifest records and results of ``tasks`` from their outcomes."""
    records = [
        TaskRecord(i, label, seed, elapsed_s, "failed" if detail else "ok", detail)
        for i, ((label, seed, _), (_, elapsed_s, detail)) in enumerate(
            zip(tasks, outcomes)
        )
    ]
    return records, [result for result, _, _ in outcomes]


def _run_tasks(work, tasks: list[tuple], jobs: int) -> tuple[list[TaskRecord], list]:
    """Run ``work(*args)`` for each ``(label, seed, args)`` task, in list order.

    Returns each task's manifest record and its result (None if it
    failed). A worker process that dies (an OOM kill, a segfault) breaks
    the pool; each task left unfinished then runs alone in a fresh pool,
    to the same bytes since its seeds travel in its arguments. A task that
    breaks its own pool too is recorded as failed.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return _settle(tasks, [_attempt(work, args) for _, _, args in tasks])
    # the pool forks all its workers at the first submit: no more than
    # there are tasks, nor than the CPUs this process may run on (but two,
    # so that jobs > 1 still runs in workers)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks), max(2, cpus))) as pool:
        futures = [pool.submit(_attempt, work, args) for _, _, args in tasks]
        outcomes = [None if f.exception() else f.result() for f in futures]
    for i, (_, _, args) in enumerate(tasks):
        if outcomes[i] is None:
            t0 = time.perf_counter()
            with ProcessPoolExecutor(max_workers=1) as pool:
                try:
                    outcomes[i] = pool.submit(_attempt, work, args).result()
                except BrokenProcessPool:
                    elapsed_s = time.perf_counter() - t0
                    outcomes[i] = None, elapsed_s, "worker process exited abruptly"
    return _settle(tasks, outcomes)


# ---------------------------------------------------------------------------
# sine sweep


def _sweep_point(
    cfg: ScenarioConfig,
    combs: ScenarioCombs,
    f_request: float,
    snapped: tuple[float, int, float],
    seeds: list[int],
) -> str:
    """One sweep point's CSV row."""
    f_actual, n, f_folded = snapped
    x = sine_waveform(f_actual, 1.0, cfg.sweep.duration, cfg.dac.rate)
    gain = db_to_amplitude_ratio(-cfg.link.sine_backoff_db)
    mu = _front_end(x, cfg, seeds[0], gain)
    del x  # free the tone before the beat's full-length FFT
    spectrum = beat_spectrum(mu)
    del mu  # the beat reads only the spectrum
    cap = _capture_subband(spectrum, n, cfg, combs, seeds[1], seeds[2])
    report = sine_metrics(cap.to_waveform(), f_folded, cfg.metrics, combs.delta_f)
    return (
        f"{f_request / 1e9:.4f},{report.sfdr_db:.6f},"
        f"{report.sinad_db:.6f},{report.enob_bits:.6f}\n"
    )


def run_sweep(cfg: ScenarioConfig, out_dir: str, jobs: int = 1) -> RunManifest:
    """Single-tone sweep: one CSV row per requested frequency."""
    combs = validate_scenario(cfg)
    os.makedirs(out_dir, exist_ok=True)

    tasks = []
    for i, f_request in enumerate(cfg.sweep.frequencies()):
        snapped = snap_sweep_frequency(f_request, cfg, combs)
        f_actual, n, _ = snapped
        seeds = _task_seeds(cfg.run.master_seed, "sweep", i, 3)
        label = f"freq_ghz={f_request / 1e9:.6f} actual_hz={f_actual!r} subband={n}"
        tasks.append((label, seeds[0], (cfg, combs, f_request, snapped, seeds)))
    records, rows = _run_tasks(_sweep_point, tasks, jobs)

    with open(os.path.join(out_dir, "sweep.csv"), "w") as fh:
        fh.write("freq_ghz,sfdr_db,sinad_db,enob_bits\n")
        fh.writelines(row for row in rows if row is not None)
    return _finish_run(cfg, out_dir, "sweep-sine", records, ["sweep.csv"])


# ---------------------------------------------------------------------------
# channelized run


def _scm_burst(cfg: ScenarioConfig) -> tuple[dict[int, np.ndarray], BeatSpectrum]:
    """Every channel's symbols and the beat spectrum of the burst's
    transmit-side field factor.

    Symbols are drawn for every channel in the plan, muted or not, so
    channel k's symbols are identical whatever subset is active and mute
    experiments change nothing but the sum. The drive level is calibrated
    once against the full channel plan; muting channels removes their
    power from the composite instead of re-normalizing, the way a
    transmitter with fixed per-channel gain behaves.
    """
    symbols = {
        ch: gen_pam4_symbols(
            cfg.scm.symbols_per_burst,
            _task_seeds(cfg.run.master_seed, "scm-symbols", ch, 1)[0],
            cfg.scm.levels,
        )
        for ch in range(1, cfg.scm.n_channels + 1)
    }
    full_plan = dataclasses.replace(cfg.scm, active_channels=None)
    rate, grid = cfg.dac.rate, cfg.combs.delta_f
    reference = scm_waveform(full_plan, symbols, rate, grid, dtype=np.float32)
    level = cfg.scm.drive_rms / rms(reference.samples)
    burst = reference
    if cfg.scm.active_set() != full_plan.active_set():
        burst = scm_waveform(cfg.scm, symbols, rate, grid, dtype=np.float32)
    x = SampledWaveform(burst.samples * level, burst.rate)
    dac_seed = _task_seeds(cfg.run.master_seed, "scm-dac", 0, 1)[0]
    return symbols, beat_spectrum(_front_end(x, cfg, dac_seed))


def _spectrum_name(channel: int) -> str:
    return f"spectrum_ch{channel}.csv"


def _scm_channel(
    cfg: ScenarioConfig,
    combs: ScenarioCombs,
    channel: int,
    seeds: list[int],
    spectrum: BeatSpectrum,
    tx: np.ndarray | None,
    out_dir: str,
) -> float | None:
    """One channel's SNR (None if not asked).

    The channel is captured and its spectrum written. Given the channel's
    transmitted symbols it is demodulated first, and a channel whose
    demodulation fails writes no spectrum; without them (a spectrum run)
    the equalizer never runs.
    """
    cap = _capture_subband(spectrum, channel, cfg, combs, seeds[0], seeds[1])
    wave = cap.to_waveform()
    snr_db = None
    if tx is not None:
        snr_db = demod_pam4(wave, build_demod(cfg), tx)

    spec = periodogram(wave, n_fft=1 << int(np.log2(wave.n)))
    spectrum_to_csv(spec, os.path.join(out_dir, _spectrum_name(channel)))
    return snr_db


def _channel_run(
    cfg: ScenarioConfig,
    out_dir: str,
    channels: list[int] | None,
    jobs: int,
    demodulate: bool,
) -> RunManifest:
    """Capture ``channels`` (every active one if None) of one transmit
    burst, built once per run.

    Every channel task gets the same beat spectrum and, when
    ``demodulate``, its own symbols; if the burst itself cannot be built,
    each channel records that failure.
    """
    combs = validate_scenario(cfg)
    active = cfg.scm.active_set()
    channels = sorted(set(active if channels is None else channels))
    missing = sorted(set(channels) - set(active))
    if missing:
        raise ConfigError(f"channel-set: channel {missing[0]} is not active")
    os.makedirs(out_dir, exist_ok=True)

    seeds = [_task_seeds(cfg.run.master_seed, "scm", ch, 2) for ch in channels]
    burst, elapsed_s, detail = _attempt(_scm_burst, (cfg,))
    symbols, spectrum = burst or ({}, None)  # a failed burst's tasks never run
    tx = symbols if demodulate else {}
    tasks = [
        (f"channel={ch}", s[0], (cfg, combs, ch, s, spectrum, tx.get(ch), out_dir))
        for ch, s in zip(channels, seeds)
    ]
    if detail:
        records, snrs = _settle(tasks, [(None, elapsed_s, detail)] * len(tasks))
    else:
        records, snrs = _run_tasks(_scm_channel, tasks, jobs)

    ok = [ch for ch, t in zip(channels, records) if t.status == "ok"]
    artifacts = [_spectrum_name(ch) for ch in ok]
    if demodulate:
        with open(os.path.join(out_dir, "scm_snr.csv"), "w") as fh:
            fh.write("channel,snr_db\n")
            for ch, snr_db in zip(channels, snrs):
                if snr_db is not None:
                    fh.write(f"{ch},{snr_db:.6f}\n")
        artifacts.append("scm_snr.csv")
    subcommand = "run-scm" if demodulate else "spectrum"
    return _finish_run(cfg, out_dir, subcommand, records, artifacts)


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
    return _channel_run(cfg, out_dir, channels, jobs, demodulate=True)


def run_spectrum(cfg: ScenarioConfig, out_dir: str, channel: int) -> RunManifest:
    """Capture one sub-band of the channelized burst and dump its spectrum.

    The channel is not demodulated, so an equalizer that would diverge on
    it does not fail the run. A failed capture raises, once the manifest
    that records it is written.
    """
    manifest = _channel_run(cfg, out_dir, [channel], 1, demodulate=False)
    (record,) = manifest.tasks
    if record.status == "failed":
        raise CombAdcError(record.detail)
    return manifest
