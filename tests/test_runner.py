import os

import pytest

from combadc import runner
from combadc.errors import CombAdcError, ConfigError, EqualizerError, SignalError
from combadc.runner import run_scm, run_spectrum, run_sweep, snap_sweep_frequency
from combadc.scenario import build_combs, load_config

GRID = 1e9 / 16384

# short capture keeps each sweep point cheap without touching the physics
FAST_SWEEP = """
sweep.start = 3ghz
sweep.stop = 5ghz
sweep.step = 1ghz
sweep.duration = 20us
metrics.n_avg = 1
"""


def _read(path):
    with open(path) as fh:
        return fh.read()


# ------------------------------------------------------------ tone placement


def test_snap_keeps_symmetric_pair_on_one_bin():
    cfg = load_config("")
    combs = build_combs(cfg)
    hi = snap_sweep_frequency(5.25e9, cfg, combs)
    lo = snap_sweep_frequency(4.75e9, cfg, combs)
    assert hi[1] == lo[1] == 5
    assert hi[2] == lo[2] == pytest.approx(250e6)
    assert hi[2] / GRID == pytest.approx(round(hi[2] / GRID))
    assert hi[0] == pytest.approx(5e9 + hi[2])
    assert lo[0] == pytest.approx(5e9 - lo[2])


def test_snap_clamps_into_the_clean_window():
    cfg = load_config("")
    combs = build_combs(cfg)
    # mid-band tone folds to DC, pushed up to the window floor
    f, n, folded = snap_sweep_frequency(10.0e9, cfg, combs)
    assert n == 10
    assert 169e6 <= folded <= 171e6
    assert folded / GRID == pytest.approx(round(folded / GRID))
    assert f == pytest.approx(10e9 + folded)
    # band-edge request folds past the detector edge, pulled back down
    f2, n2, folded2 = snap_sweep_frequency(0.5e9, cfg, combs)
    assert n2 == 1
    assert 454e6 <= folded2 <= 455e6
    assert f2 == pytest.approx(1e9 - folded2)


def test_snap_off_keeps_exact_offsets():
    cfg = load_config("sweep.snap = off")
    combs = build_combs(cfg)
    f, n, folded = snap_sweep_frequency(5.23e9, cfg, combs)
    assert (f, n) == (5.23e9, 5)
    assert folded == pytest.approx(230e6)


@pytest.mark.parametrize("snap", ["on", "off"])
def test_coarsest_admitted_analysis_grid_scores(tmp_path, snap):
    # 16 is the smallest n_fft the analysis-grid rule lets through
    cfg = load_config(
        f"""
        sweep.start = 5.5ghz
        sweep.stop = 5.5ghz
        sweep.duration = 20us
        sweep.snap = {snap}
        metrics.n_fft = 16
        metrics.n_avg = 1
        """
    )
    man = run_sweep(cfg, str(tmp_path), jobs=1)
    assert [t.status for t in man.tasks] == ["ok"]


# ----------------------------------------------------------------- artifacts


def test_sweep_csv_and_manifest(tmp_path):
    cfg = load_config(FAST_SWEEP)
    man = run_sweep(cfg, str(tmp_path), jobs=1)
    lines = _read(tmp_path / "sweep.csv").splitlines()
    assert lines[0] == "freq_ghz,sfdr_db,sinad_db,enob_bits"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["3.0000", "4.0000", "5.0000"]
    for ln in lines[1:]:
        sfdr, sinad, enob = map(float, ln.split(",")[1:])
        assert sfdr > sinad > 0 and enob == pytest.approx((sinad - 1.76) / 6.02)
    assert [t.status for t in man.tasks] == ["ok"] * 3
    assert set(man.artifacts) == {"sweep.csv"}

    text = _read(tmp_path / "manifest.txt")
    assert text.startswith("# combadc run manifest\n# subcommand = sweep-sine\n")
    assert f"# artifact sweep.csv sha256={man.artifacts['sweep.csv']}" in text


def test_sweep_deterministic_across_jobs(tmp_path):
    cfg = load_config(FAST_SWEEP)
    a = run_sweep(cfg, str(tmp_path / "serial"), jobs=1)
    b = run_sweep(cfg, str(tmp_path / "pool"), jobs=3)
    assert _read(tmp_path / "serial/sweep.csv") == _read(tmp_path / "pool/sweep.csv")
    assert a.artifacts == b.artifacts


def test_manifest_reruns_bit_identically(tmp_path):
    cfg = load_config(FAST_SWEEP)
    first = run_sweep(cfg, str(tmp_path / "one"), jobs=2)
    again = run_sweep(
        load_config(_read(tmp_path / "one/manifest.txt")), str(tmp_path / "two"), jobs=1
    )
    assert again.artifacts == first.artifacts


def test_scm_run_artifacts_and_determinism(tmp_path):
    cfg = load_config("")
    a = run_scm(cfg, str(tmp_path / "serial"), jobs=1, channels=[1, 3])
    b = run_scm(cfg, str(tmp_path / "pool"), jobs=2, channels=[1, 3])
    assert _read(tmp_path / "serial/scm_snr.csv") == _read(tmp_path / "pool/scm_snr.csv")
    assert a.artifacts == b.artifacts

    lines = _read(tmp_path / "serial/scm_snr.csv").splitlines()
    assert lines[0] == "channel,snr_db"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "3"]
    for ln in lines[1:]:
        assert 10.0 < float(ln.split(",")[1]) < 30.0
    assert set(a.artifacts) == {"scm_snr.csv", "spectrum_ch1.csv", "spectrum_ch3.csv"}


def test_spectrum_artifact(tmp_path):
    cfg = load_config("")
    man = run_spectrum(cfg, str(tmp_path), channel=5)
    assert set(man.artifacts) == {"spectrum_ch5.csv"}
    lines = _read(tmp_path / "spectrum_ch5.csv").splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "freq_hz,power_db"
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    freqs = [float(ln.split(",")[0]) for ln in rows]
    assert len(freqs) > 1000
    assert freqs == sorted(freqs) and freqs[0] == 0.0


# ------------------------------------------------------------- failure paths


def test_source_pinning():
    with pytest.raises(ConfigError, match="source"):
        run_sweep(load_config("run.source = scm"), "/tmp/unused")
    with pytest.raises(ConfigError, match="source"):
        run_scm(load_config("run.source = sweep"), "/tmp/unused")
    with pytest.raises(ConfigError, match="source"):
        run_spectrum(load_config("run.source = sweep"), "/tmp/unused", 1)


def test_channel_narrowing_validated(tmp_path):
    cfg = load_config("")
    with pytest.raises(ConfigError, match="channel-set"):
        run_scm(cfg, str(tmp_path), channels=[11])
    muted = load_config("scm.active_channels = 1")
    with pytest.raises(ConfigError, match="channel-set"):
        run_scm(muted, str(tmp_path), channels=[2])
    with pytest.raises(ConfigError, match="channel-set"):
        run_spectrum(muted, str(tmp_path), channel=2)


def test_failed_task_is_recorded_not_fatal(tmp_path, monkeypatch):
    import combadc.runner as runner_mod

    real = runner_mod.demod_pam4

    def sabotaged(cap, dcfg, tx):
        if dcfg.channel_index == 3:
            raise EqualizerError("forced failure for the test")
        return real(cap, dcfg, tx)

    monkeypatch.setattr(runner_mod, "demod_pam4", sabotaged)
    man = run_scm(load_config(""), str(tmp_path), jobs=1, channels=[1, 3])
    status = {t.label: t.status for t in man.tasks}
    assert status == {"channel=1": "ok", "channel=3": "failed"}
    failed = next(t for t in man.tasks if t.status == "failed")
    assert "forced failure" in failed.detail
    lines = _read(tmp_path / "scm_snr.csv").splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1"]
    assert "status=failed detail=forced failure" in _read(tmp_path / "manifest.txt")


def test_spectrum_failure_still_writes_manifest(tmp_path, monkeypatch):
    import combadc.runner as runner_mod

    def always_fails(x, n, cfg, seed, **kwargs):
        raise SignalError("forced failure for the test")

    monkeypatch.setattr(runner_mod, "adc_capture", always_fails)
    with pytest.raises(CombAdcError, match="forced failure"):
        run_spectrum(load_config(""), str(tmp_path), channel=5)
    assert "status=failed" in _read(tmp_path / "manifest.txt")


def test_spectrum_run_does_not_demodulate(tmp_path, monkeypatch):
    import combadc.runner as runner_mod

    cfg = load_config("")
    run_scm(cfg, str(tmp_path / "scm"), channels=[5])

    def diverges(cap, dcfg, tx):
        raise EqualizerError("LMS diverged")

    monkeypatch.setattr(runner_mod, "demod_pam4", diverges)
    man = run_spectrum(cfg, str(tmp_path / "spectrum"), channel=5)
    assert [t.status for t in man.tasks] == ["ok"]
    assert _read(tmp_path / "spectrum/spectrum_ch5.csv") == _read(
        tmp_path / "scm/spectrum_ch5.csv"
    )


def test_unexpected_sweep_error_is_recorded_not_fatal(tmp_path, monkeypatch):
    import numpy as np

    import combadc.runner as runner_mod

    real = runner_mod.sine_metrics

    def singular(cap, f_folded, **kwargs):
        if cap.subband_index == 4:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(cap, f_folded, **kwargs)

    monkeypatch.setattr(runner_mod, "sine_metrics", singular)
    man = run_sweep(load_config(FAST_SWEEP), str(tmp_path), jobs=1)
    assert [t.status for t in man.tasks] == ["ok", "failed", "ok"]
    detail = man.tasks[1].detail
    assert detail.startswith("LinAlgError: Singular matrix [test_runner.py:")
    lines = _read(tmp_path / "sweep.csv").splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["3.0000", "5.0000"]
    text = _read(tmp_path / "manifest.txt")
    assert "status=failed detail=LinAlgError: Singular matrix" in text
    # the manifest still parses as the config it ran
    assert load_config(text) == load_config(FAST_SWEEP)


def test_unexpected_channel_error_is_recorded_not_fatal(tmp_path, monkeypatch):
    import combadc.runner as runner_mod

    real = runner_mod.demod_pam4

    def broken(cap, dcfg, tx):
        if dcfg.channel_index == 3:
            raise ZeroDivisionError()
        return real(cap, dcfg, tx)

    monkeypatch.setattr(runner_mod, "demod_pam4", broken)
    man = run_scm(load_config(""), str(tmp_path), jobs=1, channels=[1, 3])
    assert {t.label: t.status for t in man.tasks} == {
        "channel=1": "ok",
        "channel=3": "failed",
    }
    assert man.tasks[1].detail.startswith("ZeroDivisionError [test_runner.py:")
    lines = _read(tmp_path / "scm_snr.csv").splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1"]


_REAL_SWEEP_POINT = runner._sweep_point
_REAL_SCM_CHANNEL = runner._scm_channel


def _sweep_point_dies_at_one(args):
    """A sweep point whose worker process dies, as an OOM kill would."""
    if args[1] == 1:
        os._exit(3)
    return _REAL_SWEEP_POINT(args)


def _scm_channel_dies_at_one(args):
    if args[1] == 1:
        os._exit(3)
    return _REAL_SCM_CHANNEL(args)


def _three_tasks(kind, out_dir, jobs):
    cfg = load_config(FAST_SWEEP + SHORT_BURST)
    if kind == "sweep":
        return run_sweep(cfg, str(out_dir), jobs), "sweep.csv"
    return run_scm(cfg, str(out_dir), jobs, channels=[1, 3, 4]), "scm_snr.csv"


@pytest.mark.parametrize(
    "kind,name,worker",
    [
        ("sweep", "_sweep_point", _sweep_point_dies_at_one),
        ("scm", "_scm_channel", _scm_channel_dies_at_one),
    ],
    ids=["sweep", "scm"],
)
def test_dead_worker_is_a_failed_task(kind, name, worker, tmp_path, monkeypatch):
    clean, csv = _three_tasks(kind, tmp_path / "clean", jobs=1)
    # patched before the pool forks, so its workers run the dying task
    monkeypatch.setattr(runner, name, worker)
    man, _ = _three_tasks(kind, tmp_path / "dead", jobs=2)

    assert [t.status for t in man.tasks] == ["ok", "failed", "ok"]
    assert man.tasks[1].detail == "worker process exited abruptly"
    assert "status=failed detail=worker process exited abruptly" in _read(
        tmp_path / "dead/manifest.txt"
    )
    # the failed task keeps its label and seed, and the others, whichever
    # of them the broken pool left unfinished, write the same bytes
    for got, want in zip(man.tasks, clean.tasks):
        assert (got.index, got.label, got.seed) == (want.index, want.label, want.seed)
    rows = _read(tmp_path / "clean" / csv).splitlines()
    assert _read(tmp_path / "dead" / csv).splitlines() == rows[:2] + rows[3:]


# ------------------------------------------------------------- burst sharing

SHORT_BURST = "scm.duration = 0.512us\n"


def _count_bursts(monkeypatch):
    import combadc.runner as runner_mod

    calls = []
    real = runner_mod.scm_waveform

    def counted(*args, **kwargs):
        calls.append(args[0].active_set())
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "scm_waveform", counted)
    return calls


def test_burst_is_built_once_per_run(tmp_path, monkeypatch):
    calls = _count_bursts(monkeypatch)
    cfg = load_config(SHORT_BURST)
    run_scm(cfg, str(tmp_path / "full"), jobs=1, channels=[1, 2, 3])
    assert len(calls) == 1

    # every channel still sees the full burst, so a narrowed run writes
    # the same row for the channel it keeps
    run_scm(cfg, str(tmp_path / "narrow"), jobs=1, channels=[2])
    assert len(calls) == 2
    full = _read(tmp_path / "full/scm_snr.csv").splitlines()
    narrow = _read(tmp_path / "narrow/scm_snr.csv").splitlines()
    assert narrow == [full[0], full[2]] and full[2].startswith("2,")
    assert _read(tmp_path / "full/spectrum_ch2.csv") == _read(
        tmp_path / "narrow/spectrum_ch2.csv"
    )


def test_all_channels_listed_is_the_full_plan(tmp_path, monkeypatch):
    calls = _count_bursts(monkeypatch)
    listed = load_config(SHORT_BURST + "scm.active_channels = 10,9,8,7,6,5,4,3,2,1")
    run_scm(listed, str(tmp_path / "listed"), jobs=1, channels=[4])
    assert calls == [tuple(range(1, 11))]
    run_scm(load_config(SHORT_BURST), str(tmp_path / "all"), jobs=1, channels=[4])
    assert _read(tmp_path / "listed/scm_snr.csv") == _read(tmp_path / "all/scm_snr.csv")

    # a muted plan also builds the full-plan reference for the drive level
    calls.clear()
    run_scm(load_config(SHORT_BURST + "scm.active_channels = 4"), str(tmp_path / "m"))
    assert calls == [tuple(range(1, 11)), (4,)]


def test_burst_failure_fails_every_channel_task(tmp_path, monkeypatch):
    import combadc.runner as runner_mod

    def broken(*args, **kwargs):
        raise MemoryError("burst too large")

    monkeypatch.setattr(runner_mod, "scm_waveform", broken)
    man = run_scm(load_config(SHORT_BURST), str(tmp_path), jobs=1, channels=[1, 3])
    assert [(t.label, t.status) for t in man.tasks] == [
        ("channel=1", "failed"),
        ("channel=3", "failed"),
    ]
    assert all(t.detail.startswith("MemoryError: burst too large [") for t in man.tasks)
    assert _read(tmp_path / "scm_snr.csv") == "channel,snr_db\n"
    with pytest.raises(CombAdcError, match="burst too large"):
        run_spectrum(load_config(SHORT_BURST), str(tmp_path / "sp"), channel=2)
    assert "status=failed" in _read(tmp_path / "sp/manifest.txt")
