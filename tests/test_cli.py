import os

import pytest

from combadc.cli import main


def test_validate_defaults(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out == "ok: 24 tone pairs, 10 of 10 channels active, sweep 0.50-10.50 GHz in 41 points\n"


def test_validate_reads_config_file(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_text("scm.active_channels = 1,4\nsweep.stop = 8ghz\n")
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 of 10 channels active" in out
    assert "0.50-8.00 GHz in 31 points" in out


def test_validate_reports_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("adc.bits = 30\n")
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: bits-range")


def test_missing_config_file_is_exit_1(capsys):
    assert main(["validate", "--config", "/nonexistent/path.cfg"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["sweep-sine", "--bogus"])
    assert exc.value.code == 1


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frობble"])
    assert exc.value.code == 1


def test_run_scm_single_channel_artifacts(tmp_path, capsys):
    out = str(tmp_path / "scm")
    assert main(["run-scm", "--out", out, "--channel", "4", "--seed", "7"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        f"wrote {out}/scm_snr.csv",
        f"wrote {out}/spectrum_ch4.csv",
        f"wrote {out}/manifest.txt",
    ]
    with open(os.path.join(out, "scm_snr.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "channel,snr_db"
    assert len(lines) == 2 and lines[1].startswith("4,")
    with open(os.path.join(out, "manifest.txt")) as fh:
        manifest = fh.read()
    assert "run.master_seed = 7" in manifest


def test_run_scm_inactive_channel_exit_1(tmp_path, capsys):
    assert main(["run-scm", "--out", str(tmp_path), "--channel", "11"]) == 1
    assert "channel-set" in capsys.readouterr().err


def test_spectrum_default_channel(tmp_path, capsys):
    out = str(tmp_path / "spec")
    assert main(["spectrum", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "spectrum_ch1.csv"))
    assert os.path.exists(os.path.join(out, "manifest.txt"))


def test_seed_flag_changes_artifacts(tmp_path):
    a, b, c = (str(tmp_path / d) for d in "abc")
    assert main(["spectrum", "--out", a, "--seed", "1"]) == 0
    assert main(["spectrum", "--out", b, "--seed", "2"]) == 0
    assert main(["spectrum", "--out", c, "--seed", "1"]) == 0

    def digest(d):
        with open(os.path.join(d, "spectrum_ch1.csv"), "rb") as fh:
            return fh.read()

    assert digest(a) == digest(c)
    assert digest(a) != digest(b)


def test_validate_rejects_runaway_sweep_grid(tmp_path, capsys):
    path = tmp_path / "tiny_step.cfg"
    path.write_text("sweep.step = 1e-30ghz\n")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: sweep-grid")


def test_spectrum_channel_defaults_to_one(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["spectrum", "--help"])
    assert stop.value.code == 0
    assert "sub-band to capture (default: 1)" in " ".join(capsys.readouterr().out.split())
