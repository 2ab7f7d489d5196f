import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combadc.errors import ConfigError
from combadc.scenario import (
    ImpairmentFlags,
    build_combs,
    build_demod,
    dump_config,
    load_config,
    validate_scenario,
)


def test_empty_config_is_the_reference_system():
    cfg = load_config("")
    assert cfg.run.master_seed == 12345
    assert cfg.scm.n_channels == 10
    assert cfg.scm.channel_spacing == 1e9
    assert cfg.scm.baud == 800e6
    assert cfg.scm.drive_rms == 0.48
    assert cfg.dac.bits == 6
    assert cfg.dac.rate == 32e9
    assert cfg.dac.residual_noise_db == -34.0
    assert cfg.combs.f_sig == 26e9
    assert cfg.combs.delta_f == 1e9
    assert cfg.combs.n_tones == 24
    assert cfg.combs.tone_tilt_db == 2.0
    assert cfg.link.thermal_noise_density == 4.4e-11
    assert cfg.link.sine_backoff_db == 13.4
    assert cfg.adc.bits == 14
    assert cfg.adc.rate == 2.4e9
    assert cfg.adc.jitter_rms == 50e-15
    assert cfg.run.electrical_rolloff_db == 3.0
    assert cfg.impairments.shot and cfg.impairments.adc_quantization
    assert cfg.bandwidth == 10e9


def test_unit_suffixes_and_comments():
    cfg = load_config(
        """
        # comment line
        combs.delta_f = 1ghz
        sweep.duration = 70us   # inline comment
        adc.jitter_rms = 50fs
        scm.baud = 800mhz
        link.lo_power_per_tone_dbm = -4dbm
        """
    )
    assert cfg.combs.delta_f == 1e9
    assert cfg.sweep.duration == 70e-6
    assert cfg.adc.jitter_rms == 50e-15
    assert cfg.scm.baud == 800e6
    assert cfg.link.lo_power_per_tone_dbm == -4.0


def test_bool_and_off_values():
    cfg = load_config(
        """
        impairments.adc_quantization = off
        sweep.snap = false
        dac.lpf_cutoff = off
        adc.full_scale = auto
        scm.active_channels = 1,5,10
        """
    )
    assert cfg.impairments.adc_quantization is False
    assert cfg.sweep.snap is False
    assert cfg.dac.lpf_cutoff is None
    assert cfg.adc.full_scale == "auto"
    assert cfg.scm.active_channels == (1, 5, 10)


@pytest.mark.parametrize(
    "text,fragment,lineno",
    [
        ("scm.n_channels", "expected 'section.key = value'", 1),
        ("scm.n_channels =", "missing value", 1),
        ("bogus.key = 1", "unknown key", 1),
        ("adc.bits = 14\nadc.bits = 12", "duplicate key", 2),
        ("sweep.start = 5gz", "unknown unit suffix", 1),
        ("scm.n_channels = 2.5", "expected an integer", 1),
        ("sweep.snap = maybe", "expected on/off", 1),
        ("combs.source = laser", "expected one of flat/cascade", 1),
        ("scm.active_channels = 1,x", "comma list", 1),
    ],
)
def test_syntax_errors_carry_line_numbers(text, fragment, lineno):
    with pytest.raises(ConfigError) as err:
        load_config(text)
    assert fragment in str(err.value)
    assert err.value.line == lineno
    assert f"line {lineno}:" in str(err.value)


@pytest.mark.parametrize(
    "text,rule",
    [
        ("adc.bits = 30", "bits-range"),
        ("dac.bits = 0", "bits-range"),
        ("scm.levels = 3", "pam-order"),
        ("scm.n_channels = 30", "comb-scaling"),
        ("combs.n_tones = 8", "comb-scaling"),
        ("dac.rate = 30ghz", "rate-consistency"),
        ("adc.rate = 9ghz", "rate-consistency"),
        ("scm.duration = 2.0001us", "carrier-grid"),
        ("sweep.stop = 30ghz", "sweep-grid"),
        ("sweep.start = 0", "sweep-grid"),
        ("sweep.duration = 10us", "capture-length"),
        ("demod.training_fraction = 0.05", "training-length"),
        ("scm.active_channels = 11", "channel-set"),
        ("scm.baseband_offset = 600mhz", "scm-invariants"),
        ("demod.ffe_taps = 16", "demod-invariants"),
        ("link.drive_scale = 2", "link-invariants"),
        ("link.responsivity = -1", "link-invariants"),
        ("link.pd_bandwidth = 0", "link-invariants"),
        ("link.thermal_noise_density = -1", "link-invariants"),
        ("metrics.n_fft = 1000", "metrics-invariants"),
        ("metrics.n_avg = 0", "metrics-invariants"),
        ("metrics.n_fft = 2", "analysis-grid"),
        ("metrics.n_fft = 4", "analysis-grid"),
        ("metrics.n_fft = 8", "analysis-grid"),
    ],
)
def test_semantic_rules_are_named(text, rule):
    with pytest.raises(ConfigError, match=rule):
        load_config(text)


@pytest.mark.parametrize(
    "name",
    [
        "thermal",
        "osnr_beat",
        "cmrr_leak",
        "drive_phase_noise",
        "phase_drift",
        "jitter",
        "dac_residual_noise",
    ],
)
def test_terms_with_a_physical_off_value_have_no_flag(name):
    # each of these terms is switched off through its own physical key
    with pytest.raises(ConfigError, match=f"unknown key 'impairments.{name}'"):
        load_config(f"impairments.{name} = off")


def test_dump_round_trips_byte_identically():
    first = dump_config(load_config(""))
    assert dump_config(load_config(first)) == first

    tweaked = load_config(
        """
        run.master_seed = 99
        scm.active_channels = 2,7
        impairments.tia_saturation = off
        dac.lpf_cutoff = off
        combs.source = cascade
        sweep.snap = false
        """
    )
    text = dump_config(tweaked)
    assert dump_config(load_config(text)) == text
    assert "scm.active_channels = 2,7" in text
    assert "impairments.tia_saturation = off" in text
    assert "dac.lpf_cutoff = off" in text
    assert "adc.full_scale = auto" in text


def test_dump_spells_all_channels():
    text = dump_config(load_config(""))
    assert "scm.active_channels = all" in text
    assert "combs.source = flat" in text


def test_active_channels_are_a_sorted_tuple():
    base = load_config("")
    cfg = dataclasses.replace(
        base, scm=dataclasses.replace(base.scm, active_channels=(3, 1, 3))
    )
    assert cfg.scm.active_channels == (1, 3)
    text = dump_config(cfg)
    assert "scm.active_channels = 1,3" in text
    assert load_config(text) == cfg
    assert load_config("scm.active_channels = 3,1,3").scm.active_channels == (1, 3)


def test_listing_every_channel_is_the_full_plan():
    listed = load_config("scm.active_channels = 10,9,8,7,6,5,4,3,2,1").scm
    assert listed.active_set() == load_config("").scm.active_set()
    # an empty list is not "all": the API cannot build a plan with no channel
    empty = load_config("")
    empty.scm.active_channels = ()
    with pytest.raises(ConfigError, match="scm-invariants"):
        validate_scenario(empty)


def test_build_combs_flat_vs_cascade():
    flat = build_combs(load_config(""))
    assert flat.n_pairs == 24
    assert flat.delta_f == 1e9
    # signal comb carries the tilt, LO stays flat
    assert flat.signal.flatness_db == pytest.approx(2.0)
    assert flat.lo.flatness_db == 0.0

    casc = build_combs(load_config("combs.source = cascade"))
    assert casc.n_pairs == 24
    # cascade shape plus the same deliberate tilt on the signal side
    assert casc.signal.flatness_db > casc.lo.flatness_db
    assert np.all(casc.signal.tone_amps <= casc.lo.tone_amps + 1e-12)


def test_validate_scenario_returns_combs():
    cfg = load_config("")
    combs = validate_scenario(cfg)
    assert combs.n_pairs == 24


def test_build_demod_copies_channel_geometry():
    cfg = load_config("scm.baseband_offset = 30mhz")
    d = build_demod(cfg, channel=7)
    assert d.channel_index == 7
    assert d.baseband_offset == 30e6
    assert d.baud == cfg.scm.baud
    assert d.rolloff == cfg.scm.rolloff


# ------------------------------------------------------- re-runnable manifests


def test_link_terms_switch_off_with_inf_or_off():
    cfg = load_config("link.osnr_db = inf\nlink.cmrr_db = off\n")
    assert cfg.link.osnr_db == np.inf and cfg.link.cmrr_db == np.inf
    text = dump_config(cfg)
    assert "link.osnr_db = inf" in text and "link.cmrr_db = inf" in text
    assert load_config(text) == cfg


_FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _configs(draw):
    """Valid configs over the defaults, reaching every None/auto/inf spelling."""
    base = load_config("")
    run = dataclasses.replace(
        base.run,
        master_seed=draw(st.integers(0, 2**32 - 1)),
        source=draw(st.sampled_from(["auto", "sweep", "scm"])),
        electrical_rolloff_db=draw(st.floats(0.0, 6.0, **_FINITE)),
    )
    sweep = dataclasses.replace(
        base.sweep,
        step=draw(st.floats(0.05e9, 2.5e9, **_FINITE)),
        snap=draw(st.booleans()),
    )
    scm = dataclasses.replace(
        base.scm,
        active_channels=draw(
            st.one_of(st.none(), st.sets(st.integers(1, 10), min_size=1))
        ),
    )
    dac = dataclasses.replace(
        base.dac,
        lpf_cutoff=draw(st.one_of(st.none(), st.floats(10.5e9, 15e9, **_FINITE))),
        residual_noise_db=draw(
            st.one_of(st.none(), st.floats(-60.0, -20.0, **_FINITE))
        ),
    )
    link = dataclasses.replace(
        base.link,
        osnr_db=draw(st.one_of(st.just(np.inf), st.floats(20.0, 80.0, **_FINITE))),
        cmrr_db=draw(st.one_of(st.just(np.inf), st.floats(10.0, 60.0, **_FINITE))),
        sine_backoff_db=draw(st.floats(0.0, 30.0, **_FINITE)),
    )
    adc = dataclasses.replace(
        base.adc,
        full_scale=draw(
            st.one_of(st.just("auto"), st.floats(1e-6, 1.0, **_FINITE))
        ),
        jitter_rms=draw(st.floats(0.0, 1e-12, **_FINITE)),
        aa_cutoff=draw(st.one_of(st.none(), st.floats(0.5e9, 1.2e9, **_FINITE))),
        ac_couple_hz=draw(st.one_of(st.none(), st.floats(1e3, 50e6, **_FINITE))),
    )
    flags = {f.name: draw(st.booleans()) for f in dataclasses.fields(ImpairmentFlags)}
    metrics = dataclasses.replace(
        base.metrics,
        window=draw(st.sampled_from(["auto", "rectangular", "blackman-harris-4term"])),
        include_notch_band=draw(st.booleans()),
    )
    return dataclasses.replace(
        base,
        run=run,
        sweep=sweep,
        scm=scm,
        dac=dac,
        link=link,
        adc=adc,
        impairments=ImpairmentFlags(**flags),
        metrics=metrics,
    )


@settings(max_examples=60, deadline=None)
@given(_configs())
def test_dump_then_load_is_identity(cfg):
    assert load_config(dump_config(cfg)) == cfg


# ----------------------------------------------------------------- seed rule


@pytest.mark.parametrize("seed", ["-3", "4294967296", "4294967297"])
def test_master_seed_outside_32_bits_is_rejected(seed):
    # derive_seed_sequence keeps 32 bits; a wider seed would silently
    # alias a narrower one (1 and 2**32 + 1 give the same streams)
    with pytest.raises(ConfigError, match="seed-range"):
        load_config(f"run.master_seed = {seed}")


def test_master_seed_range_edges_accepted():
    assert load_config("run.master_seed = 0").run.master_seed == 0
    assert load_config("run.master_seed = 4294967295").run.master_seed == 2**32 - 1


# ------------------------------------------------------------ sweep grid size


def test_sweep_point_count_is_bounded():
    # the grid is only counted, never built: 1e-30 GHz steps would be
    # about 1e31 frequencies
    with pytest.raises(ConfigError, match="sweep-grid"):
        load_config("sweep.step = 1e-30ghz")
    with pytest.raises(ConfigError, match="sweep-grid"):
        load_config("sweep.step = 1mhz")  # 10,001 points
    assert load_config("sweep.step = 1.25mhz").sweep.n_points == 8001


def test_sweep_grid_is_shared():
    sweep = load_config("sweep.step = 2.5ghz").sweep
    assert sweep.n_points == 5
    assert sweep.frequencies() == [0.5e9, 3.0e9, 5.5e9, 8.0e9, 10.5e9]
