import dataclasses
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combadc.errors import ConfigError
from combadc.runner import run_scm, run_sweep
from combadc.scenario import (
    ImpairmentFlags,
    build_combs,
    build_demod,
    dump_config,
    load_config,
    validate_scenario,
)

from conftest import flatness_db


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
        ("combs.source = cascade\ncombs.n_tones = 200", "comb-scaling"),
        ("combs.source = cascade\ncombs.cascade_pm = 0", "comb-scaling"),
        ("combs.source = cascade\ncombs.n_tones = 0", "comb-scaling"),
        ("combs.n_tones = 1e300", "comb-scaling"),
        ("scm.baud = 0", "scm-invariants"),
        ("scm.rolloff = -5", "scm-invariants"),
        ("scm.baud = 400mhz\nscm.rolloff = 1.5", "scm-invariants"),
        ("sweep.step = 1e-300", "sweep-grid"),
        ("scm.baud = 1e-300", "rate-consistency"),
        ("scm.duration = 1e300", "carrier-grid"),
        pytest.param(
            "combs.tone_tilt_db = -1e300",
            "comb-scaling",
            # the tilt overflows to infinite tone amplitudes; numpy warns
            marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
        ),
        # each of these loaded before, then failed or hung its run
        ("adc.rate = 2.5ghz", "rate-consistency"),
        ("adc.rate = 2.41ghz", "rate-consistency"),
        ("demod.sps = 100", "rate-consistency"),
        ("dac.lpf_cutoff = 15.5ghz", "dac-invariants"),
        ("dac.lpf_cutoff = -1ghz", "dac-invariants"),
        ("adc.aa_cutoff = -1ghz", "adc-invariants"),
        ("adc.rate = 0.8ghz\nlink.pd_bandwidth = 0.4ghz\nadc.aa_cutoff = 0.4ghz", "rate-consistency"),
        ("combs.delta_f = 2ghz", "rate-consistency"),
        ("scm.n_channels = 1\ncombs.delta_f = 8ghz\nsweep.stop = 14ghz", "rate-consistency"),
        ("demod.training_fraction = 0.95", "training-length"),
        ("adc.ac_couple = -1mhz", "adc-invariants"),
        ("demod.ffe_step = -1", "demod-invariants"),
        ("link.tia_sat_dbm = 1e300", "link-invariants"),
        ("link.sig_power_per_ch_dbm = 1e300", "link-invariants"),
        ("link.lo_power_per_tone_dbm = 1e300", "link-invariants"),
        ("link.osnr_db = -1e300", "link-invariants"),
        ("link.cmrr_db = -1e300", "link-invariants"),
        ("link.sine_backoff_db = -1e300", "link-invariants"),
        ("demod.ffe_passes = -5", "demod-invariants"),
        ("demod.ffe_passes = 0", "demod-invariants"),
        ("demod.ffe_passes = 1e300", "demod-invariants"),
        ("dac.residual_noise_db = 1e300", "dac-invariants"),
        ("adc.aa_cutoff = 1e-80", "adc-invariants"),
        ("link.pd_bandwidth = 1hz", "rate-consistency"),
        ("sweep.duration = 1", "capture-length"),
        ("scm.duration = 1", "capture-length"),
        # these loaded before: a -1e300 dB tilt overflowed its gains, and
        # steps past 2 diverged the LMS on every channel
        ("run.electrical_rolloff_db = -1e300", "dac-invariants"),
        ("run.electrical_rolloff_db = 301", "dac-invariants"),
        ("demod.ffe_step = 5", "demod-invariants"),
        ("demod.ffe_step = 1e3", "demod-invariants"),
        ("demod.ffe_step = 2.01", "demod-invariants"),
    ],
)
def test_semantic_rules_are_named(text, rule):
    with pytest.raises(ConfigError, match=f"^{rule}: "):
        load_config(text)


@pytest.mark.parametrize("text", ["sweep.step = 1e400", "adc.full_scale = 1e400"])
def test_numbers_must_be_finite(text):
    with pytest.raises(ConfigError, match="line 1: .*not a finite number"):
        load_config(text)


@pytest.mark.parametrize(
    "line",
    [
        pytest.param(f"impairments.{name} = off", id=name)
        for name in (
            "thermal",
            "osnr_beat",
            "cmrr_leak",
            "drive_phase_noise",
            "phase_drift",
            "jitter",
            "dac_residual_noise",
        )
    ]
    # no figure depends on the DAC's full scale, so it is fixed at +-1;
    # manifests written while it was a key hold this line
    + [pytest.param("dac.full_scale = 1.0", id="dac.full_scale")],
)
def test_terms_with_a_physical_off_value_have_no_flag(line):
    # each of these terms is switched off through its own physical key
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        load_config(line)


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
    assert flatness_db(flat.signal) == pytest.approx(2.0)
    assert flatness_db(flat.lo) == 0.0

    casc = build_combs(load_config("combs.source = cascade"))
    assert casc.n_pairs == 24
    # cascade shape plus the same deliberate tilt on the signal side
    assert flatness_db(casc.signal) > flatness_db(casc.lo)
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


# every key with its default spelling, read from the public dump
_DEFAULT_TEXT = dict(
    line.split(" = ") for line in dump_config(load_config("")).splitlines() if line
)
# spellings a key's default does not show (README "Configs")
_CHOICES = {
    "run.source": ["auto", "sweep", "scm"],
    "combs.source": ["flat", "cascade"],
    "demod.equalizer": ["lms", "wiener", "none"],
    "metrics.window": ["auto", "rectangular", "blackman-harris-4term"],
}
_WORDS = {
    "dac.lpf_cutoff": ["off"],
    "dac.residual_noise_db": ["off"],
    "adc.aa_cutoff": ["off"],
    "adc.ac_couple": ["off"],
    "adc.full_scale": ["auto"],
    "link.osnr_db": ["inf", "off"],
    "link.cmrr_db": ["inf", "off"],
}
_RULES = {
    "seed-range",
    "bits-range",
    "scm-invariants",
    "dac-invariants",
    "adc-invariants",
    "demod-invariants",
    "link-invariants",
    "metrics-invariants",
    "pam-order",
    "comb-scaling",
    "rate-consistency",
    "carrier-grid",
    "sweep-grid",
    "capture-length",
    "analysis-grid",
    "training-length",
    "channel-set",
}
_SIGN = st.sampled_from(["", "-"])


def _spelling(key: str):
    """Values spelled the way ``key`` accepts them, across decades."""
    default = _DEFAULT_TEXT[key]
    if key in _CHOICES:
        return st.sampled_from(_CHOICES[key])
    if key == "scm.active_channels":
        listed = st.lists(st.integers(0, 12), min_size=1, max_size=4)
        return st.one_of(st.just("all"), listed.map(lambda c: ",".join(map(str, c))))
    if default in ("on", "off"):
        return st.sampled_from(["on", "off", "true", "false", "yes", "no"])
    if default.lstrip("-").isdigit():
        near = st.integers(-3, 3 * int(default) + 3).map(str)
        decades = st.tuples(_SIGN, st.integers(0, 300)).map(lambda t: f"{t[0]}1e{t[1]}")
        numbers = st.one_of(near, decades)
    else:
        scale = float(default) if default not in _WORDS.get(key, []) else 1.0
        near = st.floats(0.5, 2.0).map(lambda k: repr(k * scale))
        decades = st.tuples(_SIGN, st.floats(1.0, 9.99), st.integers(-300, 300)).map(
            lambda t: f"{t[0]}{t[1]!r}e{t[2]}"
        )
        numbers = st.one_of(st.just("0"), near, decades)
    return st.one_of(numbers, st.sampled_from(_WORDS.get(key, [default])))


_KEY_SPELLINGS = {key: _spelling(key) for key in _DEFAULT_TEXT}
_OTHER_KEYS = st.lists(st.sampled_from(sorted(_DEFAULT_TEXT)), max_size=2)


@st.composite
def _assignments(draw, key: str) -> str:
    """``key`` plus up to two other keys, so rules that join keys (a
    cascade comb with its tone count) are reached too."""
    keys = dict.fromkeys([key, *draw(_OTHER_KEYS)])
    return "".join(f"{k} = {draw(_KEY_SPELLINGS[k])}\n" for k in keys)


# drawn tilts overflow to infinite tone amplitudes, as in the rule cases
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("key", sorted(_DEFAULT_TEXT))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_key_loads_or_fails_a_named_rule(key, data):
    text = data.draw(_assignments(key))
    try:
        cfg = load_config(text)
    except ConfigError as exc:
        assert str(exc).split(":")[0] in _RULES, text
        return
    dumped = dump_config(cfg)
    assert dump_config(load_config(dumped)) == dumped


# one 20 us sweep point and a 0.5 us burst: short records, so that each
# drawn config runs the whole chain in well under a second
_SHORT_RUNS = (
    "sweep.start = 5.5ghz\nsweep.stop = 5.5ghz\nsweep.duration = 20us\n"
    "metrics.n_fft = 4096\nscm.duration = 0.5us\n"
)
# the draw leaves out the keys pinned above, and dac.rate, which scales
# the sample count of every record
_RUN_KEYS = sorted(
    set(_DEFAULT_TEXT)
    - {"sweep.start", "sweep.stop", "sweep.duration", "metrics.n_fft", "scm.duration"}
    - {"dac.rate"}
)
# how a failed task reads when it raised an error from outside the package
_FOREIGN_ERROR = re.compile(r"\[\w+\.py:\d+\]$")


@st.composite
def _short_runs(draw) -> str:
    keys = draw(st.lists(st.sampled_from(_RUN_KEYS), min_size=1, max_size=3, unique=True))
    return _SHORT_RUNS + "".join(f"{k} = {draw(_KEY_SPELLINGS[k])}\n" for k in keys)


# the examples are fixed so that the suite's run time stays put; the
# same test with more examples searches further
@settings(max_examples=28, deadline=None, derandomize=True)
@given(text=_short_runs())
def test_every_loaded_config_runs_and_reruns_identically(text):
    try:
        cfg = load_config(text)
    except ConfigError as exc:
        assert str(exc).split(":")[0] in _RULES, text
        return
    with tempfile.TemporaryDirectory() as out:
        for source, run in (("sweep", run_sweep), ("scm", run_scm)):
            if cfg.run.source not in ("auto", source):
                continue
            first = run(cfg, os.path.join(out, source))
            with open(os.path.join(out, source, "manifest.txt")) as fh:
                again = run(load_config(fh.read()), os.path.join(out, source + "-again"))
            assert again.artifacts == first.artifacts, text
            assert again.config_text == first.config_text
            outcomes = [(t.status, t.detail) for t in first.tasks]
            assert [(t.status, t.detail) for t in again.tasks] == outcomes
            # a task may fail on its physics (no tone above the floor, an
            # equalizer that does not converge), never on a foreign error
            assert not any(_FOREIGN_ERROR.search(detail) for _, detail in outcomes), text


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
