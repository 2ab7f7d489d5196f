"""Declarative experiment description and its line-oriented config format.

A scenario file is plain text, one `section.key = value` per line, with
`#` comments and unit suffixes (`1ghz`, `70us`, `-15dbm`). An empty file
is a complete, runnable description of the reference system: ten 1 GHz
channels, 6-bit 32 GSa/s DAC, flat 24-tone comb pair offset by 1 GHz,
14-bit 2.4 GSa/s converter, every noise term on. Files written by
``dump_config`` parse back to an identical config, which is what makes
run manifests re-runnable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .adc import MIN_OVERSAMPLING, AdcConfig
from .comb import (
    LinkConfig,
    ScenarioCombs,
    comb_from_cascade,
    downshift_hz,
    flat_comb,
)
from .demod import DemodConfig, capture_filters, symbol_budget
from .errors import CombAdcError, ConfigError
from .frontend import DacConfig, ScmConfig, burst_sps, check_carrier_grid, check_slot
from .metrics import MetricsConfig, check_analysis_grid
from .waveform import lowpass_band, resample_plan

__all__ = [
    "CombsSection",
    "RunSection",
    "ScenarioConfig",
    "SweepSection",
    "build_combs",
    "build_demod",
    "dump_config",
    "load_config",
    "validate_scenario",
]


@dataclass
class RunSection:
    master_seed: int = 12345


@dataclass
class SweepSection:
    start: float = 0.5e9
    stop: float = 10.5e9
    step: float = 0.25e9
    duration: float = 70e-6

    @property
    def n_points(self) -> int:
        """Number of requested frequencies, start and stop included."""
        # the clamp keeps a typo'd step (1e-300 Hz) countable: the ratio
        # overflows to inf, which int() refuses
        return int(min((self.stop - self.start) / self.step, 2.0**53) + 1e-9) + 1

    def frequencies(self) -> list[float]:
        return [self.start + i * self.step for i in range(self.n_points)]


@dataclass
class CombsSection:
    # LO-comb line spacing minus signal-comb line spacing: sub-band n is
    # centred at n * delta_f, and SCM channel k rides sub-band k
    delta_f: float = 1e9
    n_tones: int = 24
    # Hz, the RF-synthesizer linewidth of each comb: pair 1's differential
    # phase walks with the sum (2x), and pair n's phase is n times that walk
    drive_linewidth: float = 0.0
    differential_drift: float = 0.0
    # applied to the signal comb only; the LO comb stays flat
    tone_tilt_db: float = 2.0
    source: str = "flat"  # flat | cascade
    cascade_pm: float = 18.2
    cascade_im: float = 1.6


@dataclass
class ScenarioConfig:
    run: RunSection = field(default_factory=RunSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    scm: ScmConfig = field(default_factory=ScmConfig)
    dac: DacConfig = field(
        default_factory=lambda: DacConfig(electrical_rolloff_db=3.0)
    )
    combs: CombsSection = field(default_factory=CombsSection)
    link: LinkConfig = field(default_factory=LinkConfig)
    adc: AdcConfig = field(default_factory=lambda: AdcConfig(jitter_rms=50e-15))
    demod: DemodConfig = field(default_factory=DemodConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)


# ---------------------------------------------------------------------------
# value parsing / formatting

_UNIT_SCALE = {
    "hz": 1.0,
    "khz": 1e3,
    "mhz": 1e6,
    "ghz": 1e9,
    "thz": 1e12,
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "ns": 1e-9,
    "ps": 1e-12,
    "fs": 1e-15,
    # decibel quantities carry their unit in the key name; suffix is a
    # readability nicety only
    "db": 1.0,
    "dbm": 1.0,
    "dbc": 1.0,
}


def _number(tok: str) -> float:
    tok = tok.strip().lower()
    i = len(tok)
    while i > 0 and tok[i - 1].isalpha():
        i -= 1
    num, suffix = tok[:i].strip(), tok[i:]
    if suffix and suffix not in _UNIT_SCALE:
        raise ValueError(f"unknown unit suffix {suffix!r}")
    try:
        value = float(num) * _UNIT_SCALE.get(suffix, 1.0)
    except ValueError:
        raise ValueError(f"not a number: {tok!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {tok!r}")
    return value


def _p_int(tok: str):
    v = _number(tok)
    if not v.is_integer():
        raise ValueError(f"expected an integer, got {tok!r}")
    return int(v)


def _p_bool(tok: str):
    t = tok.strip().lower()
    if t in ("on", "true", "yes", "1"):
        return True
    if t in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {tok!r}")


def _p_or_off(parse):
    # None, spelled off, drops the term the key sets
    def parse_or_off(tok: str):
        return None if tok.strip().lower() == "off" else parse(tok)

    return parse_or_off


def _p_db_or_inf(tok: str):
    # an infinite ratio or level is how a link term is switched off
    if tok.strip().lower() in ("inf", "off"):
        return float("inf")
    return _number(tok)


def _p_float_or_auto(tok: str):
    if tok.strip().lower() == "auto":
        return "auto"
    return _number(tok)


def _p_channels(tok: str):
    t = tok.strip().lower()
    if t == "all":
        return None
    try:
        chans = {int(part) for part in t.split(",") if part.strip()}
    except ValueError:
        raise ValueError(f"expected 'all' or a comma list of channels, got {tok!r}")
    if not chans:
        raise ValueError("channel list is empty")
    return tuple(chans)  # ScmConfig keeps a plan sorted


def _p_choice(*options: str):
    def parse(tok: str):
        t = tok.strip().lower()
        if t not in options:
            raise ValueError(f"expected one of {'/'.join(options)}, got {tok!r}")
        return t

    return parse


def _fmt(value) -> str:
    if value is None:
        return "off"
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# keys whose spelling the type of their default does not give
_SPELLINGS = {
    "combs.source": _p_choice("flat", "cascade"),
    "demod.equalizer": _p_choice("lms", "wiener", "none"),
    "dac.bits": _p_or_off(_p_int),
    "dac.lpf_cutoff": _p_or_off(_number),
    "dac.residual_noise_db": _p_or_off(_number),
    "adc.bits": _p_or_off(_p_int),
    "adc.aa_cutoff": _p_or_off(_number),
    "adc.ac_couple": _p_or_off(_number),
    "link.osnr_db": _p_db_or_inf,
    "link.cmrr_db": _p_db_or_inf,
    "link.tia_sat_dbm": _p_db_or_inf,
    "adc.full_scale": _p_float_or_auto,
    "scm.active_channels": _p_channels,
}
# build_demod fills these from the scm section; they are not config keys
_DERIVED = {"demod.baseband_offset", "demod.baud", "demod.rolloff"}


def _parser_for(default):
    if isinstance(default, bool):  # before int: bool is an int
        return _p_bool
    return _p_int if isinstance(default, int) else _number


def _key_table() -> dict[str, tuple[str, str, object]]:
    """Config key -> (section attr, field attr, parser), in field order."""
    table = {}
    for section in dataclasses.fields(ScenarioConfig):
        defaults = section.default_factory()
        for f in dataclasses.fields(defaults):
            key = f"{section.name}.{f.name}"
            if key not in _DERIVED:
                parse = _SPELLINGS.get(key) or _parser_for(getattr(defaults, f.name))
                table[key] = (section.name, f.name, parse)
    return table


_KEYS = _key_table()


def load_config(text: str) -> ScenarioConfig:
    """Parse config text over the defaults and validate the result.

    Raises ConfigError with a 1-based line number for syntax problems and
    with a named rule for semantic ones.
    """
    cfg = ScenarioConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'section.key = value'", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if not value:
            raise ConfigError(f"missing value for {key!r}", line=lineno)
        entry = _KEYS.get(key)
        if entry is None:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        seen.add(key)
        section, attr, parse = entry
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}", line=lineno) from None
        setattr(getattr(cfg, section), attr, parsed)
    validate_scenario(cfg)
    return cfg


def dump_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parsing it back yields an identical config."""
    lines = []
    last_section = None
    for key, (section, attr, parse) in _KEYS.items():
        if section != last_section:
            if last_section is not None:
                lines.append("")
            last_section = section
        value = getattr(getattr(cfg, section), attr)
        if parse is _p_channels:
            text = "all" if value is None else ",".join(str(c) for c in value)
        else:
            text = _fmt(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# semantic validation; every rule failure names its rule


def _rule(name: str, ok: bool, detail: str):
    if not ok:
        raise ConfigError(f"{name}: {detail}")


def _stage_rule(name: str, check, *args):
    """``check(*args)``: a stage's own precondition, whose value it returns.

    The package error the check raises fails rule ``name``.
    """
    try:
        return check(*args)
    except CombAdcError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def build_combs(cfg: ScenarioConfig) -> ScenarioCombs:
    """Materialize the comb pair the config describes: one comb shape,
    which the signal side takes times the tilt while the LO side stays
    untilted, and one synthesizer linewidth per comb."""
    c = cfg.combs
    if c.source == "cascade":
        lo = comb_from_cascade(c.cascade_pm, c.cascade_im, c.n_tones)
    else:
        lo = flat_comb(c.n_tones)
    return ScenarioCombs(
        signal_amps=lo * flat_comb(c.n_tones, c.tone_tilt_db),
        lo_amps=lo,
        delta_f=c.delta_f,
        linewidth=2.0 * c.drive_linewidth,
        differential_phase_drift=c.differential_drift,
    )


def build_demod(cfg: ScenarioConfig) -> DemodConfig:
    """Demod config of every channel; baseband geometry comes from the source."""
    return dataclasses.replace(
        cfg.demod,
        baseband_offset=cfg.scm.baseband_offset,
        baud=cfg.scm.baud,
        rolloff=cfg.scm.rolloff,
    )


# a sweep beyond this many points is a typo in sweep.step, not a plan
_MAX_SWEEP_POINTS = 10_000
# more comb lines than the cascade's 4096-point harmonic grid holds, where
# the reference comb has 24: a typo, not a comb
_MAX_COMB_TONES = 4096
# a run's peak memory grows by about 29 (sweep point) to 43 (burst)
# bytes per sample of its record at the DAC rate (peak RSS from 2.24 M
# to 16.8 M and from 0.066 M to 16.8 M samples); at 2**24 samples (0.52 ms
# at 32 GSa/s, 7.5x the default sweep point) one sweep point peaks at
# 522 MiB and the 10-channel burst at 753 MiB
_MAX_RECORD_SAMPLES = 2**24


def validate_scenario(cfg: ScenarioConfig) -> ScenarioCombs:
    """Cross-section consistency checks; returns the validated comb pair."""
    # a NaN slips past every check for a bad value (x < 0), and its dump
    # does not load again
    for key, (section, attr, _) in _KEYS.items():
        value = getattr(getattr(cfg, section), attr)
        nan = isinstance(value, float) and np.isnan(value)
        _rule("not-a-number", not nan, f"{key} is NaN")
    _rule(
        "seed-range",
        0 <= cfg.run.master_seed < 2**32,
        f"run.master_seed = {cfg.run.master_seed} not in 0..2**32-1",
    )
    for name, top in (("adc", 24), ("dac", 16)):
        bits = getattr(cfg, name).bits  # None: the converter does not quantize
        in_range = bits is None or 1 <= bits <= top
        _rule("bits-range", in_range, f"{name}.bits = {bits} not in 1..{top}")

    # remaining section-local invariants (re-run the dataclass checks)
    for name in ("scm", "dac", "adc", "demod", "link", "metrics"):
        _stage_rule(f"{name}-invariants", dataclasses.replace, getattr(cfg, name))
    _rule(
        "pam-order",
        cfg.scm.levels in (2, 4, 8),
        f"scm.levels = {cfg.scm.levels}, supported orders are 2/4/8",
    )

    _rule(
        "comb-scaling",
        1 <= cfg.combs.n_tones <= _MAX_COMB_TONES,
        f"combs.n_tones = {cfg.combs.n_tones:.3g} not in 1..{_MAX_COMB_TONES}",
    )
    combs = _stage_rule("comb-scaling", build_combs, cfg)
    _rule(
        "comb-scaling",
        cfg.scm.n_channels <= combs.n_pairs,
        f"{cfg.scm.n_channels} channels exceed {combs.n_pairs} usable tone pairs",
    )

    # channel k rides sub-band k, on the comb pair's grid
    grid = combs.delta_f
    _stage_rule("scm-invariants", check_slot, cfg.scm, grid)
    _stage_rule("rate-consistency", burst_sps, cfg.scm, cfg.dac.rate, grid)
    _stage_rule("carrier-grid", check_carrier_grid, cfg.scm, cfg.dac.rate, grid)
    # the beat hands the converter its input at least this fast
    beat_rate = MIN_OVERSAMPLING * cfg.adc.rate
    _rule(
        "rate-consistency",
        cfg.dac.rate >= beat_rate,
        "dac.rate must be at least 4x adc.rate for clean band-limited sampling",
    )
    _rule(
        "rate-consistency",
        cfg.link.pd_bandwidth <= cfg.adc.rate / 2,
        "link.pd_bandwidth beyond the converter Nyquist band would alias",
    )
    _stage_rule("rate-consistency", lowpass_band, cfg.link.pd_bandwidth, beat_rate)
    demod = build_demod(cfg)
    _stage_rule("rate-consistency", capture_filters, cfg.adc.rate, demod)
    # the sine test scores the capture resampled to the slice width
    _stage_rule("rate-consistency", resample_plan, cfg.adc.rate, grid)
    # its folded slice spans 0 to delta_f/2, inside the converter's Nyquist band
    _rule(
        "rate-consistency",
        grid <= cfg.adc.rate,
        f"combs.delta_f {grid:.4g} Hz exceeds adc.rate {cfg.adc.rate:.4g} Sa/s: "
        "its folded slice would reach past the converter's Nyquist band",
    )
    _rule(
        "sweep-grid",
        0 < cfg.sweep.start <= cfg.sweep.stop and cfg.sweep.step > 0,
        f"need 0 < start <= stop and step > 0, got "
        f"{cfg.sweep.start:.3g}/{cfg.sweep.stop:.3g}/{cfg.sweep.step:.3g}",
    )
    _rule(
        "sweep-grid",
        cfg.sweep.n_points <= _MAX_SWEEP_POINTS,
        f"sweep.step {cfg.sweep.step:.3g} Hz gives more than "
        f"{_MAX_SWEEP_POINTS} sweep points",
    )
    # the last frequency the sweep requests, which may fall short of stop
    last = cfg.sweep.frequencies()[-1]
    _rule(
        "sweep-grid",
        round(last / combs.delta_f) <= combs.n_pairs,
        f"sweep point {last:.3g} Hz lands past the last tone pair",
    )
    _rule(
        "sweep-grid",
        last < 0.45 * cfg.dac.rate,
        f"sweep point {last:.3g} Hz too close to the DAC Nyquist edge",
    )
    _rule(
        "capture-length",
        cfg.sweep.duration * grid >= cfg.metrics.n_fft * cfg.metrics.n_avg,
        f"sweep.duration {cfg.sweep.duration:.3g} s too short for "
        f"{cfg.metrics.n_fft} x {cfg.metrics.n_avg} spectral averaging",
    )
    longest = max(cfg.sweep.duration, cfg.scm.duration)
    _rule(
        "capture-length",
        longest * cfg.dac.rate <= _MAX_RECORD_SAMPLES,
        f"a {longest:.3g} s record at {cfg.dac.rate:.3g} Sa/s holds more than "
        f"{_MAX_RECORD_SAMPLES} samples",
    )
    _stage_rule("analysis-grid", check_analysis_grid, cfg.metrics.n_fft, grid)
    _stage_rule("training-length", symbol_budget, cfg.scm.symbols_per_burst, demod)
    active = cfg.scm.active_set()
    _rule(
        "channel-set",
        all(1 <= ch <= cfg.scm.n_channels for ch in active),
        f"active channels {sorted(active)} outside 1..{cfg.scm.n_channels}",
    )
    # the highest sub-band a sweep point or an active channel reaches
    top = max(round(last / combs.delta_f), *active)
    _stage_rule("rate-consistency", downshift_hz, top, combs.delta_f, cfg.dac.rate)
    # the top active channel's shaped band, on its subcarrier, must pass
    # the DAC's reconstruction filter
    cutoff, scm = cfg.dac.lpf_cutoff, cfg.scm
    edge = max(active) * grid + scm.baseband_offset + scm.baud * (1 + scm.rolloff) / 2
    if cutoff is not None:
        detail = f"channel {max(active)} reaches {edge:.4g} Hz, past {cutoff:.4g} Hz"
        _rule("band-edge", edge < cutoff, f"{detail} (dac.lpf_cutoff)")
    return combs
