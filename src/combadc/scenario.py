"""Declarative experiment description and its line-oriented config format.

A scenario file is plain text, one `section.key = value` per line, with
`#` comments and unit suffixes (`1ghz`, `70us`, `-15dbm`). An empty file
is a complete, runnable description of the reference system: ten 1 GHz
channels, 6-bit 32 GSa/s DAC, flat 24-tone comb pair offset by 1 GHz,
14-bit 2.4 GSa/s converter, every impairment enabled. Files written by
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
    check_comb_scaling,
    comb_from_cascade,
    downshift_hz,
    flat_comb,
)
from .demod import DemodConfig, capture_filters, symbol_budget
from .errors import CombAdcError, ConfigError, SignalError
from .frontend import DacConfig, ScmConfig, burst_sps, check_carrier_grid
from .metrics import ANALYSIS_RATE, check_analysis_grid
from .waveform import lowpass_band, resample_plan, spectral_tilt_taps

__all__ = [
    "CombsSection",
    "ImpairmentFlags",
    "MetricsSection",
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
    # which source a run may consume; "auto" allows either subcommand
    source: str = "auto"
    # analog-chain tilt, linear in dB across 0.1-10 GHz
    electrical_rolloff_db: float = 3.0


@dataclass
class SweepSection:
    start: float = 0.5e9
    stop: float = 10.5e9
    step: float = 0.25e9
    # snap tones onto the analysis FFT grid (coherent test); off means
    # off-grid frequencies measured through a 4-term window
    snap: bool = True
    duration: float = 70e-6

    @property
    def n_points(self) -> int:
        """Number of requested frequencies, start and stop included."""
        return int((self.stop - self.start) / self.step + 1e-9) + 1

    def frequencies(self) -> list[float]:
        return [self.start + i * self.step for i in range(self.n_points)]


@dataclass
class CombsSection:
    f_sig: float = 26e9
    delta_f: float = 1e9
    n_tones: int = 24
    drive_linewidth: float = 0.0
    differential_drift: float = 0.0
    # applied to the signal comb only; the LO comb stays flat
    tone_tilt_db: float = 2.0
    source: str = "flat"  # flat | cascade
    cascade_pm: float = 18.2
    cascade_im: float = 1.6


@dataclass
class ImpairmentFlags:
    """Switches for the terms no physical key can turn off.

    Every other noise term is switched off through its own value:
    ``link.thermal_noise_density = 0``, ``link.osnr_db = inf``,
    ``link.cmrr_db = inf``, ``combs.drive_linewidth = 0``,
    ``combs.differential_drift = 0``, ``adc.jitter_rms = 0`` and
    ``dac.residual_noise_db = off``.
    """

    shot: bool = True
    tia_saturation: bool = True
    dac_quantization: bool = True
    dac_clip: bool = True
    adc_quantization: bool = True


@dataclass
class MetricsSection:
    n_fft: int = 16384
    n_avg: int = 4
    window: str = "auto"  # auto | rectangular | blackman-harris-4term
    include_notch_band: bool = False

    def __post_init__(self):
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise ConfigError(f"n_fft must be a power of two >= 2, got {self.n_fft}")
        if self.n_avg < 1:
            raise ConfigError(f"n_avg must be at least 1, got {self.n_avg}")


@dataclass
class ScenarioConfig:
    run: RunSection = field(default_factory=RunSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    scm: ScmConfig = field(default_factory=ScmConfig)
    dac: DacConfig = field(default_factory=DacConfig)
    combs: CombsSection = field(default_factory=CombsSection)
    link: LinkConfig = field(default_factory=LinkConfig)
    adc: AdcConfig = field(default_factory=lambda: AdcConfig(jitter_rms=50e-15))
    demod: DemodConfig = field(default_factory=DemodConfig)
    metrics: MetricsSection = field(default_factory=MetricsSection)
    impairments: ImpairmentFlags = field(default_factory=ImpairmentFlags)

    @property
    def bandwidth(self) -> float:
        """Instantaneous bandwidth covered by the channel plan."""
        return self.scm.n_channels * self.scm.channel_spacing


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


def _p_float_or_off(tok: str):
    if tok.strip().lower() == "off":
        return None
    return _number(tok)


def _p_db_or_inf(tok: str):
    # an infinite ratio is how a link term is switched off
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
    return tuple(sorted(chans))


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
    "run.source": _p_choice("auto", "sweep", "scm"),
    "combs.source": _p_choice("flat", "cascade"),
    "demod.equalizer": _p_choice("lms", "wiener", "none"),
    "metrics.window": _p_choice("auto", "rectangular", "blackman-harris-4term"),
    "dac.lpf_cutoff": _p_float_or_off,
    "dac.residual_noise_db": _p_float_or_off,
    "adc.aa_cutoff": _p_float_or_off,
    "adc.ac_couple": _p_float_or_off,
    "link.osnr_db": _p_db_or_inf,
    "link.cmrr_db": _p_db_or_inf,
    "adc.full_scale": _p_float_or_auto,
    "scm.active_channels": _p_channels,
}
# the one key not spelled like its field
_RENAMED = {"adc.ac_couple_hz": "adc.ac_couple"}
# build_demod fills these from the scm section; they are not config keys
_DERIVED = {"demod.channel_index", "demod.baseband_offset", "demod.baud", "demod.rolloff"}


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
            key = _RENAMED.get(key, key)
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
    """Run a stage's own precondition; the SignalError it raises fails rule ``name``."""
    try:
        check(*args)
    except SignalError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def build_combs(cfg: ScenarioConfig) -> ScenarioCombs:
    """Materialize the comb pair the config describes."""
    c = cfg.combs
    if c.source == "cascade":
        sig = comb_from_cascade(
            c.cascade_pm, c.cascade_im, c.n_tones, c.f_sig, c.drive_linewidth
        )
        lo = comb_from_cascade(
            c.cascade_pm,
            c.cascade_im,
            c.n_tones,
            c.f_sig + c.delta_f,
            c.drive_linewidth,
        )
    else:
        sig = flat_comb(c.n_tones, c.f_sig, c.tone_tilt_db, c.drive_linewidth)
        lo = flat_comb(c.n_tones, c.f_sig + c.delta_f, 0.0, c.drive_linewidth)
    if c.source == "cascade" and c.tone_tilt_db != 0.0 and c.n_tones > 1:
        ramp = np.arange(c.n_tones) / (c.n_tones - 1)
        amps = sig.tone_amps * 10.0 ** (-c.tone_tilt_db * ramp / 20.0)
        sig = dataclasses.replace(sig, tone_amps=amps)
    return ScenarioCombs(
        signal=sig, lo=lo, differential_phase_drift=c.differential_drift
    )


def build_demod(cfg: ScenarioConfig, channel: int) -> DemodConfig:
    """Per-channel demod config; baseband geometry comes from the source."""
    return dataclasses.replace(
        cfg.demod,
        channel_index=channel,
        baseband_offset=cfg.scm.baseband_offset,
        baud=cfg.scm.baud,
        rolloff=cfg.scm.rolloff,
    )


# a sweep beyond this many points is a typo in sweep.step, not a plan
_MAX_SWEEP_POINTS = 10_000
# more comb lines than the cascade's harmonic grid holds span about
# 100 THz at 26 GHz spacing, far past any optical band: a typo, not a comb
_MAX_COMB_TONES = 4096
# a run peaks near 65 (sweep point) to 100 (burst) bytes per sample of
# its record at the DAC rate; 2**24 samples (0.52 ms at 32 GSa/s, 7.5x
# the default sweep point) already take a burst near 1.7 GB
_MAX_RECORD_SAMPLES = 2**24


def validate_scenario(cfg: ScenarioConfig) -> ScenarioCombs:
    """Cross-section consistency checks; returns the validated comb pair."""
    _rule(
        "seed-range",
        0 <= cfg.run.master_seed < 2**32,
        f"run.master_seed = {cfg.run.master_seed} not in 0..2**32-1",
    )
    _rule("bits-range", 1 <= cfg.adc.bits <= 24, f"adc.bits = {cfg.adc.bits} not in 1..24")
    _rule("bits-range", 1 <= cfg.dac.bits <= 16, f"dac.bits = {cfg.dac.bits} not in 1..16")

    # remaining section-local invariants (re-run the dataclass checks)
    for name in ("scm", "dac", "adc", "demod", "link", "metrics"):
        try:
            dataclasses.replace(getattr(cfg, name))
        except CombAdcError as exc:
            raise ConfigError(f"{name}-invariants: {exc}") from None
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
    try:
        combs = build_combs(cfg)
    except (CombAdcError, ValueError) as exc:
        # comb_from_cascade raises ValueError for a drive that cannot
        # yield the requested lines
        raise ConfigError(f"comb-scaling: {exc}") from None
    _stage_rule(
        "comb-scaling", check_comb_scaling, cfg.bandwidth, combs, cfg.scm.n_channels
    )

    _stage_rule("rate-consistency", burst_sps, cfg.scm, cfg.dac.rate)
    # the electrical tilt is part of the DAC's one FIR
    tilt_db = cfg.run.electrical_rolloff_db
    _stage_rule("dac-invariants", spectral_tilt_taps, cfg.dac.rate, tilt_db)
    _stage_rule("carrier-grid", check_carrier_grid, cfg.scm, cfg.dac.rate)
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
    # the demod geometry is the same for every channel
    demod = build_demod(cfg, 1)
    _stage_rule("rate-consistency", capture_filters, cfg.adc.rate, demod)
    _stage_rule("rate-consistency", resample_plan, cfg.adc.rate, ANALYSIS_RATE)
    _rule(
        "sweep-grid",
        0 < cfg.sweep.start <= cfg.sweep.stop and cfg.sweep.step > 0,
        f"need 0 < start <= stop and step > 0, got "
        f"{cfg.sweep.start:.3g}/{cfg.sweep.stop:.3g}/{cfg.sweep.step:.3g}",
    )
    _rule(
        "sweep-grid",
        cfg.sweep.stop - cfg.sweep.start < _MAX_SWEEP_POINTS * cfg.sweep.step,
        f"sweep.step {cfg.sweep.step:.3g} Hz gives more than "
        f"{_MAX_SWEEP_POINTS} sweep points",
    )
    _rule(
        "sweep-grid",
        round(cfg.sweep.stop / combs.delta_f) <= combs.n_pairs,
        f"sweep.stop {cfg.sweep.stop:.3g} Hz lands past the last tone pair",
    )
    _rule(
        "sweep-grid",
        cfg.sweep.stop < 0.45 * cfg.dac.rate,
        "sweep.stop too close to the DAC Nyquist edge",
    )
    _rule(
        "capture-length",
        cfg.sweep.duration * ANALYSIS_RATE >= cfg.metrics.n_fft * cfg.metrics.n_avg,
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
    _stage_rule("analysis-grid", check_analysis_grid, cfg.metrics.n_fft)
    _stage_rule("training-length", symbol_budget, cfg.scm.symbols_per_burst, demod)
    active = cfg.scm.active_set()
    _rule(
        "channel-set",
        all(1 <= ch <= cfg.scm.n_channels for ch in active),
        f"active channels {sorted(active)} outside 1..{cfg.scm.n_channels}",
    )
    # the highest sub-band a sweep point or an active channel reaches
    top = max(round(cfg.sweep.stop / combs.delta_f), *active)
    _stage_rule("rate-consistency", downshift_hz, top, combs.delta_f, cfg.dac.rate)
    return combs
