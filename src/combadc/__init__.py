"""Numerical testbench for a comb-assisted channelizing ADC.

A broadband electrical signal modulates one optical frequency comb; beating
it against a second comb with a slightly offset line spacing slices the band
into sub-bands as wide as that offset, each folded to baseband where a slow
high-resolution ADC digitizes it.  The package models that chain end to end
(DAC playback, modulator, comb pair, balanced detection, TIA, sub-band ADC)
and measures it the way a bench would: sine sweeps scored by SFDR/SINAD/ENOB
and a subcarrier-multiplexed PAM4 burst scored by per-channel demodulation SNR.

Most work goes through :func:`load_config` plus one of the runners
(:func:`run_sweep`, :func:`run_scm`, :func:`run_spectrum`); the lower-level
blocks are exported for scripting.
"""

from .adc import AdcConfig, SubbandCapture, adc_capture
from .comb import (
    BeatSpectrum,
    LinkConfig,
    ScenarioCombs,
    beat_spectrum,
    comb_from_cascade,
    flat_comb,
    mzm_field,
    subband_beat,
)
from .demod import DemodConfig, demod_pam4, ffe_lms, wiener_ffe
from .errors import (
    CombAdcError,
    ConfigError,
    SignalError,
)
from .frontend import (
    DacConfig,
    ScmConfig,
    dac_model,
    gen_pam4_symbols,
    scm_waveform,
    sine_waveform,
)
from .metrics import MetricsConfig, MetricsReport, sine_metrics
from .runner import (
    RunManifest,
    run_scm,
    run_spectrum,
    run_sweep,
    snap_sweep_frequency,
)
from .scenario import ScenarioConfig, dump_config, load_config, validate_scenario
from .seeding import derive_rng, derive_seed_sequence
from .waveform import SampledWaveform, periodogram, rrc_taps

__version__ = "0.1.0"

__all__ = [
    "AdcConfig",
    "SubbandCapture",
    "adc_capture",
    "BeatSpectrum",
    "LinkConfig",
    "ScenarioCombs",
    "beat_spectrum",
    "comb_from_cascade",
    "flat_comb",
    "mzm_field",
    "subband_beat",
    "DemodConfig",
    "demod_pam4",
    "ffe_lms",
    "wiener_ffe",
    "CombAdcError",
    "ConfigError",
    "SignalError",
    "DacConfig",
    "ScmConfig",
    "dac_model",
    "gen_pam4_symbols",
    "scm_waveform",
    "sine_waveform",
    "MetricsConfig",
    "MetricsReport",
    "sine_metrics",
    "RunManifest",
    "run_scm",
    "run_spectrum",
    "run_sweep",
    "snap_sweep_frequency",
    "ScenarioConfig",
    "dump_config",
    "load_config",
    "validate_scenario",
    "derive_rng",
    "derive_seed_sequence",
    "SampledWaveform",
    "periodogram",
    "rrc_taps",
    "__version__",
]
