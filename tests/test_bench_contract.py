"""The names bench/tracer.py relies on still exist in the package.

The benchmark traces the stage functions listed under ``layers`` in
bench/spec.json by rebinding them from outside, and binds some of their
arguments by name to count samples. A rename that breaks either would
otherwise only show when the benchmark runs. This file reads bench/ and
never writes to it.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "spec.json").read_text()
)

TRACED = [
    (layer["module"], fname)
    for layer in SPEC["layers"].values()
    if layer["module"] is not None
    for fname in layer["functions"]
]

# parameters the tracer's counters read from each call's bound arguments
BOUND_PARAMETERS = {
    ("comb", "subband_beat"): {"mu"},
    ("waveform", "apply_fir"): {"x", "taps"},
    ("adc", "adc_capture"): {"x"},
    ("demod", "ffe_lms"): {"training", "passes"},
    ("demod", "demod_pam4"): {"tx_symbols"},
}


@pytest.mark.parametrize("module,fname", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_exists(module, fname):
    fn = getattr(importlib.import_module(f"combadc.{module}"), fname, None)
    assert inspect.isfunction(fn), f"combadc.{module}.{fname} is gone"


@pytest.mark.parametrize(
    "module,fname",
    sorted(BOUND_PARAMETERS),
    ids=[f"{m}.{f}" for m, f in sorted(BOUND_PARAMETERS)],
)
def test_bound_parameters_keep_their_names(module, fname):
    assert (module, fname) in TRACED
    fn = getattr(importlib.import_module(f"combadc.{module}"), fname)
    params = set(inspect.signature(fn).parameters)
    assert BOUND_PARAMETERS[module, fname] <= params
