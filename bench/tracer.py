"""Outside-in span tracing of combadc's public stage functions.

Nothing in the package is edited. :meth:`Tracer.install` rebinds, in every
loaded ``combadc`` module, each attribute that refers to a traced function
(``combadc.runner.subband_beat``, ``apply_fir`` in each module that imports
it, ...) to a wrapper that records a span. Spans nest: a span's parent is
the traced call that was running when it started, and its self time is its
duration minus its children's. Spans stay in memory until the repetition
ends; :func:`layer_metrics` then reduces them to the per-layer metrics
named in ``spec.json``.

Wrappers pass arguments and results through untouched, so a traced run
writes the same artifact bytes as an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np


def _n(x) -> int:
    return int(np.size(getattr(x, "samples", x)))


def _rail_codes(cap) -> int:
    if cap.codes is not None:
        rail = 2 ** (cap.cfg.bits - 1)
        return int(np.count_nonzero((cap.codes == -rail) | (cap.codes == rail - 1)))
    return int(np.count_nonzero(np.abs(cap.analog) >= cap.full_scale_used))


# counters recorded at a span's boundary, from its bound arguments and result
_COUNTERS = {
    "frontend.dac_model": lambda a, r: {"samples": _n(r)},
    "comb.subband_beat": lambda a, r: {"samples": _n(a["mu"])},
    "waveform.apply_fir": lambda a, r: {
        "samples": _n(a["x"]),
        "macs": _n(a["x"]) * _n(a["taps"]),
    },
    "adc.adc_capture": lambda a, r: {
        "samples_in": _n(a["x"]),
        "samples_out": r.n,
        "rail_codes": _rail_codes(r),
    },
    "demod.ffe_lms": lambda a, r: {
        "lms_updates": _n(a["training"]) * max(1, a["passes"]),
    },
    "demod.demod_pam4": lambda a, r: {"symbols": _n(a["tx_symbols"])},
}


class Tracer:
    """Records nested spans of wrapped functions in one process."""

    def __init__(self, layers: dict):
        self.layers = layers
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == prefix or name.startswith(prefix + ".")
        ]
        for layer in self.layers.values():
            if layer["module"] is None:
                continue
            home = sys.modules[f"{prefix}.{layer['module']}"]
            for fname in layer["functions"]:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer['module']}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        counters = _COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counters"] = counters(bound.arguments, result)
            return result

        return wrapper


def function_totals(spans: list[dict]) -> dict[str, dict]:
    """Per traced function: total time, self time, calls and counter sums."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, dict] = {}
    for span, children in zip(spans, child_time):
        t = totals.setdefault(
            span["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "counters": {}}
        )
        duration = span["end"] - span["start"]
        t["s"] += duration
        t["self_s"] += duration - children
        t["calls"] += 1
        for key, value in span.get("counters", {}).items():
            t["counters"][key] = t["counters"].get(key, 0) + value
    return totals


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Reduce one repetition's spans to the per-layer metrics of spec.json.

    Functions a workload never calls read 0. ``trace.*`` and the runner's
    task and artifact counts are not span data; the caller adds them.
    """
    totals = function_totals(spans)
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "counters": {}}

    def fn(name: str) -> dict:
        return totals.get(name, empty)

    def count(name: str, key: str) -> int:
        return fn(name)["counters"].get(key, 0)

    def layer_of(index) -> str | None:
        return None if index is None else spans[index]["name"].split(".")[0]

    fir = fn("waveform.apply_fir")
    samples_out = count("adc.adc_capture", "samples_out")
    return {
        # outermost scenario spans only, so load_config's nested
        # validate_scenario and build_combs are not counted twice
        "scenario.s": sum(
            s["end"] - s["start"]
            for i, s in enumerate(spans)
            if layer_of(i) == "scenario" and layer_of(s["parent"]) != "scenario"
        ),
        "scenario.calls": sum(
            t["calls"] for name, t in totals.items() if name.startswith("scenario.")
        ),
        "frontend.scm_waveform.self_s": fn("frontend.scm_waveform")["self_s"],
        "frontend.scm_waveform.calls": fn("frontend.scm_waveform")["calls"],
        "frontend.dac_model.self_s": fn("frontend.dac_model")["self_s"],
        "frontend.sine_waveform.s": fn("frontend.sine_waveform")["s"],
        "frontend.gen_pam4_symbols.calls": fn("frontend.gen_pam4_symbols")["calls"],
        "frontend.samples": count("frontend.dac_model", "samples"),
        "comb.subband_beat.self_s": fn("comb.subband_beat")["self_s"],
        "comb.subband_beat.calls": fn("comb.subband_beat")["calls"],
        "comb.mzm_field.s": fn("comb.mzm_field")["s"],
        "comb.samples": count("comb.subband_beat", "samples"),
        "waveform.apply_fir.s": fir["s"],
        "waveform.apply_fir.calls": fir["calls"],
        "waveform.apply_fir.samples": count("waveform.apply_fir", "samples"),
        "waveform.apply_fir.macs": count("waveform.apply_fir", "macs"),
        "waveform.apply_fir.msa_per_s": (
            count("waveform.apply_fir", "samples") / fir["s"] / 1e6 if fir["s"] else 0.0
        ),
        "waveform.white_noise.s": fn("waveform.white_noise")["s"],
        "waveform.spectrum_to_csv.s": fn("waveform.spectrum_to_csv")["s"],
        "adc.adc_capture.self_s": fn("adc.adc_capture")["self_s"],
        "adc.samples_in": count("adc.adc_capture", "samples_in"),
        "adc.samples_out": samples_out,
        "adc.rail_frac": (
            count("adc.adc_capture", "rail_codes") / samples_out if samples_out else 0.0
        ),
        "metrics.sine_metrics.s": fn("metrics.sine_metrics")["s"],
        "metrics.sine_metrics.calls": fn("metrics.sine_metrics")["calls"],
        "demod.ffe_lms.s": fn("demod.ffe_lms")["s"],
        "demod.lms_updates": count("demod.ffe_lms", "lms_updates"),
        "demod.demod_pam4.self_s": fn("demod.demod_pam4")["self_s"],
        "demod.symbols": count("demod.demod_pam4", "symbols"),
        "runner.self_s": sum(
            t["self_s"] for name, t in totals.items() if name.startswith("runner.")
        ),
    }
