"""Every imported name in the package, its tests and its scripts is
used, the package stays off scipy's slow-loading modules, and the stages
keep the shape of their inputs.

Walks the syntax tree of each module: a name bound by an import must be
read somewhere in the file, or listed in its ``__all__`` (a re-export).
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

from combadc.adc import adc_capture
from combadc.comb import subband_beat
from combadc.demod import demod_pam4
from combadc.frontend import dac_model
from combadc.metrics import sine_metrics

ROOT = Path(__file__).resolve().parent.parent
FILES = [
    path
    for folder in ("src/combadc", "tests", "scripts")
    for path in sorted((ROOT / folder).glob("*.py"))
]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(imported - used)


def test_no_unused_imports():
    unused = {
        str(path.relative_to(ROOT)): names
        for path in FILES
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}


# modules the package keeps off its load path: scipy.signal alone costs
# about 1 s of start-up, and it brings scipy.stats and scipy.interpolate;
# scipy.linalg costs 43-62 ms and 6.2 MiB on top of numpy, scipy.fft and
# scipy.special (2-vCPU x86 host)
HEAVY = {
    "scipy.signal",
    "scipy.constants",
    "scipy.stats",
    "scipy.interpolate",
    "scipy.linalg",
}


def _heavy_imports(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [n for n in names if any(n == h or n.startswith(h + ".") for h in HEAVY)]
    return found


def test_package_imports_no_heavy_scipy_module():
    heavy = {
        str(path.relative_to(ROOT)): names
        for path in FILES
        if path.parent.name == "combadc"
        and (names := _heavy_imports(ast.parse(path.read_text())))
    }
    assert heavy == {}


_RUNS = """
import sys
from combadc import load_config, run_scm, run_sweep

load_config("")
cfg = load_config(
    "sweep.start = 5.5ghz\\nsweep.stop = 5.5ghz\\nsweep.duration = 20us\\n"
    "metrics.n_fft = 4096\\nscm.duration = 0.5us\\n"
)
run_sweep(cfg, sys.argv[1], jobs=1)
run_scm(cfg, sys.argv[2], jobs=1, channels=[5])
lms = load_config("scm.duration = 0.5us\\ndemod.equalizer = lms\\n")
run_scm(lms, sys.argv[3], jobs=1, channels=[5])
print(" ".join(sorted(sys.modules)))
"""


def test_runs_never_load_heavy_scipy_modules(tmp_path):
    """Not even deferred: a load, a sweep point and a burst channel
    demodulated by each trained equalizer leave every one of them out of
    ``sys.modules``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _RUNS]
        + [str(tmp_path / d) for d in ("sweep", "scm", "lms")],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = set(done.stdout.split())
    assert "combadc.demod" in loaded
    assert HEAVY & loaded == set()


def test_metrics_and_demod_read_a_waveform_not_a_capture():
    """Each stage takes one input type: the scoring stages read only a
    waveform, so they import nothing from the ADC's module."""
    for name in ("metrics.py", "demod.py"):
        tree = ast.parse((ROOT / "src" / "combadc" / name).read_text())
        sources = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert not sources & {"adc", "combadc.adc"}, name


def test_stages_take_no_switch_keywords():
    """Each stage reads every on/off switch from its own config, so the
    runner passes it no flag of its own: no stage takes a bool, and the
    DAC takes no setting beside its config."""
    stages = (dac_model, subband_beat, adc_capture, sine_metrics, demod_pam4)
    for stage in stages:
        for p in inspect.signature(stage).parameters.values():
            is_bool = p.annotation in (bool, "bool") or isinstance(p.default, bool)
            assert not is_bool, f"{stage.__name__}({p.name})"
    params = inspect.signature(dac_model).parameters.values()
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == []
