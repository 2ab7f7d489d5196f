"""Host-speed probe: the yardstick the benchmark's times are corrected by.

The benchmark host is a share of a larger machine. How fast it runs the
same code changes by half or more for tens of seconds at a time, as other
tenants come and go, and it changes for all code at once: interpreter
start-up, Python loops and numpy kernels alike. A wall time alone
therefore says as much about the host as about the program.

The probe times a fixed mix of kernels shaped like the program's own work
(an FFT convolution with 257 taps, Hilbert transforms, normal draws, an
elementwise ``tanh``, a Python loop of 17-tap dot products like the LMS
equalizer's, and a plain Python loop). It uses only numpy, scipy and
Python, never combadc, so a change to the program cannot change the probe.
bench/child.py runs it right after set-up and right after the ``run_*``
call, in the same process context and on the same CPU, and bench/run.py
scales each time by ``REFERENCE_S`` over the probe's time next to it.

The probe runs in a forked copy of the caller, so the caller's own memory,
and with it its ``ru_maxrss``, is left as it was.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from scipy import signal

# the probe's median time on the host the benchmark was calibrated on
# (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1); corrected times are seconds on that host at that speed
REFERENCE_S = 0.1


def _kernels() -> list:
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1 << 18)
    taps = rng.standard_normal(257)
    u = np.full(17, 0.01)

    def fir():
        signal.fftconvolve(x, taps, mode="same")

    def hilbert():
        for _ in range(3):
            signal.hilbert(x[: 1 << 17])

    def normal():
        gen = np.random.default_rng(1)
        for _ in range(2):
            gen.standard_normal(1 << 19)

    def tanh():
        for _ in range(4):
            np.tanh(x * 1.5 + 0.1)

    def lms():
        w = np.zeros(17)
        for _ in range(6000):
            e = 0.5 - float(np.dot(w, u))
            w += 0.01 * e * u

    def loop():
        s = 0
        for i in range(240_000):
            s += i * i

    return [fir, hilbert, normal, tanh, lms, loop]


def measure() -> float:
    """Seconds for one timed pass of the kernels, after an untimed one."""
    kernels = _kernels()
    for kernel in kernels:
        kernel()
    t0 = time.perf_counter()
    for kernel in kernels:
        kernel()
    return time.perf_counter() - t0


def forked_measure() -> float:
    """:func:`measure` in a forked copy of this process."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.write(write_fd, json.dumps(measure()).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"host-speed probe exited with status {status}")
    return json.loads(data)
