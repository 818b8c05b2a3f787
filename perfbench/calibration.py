"""Machine-speed calibration for the benchmark's timings.

This machine's speed drifts by a quarter or more over minutes (its CPUs
and memory are shared), and a trial's CPU time drifts with it, so run.py
times a fixed kernel between trials and scales every time it reports by
REFERENCE_S / (median kernel time of the run).  The kernel does not touch
rmaccess: one pass of elementwise complex arithmetic over an 8 MB array, then
numpy calls on a 16 x 64 block, the two kinds of work a trial spends its
time on.  The first part carries most of the weight because it tracks the
drift of trial times more closely.  Reported times are thus seconds on the
machine in the state where the kernel takes REFERENCE_S; run.py also prints
the raw wall-clock figures and the scale factor.
"""

from __future__ import annotations

import time
from functools import cache

import numpy as np

REFERENCE_S = 0.04


@cache
def _inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    big = rng.standard_normal((512, 1024)) + 1j * rng.standard_normal((512, 1024))
    small = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
    return big, small


def sample() -> float:
    """Wall seconds of one run of the calibration kernel."""
    big, small = _inputs()
    started = time.perf_counter()
    (big * np.exp(-1j * big.real)).sum()
    for _ in range(300):
        corr = np.einsum("ln,ln->n", small[:, 1::2], np.conj(small[:, 0::2]))
        int(np.argmax(np.abs(corr)))
    return time.perf_counter() - started
