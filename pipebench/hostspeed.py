"""A fixed reference computation that measures the host's current speed.

The benchmark shares its machine with other work, and the machine's speed
drifts by tens of percent over minutes: on a 2-vCPU VM this computation's
median over a run moved between 5.2 and 7.9 ms from run to run, and the
workloads' times moved with it (correlation 0.86-0.98).  Sampling it
(it uses no program code) throughout a run gives the run's host speed,
and :func:`at_nominal_speed` scales a measured time to a fixed one.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Seconds :func:`reference_seconds` takes on an undisturbed core of the
#: machine the benchmark was tuned on (2-vCPU x86-64 VM, Python 3.11,
#: NumPy 2.4).
NOMINAL_S = 0.005

_RNG = np.random.default_rng(20210101)
_VALUES = _RNG.random(40_000)
_KEYS = _RNG.integers(0, 64, 40_000)
_DOCUMENT = [{"device": f"d{i % 6}", "latency_ms": i * 0.5,
              "rows": list(range(8))} for i in range(150)]


def reference_seconds() -> float:
    """Wall seconds of one fixed mix of Python, NumPy and JSON work."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(3000):
        key = f"k{i % 97}"
        counts[key] = counts.get(key, 0) + i
    np.argsort(_VALUES, kind="stable")
    _, inverse = np.unique(_KEYS, return_inverse=True)
    np.bincount(inverse, weights=_VALUES)
    json.dumps(_DOCUMENT)
    return time.perf_counter() - start


def at_nominal_speed(value: float, unit: str, reference_s: float) -> float:
    """``value`` measured while the reference computation took
    ``reference_s``, scaled to a host on which it takes :data:`NOMINAL_S`.
    Times (``s``, ``ms``) scale with the reference, rates (``1/s``) against
    it, and every other unit is left as it is."""
    if unit in ("s", "ms"):
        return value * NOMINAL_S / reference_s
    if unit == "1/s":
        return value * reference_s / NOMINAL_S
    return value
