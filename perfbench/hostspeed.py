"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark shares a few vCPUs of a host whose speed swings 1.5 to 2.5
times within seconds, with no steal time to show for it, so CPU time swings
with wall time.  The benchmark times this kernel between operations and
scales each operation's time to the speed at which the kernel takes
``NOMINAL_S``.  The kernel mixes the program's three kinds of work:
small-matrix numpy, interpreter-bound dict and list code, and passes over a
16 MB array.  Its inputs are fixed and it calls nothing of ``qrewrite``, so
a change to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.1  # seconds the kernel takes at the reference speed

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((8, 64))
_W = _rng.standard_normal((64, 64)) * 0.1
_BIG = _rng.standard_normal(2_000_000)


def _kernel() -> None:
    x = _X
    for _ in range(1500):
        y = np.maximum(x @ _W, 0.0)
        e = np.exp(y - y.max(axis=1, keepdims=True))
        x = e / e.sum(axis=1, keepdims=True) * 8
    d: dict[int, float] = {}
    for i in range(60000):
        d[i % 997] = d.get(i % 997, 0.0) + i * 0.5
    sorted(str(i) for i in range(20000))
    for _ in range(6):
        b = _BIG.copy()
        b *= 1.0001
        b.sum()


def reference_s() -> float:
    """Wall seconds of one pass of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
