"""Host-speed control: a fixed piece of pure-Python work timed next to every
measured operation.

On a shared host the processor's speed changes by up to 1.8x from one
stretch of a few seconds to the next, in process CPU time as much as in wall
time, so raw times of the same code spread by more between runs than any
change worth detecting. The benchmark therefore times this control before
and after each measured block and reports each block's wall time scaled by
``REFERENCE_S`` over the control's time around it: the time the block would
have taken on a host where the control takes ``REFERENCE_S``. The control
runs only the benchmark's own frozen reference model, so no change to
weavelane moves it; a change that makes weavelane faster or slower moves the
scaled time by the same factor as the raw one. Raw wall times are reported
next to the scaled ones.
"""

from __future__ import annotations

import time

import gen
import reference as ref

#: Nominal control time: about its median on the 2-vCPU sandbox the
#: benchmark was written on (1.6 ms when that host ran fast, 3.5 ms at worst).
REFERENCE_S = 0.0027
_POINTS = 340

perf = time.perf_counter
_coeffs = dict(ref.DEFAULTS)
_r = gen.stream(0, "hostspeed")
_flows = [gen.flows(_r) for _ in range(_POINTS)]


def _once() -> float:
    start = perf()
    total = 0.0
    for n in _flows:
        a = ref.affine(_coeffs, n)
        for k in range(5):
            total += ref.social(_coeffs, n, k * 0.25, a)
    return perf() - start


def control_s() -> float:
    """The control's time now: the fastest of three after one warm-up."""
    _once()
    return min(_once() for _ in range(3))


def factor(before: float, after: float) -> float:
    """Scale from wall time to reference-host time for a block timed
    between two controls."""
    return 2.0 * REFERENCE_S / (before + after)
