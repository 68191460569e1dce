"""Interval timing in reference seconds, steady on a shared host.

On a shared virtual machine the speed of a vCPU swings by up to 1.6x over
seconds to minutes as other tenants load the host, and every instruction
slows alike: CPU time inflates with wall-clock, so neither clock gives a
steady number.  :class:`RefClock` runs a fixed probe kernel (small matrix
products and an interpreter loop, the mix a DNN-Opt study runs) before and
after each timed interval and scales the interval's wall-clock by
``PROBE_REF_S`` over the probes' mean duration.  The result is the
interval's duration on a host where the probe takes ``PROBE_REF_S``; on
the 2-vCPU development host that is its uncontended speed.  Raw
wall-clock is kept alongside.

The probe shares the host with the program, so this assumes the program
leaves nothing running between steps: load it does leave there slows the
probe as well and cancels out.  Each study therefore also records idle
probes taken before set-up, and a run warns when the probes inside
``Study.run`` are markedly slower than those.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

__all__ = ["RefClock", "PROBE_REF_S"]

#: probe duration that defines one reference second (uncontended speed of
#: the 2-vCPU host the benchmark was written on)
PROBE_REF_S = 0.004

_A = np.random.default_rng(0).standard_normal((128, 64))
_W = np.random.default_rng(1).standard_normal((64, 64))


def _probe_kernel() -> None:
    for _ in range(150):
        np.maximum(_A @ _W, 0.0)
    total = 0
    for i in range(30_000):
        total += i


class RefClock:
    """Times intervals in reference seconds using adjacent probes.

    Consecutive intervals share a probe: the probe after one interval is
    the probe before the next.  ``probe_s`` sums the time spent probing, so
    a caller can take it out of an enclosing raw wall-clock.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.probe_s = 0.0
        self._last: float | None = None

    def probe(self) -> float:
        start = perf_counter()
        _probe_kernel()
        seconds = perf_counter() - start
        self.probes.append(seconds)
        self.probe_s += seconds
        self._last = seconds
        return seconds

    def scale(self, raw_s: float, before: float, after: float) -> float:
        return raw_s * PROBE_REF_S / ((before + after) / 2.0)

    def time(self, call, *args):
        """``(result, raw seconds, reference seconds)`` of ``call(*args)``."""
        before = self._last if self._last is not None else self.probe()
        start = perf_counter()
        result = call(*args)
        raw = perf_counter() - start
        after = self.probe()
        return result, raw, self.scale(raw, before, after)

    def median_factor(self) -> float:
        """Reference seconds per raw second over every probe so far."""
        return PROBE_REF_S / statistics.median(self.probes)
