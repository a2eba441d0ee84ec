"""Host-speed calibration and the summary statistics of timed samples.

On a shared virtual machine (measured on a 2-vCPU x86_64 guest) CPU speed
drifts by up to 2x between processes and within one, with no CPU steal to
show for it. A fixed pure-Python loop that uses the same interpreter paths
as the simulator (big-int mixing, float math, small-object allocation, dict
stores, string formatting) is timed right before and right after each block
of ops; each op time is then scaled by
``REFERENCE_CALIBRATION_S / calibration``, which expresses it in the time it
would take on a host that runs the loop in exactly the reference time. The
loop is part of the benchmark and must never change, or corrected figures
stop being comparable across commits.

Times are the process's CPU time (user + system). The program computes and
writes small files; the only time it spends off the CPU is waiting on the
shared virtual disk's journal, which varies with other tenants' I/O rather
than with the program.
"""

from __future__ import annotations

import gc
import time

# Median calibration time measured when the benchmark was written
# (2-CPU x86_64 container, CPython 3.11.7).
REFERENCE_CALIBRATION_S = 0.003

_MASK64 = (1 << 64) - 1

clock = time.process_time


class _Pair:
    __slots__ = ("u", "i")

    def __init__(self, u: float, i: int) -> None:
        self.u = u
        self.i = i


def _blend(acc: float, u: float) -> float:
    return acc * 0.5 + u


def calibration_loop(n: int = 3000) -> int:
    """The fixed reference workload; returns a value so nothing is elided."""
    state = 12345
    acc = 0.0
    slots: dict[int, _Pair] = {}
    out: list[str] = []
    for i in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        u = z / 18446744073709551616.0
        p = _Pair(u, i)
        acc = _blend(acc, p.u) if u < 0.5 else round(max(0.0, acc - p.u), 12)
        slots[i & 255] = p
        if i & 7 == 0:
            out.append(f"{acc:.3f},{i}")
    return len(out) + len(slots)


def time_calibration() -> float:
    """CPU time of one calibration loop, in seconds. The cyclic collector is
    paused so that the time does not depend on the caller's live heap; the
    loop creates no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        calibration_loop()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def correction_factor(calibration_s: float) -> float:
    """Multiplier that maps a time measured next to ``calibration_s`` onto the
    reference host speed; exactly 1 when the calibration ran in the
    reference time."""
    return REFERENCE_CALIBRATION_S / calibration_s


def percentile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0..1) with linear interpolation between order
    statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
