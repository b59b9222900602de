"""Seconds at a reference interpreter speed.

The machine this benchmark was tuned on runs the same Python code at speeds
that differ by up to 1.7x from one second to the next and from one process to
the next; CPU time moves with wall time, so no other clock removes it.  The
benchmark therefore runs a fixed calibration kernel between its timed calls,
for CAL_SHARE of the time they took, and scales every time it reports by the
kernel's rate against CAL_REF:

    reported = measured * (kernel rate / CAL_REF)

A change to kelvinfn does not touch the kernel, so it moves only the measured
time.  The kernel is pure-Python float and complex arithmetic with calls,
comparisons and abs(), the mix of kelvinfn's series loops.
"""

from __future__ import annotations

from time import perf_counter

CAL_SHARE = 0.2
# Kernel runs per second in the common, slower state of a shared 2-core
# x86-64 VM under Python 3.11, so reported times stay close to seconds.
CAL_REF = 15000.0


def _ratio(k: int, q: complex, nu: float) -> complex:
    return q / ((k + 1.0) * (nu + k + 1.0))


def kernel() -> float:
    """One calibration unit: three 40-term Bessel-type series at |z| = 5."""
    big = 0.0
    q = complex(0.0, 6.25)
    for nu in (0.3, 1.7, 4.1):
        t = complex(1.0, 0.5)
        s = 0j
        for k in range(40):
            t = t * _ratio(k, q, nu)
            s += t
            m = abs(t)
            if m > big:
                big = m
    return big + abs(s)


class Clock:
    """Accumulates kernel runs; ``scale`` turns measured seconds into
    reference seconds."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def calibrate(self, work_s: float) -> float:
        """Run the kernel for CAL_SHARE * work_s (at least once); return the
        scale measured by this run alone."""
        t0 = perf_counter()
        n = 0
        while True:
            kernel()
            n += 1
            t = perf_counter() - t0
            if t >= CAL_SHARE * work_s:
                break
        self.units += n
        self.seconds += t
        return n / t / CAL_REF

    def scale(self) -> float:
        """Scale measured over every calibration run so far."""
        return self.units / self.seconds / CAL_REF
