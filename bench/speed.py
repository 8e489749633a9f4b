"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts by tens of
percent within a minute, which moves wall-clock medians more than most
changes worth measuring.  A fixed pure-Python loop, timed just before
and just after each measured phase, tracks that drift: a phase's time
is reported as its wall time times ``REFERENCE_S / calibration``, the
smaller of the two calibrations bracketing it.  Reported seconds are
thus seconds on a machine where the loop takes ``REFERENCE_S`` (about
one unloaded core of a 2-CPU VM with Python 3.11.7).  The loop runs
between phases, never inside one, and touches no cansurf code.
"""

import time

ITERATIONS = 1_000_000
REFERENCE_S = 0.07


def calibrate():
    """Seconds the calibration loop takes now."""
    t = time.perf_counter()
    s = 0
    for i in range(ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t


def factor(*calibrations):
    """Speed factor for a phase bracketed by these calibrations."""
    return REFERENCE_S / min(calibrations)
