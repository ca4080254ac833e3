"""Host-speed calibration: a fixed reference timed next to every op.

The reference machine is two vCPUs of a host shared with other guests,
and its speed drifts by tens of percent over seconds to minutes: one
``threshold_V`` column took from 75 ms to 155 ms within one minute, in
CPU time as in wall time (so the guest is not descheduled; its CPU is
slower). Over twenty 15-s windows the median time of a column spread by
0.33 (interquartile range over median) and that of a ``classify`` call
by 0.36, while the same times divided by the time of the kernel below,
taken next to them, spread by 0.06 and 0.05.

In-process ops are calibrated by ``kernel``, a fixed mix of interpreter
function calls on floats and numpy expressions on 2048-element arrays,
the two kinds of work eulerfan does. Of five kernels tried (a plain
float loop with numpy on larger arrays, each half alone, and two
blends) it tracked both ops best. Child processes (``cli_cold`` ops and set-up) spend
their time starting an interpreter and importing, which that kernel does
not track, nor does a child that imports numpy alone: over eight 15-s
windows the median CLI process spread by 0.12 as timed and by 0.21
scaled by such a child. They are calibrated by a child that starts an
interpreter and imports the package's dependencies, numpy and
``scipy.optimize`` (``REFERENCE_CHILD``); scaled by it, the same spread
was 0.025 where the raw one was 0.12. Neither reference calls anything
in the program, so a change to the program does not change its time:
were the package to stop importing scipy, its scaled times would fall as
its timed ones do. Every op's time is reported at the reference speed:
multiplied by the reference's time at that speed over its time measured
around the op.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: The references' times at the reference speed, in seconds: their
#: typical times on the reference machine (2 vCPUs of an Intel Xeon at
#: 2.1 GHz, Python 3.11, numpy 2.4, scipy 1.17).  A change of these
#: constants rescales the timing metrics and so is a change of the
#: benchmark, not of the program.
REFERENCE_S = 0.004
REFERENCE_CHILD_S = 0.8
#: Arguments of the reference child (after the interpreter).
REFERENCE_CHILD = ["-c", "import numpy, scipy.optimize"]

_X = np.linspace(1.0, 4.0, 2048)


def _f(x: float) -> float:
    return math.sqrt(x) * x ** 1.5 / (x + 1.0)


def kernel() -> float:
    total = 0.0
    for i in range(1, 5000):
        total += _f(1.0 + i * 1e-4)
    for i in range(150):
        y = np.sqrt(_X) * _X ** 1.5 + 0.5 * _X
        total += float(np.where(y > 3.0 + i * 1e-3, y, 0.0).max()) + math.sqrt(i + 1.0)
    return total


def probe() -> float:
    """Seconds one kernel call takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Speed:
    """Reference-speed factors from probes taken between ops.

    ``probe`` times one run of the reference and ``reference_s`` is its
    time at the reference speed; the default is the in-process kernel.
    """

    def __init__(self, probe=probe, reference_s=REFERENCE_S):
        self.probe = probe
        self.reference_s = reference_s
        self.last = probe()
        self.probed = 0.0  # seconds spent in probes since construction

    def factor(self) -> float:
        """Probe again: the factor for the work done since the last probe.

        The factor is ``reference_s`` over the mean of the probes before
        and after the work; an op time times the factor is its time at
        the reference speed.
        """
        start = perf_counter()
        now = self.probe()
        self.probed += perf_counter() - start
        factor = self.reference_s / (0.5 * (self.last + now))
        self.last = now
        return factor
