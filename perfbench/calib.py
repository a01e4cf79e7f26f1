"""Host-speed calibration and the summary statistics of a run.

The host this benchmark runs on changes speed by up to 2x within seconds,
and CPU time moves with the wall clock, so no clock hides the swing.  Every
timed operation is therefore measured against a reference kernel that uses
only the standard library (Fraction and int arithmetic, never hypiso):

* the kernel runs ``BRACKET`` times just before and just after the
  operation, and
* while the operation runs, a SIGALRM every ``PROBE_INTERVAL_S`` runs the
  kernel once more, between two bytecodes of the operation.

The kernel's mean time over the probes taken during the operation (or, for
an operation too short to be probed ``MIN_PROBES`` times, over all probes
around it) says how fast the host ran.  The operation's own time, less the
probes', is scaled to a nominal host on which the kernel takes
``NOMINAL_KERNEL_US``:

    calibrated = (raw - probe time) * NOMINAL_KERNEL_US / mean kernel time

Calibrated times therefore read as if the host had run at its nominal
speed throughout.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# The kernel's median time on the host where the reference figures in
# README.md were measured.
NOMINAL_KERNEL_US = 150.0
BRACKET = 4
PROBE_INTERVAL_S = 0.002
MIN_PROBES = 5

_M = (Fraction(2), Fraction(1), Fraction(1), Fraction(1))
_E = (Fraction(0), Fraction(-1), Fraction(1), Fraction(1, 2))


def ref_kernel() -> int:
    """A few tens of microseconds of the work hypiso does: 2x2 Fraction
    matrix products with small entries, and free reduction of an int word."""
    x = _M
    hyperbolic = 0
    for i in range(8):
        a, b, c, d = x
        p, q, r, s = _E if i & 1 else _M
        x = (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)
        if i & 3 == 3:
            hyperbolic += abs(x[0] + x[3]) > 2
            x = _M
    word: list[int] = []
    for i in range(24):
        letter = (i * 7) % 5 - 2 or 1
        if word and word[-1] == -letter:
            word.pop()
        else:
            word.append(letter)
    return hyperbolic + len(word)


class Calibrated:
    """Times operations against the reference kernel run around and inside them."""

    def __init__(self, kernel=ref_kernel, nominal_us: float = NOMINAL_KERNEL_US,
                 interval_s: float = PROBE_INTERVAL_S):
        self.kernel = kernel
        self.nominal_s = nominal_us / 1e6
        self.interval_s = interval_s
        self.kernel_samples: list[float] = []
        # seconds spent in probes inside operations so far, for layers.Tracer
        self.probe_time = [0.0]

    def _probe(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def _bracket(self) -> list[float]:
        return [self._probe() for _ in range(BRACKET)]

    def scale(self, net_s: float, inside: list[float], around: list[float]) -> float:
        samples = inside if len(inside) >= MIN_PROBES else inside + around
        return net_s * self.nominal_s / statistics.fmean(samples)

    def time(self, fn, *args):
        """(result, calibrated seconds, raw seconds without the probes)."""
        inside: list[float] = []
        gc.collect()  # every operation starts from the same collector state

        def on_alarm(signum, frame):
            dt = self._probe()
            inside.append(dt)
            self.probe_time[0] += dt

        before = self._bracket()
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            raw = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        after = self._bracket()
        net = raw - sum(inside)
        self.kernel_samples += before + inside + after
        return out, self.scale(net, inside, before + after), net


class TooFewSamples(ValueError):
    """A tail was asked of fewer samples than make one."""


MIN_TAIL_SAMPLES = 40


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with at
    least ten samples beyond it.  Below 40 samples that is no tail at all."""
    n = len(samples)
    if n < MIN_TAIL_SAMPLES:
        raise TooFewSamples(f"{n} samples; a tail needs at least {MIN_TAIL_SAMPLES}")
    rank = n - 10
    return sorted(samples)[rank - 1], 100.0 * rank / n


def p50(samples: list[float]) -> float:
    return statistics.median(samples)
