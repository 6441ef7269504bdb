"""Machine-speed gauge: rescales measured times to one reference speed.

A shared virtual machine can change speed by a third or more from one
second to the next, as other tenants load its host, and a whole run can
land in a slow or a fast spell.  Timings taken across such spells disagree
by more than the regressions the benchmark is meant to catch.

The gauge times a fixed piece of pure-Python exact arithmetic, the probe,
every TICK_S seconds of a run.  The probe uses only the standard library,
never conicbundle, so no change to the library can move it.  Every measured
interval is multiplied by REFERENCE_S over the median of the NEAREST probes
taken around it, so that a time reads as it would on a machine where the
probe takes exactly REFERENCE_S.  The probes come at a roughly even pace,
so the ones nearest in order are the ones nearest in time.  The raw median
of the probes is reported alongside, so the machine's actual speed stays
visible.

A cold start runs in a fresh process, whose speed the in-process probe does
not follow.  It is gauged by the start probe instead: a fresh interpreter
that imports the standard modules conicbundle imports, and nothing of
conicbundle, timed just before and just after it.  A cold start is
multiplied by START_REFERENCE_S over the mean of those two.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001
TICK_S = 0.1
NEAREST = 4
WARMUP_PROBES = 20
PROBE_ROUNDS = 3  # sized so that one probe takes about REFERENCE_S
START_REFERENCE_S = 0.05
START_PROBE = "import argparse, dataclasses, fractions, heapq, json, random, re"


def probe() -> float:
    """Seconds taken by the fixed probe computation."""
    start = perf_counter()
    table = {}
    for rnd in range(PROBE_ROUNDS):
        acc = Fraction(rnd)
        for i in range(1, 31):
            term = Fraction(i * i - 7 * i + rnd, 2 * i + 1)
            acc = acc / 3 + term * term
            table[i % 13] = f"{acc.numerator % 9973}/{acc.denominator % 9973}"
    return perf_counter() - start


def start_probe(env: dict, cwd) -> float:
    """Seconds taken by a fresh interpreter running START_PROBE."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", START_PROBE], env=env, cwd=cwd,
                   capture_output=True, check=True, timeout=120)
    return perf_counter() - start


class Gauge:
    """Probe times along one run, and scale factors looked up from them."""

    def __init__(self):
        self.times = []    # midpoint of each probe, increasing
        self.lengths = []  # its duration in seconds
        for _ in range(WARMUP_PROBES):
            probe()
        self.tick()

    def tick(self) -> float:
        """Take one probe now; returns the seconds it took."""
        start = perf_counter()
        length = probe()
        self.times.append(start + length / 2)
        self.lengths.append(length)
        return perf_counter() - start

    def scale(self, t0: float, t1: float) -> float:
        """Factor that takes a time measured over [t0, t1] to reference
        speed: REFERENCE_S over the median of the probes nearest to it."""
        i = bisect.bisect_left(self.times, (t0 + t1) / 2)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return REFERENCE_S / statistics.median(self.lengths[lo:lo + NEAREST])

    def median_probe_ms(self) -> float:
        return statistics.median(self.lengths) * 1e3
