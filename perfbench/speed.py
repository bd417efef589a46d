"""Machine-speed probe used to put timings on a common scale.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes while other tenants come and go: the same call measured a
minute apart can differ by half. A fixed pure-Python reference loop slows
down by nearly the same factor, so the benchmark times it next to the
calls it measures and reports each time scaled to the reference loop's
nominal duration:

    reported = measured * REF_NOMINAL_S / (measured duration of the reference loop)

A change to the program cannot change the reference loop, so a slower
program still reads slower; only the machine's drift cancels. The garbage
collector is off while the loop runs, so a large heap left by the program
cannot slow the probe either.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

REF_ITERATIONS = 40_000
# Duration of the reference loop on the machine the bounds were set on, in
# its faster phase (2-vCPU VM, Python 3.11.7); it only sets the unit.
REF_NOMINAL_S = 0.004
PROBE_SAMPLES = 5


def _reference_loop() -> float:
    table = [0.5 * i for i in range(256)]
    best = total = 0.0
    for i in range(REF_ITERATIONS):
        v = table[i & 255]
        p = table[(i * 7) & 255] - v
        if p > best:
            best = p
        total += p
    return total + best


def probe(samples: int = PROBE_SAMPLES) -> list[float]:
    """Durations of ``samples`` runs of the reference loop."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        durations = []
        for _ in range(samples):
            start = perf_counter()
            _reference_loop()
            durations.append(perf_counter() - start)
        return durations
    finally:
        if was_enabled:
            gc.enable()


def scale(samples) -> float:
    """Factor that turns times measured next to these probe samples into nominal-speed times."""
    return REF_NOMINAL_S / statistics.median(samples)
