"""Host-speed probe: a fixed piece of pure-Python work, timed on the
CPUs a step runs on while it runs.

The benchmark shares a small virtual machine with other tenants, and
the speed of its CPUs moves by 10-30% over seconds to minutes, with the
same code on the same input.  ``run.py`` runs this probe every
``EVERY_S`` seconds during each step, on the step's CPU, and times it
in CPU seconds, so the time the probe waits behind the step does not
count.  The step's wall time times ``REFERENCE_S`` over the probe's
mean time is the wall time the step would have taken at the reference
speed.  The probe is code of the benchmark, not of the program under
test, so a change to the program cannot move it.

The work is a small set-associative LRU cache simulated in pure Python
over a fixed pseudo-random line stream: the same kind of work (an
interpreter loop over small lists and integers) as the reference
simulator, the 4-core loop and the tracers that dominate the
workloads.
"""

from __future__ import annotations

import time

#: Mean probe time, in CPU seconds, on the reference host (a 2-vCPU
#: Intel Xeon VM at its usual speed).
REFERENCE_S = 0.007

#: Seconds between probes: about 3% of one CPU.
EVERY_S = 0.25

#: Hits the probe's cache simulation must count; a different number
#: means the probe did not run the work it is calibrated for.
EXPECTED_HITS = 5_870

ACCESSES = 12_000
SETS, WAYS = 64, 8


def probe() -> float:
    """CPU seconds of one probe on the calling thread's CPU, now."""
    t0 = time.thread_time()
    sets = [[] for _ in range(SETS)]
    x = 12345
    hits = 0
    for _ in range(ACCESSES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 8) % 1024
        ways = sets[line % SETS]
        if line in ways:
            hits += 1
            ways.remove(line)
        elif len(ways) >= WAYS:
            ways.pop(0)
        ways.append(line)
    elapsed = time.thread_time() - t0
    if hits != EXPECTED_HITS:
        raise RuntimeError(f"probe counted {hits} hits, "
                           f"expected {EXPECTED_HITS}")
    return elapsed
