"""A fixed reference loop that tells how fast the host runs at a moment.

The benchmark shares its cores with other work whose load comes and goes
over seconds and slows every pass by up to about 2x while it lasts.  The
pass times of a run then split into a fast and a slow group, and which group
holds the median depends on how long the run was slowed.  So each pass of
an in-process workload (weight_tables, point_sweep) is preceded by this
loop, and its pass times are reported in reference seconds:

    reported = wall * REF_S / (wall time of the loop)

taking the slower of the two loops run just before and just after the pass,
so that load which starts or stops during the pass is caught on one side.
The loop is pure-Python complex arithmetic and dict/list churn followed by
numpy complex log/exp over 40 000 points; either half alone tracked the
slow-down of the workloads less well than the two together.  It runs no qkm
code, so no change to the library can change it.
"""

import cmath
import time

import numpy as np

# The loop's nominal time; on a quiet 2-vCPU Xeon it takes about this long,
# so reference seconds read close to the wall seconds of a quiet host.
REF_S = 0.013
_ROUNDS = 15000
_POINTS = 40000


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    started = time.perf_counter()
    table = {}
    z = 0.3 + 0.4j
    for i in range(_ROUNDS):
        z = z * (0.999 + 0.001j) + cmath.exp(-i * 1e-5)
        table[i % 97] = [z, abs(z)]
    a = np.linspace(0.1, 0.9, _POINTS) * np.exp(1j * np.linspace(0.0, 6.0, _POINTS))
    for _ in range(4):
        a = np.exp(np.log1p(-0.5 * a)) * 0.9
    return time.perf_counter() - started


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    """A wall time in reference seconds, given the loops run either side of it."""
    return wall * REF_S / max(ref_before, ref_after)
