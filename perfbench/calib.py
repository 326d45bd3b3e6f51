"""A fixed reference loop that measures how fast the host runs right now.

On a shared host (measured on a 2-vCPU Xeon VM), CPU-bound code can run up
to twice as slow, in phases that switch within a second and last from
seconds to minutes.  Each job process
times this loop just before and just after its `etaq` call, and run.py
divides the times it reports by how much slower than REF_SECONDS the loop
ran.  The loop mixes interpreted integer and float work with small numpy
operations, as the `etaq` kernels do.
"""

import time

import numpy as np

REF_SECONDS = 0.0045  # one loop on a 2 GHz Xeon vCPU in its fast phase
SAMPLES = 8           # loops timed before, and again after, each job


def ref_loop() -> float:
    """Seconds one pass of the reference loop took."""
    t0 = time.perf_counter()
    acc = np.zeros(64)
    comp = np.zeros(64)
    s = 0
    for k in range(1, 2000):
        s += k % 7
        if k % 3:
            y = acc * 1e-9 - comp
            t = acc + y
            comp[:] = (t - acc) - y
            acc[:] = t
    return time.perf_counter() - t0


def sample(n: int = SAMPLES) -> list[float]:
    ref_loop()  # the first loop pays for cold caches
    return [ref_loop() for _ in range(n)]
