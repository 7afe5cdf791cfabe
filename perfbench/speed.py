"""Speed probe: how fast this host runs a fixed kernel right now.

The benchmark's host is a few cores of a shared machine.  Its speed
drifts: the same abcdsim run takes anywhere from 0.9 to 1.5 s within one
minute, and the medians of ten invocations of 26 s each spread by up to
a third of their median.  CPU time follows wall time, so the process is
not descheduled; it runs slower while neighbours load the shared caches
and memory.

The probe times a fixed numpy/Python kernel that runs no abcdsim code.
It mixes what abcdsim spends its time on: short FFT pairs and
elementwise work at N=512 from the interpreter, and an N=4096 FFT pair.
It allocates nothing large: whether glibc trims large temporaries and
faults them in again depends on the heap's history, which would make
the probe's own time jump between invocations.  The benchmark runs it between consecutive CLI runs and
scales each run's times by REFERENCE_S / (mean of the probes before and
after it): times at the speed where the probe takes REFERENCE_S.  A
change to abcdsim moves the scaled time by as much as the raw one; a
change in the host's speed moves both the run and the probe.
"""

from __future__ import annotations

import time

import numpy as np

# about the probe's median on the 2-core Intel Xeon VM where the
# benchmark was written; only a scale, the same for every commit
REFERENCE_S = 0.30
ITERATIONS = 6000


def probe() -> float:
    """Seconds this host takes for the fixed kernel now."""
    rng = np.random.default_rng(0)
    small = rng.standard_normal(512)
    big = rng.standard_normal(4096)
    acc = 0.0
    start = time.perf_counter()
    for i in range(ITERATIONS):
        spec = np.fft.rfft(small)
        u = np.fft.irfft(spec * (1.0 + 1e-3 * i), 512)
        acc += float(np.dot(u * small + 0.5 * u * u, small))
        if i % 8 == 0:
            acc += float(np.fft.irfft(np.fft.rfft(big) * 0.5, 4096)[7])
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("speed probe produced a non-finite checksum")
    return elapsed
