"""Machine-speed calibration for the benchmark's times.

On a shared virtual machine the same fixed work swings by up to 1.8x over
stretches of seconds to minutes as other tenants load the host, which
moves a whole run's median by about 20%. The kernel below is a fixed mix
of interpreter work and small symmetric eigensolves, the two kinds of
work labelalign's runs are made of. Timed right before and right after a
repetition, it measures how fast the machine is at that moment, and a
repetition's time scaled by ``REFERENCE_S / kernel time`` is its time on a
machine where the kernel takes ``REFERENCE_S``. That scaled time changes
with the program, not with the neighbours.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on an Intel Xeon 2-vCPU virtual machine in a quiet stretch.
REFERENCE_S = 0.07
_ITERATIONS = 750


def _matrices() -> list:
    rng = np.random.default_rng(0)
    out = []
    for dim in (8, 22):
        a = rng.standard_normal((dim, 3 * dim))
        out.append(a @ a.T)
    return out


_MATS = _matrices()


def kernel_seconds() -> tuple[float, float]:
    """Run the calibration kernel once; return its wall and CPU time.

    A host that slows the processor inflates both; a host that deschedules
    the virtual CPU (steal) inflates only the wall time. Wall times are
    therefore scaled by the kernel's wall time and CPU times by its CPU time.
    """
    start, start_cpu = time.perf_counter(), time.process_time()
    for _ in range(_ITERATIONS):
        for m in _MATS:
            np.linalg.eigh(m)
        sum([j * 0.5 for j in range(50)])
    return time.perf_counter() - start, time.process_time() - start_cpu


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
