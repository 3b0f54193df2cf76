"""Machine-speed calibration for the end-to-end times.

On a shared 2-core machine the speed of everything in the process drifts
in phases: the same pass runs 20-25% faster or slower for minutes at a
time, which swamps the change a benchmark is meant to detect. A fixed
kernel that never touches the program, timed just before and after each
measured step, tracks that drift: a step's time is scaled by
``REFERENCE_S / kernel time``, i.e. reported in seconds at the speed of a
quiet reference machine. A change to the program moves the step but not
the kernel, so it still shows in full. Raw wall times stay in the record.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Kernel time on the reference machine (2-core Intel Xeon KVM guest,
# quiet phase). Only a scale: any constant keeps ratios between commits.
REFERENCE_S = 0.12

_TEXT = " ".join(f"Word{i % 97} tok{i % 13}, {i}." for i in range(4000))
_FLOATS = [i / 7.0 for i in range(6000)]
# Preallocated, and updated in place below, so the kernel's time does not
# depend on what the allocator holds after the step before it.
_A = np.linspace(0.0, 1.0, 1_000_000)
_M = np.zeros_like(_A)
_T = np.zeros_like(_A)


def kernel_s() -> float:
    """Wall time of a fixed mix like the workloads' own: Python string and
    dict work, memory-bound elementwise numpy, and JSON float encoding."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(6):
        for tok in _TEXT.lower().replace(",", " ,").split():
            counts[tok] = counts.get(tok, 0) + 1
    _M.fill(0.0)
    for _ in range(6):
        np.multiply(_M, 0.9, out=_M)
        np.multiply(_A, 0.1, out=_T)
        np.add(_M, _T, out=_M)
        np.sqrt(_M, out=_T)
        np.add(_T, 1e-8, out=_T)
        np.divide(_A, _T, out=_T)
    for _ in range(10):
        json.dumps(_FLOATS)
    return time.perf_counter() - t0


def sample() -> float:
    """One calibration point: the median of three kernel runs."""
    return sorted(kernel_s() for _ in range(3))[1]
