"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared VM the same code runs up to 2x slower for spells of seconds
to minutes, in CPU time as well as wall time, so a raw timing says as much
about the neighbours as about the program. The benchmark runs this kernel
next to every timed op (on every CPU when the op runs in a child process)
and scales the op's time by REF_S / (the kernel's local time): timings are
reported in seconds at the speed at which the kernel takes REF_S. The
kernel mixes what the package spends its time on (big-integer arithmetic,
interpreted loops over dicts and strings, Fraction arithmetic, small numpy
SVDs) and calls nothing of the package, so a change to the package moves the op times and leaves
the kernel alone.
"""

from __future__ import annotations

import os
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# The kernel's time on a 2-vCPU x86_64 VM (Python 3.11, numpy 2.4) in a
# quiet spell: only the scale of the reported times, the same for every
# commit measured.
REF_S = 5.0e-4

_M = np.arange(36.0).reshape(6, 6) + 7 * np.eye(6)
_BIG = 3**700 + 12345


def kernel() -> int:
    # About two thirds of the time goes to big-integer arithmetic: on the
    # shared VM it slows by about the factor the package's ops slow by,
    # while interpreted small-object code alone swings further.
    x = _BIG
    for i in range(70):
        x = (x * x + i) % (_BIG - 2 * i - 1)
    d, s = {}, 0
    for i in range(200):
        d[i % 97] = d.get(i % 97, 0) + i * i % 13
        s += len(str(i))
    f = Fraction(0)
    for i in range(1, 9):
        f += Fraction(1, i)
    for _ in range(2):
        s += int(np.linalg.svd(_M, compute_uv=False)[0])
    return s + f.denominator % 7 + x % 7


def sample(reps: int = 1) -> float:
    """Median time of ``reps`` runs of the kernel."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def sample_cpus(reps: int) -> float:
    """Mean over the CPUs this process may use of ``sample(reps)`` pinned to
    each. A child process runs on any of them, and on a shared VM they can
    differ by 2x at the same moment, so the CPU this process happens to be
    on says little about a child's speed."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(sample(reps))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def scale(raw: list, refs: list, window: int) -> list:
    """``raw[i] * REF_S / m_i``, m_i the median of refs[i-window:i+window+1]."""
    out = []
    for i, t in enumerate(raw):
        local = refs[max(0, i - window):i + window + 1]
        out.append(t * REF_S / statistics.median(local))
    return out
