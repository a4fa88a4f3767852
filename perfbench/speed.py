"""The host's speed, sampled around every timed operation.

On a shared host each vCPU's speed changes by up to ~2x from one second to
the next (its core and caches are shared with other tenants; no steal time
is reported and no hardware counters are exposed), and the two vCPUs change
independently.  Over a whole run the share of time spent slow varies, so the
raw wall times of the same code move between runs by more than any bound a
gated metric may have.

Every timed operation of the learn, herd and serve phases is therefore
bracketed by a probe: a fixed kernel from this file (pure Python loops,
small GEMMs and random reads from an array larger than a core's private
caches; never code from ``src/``), run on the CPUs the operation uses.
A gated timing is the operation's wall time rescaled to the reference probe
speed::

    normalised = wall * REFERENCE_PROBE_S / mean(probe before, probe after)

so it reads "seconds on a host where the probe takes REFERENCE_PROBE_S".
The probe does not depend on the measured code, so a change that makes the
program faster or slower moves the normalised time by the same share as
the wall time.  The raw wall-time figures are printed and recorded beside
the gated ones.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator, List, Sequence

import numpy as np

#: The probe's time at the reference speed (its median on the 2-vCPU host
#: the first baseline ran on).  Only a unit: it scales every normalised
#: timing by the same factor.
REFERENCE_PROBE_S = 0.0025
PROBE_LOOP = 12000
PROBE_GEMMS = 16
PROBE_DICT = 2400
PROBE_GATHERS = 4
_GEMM_OPERAND = np.random.default_rng(0).standard_normal((96, 96))
#: 4 MB, more than a core's private caches hold: the gathers feel what
#: other tenants do to the shared cache and memory bandwidth.
_GATHER_SOURCE = np.random.default_rng(1).standard_normal(1 << 19)
_GATHER_INDEX = np.random.default_rng(2).integers(0, _GATHER_SOURCE.size, 1 << 14)

clock = time.perf_counter


def probe_kernel() -> float:
    """Seconds the fixed kernel takes on the calling thread's CPU now."""
    start = clock()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    for _ in range(PROBE_GEMMS):
        _GEMM_OPERAND @ _GEMM_OPERAND
    counts: dict = {}
    for i in range(PROBE_DICT):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    for _ in range(PROBE_GATHERS):
        _GATHER_SOURCE[_GATHER_INDEX].sum()
    return clock() - start


def usable_cpus() -> List[int]:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return []


@contextmanager
def pinned(cpus: Sequence[int]) -> Iterator[None]:
    """Run the calling thread on ``cpus`` only; restore its CPUs after."""
    if not cpus or not hasattr(os, "sched_setaffinity"):
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus))
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def probe(cpus: Sequence[int]) -> float:
    """Mean probe time over ``cpus``, the kernel pinned to each in turn
    (unpinned when the platform has no CPU affinity)."""
    if len(cpus) <= 1:
        with pinned(cpus):
            return probe_kernel()
    times = []
    for cpu in cpus:
        with pinned([cpu]):
            times.append(probe_kernel())
    return sum(times) / len(times)


def normalise(walls: Sequence[float], probes: Sequence[float]) -> List[float]:
    """Each wall time rescaled to the reference probe speed."""
    if len(walls) != len(probes):
        raise ValueError(f"{len(walls)} walls, {len(probes)} probes")
    return [w * REFERENCE_PROBE_S / p for w, p in zip(walls, probes)]
