"""How fast the host is right now, from a fixed reference kernel.

The benchmark runs on a share of a machine whose speed drifts with the
load of its neighbours: the same code runs up to 1.8 times slower for
minutes at a time, on either CPU, with no steal time reported, so CPU
time slows down as much as wall time does. Within one run of
``perfbench/run.py`` the best unit of work can be as slow as the worst
of another run, and no choice of statistic over one run removes that.

The reference kernel is a fixed piece of work in the style of the
workloads: 2x2 numpy calls driven from Python, which is what the
campaigns spend their time on, and a few dense 64x64 products. It uses
nothing from traceineq, so a change to the library leaves it alone.
Timed next to each unit of work, it gives the host's slowdown at that
moment: its time over REFERENCE_S, about its time on the benchmark's
development host (a 2-vCPU KVM guest on a 2.1 GHz Xeon) while the
neighbours were quiet. The benchmark divides unit and set-up times by
that slowdown, so its times are those of the host at that speed. The
raw wall times and slowdowns stay in the run's record.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.100
_SEED = 20170816


def kernel() -> float:
    rng = np.random.default_rng(_SEED)
    mats = rng.normal(size=(64, 2, 2))
    eye = np.eye(2)
    acc = 0.0
    for i in range(5000):
        a = mats[i % 64]
        w, v = np.linalg.eigh(a @ a.T + eye)
        acc += float(((v * np.log(w)) @ v.T).trace())
        acc += len(repr({"i": i, "w": w.tolist()})) * 1e-12
    b = rng.normal(size=(64, 64))
    for _ in range(100):
        b = b @ b.T
        b /= np.linalg.norm(b)
        acc += float(np.linalg.eigvalsh(b)[-1])
    return acc


def slowdown() -> float:
    """The kernel's wall time now, over REFERENCE_S."""
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) / REFERENCE_S
