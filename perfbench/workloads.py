"""The benchmark's workloads and the inputs it makes for them.

Every input is made here from the workload seed. The library sees only
the resulting CampaignConfig or the lists of matrices.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

INEQ_CHECKS = ("golden_thompson", "lieb_three", "power_integral",
               "tensor_resolvent", "scaled_exponential")
LAM_RANGE = (0.1, 10.0)


def pool_workers() -> int:
    """One worker per CPU this process may run on, and at least two so
    the pool path always runs."""
    return max(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    """One workload at full size, and its toy size for the smoke test.

    ``config`` holds CampaignConfig fields without the seed, or None for
    the library-call workload, which instead evaluates ``sets`` chains of
    each (d, n) in ``shapes``. ``trials`` is the trial count one correct
    unit must report: a whole campaign, or one pass over every chain.
    """

    name: str
    trials: int
    config: dict | None = None
    shapes: tuple[tuple[int, int], ...] = ()
    sets: int = 0
    serial_twin: bool = False  # also run at parallel=1 and compare bytes


_INEQ = dict(suite="inequalities", checks=INEQ_CHECKS, n_values=(3, 4, 5, 6),
             local_dim=2, trials=100, fmt="jsonl")
_INEQ_TOY = dict(_INEQ, n_values=(3, 4), trials=4)
_ALL = dict(suite="all", n_values=(3, 4, 5, 6), local_dim=2, trials=50,
            fmt="csv")
_ALL_TOY = dict(_ALL, n_values=(3, 4), trials=2)
_DEEP_SHAPES = ((2, 7), (2, 8), (2, 9), (2, 10), (3, 5), (3, 6))


def workloads(toy: bool = False) -> dict[str, Workload]:
    """Trial counts: the inequality campaign has 3 fixed-n checks and 2
    checks over the n grid, so 11 * trials at four n values; suite all
    has 26 deterministic trials plus 35 * trials (26 + 23 * trials at two
    n values); tensor_deep makes 3 calls per chain."""
    pool = pool_workers()
    if toy:
        table = [
            Workload("ineq_serial", 28, dict(_INEQ_TOY, parallel=1)),
            Workload("ineq_pool", 28, dict(_INEQ_TOY, parallel=pool),
                     serial_twin=True),
            Workload("all_serial", 72, dict(_ALL_TOY, parallel=1)),
            Workload("tensor_deep", 6, shapes=((2, 7), (3, 5)), sets=1),
        ]
    else:
        table = [
            Workload("ineq_serial", 1_100, dict(_INEQ, parallel=1)),
            Workload("ineq_pool", 1_100, dict(_INEQ, parallel=pool),
                     serial_twin=True),
            Workload("all_serial", 1_776, dict(_ALL, parallel=1)),
            Workload("tensor_deep", 3 * len(_DEEP_SHAPES) * 3,
                     shapes=_DEEP_SHAPES, sets=3),
        ]
    return {w.name: w for w in table}


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar unitary: QR of a complex Ginibre matrix, with the phases of
    diag(R) moved into Q (Mezzadri, arXiv:math-ph/0609050)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def draw_chain(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """n positive-definite d x d matrices with Haar eigenbases and
    log-uniform spectra on LAM_RANGE."""
    lo, hi = np.log(LAM_RANGE[0]), np.log(LAM_RANGE[1])
    chain = []
    for _ in range(n):
        q = haar_unitary(rng, d)
        lam = np.exp(rng.uniform(lo, hi, size=d))
        chain.append((q * lam) @ q.conj().T)
    return chain


def chain_sets(w: Workload, seed: int) -> list[list[list[np.ndarray]]]:
    rng = np.random.default_rng(seed)
    return [[draw_chain(rng, d, n) for d, n in w.shapes] for _ in range(w.sets)]


def setup_code(w: Workload, seed: int) -> str:
    """What a fresh interpreter runs to time set-up: import the library
    and validate the workload's configuration."""
    if w.config is not None:
        fields = dict(w.config, seed=seed)
        return ("import traceineq\n"
                "from traceineq.campaign import CampaignConfig\n"
                f"CampaignConfig(**{fields!r}).validate()\n")
    return ("import traceineq\n"
            "from traceineq.entangle import build_layout\n"
            f"for d, n in {w.shapes!r}:\n"
            "    build_layout(n, d)\n")
