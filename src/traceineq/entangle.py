"""Maximally entangled pairings and the tensor factor layout.

The unnormalized vector Omega_m = sum_L |L> (x) |L> over the product
basis of m local factors turns traces of products into expectation
values: <Omega| X (x) Y^T |Omega> = Tr[X Y]. With row-major (kron)
flattening Omega_m is literally the flattened identity, and the rank-one
pairing operator P_m = |Omega_m><Omega_m| at local dimension d coincides
entrywise with P_{m/2} at local dimension d^2, which is what lets the
doubling construction nest.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import shape_params, slot_sources, thue_morse
from .errors import DimensionCap, DimensionMismatch
from .linalg import kron_all, stack_norm, stack_slices
from .report import identity_report

DIM_CAP = 3 ** 8  # total tensor dimension ceiling of the factored tensor routes
DENSE_CAP = 512  # the same with dense=True, for the derivative form's D x D operands


def omega_vector(local_dim: int, copies: int) -> np.ndarray:
    """Flattened identity on (C^d)^{(x) m}; squared norm d^m."""
    if local_dim < 2 or copies < 1:
        raise DimensionMismatch(
            f"need local_dim >= 2 and copies >= 1, got ({local_dim}, {copies})"
        )
    return np.eye(local_dim ** copies, dtype=complex).reshape(-1)


def projector(local_dim: int, copies: int) -> np.ndarray:
    """Rank-one pairing operator |Omega_m><Omega_m|, trace d^m, squares
    to d^m times itself."""
    v = omega_vector(local_dim, copies)
    return np.outer(v, v)


def pairing_check(x, y, copies: int = 1, atol: float = 1e-12, seed=None):
    """Tr[X Y] against <Omega| X (x) Y^T |Omega>, reported as a residual:
    lhs is the complex gap |Tr XY - <Omega| X (x) Y^T |Omega>|, rhs is 0,
    and rtol = atol applies per unit of max(1, ||X|| ||Y||) (Frobenius).
    Stacks (K, dim, dim) of pairs give one report per pair, given a list
    of K seeds; X (x) Y^T is formed for a stack_slices slice at a time,
    and each pair's sums run as for that pair alone."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape or x.ndim not in (2, 3) or x.shape[-1] != x.shape[-2]:
        raise DimensionMismatch(f"operands must be square and congruent, "
                                f"got {x.shape} and {y.shape}")
    dim = x.shape[-1]
    local = round(dim ** (1.0 / copies))
    if local ** copies != dim:
        raise DimensionMismatch(
            f"dimension {dim} is not a perfect {copies}-th power")
    om = omega_vector(local, copies)
    xs, ys = x.reshape(-1, dim, dim), y.reshape(-1, dim, dim)
    # both sides may be complex; judge the full complex gap per unit norm
    paired = np.concatenate([(om.conj() @ kron_all([xs[s], ys[s].swapaxes(-1, -2)]))[:, None]
                             @ om[:, None] for s in stack_slices(len(xs), dim ** 4)])
    gaps = np.trace(xs @ ys, axis1=-2, axis2=-1) - paired[:, 0, 0]
    gaps = np.hypot(gaps.real, gaps.imag)  # as abs() of one complex number
    scales = np.maximum(1.0, stack_norm(xs) * stack_norm(ys))
    if x.ndim == 2:
        gaps, scales = gaps[0], scales[0]
    return identity_report("pairing_identity", gaps, 0.0, atol=0.0, rtol=atol, scale=scales,
                           seed=seed, params={"copies": copies, "dim": dim})


@dataclass(frozen=True)
class MidSlot:
    """One middle factor: its slot index, source matrix (None for an
    identity pad), and whether the content enters conjugated."""

    slot: int
    source: int | None
    conjugate: bool


@dataclass(frozen=True)
class FactorLayout:
    """Placement of every factor in the two tensor operands.

    The base operand (argument of the log-derivative) is the Kronecker
    product over ``mid_slots`` in order. The sandwiched operand is
    X_1 (x) conj(X_n) followed by one pairing block per entry of
    ``pair_copies``, the block with m copies spanning 2m consecutive
    factors. The outer expectation pairs the first half of all factors
    with the second half via ``outer_copies`` copies.
    """

    n: int
    local_dim: int
    level_count: int
    factor_count: int
    total_dim: int
    mid_slots: tuple[MidSlot, ...]
    pair_copies: tuple[int, ...]
    outer_copies: int


@lru_cache(maxsize=None)
def build_layout(n: int, local_dim: int, dense: bool = False) -> FactorLayout:
    """Factor placement for an n-matrix chain at local dimension d."""
    if local_dim < 2:
        raise DimensionMismatch(f"local dimension must be >= 2, got {local_dim}")
    shape = shape_params(n)
    total = local_dim ** shape.factor_count
    cap = DENSE_CAP if dense else DIM_CAP
    if total > cap:
        raise DimensionCap(
            f"total dimension {local_dim}^{shape.factor_count} = {total} "
            f"exceeds cap {cap}")
    slots = tuple(
        MidSlot(slot=j + 2, source=src,
                conjugate=bool(thue_morse(j + 2)) if src is not None else False)
        for j, src in enumerate(slot_sources(n))
    )
    pair_copies = tuple(2 ** j for j in range(shape.level_count - 1))
    return FactorLayout(
        n=n,
        local_dim=local_dim,
        level_count=shape.level_count,
        factor_count=shape.factor_count,
        total_dim=total,
        mid_slots=slots,
        pair_copies=pair_copies,
        outer_copies=2 ** (shape.level_count - 1),
    )
