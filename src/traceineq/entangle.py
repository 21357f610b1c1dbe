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
from .linalg import kron_all, stack_slices
from .report import identity_report

DIM_CAP = 3 ** 8  # total dimension ceiling of the factored tensor routes and pairing_check
DENSE_CAP = 512  # the same with dense=True, for the derivative form's D x D operands
PAIRING_RTOL = 1e-12  # pairing_check's gap per unit of max(1, ||X|| ||Y||)


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


def pairing_cap(dim: int) -> None:
    """Raise DimensionCap if X (x) Y^T, for dim x dim X and Y, passes DIM_CAP."""
    if dim * dim > DIM_CAP:
        raise DimensionCap(f"X (x) Y^T of dimension {dim}^2 = {dim * dim} "
                           f"exceeds cap {DIM_CAP}")


def pairing_check(x, y, copies: int = 1, seed=None):
    """Tr[X Y] against <Omega| X (x) Y^T |Omega>, reported as a residual:
    lhs is the complex gap |Tr XY - <Omega| X (x) Y^T |Omega>|, rhs is 0,
    and rtol = PAIRING_RTOL applies per unit of max(1, ||X|| ||Y||)
    (Frobenius). Stacks (K, dim, dim) of pairs give one report per pair,
    given a list of K seeds; X (x) Y^T, of dimension dim^2 <= DIM_CAP, is
    formed for a stack_slices slice at a time, and each pair's sums run as
    for that pair alone."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape or x.ndim not in (2, 3) or x.shape[-1] != x.shape[-2]:
        raise DimensionMismatch(f"operands must be square and congruent, "
                                f"got {x.shape} and {y.shape}")
    dim = x.shape[-1]
    pairing_cap(dim)
    if copies < 1:
        raise DimensionMismatch(f"copies must be >= 1, got {copies}")
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
    scales = np.maximum(1.0, np.linalg.norm(xs, axis=(-2, -1))
                        * np.linalg.norm(ys, axis=(-2, -1)))
    return identity_report("pairing_identity", gaps, 0.0, atol=0.0, rtol=PAIRING_RTOL,
                           scale=scales, seed=seed, params={"copies": copies, "dim": dim})


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

    @property
    def full_n(self) -> int:
        """Chain length after padding up to the next power of two."""
        return self.factor_count + 2

    @property
    def pad_count(self) -> int:
        """Identity factors inserted."""
        return self.full_n - self.n


@lru_cache(maxsize=None)
def build_layout(n: int, local_dim: int, dense: bool = False) -> FactorLayout:
    """Factor placement for an n-matrix chain at local dimension d."""
    if local_dim < 2:
        raise DimensionMismatch(f"local dimension must be >= 2, got {local_dim}")
    level = shape_params(n)
    factors = 2 ** level
    total = local_dim ** factors
    cap = DENSE_CAP if dense else DIM_CAP
    if total > cap:
        raise DimensionCap(
            f"total dimension {local_dim}^{factors} = {total} "
            f"exceeds cap {cap}")
    slots = tuple(
        MidSlot(slot=j + 2, source=src,
                conjugate=bool(thue_morse(j + 2)) if src is not None else False)
        for j, src in enumerate(slot_sources(n))
    )
    return FactorLayout(
        n=n,
        local_dim=local_dim,
        level_count=level,
        factor_count=factors,
        total_dim=total,
        mid_slots=slots,
        pair_copies=tuple(2 ** j for j in range(level - 1)),
        outer_copies=2 ** (level - 1),
    )
