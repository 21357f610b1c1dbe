"""Hermitian and positive-definite matrix primitives.

All matrix functions go through the Hermitian eigendecomposition, never
through series or Pade approximants. Complex powers A^z are defined
spectrally, so A^{(1+it)/2} for Hermitian positive A is the unique
continuation with A^z A^w = A^{z+w}.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    ImaginaryResidue,
    InvalidRange,
    NonPositiveEigenvalue,
    NotHermitian,
)

# Asymmetry below this relative size is silently repaired, above it is an error.
ASYMMETRY_TOL = 1e-8
# Eigenvalues at or below floor * max(eigenvalue) count as non-positive.
POSITIVITY_FLOOR = 1e-12
# Imaginary residue on nominally real traces: discard below, error above.
IMAG_DISCARD = 1e-10
IMAG_ERROR = 1e-8


def hermitize(a, *, tol: float = ASYMMETRY_TOL) -> np.ndarray:
    """Return the Hermitian average (A + A*)/2 of a square array.

    Raises NotHermitian when the anti-Hermitian part exceeds ``tol``
    relative to the norm of A, so silent repair only ever touches
    roundoff-level asymmetry.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.linalg.norm(a)))
    residual = float(np.linalg.norm(a - a.conj().T))
    if residual > tol * scale:
        raise NotHermitian(
            f"asymmetry {residual:.3e} exceeds {tol:.1e} * scale {scale:.3e}"
        )
    return 0.5 * (a + a.conj().T)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, f) -> np.ndarray:
        """Assemble V f(lambda) V* for a scalar function f."""
        v = self.eigenvectors
        return (v * f(self.eigenvalues)) @ v.conj().T


class PosDefMatrix:
    """A Hermitian positive-definite matrix with cached spectral data.

    Construction hermitizes the input (strict about large asymmetry).
    The eigendecomposition is computed on first use and reused by every
    matrix function, so repeated powers of the same matrix cost one eigh.
    Positivity is enforced at decomposition time: the smallest eigenvalue
    must exceed POSITIVITY_FLOOR times the largest.

    Not thread-safe during the first ``spectral`` access; compute it
    before sharing across workers.
    """

    def __init__(self, array, *, tol: float = ASYMMETRY_TOL):
        self.matrix = hermitize(array, tol=tol)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectral(self) -> SpectralDecomposition:
        lam, vec = np.linalg.eigh(self.matrix)
        floor = POSITIVITY_FLOOR * float(lam[-1])
        if lam[0] <= floor:
            raise NonPositiveEigenvalue(
                f"min eigenvalue {lam[0]:.3e} at or below floor {floor:.3e}"
            )
        return SpectralDecomposition(lam, vec)

    @property
    def condition(self) -> float:
        lam = self.spectral.eigenvalues
        return float(lam[-1] / lam[0])

    def power(self, z: complex) -> np.ndarray:
        """Spectral power A^z for arbitrary complex z."""
        dec = self.spectral
        return (dec.eigenvectors * np.exp(z * np.log(dec.eigenvalues))) @ dec.eigenvectors.conj().T

    def power_stack(self, z: np.ndarray) -> np.ndarray:
        """Stacked spectral powers A^{z_t} for an array of exponents,
        shape (len(z), dim, dim), from the one cached decomposition."""
        dec = self.spectral
        powers = np.exp(z[:, None] * np.log(dec.eigenvalues)[None, :])
        return np.einsum("ij,tj,kj->tik", dec.eigenvectors, powers,
                         dec.eigenvectors.conj())

    def inverse(self) -> np.ndarray:
        return self.spectral.apply(lambda x: 1.0 / x)

    def log(self) -> np.ndarray:
        return self.spectral.apply(np.log)


def as_posdef(a) -> PosDefMatrix:
    return a if isinstance(a, PosDefMatrix) else PosDefMatrix(a)


def hermitian_fn(h, f) -> np.ndarray:
    """Apply a scalar function to a Hermitian (not necessarily positive)
    matrix. Used for exponentials of logarithm sums, which are Hermitian
    but usually indefinite."""
    h = hermitize(h)
    lam, vec = np.linalg.eigh(h)
    return (vec * f(lam)) @ vec.conj().T


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence, leftmost factor slowest."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def logarithmic_ratio(a, b):
    """The divided difference (log a - log b) / (a - b) for a, b > 0.

    Evaluated as 2 atanh((a-b)/(a+b)) / (a-b), which is stable for
    nearby arguments; within relative distance 1e-10 the limit 2/(a+b)
    is substituted. Broadcasts over arrays.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = a + b
    d = a - b
    near = np.abs(d) <= 1e-10 * np.maximum(a, b)
    safe_d = np.where(near, 1.0, d)
    ratio = np.where(near, 0.0, d / s)
    out = np.where(near, 2.0 / s, 2.0 * np.arctanh(ratio) / safe_d)
    if out.ndim == 0:
        return float(out)
    return out


def real_trace(value: complex, *, context: str = "trace") -> float:
    """Collapse a nominally real scalar, guarding the imaginary residue."""
    value = complex(value)
    scale = max(1.0, abs(value.real))
    if abs(value.imag) > IMAG_ERROR * scale:
        raise ImaginaryResidue(
            f"{context}: imaginary part {value.imag:.3e} vs scale {scale:.3e}"
        )
    return value.real


def _check_lam_range(lam_range) -> tuple[float, float]:
    lo, hi = float(lam_range[0]), float(lam_range[1])
    if not (lo > 0.0 and hi >= lo):
        raise InvalidRange(f"eigenvalue range must satisfy 0 < lo <= hi, got ({lo}, {hi})")
    return lo, hi


def draw_posdef(rng: np.random.Generator, dim: int, lam_range=(0.1, 10.0)) -> PosDefMatrix:
    """Draw Q diag(lam) Q* with Haar-ish Q and log-uniform eigenvalues."""
    lo, hi = _check_lam_range(lam_range)
    if dim < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))
    return PosDefMatrix((q * lam) @ q.conj().T)


def random_commuting_family(dim: int, count: int, seed: int, lam_range=(0.1, 10.0)):
    """A simultaneously diagonalizable family sharing one eigenbasis."""
    lo, hi = _check_lam_range(lam_range)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    out = []
    for _ in range(count):
        lam = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))
        out.append(PosDefMatrix((q * lam) @ q.conj().T))
    return out
