"""Hermitian and positive-definite matrix primitives.

All matrix functions go through the Hermitian eigendecomposition, never
through series or Pade approximants. Complex powers A^z are defined
spectrally, so A^{(1+it)/2} for Hermitian positive A is the unique
continuation with A^z A^w = A^{z+w}.
Matrices may carry leading stack axes, shape (..., d, d): functions
then act on each matrix, and scalars come back as arrays of that shape.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    ImaginaryResidue,
    InvalidRange,
    NonFinite,
    NonPositiveEigenvalue,
    NotHermitian,
)

# Asymmetry below this relative size is silently repaired, above it is an error.
ASYMMETRY_TOL = 1e-8
# Eigenvalues at or below floor * max(eigenvalue) count as non-positive.
POSITIVITY_FLOOR = 1e-12
# Imaginary residue on nominally real traces: discarded below, an error above.
IMAG_ERROR = 1e-8
# Complex entries per intermediate of a stacked evaluation, 64 KiB. An
# evaluation holds a few at once; larger ones swing the heap past glibc's
# default trim threshold (128 KiB), and every call page-faults fresh memory.
STACK_BUDGET = 1 << 12


def stack_slices(count: int, entries: int) -> list[slice]:
    """Slices of a stack of ``count`` items, STACK_BUDGET // entries items
    (at least one) each, ``entries`` being the largest intermediate per
    item. Every item is evaluated on its own, so its value does not
    depend on the slices."""
    step = max(1, STACK_BUDGET // entries)
    return [slice(i, i + step) for i in range(0, count, step)]


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def hermitize(a) -> np.ndarray:
    """Return the Hermitian average (A + A*)/2 of a square array, or of
    each matrix in a stack.

    Raises NonFinite on any NaN or inf entry, and NotHermitian when the
    anti-Hermitian part exceeds ASYMMETRY_TOL relative to the norm of A, so
    silent repair only ever touches roundoff-level asymmetry.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix has NaN or inf entries")
    norm = np.linalg.norm(a - _adjoint(a), axis=(-2, -1))
    worst = np.max(norm / np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1))))
    if worst > ASYMMETRY_TOL:
        raise NotHermitian(f"asymmetry {worst:.3e} exceeds {ASYMMETRY_TOL:.1e} "
                           f"of max(1, norm)")
    return 0.5 * (a + _adjoint(a))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, f) -> np.ndarray:
        """Assemble V f(lambda) V* for a scalar function f."""
        v = self.eigenvectors
        return (v * f(self.eigenvalues)[..., None, :]) @ _adjoint(v)


class PosDefMatrix:
    """A Hermitian positive-definite matrix, or a stack of them, with
    cached spectral data.

    Construction hermitizes the input (strict about large asymmetry).
    The eigendecomposition is computed on first use, one eigh for the
    whole stack, and reused by every matrix function. Positivity is
    enforced at decomposition time: the smallest eigenvalue of every
    matrix must exceed POSITIVITY_FLOOR times its largest. Indexing the
    leading axes (``m[i]``, ``m[:, k]``) shares a computed decomposition.

    Not thread-safe during the first ``spectral`` access; compute it
    before sharing across workers.
    """

    def __init__(self, array):
        self.matrix = hermitize(array)

    @classmethod
    def _known(cls, matrix, spectral=None) -> "PosDefMatrix":
        """Wrap a Hermitian matrix, and its decomposition when known."""
        out = cls.__new__(cls)
        out.matrix = matrix
        if spectral is not None:
            out.spectral = spectral
        return out

    def __getitem__(self, index) -> "PosDefMatrix":
        index = index if isinstance(index, tuple) else (index,)
        if len(index) > self.matrix.ndim - 2 or Ellipsis in index:
            raise DimensionMismatch("only the leading stack axes can be indexed")
        dec = self.__dict__.get("spectral")
        return PosDefMatrix._known(self.matrix[index], None if dec is None else
                                   SpectralDecomposition(dec.eigenvalues[index],
                                                         dec.eigenvectors[index]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def spectral(self) -> SpectralDecomposition:
        lam, vec = np.linalg.eigh(self.matrix)
        ok = lam[..., 0] > POSITIVITY_FLOOR * lam[..., -1]  # False on NaN
        if not ok.all():
            raise NonPositiveEigenvalue(
                f"min eigenvalue {lam[..., 0][~ok].flat[0]:.3e} at or below "
                f"{POSITIVITY_FLOOR:.0e} times the max {lam[..., -1][~ok].flat[0]:.3e}")
        return SpectralDecomposition(lam, vec)

    def inverse(self) -> np.ndarray:
        return self.spectral.apply(lambda x: 1.0 / x)

    def log(self) -> np.ndarray:
        return self.spectral.apply(np.log)


def as_posdef(a) -> PosDefMatrix:
    return a if isinstance(a, PosDefMatrix) else PosDefMatrix(a)


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence, leftmost factor slowest; leading
    stack axes broadcast, and each stacked product is formed on its own."""
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        m = np.asarray(m, dtype=complex)
        shape = np.broadcast_shapes(out.shape[:-2], m.shape[:-2]) + (
            out.shape[-2] * m.shape[-2], out.shape[-1] * m.shape[-1])
        out = (out[..., :, None, :, None] * m[..., None, :, None, :]).reshape(shape)
    return out


def logarithmic_ratio(a, b):
    """The divided difference (log a - log b) / (a - b) for a, b > 0.

    With x = |log a - log b| and M = max(a, b) it is x / (M (1 - e^-x)),
    evaluated as x / -expm1(-x) over M, and 1 / M where x == 0. It is
    exactly symmetric in a and b, and it neither cancels nor overflows:
    expm1 sees only arguments <= 0, and x / (1 - e^-x) lies in [1, 1 + x].
    Its relative error is within eps (2.5 + (|log a| + |log b|) / 2): the
    logs' rounding carried through x, and four roundings more. The logs
    are taken before a and b broadcast, so they cost O(len a + len b) on
    an outer pair. Broadcasts over arrays.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    x = np.abs(np.log(a) - np.log(b))
    out = np.divide(x, -np.expm1(-x), out=np.ones(np.shape(x)), where=x != 0)
    out /= np.maximum(a, b)
    return float(out) if out.ndim == 0 else out


def real_trace(value, *, context: str = "trace"):
    """Collapse a nominally real scalar, or an array of them, guarding
    the imaginary residue, which a real value does not have. Raises
    NonFinite, naming the part, when a real or imaginary part is NaN or inf."""
    value = np.asarray(value)
    if not np.isfinite(value.real).all():
        raise NonFinite(f"{context}: real part is not finite")
    if np.iscomplexobj(value):
        if not np.isfinite(value.imag).all():
            raise NonFinite(f"{context}: imaginary part is not finite")
        excess = np.abs(value.imag) / np.maximum(1.0, np.abs(value.real))
        if np.max(excess) > IMAG_ERROR:
            raise ImaginaryResidue(f"{context}: relative imaginary part {np.max(excess):.3e}")
    return float(value.real) if value.ndim == 0 else value.real


def _check_draw(dim: int, count: int, rngs, lam_range) -> tuple[float, float]:
    """The logs of a draw's eigenvalue range, once its sizes and range are checked."""
    for name, size in (("dimension", dim), ("count", count),
                       ("generators in the stack", len(rngs))):
        if size < 1:
            raise DimensionMismatch(f"{name} must be >= 1, got {size}")
    lo, hi = float(lam_range[0]), float(lam_range[1])
    if not (0.0 < lo <= hi < np.inf):
        raise InvalidRange(f"eigenvalue range must satisfy 0 < lo <= hi < inf, "
                           f"got ({lo}, {hi})")
    return np.log(lo), np.log(hi)


def _drawn_factors(rngs, draws: int, dim: int, lam_shape, logs):
    """(q, lam): each generator in turn makes ``draws`` Ginibre-QR unitaries
    (dim x dim) and log-uniform arrays of lam_shape on the range whose logs
    are given, stacked (len(rngs) draws, ...). Its numbers are those of
    alternating normal(size=(2, dim, dim)) and uniform(*logs, lam_shape)
    calls: both are filled in place, and 0.0 is added to the normals, as
    normal(0, 1) computes 0.0 + 1.0 z and so never returns -0.0."""
    gauss = np.empty((len(rngs) * draws, 2, dim, dim))
    unif = np.empty((len(rngs) * draws,) + lam_shape)
    for j, r in enumerate(r for r in rngs for _ in range(draws)):
        r.standard_normal(out=gauss[j])
        r.random(out=unif[j])
    gauss += 0.0
    q, _ = np.linalg.qr(gauss[:, 0] + 1j * gauss[:, 1])
    return q, np.exp(logs[0] + (logs[1] - logs[0]) * unif)


def draw_posdef(rng, dim: int, lam_range=(0.1, 10.0),
                count: int | None = None) -> PosDefMatrix:
    """Draw Q diag(lam) Q* with Ginibre-QR Q and log-uniform eigenvalues;
    Haar-conjugated as is, since it ignores the column phases of Q.

    ``rng`` may be a sequence of generators, one per stack entry, and
    with ``count`` each draws that many matrices in turn: the shape is
    ([len(rng),] [count,] dim, dim), in the numbers of lone calls."""
    one = isinstance(rng, np.random.Generator)
    rngs = [rng] if one else list(rng)
    logs = _check_draw(dim, 1 if count is None else count, rngs, lam_range)
    q, lam = _drawn_factors(rngs, count or 1, dim, (dim,), logs)
    shape = (() if one else (len(rngs),)) + (() if count is None else (count,))
    return PosDefMatrix(((q * lam[:, None, :]) @ _adjoint(q)).reshape(shape + (dim, dim)))


def random_commuting_family(dim: int, count: int, seed, lam_range=(0.1, 10.0)):
    """A simultaneously diagonalizable family sharing one eigenbasis: ``count``
    matrices from default_rng(seed) as one PosDefMatrix (count, dim, dim), or
    (len(seed), count, dim, dim) from a list of generators, in the lone numbers."""
    one = not isinstance(seed, (list, tuple))
    rngs = [np.random.default_rng(seed)] if one else seed
    logs = _check_draw(dim, count, rngs, lam_range)
    q, lams = _drawn_factors(rngs, 1, dim, (count, dim), logs)
    fam = PosDefMatrix((q[:, None] * lams[..., None, :]) @ _adjoint(q)[:, None])
    return fam[0] if one else fam
