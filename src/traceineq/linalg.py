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


def hermitian_fn(h, f) -> np.ndarray:
    """Apply a scalar function to a Hermitian (not necessarily positive)
    matrix. Used for exponentials of logarithm sums, which are Hermitian
    but usually indefinite."""
    lam, vec = np.linalg.eigh(hermitize(h))
    return SpectralDecomposition(lam, vec).apply(f)


def stack_norm(a) -> np.ndarray:
    """np.linalg.norm(a[k]) for each k, in its bits: the square root of the
    dot products of the real and imaginary parts, each a[k] flattened."""
    flat = np.asarray(a, dtype=complex).reshape(len(a), 1, -1)
    return np.sqrt((flat.real @ flat.real.swapaxes(-1, -2)
                    + flat.imag @ flat.imag.swapaxes(-1, -2))[:, 0, 0])


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


# An absolute error e in h = (log a - log b) / 2 moves h / sinh(h) by
# e (coth h - 1/h) relative, and h / ((a - b) / 2) by e / h: they cross
# near |h| = 1.9, where a - b no longer cancels.
LOG_RATIO_FAR = 2.0


def logarithmic_ratio(a, b):
    """The divided difference (log a - log b) / (a - b) for a, b > 0.

    With h = (log a - log b) / 2 it is h / (sinh(h) sqrt(a) sqrt(b)),
    which does not cancel, and is exactly symmetric in a and b. Where
    |h| > LOG_RATIO_FAR the denominator is (a - b) / 2 instead, and where
    h == 0 the quotient is the limit 2 / (a + b). Logs and roots are
    taken before a and b broadcast, so they cost O(len a + len b) on an
    outer pair, and the broadcast shape holds two arrays. Broadcasts
    over arrays.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    log_a, log_b, half_a, half_b = 0.5 * np.log(a), 0.5 * np.log(b), 0.5 * a, 0.5 * b
    h = np.asarray(log_a - log_b)
    den = np.asarray(np.abs(h))
    far, zero = den > LOG_RATIO_FAR, h == 0
    np.multiply(np.sqrt(a), np.sqrt(b), out=den)
    with np.errstate(over="ignore"):  # only far entries overflow sinh
        den *= np.sinh(h, out=h)
    np.putmask(den, far, np.subtract(half_a, half_b, out=h))
    np.putmask(den, zero, np.add(half_a, half_b, out=h))
    np.subtract(log_a, log_b, out=h)
    np.putmask(h, zero, 1.0)
    out = np.divide(h, den, out=den)
    return float(out) if out.ndim == 0 else out


def real_trace(value, *, context: str = "trace"):
    """Collapse a nominally real scalar, or an array of them, guarding
    the imaginary residue. Raises NonFinite, naming the part, when a
    real or imaginary part is NaN or inf."""
    value = np.asarray(value, dtype=complex)
    for part, name in ((value.real, "real"), (value.imag, "imaginary")):
        if not np.isfinite(part).all():
            raise NonFinite(f"{context}: {name} part is not finite")
    excess = np.abs(value.imag) / np.maximum(1.0, np.abs(value.real))
    if np.max(excess) > IMAG_ERROR:
        raise ImaginaryResidue(f"{context}: relative imaginary part {np.max(excess):.3e}")
    return float(value.real) if value.ndim == 0 else value.real


def _check_lam_range(lam_range) -> tuple[float, float]:
    lo, hi = float(lam_range[0]), float(lam_range[1])
    if not (0.0 < lo <= hi < np.inf):
        raise InvalidRange(f"eigenvalue range must satisfy 0 < lo <= hi < inf, "
                           f"got ({lo}, {hi})")
    return lo, hi


def draw_posdef(rng, dim: int, lam_range=(0.1, 10.0),
                count: int | None = None) -> PosDefMatrix:
    """Draw Q diag(lam) Q* with Ginibre-QR Q and log-uniform eigenvalues;
    Haar-conjugated as is, since it ignores the column phases of Q.

    ``rng`` may be a sequence of generators, one per stack entry, and
    with ``count`` each draws that many matrices in turn: the shape is
    ([len(rng),] [count,] dim, dim), in the numbers of lone calls."""
    lo, hi = _check_lam_range(lam_range)
    if dim < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
    one = isinstance(rng, np.random.Generator)
    rngs = [rng] if one else list(rng)
    draws = [(r.normal(size=(2, dim, dim)),
              r.uniform(np.log(lo), np.log(hi), size=dim))
             for r in rngs for _ in range(count or 1)]
    gauss = np.array([pair[0] for pair in draws])
    q, _ = np.linalg.qr(gauss[:, 0] + 1j * gauss[:, 1])
    lam = np.exp(np.array([pair[1] for pair in draws]))
    shape = (() if one else (len(rngs),)) + (() if count is None else (count,))
    return PosDefMatrix(((q * lam[:, None, :]) @ _adjoint(q)).reshape(shape + (dim, dim)))


def random_commuting_family(dim: int, count: int, seed, lam_range=(0.1, 10.0)):
    """A simultaneously diagonalizable family sharing one eigenbasis: ``count``
    matrices from default_rng(seed), or from each of a list of generators,
    as one PosDefMatrix (len(seed), count, dim, dim) in the lone numbers."""
    lo, hi = _check_lam_range(lam_range)
    one = not isinstance(seed, (list, tuple))
    rngs = [np.random.default_rng(seed)] if one else seed
    gauss = np.array([r.normal(size=(2, dim, dim)) for r in rngs])
    lams = np.exp(np.array([r.uniform(np.log(lo), np.log(hi), size=(count, dim))
                            for r in rngs]))
    q, _ = np.linalg.qr(gauss[:, 0] + 1j * gauss[:, 1])
    fam = PosDefMatrix((q[:, None] * lams[..., None, :]) @ _adjoint(q)[:, None])
    return [fam[0, k] for k in range(count)] if one else fam
