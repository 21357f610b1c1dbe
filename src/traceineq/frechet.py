"""The log-derivative operator and its cross-checked evaluations.

T_X(Y) is the Frechet derivative of the matrix logarithm at X applied
to Y. Three independent routes are kept deliberately separate:

* closed form, the divided-difference (Loewner) kernel of log in the
  eigenbasis of X, used everywhere in production;
* resolvent quadrature of (X + tau)^{-1} Y (X + tau)^{-1} over the
  half line, built on linear solves rather than the eigenbasis;
* central finite differences of the matrix log.

The three must agree pairwise; collapsing them would turn the
verification into a tautology, so do not "simplify" the quadrature or
difference routes into calls of the closed form.

The same operator admits a conjugated-power average: integrating
A2^{(1+it)/2} A1 A2^{(1-it)/2} against the hyperbolic density equals
T at the inverse base, T_{A2^{-1}}(A1).
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, StepTooLarge
from .linalg import (
    PosDefMatrix,
    as_posdef,
    logarithmic_ratio,
)
from .quadrature import beta_density, half_line_rule, real_line_rule
from .report import identity_report, stack_reports

FD_STEP_SCALE = 1e-5


def _conformable(x: PosDefMatrix, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=complex)
    if y.shape != x.matrix.shape:
        raise DimensionMismatch(f"direction shape {y.shape} does not match "
                                f"base shape {x.matrix.shape}")
    return y


def log_derivative_closed(x, y) -> np.ndarray:
    """Divided-difference kernel: in the eigenbasis of X the entries of
    T_X(Y) are Y_ij (log li - log lj) / (li - lj), diagonal 1 / li;
    stacks of X and Y of one shape (..., d, d) pair up matrix by matrix."""
    x = as_posdef(x)
    y = _conformable(x, y)
    lam = x.spectral.eigenvalues
    vec = x.spectral.eigenvectors
    vec_h = vec.conj().swapaxes(-1, -2)
    ytil = vec_h @ y @ vec
    phi = logarithmic_ratio(lam[..., :, None], lam[..., None, :])
    return vec @ (ytil * phi) @ vec_h


def log_derivative_quadrature(x, y) -> np.ndarray:
    """Half-line integral of resolvent sandwiches, via batched solves.

    Kept eigenbasis-free on purpose: the resolvents come from
    np.linalg.inv, so agreement with the closed form is a genuine
    two-route consistency check.
    """
    x = as_posdef(x)
    y = _conformable(x, y)
    rule = half_line_rule()
    eye = np.eye(x.dim)
    shifted = x.matrix[None, :, :] + rule.nodes[:, None, None] * eye[None, :, :]
    res = np.linalg.inv(shifted)
    sandwiched = res @ y[None, :, :] @ res
    return np.einsum("t,tij->ij", rule.weights, sandwiched)


def log_derivative_finite_difference(x, y, step: float | None = None) -> np.ndarray:
    """Central difference (log(X + rY) - log(X - rY)) / 2r.

    The default step is FD_STEP_SCALE * ||X|| / ||Y||. Steps that push
    X - rY out of the positive cone (margin one half of the smallest
    eigenvalue) raise StepTooLarge instead of silently producing NaNs.
    """
    x = as_posdef(x)
    y = _conformable(x, y)
    norm_y = float(np.linalg.norm(y, 2))
    if norm_y == 0.0:
        return np.zeros_like(y)
    if step is None:
        step = FD_STEP_SCALE * float(np.linalg.norm(x.matrix, 2)) / norm_y
    lam_min = float(x.spectral.eigenvalues[0])
    if step * norm_y >= 0.5 * lam_min:
        raise StepTooLarge(
            f"step {step:.3e} times ||Y|| {norm_y:.3e} is not well inside "
            f"the smallest eigenvalue {lam_min:.3e}")
    plus = PosDefMatrix(x.matrix + step * y).log()
    minus = PosDefMatrix(x.matrix - step * y).log()
    return (plus - minus) / (2.0 * step)


def conjugated_power_average(a1, a2) -> np.ndarray:
    """Beta-weighted average of A2^{(1+it)/2} A1 A2^{(1-it)/2}.

    In the eigenbasis V of A2 the node t scales entry (i, j) of V* A1 V by
    lam_i^z conj(lam_j^z), z = (1+it)/2, so the average is V* A1 V times
    the weighted sum of those factors, entrywise. Stacks of one shape
    (..., d, d) pair up matrix by matrix.
    """
    a2 = as_posdef(a2)
    a1 = _conformable(a2, a1)
    rule = real_line_rule()
    lam, vec = a2.spectral.eigenvalues, a2.spectral.eigenvectors
    vec_h = vec.conj().swapaxes(-1, -2)
    p = np.exp(np.log(lam)[..., None, :] * (0.5 * (1.0 + 1j * rule.nodes))[:, None])
    weighted = (p * (rule.weights * beta_density(rule.nodes))[:, None]).swapaxes(-1, -2)
    return vec @ ((vec_h @ a1 @ vec) * (weighted @ p.conj())) @ vec_h


def power_average_identity_check(a1, a2, seed=None):
    """The average above vs T_{A2^{-1}}(A1), compared in Frobenius norm;
    stacks of pairs give one report per pair, given a list of seeds."""
    a2 = as_posdef(a2)
    avg = conjugated_power_average(a1, a2)
    closed = log_derivative_closed(PosDefMatrix(a2.inverse()), a1)
    gaps = np.linalg.norm(avg - closed, axis=(-2, -1))
    scales = np.maximum(np.linalg.norm(closed, axis=(-2, -1)), 1e-300)
    return stack_reports(gaps.ndim == 0, seed, gaps.size, lambda i, s: identity_report(
        "power_average_identity", gaps.flat[i], 0.0, atol=0.0, rtol=1e-8,
        scale=float(scales.flat[i]), n=2, seed=s, params={"dim": a2.dim}))
