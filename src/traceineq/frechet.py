"""The log-derivative operator and its cross-checked evaluations.

T_X(Y) is the Frechet derivative of the matrix logarithm at X applied
to Y. Three independent routes are kept deliberately separate:

* closed form, the divided-difference (Loewner) kernel of log in the
  eigenbasis of X, used everywhere in production;
* resolvent quadrature of (X + tau)^{-1} Y (X + tau)^{-1} over the
  half line, built on a batched elimination rather than the eigenbasis
  (``_half_line_resolvents``, which the commutator chain's half-line
  routes share);
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

from .errors import DimensionMismatch, NonPositiveEigenvalue, StepTooLarge
from .linalg import (
    STACK_BUDGET,
    PosDefMatrix,
    as_posdef,
    logarithmic_ratio,
    stack_slices,
)
from .quadrature import _node_powers, beta_density, half_line_rule, real_line_rule
from .report import identity_report

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


def _half_line_resolvents(x):
    """Yield (p, w, R) over the stack x (K, d, d) of Hermitian positive
    definite matrices: the pairs of a stack_slices slice p, a block of
    half_line_rule() nodes tau with their weights w, and the resolvents
    R = (X + tau)^{-1} of the slice at those nodes, node axis last,
    shape (k, d, d, T). A block holds STACK_BUDGET // d^2 nodes, so its
    size depends on d alone, and a slice keeps R within STACK_BUDGET.

    R comes from one Gauss-Jordan elimination of the whole slice, a
    pivot at a time, without pivoting: every X + tau is Hermitian
    positive definite, so every pivot is positive, and a pivot that is
    not (or is NaN) raises NonPositiveEigenvalue. Each matrix runs the
    same elementwise operations whatever the slice holds.

    Error bound. Let M = X + tau as formed, with Cholesky factor G, so
    |L||U| = |G*||G| and |U^{-1}||U| = |G^{-1}||G|. To first order in
    u = 2^-53, Gauss-Jordan elimination has |M^{-1} - R| <=
    2du (|M^{-1}||G*||G| + 3|G^{-1}||G|)|R| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 14.5). Since
    || |B| ||_2 <= sqrt(d) ||B||_2 and || |G| ||_2^2 <= d ||M||_2, this gives
    ||M^{-1} - R||_2 <= 2d^2 u (d + 3 sqrt(d)) cond_2(M) ||R||_2
    <= 8 d^3 u cond_2(M) ||R||_2.
    """
    d = x.shape[-1]
    rule = half_line_rule()
    block = min(rule.nodes.size, max(1, STACK_BUDGET // d ** 2))
    eye = np.eye(d)[:, :, None]
    for p in stack_slices(len(x), block * d * d):
        for i in range(0, rule.nodes.size, block):
            res = x[p, :, :, None] + eye * rule.nodes[i:i + block]
            for j in range(d):
                pivot = res[:, j, j].copy()
                if not pivot.real.min() > 0.0:  # NaN fails too
                    raise NonPositiveEigenvalue(f"pivot {pivot.real.min():.3e} of X + tau "
                                                f"is not positive")
                res[:, j, j] = 1.0
                row = res[:, j] / pivot[:, None]
                update = res[:, :, j, None] * row[:, None]
                res[:, :, j] = 0.0
                res -= update
                res[:, j] = row
            yield p, rule.weights[i:i + block], res


def _node_product(a, b):
    """The matrix products a @ b of (k, d, d, T) arrays, node axis last
    (T may be 1 on either side), as d multiply-adds in one order."""
    out = a[:, :, :1] * b[:, None, 0]
    for j in range(1, a.shape[2]):
        out += a[:, :, j:j + 1] * b[:, None, j]
    return out


def log_derivative_quadrature(x, y) -> np.ndarray:
    """Half-line integral of resolvent sandwiches R Y R, R = (X + tau)^{-1};
    stacks of X and Y of one shape (..., d, d) pair up matrix by matrix.

    Kept eigenbasis-free on purpose: the resolvents come from the
    batched elimination of _half_line_resolvents, so agreement with the
    closed form is a genuine two-route consistency check.
    """
    x = as_posdef(x)
    y = _conformable(x, y)
    d = x.dim
    ys = y.reshape(-1, d, d, 1)
    out = np.zeros(ys.shape[:3], dtype=complex)
    for p, w, res in _half_line_resolvents(x.matrix.reshape(-1, d, d)):
        out[p] += _node_product(_node_product(res, ys[p]), res) @ w
    return out.reshape(y.shape)


def log_derivative_finite_difference(x, y, step: float | None = None) -> np.ndarray:
    """Central difference (log(X + rY) - log(X - rY)) / 2r.

    The default step is FD_STEP_SCALE * ||X|| / ||Y||. Steps that push
    X - rY out of the positive cone (margin one half of the smallest
    eigenvalue) raise StepTooLarge instead of silently producing NaNs.
    """
    x = as_posdef(x)
    y = _conformable(x, y)
    if y.ndim != 2:
        raise DimensionMismatch(f"the finite-difference route takes one matrix, "
                                f"not a stack of shape {y.shape}")
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
    (..., d, d) pair up matrix by matrix; the (d, T) factors are formed
    for a stack_slices slice of the stack at a time.
    """
    a2 = as_posdef(a2)
    a1 = _conformable(a2, a1)
    rule = real_line_rule()
    weights = rule.weights * beta_density(rule.nodes)
    lam, vec = a2.spectral.eigenvalues, a2.spectral.eigenvectors
    vec_h = vec.conj().swapaxes(-1, -2)
    flat = lam.reshape(-1, a2.dim)

    def factors(s):
        p = _node_powers(flat[s], rule.nodes)(...)
        return (p * weights) @ p.conj().swapaxes(-1, -2)
    weighted = np.concatenate([factors(s) for s in stack_slices(len(flat),
                                                                rule.nodes.size * a2.dim)])
    return vec @ ((vec_h @ a1 @ vec) * weighted.reshape(a1.shape)) @ vec_h


def power_average_identity_check(a1, a2, seed=None):
    """The average above vs T_{A2^{-1}}(A1), compared in Frobenius norm;
    stacks of pairs give one report per pair, given a list of seeds."""
    a2 = as_posdef(a2)
    avg = conjugated_power_average(a1, a2)
    closed = log_derivative_closed(PosDefMatrix(a2.inverse()), a1)
    gaps = np.linalg.norm(avg - closed, axis=(-2, -1))
    scales = np.maximum(np.linalg.norm(closed, axis=(-2, -1)), 1e-300)
    return identity_report("power_average_identity", gaps, 0.0, atol=0.0, rtol=1e-8,
                           scale=scales, n=2, seed=seed, params={"dim": a2.dim})
