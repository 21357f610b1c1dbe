"""Commutator expansions, the penalized-trace limit, and the derivative
form of the tensor bound.

These are the consistency checks that sit around the inequalities
proper: an operator-level chain of four expressions for the deviation
of the two-matrix average from the plain product, the rank-one
penalty limit Tr exp(A - tP) -> exp<v, A v>, and the directional
derivative that reproduces the tensor right side.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidRange, StepTooLarge
from .frechet import conjugated_power_average
from .inequalities import rhs_tensor_resolvent, tensor_operands
from .linalg import PosDefMatrix, as_posdef, hermitian_fn, hermitize, real_trace
from .quadrature import QuadratureRule, half_line_rule, real_line_rule
from .report import TrialReport, identity_report


# ---------------------------------------------------------- commutator chain

def commutator_chain(a1, a2, beta_rule: QuadratureRule | None = None,
                     half_rule: QuadratureRule | None = None):
    """Four expressions for A1 A2 minus the conjugated-power average.

    All four are equal as matrices; the last makes the linear dependence
    on the commutator [A1, A2] explicit (and is not symmetric under
    swapping the inputs). Returned as a dict keyed by route:

      product_minus_average   A1 A2 - avg_t A2^{s+} A1 A2^{s-}
      resolvent_difference    int (A1 R^2 - R A1 R) dtau
      commutator_resolvent    int [A1, R] R dtau
      explicit_commutator     int R X [A1, A2] X R^2 dtau

    with X = A2^{-1} and R = R(tau) = (X + tau)^{-1}.
    """
    a1 = as_posdef(a1)
    a2 = as_posdef(a2)
    if a1.dim != a2.dim:
        raise DimensionMismatch("operands must share one dimension")
    beta_rule = beta_rule or real_line_rule()
    half_rule = half_rule or half_line_rule()

    m1 = a1.matrix
    m2 = a2.matrix
    x = a2.inverse()
    eye = np.eye(a1.dim)
    res = np.linalg.inv(x[None, :, :] + half_rule.nodes[:, None, None] * eye)
    w = half_rule.weights

    average = conjugated_power_average(m1, a2, beta_rule)
    first = m1 @ m2 - average

    r2 = res @ res
    second = np.einsum("t,tij->ij", w, m1[None] @ r2 - res @ m1[None] @ res)

    comm_r = m1[None] @ res - res @ m1[None]
    third = np.einsum("t,tij->ij", w, comm_r @ res)

    comm = m1 @ m2 - m2 @ m1
    core = x @ comm @ x
    fourth = np.einsum("t,tij->ij", w, res @ core[None] @ r2)

    return {
        "product_minus_average": first,
        "resolvent_difference": second,
        "commutator_resolvent": third,
        "explicit_commutator": fourth,
    }


def check_commutator_chain(a1, a2, beta_rule=None, half_rule=None,
                           atol: float = 1e-6, seed=None,
                           check_id: str = "commutator_chain") -> TrialReport:
    """Max pairwise Frobenius gap across the four routes, per unit of
    ||A1|| ||A2||."""
    a1 = as_posdef(a1)
    a2 = as_posdef(a2)
    exprs = list(commutator_chain(a1, a2, beta_rule, half_rule).values())
    worst = 0.0
    for i in range(len(exprs)):
        for j in range(i + 1, len(exprs)):
            worst = max(worst, float(np.linalg.norm(exprs[i] - exprs[j])))
    scale = max(1.0, float(np.linalg.norm(a1.matrix) * np.linalg.norm(a2.matrix)))
    return identity_report(check_id, worst, 0.0, atol=0.0, rtol=atol,
                           scale=scale, n=2, seed=seed,
                           params={"dim": a1.dim})


# ------------------------------------------------------ penalized trace limit

def penalized_trace_gaps(a, v=None, t_grid=(1e2, 1e3, 1e4),
                         dps: int | None = None,
                         eigenvector: int | None = None):
    """Gaps |Tr exp(A - t P) - exp<v, A v>| along a penalty grid.

    P projects onto the orthogonal complement of the unit vector v, so
    the kernel of the penalty is spanned by v and the trace collapses
    to exp of the Rayleigh quotient as t grows. With ``dps`` set the
    whole computation runs in mpmath arbitrary precision, which is the
    only way to resolve the exponentially small gaps when v is an
    eigenvector of A; the float64 path is appropriate for generic v,
    where the gap decays like 1/t.

    ``eigenvector`` (requires ``dps``) ignores v and takes the
    eigenvector of A at that position in the ascending spectrum,
    computed at working precision. A float64 eigenvector is only an
    eigenvector up to 1e-16, and the corresponding 1/t tail buries the
    exponentially small true gap; the direction has to be produced at
    the same precision as the trace.

    Returns (limit, gaps) as floats.
    """
    a = hermitize(np.asarray(a, dtype=complex))
    dim = a.shape[0]
    if eigenvector is None:
        if v is None:
            raise DimensionMismatch("need a direction vector or an "
                                    "eigenvector index")
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.shape[0] != dim:
            raise DimensionMismatch(f"vector length {v.shape[0]} does not "
                                    f"match matrix dimension {dim}")
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            raise DimensionMismatch("direction vector must be nonzero")
        v = v / nv
    elif dps is None:
        raise InvalidRange("eigenvector directions need the arbitrary "
                           "precision path; set dps")
    elif not -dim <= eigenvector < dim:
        raise InvalidRange(f"eigenvector index {eigenvector} out of range "
                           f"for dimension {dim}")

    if dps is None:
        proj = np.eye(dim) - np.outer(v, v.conj())
        limit = float(np.exp((v.conj() @ a @ v).real))
        gaps = []
        for t in t_grid:
            ev = np.linalg.eigvalsh(a - t * proj)
            gaps.append(abs(float(np.exp(ev).sum()) - limit))
        return limit, gaps

    import mpmath as mp

    complex_input = float(np.abs(a.imag).max()) > 0 or (
        v is not None and eigenvector is None and float(np.abs(v.imag).max()) > 0)
    with mp.workdps(dps):
        lift = mp.mpc if complex_input else (lambda z: mp.mpf(z.real))
        eig = mp.eighe if complex_input else mp.eigsy
        am = mp.matrix([[lift(a[i, j]) for j in range(dim)] for i in range(dim)])
        if eigenvector is not None:
            evals, q = eig(am)
            order = sorted(range(dim), key=lambda j: mp.re(evals[j]))
            col = order[eigenvector]
            vm = [q[i, col] for i in range(dim)]
        else:
            vm = [lift(v[i]) for i in range(dim)]
        # renormalize at working precision: a leftover norm defect eps
        # makes P pick up eigenvalue -eps along v and the trace grows
        # like exp(t eps)
        nrm = mp.sqrt(mp.re(mp.fsum(mp.conj(x) * x for x in vm)))
        vm = [x / nrm for x in vm]
        rayleigh = mp.re(mp.fsum(mp.conj(vm[i]) * am[i, j] * vm[j]
                                 for i in range(dim) for j in range(dim)))
        limit_mp = mp.e ** rayleigh
        pm = mp.matrix(dim, dim)
        for i in range(dim):
            for j in range(dim):
                pm[i, j] = (1 if i == j else 0) - vm[i] * mp.conj(vm[j])
        gaps = []
        for t in t_grid:
            ev = eig(am - mp.mpf(t) * pm, eigvals_only=True)
            tr = mp.fsum(mp.e ** e for e in ev)
            gaps.append(float(abs(tr - limit_mp)))
        return float(abs(limit_mp)), gaps


def check_penalized_trace_limit(a, v=None, t_grid=(1e2, 1e3, 1e4),
                                dps: int | None = None,
                                tol_abs: float = 1e-3,
                                seed=None,
                                eigenvector: int | None = None) -> TrialReport:
    """Verdict: gaps do not grow along the grid (up to a precision
    floor) and the final gap is below ``tol_abs``."""
    limit, gaps = penalized_trace_gaps(a, v, t_grid, dps,
                                       eigenvector=eigenvector)
    floor = (10.0 ** (8 - dps)) * max(1.0, limit) if dps else 1e-13 * max(1.0, limit)
    monotone = all(gaps[i + 1] <= gaps[i] + floor for i in range(len(gaps) - 1))
    passed = monotone and gaps[-1] <= tol_abs
    return TrialReport("penalized_trace_limit", "identity",
                       gaps[-1], 0.0, gaps[-1],
                       gaps[-1] / max(1.0, limit), tol_abs, 0.0, passed,
                       seed=seed,
                       params={"gaps": gaps, "limit": limit,
                               "t_grid": list(t_grid), "dps": dps})


# ----------------------------------------------------------- derivative form

def derivative_form_value(big_a, big_b, outer, step: float) -> float:
    """Central difference of r -> Tr[P exp(log(A + r B) - log A)] at 0,
    on the operands returned by ``tensor_operands``.

    The exponent vanishes at r = 0, so the derivative equals the tensor
    right side Tr[P (T_A(B))] exactly; the quotient converges at
    second order in the step.
    """
    lam_min = float(big_a.spectral.eigenvalues[0])
    norm_b = float(np.linalg.norm(big_b, 2))
    if step * norm_b >= 0.5 * lam_min:
        raise StepTooLarge(f"step {step:.3e} times ||B|| {norm_b:.3e} is not "
                           f"well inside the smallest eigenvalue {lam_min:.3e}")
    log_a = big_a.log()

    def probe(r):
        exponent = PosDefMatrix(big_a.matrix + r * big_b).log() - log_a
        body = hermitian_fn(exponent, np.exp)
        return real_trace(outer.conj() @ body @ outer,
                          context="derivative probe")

    return (probe(step) - probe(-step)) / (2.0 * step)


def check_derivative_form(mats, step: float | None = None, atol: float = 1e-5,
                          seed=None) -> TrialReport:
    """Difference quotient vs the closed tensor value.

    Two quotients are taken, at ``step`` and ``step / 2``; their error
    ratio (stored in params, should sit near 1/4) witnesses second
    order convergence, and the Richardson combination of the pair
    cancels the quadratic term so the headline comparison is not
    limited by the truncation error of either quotient alone.

    The default step adapts to the chain: it must keep A + r B well
    inside the positive cone, so it is capped at a twentieth of the
    smallest eigenvalue of A per unit of ||B||. An explicit step is
    taken as given and may raise StepTooLarge.
    """
    exact = rhs_tensor_resolvent(mats)
    big_a, big_b, outer = tensor_operands(mats)
    if step is None:
        lam_min = float(big_a.spectral.eigenvalues[0])
        norm_b = float(np.linalg.norm(big_b, 2))
        step = min(1e-3, 0.05 * lam_min / norm_b)
    fd_full = derivative_form_value(big_a, big_b, outer, step)
    fd_half = derivative_form_value(big_a, big_b, outer, step / 2.0)
    err_full = abs(fd_full - exact)
    err_half = abs(fd_half - exact)
    ratio = err_half / err_full if err_full > 0 else 0.0
    extrapolated = (4.0 * fd_half - fd_full) / 3.0
    return identity_report("derivative_form", extrapolated, exact, atol=atol,
                           rtol=atol, n=len(mats), seed=seed,
                           params={"step": step, "halving_ratio": ratio,
                                   "err_full": err_full,
                                   "err_half": err_half})
