"""Commutator expansions, the penalized-trace limit, and the derivative
form of the tensor bound.

These are the consistency checks that sit around the inequalities
proper: an operator-level chain of three expressions for the deviation
of the two-matrix average from the plain product, the rank-one
penalty limit Tr exp(A - tP) -> exp<v, A v>, and the directional
derivative that reproduces the tensor right side.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidRange, StepTooLarge
from .frechet import _half_line_resolvents, _node_product, conjugated_power_average
from .entangle import build_layout
from .inequalities import (
    _coerce_chain,
    _sliced,
    rhs_tensor_resolvent,
    tensor_operands,
)
from .linalg import (
    PosDefMatrix,
    as_posdef,
    hermitize,
    real_trace,
)
from .report import TrialReport, identity_report


# ---------------------------------------------------------- commutator chain

def commutator_chain(a1, a2):
    """Three expressions for A1 A2 minus the conjugated-power average.

    All three are equal as matrices; the last makes the linear dependence
    on the commutator [A1, A2] explicit (and is not symmetric under
    swapping the inputs). Returned as a dict keyed by route:

      product_minus_average   A1 A2 - avg_t A2^{s+} A1 A2^{s-}
      commutator_resolvent    int [A1, R] R dtau
      explicit_commutator     int R X [A1, A2] X R^2 dtau

    with X = A2^{-1} and R = R(tau) = (X + tau)^{-1}. Stacks of pairs
    (..., d, d) give stacks of each. The resolvents and the node blocks
    come from frechet._half_line_resolvents, node axis last, and each
    product is d multiply-adds along the nodes, so a pair's sums run in
    one order whatever the stack.
    """
    a1 = as_posdef(a1)
    a2 = as_posdef(a2)
    if a1.matrix.shape != a2.matrix.shape:
        raise DimensionMismatch("operands must share one shape")
    m1, m2, d = a1.matrix, a2.matrix, a1.dim
    x = a2.inverse()

    average = conjugated_power_average(m1, a2)
    first = m1 @ m2 - average

    comm = m1 @ m2 - m2 @ m1
    core = (x @ comm @ x).reshape(-1, d, d, 1)
    m1 = m1.reshape(-1, d, d, 1)
    second, third = (np.zeros(m1.shape[:3], dtype=complex) for _ in range(2))
    for p, w, res in _half_line_resolvents(x.reshape(-1, d, d)):
        a = m1[p]
        second[p] += _node_product(_node_product(a, res) - _node_product(res, a), res) @ w
        third[p] += _node_product(_node_product(res, core[p]), _node_product(res, res)) @ w

    return {
        "product_minus_average": first,
        "commutator_resolvent": second.reshape(first.shape),
        "explicit_commutator": third.reshape(first.shape),
    }


def check_commutator_chain(a1, a2, atol: float = 1e-6, seed=None,
                           check_id: str = "commutator_chain"):
    """Max pairwise Frobenius gap across the three routes; a trial passes
    up to ``atol`` times max(1, ||A1||_F ||A2||_F), a bound absolute while
    that product is below 1 and relative past it. A NaN gap is the max,
    and fails the trial. Stacks of pairs give one report per pair, given
    a list of seeds."""
    a1 = as_posdef(a1)
    a2 = as_posdef(a2)
    exprs = list(commutator_chain(a1, a2).values())
    worst = np.max([np.linalg.norm(exprs[i] - exprs[j], axis=(-2, -1))
                    for i in range(len(exprs)) for j in range(i + 1, len(exprs))], axis=0)
    scales = np.maximum(1.0, np.linalg.norm(a1.matrix, axis=(-2, -1))
                        * np.linalg.norm(a2.matrix, axis=(-2, -1)))
    return identity_report(check_id, worst, 0.0, atol=0.0, rtol=atol, scale=scales, n=2,
                           seed=seed, params={"dim": a1.dim})


# ------------------------------------------------------ penalized trace limit

PENALTY_GRID = (1e2, 1e3, 1e4)


def penalized_trace_gaps(a, v=None, dps: int | None = None):
    """Gaps |Tr exp(A - t P) - exp<v, A v>| along the penalties PENALTY_GRID.

    P projects onto the orthogonal complement of the unit vector v, so
    the kernel of the penalty is spanned by v and the trace collapses
    to exp of the Rayleigh quotient as t grows. With ``dps`` (at least
    1) set the whole computation runs in mpmath arbitrary precision,
    which is the only way to resolve the exponentially small gaps when
    v is an eigenvector of A; the float64 path is appropriate for
    generic v, where the gap decays like 1/t.

    At ``dps``, v=None takes A's top eigenvector, computed at working
    precision. A float64 eigenvector is only an eigenvector up to 1e-16,
    and the corresponding 1/t tail buries the exponentially small true
    gap; the direction has to be produced at the same precision as the
    trace.

    Returns (limit, gaps) as floats. The float64 path also takes a
    stack (K, d, d) of matrices with a stack (K, d) of directions, and
    then returns arrays of shape (K,) and (K, len(PENALTY_GRID)), each
    matrix's in the bits it gets alone.
    """
    a = hermitize(np.asarray(a, dtype=complex))
    dim, single = a.shape[-1], a.ndim == 2
    if dps is not None:
        if dps < 1:
            raise InvalidRange(f"dps must be at least 1, got {dps}")
        if not single:
            raise DimensionMismatch("the arbitrary precision path takes one matrix")
    if v is None and dps is None:
        raise DimensionMismatch("need a direction vector, or dps for "
                                "A's top eigenvector")
    if v is not None:
        v = np.asarray(v, dtype=complex)
        v = v.reshape(-1) if single else v
        if v.shape != a.shape[:-1]:
            raise DimensionMismatch(f"vector shape {v.shape} does not "
                                    f"match matrix shape {a.shape}")
        v = v.reshape(-1, dim)
        nv = np.linalg.norm(v, axis=-1)
        if not nv.all():
            raise DimensionMismatch("direction vector must be nonzero")
        v = v / nv[:, None]

    if dps is None:
        stack = a.reshape(-1, dim, dim)
        proj = np.eye(dim) - v[:, :, None] * v.conj()[:, None, :]
        limit = np.exp(((v.conj()[:, None] @ stack) @ v[:, :, None])[:, 0, 0].real)
        gaps = np.stack([np.abs(np.exp(np.linalg.eigvalsh(stack - t * proj)).sum(axis=-1)
                                - limit) for t in PENALTY_GRID], axis=-1)
        return (float(limit[0]), gaps[0].tolist()) if single else (limit, gaps)

    import mpmath as mp

    with mp.workdps(dps):
        am = mp.matrix(a.tolist())
        vm = mp.eighe(am)[1][:, dim - 1] if v is None else mp.matrix(v[0].tolist())
        # renormalize at working precision: a leftover norm defect eps
        # makes P pick up eigenvalue -eps along v and the trace grows
        # like exp(t eps)
        vm /= mp.sqrt(mp.re((vm.H * vm)[0]))
        limit = mp.e ** mp.re((vm.H * am * vm)[0])
        pm = mp.eye(dim) - vm * vm.H
        gaps = [float(abs(mp.fsum(mp.e ** e for e in mp.eighe(am - t * pm, eigvals_only=True))
                          - limit)) for t in PENALTY_GRID]
        return float(limit), gaps


def check_penalized_trace_limit(a, v=None, dps: int | None = None, seed=None):
    """Verdict: gaps do not grow along the grid (up to a precision
    floor) and the final gap is below 1e-3. A stack of matrices and
    directions gives one report per matrix, given a list of seeds."""
    limit, gaps = penalized_trace_gaps(a, v, dps)
    limits = np.reshape(limit, -1)
    gaps = np.reshape(gaps, (len(limits), -1))
    scale = np.where(limits > 1.0, limits, 1.0)  # max(1.0, limit)
    floor = (1e-13 if dps is None else 10.0 ** (8 - dps)) * scale
    monotone = (gaps[:, 1:] <= gaps[:, :-1] + floor[:, None]).all(axis=-1).tolist()
    t_grid = list(PENALTY_GRID)
    params = [{"gaps": g, "limit": lim, "t_grid": t_grid, "dps": dps}
              for g, lim in zip(gaps.tolist(), limits.tolist())]
    reports = identity_report("penalized_trace_limit", gaps[:, -1], 0.0, atol=1e-3,
                              scale=scale, seed=seed, params=params)
    if isinstance(reports, TrialReport):
        return reports._replace(passed=reports.passed and monotone[0])
    return [r._replace(passed=r.passed and m) for r, m in zip(reports, monotone)]


# ----------------------------------------------------------- derivative form

def derivative_form_value(big_a, big_b, outer, step):
    """Central difference of r -> <Omega| exp(log(A + r B) - log A) |Omega>
    at 0, on the operands returned by ``tensor_operands`` (``outer`` is
    Omega): a number, or for stacked operands one value per chain, each
    at its own step. A step with one more leading axis gives one such
    value per entry along it. Each probe is sum_k |(V* Omega)_k|^2
    exp(lam_k) over the eigenpairs of its exponent; no exp matrix is formed.

    The exponent vanishes at r = 0, so the derivative equals the tensor
    right side <Omega| T_A(B) |Omega> exactly; the quotient converges at
    second order in the step.
    """
    lam_min = big_a.spectral.eigenvalues[..., 0]
    norm_b = np.linalg.norm(big_b, 2, axis=(-2, -1))
    lead = max(0, np.ndim(step) - norm_b.ndim)  # the step's own leading axes
    step, norm_b, lam_min = np.broadcast_arrays(step, norm_b, lam_min)
    bad = step * norm_b >= 0.5 * lam_min
    if bad.any():
        raise StepTooLarge(f"step {step[bad][0]:.3e} times ||B|| {norm_b[bad][0]:.3e} is not "
                           f"well inside the smallest eigenvalue {lam_min[bad][0]:.3e}")
    # every probe in one (count, D, D) stack: r = +step, then -step, per step
    r, dim = np.stack([step, -step], axis=lead), big_b.shape[-1]
    shifted = PosDefMatrix((big_a.matrix + r[..., None, None] * big_b).reshape(-1, dim, dim))
    exponent = shifted.log().reshape(r.shape + (dim, dim)) - big_a.log()
    lam, vec = np.linalg.eigh(hermitize(exponent.reshape(-1, dim, dim)))
    # one vector product per matrix, not one product with the stack of rows
    probes = real_trace((np.abs(outer.conj() @ vec) ** 2 * np.exp(lam)).sum(axis=-1),
                        context="derivative probe").reshape(r.shape)
    plus, minus = np.moveaxis(probes, lead, 0)
    return (plus - minus) / (2.0 * step)


def _quotients(chain):
    """(step, quotient at step, quotient at step / 2) per chain, shape (K, 3)."""
    big_a, big_b, outer = tensor_operands(chain)
    lam_min = big_a.spectral.eigenvalues[:, 0]
    step = np.minimum(1e-3, 0.05 * lam_min / np.linalg.norm(big_b, 2, axis=(-2, -1)))
    return np.stack([step, *derivative_form_value(big_a, big_b, outer,
                                                  np.stack([step, step / 2.0]))], axis=-1)


def check_derivative_form(mats, seed=None, sides=None):
    """Difference quotient vs the closed tensor value.

    Two quotients are taken, at ``step`` and ``step / 2``; their error
    ratio (stored in params, should sit near 1/4) witnesses second
    order convergence, and the Richardson combination of the pair
    cancels the quadratic term so the headline comparison is not
    limited by the truncation error of either quotient alone.

    The step adapts to the chain: it must keep A + r B well inside the
    positive cone, so it is at most 1e-3 and a twentieth of the smallest
    eigenvalue of A per unit of ||B||. K chains, given K seeds, are
    decomposed once and probed by (4K, D, D) eighs within STACK_BUDGET.
    The closed value is ``sides["rhs_tensor_resolvent"]`` when given, as
    ``compare`` takes its sides, and is added to ``sides`` when evaluated.
    """
    chain, _ = _coerce_chain(mats)
    size = build_layout(chain.matrix.shape[1], chain.dim, dense=True).total_dim
    sides = {} if sides is None else sides
    if "rhs_tensor_resolvent" not in sides:
        sides["rhs_tensor_resolvent"] = rhs_tensor_resolvent(chain)
    exact = sides["rhs_tensor_resolvent"]
    steps, fd_full, fd_half = _sliced(_quotients, chain, 4 * size * size).T
    err_full, err_half = np.abs(fd_full - exact).tolist(), np.abs(fd_half - exact).tolist()
    extrapolated = (4.0 * fd_half - fd_full) / 3.0
    params = [{"step": step, "err_full": full, "err_half": half,
               "halving_ratio": half / full if full > 0 else 0.0}
              for step, full, half in zip(steps.tolist(), err_full, err_half)]
    return identity_report("derivative_form", extrapolated, exact, atol=1e-5, rtol=1e-5,
                           n=chain.matrix.shape[1], seed=seed, params=params)
