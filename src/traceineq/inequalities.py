"""Trace-inequality left and right sides, and the identity checks
connecting their different formulations.

Chains are passed as python lists [A1, ..., An] of positive-definite
matrices; index comments follow the 1-based convention of the math.
For a chain of length n the comparisons are

    Tr exp(sum_k log A_k)  <=  integral form  ==  tensor form,

where the integral form averages conjugated complex powers against the
hyperbolic density and the tensor form evaluates the log-derivative
operator on one large Kronecker product, paired through a maximally
entangled expectation. The two right sides agree exactly, which is
checked pointwise in t (before integration) and after integration.
"""
from __future__ import annotations

import numpy as np

from .entangle import build_layout, omega_vector, projector
from .errors import DimensionMismatch
from .frechet import log_derivative_closed
from .linalg import (
    PosDefMatrix,
    as_posdef,
    hermitian_fn,
    kron_all,
    logarithmic_ratio,
    real_trace,
)
from .quadrature import QuadratureRule, beta_density, real_line_rule
from .report import TrialReport, identity_report, inequality_report


def _coerce_chain(mats, min_len=3):
    chain = [as_posdef(m) for m in mats]
    if len(chain) < min_len:
        raise DimensionMismatch(f"chain needs at least {min_len} matrices, "
                                f"got {len(chain)}")
    dim = chain[0].dim
    if any(m.dim != dim for m in chain):
        raise DimensionMismatch("chain matrices must share one dimension")
    return chain


# ---------------------------------------------------------------- left side

def lhs_exp_sum_log(mats) -> float:
    """Tr exp(sum_k log A_k); the sum of logs is Hermitian, not positive."""
    chain = _coerce_chain(mats, min_len=2)
    total = sum(m.log() for m in chain)
    return real_trace(np.trace(hermitian_fn(total, np.exp)),
                      context="exp-sum-log trace")


def scaled_exponential_lhs(mats) -> float:
    """d exp((1/d) Tr sum_k log A_k), the dimension-scaled refinement
    of the left side for quadruples."""
    chain = _coerce_chain(mats, min_len=2)
    d = chain[0].dim
    total = sum(float(np.trace(m.log()).real) for m in chain)
    return d * float(np.exp(total / d))


# --------------------------------------------------------------- right sides

def rhs_golden_thompson(a1, a2) -> float:
    """Tr[A1 A2], the two-matrix product bound."""
    a1 = as_posdef(a1)
    a2 = as_posdef(a2)
    if a1.dim != a2.dim:
        raise DimensionMismatch("operands must share one dimension")
    return real_trace(np.trace(a1.matrix @ a2.matrix), context="product trace")


def rhs_lieb_three(a1, a2, a3) -> float:
    """Tr[A3 T_{A2^{-1}}(A1)], the three-matrix log-derivative bound."""
    chain = _coerce_chain([a1, a2, a3])
    t_val = log_derivative_closed(PosDefMatrix(chain[1].inverse()),
                                  chain[0].matrix).value
    return real_trace(np.trace(chain[2].matrix @ t_val),
                      context="three-matrix bound")


def rhs_power_integral(mats, rule: QuadratureRule | None = None) -> float:
    """Beta-average of Tr[A_n A_{n-1}^{(1+it)/2} .. A_2^{(1+it)/2} A_1
    A_2^{(1-it)/2} .. A_{n-1}^{(1-it)/2}]."""
    chain = _coerce_chain(mats)
    rule = rule or real_line_rule()
    z = 0.5 * (1.0 + 1j * rule.nodes)
    mid = np.broadcast_to(chain[0].matrix, (rule.node_count,) + chain[0].matrix.shape)
    # middle matrices k = 2..n-1; the (1-it)/2 power is the conjugate transpose
    for m in chain[1:-1]:
        stack = m.power_stack(z)
        mid = stack @ mid @ stack.conj().transpose(0, 2, 1)
    traces = np.einsum("ij,tji->t", chain[-1].matrix, mid)
    val = np.dot(rule.weights * beta_density(rule.nodes), traces)
    return real_trace(val, context="power-integral form")


def _mid_factors(chain, layout, fn):
    """fn of each middle slot's matrix, in slot order: the entrywise
    conjugate where the slot says so, an identity on padding slots."""
    factors = []
    for slot in layout.mid_slots:
        if slot.source is None:
            factors.append(np.eye(layout.local_dim, dtype=complex))
        else:
            base = chain[slot.source - 1]
            if slot.conjugate:
                base = PosDefMatrix(base.matrix.conj())
            factors.append(fn(base))
    return factors


def _paired_operand(chain, layout):
    """(B, Omega): B = A1 (x) conj(An) (x) the nested pairing blocks, and
    Omega the outer pairing vector."""
    b_factors = [chain[0].matrix, chain[-1].matrix.conj()]
    b_factors += [projector(layout.local_dim, m) for m in layout.pair_copies]
    return kron_all(b_factors), omega_vector(layout.local_dim, layout.outer_copies)


def tensor_operands(mats):
    """The pair (A, B) and outer vector of the tensor formulation.

    A is the Kronecker product over middle slots of the (conjugated
    where the slot says so) inverses, with identity factors on padding
    slots. B is A1 (x) conj(An) (x) the nested pairing blocks. The
    layout places matrices by the doubling permutation, so the value
    Tr[P (T_A(B))] reproduces the integral form on the same ordered
    chain. The slot factors come from ``_mid_factors`` and (B, Omega)
    from ``_paired_operand``, shared with ``tensor_pair_trace``.
    """
    chain = _coerce_chain(mats)
    layout = build_layout(len(chain), chain[0].dim)
    big_a = PosDefMatrix(kron_all(_mid_factors(chain, layout, PosDefMatrix.inverse)))
    big_b, outer = _paired_operand(chain, layout)
    return big_a, big_b, outer


def rhs_tensor_resolvent(mats) -> float:
    """<Omega| T_A(B) |Omega> with the operands above; evaluated through
    the divided-difference kernel with a rank-one contraction."""
    big_a, big_b, outer = tensor_operands(mats)
    lam = big_a.spectral.eigenvalues
    vec = big_a.spectral.eigenvectors
    proj = vec.conj().T @ outer
    btil = vec.conj().T @ big_b @ vec
    phi = logarithmic_ratio(lam[:, None], lam[None, :])
    val = proj.conj() @ (btil * phi) @ proj
    return real_trace(val, context="tensor-resolvent form")


# ------------------------------------------------- pointwise chain identity

def chain_product_trace(mats, t: float) -> float:
    """Tr[A_n A_{n-1}^{(1+it)/2} .. A_1 .. A_{n-1}^{(1-it)/2}] at one t."""
    chain = _coerce_chain(mats)
    mid = chain[0].matrix
    for m in chain[1:-1]:
        p = m.power(0.5 * (1.0 + 1j * t))
        mid = p @ mid @ p.conj().T
    return real_trace(np.trace(chain[-1].matrix @ mid),
                      context="chain product trace")


def tensor_pair_trace(mats, t: float) -> float:
    """<Omega| W^{(1+it)/2} B W^{(1-it)/2} |Omega> at one t, where W is
    the slot product without inverses. Equals chain_product_trace for
    every t; this is the pointwise form of the doubling identity."""
    chain = _coerce_chain(mats)
    layout = build_layout(len(chain), chain[0].dim)
    z_minus = 0.5 * (1.0 - 1j * t)
    w_minus = kron_all(_mid_factors(chain, layout, lambda m: m.power(z_minus)))
    big_b, outer = _paired_operand(chain, layout)
    u = w_minus @ outer
    return real_trace(u.conj() @ big_b @ u, context="tensor pair trace")


def check_key_identity(mats, t_grid=(0.0, 0.5, -0.5, 2.0, -2.0),
                       rtol: float = 1e-9, seed=None) -> TrialReport:
    """Pointwise product trace vs tensor pairing over a grid of t."""
    worst = (0.0, None, 0.0, 0.0)
    for t in t_grid:
        lhs = chain_product_trace(mats, t)
        rhs = tensor_pair_trace(mats, t)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        # NaN loses every comparison; keep it as the worst so the trial fails
        if rel >= worst[0] or np.isnan(rel):
            worst = (rel, t, lhs, rhs)
    _, t_worst, lhs, rhs = worst
    return identity_report("key_identity", lhs, rhs, rtol=rtol,
                           n=len(mats), seed=seed,
                           params={"t_worst": t_worst,
                                   "t_grid": list(t_grid)})


def check_equivalence(mats, rule: QuadratureRule | None = None,
                      rtol: float = 1e-7, seed=None) -> TrialReport:
    """Integrated form vs tensor form on the same chain."""
    lhs = rhs_power_integral(mats, rule)
    rhs = rhs_tensor_resolvent(mats)
    return identity_report("equivalence_integral_tensor", lhs, rhs,
                           rtol=rtol, n=len(mats), seed=seed)


def check_lieb_equivalence(mats, rule: QuadratureRule | None = None,
                           rtol: float = 1e-8, seed=None) -> TrialReport:
    """For triples the integral form collapses to the three-matrix bound."""
    if len(mats) != 3:
        raise DimensionMismatch(f"need exactly 3 matrices, got {len(mats)}")
    lhs = rhs_power_integral(mats, rule)
    rhs = rhs_lieb_three(*mats)
    return identity_report("lieb_equivalence", lhs, rhs, rtol=rtol,
                           n=3, seed=seed)


# ---------------------------------------------------------- inequality glue

INEQ_ATOL = 1e-9
INEQ_RTOL = 1e-8


def check_golden_thompson(a1, a2, seed=None) -> TrialReport:
    return inequality_report("golden_thompson", lhs_exp_sum_log([a1, a2]),
                             rhs_golden_thompson(a1, a2),
                             atol=INEQ_ATOL, rtol=INEQ_RTOL, n=2, seed=seed)


def check_lieb_three(a1, a2, a3, seed=None) -> TrialReport:
    return inequality_report("lieb_three", lhs_exp_sum_log([a1, a2, a3]),
                             rhs_lieb_three(a1, a2, a3),
                             atol=INEQ_ATOL, rtol=INEQ_RTOL, n=3, seed=seed)


def check_power_integral(mats, rule=None, seed=None) -> TrialReport:
    return inequality_report("power_integral", lhs_exp_sum_log(mats),
                             rhs_power_integral(mats, rule),
                             atol=INEQ_ATOL, rtol=INEQ_RTOL,
                             n=len(mats), seed=seed)


def check_tensor_resolvent(mats, seed=None) -> TrialReport:
    return inequality_report("tensor_resolvent", lhs_exp_sum_log(mats),
                             rhs_tensor_resolvent(mats),
                             atol=INEQ_ATOL, rtol=INEQ_RTOL,
                             n=len(mats), seed=seed)


def check_scaled_exponential(mats, seed=None) -> TrialReport:
    """d exp((1/d) Tr sum log A_k) <= tensor form, for quadruples."""
    if len(mats) != 4:
        raise DimensionMismatch(f"need exactly 4 matrices, got {len(mats)}")
    return inequality_report("scaled_exponential", scaled_exponential_lhs(mats),
                             rhs_tensor_resolvent(mats),
                             atol=INEQ_ATOL, rtol=INEQ_RTOL, n=4, seed=seed)


def check_jensen_trace(mats, seed=None) -> TrialReport:
    """d exp((1/d) Tr M) <= Tr exp M for the Hermitian M = sum log A_k;
    convexity baseline separating the two left-side normalizations."""
    return inequality_report("jensen_trace", scaled_exponential_lhs(mats),
                             lhs_exp_sum_log(mats),
                             atol=INEQ_ATOL, rtol=INEQ_RTOL,
                             n=len(mats), seed=seed)
