"""Trace-inequality left and right sides, and the identity checks
connecting their different formulations.

Chains are passed as python lists [A1, ..., An] of positive-definite
matrices, or K at once as a PosDefMatrix (K, n, d, d), whose checks
take a list of K seeds; index comments are 1-based as in the math.
For a chain of length n the comparisons are

    Tr exp(sum_k log A_k)  <=  integral form  ==  tensor form,

where the integral form averages conjugated complex powers against the
hyperbolic density and the tensor form evaluates the log-derivative
operator on one large Kronecker product, whose spectrum comes from the
chain's own eigenpairs, paired through a maximally entangled
expectation. The two right sides agree exactly, which is checked
pointwise in t (before integration) and after integration. Every
two-sided check is a row of COMPARISONS, evaluated by compare.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .entangle import build_layout, omega_vector, projector
from .errors import DimensionMismatch, InvalidRange
from .frechet import log_derivative_closed
from .linalg import (
    STACK_BUDGET,
    PosDefMatrix,
    SpectralDecomposition,
    hermitian_fn,
    kron_all,
    logarithmic_ratio,
    real_trace,
    stack_slices,
)
from .quadrature import beta_density, real_line_rule
from .report import identity_report, inequality_report


def _coerce_chain(mats, min_len=3, exact=None):
    """(chain, single): the chains as one PosDefMatrix of shape
    (K, n, d, d), and whether they came as one chain, the case K = 1. A
    list of n stacks of shape (K, d, d) is a stack of chains too."""
    if not isinstance(mats, PosDefMatrix):
        mats = [getattr(m, "matrix", m) for m in mats]
        if len({np.shape(m) for m in mats}) != 1:
            raise DimensionMismatch(f"chain matrices must share one shape, got "
                                    f"{[np.shape(m) for m in mats]}")
        mats = PosDefMatrix(np.stack(mats, axis=-3))
    single = mats.matrix.ndim == 3
    chain = mats[None] if single else mats
    if (chain.matrix.ndim != 4 or chain.matrix.shape[1] < min_len
            or exact not in (None, chain.matrix.shape[1])):
        raise DimensionMismatch(f"need chains of {exact or f'at least {min_len}'} "
                                f"matrices, got shape {mats.matrix.shape}")
    return chain, single


def _result(values, single, context):
    """The real values of a stack of chains, a float for a single chain."""
    return real_trace(values[0] if single else values, context=context)


def _sliced(fn, chain, entries):
    """fn over the stack of chains in stack_slices, ``entries`` being fn's
    largest intermediate per chain."""
    chain.spectral  # decomposed once, before slicing: every slice shares it
    return np.concatenate([fn(chain[s]) for s in stack_slices(chain.matrix.shape[0], entries)])


# ---------------------------------------------------------------- left side

def lhs_exp_sum_log(mats):
    """Tr exp(sum_k log A_k); the sum of logs is Hermitian, not positive."""
    chain, single = _coerce_chain(mats, min_len=2)
    total = chain.log().sum(axis=1)
    return _result(np.einsum("kii->k", hermitian_fn(total, np.exp)), single,
                   "exp-sum-log trace")


def scaled_exponential_lhs(mats):
    """d exp((1/d) Tr sum_k log A_k), the dimension-scaled refinement
    of the left side for quadruples."""
    chain, single = _coerce_chain(mats, min_len=2)
    d = chain.dim
    total = np.log(chain.spectral.eigenvalues).sum(axis=(1, 2))
    return _result(d * np.exp(total / d), single, "scaled left side")


# --------------------------------------------------------------- right sides

def rhs_golden_thompson(mats):
    """Tr[A1 A2], the two-matrix product bound."""
    chain, single = _coerce_chain(mats, min_len=2, exact=2)
    return _result(np.einsum("kij,kji->k", chain.matrix[:, 0], chain.matrix[:, 1]),
                   single, "product trace")


def rhs_lieb_three(mats):
    """Tr[A3 T_{A2^{-1}}(A1)], the three-matrix log-derivative bound."""
    chain, single = _coerce_chain(mats, exact=3)
    t_val = log_derivative_closed(PosDefMatrix(chain[:, 1].inverse()), chain.matrix[:, 0])
    return _result(np.einsum("kij,kji->k", chain.matrix[:, 2], t_val), single,
                   "three-matrix bound")


def rhs_power_integral(mats, lengths=None):
    """Beta-average of Tr[A_n A_{n-1}^{(1+it)/2} .. A_2^{(1+it)/2} A_1
    A_2^{(1-it)/2} .. A_{n-1}^{(1-it)/2}]. Given chain ``lengths`` m in
    [3, n], one sweep over the chain gives one value per length, that of
    the prefix chain[:, :m] in the bits of a call on it, as an array whose
    first axis is the lengths."""
    chain, single = _coerce_chain(mats)
    n = chain.matrix.shape[1]
    wanted = (n,) if lengths is None else tuple(lengths)
    if not wanted or not all(3 <= m <= n for m in wanted):
        raise DimensionMismatch(f"need lengths in [3, {n}], got {lengths}")
    rule = real_line_rule()
    z = 0.5 * (1.0 + 1j * rule.nodes)
    weights = rule.weights * beta_density(rule.nodes)
    # a sum per row, not a product with the stack: its order is one chain's
    values = _sliced(lambda c: (_power_traces(c, z, wanted) * weights).sum(axis=-1), chain,
                     z.size * chain.dim ** 2)
    if lengths is None:
        return _result(values[:, 0], single, "power-integral form")
    return np.moveaxis(_result(values, single, "power-integral form"), -1, 0)


def _power_traces(chain, z, lengths):
    """The chain traces of a stack of chains at each z_t, shape (K, L, T),
    of its prefixes of the L lengths. The sandwich S(t) of A_1 between
    the powers of A_2 .. A_k is held in the eigenbasis V_k of A_k, as
    S[K, i, t, j]. There the conjugation by A_k^{z_t} scales entry (i, j)
    by lam_i^{z_t} conj(lam_j^{z_t}), and the move to the next basis is
    one product with U = V_{k+1}* V_k per side. The length k + 1 trace is
    then Tr[A_{k+1} S], one product with V_k* A_{k+1} V_k, so the pass to
    the longest length passes every shorter one."""
    lam, vec = chain.spectral.eigenvalues, chain.spectral.eigenvectors
    vec_h = vec.conj().swapaxes(-1, -2)
    count, _, d = lam.shape
    s = (vec_h[:, 1] @ chain.matrix[:, 0] @ vec[:, 1])[:, :, None, :]
    traces = {}
    for k in range(1, max(lengths) - 1):
        p = np.exp(np.log(lam[:, k])[:, :, None] * z)
        if k == 1:
            s = s * p[:, :, :, None]
            spare = np.empty_like(s)
        else:  # both products into the other buffer and back, no new arrays
            u = vec_h[:, k] @ vec[:, k - 1]
            np.matmul(u, s.reshape(count, d, -1), out=spare.reshape(count, d, -1))
            np.matmul(spare.reshape(count, -1, d), u.conj().swapaxes(-1, -2),
                      out=s.reshape(count, -1, d))
            s *= p[:, :, :, None]
        s *= p.conj().swapaxes(-1, -2)[:, None]
        if k + 2 in lengths:
            last = vec_h[:, k] @ chain.matrix[:, k + 1] @ vec[:, k]
            traces[k + 2] = np.einsum("kji,kitj->kt", last, s)
    return np.stack([traces[m] for m in lengths], axis=1)


def _slot_spectra(chain, dense=False):
    """(layout, lam, slots): the F middle slots' spectra of K chains, shapes
    (K, F, d) and (K, F, d, d), conj(V) on conjugated slots, (1, I) on pads;
    lam (K, D) is that of their Kronecker product W = A^-1 (Van Loan 2000)."""
    count, n, d = chain.matrix.shape[:3]
    layout = build_layout(n, d, dense=dense)
    dec = chain.spectral
    # index n is the identity pad
    vals = np.concatenate([dec.eigenvalues, np.ones((count, 1, d))], axis=1)
    vecs = np.concatenate([dec.eigenvectors, np.tile(np.eye(d), (count, 1, 1, 1))], axis=1)
    index = [n if s.source is None else s.source - 1 for s in layout.mid_slots]
    conj = np.array([s.conjugate for s in layout.mid_slots])[:, None, None]
    vals, vecs = vals[:, index], vecs[:, index]
    lam = np.ones((count, 1))
    for v in vals.swapaxes(0, 1):
        lam = (lam[:, :, None] * v[:, None, :]).reshape(count, -1)
    return layout, lam, SpectralDecomposition(vals, np.where(conj, vecs.conj(), vecs))


def _paired(factors, first, copies):
    """(kron_j X_j) Omega = flatten(kron_k X_{first+k} X_{first+copies+k}^T),
    X_j = factors[:, j], for Omega pairing ``copies`` factors at ``first``."""
    mid = first + copies
    block = factors[:, first:mid] @ factors[:, mid:mid + copies].swapaxes(-1, -2)
    return kron_all(block.swapaxes(0, 1)).reshape(len(factors), -1)


def tensor_operands(mats):
    """The dense pair (A, B) and outer vector of the tensor formulation,
    for the derivative form only, so D is held to DENSE_CAP.

    A = W^-1, the Kronecker product of the slot inverses, carries its
    decomposition (1/lam, V), ascending, from the slot spectra. B is
    A1 (x) conj(An) (x) the nested pairing blocks. The doubling
    permutation places the matrices, so Tr[P (T_A(B))] reproduces the
    integral form on the same ordered chain."""
    chain, single = _coerce_chain(mats)
    layout, lam, slots = _slot_spectra(chain, dense=True)
    order = np.argsort(1.0 / lam, axis=-1)
    vec = kron_all(slots.eigenvectors.swapaxes(0, 1))
    dec = SpectralDecomposition(1.0 / np.take_along_axis(lam, order, axis=-1),
                                np.take_along_axis(vec, order[:, None, :], axis=-1))
    inverse = kron_all(slots.apply(lambda x: 1.0 / x).swapaxes(0, 1))
    big_a = PosDefMatrix._known(inverse, dec)
    big_b = kron_all([chain.matrix[:, 0], chain.matrix[:, -1].conj()]
                     + [projector(layout.local_dim, m) for m in layout.pair_copies])
    outer = omega_vector(layout.local_dim, layout.outer_copies)
    return (big_a[0], big_b[0], outer) if single else (big_a, big_b, outer)


def rhs_tensor_resolvent(mats):
    """<Omega| T_A(B) |Omega> with the operands above: the divided-difference
    kernel on A's factored spectrum, contracted factor by factor."""
    chain, single = _coerce_chain(mats)
    size = build_layout(chain.matrix.shape[1], chain.dim).total_dim
    return _result(_sliced(_tensor_resolvent, chain, size), single,
                   "tensor-resolvent form")


def _tensor_resolvent(chain):
    """V* B V = C (x) kron_m u_m u_m*, C = C_1 (x) C_2 with C_1 = V_1* A_1 V_1,
    C_2 = V_2* conj(A_n) V_2, and u_m = V_block* Omega_m, so the form is
    sum_ij conj(y_i) C[a_i, a_j] phi_ij y_j, y = (V* Omega) conj(kron_m u_m),
    a_i the index into C. An identity pad has eigenvalue exactly 1 and
    eigenvector I, so phi does not depend on its index: past slot 2 its
    axis is summed out of y, and in slot 2 it becomes a column axis of y,
    contracted once through C_2 = conj(A_n). phi is then the Loewner kernel
    of the d^(n-2) products of the live slots' eigenvalues, made by rows,
    2 STACK_BUDGET float entries (the bytes of STACK_BUDGET complex ones)
    at a time. Each block leaves one value per chain and row, and each
    chain's rows are summed once at the end, so a chain's value does not
    depend on the blocks, nor on the other chains of the stack."""
    layout, lam, slots = _slot_spectra(chain)
    vec_h = slots.eigenvectors.conj().swapaxes(-1, -2)
    count, d, factors = lam.shape[0], chain.dim, layout.factor_count
    pads = [s.source is None for s in layout.mid_slots]
    ends = np.stack([chain.matrix[:, 0], chain.matrix[:, -1].conj()], axis=1)
    c = vec_h[:, :2] @ ends @ slots.eigenvectors[:, :2]
    u = kron_all([_paired(vec_h, 2 * m, m)[:, None, :] for m in layout.pair_copies])
    y = (_paired(vec_h, 0, factors // 2).reshape(count, d * d, -1) * u.conj()).reshape(
        (count,) + (d,) * factors).sum(axis=tuple(1 + j for j in range(2, factors) if pads[j]))
    if pads[1]:
        y = np.moveaxis(y, 2, -1).reshape(count, -1, d)
        c, right = c[:, 0], y @ c[:, 1].swapaxes(-1, -2)
    else:
        y = y.reshape(count, -1, 1)
        c, right = kron_all(c.swapaxes(0, 1)), y
    live = (slice(None),) + tuple(0 if p else slice(None) for p in pads)
    mu = 1.0 / lam.reshape((count,) + (d,) * factors)[live].reshape(count, -1)
    size, pair = mu.shape[1], c.shape[-1]
    rest = size // pair
    index = np.arange(size) // rest  # a_i
    right = right.reshape(count, pair, rest, -1)
    step = max(1, 2 * STACK_BUDGET // (count * size))
    terms = np.empty((count, size), dtype=complex)
    for i in range(0, size, step):
        rows = slice(i, i + step)
        phi = logarithmic_ratio(mu[:, rows, None], mu[:, None, :])
        z = np.einsum("kibs,kbse->kibe", phi.reshape(count, -1, pair, rest), right)
        terms[:, rows] = np.einsum("kie,kib,kibe->ki", y[:, rows].conj(), c[:, index[rows]], z)
    return terms.sum(axis=-1)


# ------------------------------------------------- pointwise chain identity

def chain_product_trace(mats, t):
    """Tr[A_n A_{n-1}^{(1+it)/2} .. A_1 .. A_{n-1}^{(1-it)/2}] at t, or at
    each t of an array (a trailing axis): the integrand of the power
    integral, by the same evaluation."""
    chain, single = _coerce_chain(mats)
    z = 0.5 * (1.0 + 1j * np.asarray(t, dtype=float))
    traces = _power_traces(chain, z.reshape(-1), (chain.matrix.shape[1],))
    return _result(traces.reshape((-1,) + z.shape), single, "chain product trace")


def tensor_pair_trace(mats, t):
    """<Omega| W^{(1+it)/2} B W^{(1-it)/2} |Omega> at t, or at each t of an
    array, W = A^-1, with W^z Omega = flatten(kron_k S_k^z (S_{k+F/2}^z)^T)
    for the slot matrices S_k (conj(S)^z from conj(V)); each pairing block
    of B contracts its Omega_m, leaving w* (A_1 (x) conj(A_n)) w. Equals
    chain_product_trace for every t: the pointwise doubling identity."""
    chain, single = _coerce_chain(mats)
    layout, _, slots = _slot_spectra(chain)
    z = 0.5 * (1.0 - 1j * np.asarray(t, dtype=float))
    count, d = chain.matrix.shape[0], chain.dim
    powers = SpectralDecomposition(slots.eigenvalues[:, None], slots.eigenvectors[:, None]
                                   ).apply(lambda x: np.exp(z.reshape(-1, 1, 1) * np.log(x)))
    u = _paired(powers.reshape((-1,) + powers.shape[2:]), 0, layout.factor_count // 2)
    for m in reversed(layout.pair_copies):
        u = np.einsum("kxii->kx", u.reshape(len(u), -1, d ** m, d ** m))
    w = u.reshape(count, -1, d, d)
    ends = chain.matrix[:, None, 0] @ w @ chain.matrix[:, None, -1]
    return _result(np.einsum("ktij,ktij->kt", w.conj(), ends).reshape((count,) + z.shape),
                   single, "tensor pair trace")


KEY_T_GRID = (0.0, 0.5, -0.5, 2.0, -2.0)


def check_key_identity(mats, seed=None):
    """Pointwise product trace vs tensor pairing over KEY_T_GRID, both
    sides evaluated for the whole grid and stack at once."""
    chain, _ = _coerce_chain(mats)  # decomposed once, for every t
    t = np.array(KEY_T_GRID)
    pairs = np.stack([chain_product_trace(chain, t), tensor_pair_trace(chain, t)], axis=-1)
    gaps = np.abs(pairs[..., 0] - pairs[..., 1]) / np.abs(pairs).max(axis=-1)
    # a NaN gap (the last) fails the trial; else the first t within 4 eps
    # of the largest gap, so gaps at roundoff level keep their t
    nan = np.isnan(gaps)
    near = gaps >= gaps.max(axis=-1, keepdims=True) - 4 * np.finfo(float).eps
    worst = np.where(nan.any(axis=-1), t.size - 1 - nan[:, ::-1].argmax(axis=-1),
                     near.argmax(axis=-1))
    lhs, rhs = pairs[np.arange(len(gaps)), worst].T
    t_grid = list(KEY_T_GRID)
    params = [{"t_worst": KEY_T_GRID[i], "t_grid": t_grid} for i in worst.tolist()]
    return identity_report("key_identity", lhs, rhs, rtol=1e-9, n=chain.matrix.shape[1],
                           seed=seed, params=params)


# ------------------------------------------------------------- comparisons

_INEQ = ("inequality_report", {})  # its default tolerances


class Comparison(NamedTuple):
    verdict: str  # the report function, by name
    tol: dict  # its tolerances
    lhs: str  # the two sides, by name
    rhs: str
    length: int | str  # fixed chain length, or "n" for any the sides take


# The two-sided checks: edges between the sides of one chain. Verdicts and
# sides are module globals looked up by name at call time.
COMPARISONS = {
    "golden_thompson": Comparison(*_INEQ, "lhs_exp_sum_log", "rhs_golden_thompson", 2),
    "lieb_three": Comparison(*_INEQ, "lhs_exp_sum_log", "rhs_lieb_three", 3),
    "power_integral": Comparison(*_INEQ, "lhs_exp_sum_log", "rhs_power_integral", "n"),
    "tensor_resolvent": Comparison(*_INEQ, "lhs_exp_sum_log", "rhs_tensor_resolvent", "n"),
    "scaled_exponential": Comparison(*_INEQ, "scaled_exponential_lhs",
                                     "rhs_tensor_resolvent", 4),
    "jensen_trace": Comparison(*_INEQ, "scaled_exponential_lhs", "lhs_exp_sum_log", "n"),
    "equivalence_integral_tensor": Comparison("identity_report", {"rtol": 1e-7},
                                              "rhs_power_integral",
                                              "rhs_tensor_resolvent", "n"),
    "lieb_equivalence": Comparison("identity_report", {"rtol": 1e-8},
                                   "rhs_power_integral", "rhs_lieb_three", 3),
}


def compare(check_id, mats, *, seed=None, sides=None):
    """The verdict of one COMPARISONS row: one report, or for a list of
    seeds, one per chain of the stack, a list of them. ``sides`` maps
    side names to their values already evaluated on this stack; a side
    evaluated here is added to it, one that raises is not."""
    row = COMPARISONS[check_id]
    chain, _ = _coerce_chain(mats, min_len=2,
                             exact=None if row.length == "n" else row.length)
    sides = {} if sides is None else sides
    for name in (row.lhs, row.rhs):
        if name not in sides:
            sides[name] = globals()[name](chain)
    return globals()[row.verdict](check_id, sides[row.lhs], sides[row.rhs],
                                  n=chain.matrix.shape[1], seed=seed, **row.tol)


def check_tensor_resolvent(mats, seed=None):
    """The n-matrix bound in closed tensor form: compare's tensor_resolvent row."""
    return compare("tensor_resolvent", mats, seed=seed)


def check_equivalence(mats, rule=None, *, seed=None):
    """Integrated form vs tensor form on the same chain. ``rule``, if
    given, must be real_line_rule() itself, the one rule the integral form
    uses; any other rule raises rather than being ignored."""
    if rule is not None and rule is not real_line_rule():
        raise InvalidRange("the integral form takes no rule but real_line_rule()")
    return compare("equivalence_integral_tensor", mats, seed=seed)
