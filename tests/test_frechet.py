import numpy as np
import pytest

from traceineq import (
    NonPositiveEigenvalue,
    PosDefMatrix,
    StepTooLarge,
    conjugated_power_average,
    draw_posdef,
    log_derivative_closed,
    log_derivative_finite_difference,
    log_derivative_quadrature,
    power_average_identity_check,
)
from traceineq.frechet import _half_line_resolvents
from traceineq.quadrature import half_line_rule

UNIT_ROUNDOFF = 2.0 ** -53


def _pair(seed, dim=4):
    rng = np.random.default_rng(seed)
    x = draw_posdef(rng, dim)
    y = draw_posdef(rng, dim).matrix
    return x, y


def test_routes_agree_pairwise():
    x, y = _pair(1)
    closed = log_derivative_closed(x, y)
    quad = log_derivative_quadrature(x, y)
    fd = log_derivative_finite_difference(x, y)
    scale = np.linalg.norm(closed)
    assert np.linalg.norm(closed - quad) / scale < 1e-10
    assert np.linalg.norm(closed - fd) / scale < 1e-5
    assert np.linalg.norm(quad - fd) / scale < 1e-5


def test_closed_route_linear_in_direction():
    x, y = _pair(3)
    y2 = 2.5 * y
    a = log_derivative_closed(x, y)
    b = log_derivative_closed(x, y2)
    assert np.allclose(b, 2.5 * a)


def test_closed_route_identity_base():
    # at X = I the derivative of log is the identity map
    x = PosDefMatrix(np.eye(3))
    y = np.diag([1.0, 2.0, 3.0]).astype(complex)
    out = log_derivative_closed(x, y)
    assert np.allclose(out, y)


def test_closed_route_commuting_case():
    # diagonal base: entrywise divided differences of log
    x = PosDefMatrix(np.diag([1.0, 4.0]))
    y = np.ones((2, 2), dtype=complex)
    out = log_derivative_closed(x, y)
    expect = np.array([[1.0, np.log(4.0) / 3.0], [np.log(4.0) / 3.0, 0.25]])
    assert np.allclose(out, expect)


def test_quadrature_route_converges_with_nodes():
    x, y = _pair(4)
    # the library's 200-node half-line rule resolves the closed form
    closed = log_derivative_closed(x, y)
    quad = log_derivative_quadrature(x, y)
    assert np.linalg.norm(quad - closed) / np.linalg.norm(closed) < 1e-10


def test_finite_difference_second_order():
    x, y = _pair(5)
    closed = log_derivative_closed(x, y)
    e1 = np.linalg.norm(log_derivative_finite_difference(x, y, step=1e-3) - closed)
    e2 = np.linalg.norm(log_derivative_finite_difference(x, y, step=5e-4) - closed)
    assert e2 / e1 == pytest.approx(0.25, rel=0.2)


def _stacked_pairs(dim, lam_range, count):
    rngs = [np.random.default_rng(400 + i) for i in range(count)]
    stack = draw_posdef(rngs, dim, lam_range, count=2)
    return stack[:, 0], stack[:, 1].matrix


@pytest.mark.parametrize("dim", [2, 5])
def test_quadrature_stack_equals_lone_calls(dim):
    # 7 pairs cross the slices of 5 at d = 2; at d = 5 the nodes go in two blocks
    x, y = _stacked_pairs(dim, (0.1, 10.0), 7)
    stacked = log_derivative_quadrature(x, y)
    assert stacked.shape == y.shape
    for i in range(len(y)):
        assert np.array_equal(stacked[i], log_derivative_quadrature(x.matrix[i], y[i]))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam_range, rtol", [((0.1, 10.0), 1e-12), ((1e-3, 1e3), 1e-8)])
def test_quadrature_agrees_with_closed(dim, lam_range, rtol):
    # the 200-node unit-scale half-line rule limits the agreement on wide
    # spectra (about 6e-10 at d = 3, [1e-3, 1e3], over these 20 draws)
    x, y = _stacked_pairs(dim, lam_range, 20)
    closed = log_derivative_closed(x, y)
    gap = np.linalg.norm(log_derivative_quadrature(x, y) - closed, axis=(-2, -1))
    assert (gap <= rtol * np.linalg.norm(closed, axis=(-2, -1))).all()


def _resolvents(x):
    """Every node's resolvent of the stack x, (K, T, d, d), from the helper's blocks."""
    blocks = {}
    for p, _, res in _half_line_resolvents(x):
        blocks.setdefault(p.start, []).append(res)
    full = np.concatenate([np.concatenate(b, axis=-1) for _, b in sorted(blocks.items())])
    return np.moveaxis(full, -1, 1)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_elimination_matches_inv_within_its_bound(dim):
    # the docstring's bound, ||M^{-1} - R||_2 <= 8 d^3 u cond(M) ||R||_2, taken
    # for np.linalg.inv's LU as well: the two differ by at most twice that
    rngs = [np.random.default_rng(500 + i) for i in range(6)]
    vec = draw_posdef(rngs, dim).spectral.eigenvectors
    lam = np.array([np.geomspace(0.1, 10.0, dim), np.geomspace(1e-5, 1e4, dim)])
    x = np.concatenate([(vec * lam_k) @ vec.conj().swapaxes(-1, -2) for lam_k in lam])
    res = _resolvents(x)
    tau = half_line_rule().nodes
    shifted = x[:, None] + tau[:, None, None] * np.eye(dim)
    lam = np.linalg.eigvalsh(shifted)
    cond = lam[..., -1] / lam[..., 0]
    assert cond.max() > 1e7
    err = np.linalg.norm(res - np.linalg.inv(shifted), 2, axis=(-2, -1))
    bound = 16 * dim ** 3 * UNIT_ROUNDOFF * cond * np.linalg.norm(res, 2, axis=(-2, -1))
    assert (err <= bound).all()


@pytest.mark.parametrize("x", [[[1.0, 2.0], [2.0, 1.0]],  # second pivot negative
                               [[-1.0, 0.0], [0.0, 1.0]],
                               [[np.nan, 0.0], [0.0, 1.0]]])
def test_elimination_raises_on_a_non_positive_pivot(x):
    with pytest.raises(NonPositiveEigenvalue):
        list(_half_line_resolvents(np.array([np.eye(2), x], dtype=complex)))


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_finite_difference_stack_equals_lone_calls(dim):
    # each pair at its own default step, a zero direction among them
    x, y = _stacked_pairs(dim, (0.1, 10.0), 4)
    y[2] = 0.0
    stacked = log_derivative_finite_difference(x, y)
    assert stacked.shape == y.shape and not stacked[2].any()
    for i in range(len(y)):
        assert np.array_equal(stacked[i], log_derivative_finite_difference(x.matrix[i], y[i]))
    # a step too large for one pair alone refuses the whole stack; on
    # [0.1, 10], ||Y|| <= 10 and the margin 0.5 lam_min(X) >= 0.05
    assert not log_derivative_finite_difference(x, y, step=1e-3)[2].any()
    y[0] *= 1e6
    with pytest.raises(StepTooLarge):
        log_derivative_finite_difference(x, y, step=1e-3)


def test_finite_difference_step_guard():
    x, y = _pair(6, dim=2)
    with pytest.raises(StepTooLarge):
        log_derivative_finite_difference(x, y, step=10.0)


def test_derivative_of_trace_is_trace_of_direction():
    # Tr T_X(Y) = d/dr Tr log(X + r Y) = Tr[X^{-1} Y]
    x, y = _pair(7)
    out = log_derivative_closed(x, y)
    assert np.trace(out) == pytest.approx(np.trace(x.inverse() @ y), abs=1e-10)


def test_conjugated_power_average_hermitian():
    rng = np.random.default_rng(8)
    a1 = draw_posdef(rng, 3).matrix
    a2 = draw_posdef(rng, 3)
    avg = conjugated_power_average(a1, a2)
    assert np.allclose(avg, avg.conj().T, atol=1e-12)


def test_power_average_matches_log_derivative():
    rng = np.random.default_rng(9)
    a1 = draw_posdef(rng, 3).matrix
    a2 = draw_posdef(rng, 3)
    avg = conjugated_power_average(a1, a2)
    closed = log_derivative_closed(PosDefMatrix(a2.inverse()), a1)
    assert np.linalg.norm(avg - closed) / np.linalg.norm(closed) < 1e-10
    rep = power_average_identity_check(a1, a2, seed=9)
    assert rep.passed and rep.n == 2


def test_power_average_commuting_diagonal_reduction():
    # diagonal operands: the conjugation cancels entrywise on the
    # diagonal, leaving x_i y_i times the unit mass of the density
    a1 = np.diag([2.0, 5.0]).astype(complex)
    a2 = PosDefMatrix(np.diag([3.0, 7.0]))
    avg = conjugated_power_average(a1, a2)
    assert np.allclose(avg, np.diag([6.0, 35.0]), atol=1e-9)