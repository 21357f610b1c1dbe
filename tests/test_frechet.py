import numpy as np
import pytest

from traceineq import (
    PosDefMatrix,
    StepTooLarge,
    conjugated_power_average,
    draw_posdef,
    log_derivative_closed,
    log_derivative_finite_difference,
    log_derivative_quadrature,
    power_average_identity_check,
)
from traceineq.quadrature import half_line_rule, real_line_rule


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
    closed = log_derivative_closed(x, y)
    coarse = log_derivative_quadrature(x, y, half_line_rule(40))
    fine = log_derivative_quadrature(x, y, half_line_rule(200))
    err_coarse = np.linalg.norm(coarse - closed)
    err_fine = np.linalg.norm(fine - closed)
    assert err_fine < err_coarse
    assert err_fine / np.linalg.norm(closed) < 1e-10


def test_finite_difference_second_order():
    x, y = _pair(5)
    closed = log_derivative_closed(x, y)
    e1 = np.linalg.norm(log_derivative_finite_difference(x, y, step=1e-3) - closed)
    e2 = np.linalg.norm(log_derivative_finite_difference(x, y, step=5e-4) - closed)
    assert e2 / e1 == pytest.approx(0.25, rel=0.2)


def test_finite_difference_step_guard():
    x, y = _pair(6, dim=2)
    with pytest.raises(StepTooLarge):
        log_derivative_finite_difference(x, y, step=10.0)


def test_derivative_of_trace_is_trace_of_direction():
    # Tr T_X(Y) = d/dr Tr log(X + r Y) = Tr[X^{-1} Y]
    x, y = _pair(7)
    out = log_derivative_closed(x, y)
    assert np.trace(out) == pytest.approx(np.trace(x.inverse() @ y), abs=1e-10)


def test_conjugated_power_average_hermitian(beta_rule):
    rng = np.random.default_rng(8)
    a1 = draw_posdef(rng, 3).matrix
    a2 = draw_posdef(rng, 3)
    avg = conjugated_power_average(a1, a2, beta_rule)
    assert np.allclose(avg, avg.conj().T, atol=1e-12)


def test_power_average_matches_log_derivative(beta_rule):
    rng = np.random.default_rng(9)
    a1 = draw_posdef(rng, 3).matrix
    a2 = draw_posdef(rng, 3)
    avg = conjugated_power_average(a1, a2, beta_rule)
    closed = log_derivative_closed(PosDefMatrix(a2.inverse()), a1)
    assert np.linalg.norm(avg - closed) / np.linalg.norm(closed) < 1e-10
    rep = power_average_identity_check(a1, a2, beta_rule, seed=9)
    assert rep.passed


def test_power_average_commuting_diagonal_reduction(beta_rule):
    # diagonal operands: the conjugation cancels entrywise on the
    # diagonal, leaving x_i y_i times the unit mass of the density
    a1 = np.diag([2.0, 5.0]).astype(complex)
    a2 = PosDefMatrix(np.diag([3.0, 7.0]))
    avg = conjugated_power_average(a1, a2, beta_rule)
    assert np.allclose(avg, np.diag([6.0, 35.0]), atol=1e-9)
    # doubling the rule does not move the value
    avg2 = conjugated_power_average(
        a1, a2, real_line_rule(beta_rule.half_width, 2 * beta_rule.node_count))
    assert np.allclose(avg, avg2, atol=1e-10)