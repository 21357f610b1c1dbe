import numpy as np
import pytest

from traceineq import (
    InvalidRange,
    beta_density,
    beta_normalization_gap,
    half_line_rule,
    real_line_rule,
    scalar_identity_check,
    scalar_log_kernel,
    scalar_power_average,
)

PI_QUARTER = 0.7853981633974483
DENSITY_AT_ONE = 0.124746041573112


def test_density_frozen_values():
    assert beta_density(0.0) == pytest.approx(PI_QUARTER, abs=1e-15)
    assert beta_density(1.0) == pytest.approx(DENSITY_AT_ONE, abs=1e-14)


def test_density_even_positive_decaying():
    t = np.linspace(-8.0, 8.0, 401)
    vals = beta_density(t)
    assert np.allclose(vals, beta_density(-t))
    assert (vals > 0).all()
    # monotone decay away from the peak at zero
    right = beta_density(np.linspace(0.0, 20.0, 200))
    assert (np.diff(right) < 0).all()


def test_density_stable_far_out():
    # naive 1/(1 + cosh(pi t)) overflows cosh near t ~ 226; the stable
    # form follows the exp(-pi t) decay down to the float64 underflow
    # threshold near t = 745 / pi, then degrades to zero, never nan
    far = beta_density(np.array([200.0, 230.0, 500.0, 700.0]))
    assert np.isfinite(far).all()
    assert far[0] > far[1] > 0.0
    assert far[2] == 0.0 and far[3] == 0.0


def test_normalization_gap_small(beta_rule):
    assert abs(beta_normalization_gap(beta_rule)) < 1e-10


def test_tail_bound_matches_decay(beta_rule):
    # mass beyond the window is below 2 exp(-pi T); exactly it equals
    # 2 exp(-pi T) / (1 + exp(-pi T)) via the substitution u = 1 + exp(-pi t)
    e = np.exp(-np.pi * beta_rule.half_width)
    exact_tail = 2.0 * e / (1.0 + e)
    assert exact_tail <= 2.0 * e
    t = np.linspace(beta_rule.half_width, beta_rule.half_width + 40.0, 4001)
    tail_mass = 2.0 * np.trapezoid(beta_density(t), t)
    assert tail_mass == pytest.approx(exact_tail, rel=1e-3)


def test_doubled_rule_refines(beta_rule):
    # halving the trapezoid step keeps every node: 161 nodes are every
    # other one of 321
    fine = real_line_rule(beta_rule.half_width, 2 * beta_rule.node_count - 1)
    assert fine.node_count == 2 * beta_rule.node_count - 1
    assert fine.half_width == beta_rule.half_width
    assert np.array_equal(fine.nodes[::2], beta_rule.nodes)
    coarse_val = np.dot(beta_rule.weights * beta_density(beta_rule.nodes),
                        beta_rule.nodes ** 2)
    fine_val = np.dot(fine.weights * beta_density(fine.nodes), fine.nodes ** 2)
    assert fine_val == pytest.approx(coarse_val, abs=1e-9)


@pytest.mark.parametrize("omega", range(9))
def test_rule_reproduces_the_density_transform(beta_rule, omega):
    # int beta(t) cos(omega t) dt = omega / sinh(omega); the trapezoid rule
    # aliases frequency 2 pi / h - omega onto it, about 1e-13 at omega = 8
    exact = omega / np.sinh(omega) if omega else 1.0
    weights = beta_rule.weights * beta_density(beta_rule.nodes)
    assert np.dot(weights, np.cos(omega * beta_rule.nodes)) == pytest.approx(exact, abs=1e-12)


def test_half_line_rule_integrates_rational():
    rule = half_line_rule()
    # int_0^inf dtau / (1 + tau)^2 = 1
    val = np.dot(rule.weights, 1.0 / (1.0 + rule.nodes) ** 2)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_scalar_average_equals_log_kernel(beta_rule):
    for x, y in [(1.0, np.e), (0.1, 3.0), (2.0, 2.0), (10.0, 0.3)]:
        avg = scalar_power_average(x, y, beta_rule)
        assert avg == pytest.approx(scalar_log_kernel(x, y), rel=1e-10)


def test_scalar_average_frozen_value(beta_rule):
    # at x = 1, y = e the average equals e/(e-1); dividing by xy gives
    # the inverse-pair kernel value 1/(e-1)
    raw = scalar_power_average(1.0, np.e, beta_rule)
    assert raw == pytest.approx(np.e / (np.e - 1.0), abs=1e-10)
    assert raw / np.e == pytest.approx(0.581976706869326, abs=1e-10)


def test_scalar_average_rejects_nonpositive(beta_rule):
    with pytest.raises(InvalidRange):
        scalar_power_average(-1.0, 2.0, beta_rule)
    with pytest.raises(InvalidRange):
        scalar_power_average(1.0, 0.0, beta_rule)


def test_scalar_identity_check_reports(beta_rule):
    rep = scalar_identity_check(0.3, 7.0, beta_rule)
    assert rep.check_id == "scalar_power_identity"
    assert rep.passed
    assert rep.abs_gap < 1e-10


@pytest.mark.parametrize("half_width", [0.0, -1.0, np.inf, np.nan])
def test_real_line_rule_needs_finite_positive_width(half_width):
    # an infinite or NaN width gives NaN nodes, and beta_normalization_gap NaN
    with pytest.raises(InvalidRange, match="half_width < inf"):
        real_line_rule(half_width)


def test_rules_are_built_once_and_read_only():
    rule = real_line_rule()
    assert real_line_rule() is rule
    assert real_line_rule(12, 161) is rule
    assert half_line_rule() is half_line_rule(200)
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
