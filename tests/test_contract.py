"""The library's contract: every public matrix route takes a stack and
gives each entry the bits of its lone call, and every guard raises its
own error class."""
import numpy as np
import pytest

import traceineq
from traceineq import (
    DimensionMismatch,
    InvalidRange,
    PosDefMatrix,
    StepTooLarge,
    chain_product_trace,
    check_commutator_chain,
    check_derivative_form,
    check_equivalence,
    check_key_identity,
    check_penalized_trace_limit,
    check_tensor_resolvent,
    commutator_chain,
    compare,
    conjugated_power_average,
    draw_posdef,
    lhs_exp_sum_log,
    log_derivative_closed,
    log_derivative_finite_difference,
    log_derivative_quadrature,
    pairing_check,
    power_average_identity_check,
    random_commuting_family,
    rhs_golden_thompson,
    rhs_lieb_three,
    rhs_power_integral,
    rhs_tensor_resolvent,
    scaled_exponential_lhs,
    tensor_pair_trace,
)
from traceineq.combinatorics import doubling_permutation
from traceineq.entangle import build_layout
from traceineq.inequalities import tensor_operands
from traceineq.limits import derivative_form_value, penalized_trace_gaps
from traceineq.linalg import hermitize
from traceineq.quadrature import scalar_identity_check, scalar_log_kernel, scalar_power_average

SEEDS = [41, 42, 43]
T = np.array([0.0, 0.7])  # two nodes of the power-integral integrand


def _gens(i):
    """The draw generators: one per seed for the stack, entry i's alone."""
    rngs = [np.random.default_rng(s) for s in SEEDS]
    return rngs if i is None else rngs[i]


def _seed(i):
    return SEEDS if i is None else SEEDS[i]


CHAINS = {n: draw_posdef(_gens(None), 2, count=n).matrix for n in (2, 3, 4)}
_RNG = np.random.default_rng(44)
_G = _RNG.normal(size=(3, 3, 3)) + 1j * _RNG.normal(size=(3, 3, 3))
PENALIZED = (0.5 * (_G + _G.conj().swapaxes(-1, -2)),
             _RNG.normal(size=(3, 3)) + 1j * _RNG.normal(size=(3, 3)))


def _chain(n, i):
    """A fresh PosDefMatrix of the three chains of n, or of chain i."""
    return PosDefMatrix(CHAINS[n] if i is None else CHAINS[n][i])


def _pair(i):
    """(X, Y): the three pairs of the n = 2 chains as arrays, or pair i."""
    x, y = CHAINS[2][:, 0], CHAINS[2][:, 1]
    return (x, y) if i is None else (x[i], y[i])


def _penalized(i):
    return PENALIZED if i is None else tuple(part[i] for part in PENALIZED)


SCALAR_PAIRS = (np.array([0.1, 2.0, 7.0]), np.array([3.0, 2.0, 0.3]))  # one on the diagonal


def _scalars(i):
    """(x, y): the three scalar pairs as arrays, or pair i as floats."""
    return SCALAR_PAIRS if i is None else tuple(float(part[i]) for part in SCALAR_PAIRS)


# Each route called on the stack of three (i None) or on entry i alone;
# draws take ``count`` on both sides, checks take seeds.
MATRIX_ROUTES = {
    "draw_posdef": lambda i: draw_posdef(_gens(i), 2, count=3),
    "random_commuting_family": lambda i: random_commuting_family(
        2, 3, _gens(None) if i is None else SEEDS[i]),
    "chain_product_trace": lambda i: chain_product_trace(_chain(4, i), T),
    "tensor_pair_trace": lambda i: tensor_pair_trace(_chain(4, i), T),
    "lhs_exp_sum_log": lambda i: lhs_exp_sum_log(_chain(4, i)),
    "scaled_exponential_lhs": lambda i: scaled_exponential_lhs(_chain(4, i)),
    "rhs_golden_thompson": lambda i: rhs_golden_thompson(_chain(2, i)),
    "rhs_lieb_three": lambda i: rhs_lieb_three(_chain(3, i)),
    "rhs_power_integral": lambda i: rhs_power_integral(_chain(4, i)),
    "rhs_tensor_resolvent": lambda i: rhs_tensor_resolvent(_chain(4, i)),
    "check_key_identity": lambda i: check_key_identity(_chain(4, i), seed=_seed(i)),
    "check_equivalence": lambda i: check_equivalence(_chain(4, i), seed=_seed(i)),
    "check_tensor_resolvent": lambda i: check_tensor_resolvent(_chain(4, i), seed=_seed(i)),
    "check_derivative_form": lambda i: check_derivative_form(_chain(4, i), seed=_seed(i)),
    "compare": lambda i: compare("jensen_trace", _chain(4, i), seed=_seed(i)),
    "log_derivative_closed": lambda i: log_derivative_closed(*_pair(i)),
    "log_derivative_quadrature": lambda i: log_derivative_quadrature(*_pair(i)),
    "log_derivative_finite_difference": lambda i: log_derivative_finite_difference(*_pair(i)),
    "conjugated_power_average": lambda i: conjugated_power_average(*_pair(i)),
    "commutator_chain": lambda i: commutator_chain(*_pair(i)),
    "check_commutator_chain": lambda i: check_commutator_chain(*_pair(i), seed=_seed(i)),
    "power_average_identity_check": lambda i: power_average_identity_check(*_pair(i),
                                                                          seed=_seed(i)),
    "pairing_check": lambda i: pairing_check(*_pair(i), seed=_seed(i)),
    "check_penalized_trace_limit": lambda i: check_penalized_trace_limit(*_penalized(i),
                                                                        seed=_seed(i)),
}
# the scalar routes take a stack of pairs as two arrays
SCALAR_ROUTES = {
    "scalar_power_average": lambda i: scalar_power_average(*_scalars(i)),
    "scalar_log_kernel": lambda i: scalar_log_kernel(*_scalars(i)),
    "scalar_identity_check": lambda i: scalar_identity_check(*_scalars(i), seed=_seed(i)),
}
ROUTES = MATRIX_ROUTES | SCALAR_ROUTES

# classes, errors, constants, rules, verdict builders and the campaign API
REST = {
    "PosDefMatrix", "TrialReport",
    "ConfigError", "DimensionCap", "DimensionMismatch", "ImaginaryResidue", "InvalidRange",
    "NonFinite", "NonPositiveEigenvalue", "NotHermitian", "StepTooLarge", "TraceIneqError",
    "UnknownCheck",
    "DIM_CAP", "MAX_N",
    "beta_density", "half_line_rule", "real_line_rule",
    "identity_report", "inequality_report",
    "CHECKS", "CampaignConfig", "CampaignSummary", "run_campaign",
}


def _bits(value):
    """A structure equal for two values exactly when they agree bit for bit."""
    if isinstance(value, PosDefMatrix):
        value = value.matrix
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if value is None or isinstance(value, str):
        return value
    array = np.asarray(value)
    return array.dtype.str, array.shape, array.tobytes()


def _entry(stacked, i):
    if isinstance(stacked, dict):
        return {key: value[i] for key, value in stacked.items()}
    return stacked[i]


def test_every_public_name_is_placed():
    # a new public name must be sorted here; a route then meets the stack
    # contract below
    public = set(traceineq.__all__)
    assert set(ROUTES).isdisjoint(REST)
    assert set(MATRIX_ROUTES) <= public
    assert (set(ROUTES) & public) | REST == public


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_route_stack_equals_lone_calls(name):
    route = ROUTES[name]
    stacked = route(None)
    for i in range(len(SEEDS)):
        assert _bits(_entry(stacked, i)) == _bits(route(i)), (name, i)


def _derivative_form_past_the_cone():
    big_a, big_b, outer = tensor_operands(_chain(4, 0))
    derivative_form_value(big_a, big_b, outer, 1e3)


def _indexed(index):
    return lambda: PosDefMatrix(np.stack([np.eye(2)] * 3))[index]


@pytest.mark.parametrize("call, error", [
    (lambda: pairing_check(np.eye(2), np.eye(3)), DimensionMismatch),
    (lambda: pairing_check(np.eye(8), np.eye(8), copies=2), DimensionMismatch),
    (lambda: commutator_chain(np.eye(2), np.eye(3)), DimensionMismatch),
    (lambda: penalized_trace_gaps(np.eye(3), np.zeros(3)), DimensionMismatch),
    (lambda: hermitize(np.ones((2, 3))), DimensionMismatch),
    (_indexed(...), DimensionMismatch),
    (_indexed((0, 0)), DimensionMismatch),
    (lambda: scalar_log_kernel(0.0, 1.0), InvalidRange),
    (lambda: doubling_permutation(0), InvalidRange),
    (lambda: build_layout(4, 1), DimensionMismatch),
    (lambda: log_derivative_closed(np.eye(2), np.eye(3)), DimensionMismatch),
    (_derivative_form_past_the_cone, StepTooLarge),
    (lambda: draw_posdef([], 2), DimensionMismatch),
    (lambda: random_commuting_family(2, 3, []), DimensionMismatch),
    (lambda: scalar_power_average(np.array([1.0, 0.0, 2.0]), np.ones(3)), InvalidRange),
    (lambda: scalar_log_kernel(np.ones(3), np.array([4.0, 5.0, -6.0])), InvalidRange),
    (lambda: scalar_identity_check(np.array([-1.0, 2.0, 3.0]), np.ones(3), seed=SEEDS),
     InvalidRange),
], ids=["pairing-shapes", "pairing-copies", "commutator-shapes", "penalized-zero-direction",
        "hermitize-shape", "index-ellipsis", "index-past-stack", "scalar-kernel-zero",
        "doubling-level-zero", "layout-local-dim", "closed-direction-shape",
        "derivative-form-step", "draw-empty-stack", "commuting-empty-stack",
        "scalar-average-stack-zero", "scalar-kernel-stack-negative",
        "scalar-check-stack-negative"])
def test_library_guard_raises(call, error):
    with pytest.raises(error):
        call()
