import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import mpmath
import numpy as np
import pytest

import traceineq
from traceineq import (
    InvalidRange,
    beta_density,
    check_equivalence,
    half_line_rule,
    real_line_rule,
    scalar_identity_check,
)
from traceineq.quadrature import (
    BETA_HALF_WIDTH,
    BETA_NODE_COUNT,
    _node_powers,
    _trapezoid_rule,
    beta_normalization_gap,
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


def test_normalization_gap_small():
    assert abs(beta_normalization_gap()) < 1e-10


def test_tail_bound_matches_decay():
    # mass beyond the window is below 2 exp(-pi T); exactly it equals
    # 2 exp(-pi T) / (1 + exp(-pi T)) via the substitution u = 1 + exp(-pi t)
    e = np.exp(-np.pi * BETA_HALF_WIDTH)
    exact_tail = 2.0 * e / (1.0 + e)
    assert exact_tail <= 2.0 * e
    t = np.linspace(BETA_HALF_WIDTH, BETA_HALF_WIDTH + 40.0, 4001)
    tail_mass = 2.0 * np.trapezoid(beta_density(t), t)
    assert tail_mass == pytest.approx(exact_tail, rel=1e-3)


def test_doubled_rule_refines(beta_rule):
    # halving the trapezoid step keeps every node: 161 nodes are every
    # other one of 321
    assert beta_rule.nodes.size == BETA_NODE_COUNT
    fine = _trapezoid_rule(BETA_HALF_WIDTH, 2 * BETA_NODE_COUNT - 1)
    assert fine.nodes.size == fine.weights.size == 2 * BETA_NODE_COUNT - 1
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


def test_scalar_average_equals_log_kernel():
    for x, y in [(1.0, np.e), (0.1, 3.0), (2.0, 2.0), (10.0, 0.3)]:
        avg = scalar_power_average(x, y)
        assert avg == pytest.approx(scalar_log_kernel(x, y), rel=1e-10)


def test_scalar_average_frozen_value():
    # at x = 1, y = e the average equals e/(e-1); dividing by xy gives
    # the inverse-pair kernel value 1/(e-1)
    raw = scalar_power_average(1.0, np.e)
    assert raw == pytest.approx(np.e / (np.e - 1.0), abs=1e-10)
    assert raw / np.e == pytest.approx(0.581976706869326, abs=1e-10)


def test_scalar_average_rejects_nonpositive():
    with pytest.raises(InvalidRange):
        scalar_power_average(-1.0, 2.0)
    with pytest.raises(InvalidRange):
        scalar_power_average(1.0, 0.0)


def test_scalar_identity_check_reports():
    rep = scalar_identity_check(0.3, 7.0)
    assert rep.check_id == "scalar_power_identity"
    assert rep.passed
    assert rep.abs_gap < 1e-10


def test_rules_are_built_once_and_read_only():
    rule = real_line_rule()
    assert real_line_rule() is rule
    assert half_line_rule() is half_line_rule()
    for arr in (rule.nodes, rule.weights, half_line_rule().nodes, half_line_rule().weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


RULE_PARAMETERS = {"rule", "beta_rule", "half_rule", "half_width", "node_count"}


def _callers(name):
    """module.function for each top-level function of the package that
    calls ``name`` (a class for its methods), or the module itself for a
    call outside any."""
    callers = set()
    for path in sorted(Path(traceineq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        tops = [node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call)
                    and getattr(call.func, "id", getattr(call.func, "attr", None)) == name):
                continue
            outer = [f"{path.stem}.{node.name}" for node in tops
                     if node.lineno <= call.lineno <= node.end_lineno]
            callers.add(outer[0] if outer else path.stem)
    return callers


def test_one_function_calls_the_half_line_rule():
    # every half-line route takes its nodes through the resolvent helper, so
    # a rule that depends on the matrix changes one function
    assert _callers("half_line_rule") == {"frechet._half_line_resolvents"}


def test_the_beta_averages_take_their_powers_from_one_helper():
    # the integral form, the matrix beta-average (power_average_identity,
    # commutator_chain) and the scalar one form lam^{(1+it)/2} in one helper.
    # The tensor pairing forms its own, so key_identity compares two
    # independent evaluations of lam^z
    callers = _callers("_node_powers")
    assert callers == {"inequalities._power_traces", "frechet.conjugated_power_average",
                       "quadrature.scalar_power_average"}
    assert "inequalities.tensor_pair_trace" not in callers


def test_node_powers_match_mpmath():
    # on the rule's own nodes the phases come from angle sums over blocks of
    # _PHASE_BLOCK nodes, elsewhere from cos and sin of t log(lam) / 2. Either
    # phase is off by a few ulp of its argument, |t log(lam) / 2| <= 83 here;
    # 8 eps * 83 = 1.5e-13 bounds both (seen: 3.1e-14 and 1.0e-14)
    lam = np.array([[1e-6, 0.1], [1.0, 1e6]])
    nodes = real_line_rule().nodes
    with mpmath.workdps(30):
        exact = np.array([[[complex(mpmath.mpf(x) ** (mpmath.mpc(1, t) / 2)) for t in nodes]
                           for x in row] for row in lam])
    bound = 8 * np.finfo(float).eps * np.abs(0.5 * np.log(lam)).max() * BETA_HALF_WIDTH
    for t in (nodes, nodes.copy()):  # the rule's own nodes, and equal ones
        powers = _node_powers(lam, t)
        assert powers(...).shape == (2, 2, nodes.size)
        assert powers(1).tobytes() == powers(...)[1].tobytes()
        assert (np.abs(powers(...) - exact) <= bound * np.abs(exact)).all()
    assert (_node_powers(lam, nodes)(...)[1, 0] == 1.0).all()  # lam = 1: exactly


def test_no_public_function_takes_a_rule(make_chain):
    # the two rules are constants; check_equivalence keeps a rule slot as a
    # guard that accepts only real_line_rule() itself. Every submodule's
    # public callables are walked, not only the package's __all__
    taking = set()
    for info in pkgutil.iter_modules(traceineq.__path__):
        module = importlib.import_module(f"traceineq.{info.name}")
        for name, value in vars(module).items():
            if (name.startswith("_") or not callable(value)
                    or getattr(value, "__module__", None) != module.__name__):
                continue
            try:
                params = inspect.signature(value).parameters
            except ValueError:  # exception classes have no signature
                continue
            if RULE_PARAMETERS & set(params):
                taking.add(name)
    assert taking == {"check_equivalence"}
    mats = make_chain(61, 4)
    assert check_equivalence(mats, real_line_rule()) == check_equivalence(mats)
    finer = _trapezoid_rule(BETA_HALF_WIDTH, 2 * BETA_NODE_COUNT - 1)
    with pytest.raises(InvalidRange):
        check_equivalence(mats, finer)
