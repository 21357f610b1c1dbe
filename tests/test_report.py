import itertools
import math
from functools import partial

import numpy as np
import pytest

from traceineq import (
    DimensionMismatch,
    TrialReport,
    check_commutator_chain,
    check_derivative_form,
    check_key_identity,
    check_penalized_trace_limit,
    check_tensor_resolvent,
    compare,
    draw_posdef,
    identity_report,
    inequality_report,
    pairing_check,
    power_average_identity_check,
)


def test_identity_report_pass_and_fail():
    ok = identity_report("x", 1.0, 1.0 + 1e-12, atol=1e-10)
    assert ok.passed
    assert ok.kind == "identity"
    bad = identity_report("x", 1.0, 1.1, atol=1e-10)
    assert not bad.passed
    assert bad.abs_gap == pytest.approx(0.1)


def test_identity_report_relative_scale():
    # gap 1 on values of size 1e9 passes a 1e-8 relative budget
    rep = identity_report("x", 1e9, 1e9 + 1.0, rtol=1e-8)
    assert rep.passed
    rep = identity_report("x", 1e9, 1e9 + 100.0, rtol=1e-8)
    assert not rep.passed


def test_identity_report_explicit_scale():
    rep = identity_report("x", 0.0, 1e-9, rtol=1e-8, scale=1.0)
    assert rep.passed
    assert rep.rel_gap == pytest.approx(1e-9)


def test_inequality_report_direction():
    assert inequality_report("y", 1.0, 2.0).passed
    assert inequality_report("y", 2.0, 1.0).passed is False
    # slack within tolerance still passes
    assert inequality_report("y", 1.0 + 1e-12, 1.0, atol=1e-9).passed
    rep = inequality_report("y", 3.0, 2.0)
    assert rep.rel_gap == pytest.approx(0.5)
    assert rep.kind == "inequality"


def test_to_row_flattens_params():
    rep = identity_report("z", 1.0, 1.0, atol=1.0, n=4, seed=7,
                          params={"beta": 2, "alpha": [1, 0]})
    row = rep.to_row()
    assert row["check_id"] == "z"
    assert row["n"] == 4
    assert row["seed"] == 7
    assert row["p_alpha"] == [1, 0]
    assert row["p_beta"] == 2
    keys = [k for k in row if k.startswith("p_")]
    assert keys == sorted(keys)


def test_trial_report_is_frozen():
    rep = identity_report("z", 1.0, 1.0, atol=1.0)
    with pytest.raises(AttributeError):
        rep.passed = False
    assert isinstance(rep, TrialReport)


# 1.000000011 is 1 + atol + rtol at the inequality's default tolerances,
# where the order of the slack's operations decides the verdict
EDGE = (0.0, -0.0, 1.0, 1.000000011, -2.5, 1e-300, 1e300, 5e-324, math.nan, math.inf,
        -math.inf)


def _same(a, b):
    """Equal and of one type, telling NaN and the sign of zero apart."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    return a == b


def _identity_rule(lhs, rhs, atol, rtol, scale=None):
    """identity_report's rule in Python floats: (gap, rel, passed)."""
    gap = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs)) if scale is None else scale
    rel = gap / scale if scale > 0 else gap
    return gap, rel, gap <= atol + rtol * scale


def _inequality_rule(lhs, rhs, atol, rtol):
    """inequality_report's rule in Python floats: (gap, rel, passed)."""
    slack = rhs + atol + rtol * abs(rhs) - lhs
    gap = lhs - rhs
    rel = gap / abs(rhs) if rhs != 0 else gap
    return gap, rel, slack >= 0.0


# verdict -> (kind, reference rule, default tolerances)
RULES = {identity_report: ("identity", _identity_rule, {"atol": 0.0, "rtol": 0.0}),
         inequality_report: ("inequality", _inequality_rule, {"atol": 1e-9, "rtol": 1e-8})}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verdict, tol", [
    (identity_report, {}),
    (identity_report, {"atol": 1e-9, "rtol": 1e-8}),
    (identity_report, {"rtol": 1e-8, "scale": 0.0}),
    (identity_report, {"rtol": 1e-8, "scale": "per trial"}),
    (inequality_report, {}),
    (inequality_report, {"atol": 0.0, "rtol": 0.0}),
])
def test_stacked_verdicts_equal_scalar_ones(verdict, tol):
    # every pair of edge values (rhs = 0, NaN and infinite sides among
    # them), judged as one stack and as lone trials, against the rule
    # written out in Python floats; the numpy pass must not warn where
    # Python floats do not
    kind, rule, defaults = RULES[verdict]
    lhs, rhs = (np.array(side) for side in zip(*itertools.product(EDGE, EDGE)))
    seeds = list(range(len(lhs)))
    params = [{"i": i} for i in seeds]
    scales = np.resize(np.array(EDGE[::-1]), len(lhs))
    per_trial = tol.get("scale") == "per trial"
    stacked = verdict("x", lhs, rhs, n=3, seed=seeds, params=params,
                      **(dict(tol, scale=scales) if per_trial else tol))
    assert len(stacked) == len(lhs)
    for i, rep in enumerate(stacked):
        tol_i = dict(tol, scale=scales[i].item()) if per_trial else tol
        a, b = lhs[i].item(), rhs[i].item()
        full = {**defaults, **tol_i}
        gap, rel, passed = rule(a, b, **full)
        expected = TrialReport("x", kind, a, b, gap, rel, full["atol"], full["rtol"], passed,
                               3, i, params[i])
        one = verdict("x", lhs[i], rhs[i], n=3, seed=i, params=params[i], **tol_i)
        for got in (rep, one):
            assert isinstance(got, TrialReport)
            assert all(_same(x, y) for x, y in zip(got, expected)), (got, expected)
    assert any(math.isnan(rep.rel_gap) for rep in stacked)


def test_stack_shares_params_or_takes_one_per_trial():
    reps = identity_report("x", [1.0, 2.0], 1.0, seed=[5, 6], n=None, params={"dim": 2})
    assert [(r.seed, r.n, r.params) for r in reps] == [(5, None, {"dim": 2}),
                                                       (6, None, {"dim": 2})]
    assert inequality_report("y", np.ones(2), np.ones(2), seed=(1, 2))[1].params == {}
    for seeds in ([5], (5,)):  # a list of seeds asks for a list, even of one
        assert identity_report("x", 1.0, 1.0, seed=seeds) == [
            identity_report("x", 1.0, 1.0, seed=5)]
        assert inequality_report("y", np.ones(1), 2.0, seed=seeds) == [
            inequality_report("y", 1.0, 2.0, seed=5)]
    for seed in (None, 5, [5], [5, 6, 7]):
        with pytest.raises(DimensionMismatch, match="one chain"):
            identity_report("x", [1.0, 2.0], [1.0, 2.0], seed=seed)
        with pytest.raises(DimensionMismatch, match="one chain"):
            inequality_report("x", np.ones(2), np.ones(2), seed=seed)
    with pytest.raises(DimensionMismatch):
        identity_report("x", [1.0, 2.0], 0.0, seed=[5, 6], params=[{}])


def _stack_of_three(check):
    """A check and its arguments for a stack of three trials; each
    argument's first entry is that of a lone trial."""
    rng = np.random.default_rng(31)
    draw = lambda first, count=None: draw_posdef(
        [np.random.default_rng(first + i) for i in range(3)], 2, count=count)
    sym = rng.normal(size=(3, 3, 3))
    return {
        "compare": lambda: (partial(compare, "golden_thompson"), [draw(31, 2)]),
        "key_identity": lambda: (check_key_identity, [draw(31, 5)]),
        "derivative_form": lambda: (check_derivative_form, [draw(31, 4)]),
        "tensor_resolvent": lambda: (check_tensor_resolvent, [draw(31, 4)]),
        "power_average": lambda: (power_average_identity_check,
                                  [draw(31).matrix, draw(41).matrix]),
        "commutator": lambda: (check_commutator_chain, [draw(31).matrix, draw(41).matrix]),
        "pairing": lambda: (pairing_check, list(rng.normal(size=(2, 3, 2, 2)))),
        "penalized": lambda: (check_penalized_trace_limit,
                              [0.1 * (sym + sym.swapaxes(-1, -2)), rng.normal(size=(3, 3))]),
    }[check]()


@pytest.mark.parametrize("check", ["compare", "key_identity", "derivative_form",
                                   "tensor_resolvent", "power_average", "commutator",
                                   "pairing", "penalized"])
def test_one_trial_gives_one_report_a_stack_needs_its_seeds(check):
    # a list or tuple of seeds asks for a list of reports, any other seed
    # for one report
    fn, stack = _stack_of_three(check)
    one = [arg[0] for arg in stack]
    for seed in (None, 7):
        rep = fn(*one, seed=seed)
        assert isinstance(rep, TrialReport) and rep.seed == seed and rep.passed
    for seeds in ([7], (7,)):
        assert fn(*one, seed=seeds) == [fn(*one, seed=7)]
    reps = fn(*stack, seed=[1, 2, 3])
    assert [r.seed for r in reps] == [1, 2, 3] and all(r.passed for r in reps)
    assert reps[0] == fn(*one, seed=1)
    for seed in (None, 7, [1, 2]):
        with pytest.raises(DimensionMismatch, match="one chain"):
            fn(*stack, seed=seed)
