import itertools
import math
from functools import partial

import numpy as np
import pytest

from traceineq import (
    DimensionMismatch,
    TrialReport,
    check_commutator_chain,
    check_penalized_trace_limit,
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


EDGE = (0.0, -0.0, 1.0, -2.5, 1e-300, 1e300, 5e-324, math.nan, math.inf, -math.inf)


def _same(a, b):
    """Equal and of one type, telling NaN and the sign of zero apart."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    return a == b


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
    # them) judged as one stack and a trial at a time; RuntimeWarnings are
    # errors here, so the stack must not warn where Python floats do not
    lhs, rhs = (np.array(side) for side in zip(*itertools.product(EDGE, EDGE)))
    seeds = list(range(len(lhs)))
    params = [{"i": i} for i in seeds]
    scales = np.resize(np.array(EDGE[::-1]), len(lhs))
    per_trial = tol.get("scale") == "per trial"
    if per_trial:
        tol = dict(tol, scale=scales)
    stacked = verdict("x", lhs, rhs, n=3, seed=seeds, params=params, **tol)
    assert len(stacked) == len(lhs)
    for i, rep in enumerate(stacked):
        one = verdict("x", lhs[i], rhs[i], n=3, seed=i, params=params[i],
                      **(dict(tol, scale=scales[i]) if per_trial else tol))
        assert isinstance(rep, TrialReport)
        assert all(_same(a, b) for a, b in zip(rep, one)), (rep, one)
    assert any(math.isnan(rep.rel_gap) for rep in stacked)


def test_stack_shares_params_or_takes_one_per_trial():
    reps = identity_report("x", [1.0, 2.0], 1.0, seed=[5, 6], n=None, params={"dim": 2})
    assert [(r.seed, r.n, r.params) for r in reps] == [(5, None, {"dim": 2}),
                                                       (6, None, {"dim": 2})]
    assert inequality_report("y", np.ones(2), np.ones(2), seed=(1, 2))[1].params == {}
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
        "power_average": lambda: (power_average_identity_check,
                                  [draw(31).matrix, draw(41).matrix]),
        "commutator": lambda: (check_commutator_chain, [draw(31).matrix, draw(41).matrix]),
        "pairing": lambda: (pairing_check, list(rng.normal(size=(2, 3, 2, 2)))),
        "penalized": lambda: (check_penalized_trace_limit,
                              [0.1 * (sym + sym.swapaxes(-1, -2)), rng.normal(size=(3, 3))]),
    }[check]()


@pytest.mark.parametrize("check", ["compare", "power_average", "commutator", "pairing",
                                   "penalized"])
def test_one_trial_gives_one_report_a_stack_needs_its_seeds(check):
    fn, stack = _stack_of_three(check)
    one = [arg[0] for arg in stack]
    for seed in (None, 7):
        rep = fn(*one, seed=seed)
        assert isinstance(rep, TrialReport) and rep.seed == seed and rep.passed
    reps = fn(*stack, seed=[1, 2, 3])
    assert [r.seed for r in reps] == [1, 2, 3] and all(r.passed for r in reps)
    assert reps[0] == fn(*one, seed=1)
    for seed in (None, 7, [1, 2]):
        with pytest.raises(DimensionMismatch, match="one chain"):
            fn(*stack, seed=seed)
