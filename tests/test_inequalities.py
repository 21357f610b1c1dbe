import numpy as np
import pytest

from traceineq import (
    DimensionMismatch,
    InvalidRange,
    PosDefMatrix,
    chain_product_trace,
    check_commutator_chain,
    check_derivative_form,
    check_equivalence,
    check_golden_thompson,
    check_jensen_trace,
    check_key_identity,
    check_lieb_equivalence,
    check_lieb_three,
    check_penalized_trace_limit,
    check_power_integral,
    check_scaled_exponential,
    check_tensor_resolvent,
    commutator_chain,
    derivative_form_value,
    lhs_exp_sum_log,
    penalized_trace_gaps,
    random_commuting_family,
    rhs_golden_thompson,
    rhs_lieb_three,
    rhs_power_integral,
    rhs_tensor_resolvent,
    scaled_exponential_lhs,
    tensor_operands,
    tensor_pair_trace,
)
from traceineq import inequalities


def test_lhs_permutation_invariant(make_chain):
    mats = make_chain(11, 4)
    ref = lhs_exp_sum_log(mats)
    assert lhs_exp_sum_log(mats[::-1]) == pytest.approx(ref, rel=1e-12)
    assert lhs_exp_sum_log([mats[2], mats[0], mats[3], mats[1]]) == pytest.approx(ref, rel=1e-12)


def test_golden_thompson_holds_and_saturates_commuting(make_chain):
    mats = make_chain(12, 2, d=3)
    assert check_golden_thompson(mats[0], mats[1], seed=12).passed
    fam = random_commuting_family(3, 2, seed=13)
    lhs = lhs_exp_sum_log(fam)
    rhs = rhs_golden_thompson(fam[0], fam[1])
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_lieb_three_holds(make_chain):
    mats = make_chain(14, 3, d=3)
    rep = check_lieb_three(*mats, seed=14)
    assert rep.passed
    assert rep.lhs <= rep.rhs + 1e-9


def test_power_integral_and_tensor_hold(make_chain, beta_rule):
    for n in range(3, 11):
        mats = make_chain(100 + n, n)
        lhs = lhs_exp_sum_log(mats)
        ri = rhs_power_integral(mats, beta_rule)
        rt = rhs_tensor_resolvent(mats)
        assert lhs <= ri + 1e-9 + 1e-8 * abs(ri)
        assert abs(ri - rt) / abs(rt) < 1e-7
        assert check_power_integral(mats, beta_rule, seed=n).passed
        assert check_tensor_resolvent(mats, seed=n).passed


def test_key_identity_pointwise(make_chain):
    for n in range(3, 11):
        mats = make_chain(200 + n, n)
        for t in (0.0, 0.7, -2.0):
            lhs = chain_product_trace(mats, t)
            rhs = tensor_pair_trace(mats, t)
            assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-12
        assert check_key_identity(mats, seed=n).passed


@pytest.mark.parametrize("nan_at", [None, 2.0])
def test_key_identity_nan_fails(make_chain, monkeypatch, nan_at):
    # None: NaN at every t; otherwise NaN at that t only
    real = inequalities.tensor_pair_trace

    def patched(mats, t):
        return float("nan") if nan_at in (None, t) else real(mats, t)

    monkeypatch.setattr(inequalities, "tensor_pair_trace", patched)
    rep = check_key_identity(make_chain(201, 3), seed=201)
    assert not rep.passed
    assert np.isnan(rep.rhs)
    assert rep.params["t_worst"] == (2.0 if nan_at else -2.0)


def test_chain_product_trace_real_at_zero(make_chain):
    # at t = 0 the chain is a plain product of positive matrices
    mats = make_chain(31, 3)
    a1, a2, a3 = (m.matrix for m in mats)
    half = np.asarray(PosDefMatrix(a2).power(0.5))
    direct = float(np.trace(a3 @ half @ a1 @ half).real)
    assert chain_product_trace(mats, 0.0) == pytest.approx(direct, rel=1e-12)


def test_equivalence_and_lieb_collapse(make_chain, beta_rule):
    mats = make_chain(41, 3)
    assert check_equivalence(mats, beta_rule, seed=41).passed
    assert check_lieb_equivalence(mats, beta_rule, seed=41).passed
    lhs = rhs_power_integral(mats, beta_rule)
    assert rhs_lieb_three(*mats) == pytest.approx(lhs, rel=1e-9)


def test_scaled_exponential_quadruples_only(make_chain):
    mats = make_chain(51, 4)
    rep = check_scaled_exponential(mats, seed=51)
    assert rep.passed
    with pytest.raises(DimensionMismatch):
        check_scaled_exponential(mats[:3], seed=51)
    # the scaled left side sits below the plain trace left side
    assert scaled_exponential_lhs(mats) <= lhs_exp_sum_log(mats) + 1e-12


def test_jensen_trace(make_chain):
    for n in (3, 5):
        mats = make_chain(61 + n, n)
        assert check_jensen_trace(mats, seed=n).passed


def test_all_identity_chain_exact_values(beta_rule):
    mats = [PosDefMatrix(np.eye(2)) for _ in range(4)]
    assert lhs_exp_sum_log(mats) == pytest.approx(2.0, abs=1e-12)
    assert rhs_power_integral(mats, beta_rule) == pytest.approx(2.0, abs=1e-10)
    assert rhs_tensor_resolvent(mats) == pytest.approx(2.0, abs=1e-12)
    assert scaled_exponential_lhs(mats) == pytest.approx(2.0, abs=1e-12)


def test_commuting_chain_equality(beta_rule):
    for n in (3, 4, 5):
        fam = random_commuting_family(2, n, seed=70 + n)
        lhs = lhs_exp_sum_log(fam)
        assert rhs_power_integral(fam, beta_rule) == pytest.approx(lhs, rel=1e-8)
        assert rhs_tensor_resolvent(fam) == pytest.approx(lhs, rel=1e-8)


def test_chain_needs_three(make_chain):
    with pytest.raises(DimensionMismatch):
        rhs_power_integral(make_chain(1, 2))
    with pytest.raises(DimensionMismatch):
        rhs_tensor_resolvent(make_chain(1, 2))


def test_mixed_dimensions_rejected(make_chain):
    mats = make_chain(2, 3)
    bad = make_chain(3, 1, d=3) + mats[:2]
    with pytest.raises(DimensionMismatch):
        rhs_power_integral(bad)


# ------------------------------------------------------------- limit checks

def test_commutator_chain_four_routes(make_chain):
    a1, a2 = make_chain(81, 2)
    exprs = commutator_chain(a1, a2)
    assert set(exprs) == {"product_minus_average", "resolvent_difference",
                          "commutator_resolvent", "explicit_commutator"}
    vals = list(exprs.values())
    scale = np.linalg.norm(a1.matrix) * np.linalg.norm(a2.matrix)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert np.linalg.norm(vals[i] - vals[j]) / scale < 1e-10
    # the deviation itself is genuinely nonzero for a random pair
    assert np.linalg.norm(vals[0]) > 1e-3
    assert check_commutator_chain(a1, a2, seed=81).passed


def test_commutator_chain_vanishes_commuting():
    f1, f2 = random_commuting_family(2, 2, seed=82)
    exprs = commutator_chain(f1, f2)
    for v in exprs.values():
        assert np.linalg.norm(v) < 1e-12
    rep = check_commutator_chain(f1, f2, atol=1e-12, seed=82,
                                 check_id="commutator_chain_commuting")
    assert rep.passed
    assert rep.check_id == "commutator_chain_commuting"


def test_penalized_trace_generic_direction_decays():
    rng = np.random.default_rng(83)
    g = rng.normal(size=(3, 3))
    a = 0.5 * (g + g.T)
    a /= max(1.0, np.linalg.norm(a, 2))
    v = rng.normal(size=3)
    limit, gaps = penalized_trace_gaps(a, v)
    assert gaps[0] > gaps[1] > gaps[2]
    # generic directions decay like 1/t: two decades of t, two of gap
    assert gaps[2] / gaps[0] == pytest.approx(1e-2, rel=0.2)
    assert check_penalized_trace_limit(a, v, seed=83).passed


def test_penalized_trace_eigenvector_needs_precision():
    rng = np.random.default_rng(84)
    g = rng.normal(size=(3, 3))
    a = 0.5 * (g + g.T)
    a /= max(1.0, np.linalg.norm(a, 2))
    with pytest.raises(InvalidRange):
        penalized_trace_gaps(a, eigenvector=-1)
    with pytest.raises(InvalidRange):
        penalized_trace_gaps(a, eigenvector=5, dps=30)
    limit, gaps = penalized_trace_gaps(a, dps=40, eigenvector=-1)
    assert gaps[-1] < 1e-20
    assert gaps[-1] <= 1e-3 * gaps[0] + 10.0 ** (8 - 40)


def test_penalized_trace_needs_direction_or_index():
    with pytest.raises(DimensionMismatch):
        penalized_trace_gaps(np.eye(2))


def test_derivative_form_converges(make_chain):
    mats = make_chain(85, 4, lam_range=(0.5, 2.0))
    rep = check_derivative_form(mats, seed=85)
    assert rep.passed
    assert rep.params["halving_ratio"] == pytest.approx(0.25, abs=0.05)
    exact = rhs_tensor_resolvent(mats)
    val = derivative_form_value(*tensor_operands(mats), step=1e-4)
    assert val == pytest.approx(exact, rel=1e-6)


def test_derivative_form_adaptive_step_survives_harsh_chain(make_chain):
    # wide spectra make a fixed millistep overshoot the cone; the
    # default must shrink instead of raising
    mats = None
    for seed in range(300, 340):
        cand = make_chain(seed, 4)
        lam = min(float(c.spectral.eigenvalues[0]) for c in cand)
        if lam < 0.15:
            mats = cand
            break
    assert mats is not None
    rep = check_derivative_form(mats, seed=seed)
    assert rep.passed
