import ast
from pathlib import Path

import mpmath
import numpy as np
import pytest

import traceineq
from traceineq import (
    DimensionMismatch,
    TraceIneqError,
    InvalidRange,
    PosDefMatrix,
    chain_product_trace,
    check_commutator_chain,
    check_derivative_form,
    check_equivalence,
    check_key_identity,
    check_penalized_trace_limit,
    check_tensor_resolvent,
    commutator_chain,
    compare,
    draw_posdef,
    lhs_exp_sum_log,
    random_commuting_family,
    real_line_rule,
    rhs_golden_thompson,
    rhs_lieb_three,
    rhs_power_integral,
    rhs_tensor_resolvent,
    scaled_exponential_lhs,
    tensor_pair_trace,
)
from traceineq import inequalities, limits
from traceineq.combinatorics import MAX_N
from traceineq.entangle import build_layout
from traceineq.inequalities import tensor_operands
from traceineq.limits import PENALTY_GRID, derivative_form_value, penalized_trace_gaps
from traceineq.linalg import kron_all, logarithmic_ratio


def test_lhs_permutation_invariant(make_chain):
    mats = make_chain(11, 4)
    ref = lhs_exp_sum_log(mats)
    assert lhs_exp_sum_log(mats[::-1]) == pytest.approx(ref, rel=1e-12)
    assert lhs_exp_sum_log([mats[2], mats[0], mats[3], mats[1]]) == pytest.approx(ref, rel=1e-12)


def test_golden_thompson_holds_and_saturates_commuting(make_chain):
    mats = make_chain(12, 2, d=3)
    assert compare("golden_thompson", mats, seed=12).passed
    fam = random_commuting_family(3, 2, seed=13)
    lhs = lhs_exp_sum_log(fam)
    rhs = rhs_golden_thompson(fam)
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_lieb_three_holds(make_chain):
    mats = make_chain(14, 3, d=3)
    rep = compare("lieb_three", mats, seed=14)
    assert rep.passed
    assert rep.lhs <= rep.rhs + 1e-9


def test_power_integral_and_tensor_hold(make_chain):
    for n in range(3, 11):
        mats = make_chain(100 + n, n)
        lhs = lhs_exp_sum_log(mats)
        ri = rhs_power_integral(mats)
        rt = rhs_tensor_resolvent(mats)
        assert lhs <= ri + 1e-9 + 1e-8 * abs(ri)
        assert abs(ri - rt) / abs(rt) < 1e-7
        assert compare("power_integral", mats, seed=n).passed
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
    # None: NaN at every t; otherwise NaN at that t only; the seam takes
    # the whole t grid as one array
    real = inequalities.tensor_pair_trace

    def patched(mats, t):
        hit = np.ones(np.shape(t), bool) if nan_at is None else np.equal(t, nan_at)
        return np.where(hit, np.nan, real(mats, t))

    monkeypatch.setattr(inequalities, "tensor_pair_trace", patched)
    rep = check_key_identity(make_chain(201, 3), seed=201)
    assert not rep.passed
    assert np.isnan(rep.rhs)
    assert rep.params["t_worst"] == (2.0 if nan_at else -2.0)


@pytest.mark.parametrize("bumps, t_worst", [
    ({0.5: 20.0, -2.0: 22.0}, 0.5),    # both within 4 eps of the top: first t
    ({0.5: 20.0, -2.0: 1e8}, -2.0),    # a real gap wins, and fails the trial
])
def test_key_identity_picks_first_t_near_the_largest_gap(make_chain, monkeypatch,
                                                          bumps, t_worst):
    # each gap is its bump in ulps of the value; no bump, no gap; the seam
    # takes the whole t grid as one array
    real = inequalities.tensor_pair_trace
    ulps = lambda t: np.array([bumps.get(x, 0.0) for x in t])
    monkeypatch.setattr(inequalities, "chain_product_trace",
                        lambda mats, t: real(mats, t) * (1.0 + ulps(t)
                                                         * np.finfo(float).eps))
    rep = check_key_identity(make_chain(202, 4), seed=202)
    assert rep.params["t_worst"] == t_worst
    assert rep.passed == (t_worst == 0.5)


def _dense_operand(mats, d):
    """Test-only reference: a dense eigh of the D x D Kronecker product
    of the slot inverses."""
    factors = []
    for slot in build_layout(len(mats), d).mid_slots:
        src = slot.source
        inv = np.eye(d) if src is None else np.linalg.inv(mats[src - 1].matrix)
        factors.append(inv.conj() if slot.conjugate else inv)
    return np.linalg.eigh(kron_all(factors))


@pytest.mark.parametrize("d, n", [(2, n) for n in range(3, 11)]
                         + [(3, n) for n in range(3, 7)])
def test_factored_operand_matches_dense_eigh(make_chain, d, n):
    for seed in (1000 + n, 2000 + n):
        mats = make_chain(seed, n, d)
        big_a, big_b, outer = tensor_operands(mats)
        lam, vec = big_a.spectral.eigenvalues, big_a.spectral.eigenvectors
        dense_lam, dense_vec = _dense_operand(mats, d)
        # a dense eigh resolves eigenvalues to roundoff of the largest
        assert np.all(np.diff(lam) >= 0)
        assert np.max(np.abs(lam - dense_lam)) <= 1e-12 * lam[-1]
        assert np.allclose(big_a.matrix @ vec, vec * lam, rtol=0, atol=1e-12 * lam[-1])
        proj = dense_vec.conj().T @ outer
        kernel = logarithmic_ratio(dense_lam[:, None], dense_lam[None, :])
        dense = (proj.conj() @ ((dense_vec.conj().T @ big_b @ dense_vec) * kernel) @ proj)
        # the dense kernel value carries roundoff times the condition of
        # A (up to 1e-10 here); the factored one meets the integral form
        # to 1e-13 (test_tensor_form_matches_integral_at_d256)
        assert rhs_tensor_resolvent(mats) == pytest.approx(dense.real, rel=1e-9)


def test_tensor_form_matches_integral_at_d256(make_chain):
    for n in range(7, 11):
        mats = make_chain(2000 + n, n)
        assert rhs_tensor_resolvent(mats) == pytest.approx(
            rhs_power_integral(mats), rel=1e-13)


@pytest.mark.parametrize("n", [7, 10])
def test_pair_trace_at_d6561(make_chain, n):
    # d = 3 past n = 6 is D = 3^8, the cap of the factored routes
    mats = make_chain(3000 + n, n, d=3)
    for t in (0.0, 0.7, -2.0):
        lhs = chain_product_trace(mats, t)
        assert tensor_pair_trace(mats, t) == pytest.approx(lhs, rel=1e-12)


def test_tensor_form_matches_integral_at_d6561(make_chain):
    for n in (7, 8, 9):
        mats = make_chain(3000 + n, n, d=3)
        assert rhs_tensor_resolvent(mats) == pytest.approx(
            rhs_power_integral(mats), rel=1e-13)


@pytest.mark.parametrize("d, n", [(2, n) for n in range(3, 11)]
                         + [(3, n) for n in range(3, 8)])
def test_tensor_kernel_spans_the_live_slots(monkeypatch, d, n):
    # identity pads drop out of the Loewner kernel: d^(n-2) eigenvalue
    # products per side, not D = d^(2^L)
    entries, real_ratio = [], inequalities.logarithmic_ratio

    def counted(a, b):
        entries.append(np.broadcast(a, b).size)
        return real_ratio(a, b)

    monkeypatch.setattr(inequalities, "logarithmic_ratio", counted)
    chains = draw_posdef([np.random.default_rng(s) for s in (5, 6)], d, count=n)
    rhs_tensor_resolvent(chains)
    assert sum(entries) == 2 * d ** (2 * (n - 2))


@pytest.mark.parametrize("d, n", [(2, 7), (2, 8), (3, 5)])
def test_tensor_form_saturates_commuting_chains_with_pads(d, n):
    # the pad in the second slot contracts through conj(A_n) alone
    for seed in range(90, 95):
        fam = random_commuting_family(d, n, seed=seed)
        assert rhs_tensor_resolvent(fam) == pytest.approx(lhs_exp_sum_log(fam), rel=1e-12)


def test_tensor_form_real_on_very_wide_commuting_chains():
    # condition 1e12 per matrix: the factored contraction keeps the
    # imaginary residue under IMAG_ERROR on all 80 chains at d = 2
    for seed in range(1000, 1080):
        fam = random_commuting_family(2, 6, seed, (1e-6, 1e6))
        assert np.isfinite(rhs_tensor_resolvent(fam))


def test_chain_product_trace_real_at_zero(make_chain, spectral_power):
    # at t = 0 the chain is a plain product of positive matrices
    mats = make_chain(31, 3)
    a1, a2, a3 = (m.matrix for m in mats)
    half = spectral_power(a2, 0.5)
    direct = float(np.trace(a3 @ half @ a1 @ half).real)
    assert chain_product_trace(mats, 0.0) == pytest.approx(direct, rel=1e-12)


def _mp_chain_traces(mats, ts):
    """Tr[A_n A_{n-1}^z .. A_1 .. (A_{n-1}^z)*], z = (1+it)/2, at each t at
    mpmath's working precision: both halves of the sandwich, each power
    from mpmath's own eigendecomposition of the matrix as stored."""
    a = [mpmath.matrix(m.tolist()) for m in mats]
    spectra = [mpmath.eigh(x) for x in a[1:-1]]
    traces = []
    for t in ts:
        z = mpmath.mpc(1, t) / 2
        s = a[0]
        for lam, vec in spectra:
            power = vec * mpmath.diag([x ** z for x in lam]) * vec.H
            s = power * s * power.H
        traces.append(mpmath.re(sum((a[-1] * s)[i, i] for i in range(s.rows))))
    return traces


@pytest.mark.parametrize("d, n, lam_range, seed", [
    (2, 6, (0.1, 10.0), 71), (3, 4, (0.1, 10.0), 72),
    (2, 5, (1e-4, 1e4), 73), (3, 3, (1e-4, 1e4), 74)])
def test_integral_form_matches_mpmath(d, n, lam_range, seed):
    # a backward-stable eigh moves each matrix by about d eps ||A||, which
    # moves A^z, Re z = 1/2, by about d eps sqrt(lam_hi / lam_lo) relative;
    # the n factors add theirs. 4 n d eps sqrt(lam_hi / lam_lo) bounds the
    # relative error: 1.1e-13 on the default range (seen: at most 1.8e-15),
    # 8.9e-11 and 8.0e-11 on [1e-4, 1e4] (seen: at most 4.2e-13)
    rng = np.random.default_rng(seed)
    mats = [draw_posdef(rng, d, lam_range).matrix for _ in range(n)]
    bound = 4 * n * d * np.finfo(float).eps * np.sqrt(lam_range[1] / lam_range[0])
    rule = real_line_rule()
    t = np.array([-1.3, 0.0, 2.7])
    with mpmath.workdps(30):
        pointwise = np.array(_mp_chain_traces(mats, t), dtype=float)
        nodes = [mpmath.mpf(x) for x in rule.nodes]
        beta = [mpmath.pi / (2 * (1 + mpmath.cosh(mpmath.pi * x))) for x in nodes]
        integral = float(mpmath.fsum(mpmath.mpf(w) * b * f for w, b, f in
                                     zip(rule.weights, beta, _mp_chain_traces(mats, nodes))))
    assert (np.abs(chain_product_trace(mats, t) - pointwise) <= bound * pointwise).all()
    assert abs(rhs_power_integral(mats) - integral) <= bound * integral


@pytest.mark.parametrize("d", [2, 3])
def test_pointwise_traces_are_real_and_positive_on_a_wide_stack(d):
    # each is ||C* Y||_F^2, a sum of squared moduli: a float > 0 at every
    # node and every prefix length, as a log of the integrand needs
    stack = draw_posdef([np.random.default_rng(s) for s in range(8)], d, (1e-4, 1e4),
                        count=MAX_N)
    lengths = tuple(range(3, MAX_N + 1))
    traces = inequalities._power_traces(stack, real_line_rule().nodes, lengths)
    assert traces.dtype == np.float64
    assert traces.shape == (8, len(lengths), real_line_rule().nodes.size)
    assert (traces > 0).all()


def test_equivalence_and_lieb_collapse(make_chain):
    mats = make_chain(41, 3)
    assert check_equivalence(mats, seed=41).passed
    assert compare("lieb_equivalence", mats, seed=41).passed
    lhs = rhs_power_integral(mats)
    assert rhs_lieb_three(mats) == pytest.approx(lhs, rel=1e-9)


def test_scaled_exponential_quadruples_only(make_chain):
    mats = make_chain(51, 4)
    rep = compare("scaled_exponential", mats, seed=51)
    assert rep.passed
    with pytest.raises(DimensionMismatch):
        compare("scaled_exponential", mats[:3], seed=51)
    # the scaled left side sits below the plain trace left side
    assert scaled_exponential_lhs(mats) <= lhs_exp_sum_log(mats) + 1e-12


def test_jensen_trace(make_chain):
    for n in (3, 5):
        mats = make_chain(61 + n, n)
        assert compare("jensen_trace", mats, seed=n).passed


def test_all_identity_chain_exact_values():
    mats = [PosDefMatrix(np.eye(2)) for _ in range(4)]
    assert lhs_exp_sum_log(mats) == pytest.approx(2.0, abs=1e-12)
    assert rhs_power_integral(mats) == pytest.approx(2.0, abs=1e-10)
    assert rhs_tensor_resolvent(mats) == pytest.approx(2.0, abs=1e-12)
    assert scaled_exponential_lhs(mats) == pytest.approx(2.0, abs=1e-12)


def test_commuting_chain_equality():
    for n in (3, 4, 5):
        fam = random_commuting_family(2, n, seed=70 + n)
        lhs = lhs_exp_sum_log(fam)
        assert rhs_power_integral(fam) == pytest.approx(lhs, rel=1e-8)
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

def test_commutator_chain_three_routes(make_chain):
    a1, a2 = make_chain(81, 2)
    exprs = commutator_chain(a1, a2)
    assert list(exprs) == ["product_minus_average", "commutator_resolvent",
                           "explicit_commutator"]
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


@pytest.mark.parametrize("dim", [2, 5])
def test_commutator_chain_stack_equals_lone_calls(dim):
    # 7 pairs cross the slices of 5 at d = 2; at d = 5 the nodes go in two blocks
    stack = draw_posdef([np.random.default_rng(90 + i) for i in range(7)], dim, count=2)
    stacked = commutator_chain(stack[:, 0], stack[:, 1])
    for i in range(7):
        lone = commutator_chain(stack[i, 0], stack[i, 1])
        for route, value in lone.items():
            assert np.array_equal(stacked[route][i], value), route


def test_commutator_chain_nan_route_fails(monkeypatch):
    # a NaN expression must not pass: the largest pairwise gap is NaN
    stack = draw_posdef([np.random.default_rng(s) for s in (87, 88, 89)], 2, count=2)
    real = limits.conjugated_power_average
    assert check_commutator_chain(stack[0, 0], stack[0, 1], seed=87).passed

    def nan_second(a1, a2):
        out = real(a1, a2)
        if out.ndim == 3:
            out[1] = np.nan
            return out
        return np.full_like(out, np.nan)

    monkeypatch.setattr(limits, "conjugated_power_average", nan_second)
    lone = check_commutator_chain(stack[0, 0], stack[0, 1], seed=87)
    assert not lone.passed and np.isnan(lone.lhs)
    # in a stack, only the pair with the NaN route fails
    reps = check_commutator_chain(stack[:, 0], stack[:, 1], seed=[87, 88, 89])
    assert [r.passed for r in reps] == [True, False, True]
    assert np.isnan(reps[1].lhs)


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


def test_penalized_trace_stack_reports_each_matrix_as_alone():
    rng = np.random.default_rng(85)
    g = rng.normal(size=(20, 3, 3)) + 1j * rng.normal(size=(20, 3, 3))
    a = (g + g.conj().swapaxes(-1, -2)) / 6.0
    v = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
    assert check_penalized_trace_limit(a, v, seed=list(range(20))) == [
        check_penalized_trace_limit(m, u, seed=s) for s, (m, u) in enumerate(zip(a, v))]
    with pytest.raises(DimensionMismatch):  # one direction per matrix
        penalized_trace_gaps(a, v[0])
    with pytest.raises(DimensionMismatch):  # the mpmath path takes one matrix
        penalized_trace_gaps(a, dps=30)


def test_penalized_trace_eigenvector_needs_precision():
    rng = np.random.default_rng(84)
    g = rng.normal(size=(3, 3))
    a = 0.5 * (g + g.T)
    a /= max(1.0, np.linalg.norm(a, 2))
    limit, gaps = penalized_trace_gaps(a, dps=40)  # A's top eigenvector
    assert limit == pytest.approx(np.exp(np.linalg.eigvalsh(a)[-1]), rel=1e-14)
    assert gaps[-1] < 1e-20
    assert gaps[-1] <= 1e-3 * gaps[0] + 10.0 ** (8 - 40)


def test_penalized_trace_needs_direction_or_index():
    # without dps there is no top-eigenvector default
    with pytest.raises(DimensionMismatch):
        penalized_trace_gaps(np.eye(2))


def test_penalized_trace_rejects_nonpositive_precision():
    # mpmath runs at zero digits without complaint, and returns a limit of
    # 0.75 for 0.682 here
    rng = np.random.default_rng(84)
    g = rng.normal(size=(3, 3))
    a = 0.5 * (g + g.T)
    a /= max(1.0, np.linalg.norm(a, 2))
    v = rng.normal(size=3)
    for dps in (0, -1):
        with pytest.raises(InvalidRange):
            penalized_trace_gaps(a, v, dps=dps)
        with pytest.raises(InvalidRange):
            check_penalized_trace_limit(a, v, dps=dps)


@pytest.mark.parametrize("seed, make_complex", [(84, False), (86, True)])
def test_penalized_trace_precision_path_matches_float64(seed, make_complex):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if make_complex else 0)
    a = 0.5 * (g + g.conj().T)
    a /= max(1.0, np.linalg.norm(a, 2))
    v = rng.normal(size=3) + (1j * rng.normal(size=3) if make_complex else 0)
    limit, gaps = penalized_trace_gaps(a, v)
    limit_mp, gaps_mp = penalized_trace_gaps(a, v, dps=40)
    assert limit_mp == pytest.approx(limit, rel=1e-14)
    # float64 eigvalsh resolves the eigenvalues of A - t P to about eps * t;
    # measured gaps differ by 1e-16 * t or less
    eps = np.finfo(float).eps
    for t, gap, gap_mp in zip(PENALTY_GRID, gaps, gaps_mp):
        assert abs(gap - gap_mp) <= 16 * eps * t * max(1.0, limit)


def test_one_function_imports_mpmath():
    # arbitrary precision lives in one function and is imported on first
    # use, so moving it to its own module touches one place
    importers, top_level = set(), set()
    for path in sorted(Path(traceineq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(node, f"{path.stem}.{node.name}") for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for imp in ast.walk(tree):
            if isinstance(imp, ast.Import):
                modules = [alias.name for alias in imp.names]
            elif isinstance(imp, ast.ImportFrom):
                modules = [imp.module or ""]
            else:
                continue
            if not any(m.split(".")[0] == "mpmath" for m in modules):
                continue
            inner = [name for node, name in scopes
                     if node.lineno <= imp.lineno <= node.end_lineno]
            importers.add(inner[-1] if inner else path.stem)
            if imp in tree.body:
                top_level.add(path.stem)
    assert importers == {"limits.penalized_trace_gaps"}
    assert not top_level


def test_derivative_form_converges(make_chain):
    mats = make_chain(85, 4, lam_range=(0.5, 2.0))
    rep = check_derivative_form(mats, seed=85)
    assert rep.passed
    assert rep.params["halving_ratio"] == pytest.approx(0.25, abs=0.05)
    exact = rhs_tensor_resolvent(mats)
    val = derivative_form_value(*tensor_operands(mats), step=1e-4)
    assert val == pytest.approx(exact, rel=1e-6)
    stack = draw_posdef([np.random.default_rng(s) for s in (85, 86)], 2, count=4)
    with pytest.raises(DimensionMismatch, match="one chain"):
        check_derivative_form(stack)


@pytest.mark.parametrize("check, n", [(check_key_identity, 5),
                                      (check_derivative_form, 4)])
def test_one_chain_stack_gives_the_report_of_its_list(check, n):
    chain = draw_posdef(np.random.default_rng(86), 2, count=n)
    assert chain.matrix.shape == (n, 2, 2)
    rep = check(chain, seed=86)
    assert rep.n == n and rep.passed
    assert rep == check([chain[k] for k in range(n)], seed=86)
    # a list of plain arrays is one chain too, and gives one report
    assert isinstance(check([chain.matrix[k] for k in range(n)]), type(rep))
    # K > 1 chains give K reports, given K seeds, and refuse to guess seeds
    seeds = [86, 87, 88]
    stack = draw_posdef([np.random.default_rng(s) for s in seeds], 2, count=n)
    reps = check(stack, seed=seeds)
    assert [r.seed for r in reps] == seeds and all(r.passed and r.n == n for r in reps)
    for r, s in zip(reps, seeds):
        one = check([stack[seeds.index(s), k] for k in range(n)], seed=s)
        assert r.lhs == pytest.approx(one.lhs, rel=1e-13)
        assert r.rhs == pytest.approx(one.rhs, rel=1e-13)
    for bad in (None, 86, seeds[:2]):
        with pytest.raises(TraceIneqError, match="one chain"):
            check(stack, seed=bad)


@pytest.mark.parametrize("count", [1, 3])
def test_derivative_form_decomposes_its_chains_once(monkeypatch, count):
    # one eigh of the (K, 4, d, d) chain stack, shared by the tensor form
    # and the dense operands; the probes' eighs are (K, D, D)
    seeds = list(range(90, 90 + count))
    stack = draw_posdef([np.random.default_rng(s) for s in seeds], 2, count=4)
    real = np.linalg.eigh
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    if count == 1:
        check_derivative_form([stack[0, k] for k in range(4)], seed=90)
    else:
        check_derivative_form(stack, seed=seeds)
    assert [s for s in shapes if len(s) == 4] == [(count, 4, 2, 2)]


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
