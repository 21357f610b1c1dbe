"""End-to-end acceptance runs, one verdict line per area.

Every test prints exactly one "[acceptance] name: PASS|FAIL" line and
asserts the same condition, so the suite reads as a checklist. Seeds
are fixed constants: reruns see identical draws.
"""
import numpy as np
import pytest

import traceineq as ti
from traceineq.limits import penalized_trace_gaps
from traceineq.quadrature import beta_normalization_gap, scalar_log_kernel, scalar_power_average


def _verdict(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {tag}{suffix}")
    assert ok, f"{name}: {detail}"


def _chain(seed, n, d=2, lam_range=(0.1, 10.0)):
    rng = np.random.default_rng(seed)
    return [ti.draw_posdef(rng, d, lam_range) for _ in range(n)]


def test_weight_normalization_and_frozen_values():
    gap = abs(beta_normalization_gap())
    at_zero = abs(ti.beta_density(0.0) - np.pi / 4.0)
    at_one = abs(ti.beta_density(1.0) - 0.124746041573112)
    t = np.linspace(0.0, 15.0, 301)
    even = float(np.max(np.abs(ti.beta_density(t) - ti.beta_density(-t))))
    ok = gap <= 1e-10 and at_zero <= 1e-14 and at_one <= 1e-12 and even == 0.0
    _verdict("hyperbolic weight normalization and frozen values", ok,
             f"norm gap {gap:.2e}, beta(0) off {at_zero:.1e}, "
             f"beta(1) off {at_one:.1e}")


def test_scalar_power_average_grid():
    grid = (0.1, 0.3, 1.0, 3.0, 10.0)
    worst = 0.0
    for x in grid:
        for y in grid:
            avg = scalar_power_average(x, y)
            kernel = scalar_log_kernel(x, y)
            worst = max(worst, abs(avg - kernel))
    _verdict("scalar conjugated-power average on the grid", worst <= 1e-8,
             f"worst abs gap {worst:.2e} over {len(grid) ** 2} pairs")


def test_log_derivative_three_route_triangle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        x = ti.draw_posdef(rng, 4)
        y = ti.draw_posdef(rng, 4).matrix
        closed = ti.log_derivative_closed(x, y)
        quad = ti.log_derivative_quadrature(x, y)
        fd = ti.log_derivative_finite_difference(x, y)
        scale = np.linalg.norm(closed)
        for a, b in ((closed, quad), (closed, fd), (quad, fd)):
            worst = max(worst, float(np.linalg.norm(a - b)) / scale)
    _verdict("log-derivative routes agree pairwise", worst <= 1e-6,
             f"worst relative gap {worst:.2e} over 100 seeds, dim 4")


def test_power_average_operator_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(11_000 + seed)
        a1 = ti.draw_posdef(rng, 3).matrix
        a2 = ti.draw_posdef(rng, 3)
        rep = ti.power_average_identity_check(a1, a2, seed=seed)
        worst = max(worst, rep.rel_gap)
        if not rep.passed:
            break
    _verdict("conjugated-power average equals the log-derivative operator",
             rep.passed and worst <= 1e-8,
             f"worst relative gap {worst:.2e} over 100 seeds")


def test_pointwise_tensor_identity():
    worst = 0.0
    count = 0
    ok = True
    for n in (3, 4, 5, 6):
        dims = (2, 3) if n <= 4 else (2,)
        for d in dims:
            for seed in range(50):
                mats = _chain(12_000 + 97 * n + seed, n, d)
                rep = ti.check_key_identity(mats, seed=seed)
                worst = max(worst, rep.rel_gap)
                ok = ok and rep.passed
                count += 1
    _verdict("pointwise product trace equals entangled pairing", ok,
             f"worst relative gap {worst:.2e} over {count} chains, "
             f"t grid of 5")


def test_integral_tensor_equivalence_and_three_matrix_collapse():
    worst_eq = 0.0
    ok = True
    for n in (3, 4, 5, 6):
        for seed in range(50):
            mats = _chain(13_000 + 131 * n + seed, n)
            rep = ti.check_equivalence(mats, seed=seed)
            worst_eq = max(worst_eq, rep.rel_gap)
            ok = ok and rep.passed
    worst_lieb = 0.0
    for seed in range(200):
        mats = _chain(14_000 + seed, 3)
        rep = ti.compare("lieb_equivalence", mats, seed=seed)
        worst_lieb = max(worst_lieb, rep.rel_gap)
        ok = ok and rep.passed
    _verdict("integral form equals tensor form, collapses for triples", ok,
             f"equivalence worst {worst_eq:.2e} over 200 chains, "
             f"triple collapse worst {worst_lieb:.2e} over 200")


def test_inequality_campaigns():
    cfg = ti.CampaignConfig(
        suite="inequalities",
        checks=("golden_thompson", "lieb_three", "power_integral",
                "tensor_resolvent", "scaled_exponential"),
        n_values=(3, 4, 5, 6), trials=1000, seed=50_000, parallel=0)
    summary = ti.run_campaign(cfg)
    counts = {row["check_id"]: row["trials"] for row in summary.per_check}
    expected = {"golden_thompson": 1000, "lieb_three": 1000,
                "power_integral": 4000, "tensor_resolvent": 4000,
                "scaled_exponential": 1000}
    ok = summary.passed and counts == expected
    _verdict("inequality campaigns, 1000 trials per bound", ok,
             f"{summary.trial_count} trials, "
             f"{summary.failure_count} failures")


def test_commuting_equality_and_identity_chains():
    worst = 0.0
    ok = True
    for n in (3, 4, 5, 6):
        for seed in range(25):
            fam = ti.random_commuting_family(2, n, seed=15_000 + 17 * n + seed)
            lhs = ti.lhs_exp_sum_log(fam)
            for rhs in (ti.rhs_power_integral(fam),
                        ti.rhs_tensor_resolvent(fam)):
                rel = abs(rhs - lhs) / abs(lhs)
                worst = max(worst, rel)
                ok = ok and rel <= 1e-8
    eye2 = [ti.PosDefMatrix(np.eye(2)) for _ in range(4)]
    eye3 = [ti.PosDefMatrix(np.eye(3)) for _ in range(3)]
    ok = ok and abs(ti.rhs_tensor_resolvent(eye2) - 2.0) <= 1e-12
    ok = ok and abs(ti.lhs_exp_sum_log(eye2) - 2.0) <= 1e-12
    ok = ok and abs(ti.rhs_tensor_resolvent(eye3) - 3.0) <= 1e-12
    ok = ok and abs(ti.rhs_power_integral(eye2) - 2.0) <= 1e-10
    _verdict("commuting chains saturate, identity chains exact", ok,
             f"worst commuting relative gap {worst:.2e} over 100 families")


def test_commutator_chain_routes():
    worst = 0.0
    ok = True
    for seed in range(100):
        a1, a2 = _chain(16_000 + seed, 2)
        rep = ti.check_commutator_chain(a1, a2, seed=seed)
        worst = max(worst, rep.rel_gap)
        ok = ok and rep.passed
    worst_comm = 0.0
    for seed in range(100):
        f1, f2 = ti.random_commuting_family(2, 2, seed=17_000 + seed)
        rep = ti.check_commutator_chain(f1, f2, atol=1e-12, seed=seed,
                                        check_id="commutator_chain_commuting")
        worst_comm = max(worst_comm, rep.rel_gap)
        ok = ok and rep.passed
    _verdict("commutator chain agrees on three routes", ok,
             f"random worst {worst:.2e} (tol 1e-6), "
             f"commuting worst {worst_comm:.2e} (tol 1e-12)")


def test_penalized_trace_limit_eigenvector():
    ok = True
    details = []
    for seed, make_complex in ((18_001, False), (18_002, True)):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(3, 3))
        if make_complex:
            g = g + 1j * rng.normal(size=(3, 3))
        a = 0.5 * (g + g.conj().T)
        a = a / max(1.0, float(np.linalg.norm(a, 2)))
        limit, gaps = penalized_trace_gaps(a, dps=60)
        ratio = gaps[-1] / gaps[0] if gaps[0] > 0 else 0.0
        ok = ok and gaps[-1] <= 1e-3 * gaps[0] and gaps[-1] <= 1e-6
        rep = ti.check_penalized_trace_limit(a, dps=60, seed=seed)
        ok = ok and rep.passed
        details.append(f"final gap {gaps[-1]:.1e}, decade ratio {ratio:.1e}")
    _verdict("penalized trace collapses onto the eigenvector direction", ok,
             "; ".join(details))


def test_derivative_form_of_tensor_bound():
    worst = 0.0
    ratios = []
    ok = True
    for seed in range(50):
        mats = _chain(19_000 + seed, 4)
        rep = ti.check_derivative_form(mats, seed=seed)
        worst = max(worst, rep.rel_gap)
        ok = ok and rep.passed
        # the halving ratio witnesses second order only where the
        # truncation error still dominates the roundoff floor
        if rep.params["err_full"] > 1e-10 * max(1.0, abs(rep.rhs)):
            ratios.append(rep.params["halving_ratio"])
    med = float(np.median(ratios))
    ok = ok and len(ratios) >= 30 and abs(med - 0.25) <= 0.05 and worst <= 1e-5
    ok = ok and all(0.15 < r < 0.4 for r in ratios)
    _verdict("tensor bound is the trace-functional derivative", ok,
             f"worst relative gap {worst:.2e}, median halving ratio "
             f"{med:.4f} over {len(ratios)} informative of 50 chains")