import numpy as np
import pytest

from traceineq import (
    DIM_CAP,
    DimensionCap,
    DimensionMismatch,
    build_layout,
    omega_vector,
    pairing_check,
    projector,
    thue_morse,
)


def test_omega_vector_is_flattened_identity():
    w = omega_vector(2, 1)
    assert np.array_equal(w, np.eye(2).reshape(-1))
    assert np.vdot(w, w).real == pytest.approx(2.0)
    w2 = omega_vector(3, 2)
    assert w2.shape == (81,)
    assert np.vdot(w2, w2).real == pytest.approx(9.0)


def test_omega_vector_rejects_degenerate():
    with pytest.raises(DimensionMismatch):
        omega_vector(1, 1)
    with pytest.raises(DimensionMismatch):
        omega_vector(2, 0)


def test_pairing_reproduces_trace(rng):
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w = omega_vector(3, 1)
    lhs = np.trace(x @ y)
    rhs = w @ np.kron(x, y.T) @ w
    assert lhs == pytest.approx(rhs, abs=1e-12)
    rep = pairing_check(x, y, copies=1, seed=0)
    assert rep.passed


@pytest.mark.parametrize("copies", [1, 2])
def test_pairing_report_is_a_residual_with_the_same_verdict(copies):
    rng = np.random.default_rng(40 + copies)
    dim = 2 ** copies
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = omega_vector(2, copies)
    gap = abs(np.trace(x @ y) - w @ np.kron(x, y.T) @ w)
    scale = max(1.0, np.linalg.norm(x) * np.linalg.norm(y))
    assert gap > 0.0
    for atol in (1e-12, 0.5 * gap / scale, 0.0):
        rep = pairing_check(x, y, copies=copies, atol=atol)
        assert rep.passed == (gap <= atol * scale) == (atol == 1e-12)
        assert (rep.lhs, rep.rhs, rep.atol, rep.rtol) == (gap, 0.0, 0.0, atol)
        assert rep.rel_gap == pytest.approx(gap / scale)


@pytest.mark.parametrize("local, copies", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_pairing_stack_reports_each_pair_as_alone(local, copies):
    # a stack is checked slice by slice within the budget, each pair in
    # the bits of a lone call (at d = 3, copies = 2, a slice is one pair)
    rng = np.random.default_rng(45)
    dim = local ** copies
    x, y = (rng.normal(size=(37, dim, dim)) + 1j * rng.normal(size=(37, dim, dim))
            for _ in range(2))
    assert pairing_check(x, y, copies=copies, seed=list(range(37))) == [
        pairing_check(a, b, copies=copies, seed=s) for s, (a, b) in enumerate(zip(x, y))]


def test_projector_nesting():
    # one pair of squared local dimension equals two nested pairs
    p_two_pairs = projector(2, 2)
    p_one_big = projector(4, 1)
    assert np.allclose(p_two_pairs, p_one_big)


def test_projector_is_rank_one_scaled():
    p = projector(2, 1)
    w = omega_vector(2, 1)
    assert np.allclose(p, np.outer(w, w))
    assert np.allclose(p @ p, 2.0 * p)
    lam = np.linalg.eigvalsh(p)
    assert lam[-1] == pytest.approx(2.0)
    assert np.allclose(lam[:-1], 0.0, atol=1e-12)


def test_pairing_swallows_transposed_side(rng):
    # moving an operator across the pairing transposes it:
    # (I (x) M^T) omega = (M (x) I) omega
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w = omega_vector(3, 1)
    left = np.kron(m, np.eye(3)) @ w
    right = np.kron(np.eye(3), m.T) @ w
    assert np.allclose(left, right)


def test_layout_slots_match_combinatorics():
    for n in range(3, 9):
        layout = build_layout(n, 2)
        assert layout.n == n
        live = [s for s in layout.mid_slots if s.source is not None]
        assert sorted(s.source for s in live) == list(range(2, n))
        for s in live:
            assert s.conjugate == bool(thue_morse(s.slot))
        pads = [s for s in layout.mid_slots if s.source is None]
        for s in pads:
            assert not s.conjugate


def test_layout_pair_copies_double():
    layout = build_layout(7, 2)
    assert layout.pair_copies == (1, 2)
    assert layout.outer_copies == 4
    layout = build_layout(4, 2)
    assert layout.pair_copies == ()
    assert layout.outer_copies == 1
    layout = build_layout(5, 2)
    assert layout.pair_copies == (1,)
    assert layout.outer_copies == 2


def test_layout_total_dim_and_cap():
    # one side of the pairing holds one local factor per mid slot
    assert build_layout(6, 2).total_dim == 2 ** 4
    assert build_layout(7, 2).total_dim == 2 ** 8
    assert build_layout(10, 3).total_dim == 3 ** 8
    with pytest.raises(DimensionCap, match="exceeds cap 6561"):
        build_layout(7, 4)
    assert DIM_CAP == 3 ** 8
    # the dense operands of the derivative form keep the lower cap
    assert build_layout(4, 22, dense=True).total_dim == 484
    with pytest.raises(DimensionCap, match="exceeds cap 512"):
        build_layout(4, 23, dense=True)
