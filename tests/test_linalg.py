import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceineq import (
    ImaginaryResidue,
    InvalidRange,
    NonPositiveEigenvalue,
    NotHermitian,
    PosDefMatrix,
    as_posdef,
    draw_posdef,
    hermitian_fn,
    hermitize,
    kron_all,
    logarithmic_ratio,
    random_commuting_family,
    real_trace,
)


def test_hermitize_averages_roundoff():
    a = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]], dtype=complex)
    h = hermitize(a)
    assert np.allclose(h, h.conj().T)


def test_hermitize_rejects_genuinely_asymmetric():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    with pytest.raises(NotHermitian):
        hermitize(a)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=5))
def test_hermitize_idempotent_on_random_hermitian(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g + g.conj().T
    out = hermitize(h)
    assert np.array_equal(out, hermitize(out))


def test_posdef_requires_positive_spectrum():
    a = np.diag([1.0, -0.5])
    with pytest.raises(NonPositiveEigenvalue):
        PosDefMatrix(a).spectral


def test_posdef_rejects_nan_spectrum():
    with pytest.raises(NonPositiveEigenvalue):
        PosDefMatrix(np.diag([np.nan, 1.0])).log()


def test_power_matches_integer_products(rng):
    a = draw_posdef(rng, 4)
    m = a.matrix
    assert np.allclose(a.power(2), m @ m)
    assert np.allclose(a.power(1), m)
    assert np.allclose(a.power(-1) @ m, np.eye(4), atol=1e-10)
    assert np.allclose(a.power(0.5) @ a.power(0.5), m)


def test_complex_power_unitary_direction(rng):
    # purely imaginary exponents give unitaries: A^{it} (A^{it})^dag = I
    a = draw_posdef(rng, 3)
    u = a.power(1j * 0.7)
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


def test_half_power_pair_conjugate_exponents(rng):
    a = draw_posdef(rng, 3)
    plus = a.power(0.5 * (1 + 0.9j))
    minus = a.power(0.5 * (1 - 0.9j))
    assert np.allclose(minus, plus.conj().T)
    # s+ + s- = 1, so the two powers multiply back to A
    assert np.allclose(plus @ minus, a.matrix, atol=1e-12)


def test_power_stack_matches_power(rng):
    a = draw_posdef(rng, 3)
    z = 0.5 * (1.0 + 1j * np.array([-3.0, 0.0, 0.9, 7.5]))
    stack = a.power_stack(z)
    assert stack.shape == (4, 3, 3)
    for zt, p in zip(z, stack):
        assert np.allclose(p, a.power(zt), atol=1e-12)


def test_log_inverse_consistency(rng):
    a = draw_posdef(rng, 3)
    assert np.allclose(a.log() + PosDefMatrix(a.inverse()).log(),
                       np.zeros((3, 3)), atol=1e-12)


def test_hermitian_fn_indefinite_exponent():
    h = np.diag([1.0, -2.0])
    assert np.allclose(hermitian_fn(h, np.exp), np.diag(np.exp([1.0, -2.0])))


def test_logarithmic_ratio_symmetric_and_limit():
    assert logarithmic_ratio(2.0, 3.0) == pytest.approx(logarithmic_ratio(3.0, 2.0))
    assert logarithmic_ratio(2.0, 2.0) == pytest.approx(0.5)
    # (log a - log b)/(a - b) against direct evaluation
    assert logarithmic_ratio(1.0, np.e) == pytest.approx(1.0 / (np.e - 1.0))


def test_logarithmic_ratio_near_degenerate_stable():
    a = 3.0
    for eps in (1e-9, 1e-12, 1e-15):
        val = logarithmic_ratio(a, a * (1 + eps))
        assert val == pytest.approx(1.0 / a, rel=1e-8)


def test_logarithmic_ratio_broadcasts():
    a = np.array([1.0, 2.0, 3.0])
    out = logarithmic_ratio(a[:, None], a[None, :])
    assert out.shape == (3, 3)
    assert np.allclose(np.diag(out), 1.0 / a)


def test_real_trace_guards_imaginary():
    assert real_trace(3.0 + 1e-12j, context="t") == pytest.approx(3.0)
    with pytest.raises(ImaginaryResidue):
        real_trace(3.0 + 1e-3j, context="t")


def test_draw_posdef_spectrum_in_range(rng):
    for _ in range(20):
        a = draw_posdef(rng, 5, (0.2, 4.0))
        lam = a.spectral.eigenvalues
        assert lam.min() >= 0.2 * (1 - 1e-9)
        assert lam.max() <= 4.0 * (1 + 1e-9)
    with pytest.raises(InvalidRange):
        draw_posdef(rng, 3, (-1.0, 2.0))


def test_random_posdef_deterministic_in_seed():
    a = draw_posdef(np.random.default_rng(5), 3)
    b = draw_posdef(np.random.default_rng(5), 3)
    assert np.array_equal(a.matrix, b.matrix)


def test_commuting_family_commutes():
    fam = random_commuting_family(3, 4, seed=9)
    for i in range(4):
        for j in range(i + 1, 4):
            comm = fam[i].matrix @ fam[j].matrix - fam[j].matrix @ fam[i].matrix
            assert np.linalg.norm(comm) < 1e-12


def test_kron_all_dimensions_and_values():
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 5.0])
    k = kron_all([a, b])
    assert k.shape == (4, 4)
    assert np.allclose(np.diag(k), [3.0, 5.0, 6.0, 10.0])
    single = kron_all([a])
    assert np.array_equal(single, a)


def test_as_posdef_passthrough_and_wrap(rng):
    a = draw_posdef(rng, 2)
    assert as_posdef(a) is a
    wrapped = as_posdef(a.matrix)
    assert isinstance(wrapped, PosDefMatrix)
    assert np.allclose(wrapped.matrix, a.matrix)


def test_condition_number(rng):
    a = PosDefMatrix(np.diag([0.5, 8.0]))
    assert a.condition == pytest.approx(16.0)
