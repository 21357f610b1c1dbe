import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceineq import (
    ImaginaryResidue,
    InvalidRange,
    NonFinite,
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
    # a NaN matrix is rejected when it is hermitized, before any eigh
    with pytest.raises(NonFinite):
        PosDefMatrix(np.diag([np.nan, 1.0])).log()


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


@pytest.mark.parametrize("value, part", [
    (complex(1.0, np.nan), "imaginary"), (complex(np.nan, 0.0), "real"),
    (complex(np.inf, 0.0), "real"), (complex(2.0, -np.inf), "imaginary")])
def test_real_trace_rejects_non_finite(value, part):
    with pytest.raises(NonFinite, match=f"t: {part} part is not finite"):
        real_trace(value, context="t")
    stacked = np.array([3.0 + 0j, value, 1.0 + 1e-12j])
    with pytest.raises(NonFinite, match=f"{part} part"):
        real_trace(stacked, context="t")


def test_real_trace_stacked():
    out = real_trace(np.array([3.0 + 1e-12j, -1.0 + 0j]))
    assert isinstance(out, np.ndarray) and out.tolist() == [3.0, -1.0]
    assert isinstance(real_trace(np.complex128(2.0)), float)
    with pytest.raises(ImaginaryResidue):
        real_trace(np.array([1.0 + 0j, 1.0 + 1e-3j]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermitize_rejects_non_finite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            hermitize(np.diag([bad, 1.0]))
        with pytest.raises(NonFinite):
            hermitize(np.stack([np.eye(2), np.diag([bad, 1.0])]))


def test_hermitize_checks_each_matrix_of_a_stack():
    good = np.array([[1.0, 2.0], [2.0, 3.0]])
    bad = np.array([[1.0, 2.0], [0.0, 3.0]])
    assert hermitize(np.stack([good, good])).shape == (2, 2, 2)
    with pytest.raises(NotHermitian):
        hermitize(np.stack([good, bad]))


def test_logarithmic_ratio_far_apart():
    assert logarithmic_ratio(1e16, 1.0) == pytest.approx(36.841361487904734e-16, rel=1e-14)
    assert logarithmic_ratio(1.0, 1e-300) == pytest.approx(690.7755278982137, rel=1e-14)
    # sinh(709) overflows: the far branch must not warn on it
    assert logarithmic_ratio(1e308, 1e-308) == pytest.approx(
        616 * np.log(10.0) / 1e308, rel=1e-14)
    # every branch at once, with no warning from the branches not taken
    a = np.array([1.0, 1.0, 1.0 + 1e-13, 1.5, 1e16])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = logarithmic_ratio(a[:, None], a[None, :])
    assert np.all(np.isfinite(out)) and np.allclose(out, out.T, rtol=1e-15)


@pytest.mark.parametrize("lam_range", [(0.1, 10.0), (1e-6, 1e6)])
def test_logarithmic_ratio_matches_mpmath_on_a_product_spectrum(lam_range):
    # 400 entries of the kernel on a Kronecker product spectrum, as the
    # tensor form evaluates it: slot spectra and an identity pad (exact ties)
    rng = np.random.default_rng(17)
    lo, hi = np.log(lam_range[0]), np.log(lam_range[1])
    slots = [np.exp(rng.uniform(lo, hi, size=size)) for size in (2, 5)] + [np.ones(2)]
    mu = 1.0 / np.prod(np.meshgrid(*slots, indexing="ij"), axis=0).reshape(-1)
    out = logarithmic_ratio(mu[:, None], mu[None, :])
    with mpmath.workdps(40):
        exact = [[1 / mpmath.mpf(a) if a == b else
                  (mpmath.log(a) - mpmath.log(b)) / (mpmath.mpf(a) - mpmath.mpf(b))
                  for b in mu] for a in mu]
    rel = np.abs(out / np.array(exact, dtype=float) - 1.0)
    assert out.shape == (20, 20) and rel.max() <= 1e-14


_POSITIVE = st.floats(min_value=1e-12, max_value=1e12)


@settings(max_examples=200, deadline=None)
@given(_POSITIVE, _POSITIVE)
def test_logarithmic_ratio_symmetric(a, b):
    assert logarithmic_ratio(a, b) == logarithmic_ratio(b, a)


@settings(max_examples=200, deadline=None)
@given(_POSITIVE, _POSITIVE, st.floats(min_value=1e-3, max_value=1e3))
def test_logarithmic_ratio_scales_inversely(a, b, c):
    assert logarithmic_ratio(c * a, c * b) == pytest.approx(
        logarithmic_ratio(a, b) / c, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(_POSITIVE, st.floats(min_value=-1e-6, max_value=1e-6))
def test_logarithmic_ratio_diagonal_limit(a, eps):
    assert logarithmic_ratio(a, a) == 1.0 / a
    # (log a - log b) / (a - b) = (1/a) (1 - eps/2 + O(eps^2)) at b = a (1 + eps)
    assert logarithmic_ratio(a, a * (1 + eps)) * a == pytest.approx(
        1.0 - eps / 2, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(_POSITIVE, st.floats(min_value=2.5, max_value=1e16))
def test_logarithmic_ratio_matches_log_difference_far_apart(a, ratio):
    with mpmath.workdps(40):
        exact = (mpmath.log(a * ratio) - mpmath.log(a)) / (mpmath.mpf(a * ratio) - a)
    assert logarithmic_ratio(a * ratio, a) == pytest.approx(float(exact), rel=1e-14)


def test_draw_posdef_spectrum_in_range(rng):
    for _ in range(20):
        a = draw_posdef(rng, 5, (0.2, 4.0))
        lam = a.spectral.eigenvalues
        assert lam.min() >= 0.2 * (1 - 1e-9)
        assert lam.max() <= 4.0 * (1 + 1e-9)
    with pytest.raises(InvalidRange):
        draw_posdef(rng, 3, (-1.0, 2.0))


@pytest.mark.parametrize("lam_range", [(0.1, np.inf), (np.nan, 1.0), (0.1, np.nan)])
def test_draws_reject_non_finite_range(rng, lam_range):
    # an infinite bound would reach numpy's uniform, which raises OverflowError
    with pytest.raises(InvalidRange, match="< inf"):
        draw_posdef(rng, 2, lam_range)
    with pytest.raises(InvalidRange, match="< inf"):
        random_commuting_family(2, 3, 0, lam_range)


def test_random_posdef_deterministic_in_seed():
    a = draw_posdef(np.random.default_rng(5), 3)
    b = draw_posdef(np.random.default_rng(5), 3)
    assert np.array_equal(a.matrix, b.matrix)


def _haar_conjugated(gauss, lam):
    """Q diag(lam) Q* with the Haar Q of Mezzadri (math-ph/0609050):
    QR of the Ginibre matrix, the phases of diag(R) moved into Q."""
    q, r = np.linalg.qr(gauss)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return (q * lam) @ q.conj().T


def _haar_draws(rng, dim, count, lo=0.1, hi=10.0):
    """draw_posdef's random numbers in its order, conjugated by Haar Q."""
    out = []
    for _ in range(count):
        g = rng.normal(size=(2, dim, dim))
        lam = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))
        out.append(_haar_conjugated(g[0] + 1j * g[1], lam))
    return np.array(out)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_draws_have_the_haar_conjugated_law(dim):
    # Q diag(lam) Q* ignores the column phases of Q, so the phase fix
    # that makes Q Haar does not move a draw
    for seed in range(10):
        lone = draw_posdef(np.random.default_rng(seed), dim).matrix
        assert _rel(lone, _haar_draws(np.random.default_rng(seed), dim, 1)[0]) <= 1e-14
        stacked = draw_posdef([np.random.default_rng(seed + k) for k in range(3)],
                              dim, count=4).matrix
        for k in range(3):
            ref = _haar_draws(np.random.default_rng(seed + k), dim, 4)
            assert all(_rel(m, r) <= 1e-14 for m, r in zip(stacked[k], ref))
        family = random_commuting_family(dim, 3, seed)
        rng = np.random.default_rng(seed)
        gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for member in family:
            lam = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=dim))
            assert _rel(member.matrix, _haar_conjugated(gauss, lam)) <= 1e-14


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
