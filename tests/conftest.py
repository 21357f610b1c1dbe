import numpy as np
import pytest

from traceineq import draw_posdef, real_line_rule


@pytest.fixture(scope="session")
def beta_rule():
    return real_line_rule()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def chain(seed, n, d=2, lam_range=(0.1, 10.0)):
    rng = np.random.default_rng(seed)
    return [draw_posdef(rng, d, lam_range) for _ in range(n)]


@pytest.fixture()
def make_chain():
    return chain


def _spectral_power(a, z):
    """V diag(lam^z) V* from a fresh eigh of the Hermitian a, for a scalar
    z or stacked along a leading axis for an array of them."""
    lam, vec = np.linalg.eigh(a)
    powers = np.exp(np.multiply.outer(z, np.log(lam)))
    return (vec * powers[..., None, :]) @ vec.conj().T


@pytest.fixture()
def spectral_power():
    return _spectral_power
