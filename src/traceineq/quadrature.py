"""Quadrature rules and the hyperbolic weight density.

The weight is beta(t) = (pi/2) / (1 + cosh(pi t)), evaluated in the
overflow-free form pi e^{-pi|t|} / (1 + e^{-pi|t|})^2. It is an even
probability density with tails bounded by pi e^{-pi|t|}, so truncating
the real line to [-T, T] loses at most 2 e^{-pi T} of the mass.

Two rules cover every integral in the library: the trapezoid rule on
a truncated real line for beta-averages, and Gauss-Legendre in the
variable s with tau = s / (1 - s) for half-line resolvent integrals.
Rules are built once per process, on first use, with read-only arrays.

beta has its poles at t = +-i, and every integrand it weights here is
entire, so their product is analytic in the strip |Im t| < 1 and the
equispaced trapezoid rule converges geometrically: for an integrand
bounded in the strip its error is of order exp(-2 pi / h) at step h
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56, 2014). The default step, h = 24 / 160 = 0.15, puts that
near 6e-19, under the 2 e^{-12 pi} (about 9e-17) of the truncation to
[-12, 12]. Gauss-Legendre would crowd its nodes at the ends, where beta
is about 1e-16.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidRange
from .linalg import logarithmic_ratio, real_trace
from .report import TrialReport, identity_report

BETA_HALF_WIDTH = 12.0
BETA_NODE_COUNT = 161
HALFLINE_NODE_COUNT = 200


def beta_density(t):
    """Even density (pi/2) / (1 + cosh(pi t)), stable for large |t|."""
    e = np.exp(-np.pi * np.abs(t))
    return np.pi * e / (1.0 + e) ** 2


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights, their count, and the truncation half-width T
    of a real-line rule (None on the half line).

    A real-line rule is the trapezoid rule at step h = 2T / (node_count - 1).
    On beta times an integrand of growth at most e^{w |Im t|} in the strip
    |Im t| < 1 its error is at most of order exp(w - 2 pi / h) (Trefethen
    & Weideman, SIAM Review 56, 2014); a chain's trace has w at most half
    the sum of log(lam_max / lam_min) over its sandwiched matrices.
    """

    nodes: np.ndarray
    weights: np.ndarray
    node_count: int
    half_width: float | None = None


def real_line_rule(half_width: float = BETA_HALF_WIDTH,
                   node_count: int = BETA_NODE_COUNT) -> QuadratureRule:
    """The trapezoid rule on [-T, T] for beta-weighted averages:
    node_count equispaced nodes, the two end weights halved. Doubling
    node_count - 1 halves the step and keeps every node."""
    if not (0 < half_width < np.inf and node_count >= 2):
        raise InvalidRange(f"need 0 < half_width < inf and node_count >= 2, "
                           f"got ({half_width}, {node_count})")
    return _cached_rule(int(node_count), float(half_width))


def half_line_rule(node_count: int = HALFLINE_NODE_COUNT) -> QuadratureRule:
    """Gauss-Legendre on (0, infinity) via tau = s / (1 - s).

    The Jacobian 1/(1-s)^2 is folded into the weights, so integrands
    decaying like tau^{-2} become smooth bounded functions of s.
    """
    if node_count < 2:
        raise InvalidRange(f"need node_count >= 2, got {node_count}")
    return _cached_rule(int(node_count))


@lru_cache(maxsize=16)
def _cached_rule(node_count: int, half_width: float | None = None) -> QuadratureRule:
    """The real-line rule on [-half_width, half_width], or the half-line
    rule when half_width is None."""
    if half_width is None:
        x, w = np.polynomial.legendre.leggauss(node_count)
        s = 0.5 * (x + 1.0)  # the half-line variable
        nodes, weights = s / (1.0 - s), 0.5 * w / (1.0 - s) ** 2
    else:
        nodes = np.linspace(-half_width, half_width, node_count)
        weights = np.full(node_count, 2.0 * half_width / (node_count - 1))
        weights[[0, -1]] *= 0.5
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes, weights, node_count, half_width)


def beta_normalization_gap(rule: QuadratureRule | None = None) -> float:
    rule = rule or real_line_rule()
    return abs(float(np.dot(rule.weights, beta_density(rule.nodes))) - 1.0)


def scalar_power_average(x: float, y: float,
                         rule: QuadratureRule | None = None) -> float:
    """The beta-average of x^{(1+it)/2} y^{(1-it)/2} for scalars x, y > 0."""
    if x <= 0 or y <= 0:
        raise InvalidRange(f"scalar arguments must be positive, got ({x}, {y})")
    rule = rule or real_line_rule()
    root = np.sqrt(x * y)
    phase = 0.5 * np.log(x / y)
    vals = root * np.exp(1j * phase * rule.nodes)
    return real_trace(np.dot(rule.weights * beta_density(rule.nodes), vals),
                      context="scalar power average")


def scalar_log_kernel(x: float, y: float) -> float:
    """Closed form of the same average: x y log(y/x) / (y - x), with the
    diagonal limit x at y = x. Equals the divided difference of log at
    the inverse arguments."""
    if x <= 0 or y <= 0:
        raise InvalidRange(f"scalar arguments must be positive, got ({x}, {y})")
    return float(logarithmic_ratio(1.0 / x, 1.0 / y))


def scalar_identity_check(x: float, y: float,
                          rule: QuadratureRule | None = None) -> TrialReport:
    """Quadrature vs closed form for the scalar conjugated-power average."""
    lhs = scalar_power_average(x, y, rule)
    rhs = scalar_log_kernel(x, y)
    return identity_report("scalar_power_identity", lhs, rhs, atol=1e-8,
                           params={"x": x, "y": y})
