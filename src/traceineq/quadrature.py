"""Quadrature rules and the hyperbolic weight density.

The weight is beta(t) = (pi/2) / (1 + cosh(pi t)), evaluated in the
overflow-free form pi e^{-pi|t|} / (1 + e^{-pi|t|})^2. It is an even
probability density with tails bounded by pi e^{-pi|t|}, so truncating
the real line to [-T, T] loses at most 2 e^{-pi T} of the mass.

The library has two rules, and every integral in it uses one of them:
real_line_rule(), the trapezoid rule on a truncated real line for
beta-averages, and half_line_rule(), Gauss-Legendre in the variable s
with tau = s / (1 - s) for half-line resolvent integrals. Like the
tolerances, they are constants, not arguments: no function takes a
rule. Each is built once per process, on first use, with read-only
arrays.

beta has its poles at t = +-i, and every integrand it weights here is
entire, so their product is analytic in the strip |Im t| < 1 and the
equispaced trapezoid rule converges geometrically: for an integrand
bounded in the strip its error is of order exp(-2 pi / h) at step h
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56, 2014). Its step, h = 24 / 160 = 0.15, puts that
near 6e-19, under the 2 e^{-12 pi} (about 9e-17) of the truncation to
[-12, 12]. Gauss-Legendre would crowd its nodes at the ends, where beta
is about 1e-16.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidRange
from .linalg import logarithmic_ratio, real_trace
from .report import identity_report

BETA_HALF_WIDTH = 12.0
BETA_NODE_COUNT = 161
HALFLINE_NODE_COUNT = 200


def beta_density(t):
    """Even density (pi/2) / (1 + cosh(pi t)), stable for large |t|."""
    e = np.exp(-np.pi * np.abs(t))
    return np.pi * e / (1.0 + e) ** 2


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights, as read-only arrays."""

    nodes: np.ndarray
    weights: np.ndarray


@cache
def real_line_rule() -> QuadratureRule:
    """The trapezoid rule on [-BETA_HALF_WIDTH, BETA_HALF_WIDTH] at
    BETA_NODE_COUNT nodes, for beta-weighted averages.

    At its step h = 2 BETA_HALF_WIDTH / (BETA_NODE_COUNT - 1), on beta
    times an integrand of growth at most e^{w |Im t|} in the strip
    |Im t| < 1, its error is at most of
    order exp(w - 2 pi / h) (Trefethen & Weideman, SIAM Review 56, 2014);
    a chain's trace has w at most half the sum of log(lam_max / lam_min)
    over its sandwiched matrices.
    """
    return _trapezoid_rule(BETA_HALF_WIDTH, BETA_NODE_COUNT)


@cache
def half_line_rule() -> QuadratureRule:
    """Gauss-Legendre at HALFLINE_NODE_COUNT nodes on (0, infinity) via
    tau = s / (1 - s).

    The Jacobian 1/(1-s)^2 is folded into the weights, so integrands
    decaying like tau^{-2} become smooth bounded functions of s.
    """
    x, w = np.polynomial.legendre.leggauss(HALFLINE_NODE_COUNT)
    s = 0.5 * (x + 1.0)  # the half-line variable
    return _read_only(s / (1.0 - s), 0.5 * w / (1.0 - s) ** 2)


def _trapezoid_rule(half_width: float, node_count: int) -> QuadratureRule:
    """node_count equispaced nodes on [-half_width, half_width], the two
    end weights halved. Doubling node_count - 1 halves the step and keeps
    every node."""
    weights = np.full(node_count, 2.0 * half_width / (node_count - 1))
    weights[[0, -1]] *= 0.5
    return _read_only(np.linspace(-half_width, half_width, node_count), weights)


def _read_only(nodes, weights) -> QuadratureRule:
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes, weights)


_PHASE_BLOCK = 16  # nodes per angle-sum block of real_line_rule()


@cache
def _phase_grid():
    """real_line_rule()'s nodes, its first node of each block of
    _PHASE_BLOCK, and the offsets of a block's nodes from its first."""
    nodes = real_line_rule().nodes
    return nodes, nodes[::_PHASE_BLOCK], nodes[:_PHASE_BLOCK] - nodes[0]


def _cis(theta, scale):
    """scale * exp(i theta), from real cos and sin."""
    out = np.empty(theta.shape, dtype=complex)
    np.multiply(scale, np.cos(theta), out=out.real)
    np.multiply(scale, np.sin(theta), out=out.imag)
    return out


def _node_powers(lam, t):
    """lam^{(1+it)/2} = sqrt(lam) exp(i t log(lam) / 2) for eigenvalues
    lam > 0 at the nodes t (T,), from real cos and sin, as a function of
    an index into lam: powers(index) holds those of lam[index], shape
    lam[index].shape + (T,). On real_line_rule()'s own nodes, which are
    equispaced, node B b + r (B = _PHASE_BLOCK) is node B b plus r steps,
    and its phase is the product of those two phases. Their cos and sin
    are taken here for all of lam, ceil(T / B) + B per eigenvalue instead
    of T, and each call forms the products of one index only, so a caller
    holds the powers of one index at a time."""
    half_log = 0.5 * np.log(lam)[..., None]
    root = np.sqrt(lam)[..., None]
    nodes, starts, offsets = _phase_grid()
    if t is not nodes:
        table = _cis(half_log * t, root)
        return lambda index: table[index]
    blocks = t.size // _PHASE_BLOCK
    cut = blocks * _PHASE_BLOCK
    start = _cis(half_log * starts, root)
    step = _cis(half_log * offsets, 1.0)

    def powers(index):
        head, tail = start[index], step[index]
        out = np.empty(head.shape[:-1] + t.shape, dtype=complex)
        np.multiply(head[..., :blocks, None], tail[..., None, :],
                    out=out[..., :cut].reshape(head.shape[:-1] + (blocks, _PHASE_BLOCK)))
        np.multiply(head[..., blocks:], tail[..., :t.size - cut], out=out[..., cut:])
        return out
    return powers


def beta_normalization_gap() -> float:
    rule = real_line_rule()
    return abs(float(np.dot(rule.weights, beta_density(rule.nodes))) - 1.0)


def scalar_power_average(x, y):
    """The beta-average of x^{(1+it)/2} y^{(1-it)/2} for x, y > 0, numbers or
    arrays of one shape, a stack of pairs: one table of powers, and each
    pair's own dot product over the nodes, so it has its lone call's bits."""
    if np.min([x, y]) <= 0:
        raise InvalidRange(f"scalar arguments must be positive, got ({x}, {y})")
    rule = real_line_rule()
    vals = np.expand_dims(y, -1) * _node_powers(np.divide(x, y), rule.nodes)(...)  # (x/y)^z y
    weights = rule.weights * beta_density(rule.nodes)
    sums = [np.dot(weights, row) for row in vals.reshape(-1, rule.nodes.size)]
    return real_trace(np.reshape(sums, vals.shape[:-1]), context="scalar power average")


def scalar_log_kernel(x, y):
    """Closed form of the same average: x y log(y/x) / (y - x), with the
    diagonal limit x at y = x, for numbers or a stack as above. Equals the
    divided difference of log at the inverse arguments."""
    if np.min([x, y]) <= 0:
        raise InvalidRange(f"scalar arguments must be positive, got ({x}, {y})")
    return logarithmic_ratio(1.0 / np.asarray(x), 1.0 / np.asarray(y))


def scalar_identity_check(x, y, seed=None):
    """Quadrature vs closed form for the scalar conjugated-power average,
    on a pair or, given a list of seeds, on a stack of pairs."""
    pairs = zip(np.ravel(x).tolist(), np.ravel(y).tolist())
    return identity_report("scalar_power_identity", scalar_power_average(x, y),
                           scalar_log_kernel(x, y), atol=1e-8, seed=seed,
                           params=[{"x": a, "y": b} for a, b in pairs])
