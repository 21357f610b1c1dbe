"""Per-trial verification records.

A TrialReport is the unit every check emits: two numbers, their gap,
the tolerance that judged them, and enough metadata to reproduce the
trial. Every report is built here, so all checks share one verdict
rule and every field holds a plain Python value.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionMismatch


@dataclass(frozen=True)
class TrialReport:
    check_id: str
    kind: str  # "identity" or "inequality"
    lhs: float
    rhs: float
    abs_gap: float
    rel_gap: float
    atol: float
    rtol: float
    passed: bool
    n: int | None = None
    seed: int | None = None
    params: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        """The fields but params, then each param as p_<key>, keys sorted."""
        row = dict(vars(self))
        row.update({f"p_{k}": v for k, v in sorted(row.pop("params").items())})
        return row


def identity_report(check_id, lhs, rhs, *, atol=0.0, rtol=0.0, scale=None,
                    n=None, seed=None, params=None) -> TrialReport:
    """Two-sided comparison: |lhs - rhs| <= atol + rtol * scale.

    The default scale is max(|lhs|, |rhs|), so rtol is a relative gap
    bound; pass an explicit scale to normalize differently.
    """
    lhs, rhs = float(lhs), float(rhs)
    gap = abs(lhs - rhs)
    if scale is None:
        scale = max(abs(lhs), abs(rhs))
    rel = gap / scale if scale > 0 else gap
    passed = gap <= atol + rtol * scale
    return TrialReport(check_id, "identity", lhs, rhs, gap, rel,
                       atol, rtol, passed, n=n, seed=seed, params=params or {})


def inequality_report(check_id, lhs, rhs, *, atol=1e-9, rtol=1e-8,
                      n=None, seed=None, params=None) -> TrialReport:
    """One-sided comparison: lhs <= rhs + atol + rtol * |rhs|."""
    lhs, rhs = float(lhs), float(rhs)
    slack = rhs + atol + rtol * abs(rhs) - lhs
    gap = lhs - rhs
    rel = gap / abs(rhs) if rhs != 0 else gap
    return TrialReport(check_id, "inequality", lhs, rhs, gap, rel,
                       atol, rtol, slack >= 0.0, n=n, seed=seed, params=params or {})


def stack_reports(single: bool, seed, count: int, report):
    """report(i, seed) for one chain (single), or the list of them for
    the ``count`` chains of a stack, where ``seed`` lists their seeds."""
    if single:
        return report(0, seed)
    if not isinstance(seed, (list, tuple)) or len(seed) != count:
        raise DimensionMismatch(f"a stack of {count} chains needs a list of {count} "
                                f"seeds, got {seed!r}; pass one chain for one report")
    return [report(i, s) for i, s in enumerate(seed)]


def error_report(check_id, exc, *, n, seed) -> TrialReport:
    """A trial that raised: failed, zero numbers, the exception in params."""
    return TrialReport(check_id, "error", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False,
                       n=n, seed=seed, params={"error": f"{type(exc).__name__}: {exc}"})
