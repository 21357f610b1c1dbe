"""Per-trial verification records.

A TrialReport is the unit every check emits: two numbers, their gap,
the tolerance that judged them, and enough metadata to reproduce the
trial. Every report is built here, so all checks share one verdict
rule and every field holds a plain Python value. Each verdict has one
arithmetic, a numpy pass over a stack of trials, in which each trial's
IEEE operations are those it gets alone; a lone trial is a stack of
one. A list of seeds gives a list of reports, one per trial, and any
other seed gives one report.
"""
from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch


class TrialReport(NamedTuple):
    """One trial's verdict: its two sides, their gaps and the tolerances."""

    check_id: str
    kind: str  # "identity", "inequality" or "error"
    lhs: float
    rhs: float
    abs_gap: float
    rel_gap: float
    atol: float
    rtol: float
    passed: bool
    n: int | None = None
    seed: int | None = None
    params: dict = {}  # one shared empty dict; reports never change their params

    def to_row(self) -> dict:
        """The fields but params, then each param as p_<key>, keys sorted."""
        row = self._asdict()
        row.update({f"p_{k}": v for k, v in sorted(row.pop("params").items())})
        return row


_from_fields = partial(tuple.__new__, TrialReport)


def as_reports(rows) -> list[TrialReport]:
    """TrialReports from tuples of their field values, in field order."""
    return list(map(_from_fields, rows))


def _judge(check_id, kind, rule, lhs, rhs, scale, atol, rtol, n, seed, params):
    """The reports of one verdict: a list, one per trial, for a list or
    tuple of seeds, and else the one report of a lone trial. ``rule`` maps
    the sides and scale, flat float arrays, to (gap, rel, passed); scale
    and params are shared or one per trial."""
    many = isinstance(seed, (list, tuple))
    lhs = np.asarray(lhs, dtype=float).reshape(-1)
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    if lhs.shape != rhs.shape:
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
    count = len(lhs)
    if (len(seed) if many else 1) != count:
        raise DimensionMismatch(f"a stack of {count} chains needs a list of {count} "
                                f"seeds, got {seed!r}; pass one chain for one report")
    if not isinstance(params, (list, tuple)):
        params = repeat(params or {})
    elif len(params) != count:
        raise DimensionMismatch(f"a stack of {count} trials takes one params dict or "
                                f"{count} of them, got {len(params)}")
    if scale is not None:
        scale = np.asarray(scale, dtype=float).reshape(-1)
    with np.errstate(all="ignore"):  # as Python floats: NaN and inf, never a warning
        gap, rel, passed = rule(lhs, rhs, scale)
    reports = as_reports(zip(
        repeat(check_id), repeat(kind), lhs.tolist(), rhs.tolist(), gap.tolist(),
        rel.tolist(), repeat(atol), repeat(rtol), passed.tolist(), repeat(n),
        seed if many else (seed,), params))
    return reports if many else reports[0]


def identity_report(check_id, lhs, rhs, *, atol=0.0, rtol=0.0, scale=None,
                    n=None, seed=None, params=None):
    """Two-sided comparison: |lhs - rhs| <= atol + rtol * scale.

    The default scale is max(|lhs|, |rhs|), so rtol is a relative gap
    bound; pass an explicit scale to normalize differently. lhs is one
    trial's number or a stack of them; rhs, scale and params are shared
    or one per trial. A list of seeds gives a list of reports, one per
    trial; any other seed gives the one report of a lone trial.
    """
    def rule(lhs, rhs, scale):
        gap = np.abs(lhs - rhs)
        if scale is None:  # a NaN side makes the gap NaN, so its scale never shows
            scale = np.maximum(np.abs(lhs), np.abs(rhs))
        rel = np.divide(gap, scale, out=gap.copy(), where=scale > 0)
        return gap, rel, gap <= atol + rtol * scale
    return _judge(check_id, "identity", rule, lhs, rhs, scale, atol, rtol, n, seed, params)


def inequality_report(check_id, lhs, rhs, *, atol=1e-9, rtol=1e-8,
                      n=None, seed=None, params=None):
    """One-sided comparison: lhs <= rhs + atol + rtol * |rhs|. Takes one
    trial or a stack, and gives one report or a list, as identity_report."""
    def rule(lhs, rhs, scale):
        gap = lhs - rhs
        rel = np.divide(gap, np.abs(rhs), out=gap.copy(), where=rhs != 0)
        return gap, rel, rhs + atol + rtol * np.abs(rhs) - lhs >= 0.0
    return _judge(check_id, "inequality", rule, lhs, rhs, None, atol, rtol, n, seed, params)


def error_report(check_id, exc, *, n, seed) -> TrialReport:
    """A trial that raised: failed, zero numbers, the exception in params."""
    return TrialReport(check_id, "error", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False,
                       n=n, seed=seed, params={"error": f"{type(exc).__name__}: {exc}"})
