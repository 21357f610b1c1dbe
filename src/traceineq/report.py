"""Per-trial verification records.

A TrialReport is the unit every check emits: two numbers, their gap,
the tolerance that judged them, and enough metadata to reproduce the
trial. Every report is built here, so all checks share one verdict
rule and every field holds a plain Python value. The verdicts take one
trial's numbers, or a stack of them with a list of seeds: a stack is
judged in one numpy pass, with the IEEE operations of one trial alone
in the same order, and gives one report per trial.
"""
from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch


class TrialReport(NamedTuple):
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


def _stack(lhs, rhs, scale, seed, params):
    """A stack's sides and scale as flat float arrays, after checking that
    seed lists one seed per trial and params is shared or one per trial."""
    lhs, rhs = np.broadcast_arrays(np.ravel(np.asarray(lhs, dtype=float)),
                                   np.ravel(np.asarray(rhs, dtype=float)))
    count = len(lhs)
    if not isinstance(seed, (list, tuple)) or len(seed) != count:
        raise DimensionMismatch(f"a stack of {count} chains needs a list of {count} "
                                f"seeds, got {seed!r}; pass one chain for one report")
    if isinstance(params, (list, tuple)) and len(params) != count:
        raise DimensionMismatch(f"a stack of {count} trials takes one params dict or "
                                f"{count} of them, got {len(params)}")
    return lhs, rhs, None if scale is None else np.ravel(np.asarray(scale, dtype=float))


def _reports(check_id, kind, lhs, rhs, gap, rel, atol, rtol, passed, n, seed, params):
    """One report per trial of a judged stack."""
    params = params if isinstance(params, (list, tuple)) else repeat(params or {})
    return as_reports(zip(
        repeat(check_id), repeat(kind), lhs.tolist(), rhs.tolist(), gap.tolist(),
        rel.tolist(), repeat(atol), repeat(rtol), passed.tolist(), repeat(n), seed, params))


def identity_report(check_id, lhs, rhs, *, atol=0.0, rtol=0.0, scale=None,
                    n=None, seed=None, params=None):
    """Two-sided comparison: |lhs - rhs| <= atol + rtol * scale.

    The default scale is max(|lhs|, |rhs|), so rtol is a relative gap
    bound; pass an explicit scale to normalize differently. A stack of
    lhs values, given a list of seeds, gives a list of reports; rhs,
    scale and params are then shared or one per trial.
    """
    if np.ndim(lhs) == 0:
        lhs, rhs = float(lhs), float(rhs)
        gap = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs)) if scale is None else float(scale)
        rel = gap / scale if scale > 0 else gap
        return TrialReport(check_id, "identity", lhs, rhs, gap, rel, atol, rtol,
                           gap <= atol + rtol * scale, n, seed, params or {})
    lhs, rhs, scale = _stack(lhs, rhs, scale, seed, params)
    with np.errstate(all="ignore"):  # as Python floats: NaN and inf, never a warning
        gap = np.abs(lhs - rhs)
        if scale is None:  # as max() picks: |rhs| only when it is the larger
            scale = np.where(np.abs(rhs) > np.abs(lhs), np.abs(rhs), np.abs(lhs))
        rel = np.divide(gap, scale, out=gap.copy(), where=scale > 0)
        passed = gap <= atol + rtol * scale
    return _reports(check_id, "identity", lhs, rhs, gap, rel, atol, rtol, passed,
                    n, seed, params)


def inequality_report(check_id, lhs, rhs, *, atol=1e-9, rtol=1e-8,
                      n=None, seed=None, params=None):
    """One-sided comparison: lhs <= rhs + atol + rtol * |rhs|; stacks as
    identity_report takes them."""
    if np.ndim(lhs) == 0:
        lhs, rhs = float(lhs), float(rhs)
        slack = rhs + atol + rtol * abs(rhs) - lhs
        gap = lhs - rhs
        rel = gap / abs(rhs) if rhs != 0 else gap
        return TrialReport(check_id, "inequality", lhs, rhs, gap, rel, atol, rtol,
                           slack >= 0.0, n, seed, params or {})
    lhs, rhs, _ = _stack(lhs, rhs, None, seed, params)
    with np.errstate(all="ignore"):
        slack = rhs + atol + rtol * np.abs(rhs) - lhs
        gap = lhs - rhs
        rel = np.divide(gap, np.abs(rhs), out=gap.copy(), where=rhs != 0)
        passed = slack >= 0.0
    return _reports(check_id, "inequality", lhs, rhs, gap, rel, atol, rtol, passed,
                    n, seed, params)


def error_report(check_id, exc, *, n, seed) -> TrialReport:
    """A trial that raised: failed, zero numbers, the exception in params."""
    return TrialReport(check_id, "error", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False,
                       n=n, seed=seed, params={"error": f"{type(exc).__name__}: {exc}"})
