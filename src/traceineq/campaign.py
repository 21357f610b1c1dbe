"""Verification campaigns: seeded batches of every check, with
deterministic reports.

A campaign is described by a CampaignConfig, run in chunks of seeds
(optionally across processes; every trial is pure), and reduced to a
CampaignSummary plus report files. Reports carry no wall-clock data, so
rerunning the same configuration reproduces the bytes exactly; runtime
lives only on the in-memory summary.

Every check is one row of the CHECKS table: its id, suite, chain
length, runner, description and formula. Adding a check means adding
one row.
A chunk of CHUNK seeds is the unit of work: it draws its chains once,
and the rows at one chain length share its prefix of them and the sides
evaluated on it. One function runs every task, one per chunk and one for
the deterministic rows, claimed by this process and its pool from one counter.
"""
from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
import types
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .combinatorics import MAX_N
from .entangle import build_layout, pairing_check
from .errors import ConfigError, DimensionCap, TraceIneqError, UnknownCheck
from .frechet import power_average_identity_check
from .inequalities import (
    check_key_identity,
    compare,
    lhs_exp_sum_log,
    rhs_lieb_three,
    rhs_power_integral,
    rhs_tensor_resolvent,
)
from .limits import (
    check_commutator_chain,
    check_derivative_form,
    check_penalized_trace_limit,
)
from .linalg import draw_posdef, random_commuting_family
from .quadrature import (
    BETA_HALF_WIDTH,
    BETA_NODE_COUNT,
    beta_normalization_gap,
    scalar_identity_check,
)
from .report import TrialReport, error_report, identity_report

SUITES = ("identities", "inequalities", "all")
FORMATS = ("jsonl", "csv")
SCALAR_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)
OUT_ENV = "TRACEINEQ_OUT"
CHUNK = 16  # trials per chunk


@dataclass(frozen=True)
class CampaignConfig:
    suite: str = "all"
    checks: tuple[str, ...] | None = None  # None = every check in suite
    n_values: tuple[int, ...] = (3, 4, 5, 6)
    local_dim: int = 2
    trials: int = 50
    seed: int = 2024
    lam_lo: float = 0.1
    lam_hi: float = 10.0
    parallel: int = 0  # 0 = one worker per available core
    out: str | None = None
    fmt: str = "jsonl"

    def validate(self) -> "CampaignConfig":
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}, expected one of {SUITES}")
        if self.fmt not in FORMATS:
            raise ConfigError(f"unknown format {self.fmt!r}, expected one of {FORMATS}")
        if not self.n_values or any(not 3 <= n <= MAX_N for n in self.n_values):
            raise ConfigError(f"chain lengths must be in [3, {MAX_N}]: {self.n_values}")
        if self.local_dim < 2:
            raise ConfigError(f"local dimension must be >= 2, got {self.local_dim}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (0 < self.lam_lo <= self.lam_hi < math.inf):
            raise ConfigError(f"eigenvalue range must satisfy 0 < lam_lo <= lam_hi "
                              f"< inf, got ({self.lam_lo}, {self.lam_hi})")
        if self.parallel < 0:
            raise ConfigError(f"parallel must be >= 0, got {self.parallel}")
        for cid in self.checks or ():
            if cid not in CHECKS:
                raise UnknownCheck(f"no check named {cid!r}; known: "
                                   f"{', '.join(sorted(CHECKS))}")
        for name, values in (("check", self.checks or ()), ("chain length", self.n_values)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{name} {repeated[0]!r} is selected more than once")
        for spec in selected_checks(self):
            if not spec.layout_aware:
                continue
            for n in _lengths(spec, self):
                try:
                    build_layout(n, self.local_dim, dense=spec.dense)
                except DimensionCap as exc:
                    raise ConfigError(f"{spec.check_id} at n = {n}: {exc}") from exc
        return self

    def echo(self) -> dict:
        """Configuration record embedded in report files.

        Delivery knobs (out, parallel) are excluded: they do not touch
        any computed number, and leaving them out keeps report bytes
        identical across worker counts and target paths.
        """
        d = asdict(self)
        d.pop("out")
        d.pop("parallel")
        d["checks"] = list(self.checks) if self.checks else None
        d["n_values"] = list(self.n_values)
        d["version"] = __version__
        return d


_CONTEXT: tuple = (None, None, None)  # the running campaign's config, _rows(cfg), counter


# ------------------------------------------------------------------ checks
# A runner maps (cfg, chains, seeds, sides) to a list of TrialReports, where
# seeds is one chunk of trial seeds and chains their stack of chains, cut to
# the row's length, or None for rows without a chain; sides holds the sides
# already evaluated on these chains, as inequalities.compare takes them.
# Deterministic checks ignore the seed and run exactly once per campaign.
# Checks that build their own inputs have a named runner of one seed,
# wrapped in _each. The two-sided checks have no runner: they are the rows
# of inequalities.COMPARISONS, evaluated by compare. Library functions are
# looked up as module globals at call time, never captured when the table
# is built.

def _each(runner):
    """A chunk runner from a runner of one seed."""
    return lambda cfg, chains, seeds, sides: [r for seed in seeds
                                              for r in runner(cfg, seed)]


def _run_beta_normalization(cfg, seed):
    return [identity_report("beta_normalization", 1.0 + beta_normalization_gap(), 1.0,
                            atol=1e-10, seed=seed,
                            params={"nodes": BETA_NODE_COUNT,
                                    "half_width": BETA_HALF_WIDTH})]


def _run_pairing(cfg, seed):
    rng = np.random.default_rng(seed)
    out = []
    for copies in (1, 2):
        dim = cfg.local_dim ** copies
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        out.append(pairing_check(x, y, copies=copies, seed=seed))
    return out


def _run_penalized_limit(cfg, seed):
    rng = np.random.default_rng(seed)
    dim = 3
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = 0.5 * (g + g.conj().T)
    a = a / max(1.0, float(np.linalg.norm(a, 2)))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return [check_penalized_trace_limit(a, v, seed=seed)]


def _commuting_equality(fam, seeds):
    """Simultaneously diagonalizable chains collapse every bound to the
    left side; report the worst relative gap across the closed forms."""
    n = fam.matrix.shape[1]
    lhs = lhs_exp_sum_log(fam)
    values = [rhs_power_integral(fam), rhs_tensor_resolvent(fam)]
    if n == 3:
        values.append(rhs_lieb_three(fam))
    values = np.array(values)
    worst = values[np.abs(values - lhs).argmax(axis=0), np.arange(len(seeds))]
    return [identity_report("commuting_equality", lo, hi, rtol=1e-8, n=n, seed=seed,
                            params={"forms": len(values)})
            for lo, hi, seed in zip(lhs, worst, seeds)]


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    suite: str
    length: int | str | None  # fixed chain length, "n" = the n grid, None = no chain
    runner: object  # None for a row of inequalities.COMPARISONS
    description: str
    formula: str
    deterministic: bool = False
    commuting: bool = False  # runs on commuting families
    layout_aware: bool = False  # builds the tensor layout
    dense: bool = False  # and its dense D x D operands


CHECKS: dict[str, CheckSpec] = {spec.check_id: spec for spec in (
    CheckSpec("beta_normalization", "identities", None, _each(_run_beta_normalization),
        deterministic=True,
        description="The hyperbolic weight integrates to one on the truncated line.",
        formula="integral beta(t) dt = 1,  beta(t) = (pi/2) / (1 + cosh(pi t))"),
    CheckSpec("scalar_power_identity", "identities", None,
        lambda cfg, chains, seeds, sides: [scalar_identity_check(x, y)
                                           for x in SCALAR_GRID for y in SCALAR_GRID],
        deterministic=True,
        description="Scalar conjugated-power average equals the inverse log kernel "
                    "on a fixed grid.",
        formula="avg_t x^{(1+it)/2} y^{(1-it)/2} = x y log(y/x) / (y - x)"),
    CheckSpec("power_average_identity", "identities", 2,
        lambda cfg, c, seeds, sides: power_average_identity_check(
            c[:, 0].matrix, c[:, 1], seed=seeds),
        description="Matrix beta-average of conjugated powers equals the "
                    "log-derivative operator at the inverse base.",
        formula="avg_t A2^{(1+it)/2} A1 A2^{(1-it)/2} = T_{A2^{-1}}(A1)"),
    CheckSpec("pairing_identity", "identities", None, _each(_run_pairing),
        description="Entangled expectation of X (x) Y^T reproduces Tr[X Y].",
        formula="<Omega| X (x) Y^T |Omega> = Tr[X Y]"),
    CheckSpec("key_identity", "identities", "n",
        lambda cfg, c, seeds, sides: check_key_identity(c, seed=seeds),
        layout_aware=True,
        description="Pointwise in t: the sandwiched chain trace equals the "
                    "entangled pairing of the slotted tensor powers.",
        formula="Tr[A_n A_{n-1}^{s+} .. A_1 .. A_{n-1}^{s-}] = "
                "<Omega| W^{s+} B W^{s-} |Omega>"),
    CheckSpec("equivalence_integral_tensor", "identities", "n", None,
        layout_aware=True,
        description="The integrated power form equals the tensor log-derivative "
                    "form on the same chain.",
        formula="avg_t Tr[chain(t)] = <Omega| T_A(B) |Omega>"),
    CheckSpec("lieb_equivalence", "identities", 3, None,
        description="For triples the integral form collapses to the three-matrix "
                    "log-derivative bound.",
        formula="avg_t Tr[A3 A2^{s+} A1 A2^{s-}] = Tr[A3 T_{A2^{-1}}(A1)]"),
    CheckSpec("commutator_chain", "identities", 2,
        lambda cfg, c, seeds, sides: check_commutator_chain(c[:, 0], c[:, 1], seed=seeds),
        description="Four operator expressions for the deviation of the "
                    "conjugated-power average from the plain product.",
        formula="A1 A2 - avg_t A2^{s+} A1 A2^{s-} = int [A1, R] R dtau = "
                "int R X [A1, A2] X R^2 dtau"),
    CheckSpec("commutator_chain_commuting", "identities", 2,
        lambda cfg, c, seeds, sides: check_commutator_chain(
            c[:, 0], c[:, 1], atol=1e-12, seed=seeds,
            check_id="commutator_chain_commuting"), commuting=True,
        description="The same chain vanishes identically on commuting pairs.",
        formula="[A1, A2] = 0  =>  all four expressions = 0"),
    CheckSpec("derivative_form", "identities", 4,
        lambda cfg, c, seeds, sides: check_derivative_form(c, seed=seeds, sides=sides),
        layout_aware=True, dense=True,
        description="The tensor bound is the directional derivative of a "
                    "trace functional along B.",
        formula="d/dr Tr[P exp(log(A + r B) - log A)] |_{r=0} = "
                "<Omega| T_A(B) |Omega>"),
    CheckSpec("penalized_trace_limit", "identities", None, _each(_run_penalized_limit),
        description="Rank-one penalties collapse the trace exponential to the "
                    "Rayleigh quotient of the kernel direction.",
        formula="Tr exp(A - t P) -> exp <v, A v>  as t -> inf, ker P = span{v}"),
    CheckSpec("commuting_equality", "identities", "n",
        lambda cfg, c, seeds, sides: _commuting_equality(c, seeds),
        commuting=True, layout_aware=True,
        description="Commuting chains make every right side equal the left side.",
        formula="[A_j, A_k] = 0  =>  lhs = integral form = tensor form"),

    CheckSpec("golden_thompson", "inequalities", 2, None,
        description="Two-matrix exponential product bound.",
        formula="Tr exp(log A1 + log A2) <= Tr[A1 A2]"),
    CheckSpec("lieb_three", "inequalities", 3, None,
        description="Three-matrix bound through the log-derivative operator.",
        formula="Tr exp(log A1 + log A2 + log A3) <= Tr[A3 T_{A2^{-1}}(A1)]"),
    CheckSpec("power_integral", "inequalities", "n", None,
        description="n-matrix bound by the beta-averaged complex-power chain.",
        formula="Tr exp(sum log A_k) <= avg_t Tr[A_n .. A_2^{s+} A1 A_2^{s-} ..]"),
    CheckSpec("tensor_resolvent", "inequalities", "n", None,
        layout_aware=True,
        description="The same bound in closed tensor form.",
        formula="Tr exp(sum log A_k) <= <Omega| T_A(B) |Omega>"),
    CheckSpec("scaled_exponential", "inequalities", 4, None,
        layout_aware=True,
        description="Dimension-scaled refinement for quadruples.",
        formula="d exp((1/d) Tr sum log A_k) <= <Omega| T_A(B) |Omega>"),
    CheckSpec("jensen_trace", "inequalities", "n", None,
        description="Convexity baseline relating the two left-side scalings.",
        formula="d exp((1/d) Tr M) <= Tr exp M,  M = sum log A_k"),
)}


def selected_checks(cfg: CampaignConfig) -> list[CheckSpec]:
    if cfg.checks:
        specs = [CHECKS[cid] for cid in cfg.checks]
    else:
        specs = list(CHECKS.values())
    if cfg.suite != "all":
        specs = [s for s in specs if s.suite == cfg.suite]
    if not specs:
        raise ConfigError(f"no checks selected for suite {cfg.suite!r}")
    return specs


# ------------------------------------------------------------------ running

def _lengths(spec: CheckSpec, cfg: CampaignConfig) -> tuple:
    """The chain lengths a check runs at; (None,) when it has no chain."""
    return cfg.n_values if spec.length == "n" else (spec.length,)


def _rows(cfg: CampaignConfig) -> dict:
    """The selected (spec, n) rows, the deterministic ones under True."""
    rows = {True: [], False: []}
    for spec in selected_checks(cfg):
        rows[spec.deterministic] += [(spec, n) for n in _lengths(spec, cfg)]
    return rows


def _evaluate(cfg, spec: CheckSpec, n, chains, seeds, sides=None) -> list[TrialReport]:
    """One row's trials on one chunk; ``sides`` holds the comparison sides
    already evaluated on these chains. A row that raises runs again a trial
    at a time on that trial's chains, with no stored sides, so errors land
    on their seeds."""
    try:
        if spec.runner is None:
            return compare(spec.check_id, chains, seed=seeds, sides=sides)
        return spec.runner(cfg, chains, seeds, sides)
    except (TraceIneqError, np.linalg.LinAlgError) as exc:
        if len(seeds) == 1:  # an unevaluable trial is a failed trial, not a dead campaign
            return [error_report(spec.check_id, exc, n=n, seed=seeds[0])]
        return [r for i in range(len(seeds)) for r in _evaluate(
            cfg, spec, n, None if chains is None else chains[i:i + 1], seeds[i:i + 1])]


def _run_task(task, index) -> list[tuple]:
    """The trials of one task (deterministic, seeds): the deterministic
    rows once, or every seeded (spec, n) row on one chunk of seeds, drawn
    once at the longest n. Each (commuting, n) prefix chains[:, :n], equal
    to a draw of n, is cut once: the rows at that length share it, its
    decomposition and the sides evaluated on it. The full stack is never
    decomposed, so a matrix past n cannot turn that trial's shorter rows
    into errors. Per row: its key (check_id, n or -1, index), reports, trial
    lines if cfg writes any, failures, and worst |gaps|, NaN as the worst."""
    cfg, rows, _ = _CONTEXT
    deterministic, seeds = task
    rows, lam_range = rows[deterministic], (cfg.lam_lo, cfg.lam_hi)
    longest = max((n for _, n in rows if n is not None), default=None)
    stacks = {}
    for commuting in {spec.commuting for spec, n in rows if n is not None}:
        rngs = [np.random.default_rng(seed) for seed in seeds]
        stacks[commuting] = (
            random_commuting_family(cfg.local_dim, longest, rngs, lam_range) if commuting
            else draw_posdef(rngs, cfg.local_dim, lam_range, count=longest))
    prefixes = {(c, n): (stacks[c][:, :n], {})
                for c, n in {(spec.commuting, n) for spec, n in rows if n is not None}}
    groups = []
    for spec, n in rows:
        chains, sides = prefixes.get((spec.commuting, n), (None, None))
        reports = _evaluate(cfg, spec, n, chains, seeds, sides)
        cells = [r.to_row() for r in reports] if cfg.out else []
        lines = ([json.dumps({"record": "trial", **row}, sort_keys=True) + "\n"
                  for row in cells] if cfg.fmt == "jsonl" else
                 [{k: _csv_cell(v) for k, v in row.items()} for row in cells])
        groups.append(((spec.check_id, -1 if n is None else n, index), reports, lines,
                       sum(not r.passed for r in reports),
                       np.abs([(r.abs_gap, r.rel_gap) for r in reports]).max(axis=0)))
    return groups


def _enter(cfg, claims) -> None:
    """The pool's initializer: a worker run_campaign did not fork builds its rows."""
    global _CONTEXT
    _CONTEXT = (cfg, _CONTEXT[1] or _rows(cfg), claims)


def _run_claimed(tasks) -> list[tuple]:
    """Run tasks, each claimed as the next index of the campaign's counter,
    until none are left; the groups of the tasks run here."""
    claims, groups = _CONTEXT[2], []
    while True:
        with claims.get_lock():
            i, claims.value = claims.value, claims.value + 1
        if i >= len(tasks):
            return groups
        groups += _run_task(tasks[i], i)


@dataclass(frozen=True)
class CampaignSummary:
    passed: bool
    trial_count: int
    failure_count: int
    per_check: list[dict]
    config: dict
    runtime_s: float
    reports: list[TrialReport] = field(repr=False, default_factory=list)
    lines: list = field(repr=False, default_factory=list)  # see _run_task

    def to_text(self) -> str:
        lines = [f"{'check':32s} {'trials':>7s} {'fail':>5s} "
                 f"{'worst_abs_gap':>14s} {'worst_rel_gap':>14s}"]
        for row in self.per_check:
            lines.append(f"{row['check_id']:32s} {row['trials']:7d} "
                         f"{row['failures']:5d} {row['worst_abs_gap']:14.3e} "
                         f"{row['worst_rel_gap']:14.3e}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {verdict} ({self.trial_count} trials, "
                     f"{self.failure_count} failures, {self.runtime_s:.1f} s)")
        return "\n".join(lines)


def _summarize(cfg, groups, runtime_s) -> CampaignSummary:
    """Join the groups in (check, n, task) order, which is (check, n, seed)
    order, and merge their partials; np.maximum keeps NaN as the worst gap."""
    reports, lines, per = [], [], {}
    for (check_id, _, _), group_reports, group_lines, fails, worst in sorted(groups):
        reports += group_reports
        lines += group_lines
        trials, failures, so_far = per.get(check_id, (0, 0, worst))
        per[check_id] = (trials + len(group_reports), failures + fails,
                         np.maximum(so_far, worst))
    per_rows = [{"check_id": check_id, "trials": trials, "failures": failures,
                 "worst_abs_gap": float(worst[0]), "worst_rel_gap": float(worst[1])}
                for check_id, (trials, failures, worst) in per.items()]
    failures = sum(row["failures"] for row in per_rows)
    return CampaignSummary(passed=failures == 0, trial_count=len(reports),
                           failure_count=failures, per_check=per_rows, config=cfg.echo(),
                           runtime_s=runtime_s, reports=reports, lines=lines)


def run_campaign(cfg: CampaignConfig) -> CampaignSummary:
    global _CONTEXT
    cfg = cfg.validate()
    start = time.perf_counter()
    rows = _rows(cfg)  # from CHECKS as it is now; forked workers inherit them
    seeds = [cfg.seed + i for i in range(cfg.trials)]
    tasks = [(True, [cfg.seed])] + [(False, seeds[i:i + CHUNK])
                                    for i in range(0, len(seeds), CHUNK)]
    tasks = [task for task in tasks if rows[task[0]]]  # none without rows
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    workers = min(cfg.parallel or cores or 1, len(tasks))
    # this process claims tasks too, from the start, while the pool forks
    _CONTEXT = (cfg, rows, multiprocessing.Value("i", 0) if workers > 1
                else types.SimpleNamespace(value=0, get_lock=nullcontext))
    pool = (ProcessPoolExecutor(max_workers=workers - 1, initializer=_enter,
                                initargs=(cfg, _CONTEXT[2])) if workers > 1 else nullcontext())
    with pool:
        futures = [pool.submit(_run_claimed, tasks) for _ in range(workers - 1)]
        groups = _run_claimed(tasks) + [g for f in futures for g in f.result()]
    summary = _summarize(cfg, groups, time.perf_counter() - start)
    if cfg.out:
        write_reports(cfg, summary)
    return summary


# ------------------------------------------------------------------ writers

def _csv_cell(value) -> str:
    """One csv cell as csv.writer writes it, but floats as repr."""
    text = repr(value) if isinstance(value, float) else "" if value is None else str(value)
    quote = "," in text or '"' in text or "\n" in text or "\r" in text
    return '"' + text.replace('"', '""') + '"' if quote else text


def _write_csv(path, echo, fieldnames, rows):
    """Config echo line, header, then one line per row of cells."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config {echo}\n" + ",".join(map(_csv_cell, fieldnames)) + "\r\n")
        fh.writelines(",".join([row.get(k, "") for k in fieldnames]) + "\r\n"
                      for row in rows)


def write_reports(cfg: CampaignConfig, summary: CampaignSummary) -> list[str]:
    """Write the per-trial file (jsonl or csv) and the csv summary.

    Returns the paths written; the trial lines are those run_campaign(cfg)
    formatted. Bodies are deterministic functions of the configuration:
    trials are sorted, floats use repr, and no timestamps or durations appear.
    """
    if len(summary.lines) != summary.trial_count:  # the campaign ran without out
        raise ValueError("the summary holds no trial lines; run the campaign with out set")
    base = cfg.out
    os.makedirs(os.path.dirname(base) or ".", exist_ok=True)
    echo = json.dumps(summary.config, sort_keys=True)
    path = f"{base}.trials.{cfg.fmt}"
    if cfg.fmt == "jsonl":
        with open(path, "w") as fh:
            fh.writelines([json.dumps({"record": "config", "config": summary.config},
                                      sort_keys=True) + "\n", *summary.lines])
    else:
        _write_csv(path, echo, sorted(set().union(*summary.lines)), summary.lines)
    spath = base + ".summary.csv"
    _write_csv(spath, echo, ["check_id", "trials", "failures", "worst_abs_gap",
                             "worst_rel_gap"],
               [{k: _csv_cell(v) for k, v in row.items()} for row in summary.per_check])
    return [path, spath]


# -------------------------------------------------------------- config file

def _parser(hint):
    """Text-to-value parser for one CampaignConfig field type."""
    if isinstance(hint, types.UnionType):  # "X | None" reads as X
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:  # comma- or space-separated items
        item = get_args(hint)[0]
        return lambda text: tuple(item(p) for p in text.replace(",", " ").split())
    return hint


def load_config_file(path: str) -> dict:
    """Plain key = value lines; '#' starts a comment. The keys are the
    CampaignConfig field names. Returns a dict of field overrides."""
    parsers = {name: _parser(hint)
               for name, hint in get_type_hints(CampaignConfig).items()}
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for idx, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{idx}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in parsers:
            raise ConfigError(f"{path}:{idx}: unknown key {key!r}")
        try:
            out[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{idx}: bad {key} value: {exc}") from exc
    return out


def config_from(file_overrides: dict, flag_overrides: dict) -> CampaignConfig:
    """Defaults, then config file, then command-line flags."""
    merged = {**file_overrides,
              **{k: v for k, v in flag_overrides.items() if v is not None}}
    if "out" not in merged or merged["out"] is None:
        env_dir = os.environ.get(OUT_ENV)
        if env_dir:
            merged["out"] = os.path.join(env_dir, "report")
    try:
        return CampaignConfig(**merged).validate()
    except TypeError as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc
