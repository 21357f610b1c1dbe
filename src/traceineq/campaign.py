"""Verification campaigns: seeded batches of every check, with
deterministic reports.

A campaign is described by a CampaignConfig, expanded into per-trial
tasks, run (optionally across processes; every trial is pure), and
reduced to a CampaignSummary plus report files. Reports carry no
wall-clock data, so rerunning the same configuration reproduces the
bytes exactly; runtime lives only on the in-memory summary.

Every check is one row of the CHECKS table: its id, suite, chain
length, runner, description and formula. Adding a check means adding
one row.
"""
from __future__ import annotations

import csv
import io
import json
import os
import time
import types
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .entangle import build_layout, pairing_check
from .errors import ConfigError, DimensionCap, TraceIneqError, UnknownCheck
from .frechet import power_average_identity_check
from .inequalities import (
    check_equivalence,
    check_golden_thompson,
    check_jensen_trace,
    check_key_identity,
    check_lieb_equivalence,
    check_lieb_three,
    check_power_integral,
    check_scaled_exponential,
    check_tensor_resolvent,
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
from .linalg import draw_posdef, hermitize, random_commuting_family
from .quadrature import (
    beta_normalization_gap,
    half_line_rule,
    real_line_rule,
    scalar_identity_check,
)
from .report import TrialReport, identity_report

SUITES = ("identities", "inequalities", "all")
FORMATS = ("jsonl", "csv")
SCALAR_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)
OUT_ENV = "TRACEINEQ_OUT"


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
    half_width: float = 12.0
    beta_nodes: int = 400
    half_nodes: int = 200
    parallel: int = 0  # 0 = one worker per available core
    out: str | None = None
    fmt: str = "jsonl"

    def validate(self) -> "CampaignConfig":
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}, expected one of {SUITES}")
        if self.fmt not in FORMATS:
            raise ConfigError(f"unknown format {self.fmt!r}, expected one of {FORMATS}")
        if not self.n_values or any(not 3 <= n <= 6 for n in self.n_values):
            raise ConfigError(f"chain lengths must lie in [3, 6], got {self.n_values}")
        if self.local_dim < 2:
            raise ConfigError(f"local dimension must be >= 2, got {self.local_dim}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not (0 < self.lam_lo <= self.lam_hi):
            raise ConfigError(f"eigenvalue range must satisfy 0 < lo <= hi, "
                              f"got ({self.lam_lo}, {self.lam_hi})")
        if not (self.half_width > 0 and min(self.beta_nodes, self.half_nodes) >= 2):
            raise ConfigError(f"need half_width > 0 and beta_nodes, half_nodes >= 2, got "
                              f"({self.half_width}, {self.beta_nodes}, {self.half_nodes})")
        if self.parallel < 0:
            raise ConfigError(f"parallel must be >= 0, got {self.parallel}")
        if self.checks:
            for cid in self.checks:
                if cid not in CHECKS:
                    raise UnknownCheck(f"no check named {cid!r}; known: "
                                       f"{', '.join(sorted(CHECKS))}")
        for spec in selected_checks(self):
            if not spec.layout_aware:
                continue
            for n in _lengths(spec, self):
                try:
                    build_layout(n, self.local_dim)
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


class _Ctx:
    """Per-process evaluation context: rules and ranges, built once."""

    def __init__(self, cfg: CampaignConfig):
        self.cfg = cfg
        self.d = cfg.local_dim
        self.lam_range = (cfg.lam_lo, cfg.lam_hi)
        self.beta_rule = real_line_rule(cfg.half_width, cfg.beta_nodes)
        self.half_rule = half_line_rule(cfg.half_nodes)

    def draw_chain(self, n, seed):
        rng = np.random.default_rng(seed)
        return [draw_posdef(rng, self.d, self.lam_range) for _ in range(n)]


# ------------------------------------------------------------------ checks
# A runner maps (ctx, n, seed) to a list of TrialReports, where n is the
# task's chain length (None for checks without one). Deterministic checks
# ignore the seed and run exactly once per campaign. Most rows wrap their
# library call in _drawn; only checks that build their own inputs have a
# named runner here. Library functions are looked up as module globals
# at call time, never captured when the table is built.

def _drawn(call):
    """Runner that draws the task's chain of n matrices and passes it to
    call(ctx, chain, seed)."""
    return lambda ctx, n, seed: [call(ctx, ctx.draw_chain(n, seed), seed)]


def _run_beta_normalization(ctx, n, seed):
    gap = beta_normalization_gap(ctx.beta_rule)
    return [identity_report("beta_normalization", 1.0 + gap, 1.0, atol=1e-10,
                            seed=seed,
                            params={"nodes": ctx.beta_rule.node_count,
                                    "half_width": ctx.beta_rule.half_width})]


def _run_pairing(ctx, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for copies in (1, 2):
        dim = ctx.d ** copies
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        out.append(pairing_check(x, y, copies=copies, seed=seed))
    return out


def _run_commutator_commuting(ctx, n, seed):
    a1, a2 = random_commuting_family(ctx.d, 2, seed, ctx.lam_range)
    return [check_commutator_chain(a1, a2, ctx.beta_rule, ctx.half_rule,
                                   atol=1e-12, seed=seed,
                                   check_id="commutator_chain_commuting")]


def _run_penalized_limit(ctx, n, seed):
    rng = np.random.default_rng(seed)
    dim = 3
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = hermitize(0.5 * (g + g.conj().T), tol=1.0)
    a = a / max(1.0, float(np.linalg.norm(a, 2)))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return [check_penalized_trace_limit(a, v, seed=seed)]


def _run_commuting_equality(ctx, n, seed):
    """Simultaneously diagonalizable chains collapse every bound to the
    left side; report the worst relative gap across the closed forms."""
    fam = random_commuting_family(ctx.d, n, seed, ctx.lam_range)
    lhs = lhs_exp_sum_log(fam)
    values = [rhs_power_integral(fam, ctx.beta_rule), rhs_tensor_resolvent(fam)]
    if n == 3:
        values.append(rhs_lieb_three(*fam))
    worst = max(values, key=lambda v: abs(v - lhs))
    return [identity_report("commuting_equality", lhs, worst, rtol=1e-8,
                            n=n, seed=seed, params={"forms": len(values)})]


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    suite: str
    length: int | str | None  # fixed chain length, "n" = the n grid, None = no chain
    runner: object
    description: str
    formula: str
    deterministic: bool = False
    layout_aware: bool = False  # builds the tensor layout


CHECKS: dict[str, CheckSpec] = {spec.check_id: spec for spec in (
    CheckSpec("beta_normalization", "identities", None, _run_beta_normalization,
        deterministic=True,
        description="The hyperbolic weight integrates to one on the truncated line.",
        formula="integral beta(t) dt = 1,  beta(t) = (pi/2) / (1 + cosh(pi t))"),
    CheckSpec("scalar_power_identity", "identities", None,
        lambda ctx, n, seed: [scalar_identity_check(x, y, ctx.beta_rule)
                              for x in SCALAR_GRID for y in SCALAR_GRID],
        deterministic=True,
        description="Scalar conjugated-power average equals the inverse log kernel "
                    "on a fixed grid.",
        formula="avg_t x^{(1+it)/2} y^{(1-it)/2} = x y log(y/x) / (y - x)"),
    CheckSpec("power_average_identity", "identities", 2,
        _drawn(lambda ctx, c, seed: power_average_identity_check(
            c[0].matrix, c[1], ctx.beta_rule, seed=seed)),
        description="Matrix beta-average of conjugated powers equals the "
                    "log-derivative operator at the inverse base.",
        formula="avg_t A2^{(1+it)/2} A1 A2^{(1-it)/2} = T_{A2^{-1}}(A1)"),
    CheckSpec("pairing_identity", "identities", None, _run_pairing,
        description="Entangled expectation of X (x) Y^T reproduces Tr[X Y].",
        formula="<Omega| X (x) Y^T |Omega> = Tr[X Y]"),
    CheckSpec("key_identity", "identities", "n",
        _drawn(lambda ctx, c, seed: check_key_identity(c, seed=seed)),
        layout_aware=True,
        description="Pointwise in t: the sandwiched chain trace equals the "
                    "entangled pairing of the slotted tensor powers.",
        formula="Tr[A_n A_{n-1}^{s+} .. A_1 .. A_{n-1}^{s-}] = "
                "<Omega| W^{s+} B W^{s-} |Omega>"),
    CheckSpec("equivalence_integral_tensor", "identities", "n",
        _drawn(lambda ctx, c, seed: check_equivalence(c, ctx.beta_rule, seed=seed)),
        layout_aware=True,
        description="The integrated power form equals the tensor log-derivative "
                    "form on the same chain.",
        formula="avg_t Tr[chain(t)] = <Omega| T_A(B) |Omega>"),
    CheckSpec("lieb_equivalence", "identities", 3,
        _drawn(lambda ctx, c, seed: check_lieb_equivalence(c, ctx.beta_rule,
                                                           seed=seed)),
        description="For triples the integral form collapses to the three-matrix "
                    "log-derivative bound.",
        formula="avg_t Tr[A3 A2^{s+} A1 A2^{s-}] = Tr[A3 T_{A2^{-1}}(A1)]"),
    CheckSpec("commutator_chain", "identities", 2,
        _drawn(lambda ctx, c, seed: check_commutator_chain(
            *c, ctx.beta_rule, ctx.half_rule, seed=seed)),
        description="Four operator expressions for the deviation of the "
                    "conjugated-power average from the plain product.",
        formula="A1 A2 - avg_t A2^{s+} A1 A2^{s-} = int [A1, R] R dtau = "
                "int R X [A1, A2] X R^2 dtau"),
    CheckSpec("commutator_chain_commuting", "identities", 2, _run_commutator_commuting,
        description="The same chain vanishes identically on commuting pairs.",
        formula="[A1, A2] = 0  =>  all four expressions = 0"),
    CheckSpec("derivative_form", "identities", 4,
        _drawn(lambda ctx, c, seed: check_derivative_form(c, seed=seed)),
        layout_aware=True,
        description="The tensor bound is the directional derivative of a "
                    "trace functional along B.",
        formula="d/dr Tr[P exp(log(A + r B) - log A)] |_{r=0} = "
                "<Omega| T_A(B) |Omega>"),
    CheckSpec("penalized_trace_limit", "identities", None, _run_penalized_limit,
        description="Rank-one penalties collapse the trace exponential to the "
                    "Rayleigh quotient of the kernel direction.",
        formula="Tr exp(A - t P) -> exp <v, A v>  as t -> inf, ker P = span{v}"),
    CheckSpec("commuting_equality", "identities", "n", _run_commuting_equality,
        layout_aware=True,
        description="Commuting chains make every right side equal the left side.",
        formula="[A_j, A_k] = 0  =>  lhs = integral form = tensor form"),

    CheckSpec("golden_thompson", "inequalities", 2,
        _drawn(lambda ctx, c, seed: check_golden_thompson(*c, seed=seed)),
        description="Two-matrix exponential product bound.",
        formula="Tr exp(log A1 + log A2) <= Tr[A1 A2]"),
    CheckSpec("lieb_three", "inequalities", 3,
        _drawn(lambda ctx, c, seed: check_lieb_three(*c, seed=seed)),
        description="Three-matrix bound through the log-derivative operator.",
        formula="Tr exp(log A1 + log A2 + log A3) <= Tr[A3 T_{A2^{-1}}(A1)]"),
    CheckSpec("power_integral", "inequalities", "n",
        _drawn(lambda ctx, c, seed: check_power_integral(c, ctx.beta_rule,
                                                         seed=seed)),
        description="n-matrix bound by the beta-averaged complex-power chain.",
        formula="Tr exp(sum log A_k) <= avg_t Tr[A_n .. A_2^{s+} A1 A_2^{s-} ..]"),
    CheckSpec("tensor_resolvent", "inequalities", "n",
        _drawn(lambda ctx, c, seed: check_tensor_resolvent(c, seed=seed)),
        layout_aware=True,
        description="The same bound in closed tensor form.",
        formula="Tr exp(sum log A_k) <= <Omega| T_A(B) |Omega>"),
    CheckSpec("scaled_exponential", "inequalities", 4,
        _drawn(lambda ctx, c, seed: check_scaled_exponential(c, seed=seed)),
        layout_aware=True,
        description="Dimension-scaled refinement for quadruples.",
        formula="d exp((1/d) Tr sum log A_k) <= <Omega| T_A(B) |Omega>"),
    CheckSpec("jensen_trace", "inequalities", "n",
        _drawn(lambda ctx, c, seed: check_jensen_trace(c, seed=seed)),
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


def _expand_tasks(cfg: CampaignConfig):
    """(check_id, n, seed_list) triples; deterministic checks get one seed."""
    tasks = []
    for spec in selected_checks(cfg):
        if spec.deterministic:
            seeds = [cfg.seed]
        else:
            seeds = [cfg.seed + i for i in range(cfg.trials)]
        for n in _lengths(spec, cfg):
            tasks.append((spec.check_id, n, seeds))
    return tasks


def _run_block(cfg: CampaignConfig, check_id: str, n, seeds) -> list[TrialReport]:
    ctx = _Ctx(cfg)
    runner = CHECKS[check_id].runner
    out = []
    for seed in seeds:
        try:
            out.extend(runner(ctx, n, seed))
        except (TraceIneqError, np.linalg.LinAlgError) as exc:
            # an unevaluable trial is a failed trial, not a dead campaign
            out.append(TrialReport(check_id, "error", 0.0, 0.0, 0.0, 0.0,
                                   0.0, 0.0, False, n=n, seed=seed,
                                   params={"error": f"{type(exc).__name__}: {exc}"}))
    return out


def _sort_key(r: TrialReport):
    return (r.check_id, r.n if r.n is not None else -1,
            r.seed if r.seed is not None else -1,
            json.dumps(r.to_row(), sort_keys=True, default=str))


@dataclass(frozen=True)
class CampaignSummary:
    passed: bool
    trial_count: int
    failure_count: int
    per_check: list[dict]
    config: dict
    runtime_s: float
    reports: list[TrialReport] = field(repr=False, default_factory=list)

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


def _summarize(cfg, reports, runtime_s) -> CampaignSummary:
    per = {}
    for r in reports:
        row = per.setdefault(r.check_id, {"check_id": r.check_id, "trials": 0,
                                          "failures": 0, "worst_abs_gap": 0.0,
                                          "worst_rel_gap": 0.0})
        row["trials"] += 1
        row["failures"] += 0 if r.passed else 1
        # worst gap only meaningful as magnitude; inequalities report slack
        row["worst_abs_gap"] = max(row["worst_abs_gap"], abs(r.abs_gap))
        row["worst_rel_gap"] = max(row["worst_rel_gap"], abs(r.rel_gap))
    per_rows = [per[k] for k in sorted(per)]
    failures = sum(row["failures"] for row in per_rows)
    return CampaignSummary(
        passed=failures == 0,
        trial_count=len(reports),
        failure_count=failures,
        per_check=per_rows,
        config=cfg.echo(),
        runtime_s=runtime_s,
        reports=reports,
    )


def run_campaign(cfg: CampaignConfig) -> CampaignSummary:
    cfg = cfg.validate()
    start = time.perf_counter()
    tasks = _expand_tasks(cfg)
    workers = cfg.parallel if cfg.parallel > 0 else (os.cpu_count() or 1)
    reports: list[TrialReport] = []
    if workers <= 1 or len(tasks) == 1:
        for check_id, n, seeds in tasks:
            reports.extend(_run_block(cfg, check_id, n, seeds))
    else:
        # split seed lists so the pool has enough blocks to balance
        blocks = []
        for check_id, n, seeds in tasks:
            chunk = max(1, len(seeds) // workers)
            for i in range(0, len(seeds), chunk):
                blocks.append((check_id, n, seeds[i:i + chunk]))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, cfg, *b) for b in blocks]
            for f in futures:
                reports.extend(f.result())
    reports.sort(key=_sort_key)
    summary = _summarize(cfg, reports, time.perf_counter() - start)
    if cfg.out:
        write_reports(cfg, summary)
    return summary


# ------------------------------------------------------------------ writers

def _clean(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, (list, tuple)):
        return [_clean(x) for x in v]
    return v


def _trial_rows(summary: CampaignSummary):
    for r in summary.reports:
        yield {k: _clean(v) for k, v in r.to_row().items()}


def write_reports(cfg: CampaignConfig, summary: CampaignSummary) -> list[str]:
    """Write the per-trial file (jsonl or csv) and the csv summary.

    Returns the paths written. Bodies are deterministic functions of
    the configuration: trials are sorted, floats use repr, and no
    timestamps or durations appear.
    """
    base = cfg.out
    os.makedirs(os.path.dirname(base) or ".", exist_ok=True)
    paths = []
    echo = json.dumps(summary.config, sort_keys=True)
    if cfg.fmt == "jsonl":
        path = base + ".trials.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"record": "config", "config": summary.config},
                                sort_keys=True) + "\n")
            for row in _trial_rows(summary):
                fh.write(json.dumps({"record": "trial", **row},
                                    sort_keys=True, default=str) + "\n")
        paths.append(path)
    else:
        path = base + ".trials.csv"
        rows = list(_trial_rows(summary))
        cols = sorted({k for row in rows for k in row})
        buf = io.StringIO()
        buf.write(f"# config {echo}\n")
        writer = csv.DictWriter(buf, fieldnames=cols, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})
        with open(path, "w") as fh:
            fh.write(buf.getvalue())
        paths.append(path)

    spath = base + ".summary.csv"
    buf = io.StringIO()
    buf.write(f"# config {echo}\n")
    writer = csv.DictWriter(buf, fieldnames=["check_id", "trials", "failures",
                                             "worst_abs_gap", "worst_rel_gap"])
    writer.writeheader()
    for row in summary.per_check:
        writer.writerow({k: repr(v) if isinstance(v, float) else v
                         for k, v in row.items()})
    with open(spath, "w") as fh:
        fh.write(buf.getvalue())
    paths.append(spath)
    return paths


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
    merged = {}
    merged.update(file_overrides)
    merged.update({k: v for k, v in flag_overrides.items() if v is not None})
    if "out" not in merged or merged["out"] is None:
        env_dir = os.environ.get(OUT_ENV)
        if env_dir:
            merged["out"] = os.path.join(env_dir, "report")
    try:
        return CampaignConfig(**merged).validate()
    except TypeError as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc
