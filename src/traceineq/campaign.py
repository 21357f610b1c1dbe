"""Verification campaigns: seeded batches of every check, with
deterministic reports.

A campaign is described by a CampaignConfig, run in chunks of seeds
(optionally across processes; every trial is pure), and reduced to a
CampaignSummary plus report files. Reports carry no wall-clock data, so
rerunning the same configuration reproduces the bytes exactly; runtime
lives only on the in-memory summary.

Every check is one row of the CHECKS table: its id, suite, chain
length, draw, runner, description and formula. Adding a check means
adding one row, and a new kind of input one entry of the DRAWS table.
A chunk of consecutive seeds is the unit of work: it makes each draw
its rows name once, and the rows of one draw at one chain length share
its prefix and the sides evaluated on it. The prefixes share one
decomposition of the stack, and one sweep of the integral form gives
each length its value; if either raises, each prefix runs on its own.
A campaign cuts its seeds into equal chunks of at most MAX_CHUNK, at
least one per worker. A trial's numbers depend on its seed and the
configuration alone, never on its chunk: every stacked evaluation sums
each chain in one order, whatever the stack. So reports do not depend
on the chunk size or the worker count, and a one-trial campaign
reproduces a trial of a larger one bit for bit. One function runs every
task, one per chunk, and the rows without a draw run with the first;
process w of W runs tasks w, w + W, w + 2W, ..., and this process is 0.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import os
import time
import types
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .combinatorics import MAX_N
from .entangle import DIM_CAP, build_layout, pairing_check
from .errors import ConfigError, DimensionCap, TraceIneqError, UnknownCheck
from .frechet import power_average_identity_check
from .inequalities import (
    COMPARISONS,
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
from .linalg import POSITIVITY_FLOOR, draw_posdef, random_commuting_family
from .quadrature import (
    BETA_HALF_WIDTH,
    BETA_NODE_COUNT,
    beta_normalization_gap,
    scalar_identity_check,
)
from .report import TrialReport, as_reports, error_report, identity_report

SUITES = ("identities", "inequalities", "all")
FORMATS = ("jsonl", "csv")
SCALAR_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)
OUT_ENV = "TRACEINEQ_OUT"
MAX_CHUNK = 64  # trials per chunk, at most


@dataclass(frozen=True)
class CampaignConfig:
    """What a campaign runs: its checks, chain lengths, draws and report files."""

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
        # eigh returns a drawn lam_lo within eps * lam_hi, and PosDefMatrix
        # needs it above POSITIVITY_FLOOR * lam_hi
        widest = 1.0 / (POSITIVITY_FLOOR + np.finfo(float).eps)
        if self.lam_hi / self.lam_lo >= widest:
            raise ConfigError(f"lam_hi / lam_lo = {self.lam_hi / self.lam_lo:.3g} must be "
                              f"below 1 / (POSITIVITY_FLOOR + eps) = {widest:.4g}: eigh "
                              f"returns the smallest eigenvalue within eps * lam_hi, and "
                              f"a chain matrix needs it above {POSITIVITY_FLOOR:g} * lam_hi")
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
            _check_caps(spec, _lengths(spec, self), self.local_dim)
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


# ------------------------------------------------------------------ checks
# A draw maps (cfg, rngs, count) to one chunk's inputs as a stack, trial i's
# drawn from rngs[i] = default_rng(seeds[i]) in the order a lone trial draws
# them; count is the chain length for a chain draw and None otherwise.
# Library functions are looked up as module globals at call time, never
# captured when a table is built.

def _draw_pairing(cfg, rngs, count):
    """Per trial, X then Y at dimension d, then at d^2: the (X, Y) stacks
    at d and at d^2."""
    dims = (cfg.local_dim, cfg.local_dim ** 2)
    drawn = [[rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
              for dim in dims for _ in "XY"] for rng in rngs]
    x1, y1, x2, y2 = map(np.array, zip(*drawn))
    return (x1, y1), (x2, y2)


def _draw_penalized(cfg, rngs, count):
    """Per trial, a Hermitian 3 x 3 A of spectral norm at most 1, then v."""
    a, v = [], []
    for rng in rngs:
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a.append(0.5 * (g + g.conj().T))
        v.append(rng.normal(size=3) + 1j * rng.normal(size=3))
    a = np.array(a)
    return a / np.maximum(1.0, np.linalg.norm(a, 2, axis=(-2, -1)))[:, None, None], np.array(v)


DRAWS = {
    "haar": lambda cfg, rngs, count: draw_posdef(
        rngs, cfg.local_dim, (cfg.lam_lo, cfg.lam_hi), count=count),
    "commuting": lambda cfg, rngs, count: random_commuting_family(
        cfg.local_dim, count, rngs, (cfg.lam_lo, cfg.lam_hi)),
    "pairing": _draw_pairing,
    "penalized": _draw_penalized,
}


def _draw(cfg, draw: str, seeds, count):
    """DRAWS[draw]'s inputs for the seeds, trial i's from default_rng(seeds[i])."""
    return DRAWS[draw](cfg, [np.random.default_rng(seed) for seed in seeds], count)


# A runner maps (inputs, seeds, sides) to a list of TrialReports, where seeds
# is one chunk of trial seeds and inputs their draw, a chain draw cut to the
# row's length, or None for a row without a draw; sides holds the sides
# already evaluated on these chains, as inequalities.compare takes them.
# A row without a draw runs once per campaign, on the first seed. The
# two-sided checks have no runner: they are the rows of
# inequalities.COMPARISONS, at their chain lengths there (_compared), and
# are evaluated by compare.

def _run_beta_normalization(inputs, seeds, sides):
    return [identity_report("beta_normalization", 1.0 + beta_normalization_gap(), 1.0,
                            atol=1e-10, seed=seeds[0],
                            params={"nodes": BETA_NODE_COUNT,
                                    "half_width": BETA_HALF_WIDTH})]


def _run_pairing(pairs, seeds, sides):
    """One pairing_check per dimension, d then d^2; each seed's two reports
    in that order."""
    reports = [pairing_check(x, y, copies=copies, seed=seeds)
               for copies, (x, y) in enumerate(pairs, 1)]
    return [r for per_seed in zip(*reports) for r in per_seed]


def _commuting_equality(fam, seeds, sides=None):
    """Simultaneously diagonalizable chains collapse every bound to the
    left side; report the worst relative gap across the closed forms,
    read from ``sides`` as compare reads them."""
    n = fam.matrix.shape[1]
    names = ["lhs_exp_sum_log", "rhs_power_integral", "rhs_tensor_resolvent",
             "rhs_lieb_three"][:4 if n == 3 else 3]
    sides = {} if sides is None else sides
    for name in names:
        if name not in sides:
            sides[name] = globals()[name](fam)
    lhs, values = sides[names[0]], np.array([sides[name] for name in names[1:]])
    worst = values[np.abs(values - lhs).argmax(axis=0), np.arange(len(seeds))]
    return identity_report("commuting_equality", lhs, worst, rtol=1e-8, n=n, seed=seeds,
                           params={"forms": len(values)})


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    suite: str
    length: int | str | None  # fixed chain length, "n" = the n grid, None = no chain
    runner: object  # None for a row of inequalities.COMPARISONS
    description: str
    formula: str
    draw: str | None = "haar"  # a key of DRAWS, None = no draw, run once
    layout_aware: bool = False  # builds the tensor layout
    dense: bool = False  # and its dense D x D operands


def _compared(check_id, suite, **kw) -> CheckSpec:
    """The CHECKS row of a COMPARISONS row, at that row's chain length."""
    return CheckSpec(check_id, suite, COMPARISONS[check_id].length, None, **kw)


CHECKS: dict[str, CheckSpec] = {spec.check_id: spec for spec in (
    CheckSpec("beta_normalization", "identities", None, _run_beta_normalization, draw=None,
        description="The hyperbolic weight integrates to one on the truncated line.",
        formula="integral beta(t) dt = 1,  beta(t) = (pi/2) / (1 + cosh(pi t))"),
    CheckSpec("scalar_power_identity", "identities", None,
        lambda inputs, seeds, sides: [scalar_identity_check(x, y)
                                      for x in SCALAR_GRID for y in SCALAR_GRID], draw=None,
        description="Scalar conjugated-power average equals the inverse log kernel "
                    "on a fixed grid.",
        formula="avg_t x^{(1+it)/2} y^{(1-it)/2} = x y log(y/x) / (y - x)"),
    CheckSpec("power_average_identity", "identities", 2,
        lambda c, seeds, sides: power_average_identity_check(
            c[:, 0].matrix, c[:, 1], seed=seeds),
        description="Matrix beta-average of conjugated powers equals the "
                    "log-derivative operator at the inverse base.",
        formula="avg_t A2^{(1+it)/2} A1 A2^{(1-it)/2} = T_{A2^{-1}}(A1)"),
    CheckSpec("pairing_identity", "identities", None, _run_pairing, draw="pairing",
        description="Entangled expectation of X (x) Y^T reproduces Tr[X Y].",
        formula="<Omega| X (x) Y^T |Omega> = Tr[X Y]"),
    CheckSpec("key_identity", "identities", "n",
        lambda c, seeds, sides: check_key_identity(c, seed=seeds),
        layout_aware=True,
        description="Pointwise in t: the sandwiched chain trace equals the "
                    "entangled pairing of the slotted tensor powers.",
        formula="Tr[A_n A_{n-1}^{s+} .. A_1 .. A_{n-1}^{s-}] = "
                "<Omega| W^{s+} B W^{s-} |Omega>"),
    _compared("equivalence_integral_tensor", "identities", layout_aware=True,
        description="The integrated power form equals the tensor log-derivative "
                    "form on the same chain.",
        formula="avg_t Tr[chain(t)] = <Omega| T_A(B) |Omega>"),
    _compared("lieb_equivalence", "identities",
        description="For triples the integral form collapses to the three-matrix "
                    "log-derivative bound.",
        formula="avg_t Tr[A3 A2^{s+} A1 A2^{s-}] = Tr[A3 T_{A2^{-1}}(A1)]"),
    CheckSpec("commutator_chain", "identities", 2,
        lambda c, seeds, sides: check_commutator_chain(c[:, 0], c[:, 1], seed=seeds),
        description="Three operator expressions for the deviation of the "
                    "conjugated-power average from the plain product.",
        formula="A1 A2 - avg_t A2^{s+} A1 A2^{s-} = int [A1, R] R dtau = "
                "int R X [A1, A2] X R^2 dtau"),
    CheckSpec("commutator_chain_commuting", "identities", 2,
        lambda c, seeds, sides: check_commutator_chain(
            c[:, 0], c[:, 1], atol=1e-12, seed=seeds,
            check_id="commutator_chain_commuting"), draw="commuting",
        description="The same chain vanishes identically on commuting pairs.",
        formula="[A1, A2] = 0  =>  all three expressions = 0"),
    CheckSpec("derivative_form", "identities", 4,
        lambda c, seeds, sides: check_derivative_form(c, seed=seeds, sides=sides),
        layout_aware=True, dense=True,
        description="The tensor bound is the directional derivative of a "
                    "trace functional along B.",
        formula="d/dr Tr[P exp(log(A + r B) - log A)] |_{r=0} = "
                "<Omega| T_A(B) |Omega>"),
    CheckSpec("penalized_trace_limit", "identities", None,
        lambda inputs, seeds, sides: check_penalized_trace_limit(*inputs, seed=seeds),
        draw="penalized",
        description="Rank-one penalties collapse the trace exponential to the "
                    "Rayleigh quotient of the kernel direction.",
        formula="Tr exp(A - t P) -> exp <v, A v>  as t -> inf, ker P = span{v}"),
    CheckSpec("commuting_equality", "identities", "n", _commuting_equality,
        draw="commuting", layout_aware=True,
        description="Commuting chains make every right side equal the left side.",
        formula="[A_j, A_k] = 0  =>  lhs = integral form = tensor form"),

    _compared("golden_thompson", "inequalities",
        description="Two-matrix exponential product bound.",
        formula="Tr exp(log A1 + log A2) <= Tr[A1 A2]"),
    _compared("lieb_three", "inequalities",
        description="Three-matrix bound through the log-derivative operator.",
        formula="Tr exp(log A1 + log A2 + log A3) <= Tr[A3 T_{A2^{-1}}(A1)]"),
    _compared("power_integral", "inequalities",
        description="n-matrix bound by the beta-averaged complex-power chain.",
        formula="Tr exp(sum log A_k) <= avg_t Tr[A_n .. A_2^{s+} A1 A_2^{s-} ..]"),
    _compared("tensor_resolvent", "inequalities", layout_aware=True,
        description="The same bound in closed tensor form.",
        formula="Tr exp(sum log A_k) <= <Omega| T_A(B) |Omega>"),
    _compared("scaled_exponential", "inequalities", layout_aware=True,
        description="Dimension-scaled refinement for quadruples.",
        formula="d exp((1/d) Tr sum log A_k) <= <Omega| T_A(B) |Omega>"),
    _compared("jensen_trace", "inequalities",
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

def _check_caps(spec: CheckSpec, n_values, local_dim: int) -> None:
    """Raise ConfigError if the row at these chain lengths and local
    dimension passes a size cap: the pairing row's d^4, or its tensor
    layout's. verify and explain both check a row here."""
    if spec.check_id == "pairing_identity" and local_dim ** 4 > DIM_CAP:
        raise ConfigError(f"pairing_identity at d = {local_dim}: X (x) Y^T at d^2 has "
                          f"dimension d^4 = {local_dim ** 4}, which exceeds cap {DIM_CAP}")
    if not spec.layout_aware:
        return
    for n in n_values:
        try:
            build_layout(n, local_dim, dense=spec.dense)
        except DimensionCap as exc:
            raise ConfigError(f"{spec.check_id} at n = {n}: {exc}") from exc


def _lengths(spec: CheckSpec, cfg: CampaignConfig) -> tuple:
    """The chain lengths a check runs at; (None,) when it has no chain."""
    return cfg.n_values if spec.length == "n" else (spec.length,)


def _evaluate(cfg, spec: CheckSpec, n, inputs, seeds, sides=None) -> list[TrialReport]:
    """One row's trials on one chunk; ``sides`` holds the comparison sides
    already evaluated on these inputs. A row that raises runs again a trial
    at a time on that trial's own draw, with no stored sides, as a one-trial
    campaign runs it, so errors land on their seeds."""
    try:
        if spec.runner is None:
            return compare(spec.check_id, inputs, seed=seeds, sides=sides)
        return spec.runner(inputs, seeds, sides)
    except (TraceIneqError, np.linalg.LinAlgError) as exc:
        if len(seeds) == 1:  # an unevaluable trial is a failed trial, not a dead campaign
            return [error_report(spec.check_id, exc, n=n, seed=seeds[0])]
        return [r for seed in seeds
                for r in _evaluate(cfg, spec, n, _draw(cfg, spec.draw, [seed], n), [seed])]


def _run_task(cfg, rows, seeds, index) -> list[tuple]:
    """The trials of task ``index``, one chunk of seeds, under the selected
    (spec, n) rows: every row with a draw on the chunk, and in task 0 the
    rows without one, on its first seed. Each draw is made once, at the
    longest n its rows take (None for a draw without a chain). A chain
    draw's stack is decomposed in one eigh, and one sweep of the integral
    form, to the longest row that reads it, gives each such row's length
    its value. Each (draw, n) prefix inputs[:, :n], equal to a draw of n,
    is cut once: the rows at that length share it, the decomposition and
    the sides evaluated on it, the swept one among them. A decomposition or
    sweep that raises is not shared: each prefix then decomposes or
    evaluates on its own, so a matrix past n cannot turn that trial's
    shorter rows into errors. Per row, from its reports' columns: its key
    (check_id, n or -1, index), those columns (plain tuples, which a pool
    sends back faster than reports), trial lines if cfg writes any (see
    _blocks), failures, and worst |gaps|, NaN as the worst."""
    rows = [(spec, n) for spec, n in rows if spec.draw or index == 0]
    prefixes = {}
    for draw in {spec.draw for spec, _ in rows} - {None}:
        kind = [(spec, n) for spec, n in rows if spec.draw == draw]
        count = None if kind[0][1] is None else max(n for _, n in kind)
        # the lengths of the rows that read the integral form from the sides
        lengths = sorted({n for spec, n in kind if spec.check_id == "commuting_equality"
                          or "rhs_power_integral" in COMPARISONS.get(spec.check_id, ())})
        inputs, swept = _draw(cfg, draw, seeds, count), {}
        try:  # shared by the prefixes; if either raises, each runs its own
            if count:
                inputs.spectral
            if lengths:
                swept = dict(zip(lengths, rhs_power_integral(inputs[:, :lengths[-1]],
                                                             lengths=lengths)))
        except (TraceIneqError, np.linalg.LinAlgError):
            pass
        prefixes.update({(draw, n): (inputs if n is None else inputs[:, :n],
                                     {"rhs_power_integral": swept[n]} if n in swept else {})
                         for _, n in kind})
    groups = []
    for spec, n in rows:
        inputs, sides = prefixes.get((spec.draw, n), (None, None))
        reports = _evaluate(cfg, spec, n, inputs, seeds if spec.draw else seeds[:1], sides)
        columns = dict(zip(TrialReport._fields, zip(*reports)))
        blocks = _blocks(columns, cfg.fmt) if cfg.out else []
        groups.append(((spec.check_id, -1 if n is None else n, index), tuple(columns.values()),
                       _json_lines(blocks) if cfg.fmt == "jsonl" else blocks,
                       sum(map(operator.not_, columns["passed"])),
                       np.abs([columns["abs_gap"], columns["rel_gap"]]).max(axis=1)))
    return groups


def _run_share(cfg, tasks, first, step) -> list[tuple]:
    """The groups of tasks first, first + step, ...: one process's share,
    under rows built from CHECKS as this process sees it."""
    rows = [(spec, n) for spec in selected_checks(cfg) for n in _lengths(spec, cfg)]
    return [group for i in range(first, len(tasks), step)
            for group in _run_task(cfg, rows, tasks[i], i)]


@dataclass(frozen=True)
class CampaignSummary:
    """A campaign's verdict, per-check worst gaps, reports and runtime."""

    passed: bool
    trial_count: int
    failure_count: int
    per_check: list[dict]
    config: dict
    runtime_s: float
    reports: list[TrialReport] = field(repr=False, default_factory=list)
    lines: list = field(repr=False, default_factory=list)  # jsonl lines, or csv _blocks

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
    for (check_id, _, _), columns, group_lines, fails, worst in sorted(groups):
        reports += as_reports(zip(*columns))
        lines += group_lines
        trials, failures, so_far = per.get(check_id, (0, 0, worst))
        per[check_id] = (trials + len(columns[0]), failures + fails,
                         np.maximum(so_far, worst))
    per_rows = [{"check_id": check_id, "trials": trials, "failures": failures,
                 "worst_abs_gap": float(worst[0]), "worst_rel_gap": float(worst[1])}
                for check_id, (trials, failures, worst) in per.items()]
    failures = sum(row["failures"] for row in per_rows)
    return CampaignSummary(passed=failures == 0, trial_count=len(reports),
                           failure_count=failures, per_check=per_rows, config=cfg.echo(),
                           runtime_s=runtime_s, reports=reports, lines=lines)


def _chunks(seeds: list, workers: int) -> list[list]:
    """The seeds in order, cut into chunks of at most MAX_CHUNK seeds, at
    least one per worker, their sizes equal to within one. Larger chunks
    pay less per-call overhead; no trial's numbers depend on its chunk."""
    count = min(len(seeds), max(-(-len(seeds) // MAX_CHUNK), workers))
    return [seeds[i * len(seeds) // count:(i + 1) * len(seeds) // count]
            for i in range(count)]


def run_campaign(cfg: CampaignConfig) -> CampaignSummary:
    """Validate cfg, run its trials and write its reports when cfg.out is set."""
    cfg = cfg.validate()
    if cfg.out:  # before the first trial, so a prefix that cannot be written costs no run
        os.makedirs(os.path.dirname(cfg.out) or ".", exist_ok=True)
    start = time.perf_counter()
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    workers = cfg.parallel or cores or 1
    # rows without a draw run with the first chunk; alone, they need one seed
    drawn = any(spec.draw for spec in selected_checks(cfg))
    tasks = _chunks([cfg.seed + i for i in range(cfg.trials if drawn else 1)], workers)
    workers = min(workers, len(tasks))
    # process w of the workers runs share w; this process runs share 0
    # while the pool forks
    pool = ProcessPoolExecutor(max_workers=workers - 1) if workers > 1 else nullcontext()
    with pool:
        futures = [pool.submit(_run_share, cfg, tasks, w, workers) for w in range(1, workers)]
        groups = _run_share(cfg, tasks, 0, workers) + [g for f in futures for g in f.result()]
    summary = _summarize(cfg, groups, time.perf_counter() - start)
    if cfg.out:
        write_reports(cfg, summary)
    return summary


# ------------------------------------------------------------- trial lines
# A row's trial lines are those of json.dumps({"record": "trial",
# **r.to_row()}, sort_keys=True) and of _csv_cell on each cell of
# r.to_row(), but made column by column: a cell every trial shares is
# written once, the others a column at a time, and each line fills a
# template with its own cells.

_JSON = json.JSONEncoder(sort_keys=True).encode  # json.dumps(value, sort_keys=True)
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json writes them


def _csv_cell(value) -> str:
    """One csv cell as csv.writer writes it, but floats as repr."""
    text = repr(value) if isinstance(value, float) else "" if value is None else str(value)
    quote = "," in text or '"' in text or "\n" in text or "\r" in text
    return '"' + text.replace('"', '""') + '"' if quote else text


def _cells(values, fmt) -> list[str]:
    """A column's cells: in one pass when all values are ints or all are
    floats (json writes NaN and inf its own way), else value by value."""
    types = set(map(type, values))
    if types == {int}:
        return list(map(int.__repr__, values))
    if types == {float}:
        texts = list(map(float.__repr__, values))
        if fmt == "csv" or all(map(math.isfinite, values)):
            return texts
        return [_NONFINITE.get(text, text) for text in texts]
    return list(map(_JSON if fmt == "jsonl" else _csv_cell, values))


def _blocks(columns, fmt) -> list[tuple[dict, list]]:
    """A row's trial cells, from its reports' columns by field name, in
    runs of consecutive trials with the same params keys (an error trial
    starts its own). Per run, ({key: the cell every trial holds when all
    hold one object, else None}, in key order; [per trial, the tuple of
    its other cells, in key order])."""
    params = columns["params"]
    ends = [i for i in range(1, len(params)) if params[i] is not params[i - 1]
            and params[i].keys() != params[i - 1].keys()] + [len(params)]
    blocks, start = [], 0
    for end in ends:
        named = [(key, values[start:end]) for key, values in columns.items()
                 if key != "params"]
        named += [(f"p_{k}", [p[k] for p in params[start:end]]) for k in params[start]]
        if fmt == "jsonl":
            named.append(("record", ("trial",) * (end - start)))
        shared, varying = {}, []
        for key, values in sorted(named, key=lambda item: item[0]):
            if all(map(operator.is_, values, itertools.repeat(values[0]))):
                shared[key] = _cells(values[:1], fmt)[0]
            else:
                shared[key] = None
                varying.append(_cells(values, fmt))
        blocks.append((shared, list(zip(*varying)) if varying else [()] * (end - start)))
        start = end
    return blocks


def _slot(cell) -> str:
    """A cell in a line template: itself, or a slot for each line's own."""
    return "%s" if cell is None else cell.replace("%", "%%")


def _json_lines(blocks) -> list[str]:
    """Each trial's jsonl line."""
    lines = []
    for shared, rows in blocks:
        template = "{" + ", ".join(f"{encode_basestring_ascii(key)}: {_slot(cell)}"
                                   for key, cell in shared.items()) + "}\n"
        lines += map(template.__mod__, rows)
    return lines


def _csv_lines(blocks, fieldnames):
    """Each trial's cells under the fieldnames, empty where it has none."""
    return itertools.chain.from_iterable(
        map((",".join(_slot(shared.get(key, "")) for key in fieldnames) + "\r\n").__mod__, rows)
        for shared, rows in blocks)


# ------------------------------------------------------------------ writers

def _write_csv(path, echo, fieldnames, lines):
    """Config echo line, header, then the lines."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config {echo}\n" + ",".join(map(_csv_cell, fieldnames)) + "\r\n")
        fh.writelines(lines)


def write_reports(cfg: CampaignConfig, summary: CampaignSummary) -> list[str]:
    """Write the per-trial file (jsonl or csv) and the csv summary.

    Returns the paths written; the trial lines are those run_campaign(cfg)
    formatted. Bodies are deterministic functions of the configuration:
    trials are sorted, floats use repr, and no timestamps or durations appear.
    """
    made = (len(summary.lines) if cfg.fmt == "jsonl"
            else sum(len(rows) for _, rows in summary.lines))
    if made != summary.trial_count:  # the campaign ran without out
        raise ValueError("the summary holds no trial lines; run the campaign with out set")
    base = cfg.out
    echo = json.dumps(summary.config, sort_keys=True)
    path = f"{base}.trials.{cfg.fmt}"
    if cfg.fmt == "jsonl":
        with open(path, "w") as fh:
            fh.writelines([json.dumps({"record": "config", "config": summary.config},
                                      sort_keys=True) + "\n", *summary.lines])
    else:
        fieldnames = sorted(set().union(*(shared for shared, _ in summary.lines)))
        _write_csv(path, echo, fieldnames, _csv_lines(summary.lines, fieldnames))
    spath = base + ".summary.csv"
    fieldnames = ["check_id", "trials", "failures", "worst_abs_gap", "worst_rel_gap"]
    _write_csv(spath, echo, fieldnames, [",".join(_csv_cell(row[k]) for k in fieldnames)
                                         + "\r\n" for row in summary.per_check])
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
