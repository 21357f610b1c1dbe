"""Campaign benchmark for traceineq.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--toy]

Runs one workload (see README.md in this directory) from the root of a
checkout, against the library in that checkout's ``src/``. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
spends half the time untraced and half traced and prints the per-layer
metrics. Every run checks the outputs: the trial counts, that
no left or right side is NaN or inf, and that the report bytes are the
same on every repeat (and, for ineq_pool, the same as at parallel=1).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
of the run, with its provenance, goes to ``perfbench/out/``.
"""
from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # BLAS reads these once, when numpy loads
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import traceineq
    from traceineq import campaign, inequalities
    from traceineq.quadrature import real_line_rule
except ImportError as exc:
    sys.exit(f"perfbench: cannot import traceineq from {SRC}: {exc}")

import hostspeed
import layers
import workloads

DEFAULT_SEED = 50_000
SETUP_RUNS = 10
END_TO_END = [("trials_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


@dataclasses.dataclass
class Unit:
    """One unit of work: a whole campaign, or one pass over the chains."""

    kind: str  # "warmup", "twin", "timed" or "traced"
    wall: float
    trials: int
    failed: int
    nonfinite: int
    digest: str
    error: str | None = None
    slowdown: float = math.nan  # the host's, around this unit


def check_source() -> None:
    """The library must come from this checkout, not from an install."""
    found = Path(traceineq.__file__).resolve()
    if not found.is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: traceineq was imported from {found}, "
                         f"not from {SRC}")


def git_commit() -> str | None:
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = REPO / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "pool_workers": workloads.pool_workers(),
        "git_commit": git_commit(),
        "traceineq_file": traceineq.__file__,
    }


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def time_setup(w: workloads.Workload, seed: int,
               runs: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the library and
    validate the workload's configuration, and the host's slowdown
    around each."""
    code = workloads.setup_code(w, seed)
    env = child_env()
    times, slowdowns = [], []
    before = hostspeed.slowdown()
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env,
                       cwd=REPO, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
        after = hostspeed.slowdown()
        slowdowns.append((before + after) / 2)
        before = after
    return times, slowdowns


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _nonfinite(reports) -> int:
    return sum(not (math.isfinite(r.lhs) and math.isfinite(r.rhs))
               for r in reports)


def campaign_unit(cfg, out_base: Path, kind: str, root) -> Unit:
    """run_campaign, report writing included."""
    cfg = dataclasses.replace(cfg, out=str(out_base))
    start = time.perf_counter()
    with root:
        summary = campaign.run_campaign(cfg)
    wall = time.perf_counter() - start
    paths = [f"{out_base}.trials.{cfg.fmt}", f"{out_base}.summary.csv"]
    return Unit(kind, wall, summary.trial_count, summary.failure_count,
                _nonfinite(summary.reports), _digest(paths))


def library_unit(sets, rule, kind: str, root) -> Unit:
    """Three tensor-layer checks on every chain of every set."""
    reports = []
    start = time.perf_counter()
    with root:
        for chains in sets:
            for mats in chains:
                reports.append(inequalities.check_tensor_resolvent(mats))
                reports.append(inequalities.check_equivalence(mats, rule))
                reports.append(inequalities.check_key_identity(mats))
    wall = time.perf_counter() - start
    failed = sum(not r.passed for r in reports)
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    return Unit(kind, wall, len(reports), failed, _nonfinite(reports), digest)


def measure(run_unit, seconds: float, trace: bool, twin: bool):
    """Run units until ``seconds`` have passed. Untraced runs make at
    least two units, so the report bytes can be compared. Traced runs
    spend half the time untraced and half traced, at least one unit
    each. A twin unit at parallel=1 runs first when asked for. A unit
    that raises ends the run and counts all its trials as failed. The
    reference kernel runs between untraced units, so each gets the mean
    host slowdown of the kernels on either side of it; it does not run
    while traced, where its numpy calls would be counted."""
    units: list[Unit] = []

    def phase(kind, budget, minimum, tracer=None) -> bool:
        start = time.perf_counter()
        count = 0
        probe = hostspeed.slowdown if tracer is None else lambda: math.nan
        before = probe()
        while count < minimum or time.perf_counter() - start < budget:
            count += 1
            root = tracer.span(layers.ROOT) if tracer else nullcontext()
            try:
                unit = run_unit(kind, root)
            except Exception as exc:  # the failure is reported, not raised
                units.append(Unit(kind, math.nan, 0, 0, 0, "",
                                  error=f"{type(exc).__name__}: {exc}"))
                return False
            after = probe()
            unit.slowdown = (before + after) / 2
            units.append(unit)
            before = after
        return True

    if twin and not phase("twin", 0, 1):
        return units, None
    if not trace:
        phase("timed", seconds, 2)
        return units, None
    if not phase("timed", seconds / 2, 1):
        return units, None
    with layers.traced() as tracer:
        phase("traced", seconds / 2, 1, tracer)
    return units, tracer


def steady_rate(units: list[Unit]) -> float:
    """Trials per second at the host's reference speed: the median over
    the units of their rate times the host's slowdown around them (see
    hostspeed.py)."""
    return statistics.median(u.trials / u.wall * u.slowdown for u in units)


def gate(w: workloads.Workload, units: list[Unit]) -> list[str]:
    """Reasons the outputs are wrong; empty when they are right."""
    problems = []
    for i, u in enumerate(units):
        tag = f"unit {i} ({u.kind})"
        if u.error:
            problems.append(f"{tag} raised {u.error}")
            continue
        if u.trials != w.trials:
            problems.append(f"{tag}: {u.trials} trials, expected {w.trials}")
        if u.nonfinite:
            problems.append(f"{tag}: {u.nonfinite} trials with NaN or inf sides")
        if u.failed:
            problems.append(f"{tag}: {u.failed} failed or error trials")
    digests = {u.digest for u in units if not u.error}
    if len(digests) > 1:
        problems.append(f"report bytes differ across units: {sorted(digests)}")
    return problems


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  toy: bool) -> dict:
    """Run one workload, write its full record to OUT and return it;
    ``toy`` shrinks the workload to smoke-test size."""
    check_source()
    w = workloads.workloads(toy)[name]
    OUT.mkdir(exist_ok=True)
    warm = workloads.workloads(toy=True)[name]

    if w.config is not None:
        cfg = campaign.CampaignConfig(**w.config, seed=seed).validate()
        warm_cfg = campaign.CampaignConfig(**warm.config, seed=seed).validate()
        campaign_unit(warm_cfg, OUT / f"{name}-warmup", "warmup", nullcontext())

        def run_unit(kind, root):
            unit_cfg = dataclasses.replace(cfg, parallel=1) if kind == "twin" else cfg
            return campaign_unit(unit_cfg, OUT / f"{name}-{kind}", kind, root)
    else:
        rule = real_line_rule()
        sets = workloads.chain_sets(w, seed)
        library_unit(workloads.chain_sets(warm, seed), rule, "warmup", nullcontext())

        def run_unit(kind, root):
            return library_unit(sets, rule, kind, root)

    units, tracer = measure(run_unit, seconds, trace, w.serial_twin)
    # read before the set-up interpreters start, so only pool workers count
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup, setup_slowdowns = ([], []) if trace else time_setup(
        w, seed, 1 if toy else SETUP_RUNS)
    problems = gate(w, units)
    attempted = sum(u.trials if not u.error else w.trials for u in units)
    failed = sum(u.failed if not u.error else w.trials for u in units)

    timed = [u for u in units if u.kind == "timed" and not u.error]
    traced = [u for u in units if u.kind == "traced" and not u.error]
    if trace:
        metrics = {}
        if timed and traced:
            metrics = layers.layer_metrics(
                tracer, [u.wall for u in traced], [u.wall for u in timed],
                sum(u.trials for u in traced))
            tracer.save(OUT / f"{name}-seed{seed}.spans.npz")
        units_of = {m: u for m, u, _ in layers.PER_LAYER}
    else:
        metrics = {
            "trials_per_s": steady_rate(timed) if timed else math.nan,
            "setup_s": statistics.median(
                t / f for t, f in zip(setup, setup_slowdowns)),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units_of = dict(END_TO_END)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "toy": toy,
        "correct": not problems and bool(metrics),
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failure_share": failed / attempted if attempted else math.nan,
        "metrics": {m: {"value": v, "unit": units_of[m]} for m, v in metrics.items()},
        "setup_s_runs": setup,
        "setup_slowdowns": setup_slowdowns,
        "units": [dataclasses.asdict(u) for u in units],
        "provenance": provenance(),
    }
    suffix = ("trace" if trace else "e2e") + ("-toy" if toy else "")
    (OUT / f"{name}-seed{seed}-{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def print_record(rec: dict) -> None:
    print(f"perfbench {rec['workload']} seed={rec['seed']} "
          f"trace={int(rec['trace'])} units={len(rec['units'])}")
    for metric, m in rec["metrics"].items():
        print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failure_share':40s} {rec['failure_share']:14.6g} "
          f"({rec['failed']} of {rec['attempted']} trials)")
    timed = [u for u in rec["units"] if u["kind"] == "timed" and not u["error"]]
    if timed:
        print(f"  {'unit trials per wall second, median':40s} "
              f"{statistics.median(u['trials'] / u['wall'] for u in timed):14.6g}"
              f" ({len(timed)} timed units)")
        print(f"  {'host slowdown, median':40s} "
              f"{statistics.median(u['slowdown'] for u in timed):14.6g}")
    if rec["setup_s_runs"]:
        print(f"  {'set-up wall seconds, median':40s} "
              f"{statistics.median(rec['setup_s_runs']):14.6g}")
    digests = sorted({u["digest"] for u in rec["units"] if u["digest"]})
    print(f"  report sha256: {', '.join(d[:16] for d in digests)}")
    print("  gate: " + ("pass" if rec["correct"] else
                        "FAIL: " + "; ".join(rec["problems"] or ["no metrics"])))
    print("  provenance: " + json.dumps(rec["provenance"], sort_keys=True))


def main(argv=None) -> int:
    names = list(workloads.workloads())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="smoke-test size: tiny workloads, one set-up run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    rec = run_benchmark(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.toy)
    print_record(rec)
    print(json.dumps({key: rec[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
