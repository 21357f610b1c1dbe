import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import traceineq
from traceineq import (
    CHECKS,
    CampaignConfig,
    ConfigError,
    DimensionCap,
    TraceIneqError,
    TrialReport,
    UnknownCheck,
    campaign,
    compare,
    run_campaign,
)
from traceineq.campaign import config_from, load_config_file, selected_checks
from traceineq.cli import _flag_overrides, build_parser, main
from traceineq.combinatorics import MAX_N


def _cfg(**kw):
    base = dict(suite="identities", n_values=(3,), trials=2, seed=77,
                parallel=1)
    base.update(kw)
    return CampaignConfig(**base)


def test_registry_covers_both_suites():
    suites = {spec.suite for spec in CHECKS.values()}
    assert suites == {"identities", "inequalities"}
    assert "golden_thompson" in CHECKS
    assert "key_identity" in CHECKS
    for spec in CHECKS.values():
        assert spec.description
        assert spec.formula


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(suite="bogus").validate()
    with pytest.raises(ConfigError):
        _cfg(n_values=(2,)).validate()
    with pytest.raises(ConfigError, match=r"\[3, 10\]"):
        _cfg(n_values=(11,)).validate()
    _cfg(suite="all", n_values=(7, 10)).validate()
    with pytest.raises(ConfigError):
        _cfg(trials=0).validate()
    with pytest.raises(ConfigError):
        _cfg(lam_lo=-1.0).validate()
    with pytest.raises(UnknownCheck):
        _cfg(checks=("nope",)).validate()
    with pytest.raises(ConfigError):
        _cfg(fmt="xml").validate()
    # each of these used to crash a worker or fail every trial instead
    with pytest.raises(ConfigError, match="seed"):
        _cfg(seed=-1).validate()
    with pytest.raises(ConfigError, match="lam_hi"):
        _cfg(lam_hi=float("inf")).validate()
    # a draw's smallest eigenvalue, within eps * lam_hi, must clear the
    # positivity floor: lam_hi / lam_lo below 1 / (1e-12 + eps) = 9.998e11
    _cfg(lam_lo=1.0, lam_hi=9.997e11).validate()
    for lam_lo, lam_hi in ((1.0, 9.998e11), (1e-7, 1e7)):
        with pytest.raises(ConfigError, match=r"lam_hi / lam_lo .* 9\.998e\+11"):
            _cfg(lam_lo=lam_lo, lam_hi=lam_hi).validate()
    with pytest.raises(ConfigError, match="'golden_thompson' is selected more than"):
        _cfg(checks=("golden_thompson", "lieb_three", "golden_thompson")).validate()
    # a repeated chain length would run, and report, each of its trials twice
    with pytest.raises(ConfigError, match="chain length 3 is selected more than"):
        _cfg(n_values=(3, 4, 3)).validate()


@pytest.mark.parametrize("line", ["half_width = 1", "beta_nodes = 40", "half_nodes = 4"])
def test_config_file_rejects_quadrature_keys(tmp_path, line):
    # campaigns use the library's rules; a file cannot pick a coarser one
    path = tmp_path / "rule.cfg"
    path.write_text(f"trials = 2\n{line}\n")
    key = line.split()[0]
    with pytest.raises(ConfigError, match=rf"rule\.cfg:2: unknown key '{key}'"):
        load_config_file(str(path))


def test_config_rejects_tensor_layout_over_cap():
    # 10^4 = 10,000 exceeds the 6561 cap of the n = 5 tensor layout
    for cid in ("tensor_resolvent", "commuting_equality"):
        with pytest.raises(ConfigError, match=cid):
            _cfg(suite="all", checks=(cid,), local_dim=10, n_values=(5,)).validate()
    # fixed-length checks are held to their own n: 23^2 = 529 at n = 4,
    # over the 512 cap of the derivative form's dense operands
    with pytest.raises(ConfigError, match="derivative_form at n = 4"):
        _cfg(checks=("derivative_form",), local_dim=23).validate()
    # checks without the tensor layout still accept the configuration
    _cfg(suite="all", checks=("golden_thompson", "power_integral"),
         local_dim=10, n_values=(5,)).validate()


def test_config_rejects_pairing_over_cap():
    # validation only: the d^2 copy of pairing_identity forms X (x) Y^T of
    # dimension d^4, so d = 10 (10^4 > 6561) and d = 16 (65536, about 69 GB
    # per pair) are refused, and d = 9 (9^4 = 6561) passes
    with pytest.raises(ConfigError, match="pairing_identity at d = 10"):
        _cfg(checks=("pairing_identity",), local_dim=10).validate()
    with pytest.raises(ConfigError, match="pairing_identity at d = 16"):
        _cfg(suite="all", n_values=(3,), local_dim=16).validate()
    _cfg(checks=("pairing_identity",), local_dim=9).validate()


TENSOR_CHECKS = ("key_identity", "equivalence_integral_tensor", "commuting_equality",
                 "tensor_resolvent", "scaled_exponential")


@pytest.mark.parametrize("local_dim", [2, 3])
def test_tensor_checks_clean_on_wide_spectra(local_dim):
    # product operands reach condition 1e24 here; their spectrum comes
    # from the factors, so no false positivity error and no 1e-5 gap
    summary = run_campaign(_cfg(suite="all", checks=TENSOR_CHECKS, n_values=(3, 4, 5, 6),
                                local_dim=local_dim, trials=20, seed=2024,
                                lam_lo=1e-3, lam_hi=1e3))
    assert summary.trial_count == 340
    bad = [(r.check_id, r.n, r.seed, r.params.get("error"))
           for r in summary.reports if not r.passed]
    assert not bad


@pytest.mark.xfail(strict=True, reason="the half-line resolvent rule has no unit "
                   "scale: its smallest node, 3.6e-5, is near the eigenvalues of "
                   "X = A2^-1 on scaled spectra (ROADMAP item 1)")
@pytest.mark.parametrize("lam", [(1e3, 1e4), (1e4, 1e5)])
def test_commutator_chain_clean_on_scaled_spectra(lam):
    # condition 10 at most, as at the default spectrum, only scaled; the
    # two half-line routes agree with one another, not with the average
    summary = run_campaign(_cfg(suite="all", checks=("commutator_chain",), trials=30,
                                seed=2024, lam_lo=lam[0], lam_hi=lam[1]))
    assert summary.trial_count == 30 and summary.passed


def test_selected_checks_filters():
    specs = selected_checks(_cfg(suite="inequalities"))
    assert all(s.suite == "inequalities" for s in specs)
    only = selected_checks(_cfg(suite="all", checks=("golden_thompson",)))
    assert [s.check_id for s in only] == ["golden_thompson"]


def test_campaign_runs_and_passes():
    summary = run_campaign(_cfg(suite="all", trials=2))
    assert summary.passed
    assert summary.failure_count == 0
    assert summary.trial_count == len(summary.reports)
    ids = {row["check_id"] for row in summary.per_check}
    assert "beta_normalization" in ids
    assert "tensor_resolvent" in ids


def test_campaign_reports_sorted_and_seeded():
    summary = run_campaign(_cfg(suite="inequalities", trials=3))
    keys = [(r.check_id, r.n or -1, r.seed or -1) for r in summary.reports]
    assert keys == sorted(keys)
    gt = [r for r in summary.reports if r.check_id == "golden_thompson"]
    assert [r.seed for r in gt] == [77, 78, 79]
    # rows with equal keys keep the order their runner made them in
    from traceineq.campaign import SCALAR_GRID

    summary = run_campaign(_cfg(checks=("scalar_power_identity", "pairing_identity"),
                                parallel=2))
    pairing = [(r.seed, r.params["copies"]) for r in summary.reports
               if r.check_id == "pairing_identity"]
    assert pairing == [(77, 1), (77, 2), (78, 1), (78, 2)]
    scalar = [(r.params["x"], r.params["y"]) for r in summary.reports
              if r.check_id == "scalar_power_identity"]
    assert scalar == [(x, y) for x in SCALAR_GRID for y in SCALAR_GRID]


def test_campaign_deterministic_across_parallelism(tmp_path):
    out1 = str(tmp_path / "a" / "run")
    out2 = str(tmp_path / "b" / "run")
    run_campaign(_cfg(suite="identities", out=out1, parallel=1))
    run_campaign(_cfg(suite="identities", out=out2, parallel=2))
    body1 = Path(out1 + ".trials.jsonl").read_bytes()
    body2 = Path(out2 + ".trials.jsonl").read_bytes()
    assert body1 == body2
    summary1, summary2 = (Path(out + ".summary.csv").read_bytes() for out in (out1, out2))
    assert summary1 == summary2


def test_campaign_rerun_byte_identical(tmp_path):
    out = str(tmp_path / "run")
    run_campaign(_cfg(suite="inequalities", out=out))
    first = Path(out + ".trials.jsonl").read_bytes()
    run_campaign(_cfg(suite="inequalities", out=out))
    assert Path(out + ".trials.jsonl").read_bytes() == first
    # no wall-clock leakage into bodies
    assert b"runtime" not in first.lower()


def test_write_reports_needs_the_lines_the_tasks_made(tmp_path):
    from traceineq.campaign import write_reports

    cfg = _cfg(checks=("pairing_identity",))
    with pytest.raises(ValueError, match="no trial lines"):
        write_reports(replace(cfg, out=str(tmp_path / "run")), run_campaign(cfg))


@pytest.mark.parametrize("cfg_fmt, summary_fmt, out", [
    ("jsonl", "jsonl", None), ("csv", "jsonl", "run"), ("jsonl", "csv", "run")])
def test_write_reports_checks_its_arguments_before_writing(tmp_path, monkeypatch, cfg_fmt,
                                                           summary_fmt, out):
    # a cfg without out, or of the other format, raises before a file opens
    from traceineq.campaign import write_reports

    cfg = _cfg(checks=("pairing_identity",), fmt=summary_fmt, out=str(tmp_path / "run"))
    summary = run_campaign(cfg)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    match = "out is unset" if out is None else f"{summary_fmt}.*{cfg_fmt}"
    with pytest.raises(ValueError, match=match):
        write_reports(replace(cfg, fmt=cfg_fmt, out=out), summary)
    assert list(work.iterdir()) == []


def test_jsonl_structure(tmp_path):
    out = str(tmp_path / "run")
    run_campaign(_cfg(checks=("beta_normalization", "scalar_power_identity"),
                      out=out))
    lines = Path(out + ".trials.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert head["record"] == "config"
    assert head["config"]["seed"] == 77
    assert "out" not in head["config"]
    assert "parallel" not in head["config"]
    rows = [json.loads(line) for line in lines[1:]]
    assert all(row["record"] == "trial" for row in rows)
    assert all(row["passed"] for row in rows)


def test_csv_format(tmp_path):
    out = str(tmp_path / "run")
    run_campaign(_cfg(checks=("pairing_identity",), fmt="csv", out=out))
    lines = Path(out + ".trials.csv").read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert "check_id" in lines[1].split(",")
    assert len(lines) == 2 + 2 * 2  # header rows + trials x copies


EDGE_VALUES = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1.5)
MESSAGE = 'one, "two"\nthree \u00e9\u4e2d'


def _edge_runner(inputs, seeds, sides):
    """Reports holding edge values; a chunk holding seed 79 or 82 raises, so
    every trial runs alone and those two error rows sit among the others."""
    if 79 in seeds or 82 in seeds:
        raise UnknownCheck(MESSAGE)
    reports = []
    for seed in seeds:
        k = seed - 77
        reports.append(TrialReport(
            "key_identity", "identity", EDGE_VALUES[k % 7], EDGE_VALUES[(k + 3) % 7],
            EDGE_VALUES[(k + 5) % 7], EDGE_VALUES[(k + 1) % 7], 1e-9, 0.0 if k % 2 else -0.0,
            k % 2 == 0, None if k % 3 == 0 else 3, seed,
            {"x": np.float64(seed / 3), "flag": k % 2 == 1, "t_grid": [0.0, -0.0, 1e16],
             "gaps": [float(seed), math.nan], "note": MESSAGE if k == 6 else "plain"}))
    return reports


def _reference_lines(reports, fmt):
    """The trial lines as json.dumps and _csv_cell write each report's
    to_row(); for csv, the header and rows under the sorted union of columns."""
    if fmt == "jsonl":
        return [json.dumps({"record": "trial", **r.to_row()}, sort_keys=True) + "\n"
                for r in reports]
    rows = [{k: campaign._csv_cell(v) for k, v in r.to_row().items()} for r in reports]
    fields = sorted(set().union(*rows))
    return [",".join(map(campaign._csv_cell, fields)) + "\r\n"] + [
        ",".join(row.get(k, "") for k in fields) + "\r\n" for row in rows]


def _reference_totals(reports):
    """Each check's totals as a loop over its reports writes them: trials,
    failures and the worst gaps, NaN as the worst."""
    per_check = {}
    for r in reports:
        row = per_check.setdefault(r.check_id, {"check_id": r.check_id, "trials": 0,
                                                "failures": 0, "worst_abs_gap": 0.0,
                                                "worst_rel_gap": 0.0})
        row["trials"] += 1
        row["failures"] += not r.passed
        for key, gap in (("worst_abs_gap", r.abs_gap), ("worst_rel_gap", r.rel_gap)):
            if not math.isnan(row[key]) and (math.isnan(gap) or abs(gap) > row[key]):
                row[key] = abs(gap)
    return list(per_check.values())


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_trial_lines_are_the_rows_json_and_csv_write(tmp_path, monkeypatch, fmt):
    # formatted a column at a time, the lines are still those of each report
    # alone: on real rows, on edge values and on error rows among them
    out = str(tmp_path / "real")
    summary = run_campaign(_cfg(suite="all", n_values=(3, 4), trials=3, out=out, fmt=fmt))
    runs = [(summary, out)]
    monkeypatch.setitem(CHECKS, "key_identity", campaign.CheckSpec(
        "key_identity", "identities", "n", _edge_runner, description="x", formula="y"))
    out = str(tmp_path / "edge")
    summary = run_campaign(_cfg(checks=("key_identity", "beta_normalization"), trials=8,
                                out=out, fmt=fmt))
    kinds = [r.kind for r in summary.reports if r.check_id == "key_identity"]
    assert kinds == ["identity"] * 2 + ["error"] + ["identity"] * 2 + ["error"] + ["identity"] * 2
    runs.append((summary, out))
    for summary, out in runs:
        head, body = Path(f"{out}.trials.{fmt}").read_bytes().decode().split("\n", 1)
        assert "config" in head
        assert body == "".join(_reference_lines(summary.reports, fmt))
        assert summary.lines == _reference_lines(summary.reports, fmt)
        # the totals made from each group's columns are those of the reports
        assert type(summary.reports) is list and summary.reports is summary.reports
        assert repr(summary.per_check) == repr(_reference_totals(summary.reports))
        assert summary.trial_count == len(summary.reports)
        assert summary.failure_count == sum(not r.passed for r in summary.reports)


def test_params_json_cannot_hold_fail_the_writer(monkeypatch):
    def runner(inputs, seeds, sides):
        return [TrialReport("key_identity", "identity", 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, True,
                            3, seed, {"count": np.int64(seed)}) for seed in seeds]

    monkeypatch.setitem(CHECKS, "key_identity", campaign.CheckSpec(
        "key_identity", "identities", "n", runner, description="x", formula="y"))
    cfg = _cfg(checks=("key_identity",))
    assert run_campaign(cfg).passed  # nothing to write, nothing to fail
    with pytest.raises(TypeError, match="int64"):
        run_campaign(replace(cfg, out=os.devnull))


def _builtin(value):
    if isinstance(value, list):
        return all(map(_builtin, value))
    return type(value) in (str, int, float, bool, type(None))


def test_error_trial_recorded_not_fatal(tmp_path, monkeypatch):
    # a runner that raises must yield a failed trial row
    from traceineq import campaign as camp

    def boom(inputs, seeds, sides):
        raise UnknownCheck("synthetic failure")

    monkeypatch.setitem(
        camp.CHECKS, "beta_normalization",
        camp.CheckSpec("beta_normalization", "identities", None, boom,
                       draw=None, description="x", formula="y"))
    out = str(tmp_path / "run")
    summary = run_campaign(_cfg(suite="all", out=out))
    assert not summary.passed and summary.failure_count == 1
    assert summary.reports[0].kind == "error"
    assert "synthetic failure" in summary.reports[0].params["error"]
    # every row holds plain Python values, so the writers need no cleaning
    rows = [r.to_row() for r in summary.reports]
    assert {r["check_id"] for r in rows} == set(CHECKS)
    assert all(_builtin(v) for row in rows for v in row.values())
    assert len(Path(out + ".trials.jsonl").read_text().splitlines()) == 1 + len(rows)


def test_error_trial_keeps_its_row_n(monkeypatch):
    # an error trial of a fixed-length row reports that row's n, as the
    # row's evaluated trials do
    from traceineq import campaign as camp

    spec, bad = CHECKS["power_average_identity"], 78

    def sometimes(inputs, seeds, sides):
        if bad in seeds:
            raise UnknownCheck("synthetic failure")
        return spec.runner(inputs, seeds, sides)

    monkeypatch.setitem(camp.CHECKS, spec.check_id, replace(spec, runner=sometimes))
    summary = run_campaign(_cfg(suite="all", trials=3))
    errors = [(r.check_id, r.seed) for r in summary.reports if r.kind == "error"]
    assert errors == [("power_average_identity", bad)]
    for check_id, row in CHECKS.items():
        if isinstance(row.length, int):
            assert {r.n for r in summary.reports if r.check_id == check_id} == {row.length}


def test_linalg_error_trial_recorded_not_fatal(monkeypatch):
    from traceineq import campaign as camp

    def singular(inputs, seeds, sides):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(
        camp.CHECKS, "jensen_trace",
        camp.CheckSpec("jensen_trace", "inequalities", "n", singular,
                       description="x", formula="y"))
    summary = run_campaign(_cfg(suite="inequalities", checks=("jensen_trace",),
                                n_values=(3, 4)))
    assert not summary.passed
    assert summary.failure_count == summary.trial_count == 4
    assert [r.kind for r in summary.reports] == ["error"] * 4
    assert [r.n for r in summary.reports] == [3, 3, 4, 4]
    assert summary.reports[0].params["error"] == "LinAlgError: Singular matrix"


def test_summary_keeps_nan_gap_as_worst(monkeypatch):
    # each group totals its rows and the summary sums the groups; a NaN gap
    # first or last in either task's rows stays the check's worst gap
    from traceineq import campaign as camp
    from traceineq import identity_report

    bad = None

    def runner(inputs, seeds, sides):
        return [identity_report("key_identity", math.nan if seed == bad else 1.0,
                                1.0 + 1e-12, rtol=1e-9, seed=seed) for seed in seeds]

    monkeypatch.setitem(camp.CHECKS, "key_identity", camp.CheckSpec(
        "key_identity", "identities", "n", runner, description="x", formula="y"))
    cfg = _cfg(checks=("key_identity",), trials=40)
    first, second = camp._chunks(list(range(77, 77 + 40)), 2)  # the two tasks at parallel 2
    for bad in (first[0], first[-1], second[0], second[-1]):
        for parallel in (1, 2):
            row = run_campaign(replace(cfg, parallel=parallel)).per_check[0]
            assert row["trials"] == 40 and row["failures"] == 1
            assert math.isnan(row["worst_abs_gap"]) and math.isnan(row["worst_rel_gap"])
    bad = None
    row = run_campaign(cfg).per_check[0]
    clean = identity_report("key_identity", 1.0, 1.0 + 1e-12)
    assert row["failures"] == 0 and row["worst_abs_gap"] == clean.abs_gap
    assert type(row["worst_rel_gap"]) is float


def test_load_config_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("suite = inequalities\nn_values = 3, 4\ntrials = 5\n"
                    "# a comment\nlam_lo = 0.5\nchecks = golden_thompson\n")
    overrides = load_config_file(str(path))
    assert overrides == {"suite": "inequalities", "n_values": (3, 4),
                         "trials": 5, "lam_lo": 0.5,
                         "checks": ("golden_thompson",)}
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    bad.write_text("trials = many\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))


def test_config_file_keys_are_the_config_fields(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "suite = all\nchecks = golden_thompson, lieb_three\nn_values = 3 4\n"
        "local_dim = 3\ntrials = 7\nseed = 11\nlam_lo = 0.5\nlam_hi = 2\n"
        "parallel = 1\nout = reports/run\nfmt = csv\n")
    overrides = load_config_file(str(path))
    assert overrides == {
        "suite": "all", "checks": ("golden_thompson", "lieb_three"),
        "n_values": (3, 4), "local_dim": 3, "trials": 7, "seed": 11,
        "lam_lo": 0.5, "lam_hi": 2.0, "parallel": 1, "out": "reports/run",
        "fmt": "csv"}
    assert set(overrides) == set(CampaignConfig.__dataclass_fields__)
    assert isinstance(overrides["lam_hi"], float)
    assert CampaignConfig(**overrides).validate().lam_hi == 2.0


@pytest.mark.parametrize("line", ["trials = 3.5", "lam_lo = wide",
                                  "n_values = 3, four"])
def test_config_file_bad_value_names_line(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(f"# header\ntrials = 2\n{line}\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:3: "):
        load_config_file(str(path))


def test_verify_flags_map_onto_config_fields():
    args = build_parser().parse_args(
        ["verify", "--d", "3", "--n", "3", "5", "--check", "golden_thompson",
         "--check", "lieb_three", "--lam-min", "0.5", "--lam-max", "4",
         "--format", "csv"])
    assert (args.local_dim, args.n_values, args.checks) == \
        (3, [3, 5], ["golden_thompson", "lieb_three"])
    assert (args.lam_lo, args.lam_hi, args.fmt) == (0.5, 4.0, "csv")
    overrides = _flag_overrides(args)
    assert set(overrides) == set(CampaignConfig.__dataclass_fields__)
    assert overrides["n_values"] == (3, 5)
    assert overrides["checks"] == ("golden_thompson", "lieb_three")
    assert overrides["parallel"] is None
    assert overrides["trials"] is None


def test_config_from_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("TRACEINEQ_OUT", raising=False)
    cfg = config_from({"trials": 5, "seed": 1}, {"seed": 9, "out": None})
    assert cfg.trials == 5
    assert cfg.seed == 9
    assert cfg.out is None
    monkeypatch.setenv("TRACEINEQ_OUT", str(tmp_path))
    cfg = config_from({}, {})
    assert cfg.out == os.path.join(str(tmp_path), "report")
    # explicit flag beats the environment
    cfg = config_from({}, {"out": str(tmp_path / "x")})
    assert cfg.out == str(tmp_path / "x")


# ------------------------------------------------------------------ the CLI

CLI = [sys.executable, "-m", "traceineq.cli"]


def _run(*args, env=None):
    full_env = dict(os.environ)
    full_env.pop("TRACEINEQ_OUT", None)
    # the child runs the same copy of the package as this process
    src = os.path.dirname(os.path.dirname(traceineq.__file__))
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, full_env.get("PYTHONPATH")) if p)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=full_env)


def test_cli_verify_exit_zero(tmp_path):
    out = str(tmp_path / "run")
    proc = _run("verify", "--suite", "identities", "--n", "3",
                "--trials", "2", "--seed", "5", "--out", out, "--parallel", "1")
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout
    assert os.path.exists(out + ".trials.jsonl")
    assert os.path.exists(out + ".summary.csv")


def test_cli_env_var_output(tmp_path):
    proc = _run("verify", "--check", "beta_normalization", "--trials", "1",
                "--parallel", "1", env={"TRACEINEQ_OUT": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(str(tmp_path / "report.trials.jsonl"))


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("suite = identities\nn_values = 3\ntrials = 1\nseed = 3\n")
    proc = _run("verify", "--config", str(cfg), "--parallel", "1")
    assert proc.returncode == 0, proc.stderr


def test_cli_bad_inputs_exit_two(tmp_path, monkeypatch, capsys):
    # one case through the entry point; the rest in process through main
    proc = _run("verify", "--n", "99", "--parallel", "1")
    assert proc.returncode == 2
    assert "[3, 10]" in proc.stderr and "Traceback" not in proc.stderr
    monkeypatch.delenv("TRACEINEQ_OUT", raising=False)
    assert main(["explain", "--check", "nope"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert main(["verify", "--config", str(bad)]) == 2
    wide = tmp_path / "wide.cfg"
    wide.write_text("half_width = inf\n")
    bare = tmp_path / "bare.cfg"
    bare.write_text("suite identities\n")
    capsys.readouterr()
    for args, named in [(("--seed", "-1"), "seed"),
                        (("--parallel", "-1"), "parallel must be >= 0"),
                        (("--suite", "identities", "--check", "golden_thompson"),
                         "no checks selected"),
                        (("--config", str(bare)), "expected key = value"),
                        (("--config", str(tmp_path / "missing.cfg")),
                         "cannot read config file"),
                        (("--lam-max", "inf"), "lam_hi"),
                        (("--suite", "all", "--lam-min", "1e-7", "--lam-max", "1e7"),
                         "POSITIVITY_FLOOR"),
                        (("--config", str(wide)), "half_width"),
                        (("--check", "golden_thompson", "--check", "golden_thompson"),
                         "'golden_thompson'"),
                        (("--check", "power_integral", "--n", "3", "3"), "chain length 3")]:
        code = main(["verify", "--trials", "1", "--parallel", "1", *args])
        err = capsys.readouterr().err
        assert code == 2, (args, err)
        assert named in err and "Traceback" not in err
    with pytest.raises(ConfigError, match="bad configuration"):
        config_from({"bogus": 1}, {})


def test_cli_out_that_cannot_be_made_exits_two_before_any_trial(tmp_path, monkeypatch,
                                                               capsys):
    # a report prefix under a plain file: one error line and exit 2, the
    # status of a usage error, before the campaign runs a trial
    blocker = tmp_path / "f"
    blocker.write_text("")

    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(campaign, "_run_share", no_trials)
    assert main(["verify", "--check", "golden_thompson", "--trials", "2", "--parallel", "1",
                 "--out", str(blocker / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "File exists" in err


def test_cli_tensor_layout_over_cap_exits_two():
    proc = _run("verify", "--check", "tensor_resolvent", "--check",
                "commuting_equality", "--d", "10", "--n", "5", "--trials", "1",
                "--parallel", "1")
    assert proc.returncode == 2
    assert "exceeds cap 6561" in proc.stderr
    proc = _run("verify", "--check", "golden_thompson", "--d", "10", "--n", "5",
                "--trials", "1", "--parallel", "1")
    assert proc.returncode == 0, proc.stderr


def test_cli_verify_long_chains():
    # the layout reaches MAX_N = 10; d = 4 at n = 7 needs 4^8 > 6561
    proc = _run("verify", "--check", "tensor_resolvent", "--check", "key_identity",
                "--n", "7", "10", "--trials", "2", "--parallel", "1")
    assert proc.returncode == 0, proc.stderr
    proc = _run("verify", "--check", "tensor_resolvent", "--d", "4", "--n", "7",
                "--trials", "1", "--parallel", "1")
    assert proc.returncode == 2
    assert "exceeds cap 6561" in proc.stderr


def test_cli_verify_d3_at_the_cap():
    # d = 3 at n = 7 is D = 3^8 = 6561, the largest the factored routes take
    proc = _run("verify", "--d", "3", "--n", "7", "--check", "tensor_resolvent",
                "--check", "key_identity", "--trials", "1", "--parallel", "1")
    assert proc.returncode == 0, proc.stderr


def test_cli_explain_layout():
    proc = _run("explain", "--check", "tensor_resolvent", "--n", "5")
    assert proc.returncode == 0
    assert "identity pad" in proc.stdout
    assert "slot 2: A_2" in proc.stdout
    proc = _run("explain", "--check", "golden_thompson")
    assert proc.returncode == 0
    assert "Tr[A1 A2]" in proc.stdout


@pytest.mark.parametrize("check_id, other_n", [("derivative_form", 7),
                                               ("scaled_exponential", 9)])
def test_cli_explain_fixed_length_row_refuses_other_n(capsys, check_id, other_n):
    # a fixed-length row is rendered at its own length, never at --n
    assert main(["explain", "--check", check_id, "--n", str(other_n)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"fixed chain length n = 4, got --n {other_n}" in err
    assert main(["explain", "--check", check_id, "--n", "4"]) == 0
    at_own_n = capsys.readouterr().out
    assert main(["explain", "--check", check_id]) == 0
    assert capsys.readouterr().out == at_own_n
    assert "layout for n = 4," in at_own_n


@pytest.mark.parametrize("check_id, n, message", [
    ("power_integral", 99, "chain lengths must be in [3, 10]: (99,)"),
    ("key_identity", 99, "chain lengths must be in [3, 10]: (99,)"),
    ("power_integral", 2, "chain lengths must be in [3, 10]: (2,)"),
    ("beta_normalization", 7, "beta_normalization takes no chain, got --n 7"),
    ("pairing_identity", 3, "pairing_identity takes no chain, got --n 3"),
    ("golden_thompson", 5, "fixed chain length n = 2, got --n 5")])
def test_cli_explain_refuses_an_n_the_row_cannot_take(capsys, check_id, n, message):
    # an n-grid row takes verify's chain lengths, and a row without a chain none
    assert main(["explain", "--check", check_id, "--n", str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_cli_explain_derivative_form_keeps_the_dense_cap(capsys):
    # explain builds the layout verify would: d = 23 is 529 > DENSE_CAP = 512
    assert main(["explain", "--check", "derivative_form", "--d", "23"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "23^2 = 529 exceeds cap 512" in err
    assert main(["explain", "--check", "derivative_form", "--d", "22"]) == 0
    assert "total one-side dimension = 484" in capsys.readouterr().out


def test_cli_explain_keeps_the_pairing_cap(capsys):
    # explain checks a row's caps where verify does: X (x) Y^T at d^2 = 100
    # has dimension 10,000 > DIM_CAP, though the row builds no layout
    assert main(["verify", "--check", "pairing_identity", "--d", "10"]) == 2
    verify_err = capsys.readouterr().err
    assert main(["explain", "--check", "pairing_identity", "--d", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "exceeds cap 6561" in err and err == verify_err
    assert main(["explain", "--check", "pairing_identity", "--d", "9"]) == 0


@pytest.mark.parametrize("check_id, refused", [
    ("beta_normalization", None), ("power_integral", None), ("key_identity", 82),
    ("derivative_form", 23), ("pairing_identity", 10)])
def test_cli_explain_refuses_exactly_what_verify_refuses(capsys, check_id, refused):
    # explain renders an n-grid row at n = 4, so verify's validation runs at
    # n = 4 too; each row at d = 1, at the largest d it accepts and at the
    # smallest it refuses (a row without a cap at d = 2 and d = 100)
    points = (1, 2, 100) if refused is None else (1, refused - 1, refused)
    codes = []
    for d in points:
        try:
            config_from({}, {"checks": (check_id,), "n_values": (4,), "local_dim": d})
            expected = (0, "")
        except TraceIneqError as exc:
            expected = (2, f"error: {exc}\n")
        assert (main(["explain", "--check", check_id, "--d", str(d)]),
                capsys.readouterr().err) == expected, d
        codes.append(expected[0])
    assert codes == ([2, 0, 0] if refused is None else [2, 0, 2])


@pytest.mark.parametrize("check_id", [cid for cid, spec in CHECKS.items() if spec.size_rule])
def test_validation_refuses_where_the_route_raises(check_id):
    # at the row's longest chain and the smallest d validation refuses, the
    # row's route raises DimensionCap before it forms the operand the cap
    # names: its traced peak stays below a quarter of one D x D complex
    # matrix. One d below, the rule itself passes; the route is not run
    # there, where it takes seconds or hundreds of MB
    spec = CHECKS[check_id]
    n = MAX_N if spec.length == "n" else spec.length

    def config(d):
        return CampaignConfig(checks=(check_id,), n_values=(n or 3,), local_dim=d)

    def refused(d):
        try:
            config(d).validate()
        except ConfigError as exc:
            assert f"{check_id} at " in str(exc) and f"d = {d}:" in str(exc)
            return True
        return False

    d = next(d for d in range(2, 100) if refused(d))
    spec.size_rule(n, d - 1)
    inputs = campaign._draw(config(d), spec.draw, [5], n)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCap) as info:
            if spec.runner is None:
                compare(check_id, inputs, seed=[5])
            else:
                spec.runner(inputs, [5], {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = int(re.search(r"= (\d+) exceeds cap", str(info.value)).group(1))
    assert peak < 16 * size * size / 4, (peak, size)


def test_cli_perm_frozen_rows():
    proc = _run("perm", "--n", "7")
    assert proc.returncode == 0
    assert "slot 4: A_5" in proc.stdout
    assert "3 -> 5" in proc.stdout
    assert "padded slots = 3" in proc.stdout


def test_public_api_is_pinned():
    # a change to the public names shows up in this list; the other
    # names are imported from their modules
    assert traceineq.__all__ == [
        "CHECKS", "CampaignConfig", "CampaignSummary", "ConfigError", "DIM_CAP",
        "DimensionCap", "DimensionMismatch", "ImaginaryResidue", "InvalidRange",
        "MAX_N", "NonFinite", "NonPositiveEigenvalue", "NotHermitian", "PosDefMatrix",
        "StepTooLarge", "TraceIneqError", "TrialReport", "UnknownCheck", "beta_density",
        "chain_product_trace", "check_commutator_chain", "check_derivative_form",
        "check_equivalence", "check_key_identity", "check_penalized_trace_limit",
        "check_tensor_resolvent", "commutator_chain", "compare",
        "conjugated_power_average", "draw_posdef", "half_line_rule", "identity_report",
        "inequality_report", "lhs_exp_sum_log", "log_derivative_closed",
        "log_derivative_finite_difference", "log_derivative_quadrature",
        "pairing_check", "power_average_identity_check", "random_commuting_family",
        "real_line_rule", "rhs_golden_thompson", "rhs_lieb_three", "rhs_power_integral",
        "rhs_tensor_resolvent", "run_campaign", "scalar_identity_check",
        "scaled_exponential_lhs", "tensor_pair_trace",
    ]


def test_cli_version():
    proc = _run("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
