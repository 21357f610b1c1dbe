"""The chunked campaign engine: stacked chains agree with single chains,
reports do not depend on the worker count, and an error in one trial of
a chunk lands on that trial's seed alone."""
import csv
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from traceineq import (
    CampaignConfig,
    PosDefMatrix,
    chain_product_trace,
    check_commutator_chain,
    check_derivative_form,
    check_equivalence,
    check_key_identity,
    check_tensor_resolvent,
    compare,
    draw_posdef,
    identity_report,
    lhs_exp_sum_log,
    power_average_identity_check,
    random_commuting_family,
    rhs_lieb_three,
    rhs_power_integral,
    rhs_tensor_resolvent,
    run_campaign,
    scaled_exponential_lhs,
    tensor_pair_trace,
)
from traceineq import campaign, inequalities, limits
from traceineq.errors import NonFinite
from traceineq.inequalities import COMPARISONS
from traceineq.quadrature import beta_density

STACKED = ("golden_thompson", "lieb_three", "power_integral", "tensor_resolvent",
           "scaled_exponential", "jensen_trace", "equivalence_integral_tensor",
           "lieb_equivalence", "key_identity", "commuting_equality",
           "commutator_chain_commuting", "derivative_form", "commutator_chain",
           "power_average_identity")
# rows that draw commuting families, and rows whose lhs is a residual (rhs 0),
# which are called on the chain's links A_1, A_2 rather than on the chains
COMMUTING = ("commuting_equality", "commutator_chain_commuting")
RESIDUAL = ("commutator_chain", "commutator_chain_commuting", "power_average_identity")


def _stack(seed0, count, n, d=2):
    return draw_posdef([np.random.default_rng(seed0 + i) for i in range(count)],
                       d, count=n)


def _singles(stack, n):
    return [[stack[i, k] for k in range(n)] for i in range(stack.matrix.shape[0])]


def _close(a, b, rel=1e-13):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def test_stacked_draw_matches_lone_draws():
    stack = _stack(900, 5, 4, d=3)
    assert stack.matrix.shape == (5, 4, 3, 3)
    for i in range(5):
        rng = np.random.default_rng(900 + i)
        for k in range(4):
            lone = draw_posdef(rng, 3).matrix
            assert np.allclose(stack.matrix[i, k], lone, rtol=1e-14, atol=1e-14)
    # a shorter chain is, bit for bit, a prefix of the longer draw
    assert np.array_equal(_stack(900, 5, 6)[:, :3].matrix, _stack(900, 5, 3).matrix)


def test_stacked_commuting_families_match_lone_calls():
    gens = [np.random.default_rng(930 + i) for i in range(5)]
    stack = random_commuting_family(3, 4, gens, (0.01, 100.0))
    assert isinstance(stack, PosDefMatrix) and stack.matrix.shape == (5, 4, 3, 3)
    for i in range(5):
        lone = random_commuting_family(3, 4, 930 + i, (0.01, 100.0))
        assert len(lone) == 4
        for k, member in enumerate(lone):
            assert np.allclose(stack.matrix[i, k], member.matrix, rtol=1e-14, atol=1e-14)
    longer, shorter = (random_commuting_family(
        2, count, [np.random.default_rng(930 + i) for i in range(5)]) for count in (6, 3))
    assert np.array_equal(longer[:, :3].matrix, shorter.matrix)


def test_indexing_shares_the_decomposition():
    stack = _stack(910, 3, 4)
    dec = stack.spectral
    part = stack[:, 2]
    assert part.matrix.shape == (3, 2, 2)
    assert np.array_equal(part.spectral.eigenvalues, dec.eigenvalues[:, 2])
    assert np.array_equal(part.spectral.eigenvectors, dec.eigenvectors[:, 2])
    assert np.array_equal(stack[1, 0].matrix, stack.matrix[1, 0])


def _old_power_integral(mats, rule, power):
    """The integral form with explicit power stacks, one matrix at a time."""
    z = 0.5 * (1.0 + 1j * rule.nodes)
    mid = np.broadcast_to(mats[0].matrix, rule.nodes.shape + mats[0].matrix.shape)
    for m in mats[1:-1]:
        stack = power(m.matrix, z)
        mid = stack @ mid @ stack.conj().transpose(0, 2, 1)
    traces = np.einsum("ij,tji->t", mats[-1].matrix, mid)
    return np.dot(rule.weights * beta_density(rule.nodes), traces).real


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_power_integral_matches_explicit_power_stacks(n, beta_rule, spectral_power):
    stack = _stack(920 + n, 6, n)
    values = rhs_power_integral(stack)
    for value, mats in zip(values, _singles(stack, n)):
        assert _close(value, _old_power_integral(mats, beta_rule, spectral_power))


@pytest.mark.parametrize("d, n", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 5)])
def test_stacked_sides_equal_single_chain_calls(d, n):
    # 17 chains: more than one slice of the stack at d = 3, n = 5 (D = 81)
    stack = _stack(1000 * d + n, 17, n, d)
    singles = _singles(stack, n)
    sides = [lhs_exp_sum_log, scaled_exponential_lhs, rhs_tensor_resolvent,
             rhs_power_integral, lambda c: chain_product_trace(c, 0.7),
             lambda c: tensor_pair_trace(c, -2.0)]
    for side in sides:
        stacked = side(stack)
        assert stacked.shape == (17,)
        for value, mats in zip(stacked, singles):
            single = side(mats)
            assert isinstance(single, float)
            assert _close(value, single)


def _lone_commuting_equality(fam, seed):
    """commuting_equality on one family, one library call per form."""
    lhs = lhs_exp_sum_log(fam)
    values = [rhs_power_integral(fam), rhs_tensor_resolvent(fam)]
    if len(fam) == 3:
        values.append(rhs_lieb_three(fam))
    worst = max(values, key=lambda v: abs(v - lhs))
    return identity_report("commuting_equality", lhs, worst, rtol=1e-8, n=len(fam),
                           seed=seed, params={"forms": len(values)})


def _stacked_and_single(check_id, stack, seeds):
    """The check on the stack, and on each chain alone."""
    calls = {
        "golden_thompson": lambda c, s: compare("golden_thompson", c, seed=s),
        "lieb_three": lambda c, s: compare("lieb_three", c, seed=s),
        "power_integral": lambda c, s: compare("power_integral", c, seed=s),
        "tensor_resolvent": lambda c, s: check_tensor_resolvent(c, seed=s),
        "scaled_exponential": lambda c, s: compare("scaled_exponential", c, seed=s),
        "jensen_trace": lambda c, s: compare("jensen_trace", c, seed=s),
        "equivalence_integral_tensor": lambda c, s: check_equivalence(c, seed=s),
        "lieb_equivalence": lambda c, s: compare("lieb_equivalence", c, seed=s),
        "key_identity": lambda c, s: check_key_identity(c, seed=s),
        "derivative_form": lambda c, s: check_derivative_form(c, seed=s),
        "commutator_chain": lambda c, s: check_commutator_chain(c[0], c[1], seed=s),
        "commutator_chain_commuting": lambda c, s: check_commutator_chain(
            c[0], c[1], atol=1e-12, seed=s, check_id="commutator_chain_commuting"),
        "power_average_identity": lambda c, s: power_average_identity_check(
            c[0].matrix, c[1], seed=s),
    }
    n = stack.matrix.shape[1]
    as_links = [stack[:, k] for k in range(n)]
    singles = _singles(stack, n)
    if check_id == "commuting_equality":  # a campaign runner, not a library check
        return (campaign._commuting_equality(stack, seeds),
                [_lone_commuting_equality(m, s) for m, s in zip(singles, seeds)])
    call = calls[check_id]
    stacked = call(as_links if check_id in RESIDUAL else stack, seeds)
    return stacked, [call(mats, s) for mats, s in zip(singles, seeds)]


@pytest.mark.parametrize("check_id", STACKED)
def test_stacked_checks_equal_single_chain_checks(check_id):
    length = campaign.CHECKS[check_id].length
    n = 5 if length == "n" else length
    seeds = list(range(300, 316))
    if check_id in COMMUTING:
        stack = random_commuting_family(2, n, [np.random.default_rng(s) for s in seeds])
    else:
        stack = _stack(300, 16, n)
    stacked, singles = _stacked_and_single(check_id, stack, seeds)
    assert len(stacked) == 16
    for rep, one, seed in zip(stacked, singles, seeds):
        assert rep.check_id == one.check_id == check_id
        assert rep.seed == one.seed == seed
        assert rep.n == one.n == n
        assert rep.passed and one.passed
        if check_id in RESIDUAL:
            # lhs is a roundoff-level residual; rel_gap is it per unit of the
            # verdict's scale, which is what 1e-13 relative bounds here
            assert rep.rhs == one.rhs == 0.0
            assert abs(rep.rel_gap - one.rel_gap) <= 1e-13
        else:
            assert _close(rep.lhs, one.lhs) and _close(rep.rhs, one.rhs)


def _engine_cfg(**kw):
    base = dict(suite="all", checks=STACKED, n_values=(3, 4, 5, 6), trials=37,
                seed=4_100, parallel=1, fmt="jsonl")
    base.update(kw)
    return CampaignConfig(**base)


def test_report_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    # suite all at 37 trials: two full chunks and a partial one, split
    # across workers; 26 deterministic trials and 35 per seed. key_identity
    # raises on one seed, so only its groups in that seed's chunk carry an
    # error row and the p_error column, with text csv has to quote
    bad_seed, message = 4_100 + 20, 'synthetic, "quoted"\nfailure'
    real = campaign.check_key_identity

    def failing(chains, seed):
        if bad_seed in seed:
            raise NonFinite(message)
        return real(chains, seed=seed)

    monkeypatch.setattr(campaign, "check_key_identity", failing)
    for fmt in ("jsonl", "csv"):
        digests = set()
        for workers in (1, 2, 3):
            out = tmp_path / f"{fmt}{workers}"
            summary = run_campaign(_engine_cfg(checks=None, parallel=workers,
                                               out=str(out), fmt=fmt))
            assert summary.trial_count == 26 + 35 * 37
            assert summary.failure_count == 4  # key_identity at n = 3..6
            digests.add(Path(f"{out}.trials.{fmt}").read_bytes()
                        + Path(f"{out}.summary.csv").read_bytes())
        assert len(digests) == 1
    with open(f"{out}.trials.csv", newline="") as fh:
        fh.readline()  # the config echo
        rows = list(csv.DictReader(fh))
    assert [(r["n"], r["seed"], r["p_error"]) for r in rows if r["p_error"]] == [
        (str(n), str(bad_seed), f"NonFinite: {message}") for n in (3, 4, 5, 6)]


def test_error_in_one_trial_stays_on_its_seed(monkeypatch):
    cfg = _engine_cfg(checks=("power_integral",), n_values=(3, 4), trials=20)
    clean = {(r.n, r.seed): r for r in run_campaign(cfg).reports}
    bad_seed = cfg.seed + 5
    real_draw = campaign.draw_posdef

    def draw_with_one_bad_chain(rngs, *args, **kwargs):
        stack = real_draw(rngs, *args, **kwargs)
        seeds = [rng.bit_generator.seed_seq.entropy for rng in rngs]
        if bad_seed not in seeds:
            return stack
        mats = stack.matrix.copy()
        mats[seeds.index(bad_seed), 0] *= -1.0  # negative definite A_1
        return PosDefMatrix(mats)

    monkeypatch.setattr(campaign, "draw_posdef", draw_with_one_bad_chain)
    summary = run_campaign(cfg)
    errors = [r for r in summary.reports if r.kind == "error"]
    assert [(r.n, r.seed) for r in errors] == [(3, bad_seed), (4, bad_seed)]
    for r in errors:
        assert r.params["error"].startswith("NonPositiveEigenvalue:")
    others = [r for r in summary.reports if r.kind != "error"]
    assert len(others) == 2 * 19
    for r in others:
        ref = clean[(r.n, r.seed)]
        assert r.passed and _close(r.lhs, ref.lhs) and _close(r.rhs, ref.rhs)


def test_pool_maps_one_task_per_chunk(monkeypatch):
    pools, ran = [], []
    real_run_task = campaign._run_task

    class ThreadPool(ThreadPoolExecutor):
        """The pool's workers as threads of this process, so the tasks they
        claim are recorded here; records the worker count asked for."""

        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    def recording(task, index):
        ran.append((index, task))
        return real_run_task(task, index)

    monkeypatch.setattr(campaign, "ProcessPoolExecutor", ThreadPool)
    monkeypatch.setattr(campaign, "_run_task", recording)
    checks = ("beta_normalization", "jensen_trace")
    serial = run_campaign(_engine_cfg(checks=checks, n_values=(3, 4)))
    # the deterministic rows as one task, then the three chunks of the 37
    # seeds in order, one task each; a serial run claims them in order
    seeds = [4_100 + i for i in range(37)]
    tasks = [(True, [4_100])] + [(False, seeds[i:i + campaign.CHUNK]) for i in (0, 16, 32)]
    assert pools == [] and ran == list(enumerate(tasks))
    for workers in (2, 3, 5, 64):
        pools.clear()
        ran.clear()
        summary = run_campaign(_engine_cfg(checks=checks, n_values=(3, 4), parallel=workers))
        assert summary.reports == serial.reports
        # every task runs once, in this process or in the pool, which has one
        # worker fewer than the campaign; no more workers than tasks
        assert sorted(ran) == list(enumerate(tasks))
        assert pools == [min(workers, 4) - 1]
    # a selection of deterministic rows only is one task, so no pool starts
    pools.clear()
    summary = run_campaign(_engine_cfg(checks=("beta_normalization",
                                               "scalar_power_identity"), parallel=4))
    assert summary.passed and pools == []


def test_spawned_workers_share_the_counter(monkeypatch):
    # a worker that was not forked gets the counter and builds its rows
    # through the pool's initializer
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(campaign, "multiprocessing", spawn)
    monkeypatch.setattr(campaign, "ProcessPoolExecutor",
                        partial(ProcessPoolExecutor, mp_context=spawn))
    cfg = _engine_cfg(checks=("beta_normalization", "jensen_trace"), n_values=(3, 4))
    serial = run_campaign(cfg)
    assert run_campaign(replace(cfg, parallel=3)).reports == serial.reports


def test_parallel_zero_counts_usable_cores(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started with one usable core")

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(campaign, "ProcessPoolExecutor", no_pool)
    assert run_campaign(_engine_cfg(checks=("jensen_trace",), parallel=0)).passed


def test_no_child_outlives_a_campaign(monkeypatch):
    cfg = _engine_cfg(checks=("jensen_trace",), n_values=(3,), trials=64, parallel=2)
    assert run_campaign(cfg).passed
    assert multiprocessing.active_children() == []
    # an exception that is no library error, in this process's own share of
    # the tasks, propagates; the pool's worker is still joined
    parent, real = os.getpid(), campaign.compare

    def raising_here(*args, **kwargs):
        if os.getpid() == parent:
            raise RuntimeError("not a library error")
        return real(*args, **kwargs)

    monkeypatch.setattr(campaign, "compare", raising_here)
    with pytest.raises(RuntimeError, match="not a library error"):
        run_campaign(cfg)
    assert multiprocessing.active_children() == []


def test_identity_rows_make_one_call_per_chunk(monkeypatch):
    # a call count, not a timing bound: each chunk draws its chains and its
    # commuting families once, and each per-trial identity row makes its
    # library call once per chunk
    cfg = _engine_cfg(checks=None, n_values=(3, 4), trials=37)
    chunks = -(-cfg.trials // campaign.CHUNK)
    calls = {}

    def counting(name):
        real = getattr(campaign, name)

        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return call

    # rows per attribute: key_identity at two n; both commutator rows
    per_chunk = {"draw_posdef": 1, "random_commuting_family": 1,
                 "check_key_identity": 2, "check_commutator_chain": 2,
                 "check_derivative_form": 1, "power_average_identity_check": 1}
    for name in per_chunk:
        monkeypatch.setattr(campaign, name, counting(name))
    summary = run_campaign(cfg)
    assert summary.passed and summary.trial_count == 26 + 23 * 37
    assert calls == {name: count * chunks for name, count in per_chunk.items()}

    # the comparison rows at one chain length share its sides: on one chunk
    # each side is evaluated once per chain length it is compared at
    lengths = {}

    def recording(name):
        real = getattr(inequalities, name)

        def call(chain, *args):
            lengths.setdefault(name, []).append(chain.matrix.shape[1])
            return real(chain, *args)
        return call

    for name in ("lhs_exp_sum_log", "rhs_power_integral", "rhs_tensor_resolvent"):
        monkeypatch.setattr(inequalities, name, recording(name))
    cfg = _engine_cfg(suite="inequalities", checks=None, trials=campaign.CHUNK)
    assert run_campaign(cfg).passed
    assert {name: sorted(n) for name, n in lengths.items()} == {
        "lhs_exp_sum_log": [2, 3, 4, 5, 6], "rhs_power_integral": [3, 4, 5, 6],
        "rhs_tensor_resolvent": [3, 4, 5, 6]}


def test_derivative_form_takes_the_stored_tensor_side(monkeypatch):
    # a call count: inside suite all the comparison rows have evaluated the
    # tensor form on the n = 4 chains, and the derivative form reads it from
    # the chunk's sides; alone it evaluates it once per chunk. Its rows are
    # the same bytes either way
    calls = []
    real = limits.rhs_tensor_resolvent

    def counting(chain):
        calls.append(chain.matrix.shape[1])
        return real(chain)

    monkeypatch.setattr(limits, "rhs_tensor_resolvent", counting)
    rows = {}
    for checks in (None, ("derivative_form",)):
        calls.clear()
        summary = run_campaign(_engine_cfg(checks=checks, n_values=(3, 4), trials=37))
        assert summary.passed
        rows[checks] = [json.dumps(r.to_row(), sort_keys=True) for r in summary.reports
                        if r.check_id == "derivative_form"]
        assert calls == ([] if checks is None else [4] * 3)
    assert len(rows[None]) == 37 and rows[None] == rows[("derivative_form",)]


def test_rows_do_not_depend_on_the_other_rows():
    # the shared draw is cut to each row's length: a check's rows are the
    # same bytes alone as next to longer chains and commuting families
    def rows(checks, **kw):
        summary = run_campaign(_engine_cfg(checks=checks, trials=20, **kw))
        out = {}
        for r in summary.reports:
            out.setdefault(r.check_id, []).append(json.dumps(r.to_row(), sort_keys=True))
        return out

    mixed = rows(("golden_thompson", "power_integral", "commuting_equality",
                  "commutator_chain_commuting"), n_values=(3, 6))
    for check_id in ("golden_thompson", "commutator_chain_commuting"):
        alone = rows((check_id,), n_values=(3, 6))[check_id]
        assert len(alone) == 20 and alone == mixed[check_id]
    # chains past the positivity floor: a side that raises is not shared,
    # so each comparison row's rows, error rows too, are the same alone as
    # inside the full campaign
    wide = dict(n_values=(3, 4, 6), lam_lo=1e-7, lam_hi=1e7)
    full = rows(None, **wide)
    for check_id in COMPARISONS:
        assert '"kind": "error"' in "".join(full[check_id])
        assert rows((check_id,), **wide)[check_id] == full[check_id]


def test_comparison_table_is_the_runnerless_checks():
    # every two-sided check is a CHECKS row without a runner, at the
    # table's chain length, and its sides are library functions
    assert {cid for cid, spec in campaign.CHECKS.items() if spec.runner is None} == set(
        COMPARISONS)
    for check_id, row in COMPARISONS.items():
        assert campaign.CHECKS[check_id].length == row.length
        assert callable(getattr(inequalities, row.lhs))
        assert callable(getattr(inequalities, row.rhs))
