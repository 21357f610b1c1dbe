"""The chunked campaign engine: stacked chains agree with single chains,
reports do not depend on the worker count, and an error in one trial of
a chunk lands on that trial's seed alone."""
import ast
import csv
import json
import multiprocessing
import os
import threading
from collections import Counter
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
from traceineq import campaign, entangle, frechet, inequalities, limits, quadrature
from traceineq.combinatorics import MAX_N
from traceineq.errors import DimensionMismatch, NonFinite
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


@pytest.mark.parametrize("d", [2, 3])
def test_swept_lengths_equal_separate_calls(d):
    # one sweep to MAX_N gives each prefix's integral form in the bits of a
    # separate call on that prefix, for a stack and for one chain, in the
    # order the lengths are asked for; chain_product_trace on a prefix is
    # the sweep's pointwise traces at that length
    stack = _stack(930 + d, 5, MAX_N, d)
    lengths = range(3, MAX_N + 1)
    swept = rhs_power_integral(stack, lengths=lengths)
    assert swept.shape == (len(lengths), 5)
    for m, values in zip(lengths, swept):
        assert values.tobytes() == rhs_power_integral(stack[:, :m]).tobytes()
    one = rhs_power_integral(stack[2], lengths=(MAX_N, 3))
    assert one.tolist() == [rhs_power_integral(stack[2][:m]) for m in (MAX_N, 3)]
    t = np.array([-1.5, 0.0, 0.4])
    traces = inequalities._power_traces(stack, t, lengths)
    for m, pointwise in zip(lengths, traces.swapaxes(0, 1)):
        assert chain_product_trace(stack[:, :m], t).tobytes() == pointwise.tobytes()
    with pytest.raises(DimensionMismatch, match=r"lengths in \[3, 5\]"):
        rhs_power_integral(stack[:, :5], lengths=(3, 6))


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


def _poison(monkeypatch, links):
    """campaign.draw_posdef, with A_k negated, so negative definite, in the
    chain of each seed of ``links`` {seed: k} (k 0-based) that reaches it."""
    real_draw = campaign.draw_posdef

    def draw(rngs, *args, **kwargs):
        mats = real_draw(rngs, *args, **kwargs).matrix.copy()
        for i, rng in enumerate(rngs):
            k = links.get(rng.bit_generator.seed_seq.entropy, len(mats[i]))
            if k < len(mats[i]):
                mats[i, k] *= -1.0
        return PosDefMatrix(mats)

    monkeypatch.setattr(campaign, "draw_posdef", draw)


def _fail_pairing(monkeypatch, bad_seed):
    """campaign.pairing_check, raising NonFinite on a stack that holds bad_seed."""
    real = campaign.pairing_check

    def pairing_check(x, y, copies, seed):
        if bad_seed in seed:
            raise NonFinite("synthetic")
        return real(x, y, copies=copies, seed=seed)

    monkeypatch.setattr(campaign, "pairing_check", pairing_check)


@pytest.mark.parametrize("check_id, lengths, error", [
    ("power_integral", (3, 4), "NonPositiveEigenvalue:"),
    ("pairing_identity", (None,), "NonFinite: synthetic")],
    ids=["power_integral", "pairing_identity"])
def test_error_in_one_trial_stays_on_its_seed(monkeypatch, check_id, lengths, error):
    # a row that raises reruns each trial on that trial's own draw: a chain
    # for power_integral, the pairing row's X and Y stacks for pairing_identity
    cfg = _engine_cfg(checks=(check_id,), n_values=(3, 4), trials=20)
    bad_seed = cfg.seed + 5
    clean = [r.to_row() for r in run_campaign(cfg).reports if r.seed != bad_seed]
    if check_id == "power_integral":
        _poison(monkeypatch, {bad_seed: 0})  # negative definite A_1
    else:
        _fail_pairing(monkeypatch, bad_seed)
    summary = run_campaign(cfg)
    errors = [r for r in summary.reports if r.kind == "error"]
    assert [(r.n, r.seed) for r in errors] == [(n, bad_seed) for n in lengths]
    for r in errors:
        assert r.params["error"].startswith(error)
    # the neighbours ran again one trial at a time, in the bits of the clean chunk
    others = [r for r in summary.reports if r.kind != "error"]
    assert len(others) == 2 * 19 and all(r.passed for r in others)
    assert [r.to_row() for r in others] == clean


def _leaves(inputs):
    """A draw's arrays, each with the chunk's trials on its first axis."""
    if isinstance(inputs, tuple):
        return [leaf for part in inputs for leaf in _leaves(part)]
    return [inputs.matrix if isinstance(inputs, PosDefMatrix) else inputs]


@pytest.mark.parametrize("draw", sorted(campaign.DRAWS))
def test_a_chunk_draws_its_seeds_lone_draws(draw):
    # every entry of the draw table: a chunk's inputs are, bit for bit, the
    # one-seed draws of its seeds, which is what a one-trial campaign draws
    assert {spec.draw for spec in campaign.CHECKS.values()} - {None} == set(campaign.DRAWS)
    chained = {spec.length is not None for spec in campaign.CHECKS.values()
               if spec.draw == draw}
    count = 4 if chained == {True} else None
    cfg, seeds = CampaignConfig(local_dim=3), list(range(700, 707))
    chunk = _leaves(campaign._draw(cfg, draw, seeds, count))
    lone = [_leaves(campaign._draw(cfg, draw, [seed], count)) for seed in seeds]
    assert chunk and all(len(one) == len(chunk) for one in lone)
    for k, stack in enumerate(chunk):
        assert len(stack) == len(seeds)
        for i, one in enumerate(lone):
            assert np.array_equal(stack[i], one[k][0])


def test_one_function_makes_the_generators():
    # every draw of a campaign, the error fallback's redraw too, takes its
    # generators from one function
    tree = ast.parse(Path(campaign.__file__).read_text())
    scopes = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    callers = []
    for call in ast.walk(tree):
        if (isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None))
                == "default_rng"):
            # the innermost function around the call, or the module itself
            inner = [node.name for node in scopes
                     if node.lineno <= call.lineno <= node.end_lineno]
            callers.append(inner[-1] if inner else "campaign")
    assert callers == ["_draw"]


def test_pool_maps_one_task_per_chunk(monkeypatch):
    pools, ran = [], []
    real_run_task = campaign._run_task

    class ThreadPool(ThreadPoolExecutor):
        """The pool's workers as threads of this process, so the tasks they
        run are recorded here; records the worker count asked for. Each
        submitted share waits until every share has started, so no thread
        runs two."""

        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            self.started = threading.Barrier(max_workers, timeout=30)
            super().__init__(max_workers, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            def share():
                self.started.wait()
                return fn(*args, **kwargs)

            return super().submit(share)

    def recording(cfg, rows, seeds, index):
        ran.append((index, seeds, threading.get_ident()))
        return real_run_task(cfg, rows, seeds, index)

    monkeypatch.setattr(campaign, "ProcessPoolExecutor", ThreadPool)
    monkeypatch.setattr(campaign, "_run_task", recording)
    monkeypatch.setattr(campaign, "MAX_CHUNK", 16)  # several chunks of 37 seeds
    checks = ("beta_normalization", "jensen_trace")
    seeds = [4_100 + i for i in range(37)]
    main = threading.get_ident()

    def tasks(workers):
        # the chunks of the seeds in order, one task each, as the chunk rule
        # cuts them; the rows without a draw run with the first
        return campaign._chunks(seeds, workers)

    serial = run_campaign(_engine_cfg(checks=checks, n_values=(3, 4)))
    # a serial run is share 0 of 1: its tasks in order, 3 chunks of at most 16 seeds
    assert pools == [] and ran == [(i, t, main) for i, t in enumerate(tasks(1))]
    assert len(ran) == 3
    for workers in (2, 3, 5, 64):
        pools.clear()
        ran.clear()
        summary = run_campaign(_engine_cfg(checks=checks, n_values=(3, 4), parallel=workers))
        assert summary.reports == serial.reports
        # every task runs once, at least one chunk per worker, and no more
        # workers than tasks; the pool has one worker fewer than the campaign
        assert sorted((i, t) for i, t, _ in ran) == list(enumerate(tasks(workers)))
        assert len(ran) >= min(workers, 37)
        step = min(workers, len(ran))
        assert pools == [step - 1]
        # this thread runs tasks 0, W, 2W, ...; each pool thread one other
        # residue class modulo W
        shares = {}
        for i, _, thread in ran:
            shares.setdefault(thread, set()).add(i)
        assert shares.pop(main) == set(range(0, len(ran), step))
        assert sorted(map(sorted, shares.values())) == [list(range(r, len(ran), step))
                                                        for r in range(1, step)]
    # a selection of deterministic rows only is one task, so no pool starts
    pools.clear()
    summary = run_campaign(_engine_cfg(checks=("beta_normalization",
                                               "scalar_power_identity"), parallel=4))
    assert summary.passed and pools == []


def test_spawned_workers_build_their_rows(monkeypatch):
    # a worker that was not forked builds its rows from its own import of
    # the library, and its share's reports are those of a serial run
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(campaign, "ProcessPoolExecutor",
                        partial(ProcessPoolExecutor, mp_context=spawn))
    cfg = _engine_cfg(checks=("beta_normalization", "jensen_trace"), n_values=(3, 4))
    serial = run_campaign(cfg)
    assert run_campaign(replace(cfg, parallel=3)).reports == serial.reports


def test_a_campaign_leaves_no_module_state(tmp_path):
    # every attribute of the campaign module is the same object after a
    # campaign as before it, serial or pooled
    missing = object()
    before = dict(vars(campaign))
    for parallel in (1, 2):
        cfg = _engine_cfg(checks=("beta_normalization", "jensen_trace"), n_values=(3,),
                          trials=8, parallel=parallel, out=str(tmp_path / f"p{parallel}"))
        assert run_campaign(cfg).passed
        after = vars(campaign)
        assert [name for name in before.keys() | after.keys()
                if after.get(name, missing) is not before.get(name, missing)] == []


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
    monkeypatch.setattr(campaign, "MAX_CHUNK", 16)  # 3 chunks of 37 seeds
    cfg = _engine_cfg(checks=None, n_values=(3, 4), trials=37)
    sizes = [len(chunk) for chunk in campaign._chunks(list(range(cfg.trials)), 1)]
    chunks = len(sizes)
    assert chunks == 3
    calls = {}

    def counting(name):
        real = getattr(campaign, name)

        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return call

    # rows per attribute: key_identity at two n; both commutator rows; the
    # pairing row once per dimension, d and d^2; one integral-form sweep
    # per draw kind, chains and commuting families
    per_chunk = {"draw_posdef": 1, "random_commuting_family": 1,
                 "check_key_identity": 2, "check_commutator_chain": 2,
                 "check_derivative_form": 1, "power_average_identity_check": 1,
                 "pairing_check": 2, "check_penalized_trace_limit": 1,
                 "rhs_power_integral": 2}
    for name in per_chunk:
        monkeypatch.setattr(campaign, name, counting(name))
    stacks = _recorded_eighs(monkeypatch)
    summary = run_campaign(cfg)
    assert summary.passed and summary.trial_count == 26 + 23 * 37
    assert calls == {name: count * chunks for name, count in per_chunk.items()}
    # one eigh of each kind's stack per chunk, which every prefix shares
    assert sorted(stacks) == sorted([(size, 4, 2, 2) for size in sizes] * 2)

    # the comparison rows at one chain length share its sides: on one chunk
    # the left side and the tensor form are evaluated once per chain length
    # they are compared at, and the integral form is one sweep of the n = 6
    # prefix that gives every length its value
    lengths = {}

    def recording(name):
        real = getattr(inequalities, name)

        def call(chain, *args, **kwargs):
            lengths.setdefault(name, []).append((chain.matrix.shape[1], *kwargs.values()))
            return real(chain, *args, **kwargs)
        return call

    for name in ("lhs_exp_sum_log", "rhs_power_integral", "rhs_tensor_resolvent"):
        monkeypatch.setattr(inequalities, name, recording(name))
    monkeypatch.setattr(campaign, "rhs_power_integral", inequalities.rhs_power_integral)
    stacks.clear()
    cfg = _engine_cfg(suite="inequalities", checks=None, trials=16)  # one chunk
    assert run_campaign(cfg).passed
    assert {name: sorted(n) for name, n in lengths.items()} == {
        "lhs_exp_sum_log": [(2,), (3,), (4,), (5,), (6,)],
        "rhs_power_integral": [(6, [3, 4, 5, 6])],
        "rhs_tensor_resolvent": [(3,), (4,), (5,), (6,)]}
    assert stacks == [(16, 6, 2, 2)]


def _recorded_eighs(monkeypatch):
    """The shapes of the stacks of chains, (K, n, d, d), that eigh is called on."""
    shapes, real = [], np.linalg.eigh

    def eigh(a, *args, **kwargs):
        if np.ndim(a) == 4:
            shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return shapes


def test_verdicts_and_json_run_per_row_not_per_trial(tmp_path, monkeypatch):
    # call counts, not timing bounds: every row makes one verdict call per
    # chunk (pairing_identity one per dimension), and no JSON encoder runs
    # once per trial
    monkeypatch.setattr(campaign, "MAX_CHUNK", 16)  # 3 chunks of 37 seeds
    calls = Counter()

    def counting(real, key):
        def call(*args, **kwargs):
            calls[key(args)] += 1
            return real(*args, **kwargs)
        return call

    for module in (campaign, inequalities, frechet, limits, entangle, quadrature):
        for name in ("identity_report", "inequality_report"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name),
                                                           lambda args: args[0]))
    cfg = _engine_cfg(checks=None, n_values=(3, 4), trials=37)
    assert run_campaign(cfg).passed
    expected = {spec.check_id: 3 * len(campaign._lengths(spec, cfg))
                * (2 if spec.check_id == "pairing_identity" else 1)
                for spec in campaign.CHECKS.values() if spec.draw is not None}
    assert calls == dict(expected, beta_normalization=1,
                         scalar_power_identity=len(campaign.SCALAR_GRID) ** 2)

    monkeypatch.setattr(json, "dumps", counting(json.dumps, lambda args: "json"))
    monkeypatch.setattr(campaign, "_JSON", counting(campaign._JSON, lambda args: "json"))
    monkeypatch.setattr(campaign, "MAX_CHUNK", 64)
    counts = []
    for trials in (8, 60):  # one chunk each
        calls.clear()
        run_campaign(_engine_cfg(suite="inequalities", checks=None, trials=trials,
                                 out=str(tmp_path / "run")))
        counts.append(calls["json"])
    assert counts[0] == counts[1]


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
    monkeypatch.setattr(campaign, "MAX_CHUNK", 16)  # several chunks of 37 seeds
    chunks = len(campaign._chunks(list(range(37)), 1))
    rows = {}
    for checks in (None, ("derivative_form",)):
        calls.clear()
        summary = run_campaign(_engine_cfg(checks=checks, n_values=(3, 4), trials=37))
        assert summary.passed
        rows[checks] = [json.dumps(r.to_row(), sort_keys=True) for r in summary.reports
                        if r.check_id == "derivative_form"]
        assert calls == ([] if checks is None else [4] * chunks) and chunks > 1
    assert len(rows[None]) == 37 and rows[None] == rows[("derivative_form",)]


def test_rows_do_not_depend_on_the_other_rows(monkeypatch):
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
    # a negative definite A_2 in one trial and A_6 in another: a side that
    # raises is not shared, so each comparison row's rows, error rows too,
    # are the same alone as inside the full campaign
    _poison(monkeypatch, {4_103: 1, 4_111: 5})
    full = rows(None, n_values=(3, 4, 6))
    for check_id in COMPARISONS:
        assert '"kind": "error"' in "".join(full[check_id])
        assert rows((check_id,), n_values=(3, 4, 6))[check_id] == full[check_id]


def test_a_matrix_past_n_errs_only_the_rows_that_take_it(monkeypatch):
    # a negative definite A_6 in one trial makes the chunk's shared eigh
    # raise: every prefix then decomposes and evaluates on its own, so the
    # trial's rows at n 3..5 keep their clean bytes and its n = 6 rows on
    # the chains are error rows, on that seed alone
    cfg = _engine_cfg(checks=None, trials=6)
    clean = run_campaign(cfg).reports
    bad_seed = cfg.seed + 2
    _poison(monkeypatch, {bad_seed: 5})
    poisoned = run_campaign(cfg).reports
    assert len(poisoned) == len(clean)
    changed = [(p.check_id, p.n, p.seed, p.kind) for c, p in zip(clean, poisoned)
               if c.to_row() != p.to_row()]
    grid = [cid for cid, spec in campaign.CHECKS.items()
            if spec.length == "n" and spec.draw == "haar"]
    assert sorted(changed) == sorted((cid, 6, bad_seed, "error") for cid in grid)
    # a sweep that raises is dropped too: each length evaluates its own
    monkeypatch.undo()
    real = campaign.rhs_power_integral

    def no_sweep(chain, lengths=None):
        if lengths is not None:
            raise NonFinite("sweep")
        return real(chain)

    monkeypatch.setattr(campaign, "rhs_power_integral", no_sweep)
    assert [r.to_row() for r in run_campaign(cfg).reports] == [r.to_row() for r in clean]


def test_comparison_table_is_the_runnerless_checks():
    # every two-sided check is a CHECKS row without a runner, at the
    # table's chain length, and its sides are library functions
    assert {cid for cid, spec in campaign.CHECKS.items() if spec.runner is None} == set(
        COMPARISONS)
    for check_id, row in COMPARISONS.items():
        assert campaign.CHECKS[check_id].length == row.length
        assert callable(getattr(inequalities, row.lhs))
        assert callable(getattr(inequalities, row.rhs))


def test_chunk_rule():
    # equal chunks of at most MAX_CHUNK seeds, and at least one per worker
    def sizes(trials, workers):
        chunks = campaign._chunks(list(range(trials)), workers)
        assert sum(chunks, []) == list(range(trials))
        return [len(c) for c in chunks]

    assert sizes(100, 1) == sizes(100, 2) == [50, 50]
    assert sizes(50, 1) == [50] and sizes(200, 1) == [50] * 4 and sizes(64, 1) == [64]
    assert sizes(65, 1) == [32, 33] and sizes(100, 3) == [33, 33, 34]
    assert sizes(2, 8) == [1, 1]
    for trials in range(1, 300):
        for workers in (1, 2, 3, 8):
            size = sizes(trials, workers)
            assert max(size) <= campaign.MAX_CHUNK and max(size) - min(size) <= 1
            assert len(size) >= min(trials, workers)


def _trial_rows(cfg):
    """The campaign's seeded trial rows, as (seed, bytes)."""
    return [(r.seed, json.dumps(r.to_row(), sort_keys=True)) for r in run_campaign(cfg).reports
            if campaign.CHECKS[r.check_id].draw is not None]


@pytest.mark.parametrize("d, n_values, trials, per_seed, workers",
                         [(2, (3, 4, 5, 6), 51, 35, ()), (3, (3, 5), 12, 23, (2, 3))])
def test_trial_bits_do_not_depend_on_the_chunk(monkeypatch, d, n_values, trials, per_seed,
                                               workers):
    # suite all, its seeds cut into chunks of 1, 7, 16 and 50: the same
    # trial bytes every time. Chunks of 1 run on the last 12 seeds, to keep
    # the test short. At d = 3 also at 2 and 3 workers, which cut it by
    # the chunk rule (suite all at d = 2 is test_report_bytes_do_not_depend_on_workers)
    cfg = _engine_cfg(checks=None, local_dim=d, n_values=n_values, trials=trials,
                      seed=50_000)
    serial = _trial_rows(cfg)
    assert len(serial) == per_seed * trials
    for parallel in workers:
        assert _trial_rows(replace(cfg, parallel=parallel)) == serial
    last = cfg.seed + trials - 12
    for size in (1, 7, 16, 50):
        monkeypatch.setattr(campaign, "_chunks", lambda seeds, workers: [
            seeds[i:i + size] for i in range(0, len(seeds), size)])
        if size == 1:
            part = replace(cfg, seed=last, trials=12)
            assert _trial_rows(part) == [row for row in serial if row[0] >= last]
        else:
            assert _trial_rows(cfg) == serial


def test_one_trial_campaign_reproduces_its_trial_line(tmp_path):
    # the reproducer of a trial, a campaign of that check, n and seed alone,
    # writes its trial line byte for byte as the full campaign wrote it
    cfg = _engine_cfg(checks=None, trials=50, out=str(tmp_path / "all"))
    lines = {}
    for line in run_campaign(cfg).lines:
        row = json.loads(line)
        lines.setdefault((row["check_id"], row["n"], row["seed"]), []).append(line)
    seeded = [(spec.check_id, n) for spec in campaign.CHECKS.values()
              if spec.draw is not None for n in campaign._lengths(spec, cfg)]
    assert len(seeded) == 34
    for i, (check_id, n) in enumerate(seeded):
        seed = cfg.seed + (7 * i) % cfg.trials
        one = run_campaign(replace(cfg, checks=(check_id,), trials=1, seed=seed,
                                   n_values=(n,) if n in cfg.n_values else (3,),
                                   out=str(tmp_path / "one")))
        assert one.lines == lines[(check_id, n, seed)]
