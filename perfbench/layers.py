"""Per-layer tracing of traceineq from outside the library.

While ``traced()`` is active, each public function in SPANS is replaced
by a wrapper under the module attribute its callers look it up by, so
``campaign.draw_posdef`` and ``limits.tensor_operands`` are wrapped
where ``campaign`` and ``limits`` find them. Every call records a span
in memory. A layer's self time is its spans' duration minus the time
covered by spans opened inside them, so the self times of all layers
add up to the root span, which the benchmark opens around each unit
of work. Nothing is written until the benchmark ends.

Spans are recorded in the benchmark process only. Pool workers forked
from it inherit the wrappers, which then call straight through.
"""
from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

from traceineq import campaign, frechet, inequalities, limits, quadrature
from traceineq.report import TrialReport

ROOT = "campaign"
POOL_START = "campaign.pool.start"
POOL_WAIT = "campaign.pool.wait"

# layer -> the (owner, attribute) pairs its callers look it up by
SPANS = {
    "linalg.draw_posdef": [(campaign, "draw_posdef")],
    "linalg.eigh": [(np.linalg, "eigh")],
    "quadrature.rules": [(mod, attr)
                         for mod in (campaign, inequalities, frechet, limits,
                                     quadrature)
                         for attr in ("real_line_rule", "half_line_rule")
                         if hasattr(mod, attr)],
    "inequalities.power_integral": [(inequalities, "rhs_power_integral"),
                                    (campaign, "rhs_power_integral")],
    "inequalities.lhs": [(inequalities, "lhs_exp_sum_log"),
                         (inequalities, "scaled_exponential_lhs"),
                         (campaign, "lhs_exp_sum_log")],
    "inequalities.tensor_operands": [(inequalities, "tensor_operands"),
                                     (limits, "tensor_operands")],
    "inequalities.tensor_resolvent": [(inequalities, "rhs_tensor_resolvent"),
                                      (campaign, "rhs_tensor_resolvent"),
                                      (limits, "rhs_tensor_resolvent")],
    "inequalities.key_identity": [(inequalities, "chain_product_trace"),
                                  (inequalities, "tensor_pair_trace")],
    "inequalities.closed_bounds": [(inequalities, "rhs_golden_thompson"),
                                   (inequalities, "rhs_lieb_three"),
                                   (campaign, "rhs_lieb_three")],
    "frechet.power_average": [(campaign, "power_average_identity_check"),
                              (limits, "conjugated_power_average")],
    "limits.commutator_chain": [(campaign, "check_commutator_chain")],
    "limits.derivative_form": [(campaign, "check_derivative_form")],
    "limits.penalized": [(campaign, "check_penalized_trace_limit")],
    "entangle.pairing": [(campaign, "pairing_check")],
    "report": [(mod, attr)
               for mod in (campaign, inequalities, frechet, limits, quadrature)
               for attr in ("identity_report", "inequality_report")
               if hasattr(mod, attr)] + [(TrialReport, "to_row")],
    "campaign.write_reports": [(campaign, "write_reports")],
}
# counted, not timed: their time stays with the span that calls them
COUNTS = {"entangle.layout": [(inequalities, "build_layout")]}

# (metric, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("linalg.draw_posdef.calls", "count", "lower"),
    ("linalg.draw_posdef.self_s", "s", "lower"),
    ("linalg.eigh.calls", "count", "lower"),
    ("linalg.eigh.self_s", "s", "lower"),
    ("linalg.eigh.per_trial", "calls/trial", "lower"),
    ("quadrature.rules.calls", "count", "lower"),
    ("quadrature.rules.self_s", "s", "lower"),
    ("quadrature.rules.per_run", "calls/run", "lower"),
    ("inequalities.power_integral.self_s", "s", "lower"),
    ("inequalities.lhs.self_s", "s", "lower"),
    ("inequalities.tensor_operands.calls", "count", "lower"),
    ("inequalities.tensor_operands.self_s", "s", "lower"),
    ("inequalities.tensor_operands.per_trial", "calls/trial", "lower"),
    ("inequalities.tensor_resolvent.self_s", "s", "lower"),
    ("inequalities.key_identity.self_s", "s", "lower"),
    ("inequalities.closed_bounds.self_s", "s", "lower"),
    ("frechet.power_average.self_s", "s", "lower"),
    ("limits.commutator_chain.self_s", "s", "lower"),
    ("limits.derivative_form.self_s", "s", "lower"),
    ("limits.penalized.self_s", "s", "lower"),
    ("entangle.pairing.self_s", "s", "lower"),
    ("entangle.layout.calls", "count", "lower"),
    ("report.self_s", "s", "lower"),
    ("campaign.write_reports.self_s", "s", "lower"),
    ("campaign.self_s", "s", "lower"),
    ("campaign.pool.start_s", "s", "lower"),
    ("campaign.pool.wait_s", "s", "lower"),
    ("campaign.blocks", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.accounted_share", "ratio", "higher"),
]


class Tracer:
    """Spans and counts of one traced stretch of the benchmark."""

    def __init__(self):
        self.pid = os.getpid()
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._stack: list[list] = []  # [name index, start, time in children]
        self.spans: list[tuple[int, float, float, int]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()

    def open(self, name: str) -> None:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        self._stack.append([idx, time.perf_counter(), 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        idx, start, children = self._stack.pop()
        duration = end - start
        name = self.names[idx]
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((idx, start, end, len(self._stack)))

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def wrap(self, name: str, fn):
        pid = self.pid

        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    def counted(self, name: str, fn):
        pid = self.pid

        def counting(*args, **kwargs):
            if os.getpid() == pid:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return counting

    def pool_class(self):
        """ProcessPoolExecutor that times, on the parent side, start-up
        (construction through the first submit, which forks the workers)
        and waiting (every result() and the final shutdown)."""
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.open(POOL_START)
                self._starting = True
                try:
                    super().__init__(*args, **kwargs)
                except BaseException:
                    self._end_start()
                    raise

            def _end_start(self):
                if self._starting:
                    self._starting = False
                    tracer.close()

            def submit(self, fn, /, *args, **kwargs):
                try:
                    future = super().submit(fn, *args, **kwargs)
                finally:
                    self._end_start()
                tracer.calls["campaign.blocks"] += 1
                future.result = tracer.wrap(POOL_WAIT, future.result)
                return future

            def shutdown(self, *args, **kwargs):
                self._end_start()
                with tracer.span(POOL_WAIT):
                    super().shutdown(*args, **kwargs)

        return TracedPool

    def save(self, path) -> None:
        """Write every span: layer index, start, end and nesting depth."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(self.names),
                            layer=arr[:, 0].astype(np.int16), start=arr[:, 1],
                            end=arr[:, 2], depth=arr[:, 3].astype(np.int16))


@contextmanager
def traced():
    """Install the wrappers for the duration of the block."""
    tracer = Tracer()
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for layer, targets in SPANS.items():
            for owner, attr in targets:
                patch(owner, attr, tracer.wrap(layer, getattr(owner, attr)))
        for name, targets in COUNTS.items():
            for owner, attr in targets:
                patch(owner, attr, tracer.counted(name, getattr(owner, attr)))
        patch(campaign, "ProcessPoolExecutor", tracer.pool_class())
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, traced_walls: list[float],
                  untraced_walls: list[float], trials: int) -> dict[str, float]:
    """Per-layer metrics for one unit of work (a campaign run, or one
    pass over the chains), averaged over the traced units whose walls
    are given; ``trials`` is their total trial count."""
    units = len(traced_walls)
    traced_wall = sum(traced_walls) / units
    untraced_wall = sum(untraced_walls) / len(untraced_walls)
    calls, self_s = tracer.calls, tracer.self_s
    values = {
        "quadrature.rules.per_run": calls["quadrature.rules"] / units,
        "linalg.eigh.per_trial": calls["linalg.eigh"] / trials,
        "inequalities.tensor_operands.per_trial":
            calls["inequalities.tensor_operands"] / trials,
        "campaign.pool.start_s": self_s[POOL_START] / units,
        "campaign.pool.wait_s": self_s[POOL_WAIT] / units,
        "campaign.blocks": calls["campaign.blocks"] / units,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.wall_s": traced_wall,
        "trace.accounted_share": sum(self_s.values()) / units / traced_wall,
    }
    for metric, _, _ in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = calls[layer] / units
        elif kind == "self_s":
            values[metric] = self_s[layer] / units
    reported = {m.rpartition(".")[0] for m, _, _ in PER_LAYER
                if m.endswith(".self_s")} | {POOL_START, POOL_WAIT}
    unreported = set(self_s) - reported
    if unreported:
        raise RuntimeError(f"spans without a metric: {sorted(unreported)}")
    return {metric: values[metric] for metric, _, _ in PER_LAYER}
