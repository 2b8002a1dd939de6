"""Wrappers around atlc's public layer functions: decision timing for the
untraced run, spans and counters for the traced run.

Modules import each other's functions by name, so a wrapper only sees the
calls made through the binding it replaces.  Every binding that refers to a
wrapped function is therefore replaced, in every atlc module, and the
caller bindings listed in ``LAYER_FUNCTIONS`` must exist: if a refactor
removes or re-binds one, installation fails instead of reporting zero.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import atlc

perf = time.perf_counter

# (layer module, function) -> modules that must call it through a binding
LAYER_FUNCTIONS = {
    ("robust_bounds", "stack_on_grid"): ("tau_select", "controller", "margin"),
    ("qp", "solve_qp"): ("tau_select", "controller"),
    ("constraints", "build_qp_instance"): ("tau_select", "controller"),
    ("margin", "margin_from_stack"): ("controller", "margin"),
    ("margin", "tau_star_scan"): ("margin", "cli"),
    ("sim", "integrate_fixed_horizon"): ("tau_select",),
    ("sim", "integrate_until_trigger"): ("controller",),
    ("tau_select", "select_tau"): ("controller",),
    ("tau_select", "solve_event_qp"): ("tau_select", "controller"),
    ("tau_select", "rollout_min_h"): ("tau_select",),
    ("controller", "compute_control"): ("controller",),
    ("controller", "simulate_closed_loop"): ("cli",),
    ("cli", "run_scenario"): ("cli",),
    ("cli", "write_trajectory_csv"): ("cli",),
    ("cli", "write_events_csv"): ("cli",),
    ("cli", "summary_from_trajectory_csv"): ("cli",),
}
# counted, not timed: one span per call would cost more than the call
RHS = ("model", "acc_dynamics_rhs")
DECISION = ("controller", "compute_control")
TRACED_LAYERS = sorted({layer for layer, _ in LAYER_FUNCTIONS})
ROLLOUT_SPAN = "sim.integrate_fixed_horizon"
TRIGGER_SPAN = "sim.integrate_until_trigger"


class BindingError(RuntimeError):
    """A function the benchmark wraps is gone or no longer bound where the
    benchmark expects its callers to find it."""


def _module(name: str):
    mod = sys.modules.get(f"atlc.{name}")
    if mod is None:
        raise BindingError(f"module atlc.{name} is not loaded")
    return mod


def _atlc_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "atlc" or k.startswith("atlc."))]


def bound_original(layer: str, name: str, callers):
    """The function ``atlc.<layer>.<name>``, after checking that every listed
    caller module still binds it; otherwise a wrapper would miss calls."""
    original = getattr(_module(layer), name, None)
    if original is None:
        raise BindingError(f"atlc.{layer}.{name} no longer exists")
    for caller in callers:
        if getattr(_module(caller), name, None) is not original:
            raise BindingError(
                f"atlc.{caller} no longer binds {name} from atlc.{layer}"
            )
    return original


def replace_everywhere(name: str, original, wrapper) -> None:
    """Point every atlc binding ``name`` of ``original`` at ``wrapper``."""
    for mod in _atlc_modules():
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


class DecisionRecorder:
    """Untraced probes: wall time of each control decision, and the log each
    closed loop returns (or carries on its abort exception)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.log = None

    def install(self) -> None:
        def time_decision(original):
            def timed(*args, **kwargs):
                start = perf()
                result = original(*args, **kwargs)
                self.latencies.append(perf() - start)
                return result
            return timed

        def capture_log(original):
            def capturing(*args, **kwargs):
                try:
                    self.log = original(*args, **kwargs)
                except (atlc.ZenoError, atlc.SimulationError) as exc:
                    self.log = exc.log
                    raise
                return self.log
            return capturing

        loop = ("controller", "simulate_closed_loop")
        decide = bound_original(*DECISION, LAYER_FUNCTIONS[DECISION])
        simulate = bound_original(*loop, LAYER_FUNCTIONS[loop])
        replace_everywhere(DECISION[1], decide, time_decision(decide))
        replace_everywhere(loop[1], simulate, capture_log(simulate))

    def reset(self) -> None:
        self.latencies = []
        self.log = None


@dataclass
class Tracer:
    """In-memory spans (name, start, end, parent span, decision id) plus
    per-layer counters, written out only when the benchmark ends."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    boxes: set = field(default_factory=set)  # (decision id, box) pairs
    stack: list = field(default_factory=list)
    decision: int = -1
    decisions: int = 0

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, args, kwargs, new_decision: bool = False):
        outer_decision = self.decision
        if new_decision:
            self.decision = self.decisions
            self.decisions += 1
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        record = [name, perf(), 0.0, parent, self.decision]
        self.spans.append(record)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf()
            self.stack.pop()
            self.decision = outer_decision

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def install(self) -> None:
        """Wrap every layer function; checks every binding before changing any."""
        originals = {key: bound_original(*key, callers)
                     for key, callers in LAYER_FUNCTIONS.items()}
        rhs = bound_original(*RHS, (RHS[0],))
        for (layer, name), original in originals.items():
            replace_everywhere(name, original, self._wrapper_for(layer, name)(original))
        replace_everywhere(RHS[1], rhs, self._count_rhs(rhs))

    def _wrapper_for(self, layer: str, name: str):
        span_name = f"{layer}.{name}"
        observe = {
            "solve_qp": self._after_solve_qp,
            "stack_on_grid": self._after_stack_on_grid,
            "select_tau": self._after_select_tau,
        }.get(name)
        new_decision = (layer, name) in (DECISION, ("margin", "tau_star_scan"))

        def make(original):
            def traced(*args, **kwargs):
                result = self.span(span_name, original, args, kwargs, new_decision)
                if observe is not None:
                    observe(args, result)
                return result
            return traced
        return make

    def _count_rhs(self, original):
        def counted(*args, **kwargs):
            where = self.current()
            if where == ROLLOUT_SPAN:
                self.add("model.rhs_evals.rollout")
            elif where == TRIGGER_SPAN:
                self.add("model.rhs_evals.trigger")
            return original(*args, **kwargs)
        return counted

    def _after_solve_qp(self, args, result) -> None:
        if result.status != "optimal":
            self.add("qp.solve_qp.infeasible")

    def _after_stack_on_grid(self, args, result) -> None:
        box = args[0]
        self.add("robust_bounds.lattice_points", int(result.points.shape[0]))
        self.boxes.add((self.decision, box.lower.tobytes(), box.upper.tobytes()))

    def _after_select_tau(self, args, result) -> None:
        self.add("tau_select.candidates", len(result.table))
        self.add("tau_select.feasible_candidates",
                 sum(1 for entry in result.table if entry.feasible))


def layer_summary(tracer: Tracer) -> dict:
    """Inclusive time and calls per wrapped function; self time per function
    and per layer (span duration minus the time its child spans cover)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
        calls[name] = calls.get(name, 0) + 1
    layer_self: dict[str, float] = {}
    for name, value in self_time.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + value
    return {"inclusive": inclusive, "self": self_time, "calls": calls,
            "layer_self": layer_self}


def span_share(tracer: Tracer, root_index: int, names) -> dict:
    """Share of one root span's wall time spent inside each named span.

    Spans are stored in start order and none of the named functions calls
    itself, so the named spans that start inside the root do not overlap.
    """
    spans = tracer.spans
    root_start, root_end = spans[root_index][1], spans[root_index][2]
    totals = dict.fromkeys(names, 0.0)
    for name, start, end, _, _ in spans[root_index + 1:]:
        if start > root_end:
            break
        if name in totals:
            totals[name] += end - start
    wall = root_end - root_start
    return {name: total / wall for name, total in totals.items()}
