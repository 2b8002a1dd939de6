"""Event-triggered closed loop for the three controller variants.

At each event the state is measured, the trigger box is rebuilt around it,
the variant's QP is solved (or the adaptive time-scale selection run), and
the resulting input is held constant until the state exits the box or the
final time is reached.  When the QP is infeasible the input falls back to
maximum braking and feasibility is re-tested at the next event, so the
event-triggered structure is preserved through fallback phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    OBJECTIVES,
    build_clf_row,
    build_hocbf_row,
    build_qp_instance,
    build_tlc_row,
    row_margin,
)
from .margin import margin_from_stack
from .model import (
    CLF_FORMS,
    AccParams,
    SystemModel,
    acc_model,
    make_state,
    resistance_force,
)
from .qp import QpSolution, solve_qp
from .robust_bounds import BoundConfig, Box, make_box, stack_on_grid
from .sim import IntegratorConfig, integrate_until_trigger
from .tau_select import (
    CandidateEval,
    ControlDecision,
    TauSelectConfig,
    select_tau,
    solve_event_qp,
)

Array = np.ndarray


@dataclass(frozen=True)
class ControllerKind:
    """Variant tag: "hocbf" (rates p1, p2), "tlc_fixed" (fixed time scale),
    or "atlc" (adaptive time scale).

    The fixed-time-scale baseline defaults to the robust safety row
    (worst case over the event box, like the adaptive variant but with a
    frozen time scale); `robust=False` switches to the row evaluated
    pointwise at the event state.  The pointwise form undershoots the
    boundary by roughly the trigger-box radius under zero-order hold, so
    it exists for ablations only.
    """

    name: str
    p1: float | None = None
    p2: float | None = None
    tau_fixed: float | None = None
    robust: bool = True

    def __post_init__(self) -> None:
        def positive(value) -> bool:
            return value is not None and 0.0 < value < math.inf

        if self.name == "hocbf":
            if not (positive(self.p1) and positive(self.p2)):
                raise ValueError("hocbf needs positive finite rates p1 and p2")
        elif self.name == "tlc_fixed":
            if not positive(self.tau_fixed):
                raise ValueError("tlc_fixed needs a positive finite time scale")
        elif self.name != "atlc":
            raise ValueError(f"unknown controller kind {self.name!r}")

    @staticmethod
    def hocbf(p1: float, p2: float) -> "ControllerKind":
        return ControllerKind(name="hocbf", p1=p1, p2=p2)

    @staticmethod
    def tlc_fixed(tau: float, robust: bool = True) -> "ControllerKind":
        return ControllerKind(name="tlc_fixed", tau_fixed=tau, robust=robust)

    @staticmethod
    def atlc() -> "ControllerKind":
        return ControllerKind(name="atlc")


@dataclass(frozen=True)
class ControllerConfig:
    kind: ControllerKind = field(default_factory=ControllerKind.atlc)
    params: AccParams = field(default_factory=AccParams)
    box_under: Array = field(default_factory=lambda: np.array([0.5, 0.5]))
    box_over: Array = field(default_factory=lambda: np.array([0.5, 0.5]))
    tau_cfg: TauSelectConfig = field(default_factory=TauSelectConfig)
    bound_cfg: BoundConfig = field(default_factory=BoundConfig)
    integrator_cfg: IntegratorConfig = field(default_factory=IntegratorConfig)
    T: float = 30.0
    objective: str = "acc_effort"
    clf_form: str = "quadratic"
    z0: float = 90.0
    v0: float = 15.0

    def __post_init__(self) -> None:
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"final time must be positive and finite, got {self.T}")
        for name in ("box_under", "box_over"):
            radii = np.asarray(getattr(self, name), float)
            if not np.all(np.isfinite(radii)) or np.any(radii < 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {radii}")
            object.__setattr__(self, name, radii)
        make_state(self.z0, self.v0)  # rejects a non-finite start state
        for name, allowed in (("objective", OBJECTIVES), ("clf_form", CLF_FORMS)):
            if getattr(self, name) not in allowed:
                raise ValueError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}"
                )


@dataclass
class EventRecord:
    index: int
    t: float
    x: Array
    tau: float | None
    u: float
    feasible: bool
    delta: float | None
    margin: float
    dt_inter_event: float | None = None  # set once the segment ends in a trigger
    table: tuple[CandidateEval, ...] | None = None  # adaptive variant only


@dataclass(frozen=True)
class Summary:
    min_h: float
    event_count: int
    infeasible_events: int
    effort: float


@dataclass
class TrajectoryLog:
    """Per-event decisions plus dense closed-loop samples on [0, T].

    Dense columns are aligned arrays; event_index maps every dense sample
    to the segment it belongs to.  The logged time scale is a design
    parameter of the safety condition and is distinct from the inter-event
    interval, which is recorded separately per event.
    """

    events: list[EventRecord] = field(default_factory=list)
    t: Array = field(default_factory=lambda: np.empty(0))
    z: Array = field(default_factory=lambda: np.empty(0))
    v: Array = field(default_factory=lambda: np.empty(0))
    u: Array = field(default_factory=lambda: np.empty(0))
    h: Array = field(default_factory=lambda: np.empty(0))
    V: Array = field(default_factory=lambda: np.empty(0))
    delta: Array = field(default_factory=lambda: np.empty(0))
    event_index: Array = field(default_factory=lambda: np.empty(0, dtype=int))
    feasible: Array = field(default_factory=lambda: np.empty(0, dtype=bool))
    summary: Summary | None = None


class ZenoError(RuntimeError):
    """Two consecutive events within the trigger tolerance; carries the
    partial log."""

    def __init__(self, message: str, log: TrajectoryLog):
        super().__init__(message)
        self.log = log


class SimulationError(RuntimeError):
    """Integration failure inside the closed loop; carries the partial log."""

    def __init__(self, message: str, log: TrajectoryLog):
        super().__init__(message)
        self.log = log


def fallback_control(p: AccParams) -> float:
    """Maximum braking force, applied while the QP is infeasible."""
    return -p.cd * p.M * p.g_grav


def _decision(
    sol: QpSolution, tau: float | None, margin: float, model: SystemModel
) -> ControlDecision:
    if sol.status != "optimal":
        return ControlDecision(
            u=None, tau=tau, status="infeasible", delta=None, margin=margin,
            qp_objective=math.inf,
        )
    return ControlDecision(
        u=sol.values[: model.q], tau=tau, status="optimal",
        delta=float(sol.values[-1]), margin=margin, qp_objective=sol.objective,
    )


def compute_control(
    x_k: Array,
    cfg: ControllerConfig,
    model: SystemModel | None = None,
    box: Box | None = None,
) -> ControlDecision:
    """Solve the variant's control problem at one event state."""
    x_k = np.asarray(x_k, dtype=float)
    if model is None:
        model = acc_model(cfg.params, cfg.clf_form)
    kind = cfg.kind

    if kind.name == "atlc":
        if box is None:
            box = make_box(x_k, cfg.box_under, cfg.box_over)
        return select_tau(x_k, box, cfg, model)

    clf = build_clf_row(x_k, cfg.params.c3, model)
    if kind.name == "tlc_fixed" and kind.robust:
        if box is None:
            box = make_box(x_k, cfg.box_under, cfg.box_over)
        gs = stack_on_grid(box, model, cfg.bound_cfg)
        sol = solve_event_qp(x_k, gs, kind.tau_fixed, clf, cfg, model)
        margin = margin_from_stack(gs, kind.tau_fixed, model)
        return _decision(sol, kind.tau_fixed, margin, model)

    if kind.name == "tlc_fixed":
        safety = build_tlc_row(x_k, kind.tau_fixed, model)
    else:
        safety = build_hocbf_row(x_k, kind.p1, kind.p2, model)
    inst = build_qp_instance(
        [safety, clf], model, cfg.objective, x=x_k, params=cfg.params
    )
    margin = row_margin(safety, model.u_min, model.u_max)
    # tau_fixed is None for hocbf, which has no time scale to log
    return _decision(solve_qp(inst), kind.tau_fixed, margin, model)


def simulate_closed_loop(cfg: ControllerConfig) -> TrajectoryLog:
    """Run the event-triggered loop from (z0, v0) until the final time.

    Raises :class:`ZenoError` when two consecutive triggers collapse within
    the trigger tolerance and :class:`SimulationError` on integrator
    failure, both carrying the partial log.
    """
    model = acc_model(cfg.params, cfg.clf_form)
    x = make_state(cfg.z0, cfg.v0)
    t = 0.0
    log = TrajectoryLog()
    dense: dict[str, list] = {key: [] for key in
                              ("t", "z", "v", "u", "h", "V", "delta",
                               "event_index", "feasible")}

    k = 0
    while t < cfg.T:
        box = make_box(x, cfg.box_under, cfg.box_over)
        try:
            decision = compute_control(x, cfg, model, box)
        except Exception as exc:  # noqa: BLE001 - attach partial log
            _finalize(log, dense, cfg)
            raise SimulationError(str(exc), log) from exc
        feasible = decision.status == "optimal"
        u_apply = float(decision.u[0]) if feasible else fallback_control(cfg.params)

        record = EventRecord(
            index=k, t=t, x=x.copy(), tau=decision.tau, u=u_apply,
            feasible=feasible, delta=decision.delta, margin=decision.margin,
            table=decision.table,
        )
        log.events.append(record)

        try:
            seg = integrate_until_trigger(
                x, u_apply, box, t, cfg.T, model, cfg.integrator_cfg
            )
        except Exception as exc:  # noqa: BLE001 - attach partial log
            _finalize(log, dense, cfg)
            raise SimulationError(str(exc), log) from exc

        # dense rows: segment start plus interior samples; the segment end
        # state reappears as the next event's start row
        keep_last = seg.t_end >= cfg.T
        keep = slice(0, len(seg.times) if keep_last else len(seg.times) - 1)
        for ti, xi in zip(seg.times[keep], seg.states[keep]):
            stack = model.lie_stack(xi)
            V, _, _ = model.clf_terms(xi)
            dense["t"].append(ti)
            dense["z"].append(xi[0])
            dense["v"].append(xi[1])
            dense["u"].append(u_apply)
            dense["h"].append(stack[0])
            dense["V"].append(V)
            dense["delta"].append(math.nan if decision.delta is None else decision.delta)
            dense["event_index"].append(k)
            dense["feasible"].append(feasible)

        if seg.exit_reason == "trigger":
            dt = seg.t_end - t
            record.dt_inter_event = dt
            if dt <= cfg.integrator_cfg.trigger_bisection_tol:
                _finalize(log, dense, cfg)
                raise ZenoError(
                    f"inter-event time {dt:.3e} s at t={t:.6f} is within the "
                    "trigger tolerance", log,
                )
        x = seg.states[-1].copy()
        t = seg.t_end
        k += 1

    _finalize(log, dense, cfg)
    return log


def _finalize(log: TrajectoryLog, dense: dict[str, list], cfg: ControllerConfig) -> None:
    log.t = np.array(dense["t"])
    log.z = np.array(dense["z"])
    log.v = np.array(dense["v"])
    log.u = np.array(dense["u"])
    log.h = np.array(dense["h"])
    log.V = np.array(dense["V"])
    log.delta = np.array(dense["delta"])
    log.event_index = np.array(dense["event_index"], dtype=int)
    log.feasible = np.array(dense["feasible"], dtype=bool)
    log.summary = summarize(log, cfg.params)


def effort_integrand(u: Array, v: Array, p: AccParams) -> Array:
    return ((u - resistance_force(v, p)) / p.M) ** 2


def summarize(log: TrajectoryLog, p: AccParams) -> Summary:
    infeasible = sum(not e.feasible for e in log.events)
    if log.t.size == 0:
        return Summary(min_h=math.inf, event_count=len(log.events),
                       infeasible_events=infeasible, effort=0.0)
    effort = float(np.trapezoid(effort_integrand(log.u, log.v, p), log.t))
    return Summary(
        min_h=float(log.h.min()),
        event_count=len(log.events),
        infeasible_events=infeasible,
        effort=effort,
    )
