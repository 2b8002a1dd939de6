"""Event-triggered closed loop for the three controller variants.

At each event the state is measured, the trigger box is rebuilt around it,
the variant's QP is solved (or the adaptive time-scale selection run), and
the resulting input is held constant until the state exits the box or the
final time is reached.  When the QP is infeasible the model's fallback
input (maximum braking) is held and feasibility is re-tested at the next
event, so the event-triggered structure is preserved through fallback phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constraints import build_clf_row, build_pointwise_row, build_qp_instance
from .margin import margin_from_stack
from .model import CLF_FORMS, AccParams, SystemModel, acc_model, make_state
from .qp import solve_qp
from .robust_bounds import BoundConfig, Box, make_box, stack_on_grid
from .sim import IntegratorConfig, integrate_until_trigger
from .tau_select import (
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
    it exists for ablations only.  A field that the named kind does not
    read (the rates outside hocbf; the time scale or `robust=False` outside
    tlc_fixed) is a ValueError.
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
        unread = [key for key, given, reader in (
            ("p1", self.p1 is not None, "hocbf"),
            ("p2", self.p2 is not None, "hocbf"),
            ("tau_fixed", self.tau_fixed is not None, "tlc_fixed"),
            ("robust=False", not self.robust, "tlc_fixed"),
        ) if given and reader != self.name]
        if unread:
            raise ValueError(f"controller kind {self.name!r} does not read "
                             f"{', '.join(unread)}")

    @staticmethod
    def hocbf(p1: float, p2: float) -> "ControllerKind":
        return ControllerKind(name="hocbf", p1=p1, p2=p2)

    @staticmethod
    def tlc_fixed(tau: float = 0.5, robust: bool = True) -> "ControllerKind":
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
    clf_form: str = "quadratic"
    z0: float = 90.0
    v0: float = 15.0

    def __post_init__(self) -> None:
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"final time must be positive and finite, got {self.T}")
        for name in ("box_under", "box_over"):
            radii = np.asarray(getattr(self, name), float)
            if radii.shape != (2,):
                raise ValueError(f"{name} must hold one radius per state entry "
                                 f"(z, v), got shape {radii.shape}")
            if not np.all(np.isfinite(radii)) or np.any(radii < 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {radii}")
            object.__setattr__(self, name, radii)
        make_state(self.z0, self.v0)  # rejects a non-finite start state
        if self.clf_form not in CLF_FORMS:
            raise ValueError(
                f"clf_form must be one of {CLF_FORMS}, got {self.clf_form!r}")

    @cached_property
    def model(self) -> SystemModel:
        """The car-following model of these parameters: derived, not settable."""
        return acc_model(self.params, self.clf_form)


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
    table: np.recarray | None = None  # adaptive variant only


@dataclass
class TrajectoryLog:
    """Per-event decisions plus dense closed-loop samples on [0, T].

    Dense columns are aligned per-sample arrays; event_index maps every
    sample to the event whose input, slack and feasibility it ran under.
    The logged time scale is a design parameter of the safety condition and
    is distinct from the inter-event interval, recorded per event too.
    """

    events: list[EventRecord] = field(default_factory=list)
    t: Array = field(default_factory=lambda: np.empty(0))
    z: Array = field(default_factory=lambda: np.empty(0))
    v: Array = field(default_factory=lambda: np.empty(0))
    h: Array = field(default_factory=lambda: np.empty(0))
    V: Array = field(default_factory=lambda: np.empty(0))
    event_index: Array = field(default_factory=lambda: np.empty(0, dtype=int))


class SimulationError(RuntimeError):
    """Failure inside the closed loop; carries the partial log."""

    def __init__(self, message: str, log: TrajectoryLog):
        super().__init__(message)
        self.log = log


class ZenoError(SimulationError):
    """Two consecutive events within the trigger tolerance."""


def compute_control(
    x_k: Array,
    cfg: ControllerConfig,
    model: SystemModel | None = None,
    box: Box | None = None,
) -> ControlDecision:
    """Solve the variant's control problem at one event state."""
    x_k = np.asarray(x_k, dtype=float)
    if model is None:
        model = cfg.model
    if box is None:
        box = make_box(x_k, cfg.box_under, cfg.box_over)
    kind = cfg.kind

    if kind.name == "atlc":
        return select_tau(x_k, box, cfg, model)

    clf = build_clf_row(x_k, cfg.params.c3, model)
    if kind.name == "tlc_fixed" and kind.robust:
        gs = stack_on_grid(box, model, cfg.bound_cfg)
        sol = solve_event_qp(x_k, gs, kind.tau_fixed, clf, cfg, model)
        margin = margin_from_stack(gs, kind.tau_fixed, model)
    else:
        if kind.name == "tlc_fixed":
            c1, c0 = 2.0 / kind.tau_fixed, 2.0 / kind.tau_fixed**2
        else:
            c1, c0 = kind.p1 + kind.p2, kind.p1 * kind.p2
        safety = build_pointwise_row(x_k, c1, c0, model)
        sol = solve_qp(build_qp_instance(safety, clf, model, x_k, cfg.params.w))
        margin = float(safety.margins(model.u_min, model.u_max)[0])
    # tau_fixed is None for hocbf, which has no time scale to log
    if sol.status != "optimal":
        return ControlDecision(u=None, tau=kind.tau_fixed, delta=None, margin=margin)
    return ControlDecision(u=float(sol.values[0]), tau=kind.tau_fixed,
                           delta=float(sol.values[1]), margin=margin)


def simulate_closed_loop(cfg: ControllerConfig) -> TrajectoryLog:
    """Run the event-triggered loop from (z0, v0) until the final time.

    Raises :class:`ZenoError` when two consecutive triggers collapse within
    the trigger tolerance and :class:`SimulationError` on any other failure
    inside the loop, both carrying the partial log.
    """
    model = cfg.model
    x = make_state(cfg.z0, cfg.v0)
    t = 0.0
    log = TrajectoryLog()
    segments: list[tuple[Array, Array]] = []  # (times, states) of each event

    try:
        while t < cfg.T:
            box = make_box(x, cfg.box_under, cfg.box_over)
            decision = compute_control(x, cfg, model, box)
            feasible = decision.u is not None
            u_apply = decision.u if feasible else model.fallback

            record = EventRecord(
                index=len(log.events), t=t, x=x.copy(), tau=decision.tau,
                u=u_apply, feasible=feasible, delta=decision.delta,
                margin=decision.margin, table=decision.table,
            )
            log.events.append(record)

            seg = integrate_until_trigger(
                x, u_apply, box, t, cfg.T, model, cfg.integrator_cfg
            )
            # dense rows: segment start plus interior samples; the segment end
            # state reappears as the next event's start row, except after a
            # one-sample segment, which is then the only row of its event
            n = seg.times.size
            if n > 1 and seg.t_end < cfg.T:
                n -= 1
            segments.append((seg.times[:n], seg.states[:n]))

            if seg.exit_reason == "trigger":
                dt = seg.t_end - t
                record.dt_inter_event = dt
                if dt <= cfg.integrator_cfg.trigger_bisection_tol:
                    raise ZenoError(
                        f"inter-event time {dt:.3e} s at t={t:.6f} is within "
                        "the trigger tolerance", log,
                    )
            x = seg.states[-1].copy()
            t = seg.t_end
    except SimulationError:
        raise
    except Exception as exc:  # noqa: BLE001 - attach partial log
        raise SimulationError(str(exc), log) from exc
    finally:
        if len(segments) < len(log.events):  # its segment failed: one row at (t, x)
            segments.append((np.array([t]), x[np.newaxis]))
        if segments:  # no event: the log keeps its empty columns
            times, states = zip(*segments)
            states = np.concatenate(states)
            log.t = np.concatenate(times)
            log.z, log.v = states.T
            log.h = model.lie_stack(states)[:, 0]
            log.V = model.clf_terms(states)[0]
            log.event_index = np.repeat(np.arange(len(times)), list(map(len, times)))
    return log
