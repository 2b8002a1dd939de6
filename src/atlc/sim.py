"""Continuous-time integration under a zero-order-hold input.

Closed-loop segments between events are integrated with an adaptive
embedded Runge-Kutta 4(5) pair (scipy's RK45).  The event time is the first
instant the state leaves the trigger box; it is located by root finding on
the dense interpolant of the step that crossed, well inside the configured
tolerance.  Dense log samples are produced at a fixed spacing independent
of the internal adaptive steps.

The lookahead rollouts of the time-scale selection need no event location,
only the dense samples, so they take one classic fixed-step RK4 step per
sample and advance a whole batch of constant inputs together through the
model's vectorised right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .model import SystemModel
from .robust_bounds import Box

Array = np.ndarray

DENSE_DT = 0.01  # log sample spacing [s]


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 0.01
    trigger_bisection_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "max_step", "trigger_bisection_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


class IntegrationError(RuntimeError):
    """Integrator failure; carries the last valid time and state."""

    def __init__(self, message: str, t_last: float, x_last: Array):
        super().__init__(message)
        self.t_last = t_last
        self.x_last = np.asarray(x_last, dtype=float)


@dataclass(frozen=True)
class Segment:
    """One inter-event piece of trajectory under a constant input.

    ``times``/``states`` are the dense log samples (strictly increasing,
    first at t_start, last at t_end).  exit_reason is "trigger" when the
    box was left, "horizon_end" otherwise; exit_coordinate names the
    crossing state component for trigger exits.
    """

    t_start: float
    t_end: float
    times: Array
    states: Array
    exit_reason: str
    exit_coordinate: int | None


def _dense_times(t_start: float, t_end: float, dt: float = DENSE_DT) -> Array:
    if t_end <= t_start:
        return np.array([t_start])
    n_inner = int(np.floor((t_end - t_start) / dt * (1 - 1e-12)))
    times = t_start + dt * np.arange(n_inner + 1)
    if t_end - times[-1] > 1e-12:
        times = np.append(times, t_end)
    else:
        times[-1] = t_end
    return times


def integrate_until_trigger(
    x_k: Array,
    u,
    box: Box,
    t_start: float,
    t_horizon: float,
    model: SystemModel,
    cfg: IntegratorConfig,
) -> Segment:
    """Integrate under constant input until the state exits the box or the
    horizon ends.

    The trigger fires on the first strict exit through any face; a start
    state sitting on a face with outward flow exits immediately.  Every
    dense sample before the trigger is checked to lie in the box inflated
    by the absolute tolerance.
    """
    x_k = np.asarray(x_k, dtype=float)
    if t_horizon <= t_start:
        raise ValueError("horizon must extend past the segment start")

    def rhs(t, y):
        return model.rhs(y, u)

    events = []
    event_coords = []
    for i in range(box.n):
        def upper_exit(t, y, i=i):
            return y[i] - box.upper[i]

        def lower_exit(t, y, i=i):
            return y[i] - box.lower[i]

        upper_exit.terminal = True
        upper_exit.direction = 1.0
        lower_exit.terminal = True
        lower_exit.direction = -1.0
        events.extend([upper_exit, lower_exit])
        event_coords.extend([i, i])

    sol = solve_ivp(
        rhs,
        (t_start, t_horizon),
        x_k,
        method="RK45",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        dense_output=True,
        events=events,
    )
    if sol.status == -1:
        raise IntegrationError(sol.message, float(sol.t[-1]), sol.y[:, -1])

    if sol.status == 1:
        hit = [(te[0], j) for j, te in enumerate(sol.t_events) if te.size]
        t_end, event_idx = min(hit)
        t_end = float(t_end)
        exit_reason = "trigger"
        exit_coordinate = event_coords[event_idx]
        x_end = sol.y_events[event_idx][0]
    else:
        t_end = t_horizon
        exit_reason = "horizon_end"
        exit_coordinate = None
        x_end = sol.y[:, -1]

    times = _dense_times(t_start, t_end)
    if times.size == 1:
        states = np.asarray(x_end, dtype=float)[None, :].copy()
    else:
        states = sol.sol(times).T
        states[0] = x_k
        states[-1] = x_end

    inflate = cfg.abs_tol
    interior = states[:-1] if exit_reason == "trigger" else states
    if not box.contains(interior, tol=inflate):
        raise IntegrationError(
            "pre-trigger sample escaped the event box", t_end, x_end
        )
    return Segment(
        t_start=t_start,
        t_end=t_end,
        times=times,
        states=states,
        exit_reason=exit_reason,
        exit_coordinate=exit_coordinate,
    )


def integrate_fixed_horizon(
    x0: Array,
    u,
    horizon: float,
    model: SystemModel,
    dt: float = DENSE_DT,
) -> tuple[Array, Array]:
    """Integrate under constant input over [0, horizon] with classic RK4,
    one step per dense sample at spacing dt, both endpoints included.

    ``u`` is one input (a scalar when q = 1, or a q-vector), giving
    states of shape (n_samples, n), or a (..., q) batch of inputs rolled
    out together from the same start, giving states of shape
    (n_samples, ..., n).  Returns (times, states).
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    x0 = np.asarray(x0, dtype=float)
    inputs = np.asarray(u, dtype=float)
    if inputs.shape[-1:] != (model.q,) and not (inputs.ndim == 0 and model.q == 1):
        raise ValueError(f"inputs need {model.q} entries, got shape {inputs.shape}")
    times = _dense_times(0.0, horizon, dt)
    states = np.empty((times.size, *inputs.shape[:-1], x0.size))
    states[0] = x0
    x = states[0]
    rhs = model.rhs
    for i, h in enumerate(np.diff(times).tolist(), start=1):
        k1 = rhs(x, inputs)
        k2 = rhs(x + 0.5 * h * k1, inputs)
        k3 = rhs(x + 0.5 * h * k2, inputs)
        k4 = rhs(x + h * k3, inputs)
        x = states[i] = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    if not np.isfinite(states).all():
        raise IntegrationError("rollout state is not finite", 0.0, x0)
    return times, states
