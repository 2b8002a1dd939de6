"""Rollout-based selection of the safety-condition time scale.

At each event the controller evaluates a finite set of candidate time
scales.  For every candidate the robust safety QP is solved; if feasible,
the closed system is rolled out under the resulting constant input over a
lookahead horizon and the predicted minimum of the safety output is
recorded.  The candidate maximizing that prediction wins, ties going to
the smallest time scale (the least restrictive constraint).

The candidates are evaluated as arrays: one table of robust rows for every
time scale, one stacked QP solve over its rows, and one fixed-step
integration of the distinct inputs (compared by their exact bits).  A
prediction can only separate candidates whose inputs differ, so the
rollout runs only when two or more distinct inputs are feasible; with one,
the smallest feasible time scale wins and :func:`with_predictions`
computes the predictions on demand.  The candidates are one record array
(``ControlDecision.table``) in which a NaN prediction means none was made:
the candidate is infeasible, or it was not rolled out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .constraints import (RobustRows, atlc_rows, build_clf_row, build_qp_instance,
                          qp_cost_and_box)
from .margin import ascending_grid
from .model import SystemModel
from .qp import QpSolution, solve_qp, solve_qp_stack
from .robust_bounds import Box, GridStack, stack_on_grid
from .sim import integrate_fixed_horizon

if TYPE_CHECKING:  # controller imports this module
    from .controller import ControllerConfig

Array = np.ndarray


@dataclass(frozen=True)
class TauSelectConfig:
    tau_min: float = 0.05
    tau_max: float = 2.0
    n_candidates: int = 40
    T_look: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.tau_min <= self.tau_max < math.inf:
            raise ValueError("need 0 < tau_min <= tau_max < inf")
        n = self.n_candidates
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"n_candidates must be an int >= 1, got {n!r}")
        ascending_grid(candidate_taus(self))  # equal bounds: one candidate only
        if not 0.0 < self.T_look < math.inf:
            raise ValueError("lookahead horizon must be positive and finite")


@dataclass(frozen=True)
class ControlDecision:
    """The input chosen at one event; u = None (and delta = None) marks
    the infeasible decision, whose QP has no solution.

    ``margin`` is the robust feasibility margin at the chosen time scale;
    when every candidate of the adaptive variant is infeasible it is the
    largest margin over the candidates.  ``table`` holds the adaptive
    variant's candidates, a row per time scale: ``tau``, ``feasible``,
    ``min_h_pred`` (NaN: no prediction), ``qp_objective`` (+inf when
    infeasible), ``u`` and ``delta`` (NaN when infeasible).
    """

    u: float | None
    tau: float | None
    delta: float | None
    margin: float
    table: np.recarray | None = None


def candidate_taus(cfg: TauSelectConfig) -> Array:
    return np.linspace(cfg.tau_min, cfg.tau_max, cfg.n_candidates)


def rollout_min_h(x_k: Array, u, T_look: float, model: SystemModel):
    """Minimum of the safety output along the constant-input rollout,
    over dense samples including both endpoints.

    A single input gives a float; a (K,) array of inputs gives the K
    minima, from one evaluation of the safety output.
    """
    _, states = integrate_fixed_horizon(x_k, u, T_look, model)
    minima = model.lie_stack(states)[..., 0].min(axis=0)
    return float(minima) if np.ndim(u) == 0 else minima


def with_predictions(
    table: np.recarray, x_k: Array, T_look: float, model: SystemModel
) -> np.recarray:
    """The candidate table with every feasible candidate's prediction: a
    copy in which the inputs of those the selection left without one are
    rolled out.  Identical inputs yield identical rollouts: each distinct
    one (by its bits) is rolled out once, all of them together, and a
    rollout is elementwise per input, so their order changes no bit."""
    missing = np.flatnonzero(table.feasible & np.isnan(table.min_h_pred))
    if not missing.size:
        return table
    bits, index = np.unique(table.u[missing].view(np.int64), return_inverse=True)
    filled = table.copy()
    filled.min_h_pred[missing] = rollout_min_h(x_k, bits.view(float), T_look, model)[index]
    return filled


def _solve_rows(
    x_k: Array, rows: RobustRows, clf_row: tuple[Array, float], cfg: ControllerConfig,
    model: SystemModel,
) -> tuple[Array, Array, Array]:
    """The QP of every time scale of the table, in one stacked solve: the
    CLF-row QP with that time scale's robust rows added.  Returns the
    optima, objectives and feasibility flags."""
    diag, linear, lower, upper = qp_cost_and_box(model, x_k, cfg.params.w)
    n_tau = len(rows.h_worst)
    a = np.zeros((n_tau, 3, 2))
    a[:, 0, 0], a[:, 1, 0], a[:, 2] = rows.low, rows.high, clf_row[0]
    b = np.empty((n_tau, 3))
    b[:, 0] = b[:, 1] = -rows.h_worst
    b[:, 2] = clf_row[1]
    return solve_qp_stack(diag, linear, a, b, lower, upper)


def solve_event_qp(
    x_k: Array, gs: GridStack, tau: float, clf_row, cfg: ControllerConfig,
    model: SystemModel,
) -> QpSolution:
    """Robust safety QP at one time scale: the rows of
    :func:`~atlc.constraints.atlc_rows` and the CLF row over the input box."""
    rows = atlc_rows(gs, [tau])
    robust = [(np.array([gain, 0.0]), -rows.h_worst[0])
              for gain in (rows.low[0], rows.high[0])]
    return solve_qp(build_qp_instance([*robust, clf_row], model, x_k, cfg.params.w))


def select_tau(
    x_k: Array, box: Box, cfg: ControllerConfig, model: SystemModel
) -> ControlDecision:
    """Evaluate every candidate time scale and return the rollout argmax."""
    x_k = np.asarray(x_k, dtype=float)
    gs = stack_on_grid(box, model, cfg.bound_cfg)
    clf_row = build_clf_row(x_k, cfg.params.c3, model)
    taus = candidate_taus(cfg.tau_cfg).tolist()
    rows = atlc_rows(gs, taus)
    values, objective, optimal = _solve_rows(x_k, rows, clf_row, cfg, model)
    margins = rows.margins(model.u_min, model.u_max)
    table = np.recarray(len(taus), dtype=[
        ("tau", float), ("feasible", bool), ("min_h_pred", float),
        ("qp_objective", float), ("u", float), ("delta", float)])
    table["tau"], table["feasible"], table["min_h_pred"] = taus, optimal, math.nan
    table["qp_objective"], table["u"], table["delta"] = objective, *values.T
    feasible = np.flatnonzero(optimal)
    if not feasible.size:
        return ControlDecision(
            u=None, tau=None, delta=None, margin=float(margins.max()), table=table)
    best = feasible[0]  # with one distinct input, the smallest feasible tau
    bits = values[feasible, 0].view(np.int64)  # inputs compared by their bits
    if (bits != bits[0]).any():
        table = with_predictions(table, x_k, cfg.tau_cfg.T_look, model)
        best = feasible[np.argmax(table.min_h_pred[feasible])]  # first maximum
    return ControlDecision(
        u=float(values[best, 0]), tau=taus[best],
        delta=float(values[best, 1]), margin=float(margins[best]), table=table,
    )
