"""Rollout-based selection of the safety-condition time scale.

At each event the controller evaluates a finite set of candidate time
scales.  For every candidate the robust safety QP is solved; if feasible,
the closed system is rolled out under the resulting constant input over a
lookahead horizon and the predicted minimum of the safety output is
recorded.  The candidate maximizing that prediction wins, ties going to
the smallest time scale (the least restrictive constraint).  Infeasible
candidates keep a -inf sentinel so they lose every comparison.

The candidates are evaluated as arrays: one table of robust rows for every
time scale, one stacked QP solve over its rows, and one fixed-step
integration of the distinct inputs (compared by their exact bytes).  A
prediction can only separate candidates whose inputs differ, so the
rollout runs only when two or more distinct inputs are feasible; with one,
the smallest feasible time scale wins, the predictions are left
uncomputed (None) and :func:`with_predictions` computes them on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .constraints import RobustRows, atlc_rows, build_clf_row, build_qp_instance
from .model import SystemModel
from .qp import ConstraintRow, QpSolution, solve_qp, solve_qp_stack
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
        if not 0.0 < self.T_look < math.inf:
            raise ValueError("lookahead horizon must be positive and finite")


@dataclass(frozen=True)
class CandidateEval:
    tau: float
    feasible: bool
    min_h_pred: float | None  # None: feasible, rollout not run
    qp_objective: float
    u: Array | None
    delta: float | None


@dataclass(frozen=True)
class ControlDecision:
    """The input chosen at one event, or u = None when the QP is infeasible.

    ``margin`` is the robust feasibility margin at the chosen time scale;
    when every candidate of the adaptive variant is infeasible it is the
    largest margin over the candidates.  ``table`` lists the adaptive
    variant's candidates.
    """

    u: Array | None
    tau: float | None
    status: str  # "optimal" | "infeasible"
    delta: float | None
    margin: float
    qp_objective: float
    table: tuple[CandidateEval, ...] | None = None


def candidate_taus(cfg: TauSelectConfig) -> Array:
    if cfg.n_candidates == 1:
        return np.array([cfg.tau_min])
    return np.linspace(cfg.tau_min, cfg.tau_max, cfg.n_candidates)


def rollout_min_h(x_k: Array, u, T_look: float, model: SystemModel):
    """Minimum of the safety output along the constant-input rollout,
    over dense samples including both endpoints.

    A single input (scalar or q-vector) gives a float; a (K, q) batch of
    inputs gives the K minima, from one evaluation of the safety output.
    """
    _, states = integrate_fixed_horizon(x_k, u, T_look, model)
    minima = model.lie_stack(states)[..., 0].min(axis=0)
    return float(minima) if np.ndim(u) < 2 else minima


def _distinct(inputs, q: int) -> tuple[list[int], Array]:
    """Index of each input among the distinct ones (exact bytes, in order
    of first appearance), and the distinct inputs as a (D, q) array."""
    slot: dict[bytes, int] = {}
    index = [slot.setdefault(u.tobytes(), len(slot)) for u in inputs]
    return index, np.frombuffer(b"".join(slot), dtype=float).reshape(-1, q)


def with_predictions(
    table: tuple[CandidateEval, ...], x_k: Array, T_look: float, model: SystemModel
) -> tuple[CandidateEval, ...]:
    """The candidate table with every feasible candidate's prediction,
    rolling out the inputs of those the selection left uncomputed.
    Identical inputs yield identical rollouts: each distinct one is rolled
    out once, all of them together."""
    missing = [i for i, e in enumerate(table) if e.feasible and e.min_h_pred is None]
    if not missing:
        return table
    index, distinct = _distinct([table[i].u for i in missing], model.q)
    rolled = rollout_min_h(x_k, distinct, T_look, model)[index].tolist()
    filled = dict(zip(missing, rolled))
    return tuple(replace(e, min_h_pred=filled[i]) if i in filled else e
                 for i, e in enumerate(table))


def _solve_rows(
    x_k: Array, rows: RobustRows, clf_row: ConstraintRow, cfg: ControllerConfig,
    model: SystemModel,
) -> tuple[Array, Array, Array]:
    """The QP of every row of the table, in one stacked solve: the CLF-row
    QP with the row added and the input box cut to the row's part.  Per
    time scale, returns the first feasible row's optimum with the least
    objective, its objective and its feasibility flag."""
    base = build_qp_instance([clf_row], model, cfg.objective, x=x_k, params=cfg.params)
    a_clf, b_clf = clf_row.as_ge()
    n_tau, n_branch, q = rows.gains.shape
    a = np.zeros((n_tau, n_branch, 2, q + 1))
    a[..., 0, :q] = rows.gains
    a[..., 1, :] = a_clf
    b = np.empty((n_tau, n_branch, 2))
    b[..., 0] = -rows.h_worst[:, None]
    b[..., 1] = b_clf
    lower, upper = (  # each row's part of the input box, and the slack's box
        np.tile(np.column_stack([part, np.full(n_branch, end)]), (n_tau, 1))
        for part, end in ((rows.lower, base.lower[q]), (rows.upper, base.upper[q])))
    values, objective, optimal = solve_qp_stack(
        base.quadratic_diag, base.linear_cost, a.reshape(-1, 2, q + 1),
        b.reshape(-1, 2), lower, upper,
    )
    pick = np.arange(n_tau) * n_branch + objective.reshape(n_tau, n_branch).argmin(1)
    return values[pick], objective[pick], optimal[pick]


def solve_event_qp(
    x_k: Array, gs: GridStack, tau: float, clf_row, cfg: ControllerConfig,
    model: SystemModel,
) -> QpSolution:
    """Robust safety QP at one time scale: one QP per row of
    :func:`~atlc.constraints.atlc_rows`, each on its part of the input box,
    and the first feasible solution with the least objective."""
    rows = atlc_rows(gs, [tau], model)
    solutions = [
        solve_qp(build_qp_instance(
            [rows.row(0, b), clf_row], model, cfg.objective, x=x_k,
            params=cfg.params, u_lower=lower, u_upper=upper,
        ))
        for b, (lower, upper) in enumerate(zip(rows.lower, rows.upper))
    ]
    return min(solutions, key=lambda sol: sol.objective)  # infeasible: +inf


def select_tau(
    x_k: Array, box: Box, cfg: ControllerConfig, model: SystemModel
) -> ControlDecision:
    """Evaluate every candidate time scale and return the rollout argmax."""
    x_k = np.asarray(x_k, dtype=float)
    gs = stack_on_grid(box, model, cfg.bound_cfg)
    clf_row = build_clf_row(x_k, cfg.params.c3, model)
    taus = [float(tau) for tau in candidate_taus(cfg.tau_cfg)]
    rows = atlc_rows(gs, taus, model)
    values, objective, optimal = _solve_rows(x_k, rows, clf_row, cfg, model)
    margins = rows.margins().max(axis=1)
    inputs = values[:, : model.q]
    table = tuple(
        CandidateEval(
            tau=tau, feasible=ok, min_h_pred=None if ok else -math.inf,
            qp_objective=float(objective[i]), u=inputs[i] if ok else None,
            delta=float(values[i, -1]) if ok else None,
        )
        for i, (tau, ok) in enumerate(zip(taus, optimal.tolist()))
    )
    feasible = np.flatnonzero(optimal).tolist()
    if not feasible:
        return ControlDecision(
            u=None, tau=None, status="infeasible", delta=None,
            margin=float(margins.max()), qp_objective=math.inf, table=table,
        )
    best = feasible[0]  # with one distinct input, the smallest feasible tau
    if len({inputs[i].tobytes() for i in feasible}) > 1:
        table = with_predictions(table, x_k, cfg.tau_cfg.T_look, model)
        best = max(feasible, key=lambda i: table[i].min_h_pred)  # first maximum
    chosen = table[best]
    return ControlDecision(
        u=chosen.u, tau=chosen.tau, status="optimal", delta=chosen.delta,
        margin=float(margins[best]), qp_objective=chosen.qp_objective, table=table,
    )
