"""Rollout-based selection of the safety-condition time scale.

At each event the controller evaluates a finite set of candidate time
scales.  For every candidate the robust safety QP is solved; if feasible,
the closed system is rolled out under the resulting constant input over a
lookahead horizon and the predicted minimum of the safety output is
recorded.  The candidate maximizing that prediction wins, ties going to
the smallest time scale (the least restrictive constraint).  Infeasible
candidates keep a -inf sentinel so they lose every comparison.

The candidates are evaluated in one batched pass: the QPs of every time
scale and sign branch are solved as one stack, and the distinct inputs
(compared by their exact bytes) are rolled out together in one
fixed-step integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .constraints import atlc_rows, build_clf_row, build_qp_instance, row_margin
from .model import SystemModel
from .qp import QpInstance, QpSolution, solve_qp, solve_qp_stack
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
        if self.n_candidates < 1:
            raise ValueError("need at least one candidate time scale")
        if not 0.0 < self.T_look < math.inf:
            raise ValueError("lookahead horizon must be positive and finite")


@dataclass(frozen=True)
class CandidateEval:
    tau: float
    feasible: bool
    min_h_pred: float
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
    h = model.lie_stack_grid(states.reshape(-1, model.n))[:, 0]
    minima = h.reshape(states.shape[:-1]).min(axis=0)
    return float(minima) if np.ndim(u) < 2 else minima


def _event_instances(
    x_k: Array,
    rows,
    clf_row,
    cfg: ControllerConfig,
    model: SystemModel,
) -> list[QpInstance]:
    """Robust safety QPs at one candidate time scale, one per robust row of
    :func:`~atlc.constraints.atlc_rows`, each over the part of the input box
    its row holds on."""
    return [
        build_qp_instance(
            [row, clf_row], model, cfg.objective, x=x_k, params=cfg.params,
            u_lower=lower, u_upper=upper,
        )
        for row, lower, upper in rows
    ]


def _best_branch(solutions, model: SystemModel) -> QpSolution:
    """The first feasible branch solution with the least objective."""
    best: QpSolution | None = None
    for sol in solutions:
        if sol.status == "optimal" and (best is None or sol.objective < best.objective):
            best = sol
    if best is None:
        return QpSolution(
            values=np.full(model.q + 1, np.nan), objective=math.inf,
            status="infeasible",
        )
    return best


def solve_event_qp(
    x_k: Array,
    gs: GridStack,
    tau: float,
    clf_row,
    cfg: ControllerConfig,
    model: SystemModel,
) -> QpSolution:
    """Robust safety QP at one candidate time scale: the best feasible
    solution over the robust rows of :func:`_event_instances`."""
    instances = _event_instances(x_k, atlc_rows(gs, tau, model), clf_row, cfg, model)
    return _best_branch([solve_qp(inst) for inst in instances], model)


def select_tau(
    x_k: Array, box: Box, cfg: ControllerConfig, model: SystemModel
) -> ControlDecision:
    """Evaluate every candidate time scale and return the rollout argmax."""
    x_k = np.asarray(x_k, dtype=float)
    gs = stack_on_grid(box, model, cfg.bound_cfg)
    clf_row = build_clf_row(x_k, cfg.params.c3, model)

    taus = [float(tau) for tau in candidate_taus(cfg.tau_cfg)]
    rows = [atlc_rows(gs, tau, model) for tau in taus]
    per_tau = [_event_instances(x_k, r, clf_row, cfg, model) for r in rows]
    stacked = iter(solve_qp_stack([inst for insts in per_tau for inst in insts]))
    sols = [_best_branch([next(stacked) for _ in insts], model) for insts in per_tau]

    # identical inputs yield identical rollouts; roll each distinct one out
    # once, all of them together
    slot: dict[bytes, int] = {}
    for sol in sols:
        if sol.status == "optimal":
            slot.setdefault(sol.values[: model.q].tobytes(), len(slot))
    predictions = np.empty(0)
    if slot:
        inputs = np.frombuffer(b"".join(slot), dtype=float).reshape(-1, model.q)
        predictions = rollout_min_h(x_k, inputs, cfg.tau_cfg.T_look, model)

    table = []
    for tau, sol in zip(taus, sols):
        if sol.status != "optimal":
            table.append(CandidateEval(
                tau=tau, feasible=False, min_h_pred=-math.inf,
                qp_objective=math.inf, u=None, delta=None,
            ))
            continue
        u = sol.values[: model.q]
        table.append(CandidateEval(
            tau=tau, feasible=True,
            min_h_pred=float(predictions[slot[u.tobytes()]]),
            qp_objective=sol.objective, u=u, delta=float(sol.values[-1]),
        ))

    best_idx = None
    best_pred = -math.inf
    for i, entry in enumerate(table):
        if entry.feasible and entry.min_h_pred > best_pred:
            best_pred = entry.min_h_pred
            best_idx = i
    if best_idx is None:
        return ControlDecision(
            u=None, tau=None, status="infeasible", delta=None,
            margin=max(row_margin(*r) for tau_rows in rows for r in tau_rows),
            qp_objective=math.inf, table=tuple(table),
        )
    chosen = table[best_idx]
    return ControlDecision(
        u=chosen.u, tau=chosen.tau, status="optimal", delta=chosen.delta,
        margin=max(row_margin(*r) for r in rows[best_idx]),
        qp_objective=chosen.qp_objective, table=tuple(table),
    )
