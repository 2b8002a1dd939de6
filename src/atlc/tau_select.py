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
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .constraints import atlc_row_from_stack, build_clf_row, build_qp_instance
from .margin import margin_from_stack
from .model import SystemModel
from .qp import QpInstance, QpSolution, solve_qp, solve_qp_stack
from .robust_bounds import (
    Box,
    GridStack,
    branch_input_box,
    g_ratlc_from_stack,
    stack_on_grid,
)
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
        if not 0.0 < self.tau_min <= self.tau_max:
            raise ValueError("need 0 < tau_min <= tau_max")
        if self.n_candidates < 1:
            raise ValueError("need at least one candidate time scale")
        if self.T_look <= 0.0:
            raise ValueError("lookahead horizon must be positive")


@dataclass(frozen=True)
class CandidateEval:
    tau: float
    feasible: bool
    min_h_pred: float
    qp_objective: float
    u: Array | None
    delta: float | None


@dataclass(frozen=True)
class TauDecision:
    """The selected candidate, or all-None fields when none is feasible.

    ``margin`` is the robust feasibility margin at the chosen time scale,
    or the largest margin over the candidates when every one is infeasible.
    """

    tau_k: float | None
    u_k: Array | None
    delta_k: float | None
    qp_objective: float
    table: tuple[CandidateEval, ...]
    all_infeasible: bool
    margin: float


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
    gs: GridStack,
    tau: float,
    clf_row,
    cfg: ControllerConfig,
    model: SystemModel,
) -> list[QpInstance]:
    """Robust safety QPs at one candidate time scale, one per sign branch.

    The worst-case input gain row depends on the sign of each input entry,
    so one QP is posed per sign orthant of the input box with the matching
    row and orthant restriction.  When all branch rows coincide (constant
    input gain over the box) a single QP over the full box is equivalent
    and posed instead.
    """
    branches = [np.array(b) for b in product((1.0, -1.0), repeat=model.q)]
    rows_by_branch = [g_ratlc_from_stack(gs, tau, b) for b in branches]
    if all(np.array_equal(rows_by_branch[0], r) for r in rows_by_branch[1:]):
        branch_boxes = [(branches[0], (model.u_min, model.u_max))]
    else:
        branch_boxes = [(b, branch_input_box(b, model)) for b in branches]
    return [
        build_qp_instance(
            [atlc_row_from_stack(gs, tau, branch), clf_row],
            model,
            cfg.objective,
            x=x_k,
            params=cfg.params,
            u_lower=box[0],
            u_upper=box[1],
        )
        for branch, box in branch_boxes
        if box is not None
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
    solution over the sign branches of :func:`_event_instances`."""
    instances = _event_instances(x_k, gs, tau, clf_row, cfg, model)
    return _best_branch([solve_qp(inst) for inst in instances], model)


def select_tau(
    x_k: Array, box: Box, cfg: ControllerConfig, model: SystemModel
) -> TauDecision:
    """Evaluate every candidate time scale and return the rollout argmax."""
    x_k = np.asarray(x_k, dtype=float)
    gs = stack_on_grid(box, model, cfg.bound_cfg)
    clf_row = build_clf_row(x_k, cfg.params.c3, model)

    taus = [float(tau) for tau in candidate_taus(cfg.tau_cfg)]
    per_tau = [_event_instances(x_k, gs, tau, clf_row, cfg, model) for tau in taus]
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
        return TauDecision(
            tau_k=None, u_k=None, delta_k=None, qp_objective=math.inf,
            table=tuple(table), all_infeasible=True,
            margin=max(margin_from_stack(gs, e.tau, model) for e in table),
        )
    chosen = table[best_idx]
    return TauDecision(
        tau_k=chosen.tau,
        u_k=chosen.u,
        delta_k=chosen.delta,
        qp_objective=chosen.qp_objective,
        table=tuple(table),
        all_infeasible=False,
        margin=margin_from_stack(gs, chosen.tau, model),
    )
