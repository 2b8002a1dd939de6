"""Inequality rows for the controller variants, in the QP row format.

Every row acts on the stacked decision vector (u_1..u_q, delta).  Safety
rows leave the slack coefficient at zero; only the CLF row is relaxed by
delta.  Pointwise rows (fixed-time-scale and second-order barrier
baselines) are evaluated at the event state; the robust adaptive row uses
the worst-case quantities over the event box.
"""

from __future__ import annotations

import numpy as np

from .model import AccParams, SystemModel, resistance_force
from .qp import ConstraintRow, QpInstance
from .robust_bounds import (
    BoundConfig,
    Box,
    GridStack,
    g_ratlc_from_stack,
    h_ratlc_from_stack,
    stack_on_grid,
)

Array = np.ndarray

DELTA_CAP = 1.0e7  # keeps the slack box bounded; never active in practice
OBJECTIVES = ("plain", "acc_effort")


def atlc_row_from_stack(gs: GridStack, tau: float, sign_branch) -> ConstraintRow:
    coeffs = np.concatenate([g_ratlc_from_stack(gs, tau, sign_branch), [0.0]])
    return ConstraintRow(
        coefficients=coeffs, rhs=-h_ratlc_from_stack(gs, tau), sense="ge"
    )


def build_atlc_rows(
    box: Box,
    tau: float,
    model: SystemModel,
    cfg: BoundConfig,
    sign_branch,
) -> ConstraintRow:
    """Robust adaptive safety row for one input sign branch:
    g_worst @ u >= -h_worst."""
    return atlc_row_from_stack(stack_on_grid(box, model, cfg), tau, sign_branch)


def build_tlc_row(x: Array, tau: float, model: SystemModel) -> ConstraintRow:
    """Pointwise fixed-time-scale safety row for a relative-degree-2 output.

    phi(x) @ u >= -(L_f^2 h + (2/tau) L_f h + (2/tau^2) h), the exact
    second-order Taylor condition normalized by tau^2/2.
    """
    if tau <= 0.0:
        raise ValueError(f"time scale must be positive, got {tau}")
    if model.m != 2:
        raise ValueError("pointwise row is defined for relative degree 2")
    h, lfh, lf2h = model.lie_stack(x)
    rhs = -(lf2h + (2.0 / tau) * lfh + (2.0 / tau**2) * h)
    coeffs = np.concatenate([model.phi(x), [0.0]])
    return ConstraintRow(coefficients=coeffs, rhs=rhs, sense="ge")


def build_hocbf_row(
    x: Array, p1: float, p2: float, model: SystemModel
) -> ConstraintRow:
    """Second-order barrier row phi(x) @ u >= -(L_f^2 h + (p1+p2) L_f h + p1 p2 h)."""
    if p1 <= 0.0 or p2 <= 0.0:
        raise ValueError("barrier rates must be positive")
    if model.m != 2:
        raise ValueError("second-order barrier row needs relative degree 2")
    h, lfh, lf2h = model.lie_stack(x)
    rhs = -(lf2h + (p1 + p2) * lfh + p1 * p2 * h)
    coeffs = np.concatenate([model.phi(x), [0.0]])
    return ConstraintRow(coefficients=coeffs, rhs=rhs, sense="ge")


def build_clf_row(x: Array, c3: float, model: SystemModel) -> ConstraintRow:
    """Slack-relaxed convergence row L_g V @ u - delta <= -(L_f V + c3 V)."""
    if c3 <= 0.0:
        raise ValueError("convergence rate must be positive")
    V, lfV, lgV = model.clf_terms(x)
    coeffs = np.concatenate([lgV, [-1.0]])
    return ConstraintRow(coefficients=coeffs, rhs=-(lfV + c3 * V), sense="le")


def build_qp_instance(
    rows,
    model: SystemModel,
    objective: str,
    x: Array | None = None,
    params: AccParams | None = None,
    w: float | None = None,
    u_lower: Array | None = None,
    u_upper: Array | None = None,
) -> QpInstance:
    """Assemble the controller QP over (u, delta) from safety/CLF rows.

    objective "plain" minimizes ||u||^2 + w delta^2; "acc_effort" minimizes
    ((u - F_r(v)) / M)^2 + w delta^2, expanded into diagonal-plus-linear
    form (the constant term is dropped).
    """
    q = model.q
    if w is None:
        if params is None:
            raise ValueError("need w or params for the slack weight")
        w = params.w
    if objective == "plain":
        diag = np.concatenate([np.ones(q), [w]])
        linear = np.zeros(q + 1)
    elif objective == "acc_effort":
        if params is None or x is None:
            raise ValueError("acc_effort objective needs params and the state")
        if q != 1:
            raise ValueError("acc_effort objective is single-input")
        fr = resistance_force(x[1], params)
        m2 = params.M**2
        diag = np.array([1.0 / m2, w])
        linear = np.array([-2.0 * fr / m2, 0.0])
    else:
        raise ValueError(f"unknown objective {objective!r}")
    lower = np.concatenate(
        [model.u_min if u_lower is None else np.asarray(u_lower, float), [0.0]]
    )
    upper = np.concatenate(
        [model.u_max if u_upper is None else np.asarray(u_upper, float),
         [DELTA_CAP]]
    )
    return QpInstance(
        quadratic_diag=diag,
        linear_cost=linear,
        rows=tuple(rows),
        lower=lower,
        upper=upper,
    )
