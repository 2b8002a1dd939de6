"""Inequality rows for the controller variants, in the QP row format.

Every row is a pair (a, b) meaning a @ (u_1..u_q, delta) >= b.  Safety
rows leave the slack coefficient at zero; only the CLF row is relaxed by
delta.  Pointwise rows (fixed-time-scale and second-order barrier
baselines) are evaluated at the event state; the robust adaptive row uses
the worst-case quantities over the event box.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import SystemModel
from .qp import QpInstance
from .robust_bounds import GridStack, taylor_table

Array = np.ndarray

DELTA_CAP = 1.0e7  # keeps the slack box bounded; never active in practice


@dataclass(frozen=True)
class RobustRows:
    """Robust adaptive safety rows at K time scales on B parts of the input
    box: ``gains[k, b] @ u >= -h_worst[k]`` for u in [lower[b], upper[b]]."""

    h_worst: Array  # (K,)
    gains: Array  # (K, B, q)
    lower: Array  # (B, q)
    upper: Array  # (B, q)

    def row(self, k: int, b: int) -> tuple[Array, float]:
        """Row b at time scale k, over the decision vector (u, delta)."""
        return np.append(self.gains[k, b], 0.0), -self.h_worst[k]

    def margins(self) -> Array:
        """Best slack of each row over its part of the input box, (K, B):
        a row is satisfiable there iff its value is >= 0."""
        return _best_slack(self.gains, self.h_worst[:, None], self.lower, self.upper)


def atlc_rows(gs: GridStack, taus, model: SystemModel) -> RobustRows:
    """Robust adaptive safety rows g_worst @ u >= -h_worst at every time
    scale of ``taus``, as one table.

    The worst-case input gain depends on the sign of each input entry, so
    there is one row per non-empty sign orthant of the input box.  When the
    rows of all orthants coincide (constant input gain over the box) a
    single row over the full box is equivalent and returned instead.
    h_worst is the minimum of the joint Taylor sum of h over the box
    lattice, from one lattice product per time scale, so each entry is
    bit for bit that time scale's value on its own; a product over all time
    scales at once rounds differently.  The lattice minimum upper-bounds
    the true box minimum and meets it when the sum is monotone per axis, as
    in the car-following case, where the minimizing vertex is a lattice
    point.
    """
    weights = taylor_table(taus, gs.m)
    h_worst = np.array([(gs.stack @ w).min() for w in weights])
    scale = weights[:, -1]
    branches = np.array(list(product((1.0, -1.0), repeat=model.q)))
    worst = np.where(branches > 0, gs.phi.min(axis=0), gs.phi.max(axis=0))
    gains = scale[:, None, None] * worst
    if (gains == gains[:, :1]).all():
        return RobustRows(h_worst, gains[:, :1], model.u_min[None], model.u_max[None])
    # branch +1 restricts u_j >= 0, branch -1 u_j <= 0; empty parts drop out
    lower = np.where(branches > 0, np.maximum(model.u_min, 0.0), model.u_min)
    upper = np.where(branches > 0, model.u_max, np.minimum(model.u_max, 0.0))
    keep = (lower <= upper).all(axis=1)
    return RobustRows(h_worst, gains[:, keep], lower[keep], upper[keep])


def _best_slack(gains: Array, h, lower: Array, upper: Array) -> Array:
    """Best slack of the rows gains @ u >= -h over the input boxes
    [lower, upper], broadcast over the leading axes."""
    best = np.where(gains > 0, upper, lower)
    # row-by-column products take the dot product of a single row, bit for bit
    return (gains[..., None, :] @ best[..., None])[..., 0, 0] + h


def row_margin(row: tuple[Array, float], lower: Array, upper: Array) -> float:
    """Best achievable slack of a safety row over the input box
    [lower, upper]: the row is satisfiable there iff this is >= 0."""
    a, b = row
    return float(_best_slack(a[:-1], -b, lower, upper))  # no slack column


def build_pointwise_row(
    x: Array, c1: float, c0: float, model: SystemModel
) -> tuple[Array, float]:
    """Second-order barrier row at the state x for a relative-degree-2
    output: phi(x) @ u >= -(L_f^2 h + c1 L_f h + c0 h).

    The fixed-time-scale row takes (c1, c0) = (2/tau, 2/tau^2), the exact
    second-order Taylor condition normalized by tau^2/2; the high-order
    barrier row with rates p1, p2 takes (p1 + p2, p1 p2).
    """
    if not (c1 > 0.0 and c0 > 0.0):
        raise ValueError(f"row coefficients must be positive, got {c1}, {c0}")
    if model.m != 2:
        raise ValueError("pointwise row is defined for relative degree 2")
    h, lfh, lf2h = model.lie_stack(x)
    return np.concatenate([model.phi(x), [0.0]]), -(lf2h + c1 * lfh + c0 * h)


def build_clf_row(x: Array, c3: float, model: SystemModel) -> tuple[Array, float]:
    """Slack-relaxed convergence row L_g V @ u - delta <= -(L_f V + c3 V),
    stored negated: -L_g V @ u + delta >= L_f V + c3 V."""
    if c3 <= 0.0:
        raise ValueError("convergence rate must be positive")
    V, lfV, lgV = model.clf_terms(x)
    return np.concatenate([-lgV, [1.0]]), lfV + c3 * V


def build_qp_instance(
    rows,
    model: SystemModel,
    x: Array,
    w: float,
    u_lower: Array | None = None,
    u_upper: Array | None = None,
) -> QpInstance:
    """Assemble the controller QP over (u, delta) from (a, b) rows: the
    model's input cost at the state x plus w delta^2."""
    diag, linear = model.cost(x)
    return QpInstance(
        quadratic_diag=np.append(diag, w),
        linear_cost=np.append(linear, 0.0),
        a_ge=np.array([a for a, _ in rows]),
        b_ge=np.array([b for _, b in rows]),
        lower=np.append(model.u_min if u_lower is None else u_lower, 0.0),
        upper=np.append(model.u_max if u_upper is None else u_upper, DELTA_CAP),
    )
