"""Safety rows for the controller variants and the QP they pose.

Every kind poses the same QP over (u, delta): its safety rows on u, as one
:class:`SafetyRows` table, and the slack-relaxed CLF row, with the cost and
box of :func:`qp_cost_and_box`; :func:`build_qp_stack` is the one place that
lays it out.  A row is a pair (a, b) meaning a @ (u, delta) >= b.  Safety
rows leave the slack coefficient at zero; only the CLF row is relaxed by
delta.  Pointwise rows (fixed-time-scale and second-order barrier
baselines) are evaluated at the event state; the robust adaptive rows use
the worst-case quantities over the event box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemModel
from .qp import QpInstance
from .robust_bounds import GridStack, taylor_table

Array = np.ndarray

DELTA_CAP = 1.0e7  # keeps the slack box bounded; never active in practice


@dataclass(frozen=True)
class SafetyRows:
    """Safety rows on the input at K time scales: ``g u >= -h_worst[k]``
    for every input gain g in [low[k], high[k]].  A gain enters linearly,
    so the two rows of the ends, ``low[k] u >= -h_worst[k]`` and
    ``high[k] u >= -h_worst[k]``, enforce the condition for every u.  A
    pointwise row is a table of one whose gain interval is a point."""

    h_worst: Array  # (K,)
    low: Array  # (K,)
    high: Array  # (K,)

    def margins(self, lower: float, upper: float) -> Array:
        """Best slack of the least row over the inputs [lower, upper], (K,):
        the rows admit an input there iff its value is >= 0.

        The least row is h_worst + min(low u, high u), concave in u with its
        kink at 0, so it peaks at an end of [lower, upper] or at 0 clipped
        into it."""
        ends = np.array([lower, upper, min(max(lower, 0.0), upper)])
        least = np.minimum(self.low[:, None] * ends, self.high[:, None] * ends)
        return self.h_worst + least.max(axis=1)


def atlc_rows(gs: GridStack, taus) -> SafetyRows:
    """Robust adaptive safety rows g u >= -h_worst at every time scale of
    ``taus``, as one table.

    The gains [low, high] are (tau^m / m!) times the extrema of the input
    gain phi over the box lattice; a gain constant there gives two equal
    rows, which the QP folds into one bound.  h_worst is the minimum of
    the joint Taylor sum of h over the box lattice, from one lattice product
    per time scale, so each entry is bit for bit that time scale's value on
    its own; a product over all time scales at once rounds differently.
    The lattice minimum upper-bounds the true box minimum and meets it when
    the sum is monotone per axis, as in the car-following case, where the
    minimizing vertex is a lattice point.
    """
    weights = taylor_table(taus, gs.m)
    h_worst = np.array([(gs.stack @ w).min() for w in weights])
    scale = weights[:, -1]
    return SafetyRows(h_worst, scale * gs.phi.min(), scale * gs.phi.max())


def build_pointwise_row(x: Array, c1: float, c0: float, model: SystemModel) -> SafetyRows:
    """Second-order barrier row at the state x for a relative-degree-2
    output, phi(x) u >= -(L_f^2 h + c1 L_f h + c0 h), as a table of one.

    The fixed-time-scale row takes (c1, c0) = (2/tau, 2/tau^2), the exact
    second-order Taylor condition normalized by tau^2/2; the high-order
    barrier row with rates p1, p2 takes (p1 + p2, p1 p2).
    """
    if not (c1 > 0.0 and c0 > 0.0):
        raise ValueError(f"row coefficients must be positive, got {c1}, {c0}")
    if model.m != 2:
        raise ValueError("pointwise row is defined for relative degree 2")
    h, lfh, lf2h = model.lie_stack(x)
    gain = np.array([model.phi(x)])
    return SafetyRows(np.array([lf2h + c1 * lfh + c0 * h]), gain, gain)


def build_clf_row(x: Array, c3: float, model: SystemModel) -> tuple[Array, float]:
    """Slack-relaxed convergence row L_g V u - delta <= -(L_f V + c3 V),
    stored negated: -L_g V u + delta >= L_f V + c3 V."""
    if c3 <= 0.0:
        raise ValueError("convergence rate must be positive")
    V, lfV, lgV = model.clf_terms(x)
    return np.array([-lgV, 1.0]), lfV + c3 * V


def qp_cost_and_box(model: SystemModel, x: Array, w: float) -> tuple[Array, ...]:
    """The controller QP's cost (diag, linear) and box (lower, upper) over
    (u, delta) at the state x: the model's input cost plus w delta^2."""
    diag, linear = model.cost(x)
    return (np.array([diag, w]), np.array([linear, 0.0]), np.array([model.u_min, 0.0]),
            np.array([model.u_max, DELTA_CAP]))


def build_qp_stack(rows: SafetyRows, clf_row: tuple[Array, float], model: SystemModel,
                   x: Array, w: float) -> tuple[Array, ...]:
    """The controller QP of every entry of the table, as the arguments of
    :func:`~atlc.qp.solve_qp_stack`: the shared cost and box of
    :func:`qp_cost_and_box`, and per entry the rows of its two gain ends and
    the CLF row, (K, 3, 2) and (K, 3)."""
    diag, linear, lower, upper = qp_cost_and_box(model, x, w)
    n_rows = len(rows.h_worst)
    a = np.zeros((n_rows, 3, 2))
    a[:, 0, 0], a[:, 1, 0], a[:, 2] = rows.low, rows.high, clf_row[0]
    b = np.empty((n_rows, 3))
    b[:, 0] = b[:, 1] = -rows.h_worst
    b[:, 2] = clf_row[1]
    return diag, linear, a, b, lower, upper


def build_qp_instance(rows: SafetyRows, clf_row: tuple[Array, float], model: SystemModel,
                      x: Array, w: float) -> QpInstance:
    """Entry 0 of :func:`build_qp_stack`, as one instance."""
    diag, linear, a, b, lower, upper = build_qp_stack(rows, clf_row, model, x, w)
    return QpInstance(diag, linear, a[0], b[0], lower, upper)
