"""Closed-form solver of the controller's QP in the input u and the slack delta.

Every QP here minimises ``d u^2 + c u + w delta^2`` (plus a linear cost on
delta, if given) over a box and rows ``a @ (u, delta) >= b``.  A row with
one nonzero coefficient, such as every safety row, is folded into u's or
delta's interval.  At most one general row may be left, the slack-relaxed
convergence row, with a positive delta coefficient; another shape is a
ValueError.  The clipped unconstrained minimiser is the optimum if it meets
the row.  Otherwise the optimum is on the row: u is the root with both
variables free, clipped into u's interval, and delta follows from the row
(held at the bound it would cross, u then following from the row).  A
constraint missed by at most ``FEAS_TOL * max(1, |b|)`` counts as met.  A
stack of same-shape instances (the candidate time scales of one decision)
is solved as arrays, each instance getting the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

FEAS_TOL = 1e-8

SHAPE = ("the solver takes QPs over (u, delta): cost and box of shape (2,), "
         "rows (n_rows, 2) and b (n_rows,), stacked over a leading axis")
NOT_NORMALISED = "the QP rows cannot be normalised: a normalised value is not finite"


@dataclass(frozen=True)
class QpInstance:
    """min quadratic_diag @ x**2 + linear_cost @ x over x = (u, delta) in the
    box, subject to the rows a_ge @ x >= b_ge, a_ge (r, 2) and b_ge (r,)."""

    quadratic_diag: Array
    linear_cost: Array
    a_ge: Array
    b_ge: Array
    lower: Array
    upper: Array

    def __post_init__(self) -> None:
        for name in ("quadratic_diag", "linear_cost", "a_ge", "b_ge", "lower", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        vectors = [self.quadratic_diag, self.linear_cost, self.lower, self.upper]
        rows = self.a_ge.shape[:1]
        if (any(vector.shape != (2,) for vector in vectors)
                or self.a_ge.shape != rows + (2,) or self.b_ge.shape != rows):
            raise ValueError(SHAPE)
        _check(self.quadratic_diag, self.lower, self.upper, self.linear_cost,
               self.a_ge, self.b_ge)


@dataclass(frozen=True)
class QpSolution:
    values: Array
    objective: float
    status: str  # "optimal" | "infeasible"


def solve_qp(inst: QpInstance) -> QpSolution:
    """Global optimum of one instance; the stacked solve of a batch of one."""
    values, objective, optimal = _solve(*(v[None] for v in (
        inst.quadratic_diag, inst.linear_cost, inst.a_ge, inst.b_ge,
        inst.lower, inst.upper)))
    return QpSolution(values=values[0], objective=float(objective[0]),
                      status="optimal" if optimal[0] else "infeasible")


def solve_qp_stack(diag, linear, a_ge, b_ge, lower, upper) -> tuple[Array, ...]:
    """Global optima of the stack min diag[i] @ x**2 + linear[i] @ x over
    a_ge[i] @ x >= b_ge[i] and lower[i] <= x <= upper[i], checked once.

    ``a_ge`` (n, n_rows, 2) fixes the shape; the other arrays have it or
    broadcast to it.  Returns the optima (n, 2), objectives (n,) and
    feasibility flags (n,), NaN and +inf where infeasible: entry i is what
    :func:`solve_qp` returns for instance i, bit for bit.  Rows of another
    shape, or an instance with two general rows or a negative delta
    coefficient in its general row, are a ValueError.
    """
    a = np.asarray(a_ge, dtype=float)
    if a.ndim != 3 or a.shape[2] != 2:
        raise ValueError(f"{SHAPE}; got rows of shape {a.shape}")
    n_inst, n_rows, _ = a.shape
    diag, linear, lower, upper = (
        np.broadcast_to(np.asarray(v, dtype=float), (n_inst, 2))
        for v in (diag, linear, lower, upper))
    b = np.broadcast_to(np.asarray(b_ge, dtype=float), (n_inst, n_rows))
    _check(diag, lower, upper, linear, a, b)
    return _solve(diag, linear, a, b, lower, upper)


def _check(diag: Array, lower: Array, upper: Array, *rest: Array) -> None:
    if not np.isfinite(np.concatenate([v.ravel() for v in (diag, lower, upper, *rest)])).all():
        raise ValueError("QP data must be finite")
    if (diag <= 0.0).any():
        raise ValueError("quadratic weights must be strictly positive")
    if (lower > upper).any():
        raise ValueError("need lower <= upper componentwise")


def _solve(diag, c, a, b, lower, upper) -> tuple[Array, Array, Array]:
    """Optima, objectives and feasibility flags of a checked stack.  The
    variables come first, (u, delta) by instance (2, n_inst), and the rows
    (2, n_rows, n_inst), so the folds reduce over outer axes in row order."""
    n_inst = a.shape[0]
    if n_inst == 0:
        return np.empty((0, 2)), np.empty(0), np.empty(0, dtype=bool)
    a, b, diag, c = a.transpose(2, 1, 0), b.T, diag.T, c.T
    zero = a == 0.0
    general = ~(zero[0] | zero[1])
    if (np.add.reduce(general) > 1).any() or (general & (a[1] < 0.0)).any():
        raise ValueError("a QP instance over (u, delta) may have one row with more than "
                         "one nonzero coefficient, and its delta coefficient must be positive")
    tol = FEAS_TOL * np.maximum(1.0, np.abs(b))
    # each instance's general row; none is a zero row with b = -inf
    row, row_b = np.add.reduce(a * general, axis=1), np.add.reduce(b * general)
    has_row = np.logical_or.reduce(general)
    row_b[~has_row] = -math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, hi, empty = _interval(a, b, tol, zero[::-1] & ~zero, lower.T, upper.T)
        empty |= np.logical_or.reduce(zero[0] & zero[1] & (b > tol))  # 0 >= b
        norm, b_unit = _row_norm(row, row_b, has_row)
        two_diag = diag + diag
        m = -c / two_diag
        x0 = np.minimum(np.maximum(m, lo), hi)
        meets = np.add.reduce(row * x0) >= row_b
        values, feasible = x0, meets
        if not meets.all():
            values, feasible = _on_row(meets, x0, m, two_diag, lo, hi, row, row_b,
                                       np.add.reduce(tol * general), norm, b_unit)
        feasible &= ~empty
        values[:, ~feasible] = np.nan
        objective = np.add.reduce(diag * values * values) + np.add.reduce(c * values)
    objective[~(feasible & np.isfinite(objective))] = math.inf
    return np.ascontiguousarray(values.T), objective, feasible


def _interval(a, b, tol, single, lower, upper) -> tuple[Array, Array, Array]:
    """Each variable's interval [lo, hi], (2, n_inst): its box and the rows
    ``single`` on it alone (b / a, from below where a > 0), and whether an
    instance's intervals are empty, i.e. cross when relaxed by ``tol``;
    where only the bounds cross, [hi, lo] within ``tol`` replaces them.  A
    bound that is not finite is a ValueError."""
    bound = b / a
    low, high = single & (a > 0.0), single & (a < 0.0)
    if (np.isinf(bound) & (low | high)).any():
        raise ValueError(NOT_NORMALISED)
    lo = np.maximum(lower, np.maximum.reduce(np.where(low, bound, -math.inf), 1, initial=-math.inf))
    hi = np.minimum(upper, np.minimum.reduce(np.where(high, bound, math.inf), 1, initial=math.inf))
    crossed = lo > hi
    if not crossed.any():  # the relaxed ends are at least as far apart
        return lo, hi, crossed[0]
    relaxed = (b - tol) / a
    lo_tol = np.maximum(lower - FEAS_TOL * np.maximum(1.0, np.abs(lower)), np.maximum.reduce(
        np.where(low, relaxed, -math.inf), 1, initial=-math.inf))
    hi_tol = np.minimum(upper + FEAS_TOL * np.maximum(1.0, np.abs(upper)), np.minimum.reduce(
        np.where(high, relaxed, math.inf), 1, initial=math.inf))
    return (np.where(crossed, np.maximum(hi, lo_tol), lo),
            np.where(crossed, np.minimum(lo, hi_tol), hi),
            np.logical_or.reduce(lo_tol > hi_tol))


def _row_norm(row, row_b, has_row) -> tuple[Array, Array]:
    """Euclidean norm of each general row (1 for a zero row) and its right
    side divided by it; a row whose squares overflow is scaled by its larger
    entry first.  A ValueError if a result is not finite."""
    norm = np.sqrt(np.add.reduce(row * row))
    huge = norm == math.inf
    if huge.any():
        peak = np.abs(row[:, huge]).max(axis=0)
        norm[huge] = peak * np.sqrt(np.add.reduce((row[:, huge] / peak) ** 2))
    norm[norm == 0.0] = 1.0
    b_unit = row_b / norm
    if norm.max() == math.inf or not np.isfinite(b_unit[has_row]).all():
        raise ValueError(NOT_NORMALISED)
    return norm, b_unit


def _on_row(meets, x0, m, two_diag, lo, hi, row, row_b, tol, norm, b_unit
            ) -> tuple[Array, Array]:
    """(u, delta), (2, n_inst), and feasibility: ``x0`` where it ``meets``
    the row, else the point on the row.  On the row's multiplier lam each
    variable is m + r lam, r = a_unit / (2 diag); the root with both free,
    lam = excess / slope, is taken as m + r / slope * excess (lam itself can
    overflow).  A row the box cannot meet is met at its maximum over the box
    if that falls short of b by at most ``tol``."""
    a_unit = row / norm
    r = a_unit / two_diag
    slope = np.add.reduce(a_unit * r)
    excess = b_unit - np.add.reduce(a_unit * m)
    free = m + r / slope * excess
    point = np.minimum(np.maximum(free, lo), hi)
    (a_u, a_d), (m_u, m_d), (r_u, r_d) = a_unit, m, r
    # delta from the row at a held u, or at the root with both free
    delta = np.where((free[0] < lo[0]) | (free[0] > hi[0]),
                     m_d + r_d / (a_d * r_d) * (b_unit - (a_u * point[0] + a_d * m_d)), free[1])
    point[1] = np.minimum(np.maximum(delta, lo[1]), hi[1])
    point[0] = np.where((delta < lo[1]) | (delta > hi[1]), np.minimum(np.maximum(
        m_u + r_u / (a_u * r_u) * (b_unit - (a_u * m_u + a_d * point[1])), lo[0]), hi[0]), point[0])
    top = np.where(row > 0.0, hi, lo)  # the row's maximiser over the box
    reached = np.add.reduce(a_unit * top) >= b_unit
    within = row_b - np.add.reduce(row * top) <= tol
    return np.where(meets, x0, np.where(reached, point, top)), meets | reached | within
