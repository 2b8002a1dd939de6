"""Small dense QP solver for the controller's input-constrained QPs.

The QPs minimise a separable quadratic over a box (inputs plus one slack)
subject to a few rows.  A row with one nonzero coefficient is a bound and
is folded into the box.  At most one general row may be left: with one
input every safety row is a bound and the convergence row is the only
general row, and an instance with two is a ValueError.  The optimum is the
clipped unconstrained minimiser if it meets the row, else the point on the
row found by a breakpoint search on the row's multiplier (the continuous
quadratic knapsack; Kiwiel, Math. Programming 2008).  A constraint counts
as met when it is missed by at most ``FEAS_TOL * max(1, |b|)``: bounds
that cross only within that are met between their ends, and a row whose
maximum over the box falls short of b only within it is met at that
maximum.  All of it runs over a stack of same-shape instances passed as
arrays (the candidate time scales of one decision), each instance getting
the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

FEAS_TOL = 1e-8


@dataclass(frozen=True)
class QpInstance:
    """min sum_i quadratic_diag[i] x_i^2 + linear_cost @ x over the rows
    a_ge @ x >= b_ge, a_ge (r, dim) and b_ge (r,), and the box."""

    quadratic_diag: Array
    linear_cost: Array
    a_ge: Array
    b_ge: Array
    lower: Array
    upper: Array

    def __post_init__(self) -> None:
        for name in ("quadratic_diag", "linear_cost", "a_ge", "b_ge", "lower", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        vectors = [self.linear_cost, self.lower, self.upper]
        rows = self.a_ge.shape[:1]
        if (any(vector.shape != (self.dim,) for vector in vectors)
                or self.a_ge.shape != rows + (self.dim,) or self.b_ge.shape != rows):
            raise ValueError("cost, box and rows must match the instance dimension")
        _check(self.quadratic_diag, self.lower, self.upper, self.linear_cost,
               self.a_ge, self.b_ge)

    @property
    def dim(self) -> int:
        return self.quadratic_diag.shape[0]


@dataclass(frozen=True)
class QpSolution:
    values: Array
    objective: float
    status: str  # "optimal" | "infeasible"


def _constraints_ge(a, b, lower, upper) -> tuple[Array, Array]:
    """Box faces, then the rows, of a stack oriented as A @ x >= b; A is
    (n_inst, n_con, dim) and b is (n_inst, n_con)."""
    n_inst, n_rows, dim = a.shape
    a_all = np.empty((n_inst, 2 * dim + n_rows, dim))
    a_all[:, :dim], a_all[:, dim : 2 * dim] = np.eye(dim), -np.eye(dim)
    a_all[:, 2 * dim :] = a
    b_all = np.concatenate([lower, -upper, b], axis=1)
    return a_all, b_all


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

    ``a_ge`` (n, n_rows, dim) fixes the shape; the other arrays have it or
    broadcast to it.  Returns the optima (n, dim), objectives (n,) and
    feasibility flags (n,), NaN and +inf where infeasible: entry i is what
    :func:`solve_qp` returns for instance i, bit for bit.  An instance with
    two or more rows of more than one nonzero coefficient is a ValueError.
    """
    a = np.asarray(a_ge, dtype=float)
    if a.ndim != 3:
        raise ValueError("constraint rows must have shape (n, n_rows, dim)")
    n_inst, n_rows, dim = a.shape
    diag, linear, lower, upper = (
        np.broadcast_to(np.asarray(v, dtype=float), (n_inst, dim))
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
    """Optima, objectives and feasibility flags of a checked stack.  The fold
    and closed form put the instance axis last, variables (dim, n_inst) and
    constraints (n_con, dim, n_inst), so small reductions run over outer axes."""
    n_inst, _, dim = a.shape
    if n_inst == 0:
        return np.empty((0, dim)), np.empty(0), np.empty(0, dtype=bool)
    a_all, b_all = _constraints_ge(a, b, lower, upper)
    a_all, b_all = np.ascontiguousarray(a_all.transpose(1, 2, 0)), b_all.T
    norms, b_unit = _row_norms(a_all, b_all, axis=1)
    tol = FEAS_TOL * np.maximum(1.0, np.abs(b_all))
    count = np.add.reduce(a_all != 0.0, axis=1)
    n_general = np.add.reduce(general := count > 1)
    if (n_general > 1).any():
        raise ValueError("a QP instance has two or more rows with more than one "
                         "nonzero coefficient; the solver takes at most one")
    # each instance's general row; none is a zero row with b = -inf
    row, has_row = (general.argmax(axis=0), np.arange(n_inst)), n_general > 0
    a_row = a_all[row[0], :, row[1]].T * has_row
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, hi, empty = _fold(a_all, b_all, tol, count == 1)
        empty |= np.logical_or.reduce((count == 0) & (b_all > tol))  # 0 >= b
        values, feasible = _closed_form(
            diag.T, c.T, lo, hi, a_row, np.where(has_row, b_all[row], -math.inf),
            tol[row], a_row / norms[row], b_unit[row])
        feasible &= ~empty
        values[:, ~feasible] = np.nan
        objective = np.add.reduce(diag.T * values * values) + np.add.reduce(c.T * values)
    objective[~(feasible & np.isfinite(objective))] = math.inf
    return np.ascontiguousarray(values.T), objective, feasible


def _fold(a_all, b_all, tol, single) -> tuple[Array, ...]:
    """The tightest bounds (dim, n_inst) that the constraints marked ``single``
    put on their one variable, and whether they are empty.  A bound counts
    as met when missed by at most ``tol``, so the bounds are empty when
    their relaxed ends cross; where only the bounds themselves cross, the
    part of [hi, lo] that meets every bound within it replaces them."""
    coef = np.add.reduce(a_all, axis=1)  # a single row's one coefficient
    bound, relaxed = (b_all / coef)[:, None], ((b_all - tol) / coef)[:, None]
    low_side, high_side = single[:, None] & (a_all > 0.0), single[:, None] & (a_all < 0.0)
    lo = np.maximum.reduce(np.where(low_side, bound, -math.inf))
    hi = np.minimum.reduce(np.where(high_side, bound, math.inf))
    lo_tol = np.maximum.reduce(np.where(low_side, relaxed, -math.inf))
    hi_tol = np.minimum.reduce(np.where(high_side, relaxed, math.inf))
    crossed = lo > hi
    return (np.where(crossed, np.maximum(hi, lo_tol), lo),
            np.where(crossed, np.minimum(lo, hi_tol), hi), np.logical_or.reduce(lo_tol > hi_tol))


def _closed_form(diag, c, lo, hi, a, b, tol, a_unit, b_unit) -> tuple[Array, Array]:
    """Minimisers (dim, n_inst) of diag @ x**2 + c @ x over [lo, hi] and one
    row a @ x >= b (none: a zero row, b = -inf; unit row ``a_unit``,
    ``b_unit``), and whether each is feasible.  Along the multiplier
    lam >= 0, x = clip(m + r lam, lo, hi), m = -c / (2 diag),
    r = a_unit / (2 diag), and a_unit @ x rises affinely between the
    breakpoints where variables reach bounds; the first that meets the row
    ends the root's segment, solved with its free variables.  A row that no
    breakpoint meets is met, at its maximum over the box, if that falls
    short of b by at most ``tol``.  Run under an errstate that ignores
    overflow (huge weights)."""
    two_diag = diag + diag
    m = -c / two_diag
    x0 = np.minimum(np.maximum(m, lo), hi)
    meets = np.add.reduce(a * x0) >= b
    if meets.all():
        return x0, meets
    r = a_unit / two_diag
    to_lo, to_hi = (lo - m) / r, (hi - m) / r
    first, last = np.fmin(to_lo, to_hi), np.fmax(to_lo, to_hi)
    lams = np.fmax(np.concatenate((first, last)), 0.0)
    # fmin, fmax: the NaN of r = 0 at an infinite breakpoint adds 0 to the row
    y = np.fmin(np.fmax(lams[:, None] * r + m, lo), hi)
    reach = np.add.reduce(a_unit * y, axis=1) >= b_unit
    lam_lo = np.maximum.reduce(np.where(reach, 0.0, lams))
    lam_hi = np.minimum.reduce(np.where(reach, lams, math.inf))
    moves, up = r != 0.0, r > 0.0
    free = (first <= lam_lo) & (last >= lam_hi)
    held = np.where(moves, np.where((last <= lam_lo) == up, hi, lo), x0)
    slope = np.add.reduce(a_unit * r * free)
    excess = b_unit - np.add.reduce(a_unit * np.where(free, m, held))
    # m + r lam, lam = excess / slope, which itself can overflow
    on_row = np.where(free, np.minimum(np.maximum(m + r / slope * excess, lo), hi), held)
    reached = np.logical_or.reduce(reach)
    top = np.where(moves, np.where(up, hi, lo), x0)  # the row's maximiser over the box
    within = b - np.add.reduce(a * top) <= tol
    return (np.where(meets, x0, np.where(reached, on_row, top)),
            meets | reached | within)


def _row_norms(a_all: Array, b_all: Array, axis: int) -> tuple[Array, Array]:
    """Euclidean norms of the constraint rows (entries along ``axis``), 1 for
    a zero row, and the right sides divided by them.  A row whose squares
    overflow is scaled by its largest entry first; every other norm keeps
    the bits of the plain sum.  A ValueError if a result is not finite."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(a_all * a_all, axis))
        if norms.max() == math.inf:
            huge = np.isinf(norms)
            rows = np.moveaxis(a_all, axis, -1)[huge]
            peak = np.abs(rows).max(-1)
            norms[huge] = peak * np.sqrt(((rows / peak[:, None]) ** 2).sum(-1))
        norms[norms == 0.0] = 1.0  # a zero row keeps its right side
        b_unit = b_all / norms
    if norms.max() == math.inf or not np.isfinite(b_unit).all():
        raise ValueError("the QP rows cannot be normalised: a normalised value is not finite")
    return norms, b_unit
