"""Small dense QP solver for the controller's input-constrained QPs.

The QPs minimise a separable quadratic over a box (inputs plus one slack)
subject to a few rows.  A row with one nonzero coefficient is a bound and
is folded into the box.  With at most one general row left, the optimum is
the clipped unconstrained minimiser if it meets the row, else the point on
the row found by a breakpoint search on the row's multiplier (the continuous
quadratic knapsack; Kiwiel, Math. Programming 2008).  Two or more general
rows, and the instances that the enumeration's feasibility tolerance
decides (bounds, or a row, met only within it), are left to an exact
active-set enumeration: the KKT point of every subset of at most dim
constraints, kept if feasible within the tolerance with nonnegative
multipliers, and a max-min-slack certificate of infeasibility.  All of it
runs over a stack of same-shape instances passed as arrays (the candidate
time scales of one decision), each instance getting the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

Array = np.ndarray

FEAS_TOL = 1e-8
MULT_TOL = 1e-9


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


@lru_cache(maxsize=None)
def _combinations(n: int, size: int) -> Array:
    """Every size-subset of range(n) as an index array, in lexicographic order."""
    combos = np.array(list(combinations(range(n), size)), dtype=int)
    combos = combos.reshape(-1, size)
    combos.setflags(write=False)
    return combos


def _solve_stack(matrices: Array, rhs: Array) -> Array:
    """Stacked linear solves; a singular system yields a NaN row."""
    try:
        return np.linalg.solve(matrices, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        sols = np.full(rhs.shape, np.nan)
        for i in range(rhs.shape[0]):
            try:
                sols[i] = np.linalg.solve(matrices[i], rhs[i])
            except np.linalg.LinAlgError:
                continue
        return sols


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
    :func:`solve_qp` returns for instance i, bit for bit.
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
    # each instance's general row; none is a zero row with b = -inf
    row, has_row = (general.argmax(axis=0), np.arange(n_inst)), n_general > 0
    a_row = a_all[row[0], :, row[1]].T * has_row
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, hi, empty, tied = _fold(a_all, b_all, tol, count == 1)
        empty |= np.logical_or.reduce((count == 0) & (b_all > tol))  # 0 >= b
        values, feasible, edge = _closed_form(
            diag.T, c.T, lo, hi, a_row, np.where(has_row, b_all[row], -math.inf),
            tol[row], a_row / norms[row], b_unit[row])
        feasible &= ~empty
        values[:, ~feasible] = np.nan
        objective = np.add.reduce(diag.T * values * values) + np.add.reduce(c.T * values)
    objective[~(feasible & np.isfinite(objective))] = math.inf
    values = np.ascontiguousarray(values.T)
    hard = ~empty & ((n_general > 1) | tied | edge)
    if hard.any():  # two general rows, or a pick that the tolerance decides
        values[hard], objective[hard], feasible[hard] = _enumerate(
            diag[hard], c[hard], a[hard], b[hard], lower[hard], upper[hard])
    return values, objective, feasible


def _fold(a_all, b_all, tol, single) -> tuple[Array, ...]:
    """The tightest bounds (dim, n_inst) that the constraints marked ``single``
    put on their one variable, whether they are empty, and whether the
    tolerance decides between them: the enumeration accepts violations up to
    ``tol`` and keeps the least objective, so the bounds are empty when their
    relaxed ends cross, and its pick rests on its multipliers when they cross
    within it or another bound of a side lies within it of the tightest."""
    coef = np.add.reduce(a_all, axis=1)  # a single row's one coefficient
    bound, relaxed = (b_all / coef)[:, None], ((b_all - tol) / coef)[:, None]
    low_side, high_side = single[:, None] & (a_all > 0.0), single[:, None] & (a_all < 0.0)
    lo = np.maximum.reduce(np.where(low_side, bound, -math.inf))
    hi = np.minimum.reduce(np.where(high_side, bound, math.inf))
    lo_tol = np.maximum.reduce(np.where(low_side, relaxed, -math.inf))
    hi_tol = np.minimum.reduce(np.where(high_side, relaxed, math.inf))
    close = (low_side & (bound >= lo_tol) & (bound < lo)) | (
        high_side & (bound <= hi_tol) & (bound > hi))
    return (lo, hi, np.logical_or.reduce(lo_tol > hi_tol),
            np.logical_or.reduce(lo > hi) | np.logical_or.reduce(close, axis=(0, 1)))


def _closed_form(diag, c, lo, hi, a, b, tol, a_unit, b_unit) -> tuple[Array, ...]:
    """Minimisers (dim, n_inst) of diag @ x**2 + c @ x over [lo, hi] and one
    row a @ x >= b (none: a zero row, b = -inf; unit row ``a_unit``,
    ``b_unit``), whether each is feasible, and whether the box's minimiser or
    the row's maximum over the box meets the row only within ``tol`` (the
    enumeration's to decide).  Along the multiplier lam >= 0, x = clip(m + r
    lam, lo, hi), m = -c / (2 diag), r = a_unit / (2 diag), and a_unit @ x
    rises affinely between the breakpoints where variables reach bounds; the
    first that meets the row ends the root's segment, solved with its free
    variables.  Run under an errstate that ignores overflow (huge weights)."""
    two_diag = diag + diag
    m = -c / two_diag
    x0 = np.minimum(np.maximum(m, lo), hi)
    miss = b - np.add.reduce(a * x0)
    meets = miss <= 0.0
    if meets.all():
        return x0, meets, ~meets
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
    top = np.add.reduce(a * np.where(moves, np.where(up, hi, lo), x0))  # the row's maximum
    edge = ~meets & ((miss <= tol) | (np.abs(b - top) <= tol))
    return np.where(meets, x0, on_row), meets | np.logical_or.reduce(reach), edge


def _enumerate(diag, c, a, b, lower, upper) -> tuple[Array, Array, Array]:
    """Active-set enumeration over a checked stack of one or more instances:
    the unconstrained minimiser, then the KKT point of every subset of
    constraints of size 1, ..., dim with independent normals; the first
    feasible one with nonnegative multipliers and the least objective wins.
    Each instance solves its own systems, as it would alone."""
    n_inst, _, dim = a.shape
    a_all, b_all = _constraints_ge(a, b, lower, upper)
    n_con = a_all.shape[1]
    norms, b_unit = _row_norms(a_all, b_all)
    a_unit = a_all / norms[..., None]
    neg_c, two_diag = -c, 2.0 * diag
    cand, valid = [(neg_c / two_diag)[:, None]], [np.ones((n_inst, 1), dtype=bool)]
    for size in range(1, dim + 1):
        combos = _combinations(n_con, size)
        n_combo = combos.shape[0]
        points, ok = _kkt_points(
            np.repeat(two_diag, n_combo, axis=0), np.repeat(neg_c, n_combo, axis=0),
            a_unit[:, combos].reshape(-1, size, dim), b_unit[:, combos].reshape(-1, size))
        cand.append(points.reshape(n_inst, n_combo, dim))
        valid.append(ok.reshape(n_inst, n_combo))
    cand, valid = np.concatenate(cand, axis=1), np.concatenate(valid, axis=1)

    feas_tol = FEAS_TOL * np.maximum(1.0, np.abs(b_all))
    violated = (b_all[:, None, :] - cand @ a_all.swapaxes(-1, -2)
                > feas_tol[:, None, :]).any(axis=-1)
    feasible = valid & ~violated
    lacking = ~feasible.any(axis=1)
    if lacking.any() and (
            _max_min_slack(a_all[lacking], b_all[lacking]) > FEAS_TOL).any():
        # clearly feasible yet no candidate survived: internal failure, do
        # not mask it as infeasibility
        raise RuntimeError(
            "active-set enumeration found no optimum for a feasible instance"
        )

    # the objective as dot products, as one instance on its own computes it
    # (a stacked matmul is bit-identical); a non-finite one counts as +inf
    with np.errstate(over="ignore", invalid="ignore"):
        objective = (diag[:, None, None] @ (cand * cand)[..., None]
                     + c[:, None, None] @ cand[..., None])[..., 0, 0]
    objective = np.where(feasible & np.isfinite(objective), objective, math.inf)
    pick = np.arange(n_inst), objective.argmin(axis=1)  # first minimum
    values = np.where(lacking[:, None], np.nan, cand[pick])
    return values, objective[pick], ~lacking


def _row_norms(a_all: Array, b_all: Array, axis: int = -1) -> tuple[Array, Array]:
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
        # a zero unit row makes every subset holding it dependent: dropped
        norms[norms == 0.0] = 1.0
        b_unit = b_all / norms
    if norms.max() == math.inf or not np.isfinite(b_unit).all():
        raise ValueError("the QP rows cannot be normalised: a normalised value is not finite")
    return norms, b_unit


def _kkt_points(two_diag: Array, neg_c: Array, rows: Array,
                rhs_rows: Array) -> tuple[Array, Array]:
    """KKT points (n, dim) of min diag @ x**2 + c @ x subject to
    rows @ x = rhs_rows, unit rows (n, size, dim), zero where the rows are
    dependent, and whether each has nonnegative multipliers (n,)."""
    n_sys, size, dim = rows.shape
    k = dim + size
    gram = rows @ rows.swapaxes(-1, -2)
    det = gram[..., 0, 0] if size == 1 else np.linalg.det(gram)
    independent = np.abs(det) > 1e-12
    kkt = np.zeros((n_sys, k, k))
    kkt[:, np.arange(dim), np.arange(dim)] = two_diag
    kkt[:, :dim, dim:] = -rows.swapaxes(-1, -2)
    kkt[:, dim:, :dim] = rows
    kkt = kkt[independent]
    rhs = np.concatenate([neg_c, rhs_rows], axis=1)[independent]
    sols = _solve_stack(kkt, rhs)
    # one step of refinement, and residuals relative to the products they sum:
    # a weight far above the others makes multipliers that dwarf the point; a
    # non-finite entry fails its residual test (the NaN rows of singular systems)
    with np.errstate(over="ignore", invalid="ignore"):
        sols += _solve_stack(kkt, rhs - (kkt @ sols[..., None])[..., 0])
        residual_ok = np.abs((kkt @ sols[..., None])[..., 0] - rhs) <= 1e-6 * np.maximum(
            np.maximum(1.0, np.abs(rhs)), (np.abs(kkt) @ np.abs(sols)[..., None])[..., 0])
    points, ok = np.zeros((n_sys, dim)), np.zeros(n_sys, dtype=bool)
    points[independent] = sols[:, :dim]
    ok[independent] = residual_ok.all(axis=1) & (
        sols[:, dim:] >= -MULT_TOL).all(axis=1)
    return points, ok


def _max_min_slack(a_all: Array, b_all: Array) -> Array:
    """Phase-1 certificate per instance (constraints as from
    :func:`_constraints_ge`, with rows): the max over the box of the least
    row slack, from the vertices of max s subject to row_i @ x - s >= rhs_i
    and the box, each fixed by dim+1 active constraints.  A nonnegative
    value certifies a feasible instance."""
    n_inst, n_con, dim = a_all.shape
    # constraints over (x, s), oriented as A @ (x, s) >= b
    lifted = np.zeros((n_inst, n_con, dim + 1))
    lifted[..., :dim] = a_all
    lifted[:, 2 * dim :, dim] = -1.0
    combos = _combinations(n_con, dim + 1)
    systems = lifted[:, combos]  # (n_inst, n_combo, dim + 1, dim + 1)
    solvable = np.linalg.det(systems) != 0.0
    inst_idx = np.nonzero(solvable)[0]
    points = _solve_stack(systems[solvable], b_all[:, combos][solvable])
    feas_tol = FEAS_TOL * np.maximum(1.0, np.abs(b_all))
    slack = (lifted[inst_idx] @ points[..., None])[..., 0] - b_all[inst_idx]
    vertex = np.isfinite(points).all(axis=1) & ~(
        slack < -feas_tol[inst_idx]).any(axis=1)
    best = np.full(n_inst, -math.inf)
    np.maximum.at(best, inst_idx[vertex], points[vertex, -1])
    return best
