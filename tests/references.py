"""Reference computations that the tests compare the package against.

Each computes one quantity the simplest way: a brute-force grid search for
the QP optimum, the normalized row slacks of a QP instance, the box lattice
from ``np.meshgrid`` and the Taylor weights of a grid without the memo,
which ``atlc.robust_bounds`` builds by broadcasting and shares, the lattice
bounds of one time scale and one input-sign branch at a time, which
``atlc.constraints.atlc_rows`` builds as one table, the robust QP and
margin split over the two signs of the input, which the rows of the two
ends of the gain interval replace, and the trajectory CSV built as one
list of all its rows, which ``atlc.cli`` formats and writes one block at a
time, and the active-set enumeration of QP optima over any number of
variables and general rows, with its own box faces and row norms, which
``atlc.qp`` replaces by a closed form over (u, delta) with at most one
general row.
"""

import dataclasses
import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from atlc.cli import TRAJECTORY_COLUMNS, _fmt_floats, _write_csv, fmt
from atlc.constraints import build_qp_instance, row_margin
from atlc.controller import TrajectoryLog
from atlc.model import SystemModel
from atlc.qp import FEAS_TOL, QpInstance, QpSolution, solve_qp
from atlc.robust_bounds import BoundConfig, Box, GridStack, _axis_points, taylor_table

Array = np.ndarray

MULT_TOL = 1e-9  # the least multiplier the enumeration accepts


def oracle_grid_solve(inst: QpInstance, points_per_axis: int) -> QpSolution:
    """Brute-force reference: best feasible point of a tensor grid over the box."""
    axes = [
        np.linspace(lo, hi, points_per_axis) if hi > lo else np.array([lo])
        for lo, hi in zip(inst.lower, inst.upper)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.reshape(-1) for m in mesh])
    feasible = np.ones(pts.shape[0], dtype=bool)
    for a, b in zip(inst.a_ge, inst.b_ge):
        feasible &= pts @ a >= b - 1e-12 * max(1.0, abs(b))
    if not np.any(feasible):
        return QpSolution(
            values=np.full(2, np.nan), objective=math.inf,
            status="infeasible",
        )
    candidates = pts[feasible]
    objectives = (candidates * candidates) @ inst.quadratic_diag \
        + candidates @ inst.linear_cost
    idx = int(np.argmin(objectives))
    return QpSolution(
        values=candidates[idx], objective=float(objectives[idx]),
        status="optimal",
    )


def row_slacks(inst: QpInstance, points: np.ndarray) -> np.ndarray:
    """Slack a @ x - b of each nonzero row of ``inst`` at the points
    (..., dim), divided by the row's norm: (..., nonzero rows)."""
    norms = np.linalg.norm(inst.a_ge, axis=1)
    keep = norms > 0.0
    return (points @ inst.a_ge[keep].T - inst.b_ge[keep]) / norms[keep]


def meshgrid_points(box: Box, cfg: BoundConfig) -> np.ndarray:
    """The tensor lattice of ``atlc.robust_bounds.grid_points`` from the same
    axis points, through ``np.meshgrid`` and ``np.column_stack``."""
    axes = [_axis_points(lo, hi, cfg) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


def taylor_weights(taus, m: int) -> np.ndarray:
    """tau^i / i! for i = 0..m per time scale, from Python arithmetic on
    each time scale as a float, computed afresh on every call."""
    factorials = [math.factorial(i) for i in range(m + 1)]
    return np.array([[float(tau)**i / f for i, f in enumerate(factorials)]
                     for tau in taus])


def h_ratlc_from_stack(gs: GridStack, tau: float) -> float:
    """Minimum of the joint Taylor sum of h over the box lattice.

    The lattice minimum upper-bounds the true box minimum and converges to
    it under refinement; for models whose sum is monotone per axis (the
    car-following case) the two coincide because the minimizing vertex is a
    lattice point.
    """
    values = gs.stack @ taylor_table([tau], gs.m)[0]
    return float(values.min())


def g_ratlc_from_stack(gs: GridStack, tau: float, sign) -> float:
    """Worst-case input gain (tau^m / m!) * extremum of phi over the box.

    The box minimum of phi when the sign branch (+1 or -1) declares u >= 0,
    the maximum when it declares u <= 0, so the gain times any
    branch-consistent input lower-bounds the exact input contribution.
    """
    if sign not in (1.0, -1.0):
        raise ValueError("sign branch must be +1 or -1")
    scale = taylor_table([tau], gs.m)[0][-1]
    return float(scale * (gs.phi.min() if sign > 0 else gs.phi.max()))


def orthant_rows(gs: GridStack, tau: float, model: SystemModel) -> list:
    """The robust row of each sign of the input that the input box admits,
    with the box's part of that sign: (row, lower, upper).  Where the input
    is nonnegative its least gain over the box is the worst case, where it
    is nonpositive its greatest."""
    parts = []
    for sign, lower, upper in (
            (1.0, max(model.u_min, 0.0), model.u_max),
            (-1.0, model.u_min, min(model.u_max, 0.0))):
        if lower <= upper:
            row = (np.array([g_ratlc_from_stack(gs, tau, sign), 0.0]),
                   -h_ratlc_from_stack(gs, tau))
            parts.append((row, lower, upper))
    return parts


def orthant_margin(gs: GridStack, tau: float, model: SystemModel) -> float:
    """The robust margin as the best sign's row margin on its part."""
    return max(row_margin(row, lower, upper)
               for row, lower, upper in orthant_rows(gs, tau, model))


def orthant_event_qp(x: np.ndarray, gs: GridStack, tau: float, clf_row, w: float,
                     model: SystemModel) -> QpSolution:
    """The robust QP as one QP per sign of the input, each with its row and
    the CLF row on its part of the input box; the first least objective wins."""
    solutions = []
    for row, lower, upper in orthant_rows(gs, tau, model):
        inst = build_qp_instance([row, clf_row], model, x, w)
        solutions.append(solve_qp(dataclasses.replace(
            inst, lower=np.array([lower, inst.lower[1]]),
            upper=np.array([upper, inst.upper[1]]))))
    return min(solutions, key=lambda sol: sol.objective)  # infeasible: +inf


def list_trajectory_csv(path, log: TrajectoryLog) -> None:
    """The trajectory CSV of ``atlc.cli.write_trajectory_csv``, with every
    row formatted from whole-log columns into one list before it is written."""
    held = [(fmt(e.u), fmt(e.delta), fmt(e.feasible)) for e in log.events]
    rows = []
    ks = log.event_index.tolist()
    for t, z, v, h, V, k, previous in zip(
            *map(_fmt_floats, (log.t, log.z, log.v, log.h, log.V)), ks, [None, *ks]):
        event = log.events[k]
        u, delta, feasible = held[k]
        is_event_row = k != previous
        rows.append([
            t, z, v, u, fmt(event.tau) if is_event_row else "", h, V, delta,
            str(k), feasible, fmt(event.dt_inter_event) if is_event_row else "",
        ])
    _write_csv(path, TRAJECTORY_COLUMNS, rows)


def constraints_ge(a, b, lower, upper) -> tuple[Array, Array]:
    """Box faces, then the rows, of a stack oriented as A @ x >= b; A is
    (n_inst, n_con, dim) and b is (n_inst, n_con)."""
    n_inst, n_rows, dim = a.shape
    a_all = np.empty((n_inst, 2 * dim + n_rows, dim))
    a_all[:, :dim], a_all[:, dim : 2 * dim] = np.eye(dim), -np.eye(dim)
    a_all[:, 2 * dim :] = a
    b_all = np.concatenate([lower, -upper, b], axis=1)
    return a_all, b_all


def row_norms(a_all: Array, b_all: Array) -> tuple[Array, Array]:
    """Euclidean norms of the constraint rows (along the last axis), 1 for a
    zero row, and the right sides divided by them.  A row whose squares
    overflow is scaled by its largest entry first.  A ValueError if a
    result is not finite."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(a_all * a_all, -1))
        if norms.max() == math.inf:
            huge = np.isinf(norms)
            rows = a_all[huge]
            peak = np.abs(rows).max(-1)
            norms[huge] = peak * np.sqrt(((rows / peak[:, None]) ** 2).sum(-1))
        norms[norms == 0.0] = 1.0  # a zero row keeps its right side
        b_unit = b_all / norms
    if norms.max() == math.inf or not np.isfinite(b_unit).all():
        raise ValueError("the QP rows cannot be normalised: a normalised value is not finite")
    return norms, b_unit


@lru_cache(maxsize=None)
def _combinations(n: int, size: int) -> Array:
    """Every size-subset of range(n) as an index array, in lexicographic order."""
    combos = np.array(list(combinations(range(n), size)), dtype=int)
    combos = combos.reshape(-1, size)
    combos.setflags(write=False)
    return combos


def solve_stack(matrices: Array, rhs: Array) -> Array:
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


def active_set_solve(diag, c, a, b, lower, upper) -> tuple[Array, Array, Array]:
    """Active-set enumeration over a checked stack of one or more instances
    of any dimension and any number of general rows, as arrays of
    ``atlc.qp.solve_qp_stack``:
    the unconstrained minimiser, then the KKT point of every subset of
    constraints of size 1, ..., dim with independent normals; the first
    feasible one with nonnegative multipliers and the least objective wins.
    Each instance solves its own systems, as it would alone.  Constraints
    count as met when missed by at most ``FEAS_TOL * max(1, |b|)``, as in
    ``atlc.qp``.  Valid for slack weights w <= 1e9 against input weights
    of order 1: above about 1e10 it picks points that violate a row within
    the tolerance, whose objective is lower by w times the violation."""
    n_inst, _, dim = a.shape
    a_all, b_all = constraints_ge(a, b, lower, upper)
    n_con = a_all.shape[1]
    norms, b_unit = row_norms(a_all, b_all)
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
    sols = solve_stack(kkt, rhs)
    # one step of refinement, and residuals relative to the products they sum:
    # a weight far above the others makes multipliers that dwarf the point; a
    # non-finite entry fails its residual test (the NaN rows of singular systems)
    with np.errstate(over="ignore", invalid="ignore"):
        sols += solve_stack(kkt, rhs - (kkt @ sols[..., None])[..., 0])
        residual_ok = np.abs((kkt @ sols[..., None])[..., 0] - rhs) <= 1e-6 * np.maximum(
            np.maximum(1.0, np.abs(rhs)), (np.abs(kkt) @ np.abs(sols)[..., None])[..., 0])
    points, ok = np.zeros((n_sys, dim)), np.zeros(n_sys, dtype=bool)
    points[independent] = sols[:, :dim]
    ok[independent] = residual_ok.all(axis=1) & (
        sols[:, dim:] >= -MULT_TOL).all(axis=1)
    return points, ok


def _max_min_slack(a_all: Array, b_all: Array) -> Array:
    """Phase-1 certificate per instance (constraints as from
    :func:`constraints_ge`, with rows): the max over the box of the least
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
    points = solve_stack(systems[solvable], b_all[:, combos][solvable])
    feas_tol = FEAS_TOL * np.maximum(1.0, np.abs(b_all))
    slack = (lifted[inst_idx] @ points[..., None])[..., 0] - b_all[inst_idx]
    vertex = np.isfinite(points).all(axis=1) & ~(
        slack < -feas_tol[inst_idx]).any(axis=1)
    best = np.full(n_inst, -math.inf)
    np.maximum.at(best, inst_idx[vertex], points[vertex, -1])
    return best
