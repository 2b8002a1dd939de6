"""Reference computations that the tests compare the package against.

Each computes one quantity the simplest way: a brute-force grid search for
the QP optimum, the normalized row slacks of a QP instance, the box lattice
from ``np.meshgrid`` and the Taylor weights of a grid without the memo,
which ``atlc.robust_bounds`` builds by broadcasting and shares, the lattice
bounds of one time scale and one input-sign branch at a time, which
``atlc.constraints.atlc_rows`` builds as one table, the robust QP and
margin split over the input-sign orthants, which the vertex rows of the
gain box replace, and the trajectory CSV built as one list of all its
rows, which ``atlc.cli`` formats and writes one block at a time.
"""

import dataclasses
import math
from itertools import product

import numpy as np

from atlc.cli import TRAJECTORY_COLUMNS, _fmt_floats, _write_csv, fmt
from atlc.constraints import build_qp_instance, row_margin
from atlc.controller import TrajectoryLog
from atlc.model import SystemModel
from atlc.qp import QpInstance, QpSolution, solve_qp
from atlc.robust_bounds import BoundConfig, Box, GridStack, _axis_points, taylor_table


def oracle_grid_solve(inst: QpInstance, points_per_axis: int) -> QpSolution:
    """Brute-force reference: best feasible point of a tensor grid over the box.

    Limited to dim <= 3.
    """
    if inst.dim > 3:
        raise ValueError("grid oracle supports at most 3 decision variables")
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
            values=np.full(inst.dim, np.nan), objective=math.inf,
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


def g_ratlc_from_stack(gs: GridStack, tau: float, sign_branch) -> np.ndarray:
    """Worst-case input-gain row (tau^m / m!) * extremum of phi over the box.

    Component j uses the box minimum of phi_j when the branch declares
    u_j >= 0 and the maximum otherwise, so the row times any
    branch-consistent input lower-bounds the exact input contribution.
    """
    branch = np.asarray(sign_branch)
    if branch.shape != (gs.q,) or not (np.abs(branch) == 1).all():
        raise ValueError("sign branch must be a vector of +1/-1 per input")
    scale = taylor_table([tau], gs.m)[0][-1]
    worst = np.where(branch > 0, gs.phi.min(axis=0), gs.phi.max(axis=0))
    return scale * worst


def orthant_rows(gs: GridStack, tau: float, model: SystemModel) -> list:
    """The robust row of each non-empty input-sign orthant of the input box,
    with the orthant's part of the box: (row, lower, upper).  Where an input
    is nonnegative its least gain over the box is the worst case, where it
    is nonpositive its greatest."""
    parts = []
    for branch in product((1.0, -1.0), repeat=gs.q):
        sign = np.array(branch)
        lower = np.where(sign > 0, np.maximum(model.u_min, 0.0), model.u_min)
        upper = np.where(sign > 0, model.u_max, np.minimum(model.u_max, 0.0))
        if (lower <= upper).all():
            row = (np.append(g_ratlc_from_stack(gs, tau, branch), 0.0),
                   -h_ratlc_from_stack(gs, tau))
            parts.append((row, lower, upper))
    return parts


def orthant_margin(gs: GridStack, tau: float, model: SystemModel) -> float:
    """The robust margin as the best orthant row's margin on its part."""
    return max(row_margin(row, lower, upper)
               for row, lower, upper in orthant_rows(gs, tau, model))


def orthant_event_qp(x: np.ndarray, gs: GridStack, tau: float, clf_row, w: float,
                     model: SystemModel) -> QpSolution:
    """The robust QP as one QP per orthant, each with its row and the CLF
    row on its part of the input box; the first least objective wins."""
    solutions = []
    for row, lower, upper in orthant_rows(gs, tau, model):
        inst = build_qp_instance([row, clf_row], model, x, w)
        solutions.append(solve_qp(dataclasses.replace(
            inst, lower=np.append(lower, inst.lower[-1]),
            upper=np.append(upper, inst.upper[-1]))))
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
