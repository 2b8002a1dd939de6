"""Reference computations that the tests compare the package against.

Each computes one quantity the simplest way: a brute-force grid search for
the QP optimum, the normalized row slacks of a QP instance, and the lattice
bounds of one time scale and one input-sign branch at a time, which
``atlc.constraints.atlc_rows`` builds as one table.
"""

import math

import numpy as np

from atlc.qp import QpInstance, QpSolution
from atlc.robust_bounds import GridStack, taylor_table


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
