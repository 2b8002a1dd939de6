"""Feasibility margin of the robust adaptive safety condition.

The margin at a state/box and time scale is the best achievable value of
the robust condition over the admissible input box; the condition admits
an input exactly when the margin is nonnegative.  Scanning the margin over
a time-scale grid yields the minimal feasible time scale as the first
nonnegative grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import SystemModel
from .robust_bounds import (
    BoundConfig,
    Box,
    GridStack,
    branch_input_box,
    g_ratlc_from_stack,
    h_ratlc_from_stack,
    stack_on_grid,
)

Array = np.ndarray


@dataclass(frozen=True)
class MarginMap:
    """Margin values over an ascending time-scale grid.

    tau_star is the first grid point with nonnegative margin (an upper
    approximation of the true minimal feasible time scale), or None when
    every grid point is infeasible.
    """

    tau_grid: Array
    values: Array
    tau_star: float | None

    def __post_init__(self) -> None:
        grid = np.asarray(self.tau_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != vals.shape:
            raise ValueError("grid and values must be matching vectors")
        if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
            raise ValueError("time-scale grid must be strictly increasing")
        object.__setattr__(self, "tau_grid", grid)
        object.__setattr__(self, "values", vals)


def margin_from_stack(gs: GridStack, tau: float, model: SystemModel) -> float:
    """sup over admissible inputs of the robust condition, via sign branches.

    For each input-sign branch the supremum of the linear form over the
    branch-consistent part of the input box sits at a vertex: the upper
    input bound where the row coefficient is positive, the lower bound
    otherwise, clipped to the branch orthant.
    """
    h_worst = h_ratlc_from_stack(gs, tau)
    best = -np.inf
    for branch in product((1.0, -1.0), repeat=gs.q):
        branch_arr = np.array(branch)
        box = branch_input_box(branch_arr, model)
        if box is None:
            continue
        lower, upper = box
        g_row = g_ratlc_from_stack(gs, tau, branch_arr)
        u_star = np.where(g_row > 0, upper, lower)
        best = max(best, float(g_row @ u_star + h_worst))
    return best


def margin(box: Box, tau: float, model: SystemModel, cfg: BoundConfig) -> float:
    return margin_from_stack(stack_on_grid(box, model, cfg), tau, model)


def is_feasible(box: Box, tau: float, model: SystemModel, cfg: BoundConfig) -> bool:
    """Admissible inputs exist iff the margin is nonnegative (closed condition)."""
    return margin(box, tau, model, cfg) >= 0.0


def tau_star_scan(
    box: Box,
    tau_grid,
    model: SystemModel,
    cfg: BoundConfig,
    refine: bool = False,
    refine_tol: float = 1e-6,
) -> MarginMap:
    """Evaluate the margin over an ascending grid and locate the first
    feasible time scale.

    The grid scan approximates the true minimal feasible scale from above.
    With ``refine``, the bracket between the last infeasible and the first
    feasible grid point is bisected down to ``refine_tol``, sharpening
    tau_star without changing the reported grid values.
    """
    grid = np.asarray(tau_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("time-scale grid must be nonempty")
    gs = stack_on_grid(box, model, cfg)
    values = np.array([margin_from_stack(gs, tau, model) for tau in grid])
    feasible = np.flatnonzero(values >= 0.0)
    tau_star = float(grid[feasible[0]]) if feasible.size else None
    if refine and tau_star is not None and feasible[0] > 0:
        lo = float(grid[feasible[0] - 1])  # infeasible end of the bracket
        hi = tau_star
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            if margin_from_stack(gs, mid, model) >= 0.0:
                hi = mid
            else:
                lo = mid
        tau_star = hi
    return MarginMap(tau_grid=grid, values=values, tau_star=tau_star)
