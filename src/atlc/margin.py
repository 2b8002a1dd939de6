"""Feasibility margin of the robust adaptive safety condition.

The margin at a state/box and time scale is the best achievable value of
the robust condition over the admissible input box; the condition admits
an input exactly when the margin is nonnegative.  Scanning the margin over
a time-scale grid yields the minimal feasible time scale as the first
nonnegative grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import atlc_rows
from .model import SystemModel
from .robust_bounds import BoundConfig, Box, GridStack, stack_on_grid

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
    """sup over admissible inputs of the robust condition: the best margin
    over the robust rows of :func:`~atlc.constraints.atlc_rows` at ``tau``.

    Admissible inputs exist iff the margin is nonnegative (closed condition).
    """
    return float(atlc_rows(gs, [tau], model).margins().max())


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
    feasible grid point is bisected down to ``refine_tol``, or until the
    midpoint no longer splits the bracket, sharpening tau_star without
    changing the reported grid values.
    """
    grid = np.asarray(tau_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("time-scale grid must be nonempty")
    if not (math.isfinite(refine_tol) and refine_tol >= 0.0):
        raise ValueError(f"refine_tol must be finite and nonnegative, got {refine_tol}")
    gs = stack_on_grid(box, model, cfg)
    values = atlc_rows(gs, grid, model).margins().max(axis=1)
    feasible = np.flatnonzero(values >= 0.0)
    tau_star = float(grid[feasible[0]]) if feasible.size else None
    if refine and tau_star is not None and feasible[0] > 0:
        lo = float(grid[feasible[0] - 1])  # infeasible end of the bracket
        hi = tau_star
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # adjacent floats: nothing left to split
                break
            if margin_from_stack(gs, mid, model) >= 0.0:
                hi = mid
            else:
                lo = mid
        tau_star = hi
    return MarginMap(tau_grid=grid, values=values, tau_star=tau_star)
