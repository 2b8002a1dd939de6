"""Feasibility margin of the robust adaptive safety condition.

The margin at a state/box and time scale is the best achievable value of
the robust condition over the admissible input box; the condition admits
an input exactly when the margin is nonnegative.  Scanning the margin over
a time-scale grid yields the minimal feasible time scale as the first
nonnegative grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constraints import atlc_rows
from .model import SystemModel
from .robust_bounds import BoundConfig, Box, GridStack, stack_on_grid

Array = np.ndarray


@dataclass(frozen=True)
class MarginMap:
    """Margin values over an ascending time-scale grid, from :func:`tau_star_scan`.

    tau_star is the first grid point with nonnegative margin (an upper
    approximation of the true minimal feasible time scale), or None when
    every grid point is infeasible.
    """

    tau_grid: Array
    values: Array
    tau_star: float | None


def ascending_grid(tau_grid) -> Array:
    """The time-scale grid as a float vector, checked to be nonempty and
    strictly increasing; each distinct grid (by its bytes) is checked once."""
    grid = np.asarray(tau_grid, dtype=float)
    if grid.ndim != 1 or not _increasing(grid.tobytes()):
        raise ValueError("time-scale grid must be a nonempty strictly increasing vector")
    return grid


@lru_cache(maxsize=64)
def _increasing(data: bytes) -> bool:
    grid = np.frombuffer(data)
    return grid.size > 0 and not np.any(np.diff(grid) <= 0.0)


def margin_from_stack(gs: GridStack, tau: float, model: SystemModel) -> float:
    """sup over admissible inputs of the robust condition: the margin of
    the robust rows of :func:`~atlc.constraints.atlc_rows` at ``tau`` over
    the model's input box.

    Admissible inputs exist iff the margin is nonnegative (closed condition).
    """
    return float(atlc_rows(gs, [tau]).margins(model.u_min, model.u_max)[0])


def tau_star_scan(
    box: Box, tau_grid, model: SystemModel, cfg: BoundConfig
) -> MarginMap:
    """Evaluate the margin over an ascending grid and locate the first
    feasible time scale.

    One lattice serves every grid point.  The first feasible grid point
    bounds the true minimal feasible scale from above; a finer grid
    tightens it.
    """
    grid = ascending_grid(tau_grid)
    gs = stack_on_grid(box, model, cfg)
    values = atlc_rows(gs, grid).margins(model.u_min, model.u_max)
    feasible = np.flatnonzero(values >= 0.0)
    tau_star = float(grid[feasible[0]]) if feasible.size else None
    return MarginMap(tau_grid=grid, values=values, tau_star=tau_star)
