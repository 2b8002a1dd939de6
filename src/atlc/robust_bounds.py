"""Worst-case Taylor expansion quantities over an event hyperrectangle.

Between control updates the state is confined to a box around the last
event state.  The safety condition is therefore tightened with the
worst-case drift term (minimum of the joint Taylor sum over the box) and a
per-component worst-case input gain whose sign branch depends on the sign
of the corresponding input entry.  Extrema are taken over a tensor
evaluation lattice that always contains the box vertices; the per-axis
point counts are snapped to a dyadic cell count so refining the lattice
only ever adds midpoints and the computed minimum never increases under
refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import SystemModel

Array = np.ndarray


@dataclass(frozen=True)
class Box:
    """Axis-aligned hyperrectangle {x : lower <= x <= upper}."""

    lower: Array
    upper: Array

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("box bounds must be vectors of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box bounds must be finite")
        if np.any(lower > upper):
            raise ValueError("need lower <= upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def contains(self, x: Array, tol: float = 0.0) -> bool:
        return bool(
            np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol)
        )

    def boundary_distance(self, x: Array) -> Array:
        """Per-coordinate distance to the nearest face."""
        return np.minimum(np.abs(x - self.lower), np.abs(self.upper - x))


@dataclass(frozen=True)
class BoundConfig:
    """Evaluation-lattice resolution for the box extrema."""

    grid_points_per_axis: int = 21

    def __post_init__(self) -> None:
        if self.grid_points_per_axis < 2:
            raise ValueError("grid_points_per_axis must be >= 2")


def make_box(x_k: Array, under: Array, over: Array) -> Box:
    """Box spanning [x_k - under, x_k + over]; radii must be nonnegative."""
    x_k = np.asarray(x_k, dtype=float)
    under = np.asarray(under, dtype=float)
    over = np.asarray(over, dtype=float)
    if np.any(under < 0.0) or np.any(over < 0.0):
        raise ValueError("box radii must be nonnegative")
    return Box(lower=x_k - under, upper=x_k + over)


def _axis_points(lo: float, hi: float, cfg: BoundConfig) -> Array:
    if hi == lo:
        return np.array([lo])
    # smallest dyadic cell count covering the requested resolution; nested
    # under any doubling of grid_points_per_axis
    cells = 1 << max(0, math.ceil(math.log2(cfg.grid_points_per_axis - 1)))
    return lo + (hi - lo) * np.arange(cells + 1) / cells


def grid_points(box: Box, cfg: BoundConfig) -> Array:
    """Tensor evaluation lattice over the box, shape (N, n)."""
    axes = [_axis_points(lo, hi, cfg) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


@dataclass(frozen=True)
class GridStack:
    """Lie-derivative values of a model evaluated on a box lattice.

    ``stack`` holds [h, L_f h, ..., L_f^m h] per lattice point and ``phi``
    the input gain rows.  The stack is independent of the time scale, so a
    single evaluation serves every candidate time scale at an event.
    """

    points: Array
    stack: Array
    phi: Array
    m: int
    q: int

    @cached_property
    def phi_range(self) -> tuple[Array, Array]:
        """Per-input minimum and maximum of the gain over the lattice."""
        return self.phi.min(axis=0), self.phi.max(axis=0)


def stack_on_grid(box: Box, model: SystemModel, cfg: BoundConfig) -> GridStack:
    pts = grid_points(box, cfg)
    return GridStack(
        points=pts, stack=model.lie_stack_grid(pts), phi=model.phi_grid(pts),
        m=model.m, q=model.q,
    )


def taylor_weights(tau: float, m: int) -> Array:
    """Coefficients tau^i / i! for i = 0..m."""
    if tau <= 0.0:
        raise ValueError(f"time scale must be positive, got {tau}")
    return np.array([tau**i / math.factorial(i) for i in range(m + 1)])


def h_ratlc_from_stack(gs: GridStack, tau: float) -> float:
    """Minimum of the joint Taylor sum of h over the box lattice.

    The lattice minimum upper-bounds the true box minimum and converges to
    it under refinement; for models whose sum is monotone per axis (the
    car-following case) the two coincide because the minimizing vertex is a
    lattice point.
    """
    values = gs.stack @ taylor_weights(tau, gs.m)
    return float(values.min())


def g_ratlc_from_stack(gs: GridStack, tau: float, sign_branch) -> Array:
    """Worst-case input-gain row (tau^m / m!) * extremum of phi over the box.

    Component j uses the box minimum of phi_j when the branch declares
    u_j >= 0 and the maximum otherwise, so the row times any
    branch-consistent input lower-bounds the exact input contribution.
    """
    branch = np.asarray(sign_branch)
    if branch.shape != (gs.q,) or not (np.abs(branch) == 1).all():
        raise ValueError("sign branch must be a vector of +1/-1 per input")
    scale = taylor_weights(tau, gs.m)[-1]
    worst = np.where(branch > 0, *gs.phi_range)
    return scale * worst
