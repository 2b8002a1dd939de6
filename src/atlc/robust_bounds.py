"""Event boxes and the evaluation lattice of the worst-case Taylor bounds.

Between control updates the state is confined to a box around the last
event state.  The safety condition is therefore tightened with the
worst-case drift term (minimum of the joint Taylor sum over the box) and
the interval of input gains (the extrema of the gain), whose two ends give
the robust rows; :func:`~atlc.constraints.atlc_rows` builds both.  Extrema
are taken over a tensor evaluation lattice that always contains the box
vertices; the per-axis point counts are snapped to a dyadic cell count so
refining the lattice only ever adds midpoints and the computed minimum
never increases under refinement.  The lattice is built by broadcasting
each axis into its column, and the Taylor weights of a time-scale grid are
computed once per grid and shared read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

    def contains(self, x: Array, tol: float = 0.0) -> bool:
        """Whether the state, or every state of a (..., n) batch, lies in
        the box inflated by tol."""
        return bool(
            np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol)
        )


@dataclass(frozen=True)
class BoundConfig:
    """Evaluation-lattice resolution for the box extrema."""

    grid_points_per_axis: int = 21

    def __post_init__(self) -> None:
        k = self.grid_points_per_axis
        if isinstance(k, bool) or not isinstance(k, int) or k < 2:
            raise ValueError(f"grid_points_per_axis must be an int >= 2, got {k!r}")


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
    """Tensor evaluation lattice over the box, shape (N, n), in ``ij`` order
    (the last axis varies fastest): each axis is broadcast into its column."""
    axes = [_axis_points(lo, hi, cfg) for lo, hi in zip(box.lower, box.upper)]
    n = len(axes)
    points = np.empty([axis.size for axis in axes] + [n])
    for j, axis in enumerate(axes):
        points[..., j] = axis.reshape((-1,) + (1,) * (n - 1 - j))
    return points.reshape(-1, n)


@dataclass(frozen=True)
class GridStack:
    """Lie-derivative values of a model evaluated on a box lattice.

    ``stack`` holds [h, L_f h, ..., L_f^m h] per lattice point and ``phi``
    the input gain there.  The stack is independent of the time scale, so a
    single evaluation serves every candidate time scale at an event.
    """

    points: Array
    stack: Array
    phi: Array
    m: int


def stack_on_grid(box: Box, model: SystemModel, cfg: BoundConfig) -> GridStack:
    pts = grid_points(box, cfg)
    return GridStack(
        points=pts, stack=model.lie_stack(pts), phi=model.phi(pts), m=model.m)


def taylor_table(taus, m: int) -> Array:
    """Coefficients tau^i / i! for i = 0..m, one row per time scale of
    ``taus``, each from Python arithmetic on the time scale as a float; a
    ValueError for a time scale that is not positive or whose weights overflow.

    The table is computed once per grid and ``m`` and shared: equal time
    scales given as a list, a tuple or an array return the same read-only
    array."""
    if isinstance(taus, np.ndarray):
        taus = taus.tolist()
    return _taylor_table(tuple(map(float, taus)), m)


@lru_cache(maxsize=128)
def _taylor_table(taus: tuple[float, ...], m: int) -> Array:
    factorials = [math.factorial(i) for i in range(m + 1)]
    if taus and min(taus) <= 0.0:
        raise ValueError(f"time scale must be positive, got {min(taus)}")
    try:
        table = np.array([[tau**i / f for i, f in enumerate(factorials)] for tau in taus])
    except OverflowError:
        raise ValueError(f"the Taylor weights of time scale {max(taus)} overflow") from None
    table.setflags(write=False)
    return table
