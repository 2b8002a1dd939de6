"""Small dense box-constrained QP solver with exact active-set enumeration.

The controller QPs have at most three decision variables (inputs plus one
slack) and a handful of inequality rows, so instead of an iterative method
the global optimum is found by enumerating every candidate active set:
each subset of constraints of size <= dim is solved as an
equality-constrained KKT system and kept if it is primal feasible with
nonnegative multipliers.  Strict convexity guarantees the optimum appears
among these candidates.  The enumeration runs over a stack of instances of
one shape at once (the candidate time scales of one control decision); a
single instance is the stack of one.  Infeasibility is certified
separately by a max-min-slack vertex enumeration over the same stack.  A
brute-force grid oracle is included for testing only.
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
class ConstraintRow:
    """One affine inequality over the decision vector: coeffs @ x {>=,<=} rhs."""

    coefficients: Array
    rhs: float
    sense: str

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or not np.isfinite(coeffs).all():
            raise ValueError("row coefficients must be a finite vector")
        if not math.isfinite(self.rhs):
            raise ValueError("row rhs must be finite")
        if self.sense not in ("ge", "le"):
            raise ValueError(f"sense must be 'ge' or 'le', got {self.sense!r}")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "rhs", float(self.rhs))

    def as_ge(self) -> tuple[Array, float]:
        """Coefficients and rhs normalized to the >= orientation."""
        if self.sense == "ge":
            return self.coefficients, self.rhs
        return -self.coefficients, -self.rhs


@dataclass(frozen=True)
class QpInstance:
    """min sum_i quadratic_diag[i] x_i^2 + linear_cost @ x over rows and box."""

    quadratic_diag: Array
    linear_cost: Array
    rows: tuple[ConstraintRow, ...]
    lower: Array
    upper: Array

    def __post_init__(self) -> None:
        diag = np.asarray(self.quadratic_diag, dtype=float)
        lin = np.asarray(self.linear_cost, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        dim = diag.shape[0]
        if (diag <= 0.0).any() or not np.isfinite(diag).all():
            raise ValueError("quadratic weights must be strictly positive")
        for name, vec in (("linear_cost", lin), ("lower", lower), ("upper", upper)):
            if vec.shape != (dim,) or not np.isfinite(vec).all():
                raise ValueError(f"{name} must be a finite vector of length {dim}")
        if (lower > upper).any():
            raise ValueError("need lower <= upper componentwise")
        rows = tuple(self.rows)
        for row in rows:
            if row.coefficients.shape != (dim,):
                raise ValueError("row length does not match instance dimension")
        object.__setattr__(self, "quadratic_diag", diag)
        object.__setattr__(self, "linear_cost", lin)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.quadratic_diag.shape[0]

    def objective(self, x: Array) -> float:
        return float(self.quadratic_diag @ (x * x) + self.linear_cost @ x)


@dataclass(frozen=True)
class QpSolution:
    values: Array
    objective: float
    status: str  # "optimal" | "infeasible"


def _constraints_ge(instances: list[QpInstance]) -> tuple[Array, Array]:
    """Box faces plus rows of instances of one shape, all oriented as
    A @ x >= b; A is (n_inst, n_con, dim) and b is (n_inst, n_con)."""
    n_inst = len(instances)
    dim = instances[0].dim
    n_rows = len(instances[0].rows)
    rows_ge = [row.as_ge() for inst in instances for row in inst.rows]
    a_all = np.empty((n_inst, 2 * dim + n_rows, dim))
    a_all[:, : 2 * dim] = _box_faces(dim)
    b_all = np.empty((n_inst, 2 * dim + n_rows))
    b_all[:, :dim] = [inst.lower for inst in instances]
    b_all[:, dim : 2 * dim] = [-inst.upper for inst in instances]
    if n_rows:
        row_a = np.array([a for a, _ in rows_ge])
        a_all[:, 2 * dim :] = row_a.reshape(n_inst, n_rows, dim)
        b_all[:, 2 * dim :] = np.array([b for _, b in rows_ge]).reshape(n_inst, n_rows)
    return a_all, b_all


@lru_cache(maxsize=None)
def _combinations(n: int, size: int) -> Array:
    """Every size-subset of range(n) as an index array, in lexicographic order."""
    combos = np.array(list(combinations(range(n), size)), dtype=int)
    combos = combos.reshape(-1, size)
    combos.setflags(write=False)
    return combos


@lru_cache(maxsize=None)
def _box_faces(dim: int) -> Array:
    """Normals of the lower then upper box faces, oriented as A @ x >= b."""
    faces = np.vstack([np.eye(dim), -np.eye(dim)])
    faces.setflags(write=False)
    return faces


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
    return solve_qp_stack([inst])[0]


def solve_qp_stack(instances) -> list[QpSolution]:
    """Global optima of instances of one shape by exhaustive enumeration of
    candidate active sets, all instances at once.

    The candidates of each instance are, in order, the unconstrained
    minimiser and then the KKT point of every subset of constraints of size
    1, 2, ..., dim; subsets with linearly dependent normals (zero Gram
    determinant) are dropped, since strict convexity guarantees the optimum
    is certified by some linearly independent subset.  A candidate counts
    when it is primal feasible with nonnegative multipliers, and the first
    one with the least objective wins.  Every candidate is computed per
    instance, so a stacked solve returns exactly what one-at-a-time solves
    return.
    """
    instances = list(instances)
    if not instances:
        return []
    n_inst = len(instances)
    dim = instances[0].dim
    n_rows = len(instances[0].rows)
    if any(inst.dim != dim or len(inst.rows) != n_rows for inst in instances):
        raise ValueError("stacked instances need equal dimension and row count")
    a_all, b_all = _constraints_ge(instances)
    n_con = a_all.shape[1]
    diag = np.array([inst.quadratic_diag for inst in instances])
    c = np.array([inst.linear_cost for inst in instances])
    norms = np.sqrt((a_all * a_all).sum(-1))
    # a zero row becomes a zero unit row, so every subset holding it has a
    # zero Gram determinant and is dropped
    safe_norms = np.where(norms > 0.0, norms, 1.0)
    a_unit = a_all / safe_norms[..., None]
    b_unit = b_all / safe_norms
    neg_c = -c
    q2 = np.zeros((n_inst, dim, dim))
    q2[:, np.arange(dim), np.arange(dim)] = 2.0 * diag

    subsets = [_combinations(n_con, size) for size in range(1, dim + 1)]
    n_cand = 1 + sum(combos.shape[0] for combos in subsets)
    cand = np.zeros((n_inst, n_cand, dim))
    valid = np.zeros((n_inst, n_cand), dtype=bool)  # KKT point, multipliers >= 0
    cand[:, 0] = neg_c / (2.0 * diag)
    valid[:, 0] = True
    first = 1
    for combos in subsets:
        n_combo, size = combos.shape
        k = dim + size
        rows = a_unit[:, combos]  # (n_inst, n_combo, size, dim)
        gram = rows @ rows.swapaxes(-1, -2)
        det = gram[..., 0, 0] if size == 1 else np.linalg.det(gram)
        independent = np.abs(det) > 1e-12
        kkt = np.zeros((n_inst, n_combo, k, k))
        kkt[..., :dim, :dim] = q2[:, None]
        kkt[..., :dim, dim:] = -rows.swapaxes(-1, -2)
        kkt[..., dim:, :dim] = rows
        kkt = kkt[independent]
        rhs = np.empty((n_inst, n_combo, k))
        rhs[..., :dim] = neg_c[:, None]
        rhs[..., dim:] = b_unit[:, combos]
        rhs = rhs[independent]
        sols = _solve_stack(kkt, rhs)
        # a non-finite solution entry makes every residual non-finite, so the
        # residual test also rejects the NaN rows of singular systems
        residual_ok = np.abs((kkt @ sols[..., None])[..., 0] - rhs) \
            <= 1e-6 * np.maximum(1.0, np.abs(rhs))
        slots = slice(first, first + n_combo)
        first += n_combo
        cand[:, slots][independent] = sols[:, :dim]
        valid[:, slots][independent] = residual_ok.all(axis=1) & (
            sols[:, dim:] >= -MULT_TOL).all(axis=1)

    feas_tol = FEAS_TOL * np.maximum(1.0, np.abs(b_all))
    violated = (b_all[:, None, :] - cand @ a_all.swapaxes(-1, -2)
                > feas_tol[:, None, :]).any(axis=-1)
    feasible = valid & ~violated
    # stacked objectives may differ from QpInstance.objective in the last
    # bits; they only shortlist the near-minimal candidates, which are then
    # ranked by the instance's own objective
    quad = diag[:, None, :] * cand * cand
    lin = c[:, None, :] * cand
    objective = np.where(feasible, (quad + lin).sum(-1), math.inf)
    scale = np.where(feasible, (quad + np.abs(lin)).sum(-1), 0.0).max(axis=1)
    best = objective.min(axis=1)
    lacking = best == math.inf
    if lacking.any() and (
        _max_min_slack([inst for inst, no in zip(instances, lacking) if no]) > FEAS_TOL
    ).any():
        # clearly feasible yet no candidate survived: internal failure, do
        # not mask it as infeasibility
        raise RuntimeError(
            "active-set enumeration found no optimum for a feasible instance"
        )

    solutions = []
    for i, inst in enumerate(instances):
        if lacking[i]:
            solutions.append(QpSolution(
                values=np.full(dim, np.nan), objective=math.inf, status="infeasible",
            ))
            continue
        shortlist = np.flatnonzero(objective[i] <= best[i] + 1e-12 * (1.0 + scale[i]))
        exact = [inst.objective(cand[i, j]) for j in shortlist]
        win = min(range(len(exact)), key=exact.__getitem__)  # first minimum
        solutions.append(QpSolution(
            values=cand[i, shortlist[win]], objective=exact[win],
            status="optimal",
        ))
    return solutions


def _max_min_slack(instances: list[QpInstance]) -> Array:
    """Phase-1 certificate per instance: max over the box of the minimum
    row slack (+inf for an instance without rows).

    Solved as a vertex enumeration of the lifted feasibility program
    max s subject to row_i @ x - s >= rhs_i and x in the box; the optimum
    of this program sits at a vertex defined by dim+1 active constraints.
    Nonnegative value certifies a feasible instance.
    """
    a_all, b_all = _constraints_ge(instances)
    n_inst, n_con, dim = a_all.shape
    if n_con == 2 * dim:
        return np.full(n_inst, math.inf)
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


def oracle_grid_solve(inst: QpInstance, points_per_axis: int) -> QpSolution:
    """Brute-force reference: best feasible point of a tensor grid over the box.

    Test-only oracle, limited to dim <= 3.
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
    for row in inst.rows:
        a, b = row.as_ge()
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
