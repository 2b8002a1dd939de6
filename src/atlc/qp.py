"""Small dense box-constrained QP solver with exact active-set enumeration.

The controller QPs have at most three decision variables (inputs plus one
slack) and a handful of inequality rows, so instead of an iterative method
the global optimum is found by enumerating every candidate active set:
each subset of constraints of size <= dim is solved as an
equality-constrained KKT system and kept if it is primal feasible with
nonnegative multipliers.  Strict convexity guarantees the optimum appears
among these candidates.  The enumeration runs over a stack of instances of
one shape at once, passed as arrays (the candidate time scales of one
control decision); a single instance is the stack of one.  Each candidate
is computed once per distinct KKT system: a subset of constraints that,
with the cost, is the same bits on every instance is solved once for the
whole stack, the others per instance.  Infeasibility is certified
separately by a max-min-slack vertex enumeration over the same stack.
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
    a_all[:, : 2 * dim] = _box_faces(dim)
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
    values, objective, optimal = _enumerate(*(v[None] for v in (
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
    return _enumerate(diag, linear, a, b, lower, upper)


def _check(diag: Array, lower: Array, upper: Array, *rest: Array) -> None:
    if not all(np.isfinite(v).all() for v in (diag, lower, upper, *rest)):
        raise ValueError("QP data must be finite")
    if (diag <= 0.0).any():
        raise ValueError("quadratic weights must be strictly positive")
    if (lower > upper).any():
        raise ValueError("need lower <= upper componentwise")


def _enumerate(diag, c, a, b, lower, upper) -> tuple[Array, Array, Array]:
    """Exhaustive enumeration of candidate active sets over a checked stack.

    The candidates of each instance are, in order, the unconstrained
    minimiser and then the KKT point of every subset of constraints of size
    1, 2, ..., dim; subsets with linearly dependent normals (zero Gram
    determinant) are dropped, since strict convexity guarantees the optimum
    is certified by some linearly independent subset.  A candidate counts
    when it is primal feasible with nonnegative multipliers, and the first
    one with the least objective wins.  Every candidate is computed once per
    distinct system: a subset whose constraints, and the cost, are the same
    bits on every instance is one KKT system for the whole stack.  The
    feasibility test, the objectives and the pick stay per instance, so a
    stacked solve returns exactly what one-at-a-time solves return.
    """
    n_inst, _, dim = a.shape
    if n_inst == 0:
        return np.empty((0, dim)), np.empty(0), np.empty(0, dtype=bool)
    a_all, b_all = _constraints_ge(a, b, lower, upper)
    n_con = a_all.shape[1]
    a_unit, b_unit = _unit_rows(a_all, b_all)
    a_unit, b_unit = a_unit.reshape(-1, dim), b_unit.reshape(-1)
    neg_c = -c
    two_diag = 2.0 * diag
    varying = _varying(diag, c, a_all, b_all).tobytes()

    n_combos = [_combinations(n_con, size).shape[0] for size in range(1, dim + 1)]
    n_cand = 1 + sum(n_combos)
    cand = np.zeros((n_inst, n_cand, dim))
    valid = np.zeros((n_inst, n_cand), dtype=bool)  # KKT point, multipliers >= 0
    cand[:, 0] = neg_c / two_diag
    valid[:, 0] = True
    first = 1
    for size, n_combo in enumerate(n_combos, start=1):
        cost, rows, system = _systems(n_inst, n_con, size, varying)
        points, ok = _kkt_points(two_diag[cost], neg_c[cost], a_unit[rows], b_unit[rows])
        slots = slice(first, first + n_combo)
        first += n_combo
        cand[:, slots] = points[system]
        valid[:, slots] = ok[system]

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

    # the objective as dot products, as one instance on its own computes
    # it: a stacked row-by-column matmul is bit-identical
    objective = (diag[:, None, None] @ (cand * cand)[..., None]
                 + c[:, None, None] @ cand[..., None])[..., 0, 0]
    objective = np.where(feasible, objective, math.inf)
    pick = np.arange(n_inst), objective.argmin(axis=1)  # first minimum
    values = np.where(lacking[:, None], np.nan, cand[pick])
    return values, objective[pick], ~lacking


def _unit_rows(a_all: Array, b_all: Array) -> tuple[Array, Array]:
    """The constraint rows and right sides divided by the Euclidean norms of
    the rows.  A row whose squares overflow is divided by its largest
    magnitude before its norm is taken; every other norm keeps the bits of
    the plain sum of squares.  A ValueError when a norm or a normalised
    right side is not finite."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((a_all * a_all).sum(-1))
        if norms.max() == math.inf:
            huge = np.isinf(norms)
            rows = a_all[huge]
            peak = np.abs(rows).max(-1)
            norms[huge] = peak * np.sqrt(((rows / peak[:, None]) ** 2).sum(-1))
        # a zero row becomes a zero unit row, so every subset holding it has
        # a zero Gram determinant and is dropped
        safe_norms = np.where(norms > 0.0, norms, 1.0)
        b_unit = b_all / safe_norms
    if norms.max() == math.inf or not np.isfinite(b_unit).all():
        raise ValueError("the QP rows cannot be normalised: a normalised value is not finite")
    return a_all / safe_norms[..., None], b_unit


def _varying(diag, c, a_all, b_all) -> Array:
    """Which constraints (box faces, then rows) are not the same bits on
    every instance of the stack; all of them when the cost is not.  Bits,
    not values: +0.0 and -0.0 can round a KKT solution differently."""
    n_inst, n_con, _ = a_all.shape
    if n_inst == 1:
        return np.zeros(n_con, dtype=bool)

    def differs(v: Array) -> Array:
        bits = v.view(np.int64)
        return bits != bits[:1]

    if differs(diag).any() or differs(c).any():
        return np.ones(n_con, dtype=bool)
    return differs(a_all).any(axis=(0, 2)) | differs(b_all).any(axis=0)


@lru_cache(maxsize=64)
def _systems(n_inst: int, n_con: int, size: int, varying: bytes) -> tuple:
    """The distinct KKT systems of the size-subsets over a stack whose
    constraints marked in ``varying`` differ between instances: each subset
    of shared constraints once, from instance 0, then, per instance, every
    subset holding a varying constraint.

    Returns, per system, the index of its cost among the stack's costs and
    the indices of its constraints among the stack's (n_inst * n_con)
    constraints; then the index of each (instance, subset) candidate's
    system, subsets in lexicographic order.  The cost varies only when every
    constraint does, so with a shared subset it is instance 0's; with no
    varying constraint, every instance takes the systems of instance 0.
    """
    combos = _combinations(n_con, size)
    own = np.frombuffer(varying, dtype=bool)[combos].any(axis=1)
    shared, owned = np.flatnonzero(~own), np.flatnonzero(own)
    inst = np.repeat(np.arange(n_inst), owned.size)
    rows = np.concatenate([
        combos[shared], inst[:, None] * n_con + np.tile(combos[owned], (n_inst, 1))])
    system = np.empty((n_inst, combos.shape[0]), dtype=int)
    system[:, shared] = np.arange(shared.size)
    system[:, owned] = shared.size + np.arange(inst.size).reshape(n_inst, -1)
    for array in (inst, rows, system):
        array.setflags(write=False)
    return (slice(0, 1) if shared.size else inst, rows,
            system if owned.size else slice(None))


def _kkt_points(two_diag: Array, neg_c: Array, rows: Array,
                rhs_rows: Array) -> tuple[Array, Array]:
    """KKT points of min diag @ x**2 + c @ x subject to rows @ x = rhs_rows,
    one system per leading index: rows (n, size, dim) of unit normals.

    Returns the points (n, dim), zero where the rows are linearly dependent,
    and whether each is a KKT point with nonnegative multipliers (n,).
    """
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
    rhs = np.empty((n_sys, k))
    rhs[:, :dim] = neg_c
    rhs[:, dim:] = rhs_rows
    rhs = rhs[independent]
    sols = _solve_stack(kkt, rhs)
    # a non-finite solution entry makes every residual non-finite, so the
    # residual test also rejects the NaN rows of singular systems
    residual_ok = np.abs((kkt @ sols[..., None])[..., 0] - rhs) \
        <= 1e-6 * np.maximum(1.0, np.abs(rhs))
    points = np.zeros((n_sys, dim))
    ok = np.zeros(n_sys, dtype=bool)
    points[independent] = sols[:, :dim]
    ok[independent] = residual_ok.all(axis=1) & (
        sols[:, dim:] >= -MULT_TOL).all(axis=1)
    return points, ok


def _max_min_slack(a_all: Array, b_all: Array) -> Array:
    """Phase-1 certificate per instance of a stack (box faces, then rows, as
    from :func:`_constraints_ge`): max over the box of the minimum row slack
    (+inf for an instance without rows).

    Solved as a vertex enumeration of the lifted feasibility program
    max s subject to row_i @ x - s >= rhs_i and x in the box; the optimum
    of this program sits at a vertex defined by dim+1 active constraints.
    Nonnegative value certifies a feasible instance.
    """
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
