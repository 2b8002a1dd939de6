"""QP solver: frozen examples, oracle equivalence, KKT certificates."""

import dataclasses
import time

import numpy as np
import pytest
from scipy.optimize import nnls

from atlc import QpInstance, QpSolution, solve_qp
from atlc.qp import FEAS_TOL, solve_qp_stack

from references import (active_set_solve, constraints_ge, oracle_grid_solve, row_slacks,
                        solve_stack)


def random_instance(rng, max_general=1):
    """A random instance over (u, delta) with 0 to 3 rows, of which up to
    ``max_general`` are general, with a positive delta coefficient; the
    others act on one variable."""
    diag = rng.uniform(0.05, 10.0, 2)
    linear = rng.uniform(-5.0, 5.0, 2)
    lower = rng.uniform(-3.0, -0.1, 2)
    upper = rng.uniform(0.1, 3.0, 2)
    n_rows = int(rng.integers(0, 4))
    general = rng.permutation(n_rows) < rng.integers(0, max_general + 1)
    a_ge, b_ge = np.empty((n_rows, 2)), np.empty(n_rows)
    for i in range(n_rows):
        coeffs = rng.uniform(-2.0, 2.0, 2)
        if not general[i]:
            coeffs *= np.arange(2) == rng.integers(2)
        sign = 1.0 if rng.random() < 0.5 else -1.0  # -1: drawn as a @ x <= b
        a_ge[i], b_ge[i] = sign * coeffs, sign * rng.uniform(-2.0, 2.0)
        if general[i]:
            a_ge[i, 1] = abs(a_ge[i, 1])
    return QpInstance(diag, linear, a_ge, b_ge, lower, upper)


def oracle_points(inst):
    per_axis = 115
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(inst.lower, inst.upper)]
    spacing = np.array([axis[1] - axis[0] for axis in axes])
    return per_axis, spacing


def grid_min_slack(inst, per_axis):
    """Max over the oracle grid of the normalized minimum row slack."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(inst.lower, inst.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.reshape(-1) for m in mesh])
    return float(row_slacks(inst, pts).min(axis=1, initial=np.inf).max())


def objective_gap_bound(inst, spacing):
    """Worst objective increase from snapping the optimum to the grid."""
    corner = np.maximum(np.abs(inst.lower), np.abs(inst.upper))
    grad = 2.0 * inst.quadratic_diag * corner + np.abs(inst.linear_cost)
    return float(grad @ spacing + inst.quadratic_diag @ spacing**2)


def kkt_residual(inst, solution):
    """Stationarity residual with multipliers fitted by nonnegative least
    squares over the active constraints."""
    (a_all,), (b_all,) = constraints_ge(
        inst.a_ge[None], inst.b_ge[None], inst.lower[None], inst.upper[None])
    x = solution.values
    slack = a_all @ x - b_all
    active = slack <= 1e-6 * np.maximum(1.0, np.abs(b_all))
    grad = 2.0 * inst.quadratic_diag * x + inst.linear_cost
    if not np.any(active):
        return float(np.linalg.norm(grad))
    _, residual = nnls(a_all[active].T, grad)
    return float(residual)


def test_unconstrained_minimum():
    inst = QpInstance(
        quadratic_diag=np.array([1.0, 1e5]),
        linear_cost=np.zeros(2),
        a_ge=np.empty((0, 2)),
        b_ge=np.empty(0),
        lower=np.array([-1.0, 0.0]),
        upper=np.array([1.0, 10.0]),
    )
    sol = solve_qp(inst)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.values, [0.0, 0.0], atol=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_clf_relaxation_instance():
    """Speed-tracking event at (90, 15): the input rides its upper bound and
    the slack sits on the relaxed row (unclipped stationary input ~13820
    exceeds the bound)."""
    inst = QpInstance(
        quadratic_diag=np.array([1.0, 1.0e5]),
        linear_cost=np.zeros(2),
        a_ge=np.array([[0.010909090909090908, 1.0]]),
        b_ge=np.array([163.43290909090908]),
        lower=np.array([-6474.6, 0.0]),
        upper=np.array([6474.6, 100.0]),
    )
    sol = solve_qp(inst)
    assert sol.status == "optimal"
    assert sol.values[0] == pytest.approx(6474.6, abs=1e-9)
    assert sol.values[1] == pytest.approx(92.80090909090907, abs=1e-9)
    oracle = oracle_grid_solve(inst, 4001)
    assert sol.objective <= oracle.objective + 1e-9
    assert sol.objective == pytest.approx(oracle.objective, rel=1e-3)


def test_infeasible_row():
    inst = QpInstance(
        quadratic_diag=np.array([1.0, 1.0]),
        linear_cost=np.zeros(2),
        a_ge=np.array([[-1.0, 0.0]]),
        b_ge=np.array([1.0]),
        lower=np.array([-0.5, 0.0]),
        upper=np.array([0.5, 1.0]),
    )
    assert solve_qp(inst).status == "infeasible"
    assert oracle_grid_solve(inst, 101).status == "infeasible"


def test_oracle_trivial_cases():
    inst = QpInstance(
        quadratic_diag=np.array([1.0, 1.0]),
        linear_cost=np.zeros(2),
        a_ge=np.empty((0, 2)),
        b_ge=np.empty(0),
        lower=np.array([-1.0, -1.0]),
        upper=np.array([1.0, 1.0]),
    )
    sol = oracle_grid_solve(inst, 11)
    np.testing.assert_allclose(sol.values, [0.0, 0.0], atol=1e-12)


def test_rows_whose_squares_overflow_solve_as_their_scaled_copies():
    """A row whose sum of squares overflows is divided by its largest entry
    before its norm is taken, so it solves as the same row scaled down; a
    row whose norm or normalised right side is not finite is a ValueError."""
    def instance(a_row, b):
        return QpInstance(np.ones(2), np.array([2.0, 2.0]), np.array([a_row]),
                          np.array([b]), -np.ones(2), np.ones(2))

    plain = solve_qp(instance([1.0, 1.0], -1.0))
    huge = solve_qp(instance([1e200, 1e200], -1e200))
    assert plain.status == huge.status == "optimal"
    np.testing.assert_allclose(huge.values, plain.values, rtol=1e-12)
    np.testing.assert_allclose(plain.values, [-0.5, -0.5], rtol=1e-12)
    for a_row, b in (([1.5e308, 1.5e308], 0.0), ([1e-100, 0.0], 1e300)):
        with pytest.raises(ValueError, match="cannot be normalised"):
            solve_qp(instance(a_row, b))


def test_instance_validation():
    with pytest.raises(ValueError):
        QpInstance(np.array([0.0, 1.0]), np.zeros(2), np.empty((0, 2)), np.empty(0),
                   -np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        QpInstance(np.ones(2), np.zeros(2), np.empty((0, 2)), np.empty(0),
                   np.ones(2), -np.ones(2))
    for a_ge, b_ge in (
        (np.ones((1, 3)), np.zeros(1)),  # a row of the wrong length
        (np.ones(2), np.zeros(1)),  # a row not stacked
        (np.ones((2, 2)), np.zeros(1)),  # more rows than right-hand sides
        (np.array([[1.0, np.nan]]), np.zeros(1)),
        (np.ones((1, 2)), np.array([np.inf])),
    ):
        with pytest.raises(ValueError):
            QpInstance(np.ones(2), np.zeros(2), a_ge, b_ge, -np.ones(2), np.ones(2))


def test_oracle_equivalence_randomized():
    """1000 random instances: objectives within grid resolution, verdicts
    agree whenever the oracle verdict is robust, KKT residuals small."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    one_sided = two_sided = verdict_checked = 0
    for _ in range(1000):
        inst = random_instance(rng)
        per_axis, spacing = oracle_points(inst)
        sol = solve_qp(inst)
        oracle = oracle_grid_solve(inst, per_axis)

        if inst.b_ge.size:
            margin = grid_min_slack(inst, per_axis)
            robust = abs(margin) > float(np.linalg.norm(spacing))
        else:
            robust = True
        if robust:
            verdict_checked += 1
            assert sol.status == oracle.status, (sol.status, oracle.status, margin)

        if sol.status == "optimal" and oracle.status == "optimal":
            one_sided += 1
            assert sol.objective <= oracle.objective + 1e-9
            assert kkt_residual(inst, sol) <= 1e-8 * max(
                1.0, float(np.abs(inst.linear_cost).max()) + float(inst.quadratic_diag.max())
            )
            # two-sided gap bound is valid only when a grid point near the
            # optimum is guaranteed feasible: every row slack must exceed
            # the largest possible snapping move
            slacks = row_slacks(inst, sol.values)
            if not slacks.size or slacks.min() > float(np.linalg.norm(spacing)):
                two_sided += 1
                gap = objective_gap_bound(inst, spacing)
                assert oracle.objective - sol.objective <= gap
    elapsed = time.perf_counter() - t0
    assert two_sided > 200 and verdict_checked > 700
    assert elapsed < 20.0, f"randomized QP comparison too slow: {elapsed:.1f}s"


def test_objective_monotone_under_row_removal():
    rng = np.random.default_rng(5)
    for _ in range(200):
        inst = random_instance(rng)
        if not inst.b_ge.size:
            continue
        full = solve_qp(inst)
        if full.status != "optimal":
            continue
        for drop in range(inst.b_ge.size):
            reduced = dataclasses.replace(inst, a_ge=np.delete(inst.a_ge, drop, 0),
                                          b_ge=np.delete(inst.b_ge, drop))
            rsol = solve_qp(reduced)
            assert rsol.status == "optimal"
            assert rsol.objective <= full.objective + 1e-9


def test_two_general_rows_are_a_value_error():
    """The closed form takes at most one row with more than one nonzero
    coefficient once the bounds are folded: a stack in which one instance
    has two is a ValueError, and the same stack without it solves."""
    a = np.array([[[1.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [0.5, -1.0]]])
    cost_and_box = np.ones(2), np.zeros(2), -np.ones(2), np.ones(2)
    with pytest.raises(ValueError, match="more than one nonzero coefficient"):
        solve_qp_stack(*cost_and_box[:2], a, np.zeros((2, 2)), *cost_and_box[2:])
    with pytest.raises(ValueError, match="more than one nonzero coefficient"):
        solve_qp(QpInstance(*cost_and_box[:2], a[1], np.zeros(2), *cost_and_box[2:]))
    _, _, optimal = solve_qp_stack(*cost_and_box[:2], a[:1], np.zeros((1, 2)),
                                   *cost_and_box[2:])
    assert optimal.tolist() == [True]


def test_other_shapes_are_value_errors():
    """The solver takes QPs over (u, delta): an instance or a stack over
    another number of variables, or with a general row whose delta
    coefficient is negative, is a ValueError that says so."""
    for dim in (1, 3):
        with pytest.raises(ValueError, match=r"over \(u, delta\)"):
            QpInstance(np.ones(dim), np.zeros(dim), np.empty((0, dim)), np.empty(0),
                       -np.ones(dim), np.ones(dim))
        with pytest.raises(ValueError, match=r"over \(u, delta\).*got rows of shape"):
            solve_qp_stack(np.ones(dim), np.zeros(dim), np.zeros((1, 1, dim)),
                           np.zeros((1, 1)), -np.ones(dim), np.ones(dim))
    cost_and_box = np.ones(2), np.zeros(2), -np.ones(2), np.ones(2)
    for slack, status in ((-1.0, None), (1.0, "optimal")):
        arrays = (*cost_and_box[:2], np.array([[1.0, slack]]), np.zeros(1), *cost_and_box[2:])
        if status is None:
            with pytest.raises(ValueError, match="delta coefficient must be positive"):
                solve_qp(QpInstance(*arrays))
        else:
            assert solve_qp(QpInstance(*arrays)).status == status


def test_safety_intervals_only_clip_the_input():
    """Candidates that share the cost and the convergence row and differ only
    in their safety interval [lo_k, hi_k] on u get, where feasible, the
    input of the QP over the input box alone clipped into their interval,
    bit for bit; an empty interval is infeasible."""
    rng = np.random.default_rng(31)
    mass, n = 1650.0, 40
    u_box = 0.4 * mass * 9.81
    clipped = 0
    for _ in range(300):
        diag = np.array([1.0 / mass**2, 10.0 ** rng.uniform(-2.0, 9.0)])
        linear = np.array([-2.0 * rng.uniform(-1.5, 1.5) * u_box / mass**2, 0.0])
        clf = np.array([[-rng.uniform(-0.02, 0.02), 1.0]])
        clf_b = np.array([rng.uniform(-50.0, 150.0)])
        box = np.array([-u_box, 0.0]), np.array([u_box, 1.0e7])
        ((u_star, _),), _, (ok,) = solve_qp_stack(diag, linear, clf[None], clf_b[None], *box)
        assert ok
        ends = np.sort(rng.uniform(-u_box, u_box, (n, 2)), axis=1)
        lo, hi = ends.T
        lo[::7], hi[::7] = hi[::7], lo[::7]  # empty intervals
        a = np.zeros((n, 3, 2))
        a[:, 0, 0], a[:, 1, 0], a[:, 2] = 1.0, -1.0, clf
        b = np.column_stack([lo, -hi, np.full(n, clf_b[0])])
        values, _, optimal = solve_qp_stack(diag, linear, a, b, *box)
        np.testing.assert_array_equal(optimal, lo <= hi)
        expected = np.clip(u_star, lo[optimal], hi[optimal])
        assert values[optimal, 0].tobytes() == expected.tobytes()
        clipped += int((expected != u_star).sum())
    assert clipped > 1000


def test_enumeration_matches_the_grid_oracle():
    """The reference enumeration, on draws with two or three general rows
    that the solver rejects: its objectives lie within grid resolution of
    the brute-force oracle's, its verdicts agree whenever the oracle's is
    robust, and its KKT residuals are small."""
    rng = np.random.default_rng(2025)
    checked = two_sided = verdict_checked = 0
    while checked < 300:
        inst = random_instance(rng, max_general=3)
        if (np.count_nonzero(inst.a_ge, axis=1) > 1).sum() < 2:
            continue
        checked += 1
        with pytest.raises(ValueError):
            solve_qp(inst)
        values, objective, optimal = active_set_solve(
            *(getattr(inst, f.name)[None] for f in dataclasses.fields(QpInstance)))
        sol = QpSolution(values[0], float(objective[0]),
                         "optimal" if optimal[0] else "infeasible")
        per_axis, spacing = oracle_points(inst)
        oracle = oracle_grid_solve(inst, per_axis)
        if abs(grid_min_slack(inst, per_axis)) > float(np.linalg.norm(spacing)):
            verdict_checked += 1
            assert sol.status == oracle.status
        if sol.status == oracle.status == "optimal":
            assert sol.objective <= oracle.objective + 1e-9
            assert kkt_residual(inst, sol) <= 1e-8 * max(
                1.0, float(np.abs(inst.linear_cost).max()) + float(inst.quadratic_diag.max()))
            if row_slacks(inst, sol.values).min() > float(np.linalg.norm(spacing)):
                two_sided += 1
                assert oracle.objective - sol.objective <= objective_gap_bound(inst, spacing)
    assert two_sided > 30 and verdict_checked > 200


def stack_arrays(instances):
    """A group of instances of one shape as the arrays of solve_qp_stack."""
    return [np.stack([getattr(inst, f.name) for inst in instances])
            for f in dataclasses.fields(QpInstance)]


def shared_stacks(rng):
    """Stacks whose instances share some constraints or the cost, as the
    arrays of solve_qp_stack with a leading instance axis."""
    stacks = []
    # the controller's shape over (u, delta): a safety row per instance, a
    # shared convergence row, box and cost; some safety rows infeasible
    mass = 1650.0
    for _ in range(6):
        n = 40
        gains = -np.linspace(0.05, 2.0, n) ** 2 / (2.0 * mass)
        h = rng.uniform(-60.0, 40.0) + rng.uniform(-5.0, 5.0, n)
        a = np.zeros((n, 2, 2))
        a[:, 0, 0] = gains
        a[:, 1] = [rng.uniform(-1e-2, 1e-2), 1.0]  # convergence row, as >=
        b = np.column_stack([-h, np.full(n, rng.uniform(-50.0, 50.0))])
        diag = np.tile([1.0 / mass**2, 1.0e5], (n, 1))
        linear = np.tile([rng.uniform(-1e-3, 1e-3), 0.0], (n, 1))
        lower = np.tile([-0.4 * mass * 9.81, 0.0], (n, 1))
        upper = np.tile([0.4 * mass * 9.81, 1.0e7], (n, 1))
        stacks.append((diag, linear, a, b, lower, upper))
    # a row shared but for the sign of a zero coefficient, which moves the
    # sign of the optimum's zero entry, next to a per-instance row
    n = 6
    a = np.zeros((n, 2, 2))
    a[:, 0] = [1.0, 0.0]
    a[1::2, 0, 1] = -0.0
    a[:, 1] = [0.5, 1.0]
    b = np.column_stack([np.ones(n), -3.0 - np.arange(n)])
    box = np.full((n, 2), 2.0)
    stacks.append((np.ones((n, 2)), np.tile([-1.0, 0.0], (n, 1)), a, b, -box, box))
    # two shared bounds on u or delta and a per-instance general row, under
    # a shared and under a per-instance cost
    for var in (0, 1, 0):
        n = 12
        a = np.zeros((n, 3, 2))
        a[:, :2, var] = rng.uniform(-2.0, 2.0, 2)
        a[:, 2] = rng.uniform([-2.0, 0.05], 2.0, (n, 2))
        b = np.column_stack([np.tile(rng.uniform(-2.0, 1.0, 2), (n, 1)),
                             rng.uniform(-3.0, 2.0, n)])
        box = np.broadcast_to(rng.uniform(0.5, 3.0, 2), (n, 2))
        diag = rng.uniform(0.05, 10.0, (n, 2))
        linear = rng.uniform(-5.0, 5.0, (n, 2))
        stacks.append((diag[0], linear[0], a, b, -box, box))
        stacks.append((diag, linear, a, b, -box, box))
    return stacks


def test_stacked_solve_matches_single_solves():
    """Solving instances of one shape as one array stack returns, bit for
    bit, what solving each alone returns, infeasible verdicts included;
    cost rows shared by the stack may be passed once.  So do stacks whose
    instances share constraints or the cost."""
    rng = np.random.default_rng(77)
    groups = {}
    for _ in range(600):
        inst = random_instance(rng)
        groups.setdefault(inst.b_ge.size, []).append(inst)
    infeasible = 0
    for group in groups.values():
        values, objective, optimal = solve_qp_stack(*stack_arrays(group))
        for i, inst in enumerate(group):
            single = solve_qp(inst)
            assert optimal[i] == (single.status == "optimal")
            assert objective[i] == single.objective
            np.testing.assert_array_equal(values[i], single.values)
            infeasible += not optimal[i]
        diag, linear, *rest = stack_arrays(group)
        shared = solve_qp_stack(diag[0], linear[0], *rest)
        for i, inst in enumerate(group):
            single = solve_qp(dataclasses.replace(
                inst, quadratic_diag=diag[0], linear_cost=linear[0]))
            assert shared[1][i] == single.objective
            np.testing.assert_array_equal(shared[0][i], single.values)
    assert len(groups) == 4 and infeasible > 0
    infeasible = 0
    for arrays in shared_stacks(rng):
        values, objective, optimal = solve_qp_stack(*arrays)
        for i in range(values.shape[0]):
            single = solve_qp_stack(
                *(v if v.ndim == 1 else v[i : i + 1] for v in arrays))
            assert (values[i].tobytes(), objective[i], optimal[i]) == (
                single[0][0].tobytes(), single[1][0], single[2][0])
            infeasible += not optimal[i]
    assert infeasible > 0

    empty = [column[:0] for column in stack_arrays(groups[1])]
    values, objective, optimal = solve_qp_stack(*empty)
    assert values.shape == (0, 2) and objective.shape == optimal.shape == (0,)
    diag, linear, a, b, lower, upper = stack_arrays(groups[1][:3])
    for bad in (
        (diag, linear, a[:, :, :1], b, lower, upper),  # rows of the wrong length
        (diag, linear, a[0], b, lower, upper),  # rows not stacked
        (-diag, linear, a, b, lower, upper),
        (diag, linear * np.nan, a, b, lower, upper),
        (diag, linear, a, b * np.inf, lower, upper),
        (diag, linear, a, b, upper, lower),
    ):
        with pytest.raises(ValueError):
            solve_qp_stack(*bad)


def test_solve_stack_singular_system_gives_nan_row():
    """LAPACK rejects a stack holding one exactly singular system, so the
    reference enumeration's stacked solve falls back to one solve per
    system: the singular one gives a NaN row and every other row is its own
    solve, bit for bit.  The enumeration filters its KKT systems on the Gram
    determinant of their rows, not on the KKT matrix itself, so this path
    stays reachable in principle."""
    rng = np.random.default_rng(13)
    matrices = rng.uniform(-1.0, 1.0, (5, 3, 3))
    # the second row is twice the first: partial pivoting leaves an exact zero
    matrices[2] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
    rhs = rng.uniform(-1.0, 1.0, (5, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(matrices, rhs[..., None])
    sols = solve_stack(matrices, rhs)
    assert np.isnan(sols[2]).all()
    for i in (0, 1, 3, 4):
        assert sols[i].tobytes() == np.linalg.solve(matrices[i], rhs[i]).tobytes()


def foldable_stack(rng, n_single, log_w, near, n=60):
    """A stack over (u, delta) whose rows leave at most one general row once
    those with one nonzero coefficient are folded into the box: n_single
    single-coefficient rows (on the input, on the slack alone, all zero, or
    the two sign-straddling vertex rows of an input gain) and a convergence
    row (-L_g V, 1), absent from a quarter of the instances and on the
    slack alone in a fifth.  Slack weights are log-uniform over log_w; some
    instances are infeasible.  With ``near``, some folded bounds lie within
    FEAS_TOL of a box bound, on either side, and in an eighth of the stacks
    without other rows the convergence row's maximum over the box is b,
    within FEAS_TOL, and in another eighth the box's minimiser misses the
    row by less than FEAS_TOL.  Returns the arrays of solve_qp_stack and the
    instances so drawn in the tolerance band, (n,)."""
    diag = np.column_stack([rng.uniform(0.05, 10.0, n), 10.0 ** rng.uniform(*log_w, n)])
    linear = np.column_stack([rng.uniform(-5.0, 5.0, n), np.zeros(n)])
    span = rng.uniform(0.5, 3.0, n)
    lower = np.column_stack([-span, np.zeros(n)])
    upper = np.column_stack([span * rng.uniform(0.5, 1.5, n), rng.uniform(1.0, 100.0, n)])
    a = np.zeros((n, n_single + 1, 2))
    b = np.zeros((n, n_single + 1))
    band = np.zeros(n, dtype=bool)
    vertex = n_single == 2 and rng.random() < 0.5
    for i in range(n):
        if vertex:  # g u >= -h for the least and the greatest gain
            gains = [-rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)]
            a[i, :2, 0], b[i, :2] = gains, -rng.uniform(-0.5, 3.0)
            continue
        for k in range(n_single):
            kind = rng.integers(5)
            if kind == 4:  # all zero: holds when b <= 0, within the tolerance
                b[i, k] = rng.choice([0.0, -1.0, 1.0, 0.5 * FEAS_TOL])
                continue
            # the input, or the slack alone
            var = 1 if kind == 3 or (kind == 2 and rng.random() < 0.3) else 0
            coef = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)
            a[i, k, var] = coef
            if kind == 2 and near:  # a bound within the tolerance of a box bound
                edge = rng.choice([lower[i, var], upper[i, var]])
                b[i, k] = coef * edge + rng.uniform(-0.9, 0.9) * FEAS_TOL * max(
                    1.0, abs(coef * edge))
                band[i] = True
            else:
                b[i, k] = coef * rng.uniform(lower[i, var] - 0.5, upper[i, var] + 0.5)
    lgv = rng.uniform(-2.0, 2.0, n)
    lgv[1::5] = 0.0  # a convergence row on the slack alone
    a[:, -1, 0], a[:, -1, 1] = -lgv, 1.0
    b[:, -1] = rng.uniform(-5.0, 150.0, n)
    a[::4, -1], b[::4, -1] = 0.0, -1.0  # no convergence row: 0 >= -1
    if near and n_single == 0:
        top = np.maximum(a[2::8, -1] * lower[2::8], a[2::8, -1] * upper[2::8]).sum(axis=1)
        b[2::8, -1] = top + rng.uniform(-0.9, 0.9, top.size) * FEAS_TOL * np.maximum(1.0, top)
        # the box's minimiser misses the row by less than the tolerance
        x0 = np.clip(-linear[6::8] / (2.0 * diag[6::8]), lower[6::8], upper[6::8])
        at = (a[6::8, -1] * x0).sum(axis=1)
        b[6::8, -1] = at + rng.uniform(0.0, 0.9, at.size) * FEAS_TOL * np.maximum(1.0, at)
        band[2::8] = band[6::8] = True
    return (diag, linear, a, b, lower, upper), band


def foldable_stacks(seed, log_w, near, per_shape=16):
    rng = np.random.default_rng(seed)
    for n_single in (0, 1, 2):
        for _ in range(per_shape):
            yield foldable_stack(rng, n_single, log_w, near)


def met_within_tolerance(inst, values):
    """Whether the point meets every constraint of the instance, box faces
    included, when each may be missed by FEAS_TOL * max(1, |b|)."""
    (a_all,), (b_all,) = constraints_ge(inst.a_ge[None], inst.b_ge[None],
                                        inst.lower[None], inst.upper[None])
    return bool((a_all @ values - b_all >= -FEAS_TOL * np.maximum(1.0, np.abs(b_all))).all())


def test_closed_form_matches_the_enumeration():
    """Stacks whose rows fold to at most one general row, with slack weights
    from 1e-2 to 1e9: the solver gives each instance the enumeration's
    verdict, and outside the tolerance band its optimum and objective
    within 1e-12 relative.  In the band both accept points that miss a
    constraint within FEAS_TOL, so the optima may differ by that much; there
    the solver's optimum meets every constraint within the tolerance and is
    a KKT point.  Every verdict is the enumeration's, the band's too, where
    only a point that meets the rows within the tolerance may exist."""
    checked = infeasible = in_band = relaxed = 0
    for arrays, band in foldable_stacks(25, (-2.0, 9.0), near=True):
        values, objective, optimal = solve_qp_stack(*arrays)
        ref_values, ref_objective, ref_optimal = active_set_solve(*arrays)
        np.testing.assert_array_equal(optimal, ref_optimal)
        relaxed += (optimal & ~active_set_solve(*arrays, relax=False)[2]).sum()
        exact = optimal & ~band
        assert (np.abs(values[exact] - ref_values[exact])
                <= 1e-12 * np.maximum(1.0, np.abs(ref_values[exact]))).all()
        assert (np.abs(objective[exact] - ref_objective[exact])
                <= 1e-12 * np.maximum(1.0, np.abs(ref_objective[exact]))).all()
        assert np.isnan(values[~optimal]).all() and (objective[~optimal] == np.inf).all()
        for i in np.flatnonzero(optimal & band):
            inst = QpInstance(*(v[i] for v in arrays))
            sol = solve_qp(inst)
            assert met_within_tolerance(inst, sol.values)
            grad = 2.0 * inst.quadratic_diag * sol.values + inst.linear_cost
            assert kkt_residual(inst, sol) <= 1e-9 * max(1.0, float(np.abs(grad).max()))
        checked += exact.sum()
        in_band += (optimal & band).sum()
        infeasible += (~optimal).sum()
    assert checked > 1000 and in_band > 300 and infeasible > 200 and relaxed >= 5


def test_closed_form_is_a_kkt_point_at_huge_slack_weights():
    """With slack weights from 1e9 to 1e12 the enumeration accepts points
    that violate the convergence row within FEAS_TOL, whose objective is
    lower by w times that violation, or finds no point at all, so it is no
    reference; the stacks keep clear of the tolerance band.  The verdicts
    are those the enumeration gives the same rows under the weight 1, and
    each optimum meets every constraint and the KKT conditions."""
    checked = infeasible = 0
    for arrays, _ in foldable_stacks(26, (9.0, 12.0), near=False):
        values, objective, optimal = solve_qp_stack(*arrays)
        unit_weight = arrays[0].copy()
        unit_weight[:, -1] = 1.0
        np.testing.assert_array_equal(optimal, active_set_solve(unit_weight, *arrays[1:])[2])
        infeasible += (~optimal).sum()
        for i in np.flatnonzero(optimal):
            inst = QpInstance(*(v[i] for v in arrays))
            sol = solve_qp(inst)
            np.testing.assert_array_equal(sol.values, values[i])
            assert met_within_tolerance(inst, sol.values)
            grad = 2.0 * inst.quadratic_diag * sol.values + inst.linear_cost
            assert kkt_residual(inst, sol) <= 1e-9 * max(1.0, float(np.abs(grad).max()))
            checked += 1
    assert checked > 1000 and infeasible > 200
