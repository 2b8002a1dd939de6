"""Feasibility margin: frozen values, threshold structure, continuity."""

import numpy as np
import pytest

from atlc import BoundConfig, make_box, make_state, tau_star_scan
from atlc.margin import margin_from_stack
from atlc.robust_bounds import GridStack, stack_on_grid

from references import h_ratlc_from_stack

CFG = BoundConfig()


def test_margin_frozen_value(model):
    box = make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5])
    # negative input coefficient: supremum at maximum braking
    value = margin_from_stack(stack_on_grid(box, model, CFG), 0.5, model)
    assert value == pytest.approx(79.19592897727272, abs=1e-9)
    assert value >= 0.0


def test_margin_near_boundary_large_tau(model):
    box = make_box(make_state(10.5, 15.0), [0.0, 0.0], [0.0, 0.0])
    # degenerate box, tau = 2: 0.5 + 2(-1.11) + 2*F_r(15)/M + 2*(19423.8/1650)*0.4/1.2...
    value = margin_from_stack(stack_on_grid(box, model, CFG), 2.0, model)
    expected = (
        0.5 + 2.0 * (13.89 - 15.0) + 2.0 * (131.35 / 1650.0)
        + 2.0 * (1.0 / 1650.0) * 6474.6
    )
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(6.287212121212121, abs=1e-12)


def test_margin_zero_gain_reduces_to_drift_bound(model):
    gs = GridStack(
        points=np.zeros((3, 2)),
        stack=np.array([[1.0, -0.5, 0.2], [2.0, -1.0, 0.1], [1.5, 0.0, 0.0]]),
        phi=np.zeros(3),
        m=2,
    )
    tau = 0.8
    h_values = gs.stack @ np.array([1.0, tau, tau**2 / 2])
    assert margin_from_stack(gs, tau, model) == pytest.approx(float(h_values.min()))


def test_feasible_at_exact_zero_margin(model):
    gs = GridStack(
        points=np.zeros((1, 2)),
        stack=np.array([[0.0, 0.0, 0.0]]),
        phi=np.zeros(1),
        m=2,
    )
    assert margin_from_stack(gs, 1.0, model) == 0.0


def test_infeasible_when_gain_cannot_save(model, params):
    """Drift bound below the best any admissible input can add."""
    box = make_box(make_state(10.05, 24.0), [0.0, 0.0], [0.0, 0.0])
    value = margin_from_stack(stack_on_grid(box, model, CFG), 2.0, model)
    assert value < 0.0


@pytest.mark.parametrize("z, v", [
    pytest.param(49.8, 15.0, id="49.8-15.0"),
    pytest.param(50.2, 20.0, id="50.2-20.0"),
    pytest.param(60.0, 15.0, id="60.0-15.0"),
])
def test_margin_matches_brute_force_with_sign_changing_gain(sign_gain_model, z, v):
    """With the rows of the two ends of the gain interval the margin is the
    maximum over a dense input grid (holding 0) of the worst case over the
    lattice."""
    model = sign_gain_model
    gs = stack_on_grid(make_box(make_state(z, v), [0.5, 0.5], [0.5, 0.5]), model, CFG)
    inputs = np.union1d(np.linspace(model.u_min, model.u_max, 2001), [0.0])
    gain = np.multiply.outer(gs.phi, inputs).min(axis=0)  # least gain over the lattice
    for tau in (0.05, 0.5, 1.3, 2.0):
        brute = (h_ratlc_from_stack(gs, tau) + tau**2 / 2 * gain).max()
        assert margin_from_stack(gs, tau, model) == pytest.approx(brute, abs=1e-9)


def test_tau_star_scan_cases(model):
    grid = np.linspace(0.05, 2.0, 40)

    result = tau_star_scan(
        make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5]), grid, model, CFG
    )
    assert result.tau_star == 0.05
    assert result.values.shape == (40,)
    assert np.all(result.values >= 0.0)

    result = tau_star_scan(
        make_box(make_state(10.05, 24.0), [0.2, 0.2], [0.2, 0.2]), grid, model, CFG
    )
    assert result.tau_star is None
    assert np.all(result.values < 0.0)

    single = tau_star_scan(
        make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5]),
        np.array([0.3]), model, CFG,
    )
    assert single.tau_star == 0.3


def test_tau_star_scan_rejects_a_grid_that_is_not_increasing(model):
    """The scan, the one maker of a MarginMap, checks its grid."""
    box = make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5])
    for grid in ([0.2, 0.1], [0.2, 0.2], []):
        with pytest.raises(ValueError, match="strictly increasing"):
            tau_star_scan(box, np.array(grid), model, CFG)


def sample_envelope(rng, n):
    return np.column_stack([rng.uniform(10.6, 120.0, n), rng.uniform(1.0, 30.0, n)])


def test_monotone_regime_threshold_structure(model):
    """Where the margin is nonincreasing over the grid, the feasible set is a
    left-anchored interval (possibly empty)."""
    rng = np.random.default_rng(21)
    grid = np.linspace(0.05, 2.0, 40)
    monotone_seen = 0
    for x in sample_envelope(rng, 50):
        result = tau_star_scan(
            make_box(x, [0.5, 0.5], [0.5, 0.5]), grid, model, CFG
        )
        values = result.values
        if np.all(np.diff(values) <= 1e-12):
            monotone_seen += 1
            feasible = values >= 0.0
            if feasible.any():
                last = np.flatnonzero(feasible).max()
                assert feasible[: last + 1].all()
                assert result.tau_star == grid[0]
                # feasibility at a larger scale implies it at every smaller one
                for i in np.flatnonzero(feasible):
                    assert feasible[: i + 1].all()
    assert monotone_seen >= 10  # regime must actually occur in the envelope


def test_margin_continuity_under_refinement(model):
    """Finite-difference slopes of the margin stay bounded as the grid
    refines: the empirical Lipschitz constant does not blow up."""
    rng = np.random.default_rng(22)
    for x in sample_envelope(rng, 8):
        box = make_box(x, [0.5, 0.5], [0.5, 0.5])
        slopes = []
        for n in (20, 40, 80, 160):
            grid = np.linspace(0.05, 2.0, n)
            values = tau_star_scan(box, grid, model, CFG).values
            slopes.append(np.abs(np.diff(values)).max() / (grid[1] - grid[0]))
        for refined in slopes[1:]:
            assert refined <= 2.0 * slopes[0] + 1e-6
