"""Worst-case bound computation: frozen values, soundness, refinement."""

import math

import numpy as np
import pytest

from atlc import BoundConfig, Box, make_box, make_state
from atlc.robust_bounds import grid_points, stack_on_grid, taylor_table

from references import (g_ratlc_from_stack, h_ratlc_from_stack, meshgrid_points,
                        taylor_weights)

CFG = BoundConfig()


def dense_min_oracle(box, tau, params, n=201):
    """Brute-force reference for the joint Taylor-sum minimum."""
    zs = np.linspace(box.lower[0], box.upper[0], n)
    vs = np.linspace(box.lower[1], box.upper[1], n)
    Z, V = np.meshgrid(zs, vs, indexing="ij")
    fr = params.f0 * np.sign(V) + params.f1 * V + params.f2 * V * V
    total = (Z - params.lp) + (params.vp - V) * tau + (fr / params.M) * tau**2 / 2
    return float(total.min())


def taylor_expr(x, u, tau, model):
    stack = model.lie_stack(x)
    w = taylor_table([tau], model.m)[0]
    return float(stack @ w + model.phi(x) * u * w[-1])


def test_make_box_values():
    box = make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5])
    np.testing.assert_array_equal(box.lower, [89.5, 14.5])
    np.testing.assert_array_equal(box.upper, [90.5, 15.5])

    box = make_box(make_state(90.0, 15.0), [0.0, 0.0], [0.0, 0.0])
    np.testing.assert_array_equal(box.lower, box.upper)

    box = make_box(np.zeros(2), [1.0, 2.0], [3.0, 4.0])
    np.testing.assert_array_equal(box.lower, [-1.0, -2.0])
    np.testing.assert_array_equal(box.upper, [3.0, 4.0])


def test_make_box_rejects_negative_radii():
    with pytest.raises(ValueError):
        make_box(make_state(90.0, 15.0), [-0.1, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        Box(lower=np.array([1.0, np.inf]), upper=np.array([2.0, np.inf]))
    with pytest.raises(ValueError):
        Box(lower=np.array([1.0, 2.0]), upper=np.array([0.0, 3.0]))


def test_bound_config_validation():
    for bad in (1, 0, True, 2.5, 3.0, math.nan, math.inf, "21", None):
        with pytest.raises(ValueError):
            BoundConfig(grid_points_per_axis=bad)


def test_h_ratlc_frozen_value(model, params):
    box = make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5])
    value = h_ratlc_from_stack(stack_on_grid(box, model, CFG), 0.5)
    # joint minimum sits at the (z low, v high) corner
    assert value == pytest.approx(78.70542897727272, abs=1e-12)
    assert value == pytest.approx(dense_min_oracle(box, 0.5, params), abs=1e-9)


def test_h_ratlc_degenerate_box(model):
    gs = stack_on_grid(make_box(make_state(90.0, 15.0), [0.0, 0.0], [0.0, 0.0]),
                       model, CFG)
    assert h_ratlc_from_stack(gs, 0.5) == pytest.approx(
        79.45495075757575, abs=1e-12
    )
    assert h_ratlc_from_stack(gs, 1e-6) == pytest.approx(80.0, abs=1e-5)


def test_h_ratlc_rejects_bad_tau(model):
    gs = stack_on_grid(make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5]),
                       model, CFG)
    with pytest.raises(ValueError):
        h_ratlc_from_stack(gs, 0.0)
    with pytest.raises(ValueError):
        h_ratlc_from_stack(gs, -0.5)


def test_g_ratlc_values(model):
    gs = stack_on_grid(make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5]),
                       model, CFG)
    for branch in (1, -1):
        gain = g_ratlc_from_stack(gs, 0.5, branch)
        assert gain == pytest.approx(-7.575757575757576e-5, abs=1e-18)
    assert g_ratlc_from_stack(gs, 1.0, 1) == pytest.approx(
        -3.0303030303030303e-4, abs=1e-18
    )


def test_g_ratlc_degenerate_exact(model):
    gs = stack_on_grid(make_box(make_state(42.0, 17.0), [0.0, 0.0], [0.0, 0.0]),
                       model, CFG)
    expected = (0.7**2 / 2) * model.phi(np.array([42.0, 17.0]))
    for branch in (1, -1):
        assert g_ratlc_from_stack(gs, 0.7, branch) == expected


def test_g_ratlc_rejects_bad_branch(model):
    gs = stack_on_grid(make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5]),
                       model, CFG)
    with pytest.raises(ValueError):
        g_ratlc_from_stack(gs, 0.5, 0)
    with pytest.raises(ValueError):
        g_ratlc_from_stack(gs, 0.5, [1, -1])
    with pytest.raises(ValueError):
        g_ratlc_from_stack(gs, 0.5, [1])


def test_soundness_over_box(model, params):
    """Row value lower-bounds the pointwise Taylor expression for every
    sampled interior state and branch-consistent input."""
    rng = np.random.default_rng(11)
    for _ in range(5):
        center = np.array([rng.uniform(11.5, 120), rng.uniform(2, 30)])
        box = make_box(center, [0.5, 0.5], [0.5, 0.5])
        tau = rng.uniform(0.05, 2.0)
        gs = stack_on_grid(box, model, CFG)
        h_r = h_ratlc_from_stack(gs, tau)
        for branch, lo, hi in (
            (1, max(0.0, params.u_min), params.u_max),
            (-1, params.u_min, min(0.0, params.u_max)),
        ):
            g_r = g_ratlc_from_stack(gs, tau, branch)
            xs = rng.uniform(box.lower, box.upper, size=(1000, 2))
            us = rng.uniform(lo, hi, size=1000)
            for x, u in zip(xs, us):
                bound = g_r * u + h_r
                assert bound <= taylor_expr(x, u, tau, model) + 1e-9


def test_monotone_refinement(model):
    """Doubling the per-axis resolution never increases the computed min."""
    box = make_box(make_state(30.0, 22.0), [0.5, 0.7], [0.4, 0.5])
    for tau in (0.05, 0.5, 2.0):
        for g in (3, 5, 9, 21):
            coarse, fine = (
                h_ratlc_from_stack(stack_on_grid(box, model, BoundConfig(k)), tau)
                for k in (g, 2 * g)
            )
            assert fine <= coarse + 1e-12


def test_lattice_nesting():
    box = make_box(make_state(30.0, 22.0), [0.5, 0.5], [0.5, 0.5])
    coarse = {tuple(p) for p in grid_points(box, BoundConfig(grid_points_per_axis=9))}
    fine = {tuple(p) for p in grid_points(box, BoundConfig(grid_points_per_axis=18))}
    assert coarse <= fine


@pytest.mark.parametrize("per_axis", [2, 21])
def test_grid_points_equal_the_meshgrid_lattice(per_axis):
    """The broadcast lattice is the meshgrid lattice bit for bit, in the same
    ij order, on seeded boxes of 1, 2 and 3 dimensions, one of them with a
    zero-width axis."""
    rng = np.random.default_rng(11)
    cfg = BoundConfig(grid_points_per_axis=per_axis)
    for n in (1, 2, 3):
        for flat in (None, n - 1):
            lower = rng.normal(0.0, 30.0, n)
            width = rng.exponential(2.0, n)
            if flat is not None:
                width[flat] = 0.0
            box = Box(lower, lower + width)
            points, reference = grid_points(box, cfg), meshgrid_points(box, cfg)
            assert points.shape == reference.shape
            assert points.tobytes() == reference.tobytes()


def test_scale_factoring(model):
    """g_ratlc_from_stack(tau) / tau^m does not depend on tau."""
    gs = stack_on_grid(make_box(make_state(50.0, 20.0), [0.5, 0.5], [0.5, 0.5]),
                       model, CFG)
    base = g_ratlc_from_stack(gs, 1.0, 1)
    for tau in (0.05, 0.3, 0.77, 1.9):
        scaled = g_ratlc_from_stack(gs, tau, 1) / tau**model.m
        np.testing.assert_allclose(scaled, base, rtol=1e-12)


def test_degenerate_identity_machine_precision(model):
    x = make_state(57.3, 19.2)
    gs = stack_on_grid(make_box(x, [0.0, 0.0], [0.0, 0.0]), model, CFG)
    stack = model.lie_stack(x)
    for tau in (0.05, 0.5, 2.0):
        w = taylor_table([tau], model.m)[0]
        assert h_ratlc_from_stack(gs, tau) == float(stack @ w)


def test_taylor_table_reads_each_time_scale_as_a_float():
    """Equal time scales given as a list, a tuple or a numpy grid share one
    read-only table, equal to the weights computed afresh.  Weights that
    overflow are a ValueError naming the time scale, not an inf or a
    warning, and every error is raised again on the next call."""
    grid = np.linspace(0.05, 2.0, 40)
    for m in (2, 3):
        table = taylor_table(grid, m)
        for same in (grid.tolist(), tuple(grid.tolist()), grid.copy()):
            assert taylor_table(same, m) is table
        assert not table.flags.writeable
        assert table.tobytes() == taylor_weights(grid, m).tobytes()
    assert taylor_table(grid, 2) is not taylor_table(grid, 3)
    for _ in range(2):
        for taus in (np.array([0.05, 1.5e154]), [0.05, 1e200]):
            with pytest.raises(ValueError, match="overflow"):
                taylor_table(taus, 2)
        with pytest.raises(ValueError, match="positive"):
            taylor_table([0.5, 0.0], 2)
