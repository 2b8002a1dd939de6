"""Worst-case bound computation: frozen values, soundness, refinement."""

import numpy as np
import pytest

from atlc import BoundConfig, Box, make_box, make_state
from atlc.robust_bounds import (
    g_ratlc_from_stack,
    grid_points,
    h_ratlc_from_stack,
    stack_on_grid,
    taylor_weights,
)

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
    w = taylor_weights(tau, model.m)
    return float(stack @ w + (model.phi(x) @ np.atleast_1d(u)) * w[-1])


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
    with pytest.raises(ValueError):
        BoundConfig(grid_points_per_axis=1)


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
    for branch in ([1], [-1]):
        row = g_ratlc_from_stack(gs, 0.5, branch)
        assert row == pytest.approx([-7.575757575757576e-5], abs=1e-18)
    assert g_ratlc_from_stack(gs, 1.0, [1]) == pytest.approx(
        [-3.0303030303030303e-4], abs=1e-18
    )


def test_g_ratlc_degenerate_exact(model):
    gs = stack_on_grid(make_box(make_state(42.0, 17.0), [0.0, 0.0], [0.0, 0.0]),
                       model, CFG)
    expected = (0.7**2 / 2) * model.phi(np.array([42.0, 17.0]))
    for branch in ([1], [-1]):
        np.testing.assert_array_equal(g_ratlc_from_stack(gs, 0.7, branch), expected)


def test_g_ratlc_rejects_bad_branch(model):
    gs = stack_on_grid(make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5]),
                       model, CFG)
    with pytest.raises(ValueError):
        g_ratlc_from_stack(gs, 0.5, [0])
    with pytest.raises(ValueError):
        g_ratlc_from_stack(gs, 0.5, [1, -1])


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
            ([1], max(0.0, params.u_min), params.u_max),
            ([-1], params.u_min, min(0.0, params.u_max)),
        ):
            g_r = g_ratlc_from_stack(gs, tau, branch)
            xs = rng.uniform(box.lower, box.upper, size=(1000, 2))
            us = rng.uniform(lo, hi, size=1000)
            for x, u in zip(xs, us):
                bound = float(g_r[0] * u + h_r)
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


def test_scale_factoring(model):
    """g_ratlc_from_stack(tau) / tau^m does not depend on tau."""
    gs = stack_on_grid(make_box(make_state(50.0, 20.0), [0.5, 0.5], [0.5, 0.5]),
                       model, CFG)
    base = g_ratlc_from_stack(gs, 1.0, [1])
    for tau in (0.05, 0.3, 0.77, 1.9):
        scaled = g_ratlc_from_stack(gs, tau, [1]) / tau**model.m
        np.testing.assert_allclose(scaled, base, rtol=1e-12)


def test_degenerate_identity_machine_precision(model):
    x = make_state(57.3, 19.2)
    gs = stack_on_grid(make_box(x, [0.0, 0.0], [0.0, 0.0]), model, CFG)
    stack = model.lie_stack(x)
    for tau in (0.05, 0.5, 2.0):
        w = taylor_weights(tau, model.m)
        assert h_ratlc_from_stack(gs, tau) == float(stack @ w)
