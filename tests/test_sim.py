"""Segment integration, trigger location, Taylor mean-value property."""

import numpy as np
import pytest

from atlc import (
    IntegratorConfig,
    acc_dynamics_rhs,
    integrate_until_trigger,
    make_box,
    make_state,
    resistance_force,
)
from atlc.robust_bounds import taylor_weights
from atlc.sim import integrate_fixed_horizon

from conftest import rk4_step

CFG = IntegratorConfig()


def reference_trigger_time(x0, u, box, params, dt=1e-5, t_max=10.0):
    """Fixed-step reference integration; linear interpolation at the exit."""
    x = np.asarray(x0, dtype=float).copy()
    t = 0.0
    f = lambda s: acc_dynamics_rhs(s, u, params)
    while t < t_max:
        x_next = rk4_step(f, x, dt)
        outside = np.any(x_next < box.lower) or np.any(x_next > box.upper)
        if outside:
            dist_prev = np.minimum(x - box.lower, box.upper - x)
            dist_next = np.minimum(x_next - box.lower, box.upper - x_next)
            i = int(np.argmin(dist_next))
            frac = dist_prev[i] / (dist_prev[i] - dist_next[i])
            return t + frac * dt, x + frac * (x_next - x)
        x = x_next
        t += dt
    raise AssertionError("no trigger within the reference horizon")


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_step=-1.0)


def test_horizon_end_with_huge_box(model):
    box = make_box(make_state(90.0, 15.0), [1e30, 1e30], [1e30, 1e30])
    seg = integrate_until_trigger(
        make_state(90.0, 15.0), 0.0, box, 0.0, 2.0, model, CFG
    )
    assert seg.exit_reason == "horizon_end"
    assert seg.t_end == 2.0
    assert seg.times[0] == 0.0 and seg.times[-1] == 2.0
    assert np.all(np.diff(seg.times) > 0)


def test_trigger_time_matches_reference(model, params):
    """Gap closes at ~1.11 m/s from (90, 15) under zero input; the box exit
    lands where the fixed-step reference says."""
    x0 = make_state(90.0, 15.0)
    box = make_box(x0, [0.5, 0.5], [0.5, 0.5])
    seg = integrate_until_trigger(x0, 0.0, box, 0.0, 30.0, model, CFG)
    assert seg.exit_reason == "trigger"
    assert seg.exit_coordinate == 0  # the gap coordinate crosses first

    t_ref, x_ref = reference_trigger_time(x0, 0.0, box, params)
    assert 0.4 < seg.t_end < 0.5
    assert seg.t_end == pytest.approx(t_ref, abs=1e-5)
    np.testing.assert_allclose(seg.states[-1], x_ref, atol=1e-5)


def test_trigger_crossing_accuracy(model):
    x0 = make_state(90.0, 15.0)
    box = make_box(x0, [0.5, 0.5], [0.5, 0.5])
    for u in (0.0, -4000.0, 5000.0):
        seg = integrate_until_trigger(x0, u, box, 0.0, 30.0, model, CFG)
        assert seg.exit_reason == "trigger"
        end = seg.states[-1]
        assert box.boundary_distance(end).min() <= 1e-6


def test_containment_of_presamples(model):
    x0 = make_state(90.0, 15.0)
    box = make_box(x0, [0.5, 0.5], [0.5, 0.5])
    seg = integrate_until_trigger(x0, -2000.0, box, 0.0, 30.0, model, CFG)
    for state in seg.states[:-1]:
        assert box.contains(state, tol=CFG.abs_tol)


def test_immediate_exit_on_face_with_outward_flow(model):
    x0 = make_state(90.0, 15.0)
    # start on the lower gap face; the gap keeps shrinking, so the segment
    # collapses to the start instant
    box = make_box(x0 + np.array([0.5, 0.0]), [0.5, 0.4], [0.5, 0.4])
    assert x0[0] == box.lower[0]
    seg = integrate_until_trigger(x0, 0.0, box, 0.0, 5.0, model, CFG)
    assert seg.exit_reason == "trigger"
    assert seg.t_end - seg.t_start <= CFG.trigger_bisection_tol


def test_inward_flow_on_face_does_not_trigger(model):
    x0 = make_state(90.0, 15.0)
    # on the upper gap face with the gap shrinking: flow re-enters the box
    box = make_box(x0 - np.array([0.5, 0.0]), [0.5, 0.4], [0.5, 0.4])
    assert x0[0] == box.upper[0]
    seg = integrate_until_trigger(x0, 0.0, box, 0.0, 0.2, model, CFG)
    assert seg.t_end - seg.t_start > CFG.trigger_bisection_tol


def test_dense_spacing(model):
    box = make_box(make_state(90.0, 15.0), [1e30, 1e30], [1e30, 1e30])
    seg = integrate_until_trigger(
        make_state(90.0, 15.0), 0.0, box, 0.0, 0.507, model, CFG
    )
    np.testing.assert_allclose(np.diff(seg.times)[:-1], 0.01, atol=1e-12)
    assert seg.times[-1] == 0.507


def test_bad_horizon_rejected(model):
    box = make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        integrate_until_trigger(make_state(90.0, 15.0), 0.0, box, 1.0, 1.0, model, CFG)


def test_speed_hold_equilibrium(model, params):
    """Input matched to the resistance force holds the speed exactly."""
    v0 = 17.3
    u = resistance_force(v0, params)
    _, states = integrate_fixed_horizon(make_state(60.0, v0), u, 5.0, model)
    assert np.abs(states[:, 1] - v0).max() <= 1e-8


def test_taylor_mean_value_property(model, params):
    """The expansion with the curvature terms moved to some interior instant
    reproduces the endpoint value exactly; the residual over a dense sweep
    of candidate instants crosses zero."""
    rng = np.random.default_rng(33)
    for _ in range(40):
        x0 = np.array([rng.uniform(12.0, 120.0), rng.uniform(2.0, 30.0)])
        u = rng.uniform(params.u_min, params.u_max)
        tau = rng.uniform(0.05, 2.0)
        times, states = integrate_fixed_horizon(x0, u, tau, model, dt=tau / 400.0)
        h_end = model.lie_stack(states[-1])[0]
        stack0 = model.lie_stack(x0)
        w = taylor_weights(tau, model.m)
        lead = stack0[0] * w[0] + stack0[1] * w[1]

        inner = states[1:-1]
        stacks = model.lie_stack(inner)
        phis = model.phi(inner)[:, 0]
        residuals = lead + (stacks[:, 2] + phis * u) * w[2] - h_end
        crosses = np.any(residuals[:-1] * residuals[1:] <= 0.0)
        assert crosses or np.abs(residuals).min() < 1e-6


def test_integration_error_carries_state(model):
    class Boom(Exception):
        pass

    def exploding(x, u):
        raise Boom("rhs failure")

    import dataclasses
    bad_model = dataclasses.replace(model, rhs=exploding)
    box = make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(Boom):
        integrate_until_trigger(
            make_state(90.0, 15.0), 0.0, box, 0.0, 1.0, bad_model, CFG
        )
