"""Segment integration, trigger location, Taylor mean-value property."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp
from scipy.optimize import brentq

import atlc.sim as sim

from atlc import (
    IntegrationError,
    IntegratorConfig,
    Segment,
    acc_dynamics_rhs,
    integrate_until_trigger,
    make_box,
    make_state,
    resistance_force,
)
from atlc.robust_bounds import taylor_table
from atlc.sim import _brent, _dense_times, integrate_fixed_horizon

from conftest import rk4_step

CFG = IntegratorConfig()
EPS = float(np.finfo(float).eps)


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


def solve_ivp_segment(x_k, u, box, t_start, t_horizon, model, cfg):
    """The segment as scipy's RK45 driver integrates it, with one terminal
    event per box face, and the driver's rhs call count."""
    x_k = np.asarray(x_k, dtype=float)
    events = []
    for i in range(box.lower.size):
        def upper_exit(t, y, i=i):
            return y[i] - box.upper[i]

        def lower_exit(t, y, i=i):
            return y[i] - box.lower[i]

        upper_exit.terminal = lower_exit.terminal = True
        upper_exit.direction, lower_exit.direction = 1.0, -1.0
        events.extend([upper_exit, lower_exit])
    sol = solve_ivp(
        lambda t, y: model.rhs(y, u), (t_start, t_horizon), x_k, method="RK45",
        rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step,
        dense_output=True, events=events,
    )
    if sol.status == -1:
        raise IntegrationError(sol.message, float(sol.t[-1]), sol.y[:, -1])
    if sol.status == 1:
        t_end, face = min((te[0], j) for j, te in enumerate(sol.t_events) if te.size)
        t_end, reason = float(t_end), "trigger"
        x_end = sol.y_events[face][0]
    else:
        t_end, reason = t_horizon, "horizon_end"
        x_end = sol.y[:, -1]
    times = _dense_times(t_start, t_end)
    if times.size == 1:
        states = np.asarray(x_end, dtype=float)[None, :].copy()
    else:
        states = sol.sol(times).T
        states[0] = x_k
        states[-1] = x_end
    segment = Segment(t_start, t_end, times, states, reason)
    return segment, sol.nfev


def counting(model):
    """The model with an rhs that appends to the returned list per call."""
    calls = []

    def rhs(x, u):
        calls.append(None)
        return model.rhs(x, u)

    return dataclasses.replace(model, rhs=rhs), calls


def test_config_validation():
    eps = np.finfo(float).eps
    for bad in (
        dict(rel_tol=0.0), dict(max_step=-1.0), dict(rel_tol=float("nan")),
        dict(abs_tol=float("inf")), dict(max_step=float("inf")),
        dict(trigger_bisection_tol=float("nan")), dict(rel_tol=1e-15),
        dict(rel_tol=99 * eps),
    ):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)
    IntegratorConfig(rel_tol=100 * eps)


def _segment_cases(params, starts, count):
    """Seeded segments: starts drawn by ``starts(rng)``, inputs over
    [u_min, u_max], box radii (one axis of radius zero in some), start
    times, horizons shorter than max_step and ones that end before any
    exit."""
    rng = np.random.default_rng(2024)
    cases = []
    for k in range(count):
        x0 = starts(rng)
        u = float(rng.uniform(params.u_min, params.u_max))
        radii = rng.uniform(0.02, 1.5, size=2)
        if k % 6 == 0:
            radii[k // 6 % 2] = 0.0
        t0 = float(rng.uniform(0.0, 30.0)) if k % 2 else 0.0
        span = [rng.uniform(0.001, CFG.max_step), 0.3, 30.0][k % 3]
        cases.append((x0, u, make_box(x0, radii, radii), t0, t0 + span))
    return cases


def _case_study_cases(model, params):
    """Starts over the case study's gaps and speeds, and on a face with
    outward or inward flow."""
    cases = _segment_cases(params, lambda rng: make_state(
        rng.uniform(12.0, 120.0), rng.uniform(2.0, 30.0)), 64)
    x0 = make_state(90.0, 15.0)
    for side in (1.0, -1.0):  # gap shrinks: lower face outward, upper inward
        box = make_box(x0 + side * np.array([0.5, 0.0]), [0.5, 0.4], [0.5, 0.4])
        cases.append((x0, 0.0, box, 0.0, 5.0))
    return model, cases


def _oscillator_cases(model, params):
    """A damped oscillator near the origin.  The case-study dynamics
    absorb most last-bit differences of a stage (the state is large against
    its increments, and the force terms against the speed's), so a
    reordered sum rarely shows there; here it does."""
    J = np.array([[-0.31, 1.7], [-2.13, -0.42]])
    gain = np.array([0.0, 1e-4])
    oscillator = dataclasses.replace(model, rhs=lambda x, u: J @ x + gain * u)
    return oscillator, _segment_cases(
        params, lambda rng: rng.uniform(-2.0, 2.0, size=2), 64)


@pytest.mark.parametrize("max_step", [0.003, 0.01, 0.05])
@pytest.mark.parametrize(
    "system", [_case_study_cases, _oscillator_cases], ids=["case_study", "oscillator"]
)
def test_segments_match_solve_ivp_bit_for_bit(system, max_step, model, params):
    """Also with steps longer and shorter than the log spacing, so that a
    step holds several dense samples or none."""
    model, cases = system(model, params)
    cfg = dataclasses.replace(CFG, max_step=max_step)
    reasons = set()
    for x0, u, box, t0, t1 in cases:
        counted, calls = counting(model)
        seg = integrate_until_trigger(x0, u, box, t0, t1, counted, cfg)
        ref, nfev = solve_ivp_segment(x0, u, box, t0, t1, model, cfg)
        for field in dataclasses.fields(Segment):
            got, want = getattr(seg, field.name), getattr(ref, field.name)
            assert np.array_equal(got, want), (field.name, got, want)
        assert type(seg.t_end) is type(ref.t_end)
        assert len(calls) == nfev
        reasons.add((seg.exit_reason, seg.times.size == 1))
    # exits through a face, at the horizon end and at the start instant
    assert reasons == {("trigger", False), ("horizon_end", False), ("trigger", True)}


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
    # the gap coordinate crosses first, onto the box's lower gap face
    assert seg.states[-1, 0] == box.lower[0] == 89.5

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
        distance = np.minimum(np.abs(end - box.lower), np.abs(box.upper - end))
        assert distance.min() <= 1e-6


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


def allocating_rk4(x0, u, horizon, model, dt=sim.DENSE_DT):
    """The rollout as plain array expressions, one new array per operation:
    the reference for the in-place steps of integrate_fixed_horizon."""
    inputs = np.asarray(u, dtype=float)
    times = _dense_times(0.0, horizon, dt)
    states = np.empty((times.size, *inputs.shape, x0.size))
    states[0] = x0
    x = states[0]
    for i, h in enumerate(np.diff(times).tolist(), start=1):
        k1 = model.rhs(x, inputs)
        k2 = model.rhs(x + 0.5 * h * k1, inputs)
        k3 = model.rhs(x + 0.5 * h * k2, inputs)
        k4 = model.rhs(x + h * k3, inputs)
        x = states[i] = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return times, states


@pytest.mark.parametrize("system", ["case_study", "sign_gain"])
def test_rollout_equals_allocating_rk4_bit_for_bit(system, model, sign_gain_model,
                                                   params):
    """One input (a float or a 0-d array) or a (K,) batch, at the dense
    spacing and at tau/400, braking through v = 0 included: the in-place
    rollout equals the allocating expressions bit for bit."""
    m = sign_gain_model if system == "sign_gain" else model
    rng = np.random.default_rng(41)
    speeds = np.concatenate([rng.uniform(0.2, 3.0, 2), rng.uniform(3.0, 30.0, 4)])
    through_zero = 0
    for v0 in speeds:
        x0 = np.array([rng.uniform(11.0, 60.0), v0])
        batch = rng.uniform(params.u_min, params.u_max, int(rng.integers(2, 13)))
        batch[0] = params.u_min
        tau = rng.uniform(0.05, 2.0)
        for u in (float(batch[0]), np.array(batch[1]), batch):
            for horizon, dt in ((1.0, sim.DENSE_DT), (tau, tau / 400.0)):
                times, states = integrate_fixed_horizon(x0, u, horizon, m, dt=dt)
                ref_times, ref_states = allocating_rk4(x0, u, horizon, m, dt=dt)
                assert times.tobytes() == ref_times.tobytes()
                assert states.shape == ref_states.shape
                assert states.tobytes() == ref_states.tobytes()
                through_zero += bool((states[..., 1] < 0.0).any())
    assert through_zero >= 4


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
        w = taylor_table([tau], model.m)[0]
        lead = stack0[0] * w[0] + stack0[1] * w[1]

        inner = states[1:-1]
        stacks = model.lie_stack(inner)
        phis = model.phi(inner)
        residuals = lead + (stacks[:, 2] + phis * u) * w[2] - h_end
        crosses = np.any(residuals[:-1] * residuals[1:] <= 0.0)
        assert crosses or np.abs(residuals).min() < 1e-6


def test_integration_error_carries_state(model):
    """A stiff rhs drives the step below the spacing of floats at t = 1:
    the error carries the last accepted time and state, the start."""
    stiff = dataclasses.replace(model, rhs=lambda x, u: 1e20 * x)
    x0 = make_state(90.0, 15.0)
    box = make_box(x0, [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(IntegrationError) as caught:
        integrate_until_trigger(x0, 0.0, box, 1.0, 2.0, stiff, CFG)
    with pytest.raises(IntegrationError) as reference:
        solve_ivp_segment(x0, 0.0, box, 1.0, 2.0, stiff, CFG)
    error = caught.value
    assert str(error) == str(reference.value)
    assert "step size is less than spacing" in str(error)
    assert error.t_last == 1.0
    assert np.array_equal(error.x_last, x0)


def test_nan_rhs_raises_integration_error(model):
    """A NaN derivative is refused at the segment start instead of making
    every error estimate NaN and the step shrink forever."""
    nan_model = dataclasses.replace(model, rhs=lambda x, u: np.array([np.nan, 1.0]))
    x0 = make_state(90.0, 15.0)
    box = make_box(x0, [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(IntegrationError) as caught:
        integrate_until_trigger(x0, 0.0, box, 2.0, 3.0, nan_model, CFG)
    assert caught.value.t_last == 2.0
    assert np.array_equal(caught.value.x_last, x0)


def test_infinite_start_derivative_raises_integration_error(model):
    """An infinite derivative at the segment start is refused before any
    arithmetic on it: an IntegrationError at the start, with no warning."""
    inf_model = dataclasses.replace(model, rhs=lambda x, u: np.array([np.inf, 0.0]))
    x0 = make_state(90.0, 15.0)
    box = make_box(x0, [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(IntegrationError, match="not finite") as caught:
        integrate_until_trigger(x0, 0.0, box, 2.0, 3.0, inf_model, CFG)
    assert caught.value.t_last == 2.0
    assert np.array_equal(caught.value.x_last, x0)


def test_overflowing_start_derivative_raises_integration_error(model):
    """A finite derivative whose scaled norm overflows gives a first step
    of zero: an IntegrationError at the start, not a ZeroDivisionError, and
    no numpy warning."""
    big_model = dataclasses.replace(model, rhs=lambda x, u: np.array([1e300, 0.0]))
    x0 = make_state(90.0, 15.0)
    box = make_box(x0, [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(IntegrationError, match="not positive") as caught:
        integrate_until_trigger(x0, 0.0, box, 2.0, 3.0, big_model, CFG)
    assert caught.value.t_last == 2.0
    assert np.array_equal(caught.value.x_last, x0)


def test_rhs_exception_propagates(model):
    class Boom(Exception):
        pass

    def exploding(x, u):
        raise Boom("rhs failure")

    bad_model = dataclasses.replace(model, rhs=exploding)
    box = make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(Boom):
        integrate_until_trigger(
            make_state(90.0, 15.0), 0.0, box, 0.0, 1.0, bad_model, CFG
        )


def test_tableau_equals_scipy_rk45():
    """The in-tree Dormand-Prince tableau is scipy's, float for float."""
    assert sim._N_STAGES == RK45.n_stages == 6
    assert sim._ORDER == RK45.error_estimator_order == 4
    assert len(sim._A_ROWS) == RK45.n_stages - 1
    for s, row in enumerate(sim._A_ROWS, start=1):
        assert np.array_equal(row, RK45.A[s, :s]), s
    for mine, theirs in ((sim._B, RK45.B), (sim._E, RK45.E), (sim._P, RK45.P)):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def brent_run(solve, f, a, b, xtol=4 * EPS, rtol=4 * EPS, maxiter=100):
    """Where ``solve`` evaluates f, in order, and how it ends: (root, True),
    or (the iterate where it gave up, False)."""
    calls = []

    def traced(x):
        calls.append(x)
        return f(x)

    if solve is brentq:
        root, result = brentq(traced, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter,
                              full_output=True, disp=False)
        return calls, (root, result.converged)
    try:
        return calls, (_brent(traced, a, b, xtol, rtol, maxiter), True)
    except IntegrationError as exc:
        return calls, (exc.t_last, False)


def _bracket_cases(count):
    """Seeded functions with a sign change over [a, b]: quartics, odd
    powers whose flat roots stall the iteration, exponentials, cubics
    whose extrapolation denominators underflow, and staircases on dyadic
    brackets, whose equal values and exact halvings meet ties in the
    comparisons."""
    rng = np.random.default_rng(951)
    families = [
        lambda r, s: lambda x: float(np.polyval(np.multiply(r, s), x)),
        lambda r, s: lambda x: (x - r[0]) * abs(x - r[0]) ** (2.0 + 10.0 * r[1] ** 2),
        lambda r, s: lambda x: math.expm1(s[0] * (x - r[0])),
        lambda r, s: lambda x: (x - r[0]) ** 3 + 1e-12 * s[0] * (x - r[0]),
        lambda r, s: lambda x: math.floor(2.0 * (x - r[0])) + 0.5,
    ]
    cases = []
    while len(cases) < count:
        r = rng.normal(size=5).tolist()
        s = (10.0 ** rng.uniform(0.0, 2.0, size=5)).tolist()
        kind = len(cases) % len(families)
        f = families[kind](r, s)
        a, b = rng.uniform(-3.0, 3.0, size=2).tolist()
        if kind == len(families) - 1:
            a, b = round(8 * a) / 8, round(8 * b) / 8
        if math.copysign(1.0, f(a)) != math.copysign(1.0, f(b)):
            cases.append((f, a, b))
    return cases


def test_brent_matches_brentq_on_seeded_brackets():
    """Every evaluation point and the result equal scipy's, whether it
    converges or runs out of iterations, under the trigger's tolerances
    and looser ones."""
    outcomes = set()
    for k, (f, a, b) in enumerate(_bracket_cases(600)):
        xtol = [4 * EPS, 2.0 ** -20][k % 10 // 5]
        mine = brent_run(_brent, f, a, b, xtol)
        assert mine == brent_run(brentq, f, a, b, xtol), (k, a, b)
        assert type(mine[1][0]) is float
        outcomes.add(mine[1][1])
    assert outcomes == {True, False}


def test_brent_matches_brentq_on_crossing_steps(model, params, monkeypatch):
    """The root searches that the case-study segments make, each on the
    interpolant of its crossing step."""
    searches = []
    root = sim._root

    def recording(step, i, bound):
        searches.append((step, i, bound))
        return root(step, i, bound)

    monkeypatch.setattr(sim, "_root", recording)
    for x0, u, box, t0, t1 in _case_study_cases(model, params)[1]:
        integrate_until_trigger(x0, u, box, t0, t1, model, CFG)
    assert len(searches) > 30
    for step, i, bound in searches:
        f = lambda t: float(step.at(t)[i]) - bound
        want = brent_run(brentq, f, step.t_old, step.t_new)
        assert brent_run(_brent, f, step.t_old, step.t_new) == want


def test_brent_root_at_an_endpoint():
    for a, b in ((0.5, 2.0), (-1.0, 0.5)):
        f = lambda x: x - 0.5
        assert _brent(f, a, b, 4 * EPS, 4 * EPS) == 0.5
        assert brentq(f, a, b, xtol=4 * EPS, rtol=4 * EPS) == 0.5
    # a negative zero counts as a root, not as a sign
    assert _brent(lambda x: -0.0 if x == 1.0 else 1.0, 1.0, 2.0, 4 * EPS, 4 * EPS) == 1.0


def test_brent_half_bracket_equal_to_tolerance_is_not_converged():
    """At x = 0 the half bracket 2^-21 equals (xtol + rtol |x|) / 2: the
    stop test is strict, so one more evaluation follows, as in scipy."""
    f = lambda x: 3.0 * x * 2.0 ** 20 - 1.0
    a, b, xtol = 0.0, 2.0 ** -20, 2.0 ** -20
    calls, result = brent_run(_brent, f, a, b, xtol)
    assert len(calls) == 3 and result[0] != a
    assert (calls, result) == brent_run(brentq, f, a, b, xtol)


def test_brent_rejects_same_sign_ends():
    with pytest.raises(ValueError, match="different signs"):
        _brent(lambda x: x * x + 1.0, -1.0, 2.0, 4 * EPS, 4 * EPS)
    with pytest.raises(ValueError):
        brentq(lambda x: x * x + 1.0, -1.0, 2.0)


def test_brent_nan_value_raises_integration_error():
    """The first trial point falls where f is not a number."""
    f = lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5
    with pytest.raises(IntegrationError, match="not a number") as caught:
        _brent(f, -1.0, 2.0, 4 * EPS, 4 * EPS)
    assert 0.0 < caught.value.t_last < 1.0
    assert np.isnan(caught.value.x_last).all()
    with pytest.raises(IntegrationError):
        _brent(lambda x: math.nan, -1.0, 2.0, 4 * EPS, 4 * EPS)


def test_brent_nonconvergence_raises_integration_error():
    """A jump has no root; each budget ends where scipy's ends."""
    f = lambda x: 1.0 if x > 0.3 else -1.0
    for maxiter in (1, 3, 10):
        with pytest.raises(IntegrationError, match="did not converge"):
            _brent(f, 0.0, 1.0, 4 * EPS, 4 * EPS, maxiter)
        assert brent_run(_brent, f, 0.0, 1.0, maxiter=maxiter) == brent_run(
            brentq, f, 0.0, 1.0, maxiter=maxiter)
