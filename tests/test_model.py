"""Car-following model: analytic values, derivative exactness, invariants."""

import dataclasses
import warnings

import numpy as np
import pytest

from atlc import (
    AccParams,
    SystemModel,
    acc_clf_terms,
    acc_dynamics_rhs,
    acc_lie_stack,
    acc_model,
    make_state,
    resistance_force,
)

from conftest import rk4_flow


def test_resistance_force_values(params):
    assert resistance_force(15.0, params) == pytest.approx(131.35, abs=1e-12)
    assert resistance_force(0.0, params) == 0.0
    assert resistance_force(14.5, params) == pytest.approx(125.1625, abs=1e-12)


def test_dynamics_rhs_values(params):
    x = make_state(90.0, 15.0)
    rhs = acc_dynamics_rhs(x, 0.0, params)
    assert rhs == pytest.approx([-1.11, -0.0796060606060606], abs=1e-12)
    rhs = acc_dynamics_rhs(x, 6474.6, params)
    assert rhs == pytest.approx([-1.11, 3.8443939393939394], abs=1e-12)


def test_dynamics_equilibrium(params):
    x = make_state(40.0, params.vp)
    rhs = acc_dynamics_rhs(x, resistance_force(params.vp, params), params)
    assert rhs == pytest.approx([0.0, 0.0], abs=1e-15)


def test_lie_stack_values(params):
    h, lfh, lf2h, lglfh = acc_lie_stack(make_state(90.0, 15.0), params)
    assert (h, lfh) == (80.0, pytest.approx(-1.11))
    assert lf2h == pytest.approx(0.0796060606060606, abs=1e-15)
    assert lglfh == pytest.approx(-6.060606060606061e-4, abs=1e-18)

    h, lfh, lf2h, lglfh = acc_lie_stack(make_state(params.lp, params.vp), params)
    assert h == 0.0 and lfh == 0.0
    assert lf2h == pytest.approx(resistance_force(params.vp, params) / params.M)
    assert lglfh == -1.0 / params.M

    h, lfh, lf2h, _ = acc_lie_stack(make_state(90.0, 14.5), params)
    assert (h, lfh) == (80.0, pytest.approx(-0.61))
    assert lf2h == pytest.approx(0.07585606060606061, abs=1e-15)


def test_clf_terms_quadratic(params):
    V, lfV, lgV = acc_clf_terms(make_state(90.0, 15.0), params)
    assert V == 81.0
    assert lfV == pytest.approx(1.4329090909090908, abs=1e-12)
    assert lgV == pytest.approx(-0.010909090909090908, abs=1e-15)

    V, lfV, lgV = acc_clf_terms(make_state(50.0, params.vd), params)
    assert (V, lfV, lgV) == (0.0, pytest.approx(0.0, abs=1e-15), 0.0)

    # F_r(25) = 281.35
    V, lfV, lgV = acc_clf_terms(make_state(90.0, 25.0), params)
    assert V == 1.0
    assert lfV == pytest.approx(-2.0 * 281.35 / 1650.0, abs=1e-12)
    assert lgV == pytest.approx(2.0 / 1650.0, abs=1e-15)


def test_clf_terms_linear(params):
    V, lfV, lgV = acc_clf_terms(make_state(90.0, 15.0), params, form="linear")
    assert V == -9.0
    assert lfV == pytest.approx(-131.35 / 1650.0)
    assert lgV == pytest.approx(1.0 / 1650.0)
    with pytest.raises(ValueError):
        acc_clf_terms(make_state(90.0, 15.0), params, form="cubic")


def test_clf_terms_match_finite_difference(params):
    """dV/dt along the uncontrolled flow equals L_f V."""
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(50):
        x = np.array([rng.uniform(11, 120), rng.uniform(1, 30)])
        V0, lfV, _ = acc_clf_terms(x, params)
        x1 = rk4_flow(lambda s: acc_dynamics_rhs(s, 0.0, params), x, eps, eps)
        V1 = acc_clf_terms(x1, params)[0]
        assert (V1 - V0) / eps == pytest.approx(lfV, rel=1e-4, abs=1e-8)


def test_first_lie_derivative_matches_flow(params):
    """L_f h equals the flow derivative of h under u = 0."""
    rng = np.random.default_rng(1)
    eps = 1e-5
    for _ in range(100):
        x = np.array([rng.uniform(10.5, 150), rng.uniform(0.5, 35)])
        h0, lfh, _, _ = acc_lie_stack(x, params)
        x1 = rk4_flow(lambda s: acc_dynamics_rhs(s, 0.0, params), x, eps, eps)
        h1 = acc_lie_stack(x1, params)[0]
        fd = (h1 - h0) / eps
        assert fd == pytest.approx(lfh, rel=1e-3, abs=1e-9)


def test_second_derivative_matches_flow(params):
    """L_f^2 h + L_g L_f h u equals the second flow derivative of h under
    constant u."""
    rng = np.random.default_rng(2)
    eps = 1e-4
    for _ in range(100):
        x = np.array([rng.uniform(10.5, 150), rng.uniform(2.0, 35)])
        u = rng.uniform(params.u_min, params.u_max)
        _, _, lf2h, lglfh = acc_lie_stack(x, params)
        analytic = lf2h + lglfh * u
        f = lambda s: acc_dynamics_rhs(s, u, params)
        h_plus = acc_lie_stack(rk4_flow(f, x, eps, eps / 4), params)[0]
        h_minus = acc_lie_stack(rk4_flow(lambda s: -f(s), x, eps, eps / 4), params)[0]
        h0 = acc_lie_stack(x, params)[0]
        fd = (h_plus - 2 * h0 + h_minus) / eps**2
        assert fd == pytest.approx(analytic, rel=1e-3, abs=1e-6)


def test_rhs_affine_in_input(params):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = np.array([rng.uniform(10, 150), rng.uniform(1, 35)])
        u1, u2 = rng.uniform(-2e4, 2e4, 2)
        alpha = rng.uniform(0, 1)
        mixed = acc_dynamics_rhs(x, alpha * u1 + (1 - alpha) * u2, params)
        combo = alpha * acc_dynamics_rhs(x, u1, params) \
            + (1 - alpha) * acc_dynamics_rhs(x, u2, params)
        np.testing.assert_allclose(mixed, combo, rtol=0, atol=1e-12)


def test_make_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        make_state(np.nan, 10.0)
    with pytest.raises(ValueError):
        make_state(10.0, np.inf)


def test_acc_params_invariants():
    with pytest.raises(ValueError):
        AccParams(cd=0.0)
    with pytest.raises(ValueError):
        AccParams(M=-1.0)
    with pytest.raises(ValueError):
        AccParams(f1=-0.5)
    p = AccParams(cd=0.4, ca=0.4)
    assert p.u_min == pytest.approx(-6474.6)
    assert p.u_max == pytest.approx(6474.6)


def test_system_model_invariants(params):
    m = acc_model(params)
    assert (m.n, m.m) == (2, 2)
    assert m.fallback == m.u_min  # maximum braking
    assert all(type(value) is float for value in (m.u_min, m.u_max, m.fallback))
    fields = dict(n=2, m=2, rhs=m.rhs, lie_stack=m.lie_stack, phi=m.phi,
                  clf_terms=m.clf_terms, u_min=m.u_min, u_max=m.u_max,
                  cost=m.cost, fallback=m.fallback)
    coasting = SystemModel(**{**fields, "fallback": np.float64(0.0)}).fallback
    assert type(coasting) is float and coasting == 0.0
    for bad in ({"m": 0}, {"u_min": 1.0, "u_max": -1.0},
                {"fallback": m.u_max + 1.0}, {"fallback": np.nan},
                {"u_min": -np.inf}, {"u_max": np.nan}):
        with pytest.raises(ValueError):
            SystemModel(**{**fields, **bad})


def test_system_model_takes_one_input(params):
    """An input bound or fallback that is not one float is a ValueError at
    construction that names the one input, not a numpy deprecation warning
    or a TypeError: the QP solver and the event record take one input."""
    m = acc_model(params)
    for name in ("u_min", "u_max", "fallback"):
        value = getattr(m, name)
        for bad in (np.array([value]), [value], np.full(2, value), np.empty(0),
                    [[value]]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="one input"):
                    dataclasses.replace(m, **{name: bad})


@pytest.mark.parametrize("name", ["quadratic", "linear", "sign_gain"])
def test_evaluators_broadcast_bit_for_bit(params, sign_gain_model, name):
    """Every evaluator on an (S, K, n) batch, and rhs with (S, K) inputs,
    equals its per-state calls bit for bit, also at v = 0, v = -0, v < 0,
    a NaN speed, subnormal speeds and huge finite ones."""
    m = sign_gain_model if name == "sign_gain" else acc_model(params, name)
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.uniform(10, 150, 64), rng.uniform(1, 35, 64)])
    special = [[40.0, 0.0], [40.0, -1.5], [40.0, -0.0], [40.0, np.nan],
               [40.0, 5e-324], [40.0, -5e-324], [40.0, 1e100], [40.0, -1e100]]
    states = np.vstack([pts, special]).reshape(6, 12, 2)
    inputs = rng.uniform(params.u_min, params.u_max, (6, 12))
    V, lfV, lgV = m.clf_terms(states)
    batches = {"lie_stack": m.lie_stack(states), "phi": m.phi(states),
               "rhs": m.rhs(states, inputs), "V": V, "L_f V": lfV, "L_g V": lgV}
    for index in np.ndindex(states.shape[:-1]):
        x = states[index]
        V, lfV, lgV = m.clf_terms(x)
        single = {"lie_stack": m.lie_stack(x), "phi": m.phi(x),
                  "rhs": m.rhs(x, inputs[index]), "V": V, "L_f V": lfV, "L_g V": lgV}
        for key, value in single.items():
            found = np.asarray(batches[key][index])
            assert found.shape == np.shape(value), key
            assert found.tobytes() == np.asarray(value).tobytes(), key
    # the lattice bounds take stack @ weights, whose rounding follows the layout
    assert batches["lie_stack"].flags.c_contiguous
    # one state: a Python float and a 0-d input give the same bytes
    for x, u in zip(states.reshape(-1, 2), inputs.reshape(-1).tolist()):
        rates = {m.rhs(x, v).tobytes() for v in (u, np.array(u))}
        assert len(rates) == 1
