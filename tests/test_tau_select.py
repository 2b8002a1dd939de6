"""Time-scale selection: argmax semantics, determinism, scripted cross-check."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from atlc import (
    AccParams,
    ControllerConfig,
    TauSelectConfig,
    acc_dynamics_rhs,
    acc_model,
    make_box,
    make_state,
    rollout_min_h,
    select_tau,
    solve_qp,
)
from atlc.constraints import atlc_rows, build_clf_row, build_qp_instance
from atlc.margin import margin_from_stack
from atlc.robust_bounds import h_ratlc_from_stack, stack_on_grid
from atlc.sim import integrate_fixed_horizon
from atlc.tau_select import candidate_taus

from conftest import rk4_flow


def config(**tau_cfg) -> ControllerConfig:
    """Case-study controller config with the given time-scale settings."""
    return ControllerConfig(tau_cfg=TauSelectConfig(**tau_cfg))


def scripted_selection(x, box, cfg, model):
    """Independent re-implementation of the rollout selection loop built
    from the public row/QP/rollout operations."""
    gs = stack_on_grid(box, model, cfg.bound_cfg)
    clf = build_clf_row(x, cfg.params.c3, model)
    best_tau, best_u, best_pred = None, None, -math.inf
    table = []
    for tau in candidate_taus(cfg.tau_cfg):
        ((row, _, _),) = atlc_rows(gs, tau, model)  # constant gain: one row
        inst = build_qp_instance(
            [row, clf], model, cfg.objective, x=x, params=cfg.params
        )
        sol = solve_qp(inst)
        if sol.status != "optimal":
            table.append((float(tau), -math.inf))
            continue
        pred = rollout_min_h(x, sol.values[:1], cfg.tau_cfg.T_look, model)
        table.append((float(tau), pred))
        if pred > best_pred:
            best_tau, best_u, best_pred = float(tau), sol.values[:1], pred
    return best_tau, best_u, table


def test_config_validation():
    with pytest.raises(ValueError):
        TauSelectConfig(tau_min=0.0)
    with pytest.raises(ValueError):
        TauSelectConfig(tau_min=2.0, tau_max=1.0)
    with pytest.raises(ValueError):
        TauSelectConfig(n_candidates=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            TauSelectConfig(tau_max=bad)
        with pytest.raises(ValueError):
            TauSelectConfig(T_look=bad)


def test_candidate_grids():
    lin = candidate_taus(TauSelectConfig(n_candidates=40))
    assert lin.shape == (40,)
    assert lin[0] == 0.05 and lin[-1] == 2.0
    np.testing.assert_allclose(np.diff(lin), np.diff(lin)[0], rtol=1e-9)

    single = candidate_taus(TauSelectConfig(n_candidates=1, tau_min=0.3, tau_max=0.9))
    np.testing.assert_array_equal(single, [0.3])


def test_rollout_equilibrium_holds_h(model, params):
    from atlc import resistance_force

    x = make_state(11.0, params.vp)
    u = resistance_force(params.vp, params)
    value = rollout_min_h(x, u, 1.0, model)
    assert value == pytest.approx(1.0, abs=1e-8)


def test_rollout_matches_reference(model, params):
    """Coasting from (90, 15): h shrinks monotonically, so the rollout
    minimum is the endpoint value from the fixed-step reference."""
    from atlc import acc_dynamics_rhs

    x = make_state(90.0, 15.0)
    value = rollout_min_h(x, 0.0, 1.0, model)
    x_end = rk4_flow(lambda s: acc_dynamics_rhs(s, 0.0, params), x, 1.0, 1e-4)
    assert value == pytest.approx(x_end[0] - params.lp, abs=1e-7)
    assert value < 79.0


def test_rollout_tiny_horizon(model):
    x = make_state(37.0, 22.0)
    assert rollout_min_h(x, 0.0, 1e-9, model) == pytest.approx(
        27.0, abs=1e-7
    )


def test_single_candidate_returned(model):
    x = make_state(90.0, 15.0)
    box = make_box(x, [0.5, 0.5], [0.5, 0.5])
    cfg = config(tau_min=0.7, tau_max=0.7, n_candidates=1)
    decision = select_tau(x, box, cfg, model)
    assert decision.status == "optimal"
    assert decision.tau == 0.7
    assert len(decision.table) == 1


def test_infeasible_candidate_loses(model):
    """Near the boundary with closing speed, large time scales are
    infeasible while small ones are not; the feasible one must win."""
    x = make_state(12.0, 24.0)
    box = make_box(x, [0.5, 0.5], [0.5, 0.5])
    cfg = config(tau_min=0.1, tau_max=2.0, n_candidates=2)
    gs = stack_on_grid(box, model, cfg.bound_cfg)
    assert margin_from_stack(gs, 0.1, model) >= 0.0
    assert margin_from_stack(gs, 2.0, model) < 0.0

    decision = select_tau(x, box, cfg, model)
    assert decision.status == "optimal"
    assert decision.tau == 0.1
    flags = [entry.feasible for entry in decision.table]
    assert flags == [True, False]
    assert decision.table[1].min_h_pred == -math.inf


def test_all_infeasible_reported(model):
    x = make_state(10.2, 24.0)
    box = make_box(x, [0.5, 0.5], [0.5, 0.5])
    cfg = config()
    gs = stack_on_grid(box, model, cfg.bound_cfg)
    taus = candidate_taus(cfg.tau_cfg)
    assert all(margin_from_stack(gs, t, model) < 0.0 for t in taus)

    decision = select_tau(x, box, cfg, model)
    assert decision.status == "infeasible"
    assert decision.tau is None and decision.u is None
    assert all(e.min_h_pred == -math.inf for e in decision.table)


@pytest.mark.parametrize("z, v", [(49.8, 15.0), (50.2, 20.0), (60.0, 15.0)])
def test_selection_with_sign_changing_gain(sign_gain_model, z, v):
    """With one QP per input-sign orthant the decision is feasible, meets
    the robust condition, and logs the margin at its time scale."""
    model = sign_gain_model
    x = make_state(z, v)
    box = make_box(x, [0.5, 0.5], [0.5, 0.5])
    decision = select_tau(x, box, config(), model)
    assert decision.status == "optimal"
    gs = stack_on_grid(box, model, config().bound_cfg)
    assert decision.margin == margin_from_stack(gs, decision.tau, model)
    worst = h_ratlc_from_stack(gs, decision.tau) + decision.tau**2 / 2 * float(
        (gs.phi[:, 0] * decision.u[0]).min()
    )
    assert worst >= -1e-9


def near_limit_states(n, seed=8):
    """Seeded fast approaches whose gap falls short of the braking distance
    by up to 10%, plus 1.5-2.5 m, at 0.35-0.5 g braking: many distinct
    candidate inputs, and the large time scales infeasible."""
    p = AccParams()
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        v0 = rng.uniform(20.0, 26.0)
        cd = rng.uniform(0.35, 0.5)
        braking = (v0 - p.vp) ** 2 / (2.0 * cd * p.g_grav)
        z0 = p.lp + 0.9 * braking + rng.uniform(1.5, 2.5)
        cases.append((make_state(z0, v0), AccParams(cd=cd)))
    return cases


def test_matches_scripted_reimplementation():
    """The batched selection agrees with an independent scripted loop that
    solves and rolls out one candidate at a time: at (90, 15) with the
    default config, where every candidate is feasible and the smallest
    maximizing time scale wins ties, and at seeded near-limit states with
    many distinct inputs and infeasible candidates."""
    cases = [(make_state(90.0, 15.0), AccParams())] + near_limit_states(6)
    distinct, infeasible = [], 0
    for i, (x, params) in enumerate(cases):
        cfg = ControllerConfig(params=params)
        case_model = acc_model(params)
        box = make_box(x, [0.5, 0.5], [0.5, 0.5])
        decision = select_tau(x, box, cfg, case_model)

        sc_tau, sc_u, sc_table = scripted_selection(x, box, cfg, case_model)
        assert decision.tau == sc_tau
        np.testing.assert_allclose(decision.u, sc_u, rtol=0, atol=1e-12)
        for entry, (tau, pred) in zip(decision.table, sc_table):
            assert entry.tau == pytest.approx(tau)
            assert entry.feasible == math.isfinite(pred)
            if math.isfinite(pred):
                assert entry.min_h_pred == pytest.approx(pred, abs=1e-9)
        distinct.append(len({e.u.tobytes() for e in decision.table if e.feasible}))
        infeasible += sum(not e.feasible for e in decision.table)

        if i == 0:
            assert all(e.feasible for e in decision.table)
            preds = [e.min_h_pred for e in decision.table if e.feasible]
            best = max(preds)
            first_best = next(e.tau for e in decision.table
                              if e.feasible and e.min_h_pred == best)
            assert decision.tau == first_best
    assert max(distinct[1:]) >= 10 and infeasible > 0


def test_batched_rollout_equals_single_rollouts(model, params):
    """Rolling K inputs out together gives exactly the K single rollouts."""
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = np.array([rng.uniform(11.0, 60.0), rng.uniform(0.5, 30.0)])
        inputs = rng.uniform(params.u_min, params.u_max, (int(rng.integers(1, 20)), 1))
        batch = rollout_min_h(x, inputs, 1.0, model)
        assert batch.shape == (inputs.shape[0],)
        singles = [rollout_min_h(x, u, 1.0, model) for u in inputs]
        assert all(isinstance(value, float) for value in singles)
        np.testing.assert_array_equal(batch, singles)
    with pytest.raises(ValueError):  # K inputs passed as one q-vector
        rollout_min_h(x, np.zeros(3), 1.0, model)


def test_rollout_matches_rk45_reference(model, params):
    """Fixed-step RK4 rollouts agree with a tight adaptive RK45 reference
    within 1e-9, also when braking drives the speed through the f0*sgn(v)
    jump at v = 0."""
    rng = np.random.default_rng(21)
    cases = [(np.array([rng.uniform(11.0, 60.0), rng.uniform(0.5, 30.0)]),
              rng.uniform(params.u_min, params.u_max)) for _ in range(20)]
    cases += [(np.array([rng.uniform(11.0, 60.0), rng.uniform(0.5, 3.0)]),
               params.u_min) for _ in range(5)]
    through_zero = 0
    for x, u in cases:
        times, _ = integrate_fixed_horizon(x, u, 1.0, model)
        ref = solve_ivp(lambda t, y: acc_dynamics_rhs(y, u, params), (0.0, 1.0), x,
                        method="RK45", rtol=1e-12, atol=1e-12, t_eval=times)
        through_zero += ref.y[1].min() < 0.0 < x[1]
        expected = float((ref.y[0] - params.lp).min())
        assert rollout_min_h(x, u, 1.0, model) == pytest.approx(expected, abs=1e-9)
    assert through_zero >= 5


def test_selection_optimality(model):
    x = make_state(14.0, 18.0)
    box = make_box(x, [0.5, 0.5], [0.5, 0.5])
    decision = select_tau(x, box, config(), model)
    assert decision.status == "optimal"
    chosen = next(e for e in decision.table if e.tau == decision.tau)
    for entry in decision.table:
        if entry.feasible:
            assert chosen.min_h_pred >= entry.min_h_pred


def test_recursive_feasibility_structural(model):
    """Whenever some candidate is feasible the decision is feasible."""
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = np.array([rng.uniform(10.8, 40.0), rng.uniform(10.0, 26.0)])
        box = make_box(x, [0.5, 0.5], [0.5, 0.5])
        decision = select_tau(x, box, config(n_candidates=10), model)
        any_feasible = any(e.feasible for e in decision.table)
        assert (decision.status == "infeasible") == (not any_feasible)
        if any_feasible:
            assert decision.u is not None
