"""Time-scale selection: argmax semantics, determinism, scripted cross-check."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import atlc.model
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
    simulate_closed_loop,
    solve_qp,
)
from atlc.cli import build_controller_config, load_scenario
from atlc.constraints import atlc_rows, build_clf_row, build_qp_instance, qp_cost_and_box
from atlc.margin import margin_from_stack
from atlc.qp import solve_qp_stack
from atlc.robust_bounds import stack_on_grid
from atlc.sim import _dense_times, integrate_fixed_horizon
from atlc.tau_select import candidate_taus, solve_event_qp, with_predictions

from conftest import rk4_flow
from references import (
    g_ratlc_from_stack,
    h_ratlc_from_stack,
    orthant_event_qp,
    orthant_margin,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def config(**tau_cfg) -> ControllerConfig:
    """Case-study controller config with the given time-scale settings."""
    return ControllerConfig(tau_cfg=TauSelectConfig(**tau_cfg))


def scripted_selection(x, box, cfg, model):
    """Independent re-implementation of the rollout selection loop built
    from the public row/QP/rollout operations: every feasible candidate is
    solved and rolled out on its own.  Returns the chosen tau and input
    (both None when every candidate is infeasible), the margin and the
    (tau, prediction) table."""
    gs = stack_on_grid(box, model, cfg.bound_cfg)
    clf = build_clf_row(x, cfg.params.c3, model)
    best_tau, best_u, best_pred = None, None, -math.inf
    table = []
    for tau in candidate_taus(cfg.tau_cfg):
        tau = float(tau)
        # constant gain: both ends of the gain interval give this one row
        row = np.array([g_ratlc_from_stack(gs, tau, 1.0), 0.0]), -h_ratlc_from_stack(gs, tau)
        inst = build_qp_instance([row, clf], model, x, cfg.params.w)
        sol = solve_qp(inst)
        if sol.status != "optimal":
            table.append((tau, -math.inf))
            continue
        pred = rollout_min_h(x, sol.values[0], cfg.tau_cfg.T_look, model)
        table.append((tau, pred))
        if pred > best_pred:
            best_tau, best_u, best_pred = tau, float(sol.values[0]), pred
    if best_tau is None:
        margin = max(margin_from_stack(gs, tau, model) for tau, _ in table)
        return None, None, margin, table
    margin = margin_from_stack(gs, best_tau, model)
    return best_tau, best_u, margin, table


def test_config_validation():
    with pytest.raises(ValueError):
        TauSelectConfig(tau_min=0.0)
    with pytest.raises(ValueError):
        TauSelectConfig(tau_min=2.0, tau_max=1.0)
    with pytest.raises(ValueError):  # 40 equal candidates
        TauSelectConfig(tau_min=0.5, tau_max=0.5)
    for bad in (0, -3, True, 2.0, 2.5, math.nan, "3", None):
        with pytest.raises(ValueError):
            TauSelectConfig(n_candidates=bad)
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
    assert decision.u is not None
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
    assert decision.u is not None
    assert decision.tau == 0.1
    assert decision.table.feasible.tolist() == [True, False]
    assert math.isnan(decision.table.min_h_pred[1])  # no prediction


def test_all_infeasible_reported(model):
    x = make_state(10.2, 24.0)
    box = make_box(x, [0.5, 0.5], [0.5, 0.5])
    cfg = config()
    gs = stack_on_grid(box, model, cfg.bound_cfg)
    taus = candidate_taus(cfg.tau_cfg)
    assert all(margin_from_stack(gs, t, model) < 0.0 for t in taus)

    decision = select_tau(x, box, cfg, model)
    assert decision.u is None and decision.delta is None
    assert decision.tau is None
    assert np.isnan(decision.table.min_h_pred).all()


@pytest.mark.parametrize("z, v", [(49.8, 15.0), (50.2, 20.0), (60.0, 15.0)])
def test_selection_with_sign_changing_gain(sign_gain_model, z, v):
    """With the rows of the two ends of the gain interval the decision is
    feasible, meets the robust condition, and logs the margin at its time
    scale."""
    model = sign_gain_model
    x = make_state(z, v)
    box = make_box(x, [0.5, 0.5], [0.5, 0.5])
    decision = select_tau(x, box, config(), model)
    assert decision.u is not None
    gs = stack_on_grid(box, model, config().bound_cfg)
    assert decision.margin == margin_from_stack(gs, decision.tau, model)
    worst = h_ratlc_from_stack(gs, decision.tau) + decision.tau**2 / 2 * float(
        (gs.phi * decision.u).min()
    )
    assert worst >= -1e-9


def straddling_cases(model, seed, v_range):
    """Seeded event states and boxes that straddle z = 50, each with its
    lattice stack and CLF row."""
    rng = np.random.default_rng(seed)
    cfg = config()
    for _ in range(60):
        x = make_state(rng.uniform(49.6, 50.4), rng.uniform(*v_range))
        box = make_box(x, [0.5, 0.5], rng.uniform(0.5, 1.0, 2))
        yield x, stack_on_grid(box, model, cfg.bound_cfg), build_clf_row(
            x, cfg.params.c3, model)


def test_event_qp_matches_the_orthant_split_bit_for_bit(sign_gain_model):
    """Where the gain changes sign over the box, the one QP over the rows of
    the two ends of the gain interval and its margin are, bit for bit, those
    of one QP per sign of the input with the least objective winning, and
    of the best sign's margin; tau = 4 makes some events infeasible."""
    model, cfg = sign_gain_model, config()
    infeasible = 0
    for x, gs, clf in straddling_cases(model, 31, (1.0, 30.0)):
        assert gs.phi.min() < 0.0 < gs.phi.max()
        for tau in (0.05, 0.5, 2.0, 4.0):
            sol = solve_event_qp(x, gs, tau, clf, cfg, model)
            ref = orthant_event_qp(x, gs, tau, clf, cfg.params.w, model)
            assert (sol.status, sol.objective, sol.values.tobytes()) == (
                ref.status, ref.objective, ref.values.tobytes())
            assert margin_from_stack(gs, tau, model) == orthant_margin(gs, tau, model)
            infeasible += sol.status != "optimal"
    assert infeasible > 0


def test_equal_end_rows_solve_as_one_row():
    """With a constant gain the two end rows of every time scale are equal,
    and the 40-candidate stack holding both solves, bit for bit, as the stack
    holding one of them: a duplicated bound folds to the same bits."""
    infeasible = 0
    for x, params in [(make_state(90.0, 15.0), AccParams())] + near_limit_states(6):
        cfg, case_model = ControllerConfig(params=params), acc_model(params)
        box = make_box(x, cfg.box_under, cfg.box_over)
        table = select_tau(x, box, cfg, case_model).table
        rows = atlc_rows(stack_on_grid(box, case_model, cfg.bound_cfg),
                         candidate_taus(cfg.tau_cfg))
        assert rows.low.tobytes() == rows.high.tobytes()
        a_clf, b_clf = build_clf_row(x, cfg.params.c3, case_model)
        a = np.zeros((40, 2, 2))
        a[:, 0, 0], a[:, 1] = rows.low, a_clf
        b = np.column_stack([-rows.h_worst, np.full(40, b_clf)])
        diag, linear, lower, upper = qp_cost_and_box(case_model, x, cfg.params.w)
        values, objective, optimal = solve_qp_stack(diag, linear, a, b, lower, upper)
        assert table.feasible.tolist() == optimal.tolist()
        assert table.qp_objective.tobytes() == objective.tobytes()
        assert table.u.tobytes() == values[:, 0].tobytes()
        assert table.delta.tobytes() == values[:, 1].tobytes()
        infeasible += (~optimal).sum()
    assert infeasible > 0


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
        table = with_predictions(decision.table, x, cfg.tau_cfg.T_look, case_model)

        sc_tau, sc_u, _, sc_table = scripted_selection(x, box, cfg, case_model)
        assert decision.tau == sc_tau
        np.testing.assert_allclose(decision.u, sc_u, rtol=0, atol=1e-12)
        for entry, (tau, pred) in zip(table, sc_table):
            assert entry.tau == pytest.approx(tau)
            assert entry.feasible == math.isfinite(pred)
            if math.isfinite(pred):
                assert entry.min_h_pred == pytest.approx(pred, abs=1e-9)
        distinct.append(np.unique(table.u[table.feasible].view(np.int64)).size)
        infeasible += sum(not e.feasible for e in table)

        if i == 0:
            assert all(e.feasible for e in table)
            preds = [e.min_h_pred for e in table if e.feasible]
            best = max(preds)
            first_best = next(e.tau for e in table
                              if e.feasible and e.min_h_pred == best)
            assert decision.tau == first_best
    assert max(distinct[1:]) >= 10 and infeasible > 0


def test_batched_rollout_equals_single_rollouts(model, params):
    """Rolling K inputs out together gives exactly the K single rollouts."""
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = np.array([rng.uniform(11.0, 60.0), rng.uniform(0.5, 30.0)])
        inputs = rng.uniform(params.u_min, params.u_max, int(rng.integers(1, 20)))
        batch = rollout_min_h(x, inputs, 1.0, model)
        assert batch.shape == inputs.shape
        singles = [rollout_min_h(x, u, 1.0, model) for u in inputs.tolist()]
        assert all(isinstance(value, float) for value in singles)
        np.testing.assert_array_equal(batch, singles)
        # a 0-d input is one input, and a batch of one is a batch
        assert rollout_min_h(x, np.array(inputs[0]), 1.0, model) == singles[0]
        assert rollout_min_h(x, inputs[:1], 1.0, model).tolist() == singles[:1]


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
    cfg = config()
    decision = select_tau(x, box, cfg, model)
    assert decision.u is not None
    table = with_predictions(decision.table, x, cfg.tau_cfg.T_look, model)
    chosen = next(e for e in table if e.tau == decision.tau)
    for entry in table:
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
        assert (decision.u is None) == (not any_feasible)
        if any_feasible:
            assert decision.u is not None


def cd04_event_states(every=10):
    """Every ``every``-th event state of the pinned atlc_cd04 closed loop."""
    cfg = build_controller_config(load_scenario(SCENARIOS / "atlc_cd04.json"))
    log = simulate_closed_loop(cfg)
    return cfg, [e.x for e in log.events[::every]]


def test_decision_equals_full_rollout_selection():
    """Rolling out only when two or more distinct inputs are feasible does
    not change a decision: at the seeded near-limit states and at every
    10th event state of atlc_cd04 the tau, the input bytes, feasibility and
    the margin equal those of the scripted selection that rolls out every
    feasible candidate."""
    cd04_cfg, cd04_states = cd04_event_states()
    cases = [(x, ControllerConfig(params=p)) for x, p in near_limit_states(6)]
    cases += [(x, cd04_cfg) for x in cd04_states]
    one_input = 0
    for x, cfg in cases:
        case_model = acc_model(cfg.params, cfg.clf_form)
        box = make_box(x, cfg.box_under, cfg.box_over)
        decision = select_tau(x, box, cfg, case_model)
        tau, u, margin, _ = scripted_selection(x, box, cfg, case_model)
        assert (decision.tau, decision.u is None, decision.margin) == (tau, u is None, margin)
        assert decision.u.hex() == u.hex()
        skipped = np.isnan(decision.table.min_h_pred[decision.table.feasible])
        one_input += skipped.all()
        assert skipped.all() or not skipped.any()
    assert len(cd04_states) >= 15 and 0 < one_input < len(cases)


def test_rhs_calls_per_rollout_step(monkeypatch):
    """At the first atlc_cd04 event every one of the 40 candidates is
    feasible with one distinct input, so no rollout runs; a contested
    decision rolls out with 4 rhs calls per RK4 step."""
    rhs_calls = []
    rhs = atlc.model.acc_dynamics_rhs

    def counted_rhs(*args):
        rhs_calls.append(np.ndim(args[0]))
        return rhs(*args)

    monkeypatch.setattr(atlc.model, "acc_dynamics_rhs", counted_rhs)
    cfg = build_controller_config(load_scenario(SCENARIOS / "atlc_cd04.json"))
    case_model = acc_model(cfg.params, cfg.clf_form)
    x = make_state(cfg.z0, cfg.v0)
    decision = select_tau(x, make_box(x, cfg.box_under, cfg.box_over), cfg, case_model)
    assert len(decision.table) == 40 and all(e.feasible for e in decision.table)
    assert rhs_calls == []

    x, params = near_limit_states(1)[0]
    cfg = ControllerConfig(params=params)
    case_model = acc_model(params)
    decision = select_tau(x, make_box(x, [0.5, 0.5], [0.5, 0.5]), cfg, case_model)
    assert not np.isnan(decision.table.min_h_pred[decision.table.feasible]).any()
    steps = _dense_times(0.0, cfg.tau_cfg.T_look).size - 1
    assert rhs_calls == [2] * (4 * steps)  # one batch of distinct inputs
