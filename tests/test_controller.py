"""Event-triggered loop: decisions, fallback, logging, Zeno diagnostics."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from atlc import (
    AccParams,
    ControlDecision,
    ControllerConfig,
    ControllerKind,
    SimulationError,
    ZenoError,
    acc_model,
    compute_control,
    controller,
    make_box,
    make_state,
    simulate_closed_loop,
)
from atlc.cli import fmt, write_trajectory_csv
from atlc.constraints import DELTA_CAP
from atlc.margin import margin_from_stack
from atlc.robust_bounds import stack_on_grid
from atlc.tau_select import candidate_taus


def test_fallback_values():
    assert acc_model(AccParams(cd=0.4)).fallback == pytest.approx(-6474.6)
    assert acc_model(AccParams(cd=1.2)).fallback == pytest.approx(-19423.8)
    with pytest.raises(ValueError):
        AccParams(cd=0.0)


def test_atlc_decision_accelerates_from_start(model):
    cfg = ControllerConfig()
    decision = compute_control(make_state(90.0, 15.0), cfg, model)
    assert decision.u is not None
    assert decision.u == pytest.approx(cfg.params.u_max)  # speed-tracking phase
    assert cfg.tau_cfg.tau_min <= decision.tau <= cfg.tau_cfg.tau_max
    assert decision.margin > 0
    assert decision.table is not None and len(decision.table) == 40


def test_atlc_decision_margin(model):
    """The adaptive decision logs the robust margin at the chosen time
    scale, or the best margin over the candidates when none is feasible."""
    cfg = ControllerConfig()

    def lattice(x):
        return stack_on_grid(make_box(x, cfg.box_under, cfg.box_over), model,
                             cfg.bound_cfg)

    x = make_state(90.0, 15.0)
    decision = compute_control(x, cfg, model)
    assert decision.u is not None
    assert decision.margin == margin_from_stack(lattice(x), decision.tau, model)

    x = make_state(10.2, 24.0)
    decision = compute_control(x, cfg, model)
    assert decision.u is None
    gs = lattice(x)
    margins = [margin_from_stack(gs, float(tau), model)
               for tau in candidate_taus(cfg.tau_cfg)]
    assert len(margins) == 40
    assert decision.margin == max(margins) < 0.0


def test_pointwise_tlc_infeasible_at_engineered_state(model):
    """Input ceiling far below maximum braking: close gap at full closing
    speed (cap ~ -40 kN against a -6.47 kN bound)."""
    cfg = ControllerConfig(kind=ControllerKind.tlc_fixed(0.5, robust=False))
    decision = compute_control(make_state(12.0, 24.0), cfg, model)
    assert decision.u is None and decision.delta is None
    assert decision.margin < 0


def test_robust_tlc_infeasible_at_engineered_state(model):
    cfg = ControllerConfig(kind=ControllerKind.tlc_fixed(0.5))
    decision = compute_control(make_state(12.0, 24.0), cfg, model)
    assert decision.u is None


def test_hocbf_feasible_far_from_boundary(model):
    cfg = ControllerConfig(kind=ControllerKind.hocbf(0.5, 0.5))
    decision = compute_control(make_state(90.0, 15.0), cfg, model)
    assert decision.u is not None
    assert decision.delta is not None and decision.delta > 0


def test_kind_validation():
    with pytest.raises(ValueError):
        ControllerKind.hocbf(-1.0, 1.0)
    with pytest.raises(ValueError):
        ControllerKind.tlc_fixed(0.0)
    with pytest.raises(ValueError):
        ControllerKind(name="mpc")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ControllerKind.tlc_fixed(bad)
        with pytest.raises(ValueError):
            ControllerKind.hocbf(bad, 1.0)


@pytest.mark.parametrize("fields, unread", [
    pytest.param(dict(name="hocbf", p1=0.3, p2=0.3, tau_fixed=0.5), "tau_fixed",
                 id="hocbf-tau_fixed"),
    pytest.param(dict(name="hocbf", p1=0.3, p2=0.3, robust=False), "robust=False",
                 id="hocbf-robust"),
    pytest.param(dict(name="tlc_fixed", tau_fixed=0.5, p1=0.3), "p1", id="tlc_fixed-p1"),
    pytest.param(dict(name="tlc_fixed", tau_fixed=0.5, robust=False, p2=0.3), "p2",
                 id="tlc_fixed-p2"),
    pytest.param(dict(name="atlc", p1=3.0, tau_fixed=0.7, robust=False),
                 "p1, tau_fixed, robust=False", id="atlc-p1-tau_fixed-robust"),
    pytest.param(dict(name="atlc", p2=0.3), "p2", id="atlc-p2"),
])
def test_kind_rejects_a_field_it_never_reads(fields, unread):
    """Rates are read by hocbf only, the time scale and robust=False by
    tlc_fixed only: given to another kind, each is a ValueError naming it."""
    with pytest.raises(ValueError, match=f"does not read {unread}$"):
        ControllerKind(**fields)
    named = unread.replace("robust=False", "robust").split(", ")
    ControllerKind(**{key: value for key, value in fields.items()
                      if key not in named})  # without them the fields are accepted


def test_config_rejects_non_finite_final_time():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ControllerConfig(T=bad)


def test_config_takes_one_finite_nonnegative_radius_per_state_entry():
    """Box radii are (z, v) pairs: another shape, a negative or a non-finite
    radius is a ValueError at construction, not a broadcast error at the
    first event."""
    assert ControllerConfig(box_under=[0.1, 0.2], T=1.0).box_under.tolist() == [0.1, 0.2]
    for name in ("box_under", "box_over"):
        for bad in (np.array([0.5, 0.5, 0.5]), np.array([0.5]), 0.5, np.full((2, 2), 0.5),
                    np.empty(0)):
            with pytest.raises(ValueError, match=f"{name} must hold one radius"):
                ControllerConfig(**{name: bad}, T=1.0)
        for bad in ([-0.1, 0.5], [0.5, math.inf], [math.nan, 0.5]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                ControllerConfig(**{name: np.array(bad)}, T=1.0)


def test_trigger_disabled_gives_single_event():
    huge = np.array([1e30, 1e30])
    cfg = ControllerConfig(
        kind=ControllerKind.tlc_fixed(0.5, robust=False),
        box_under=huge, box_over=huge, T=2.0,
    )
    log = simulate_closed_loop(cfg)
    assert len(log.events) == 1
    assert np.all(log.event_index == 0)
    assert log.t[0] == 0.0 and log.t[-1] == 2.0


def test_zero_order_hold_and_breakpoints(tmp_path):
    """Every trajectory row of event k holds that event's input."""
    cfg = ControllerConfig(T=3.0)
    log = simulate_closed_loop(cfg)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, log)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == log.t.size
    for row in rows:
        assert row["u"] == fmt(log.events[int(row["event_index"])].u)
    # event times strictly increasing, dense cover of [0, T]
    times = [e.t for e in log.events]
    assert np.all(np.diff(times) > 0)
    assert log.t[0] == 0.0 and log.t[-1] == cfg.T


def test_tau_within_range_and_distinct_from_interevent_time():
    cfg = ControllerConfig(T=3.0)
    log = simulate_closed_loop(cfg)
    for event in log.events:
        assert cfg.tau_cfg.tau_min <= event.tau <= cfg.tau_cfg.tau_max
        if event.dt_inter_event is not None:
            assert event.dt_inter_event > 0
    taus = np.array([e.tau for e in log.events])
    dts = np.array([e.dt_inter_event for e in log.events
                    if e.dt_inter_event is not None])
    assert dts.size > 0
    # both columns logged; the time scale is a design parameter, not the
    # inter-event interval
    assert not np.allclose(taus[: dts.size], dts)


def test_log_consistency(params):
    cfg = ControllerConfig(T=3.0)
    log = simulate_closed_loop(cfg)
    np.testing.assert_array_equal(log.h, log.z - params.lp)
    np.testing.assert_array_equal(log.V, (log.v - params.vd) ** 2)
    # the CLI's summary counts the events off this column
    assert np.unique(log.event_index).tolist() == list(range(len(log.events)))


def test_delta_cap_never_active():
    cfg = ControllerConfig(T=3.0)
    log = simulate_closed_loop(cfg)
    for event in log.events:
        if event.delta is not None:
            assert event.delta < DELTA_CAP / 2


def test_safety_when_all_events_feasible():
    cfg = ControllerConfig(T=6.0)
    log = simulate_closed_loop(cfg)
    assert all(e.feasible for e in log.events)
    assert log.h.min() >= -1e-6


def test_safety_under_feasibility_randomized():
    """Forward invariance: any run whose events are all feasible keeps h
    nonnegative, also with asymmetric trigger boxes and odd authority."""
    rng = np.random.default_rng(41)
    for _ in range(2):
        p = AccParams(
            cd=float(rng.uniform(0.3, 1.2)), ca=float(rng.uniform(0.2, 0.6))
        )
        cfg = ControllerConfig(
            kind=ControllerKind.atlc(),
            params=p,
            box_under=rng.uniform(0.2, 0.8, 2),
            box_over=rng.uniform(0.2, 0.8, 2),
            z0=float(rng.uniform(25.0, 100.0)),
            v0=float(rng.uniform(5.0, 28.0)),
            T=6.0,
        )
        log = simulate_closed_loop(cfg)
        if all(e.feasible for e in log.events):
            assert log.h.min() >= -1e-6


def test_fallback_engages_and_is_logged():
    """Start inside the squeeze: the fixed-scale pointwise variant goes
    infeasible immediately and must hold maximum braking."""
    p = AccParams(cd=0.4)
    cfg = ControllerConfig(
        kind=ControllerKind.tlc_fixed(0.5, robust=False), params=p,
        z0=12.0, v0=24.0, T=1.0,
    )
    log = simulate_closed_loop(cfg)
    assert not log.events[0].feasible
    assert log.events[0].u == pytest.approx(acc_model(p).fallback)
    assert sum(not e.feasible for e in log.events) >= 1


def test_zeno_abort_on_degenerate_box():
    cfg = ControllerConfig(
        box_under=np.zeros(2), box_over=np.zeros(2), T=1.0,
    )
    assert issubclass(ZenoError, SimulationError)
    with pytest.raises(ZenoError) as excinfo:
        simulate_closed_loop(cfg)
    log = excinfo.value.log
    assert len(log.events) >= 1
    # the partial log joins each dense column into one array
    columns = [log.t, log.z, log.v, log.h, log.V, log.event_index]
    assert {np.shape(c) for c in columns} == {(log.t.size,)} and log.t.size >= 1
    assert np.unique(log.event_index).tolist() == list(range(len(log.events)))


def test_any_failure_in_the_loop_carries_the_partial_log(monkeypatch):
    """A failure outside the decision and the integration, here the third
    event's box, is a SimulationError too, with the two events before it
    and their dense rows."""
    calls = []

    def failing_box(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ValueError("box failed")
        return make_box(*args)

    monkeypatch.setattr(controller, "make_box", failing_box)
    cfg = ControllerConfig(kind=ControllerKind.hocbf(0.5, 0.5), T=3.0)
    with pytest.raises(SimulationError) as excinfo:
        simulate_closed_loop(cfg)
    assert not isinstance(excinfo.value, ZenoError)
    assert isinstance(excinfo.value.__cause__, ValueError)
    log = excinfo.value.log
    assert len(log.events) == 2
    assert np.unique(log.event_index).tolist() == [0, 1]
    assert {np.shape(c) for c in (log.t, log.z, log.v, log.h, log.V)} == {
        (log.event_index.size,)}


def test_margin_sign_matches_feasibility():
    """The logged decision margin is the feasibility certificate: negative
    exactly at infeasible events."""
    p = AccParams(cd=0.4)
    cfg = ControllerConfig(
        kind=ControllerKind.tlc_fixed(0.5), params=p, z0=20.0, v0=24.0, T=4.0,
    )
    log = simulate_closed_loop(cfg)
    assert sum(not e.feasible for e in log.events) > 0
    for event in log.events:
        assert event.feasible == (event.margin >= -1e-12)


def test_config_owns_the_model(monkeypatch):
    """The loop builds its model once, through the config, and the config
    keeps it: derived from the parameters, so it cannot be assigned."""
    built = []

    def counting(*args):
        built.append(args)
        return acc_model(*args)

    monkeypatch.setattr(controller, "acc_model", counting)
    cfg = ControllerConfig(kind=ControllerKind.hocbf(0.5, 0.5), T=1.0)
    log = simulate_closed_loop(cfg)
    assert len(log.events) > 1 and built == [(cfg.params, cfg.clf_form)]
    assert cfg.model is cfg.model
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.model = acc_model(cfg.params)


def test_loop_applies_one_float_input(monkeypatch):
    """The held input reaches the integrator as one float, the decision's
    own or the fallback, and each event logs that float."""
    applied = []
    integrate = controller.integrate_until_trigger

    def recording(x, u, *args):
        applied.append(u)
        return integrate(x, u, *args)

    monkeypatch.setattr(controller, "integrate_until_trigger", recording)
    cfg = ControllerConfig(
        kind=ControllerKind.tlc_fixed(0.5), params=AccParams(cd=0.4),
        z0=20.0, v0=24.0, T=4.0,
    )
    log = simulate_closed_loop(cfg)
    assert {e.feasible for e in log.events} == {True, False}
    assert len(applied) == len(log.events)
    for event, u in zip(log.events, applied):
        assert type(u) is float and event.u is u
    assert all(u is cfg.model.fallback for u, e in zip(applied, log.events)
               if not e.feasible)


def test_decision_feasibility_is_its_input():
    """A decision carries no status of its own: u is None marks the
    infeasible one."""
    assert "status" not in {f.name for f in dataclasses.fields(ControlDecision)}
