"""Event-triggered loop: decisions, fallback, logging, Zeno diagnostics."""

import math

import numpy as np
import pytest

from atlc import (
    AccParams,
    ControllerConfig,
    ControllerKind,
    ZenoError,
    compute_control,
    fallback_control,
    make_box,
    make_state,
    simulate_closed_loop,
)
from atlc.constraints import DELTA_CAP
from atlc.margin import margin_from_stack
from atlc.robust_bounds import stack_on_grid
from atlc.tau_select import candidate_taus


def test_fallback_values():
    assert fallback_control(AccParams(cd=0.4)) == pytest.approx(-6474.6)
    assert fallback_control(AccParams(cd=1.2)) == pytest.approx(-19423.8)
    with pytest.raises(ValueError):
        AccParams(cd=0.0)


def test_atlc_decision_accelerates_from_start(model):
    cfg = ControllerConfig()
    decision = compute_control(make_state(90.0, 15.0), cfg, model)
    assert decision.status == "optimal"
    assert decision.u[0] == pytest.approx(cfg.params.u_max)  # speed-tracking phase
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
    assert decision.status == "optimal"
    assert decision.margin == margin_from_stack(lattice(x), decision.tau, model)

    x = make_state(10.2, 24.0)
    decision = compute_control(x, cfg, model)
    assert decision.status == "infeasible"
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
    assert decision.status == "infeasible"
    assert decision.u is None
    assert decision.margin < 0


def test_robust_tlc_infeasible_at_engineered_state(model):
    cfg = ControllerConfig(kind=ControllerKind.tlc_fixed(0.5))
    decision = compute_control(make_state(12.0, 24.0), cfg, model)
    assert decision.status == "infeasible"


def test_hocbf_feasible_far_from_boundary(model):
    cfg = ControllerConfig(kind=ControllerKind.hocbf(0.5, 0.5))
    decision = compute_control(make_state(90.0, 15.0), cfg, model)
    assert decision.status == "optimal"
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


def test_config_rejects_non_finite_final_time():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ControllerConfig(T=bad)


def test_trigger_disabled_gives_single_event():
    huge = np.array([1e30, 1e30])
    cfg = ControllerConfig(
        kind=ControllerKind.tlc_fixed(0.5, robust=False),
        box_under=huge, box_over=huge, T=2.0,
    )
    log = simulate_closed_loop(cfg)
    assert log.summary.event_count == 1
    assert np.unique(log.u).size == 1
    assert log.t[0] == 0.0 and log.t[-1] == 2.0


def test_zero_order_hold_and_breakpoints():
    cfg = ControllerConfig(T=3.0)
    log = simulate_closed_loop(cfg)
    events = {e.index: e for e in log.events}
    for k in np.unique(log.event_index):
        segment_u = log.u[log.event_index == k]
        assert np.all(segment_u == segment_u[0])
        assert segment_u[0] == events[int(k)].u
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
    assert log.summary.min_h == log.h.min()
    assert log.summary.event_count == len(log.events)


def test_delta_cap_never_active():
    cfg = ControllerConfig(T=3.0)
    log = simulate_closed_loop(cfg)
    for event in log.events:
        if event.delta is not None:
            assert event.delta < DELTA_CAP / 2


def test_safety_when_all_events_feasible():
    cfg = ControllerConfig(T=6.0)
    log = simulate_closed_loop(cfg)
    assert log.summary.infeasible_events == 0
    assert log.summary.min_h >= -1e-6


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
        if log.summary.infeasible_events == 0:
            assert log.summary.min_h >= -1e-6


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
    assert log.events[0].u == pytest.approx(fallback_control(p))
    assert log.summary.infeasible_events >= 1


def test_zeno_abort_on_degenerate_box():
    cfg = ControllerConfig(
        box_under=np.zeros(2), box_over=np.zeros(2), T=1.0,
    )
    with pytest.raises(ZenoError) as excinfo:
        simulate_closed_loop(cfg)
    log = excinfo.value.log
    assert log.summary is not None
    assert len(log.events) >= 1


def test_margin_sign_matches_feasibility():
    """The logged decision margin is the feasibility certificate: negative
    exactly at infeasible events."""
    p = AccParams(cd=0.4)
    cfg = ControllerConfig(
        kind=ControllerKind.tlc_fixed(0.5), params=p, z0=20.0, v0=24.0, T=4.0,
    )
    log = simulate_closed_loop(cfg)
    assert log.summary.infeasible_events > 0
    for event in log.events:
        assert event.feasible == (event.margin >= -1e-12)
