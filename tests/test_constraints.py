"""Controller row construction: frozen values, scaling, sign structure."""

import numpy as np
import pytest

from atlc import AccParams, BoundConfig, acc_lie_stack, make_box, make_state
from atlc.constraints import (
    atlc_rows,
    build_clf_row,
    build_hocbf_row,
    build_qp_instance,
    build_tlc_row,
)
from atlc.model import resistance_force
from atlc.robust_bounds import stack_on_grid

CFG = BoundConfig()


def robust_row(box, tau, model):
    """The case study's one robust row: its input gain is constant, so the
    sign branches coincide."""
    ((row, _, _),) = atlc_rows(stack_on_grid(box, model, CFG), tau, model)
    return row


def feasible_interval(row, u_min, u_max):
    """Input interval allowed by a single-input safety row."""
    a, b = row.as_ge()
    coeff = a[0]
    if coeff > 0:
        return max(u_min, b / coeff), u_max
    if coeff < 0:
        return u_min, min(u_max, b / coeff)
    return (u_min, u_max) if b <= 0 else (u_max, u_min)


def test_atlc_row_values(model):
    box = make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5])
    row = robust_row(box, 0.5, model)
    assert row.sense == "ge"
    assert row.coefficients == pytest.approx([-7.575757575757576e-5, 0.0], abs=1e-18)
    assert row.rhs == pytest.approx(-78.70542897727272, abs=1e-12)


def test_atlc_row_degenerate_small_tau(model):
    box = make_box(make_state(90.0, 15.0), [0.0, 0.0], [0.0, 0.0])
    row = robust_row(box, 0.05, model)
    assert row.coefficients[0] == pytest.approx(
        (0.05**2 / 2) * (-1.0 / 1650.0), abs=1e-20
    )
    assert row.rhs == pytest.approx(-79.94459950757575, abs=1e-12)


def test_atlc_rows_split_where_the_gain_changes_sign(sign_gain_model, params):
    """A gain that changes sign over the box gives one row per input-sign
    orthant, each over its half of the input box."""
    box = make_box(make_state(49.8, 15.0), [0.5, 0.5], [0.5, 0.5])
    gs = stack_on_grid(box, sign_gain_model, CFG)
    (up, up_lo, up_hi), (down, down_lo, down_hi) = atlc_rows(gs, 0.5, sign_gain_model)
    np.testing.assert_array_equal([up_lo, up_hi], [[0.0], [params.u_max]])
    np.testing.assert_array_equal([down_lo, down_hi], [[params.u_min], [0.0]])
    assert up.rhs == down.rhs
    # u >= 0 takes the least gain over the box, u <= 0 the greatest
    assert up.coefficients[0] < 0.0 < down.coefficients[0]


def test_tlc_row_values(model):
    row = build_tlc_row(make_state(90.0, 15.0), 0.5, model)
    assert row.coefficients == pytest.approx([-6.060606060606061e-4, 0.0])
    assert row.rhs == pytest.approx(-635.6396060606061, abs=1e-10)

    row = build_tlc_row(make_state(11.0, 15.0), 0.5, model)
    assert row.rhs == pytest.approx(-3.6396060606060607, abs=1e-12)

    # boundary state with zero drift: condition degenerates to the bare
    # second-derivative row
    row = build_tlc_row(make_state(10.0, 13.89), 0.5, model)
    assert row.rhs == pytest.approx(-resistance_force(13.89, AccParams()) / 1650.0)


def test_tlc_row_rejects(model):
    with pytest.raises(ValueError):
        build_tlc_row(make_state(90.0, 15.0), 0.0, model)


def test_hocbf_row_values(model):
    row = build_hocbf_row(make_state(90.0, 15.0), 1.0, 1.0, model)
    assert row.rhs == pytest.approx(-77.85960606060606, abs=1e-10)

    row = build_hocbf_row(make_state(11.0, 15.0), 1.0, 1.0, model)
    assert row.rhs == pytest.approx(1.1403939393939394, abs=1e-12)
    # positive rhs with a negative input coefficient forces braking
    lo, hi = feasible_interval(row, -1e6, 1e6)
    assert hi == pytest.approx(-1881.65, abs=0.01)

    with pytest.raises(ValueError):
        build_hocbf_row(make_state(90.0, 15.0), 0.0, 1.0, model)


def test_hocbf_tlc_coefficient_non_identity(model):
    """Rates p1 = p2 = 2/tau reproduce the first-derivative weight of the
    fixed-time-scale row but not the position weight (16 vs 8)."""
    x = make_state(90.0, 15.0)
    h, lfh, lf2h, _ = acc_lie_stack(x, AccParams())
    tlc = build_tlc_row(x, 0.5, model)
    hocbf = build_hocbf_row(x, 4.0, 4.0, model)
    assert -tlc.rhs == pytest.approx(lf2h + 4.0 * lfh + 8.0 * h)
    assert -hocbf.rhs == pytest.approx(lf2h + 8.0 * lfh + 16.0 * h)


def test_clf_row_values(model, params):
    row = build_clf_row(make_state(90.0, 15.0), 2.0, model)
    assert row.sense == "le"
    assert row.coefficients == pytest.approx([-0.010909090909090908, -1.0])
    assert row.rhs == pytest.approx(-163.43290909090908, abs=1e-10)

    row = build_clf_row(make_state(50.0, params.vd), 2.0, model)
    assert row.coefficients == pytest.approx([0.0, -1.0])
    assert row.rhs == pytest.approx(0.0, abs=1e-15)

    # F_r(25) = 281.35: L_f V = -0.34103..., rhs = -(L_f V + 2 V)
    row = build_clf_row(make_state(90.0, 25.0), 2.0, model)
    assert row.coefficients[0] == pytest.approx(2.0 / 1650.0)
    assert row.rhs == pytest.approx(-1.6589696969696969, abs=1e-12)

    with pytest.raises(ValueError):
        build_clf_row(make_state(90.0, 15.0), 0.0, model)


def test_degenerate_atlc_equals_scaled_tlc(model, params):
    """With a zero-radius box and the same time scale the adaptive row is the
    fixed row scaled by tau^2/2: same feasible input interval."""
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = np.array([rng.uniform(10.5, 120.0), rng.uniform(1.0, 30.0)])
        tau = rng.uniform(0.05, 2.0)
        box = make_box(x, [0.0, 0.0], [0.0, 0.0])
        atlc = robust_row(box, tau, model)
        tlc = build_tlc_row(x, tau, model)
        lo_a, hi_a = feasible_interval(atlc, params.u_min, params.u_max)
        lo_t, hi_t = feasible_interval(tlc, params.u_min, params.u_max)
        assert lo_a == pytest.approx(lo_t, rel=1e-12, abs=1e-9)
        assert hi_a == pytest.approx(hi_t, rel=1e-12, abs=1e-9)
        np.testing.assert_allclose(
            atlc.coefficients, (tau**2 / 2) * tlc.coefficients, rtol=1e-12
        )


def test_safety_rows_brake_side(model):
    """Negative input coefficient everywhere: tightening the rhs always
    pushes toward braking."""
    rng = np.random.default_rng(10)
    for _ in range(25):
        x = np.array([rng.uniform(10.5, 120.0), rng.uniform(1.0, 30.0)])
        box = make_box(x, [0.5, 0.5], [0.5, 0.5])
        assert build_tlc_row(x, 0.5, model).coefficients[0] < 0
        assert build_hocbf_row(x, 1.0, 2.0, model).coefficients[0] < 0
        assert robust_row(box, 0.5, model).coefficients[0] < 0


def test_rows_are_affine_with_slack_column(model):
    x = make_state(90.0, 15.0)
    box = make_box(x, [0.5, 0.5], [0.5, 0.5])
    for row in (
        build_tlc_row(x, 0.5, model),
        build_hocbf_row(x, 1.0, 1.0, model),
        robust_row(box, 0.5, model),
    ):
        assert row.coefficients.shape == (2,)
        assert row.coefficients[1] == 0.0  # slack never enters safety rows
    clf = build_clf_row(x, 2.0, model)
    assert clf.coefficients[1] == -1.0


def test_build_qp_instance_objectives(model, params):
    x = make_state(90.0, 15.0)
    rows = [build_clf_row(x, params.c3, model)]

    plain = build_qp_instance(rows, model, "plain", x=x, params=params)
    np.testing.assert_allclose(plain.quadratic_diag, [1.0, params.w])
    np.testing.assert_allclose(plain.linear_cost, [0.0, 0.0])

    effort = build_qp_instance(rows, model, "acc_effort", x=x, params=params)
    np.testing.assert_allclose(
        effort.quadratic_diag, [1.0 / params.M**2, params.w], rtol=1e-15
    )
    np.testing.assert_allclose(
        effort.linear_cost, [-2.0 * 131.35 / params.M**2, 0.0], rtol=1e-15
    )
    np.testing.assert_allclose(effort.lower, [params.u_min, 0.0])
    np.testing.assert_allclose(effort.upper, [params.u_max, 1.0e7])

    with pytest.raises(ValueError):
        build_qp_instance(rows, model, "l1", x=x, params=params)
    with pytest.raises(ValueError):
        build_qp_instance(rows, model, "acc_effort")
