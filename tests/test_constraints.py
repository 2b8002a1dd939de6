"""Controller row construction: frozen values, scaling, sign structure."""

import numpy as np
import pytest

from atlc import (
    AccParams,
    BoundConfig,
    TauSelectConfig,
    acc_lie_stack,
    make_box,
    make_state,
)
from atlc.constraints import (
    atlc_rows,
    build_clf_row,
    build_pointwise_row,
    build_qp_instance,
    row_margin,
)
from atlc.model import resistance_force
from atlc.robust_bounds import stack_on_grid
from atlc.tau_select import candidate_taus

from references import g_ratlc_from_stack, h_ratlc_from_stack, orthant_rows

CFG = BoundConfig()


def tlc_row(x, tau, model):
    """The fixed-time-scale row, with the controller's coefficients."""
    return build_pointwise_row(x, 2.0 / tau, 2.0 / tau**2, model)


def hocbf_row(x, p1, p2, model):
    """The high-order barrier row, with the controller's coefficients."""
    return build_pointwise_row(x, p1 + p2, p1 * p2, model)


def robust_row(box, tau, model):
    """The case study's one robust row over (u, delta): its input gain is
    constant, so the rows of the two ends of the gain interval are equal."""
    rows = atlc_rows(stack_on_grid(box, model, CFG), [tau])
    assert rows.low.shape == (1,) and rows.low.tobytes() == rows.high.tobytes()
    return np.array([rows.low[0], 0.0]), -rows.h_worst[0]


def feasible_interval(row, u_min, u_max):
    """Input interval allowed by a single-input safety row."""
    a, b = row
    coeff = a[0]
    if coeff > 0:
        return max(u_min, b / coeff), u_max
    if coeff < 0:
        return u_min, min(u_max, b / coeff)
    return (u_min, u_max) if b <= 0 else (u_max, u_min)


def test_atlc_row_values(model):
    box = make_box(make_state(90.0, 15.0), [0.5, 0.5], [0.5, 0.5])
    a, b = robust_row(box, 0.5, model)
    assert a == pytest.approx([-7.575757575757576e-5, 0.0], abs=1e-18)
    assert b == pytest.approx(-78.70542897727272, abs=1e-12)


def test_atlc_row_degenerate_small_tau(model):
    box = make_box(make_state(90.0, 15.0), [0.0, 0.0], [0.0, 0.0])
    a, b = robust_row(box, 0.05, model)
    assert a[0] == pytest.approx((0.05**2 / 2) * (-1.0 / 1650.0), abs=1e-20)
    assert b == pytest.approx(-79.94459950757575, abs=1e-12)


def test_atlc_rows_split_where_the_gain_changes_sign(sign_gain_model):
    """A gain that changes sign over the box gives two different rows, one
    per end of the gain interval, both over the whole input box: the least
    gain (``low``) and the greatest (``high``)."""
    box = make_box(make_state(49.8, 15.0), [0.5, 0.5], [0.5, 0.5])
    gs = stack_on_grid(box, sign_gain_model, CFG)
    rows = atlc_rows(gs, [0.5])
    scale = 0.5**2 / 2
    assert rows.low.tolist() == [scale * gs.phi.min()]
    assert rows.high.tolist() == [scale * gs.phi.max()]
    assert rows.low[0] < 0.0 < rows.high[0]


def test_atlc_rows_table_matches_per_tau_rows(model, sign_gain_model):
    """One table over the 40 candidate time scales holds, bit for bit, each
    time scale's own lattice bound and worst-case gains (the least for a
    nonnegative input, the greatest for a nonpositive one), and its margins
    are those of the single rows of the two signs of the input."""
    taus = [float(tau) for tau in candidate_taus(TauSelectConfig())]
    for case_model, z in ((model, 90.0), (sign_gain_model, 49.8)):
        box = make_box(make_state(z, 15.0), [0.5, 0.5], [0.5, 0.5])
        gs = stack_on_grid(box, case_model, CFG)
        rows = atlc_rows(gs, taus)
        assert rows.low.shape == rows.high.shape == (40,)
        assert rows.h_worst.tolist() == [h_ratlc_from_stack(gs, tau) for tau in taus]
        margins = rows.margins(case_model.u_min, case_model.u_max)
        for k, tau in enumerate(taus):
            assert [rows.low[k], rows.high[k]] == [
                g_ratlc_from_stack(gs, tau, 1.0), g_ratlc_from_stack(gs, tau, -1.0)]
            assert margins[k] == max(
                row_margin(row, lower, upper)
                for row, lower, upper in orthant_rows(gs, tau, case_model))


def test_tlc_row_values(model):
    a, b = tlc_row(make_state(90.0, 15.0), 0.5, model)
    assert a == pytest.approx([-6.060606060606061e-4, 0.0])
    assert b == pytest.approx(-635.6396060606061, abs=1e-10)

    _, b = tlc_row(make_state(11.0, 15.0), 0.5, model)
    assert b == pytest.approx(-3.6396060606060607, abs=1e-12)

    # boundary state with zero drift: condition degenerates to the bare
    # second-derivative row
    _, b = tlc_row(make_state(10.0, 13.89), 0.5, model)
    assert b == pytest.approx(-resistance_force(13.89, AccParams()) / 1650.0)


def test_pointwise_row_rejects(model):
    """Both coefficients must be positive: zero, negative and NaN fail."""
    x = make_state(90.0, 15.0)
    for bad in (0.0, -1.0, float("nan")):
        for c1, c0 in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError):
                build_pointwise_row(x, c1, c0, model)


def test_hocbf_row_values(model):
    _, b = hocbf_row(make_state(90.0, 15.0), 1.0, 1.0, model)
    assert b == pytest.approx(-77.85960606060606, abs=1e-10)

    row = hocbf_row(make_state(11.0, 15.0), 1.0, 1.0, model)
    assert row[1] == pytest.approx(1.1403939393939394, abs=1e-12)
    # positive rhs with a negative input coefficient forces braking
    lo, hi = feasible_interval(row, -1e6, 1e6)
    assert hi == pytest.approx(-1881.65, abs=0.01)


def test_hocbf_tlc_coefficient_non_identity(model):
    """Rates p1 = p2 = 2/tau reproduce the first-derivative weight of the
    fixed-time-scale row but not the position weight (16 vs 8)."""
    x = make_state(90.0, 15.0)
    h, lfh, lf2h, _ = acc_lie_stack(x, AccParams())
    _, tlc_b = tlc_row(x, 0.5, model)
    _, hocbf_b = hocbf_row(x, 4.0, 4.0, model)
    assert -tlc_b == pytest.approx(lf2h + 4.0 * lfh + 8.0 * h)
    assert -hocbf_b == pytest.approx(lf2h + 8.0 * lfh + 16.0 * h)


def test_clf_row_values(model, params):
    """The row L_g V u - delta <= -(L_f V + c3 V), stored negated as
    -L_g V u + delta >= L_f V + c3 V."""
    a, b = build_clf_row(make_state(90.0, 15.0), 2.0, model)
    assert a == pytest.approx([0.010909090909090908, 1.0])
    assert b == pytest.approx(163.43290909090908, abs=1e-10)

    a, b = build_clf_row(make_state(50.0, params.vd), 2.0, model)
    assert a == pytest.approx([0.0, 1.0])
    assert b == pytest.approx(0.0, abs=1e-15)

    # F_r(25) = 281.35: L_f V = -0.34103..., b = L_f V + 2 V
    a, b = build_clf_row(make_state(90.0, 25.0), 2.0, model)
    assert a[0] == pytest.approx(-2.0 / 1650.0)
    assert b == pytest.approx(1.6589696969696969, abs=1e-12)

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
        tlc = tlc_row(x, tau, model)
        lo_a, hi_a = feasible_interval(atlc, params.u_min, params.u_max)
        lo_t, hi_t = feasible_interval(tlc, params.u_min, params.u_max)
        assert lo_a == pytest.approx(lo_t, rel=1e-12, abs=1e-9)
        assert hi_a == pytest.approx(hi_t, rel=1e-12, abs=1e-9)
        np.testing.assert_allclose(atlc[0], (tau**2 / 2) * tlc[0], rtol=1e-12)


def test_safety_rows_brake_side(model):
    """Negative input coefficient everywhere: tightening the rhs always
    pushes toward braking."""
    rng = np.random.default_rng(10)
    for _ in range(25):
        x = np.array([rng.uniform(10.5, 120.0), rng.uniform(1.0, 30.0)])
        box = make_box(x, [0.5, 0.5], [0.5, 0.5])
        assert tlc_row(x, 0.5, model)[0][0] < 0
        assert hocbf_row(x, 1.0, 2.0, model)[0][0] < 0
        assert robust_row(box, 0.5, model)[0][0] < 0


def test_rows_are_affine_with_slack_column(model):
    x = make_state(90.0, 15.0)
    box = make_box(x, [0.5, 0.5], [0.5, 0.5])
    for a, _ in (
        tlc_row(x, 0.5, model),
        hocbf_row(x, 1.0, 1.0, model),
        robust_row(box, 0.5, model),
    ):
        assert a.shape == (2,)
        assert a[1] == 0.0  # slack never enters safety rows
    a_clf, _ = build_clf_row(x, 2.0, model)
    assert a_clf[1] == 1.0


def test_build_qp_instance_cost(model, params):
    """The model's effort cost ((u - F_r(v)) / M)^2 expanded in u, bit for
    bit, plus the slack weight; the box gains the slack's bounds."""
    x = make_state(90.0, 15.0)
    rows = [build_clf_row(x, params.c3, model)]
    inst = build_qp_instance(rows, model, x, params.w)
    fr = resistance_force(x[1], params)
    assert fr == pytest.approx(131.35, rel=1e-15)
    assert inst.quadratic_diag.tolist() == [1.0 / params.M**2, params.w]
    assert inst.linear_cost.tolist() == [-2.0 * fr / params.M**2, 0.0]
    assert inst.lower.tolist() == [params.u_min, 0.0]
    assert inst.upper.tolist() == [params.u_max, 1.0e7]
