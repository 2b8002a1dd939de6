"""Scenario runner: exit codes, CSV schemas, determinism, round trips."""

import csv
import dataclasses
import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from atlc import (
    AccParams,
    ControllerConfig,
    ControllerKind,
    EventRecord,
    IntegrationError,
    SimulationError,
    TrajectoryLog,
    controller,
    simulate_closed_loop,
)
from atlc.cli import (
    BLOCK_ROWS,
    EVENT_COLUMNS,
    KIND_KEYS,
    KNOWN_KEYS,
    TRAJECTORY_COLUMNS,
    build_controller_config,
    fmt,
    main,
    summary_from_trajectory_csv,
    write_trajectory_csv,
)
from atlc.model import effort_integrand
from references import list_trajectory_csv

README = Path(__file__).resolve().parent.parent / "README.md"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_config(path: Path, **kw) -> Path:
    path.write_text(json.dumps(kw), encoding="utf-8")
    return path


def test_run_clean_exit(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.json", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "s_trajectory.csv").exists()
    assert (tmp_path / "out" / "s_events.csv").exists()
    assert (tmp_path / "out" / "s_summary.json").exists()


def test_run_unsafe_exit(tmp_path):
    cfg = write_config(
        tmp_path / "unsafe.json",
        kind="tlc_fixed", tlc_robust=False, tau_fixed=0.5, cd=0.4,
        z0=12.0, v0=24.0, T=2.0,
    )
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    summary = json.loads((tmp_path / "out" / "unsafe_summary.json").read_text())
    assert summary["min_h"] < 0


def test_run_zeno_exit(tmp_path):
    cfg = write_config(tmp_path / "z.json", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    code = main([
        "run", "--config", str(cfg), "--out", str(tmp_path / "out"),
        "--set", "box_under=0", "--set", "box_over=0",
    ])
    assert code == 3
    summary = json.loads((tmp_path / "out" / "z_summary.json").read_text())
    assert summary["status"].startswith("aborted")
    # the zero-length segment before the abort keeps its event's row
    events = (tmp_path / "out" / "z_events.csv").read_text().splitlines()[1:]
    assert summary["event_count"] == len(events) >= 1
    assert summary["min_h"] is not None


def test_abort_in_trigger_integration_keeps_the_event_row(tmp_path, monkeypatch):
    """An event whose integration fails keeps its start sample as its one
    dense row, so the summary counts every event of the events CSV."""
    integrate = controller.integrate_until_trigger
    calls = []

    def failing_integration(x, *args):
        calls.append(x)
        if len(calls) == 3:
            raise IntegrationError("step failed", args[2], x)
        return integrate(x, *args)

    monkeypatch.setattr(controller, "integrate_until_trigger", failing_integration)
    cfg = ControllerConfig(kind=ControllerKind.hocbf(0.3, 0.3), T=1.0)
    with pytest.raises(SimulationError) as excinfo:
        simulate_closed_loop(cfg)
    log = excinfo.value.log
    assert len(log.events) == 3
    assert np.unique(log.event_index).tolist() == list(range(len(log.events)))
    last = log.events[-1]
    assert (log.event_index == 2).sum() == 1
    assert (log.t[-1], log.z[-1], log.v[-1]) == (last.t, *last.x)

    calls.clear()
    config = write_config(tmp_path / "s.json", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    summary = json.loads((tmp_path / "out" / "s_summary.json").read_text())
    events = read_rows(tmp_path / "out" / "s_events.csv")
    assert summary["event_count"] == len(events) == 3
    assert summary["infeasible_events"] == sum(r["feasible"] == "0" for r in events)


def test_run_missing_config(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 1


def test_run_rejects_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", kind="atlc", cruise=1.0)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "cruise" in capsys.readouterr().err


def test_run_reports_json_position(tmp_path, capsys):
    path = tmp_path / "syntax.json"
    path.write_text('{"kind": "atlc",\n  "cd": }', encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_hocbf_requires_rates(tmp_path, capsys):
    """A missing rate is the kind's own error, reported once."""
    for rates in ({}, {"p1": 0.3}, {"p2": 0.3}):
        cfg = write_config(tmp_path / "h.json", kind="hocbf", T=1.0, **rates)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid scenario value: hocbf needs positive finite rates p1 and p2"]
        assert not out.exists()


def test_set_override_changes_run(tmp_path):
    cfg = write_config(tmp_path / "s.json", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"),
          "--set", "v0=20.0"])
    rows_a = (tmp_path / "a" / "s_trajectory.csv").read_text().splitlines()
    rows_b = (tmp_path / "b" / "s_trajectory.csv").read_text().splitlines()
    assert rows_a[1] != rows_b[1]
    assert rows_b[1].split(",")[2] == "20"


def test_deterministic_byte_identical_output(tmp_path):
    cfg = write_config(
        tmp_path / "s.json", kind="tlc_fixed", tau_fixed=0.5, T=2.0
    )
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "s_trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "s_trajectory.csv").read_bytes()
    assert a == b
    assert b"\r" not in a  # LF line endings


def test_trajectory_schema_and_roundtrip(tmp_path):
    cfg = write_config(
        tmp_path / "s.json", kind="tlc_fixed", tau_fixed=0.5, T=2.0
    )
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    traj = tmp_path / "out" / "s_trajectory.csv"
    with open(traj, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == TRAJECTORY_COLUMNS

    # tau and dt_inter_event populated exactly on first row of each event
    seen = set()
    for row in rows:
        k = int(row[8])
        is_event_row = k not in seen
        seen.add(k)
        assert (row[4] != "") == is_event_row
    # recomputing the summary from the CSV reproduces the stored record
    stored = json.loads((tmp_path / "out" / "s_summary.json").read_text())
    recomputed = summary_from_trajectory_csv(traj, AccParams())
    for key, value in recomputed.items():
        assert stored[key] == value


def test_compare_runs_directory(tmp_path, capsys):
    d = tmp_path / "suite"
    d.mkdir()
    write_config(d / "a.json", id="a", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    write_config(d / "b.json", id="b", kind="tlc_fixed", tau_fixed=0.5, T=1.0)
    code = main(["compare", "--dir", str(d), "--out", str(tmp_path / "out")])
    assert code == 0
    table = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
    assert table[0] == "scenario,kind,min_h,infeasible_events,event_count,effort,mean_abs_du"
    assert len(table) == 3
    out = capsys.readouterr().out
    assert "a" in out and "b" in out


def test_compare_duplicate_ids(tmp_path, capsys):
    d = tmp_path / "suite"
    d.mkdir()
    write_config(d / "a.json", id="same", kind="atlc", T=1.0)
    write_config(d / "b.json", id="same", kind="atlc", T=1.0)
    assert main(["compare", "--dir", str(d), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "a.json" in err and "b.json" in err


def test_compare_empty_dir(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    assert main(["compare", "--dir", str(d), "--out", str(tmp_path / "out")]) == 1


def test_compare_aborts_on_any_bad_config(tmp_path):
    d = tmp_path / "suite"
    d.mkdir()
    write_config(d / "a.json", id="a", kind="atlc", T=1.0)
    write_config(d / "b.json", id="b", kind="hocbf", T=1.0)  # missing rates
    assert main(["compare", "--dir", str(d), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out" / "a_trajectory.csv").exists()


@pytest.mark.parametrize("override", [
    "box_under=-1", "box_over=[0.5, -0.5]", "box_under=Infinity", "z0=NaN",
    "v0=Infinity", "objective=foo", "clf_form=foo", "T=NaN", "T=Infinity",
    "T_look=NaN", "T_look=Infinity", "tau_max=Infinity",
    "n_tau=2.9", "n_tau=true", 'n_tau="3"', "n_tau=NaN", 'tlc_robust="false"',
    "tlc_robust=0", "T=true", "cd=true", "box_under=true", "box_over=[0.5, false]",
    'z0="90"', "tau_min=true", 'T_look="1"', "objective=acc_effort",
    "tau_min=2.0", "tau_max=0.05", "kind=tlc", "clf_form=quadratic",
])
def test_run_rejects_bad_box_or_start(tmp_path, capsys, override):
    cfg = write_config(tmp_path / "s.json", kind="atlc", T=1.0)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--set", override]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("override", [
    'id="../escaped"', "id=../escaped", 'id="a/b"', 'id="a\\\\b"', "id=.", "id=..",
    'id=""', "id=", "id=7", "id=true", "id=null", 'id=["a"]', 'id="a\\u0000b"',
    'id="\\ud800"',
])
def test_run_rejects_id_that_is_not_a_file_stem(tmp_path, capsys, override):
    """The id names the output files: nothing is written, in the output
    directory or next to it."""
    cfg = write_config(tmp_path / "s.json", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    out = tmp_path / "runs" / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--set", override]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "id" in err[0]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["s.json"]


def test_compare_rejects_bad_id_before_any_run(tmp_path, capsys):
    d = tmp_path / "suite"
    d.mkdir()
    write_config(d / "a.json", id="a", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    write_config(d / "b.json", id="../b", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    out = tmp_path / "out"
    assert main(["compare", "--dir", str(d), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "b.json" in err[0]
    assert not out.exists() and not (tmp_path / "b_trajectory.csv").exists()


def test_run_rejects_an_id_too_long_to_name_its_outputs(tmp_path, capsys, monkeypatch):
    """The longest output name, ``<id>_candidates.csv``, must fit the output
    directory's file-name limit; a longer one is one error line before the
    simulation, and an id that just fits writes every file."""
    limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    longest = "x" * (limit - len("_candidates.csv"))
    cfg = write_config(tmp_path / "s.json", kind="atlc", T=0.1)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--trace-candidates",
                 "--set", f"id={longest}"]) == 0
    assert len((out / f"{longest}_candidates.csv").read_bytes()) > 0
    capsys.readouterr()

    def no_simulation(cfg):
        raise AssertionError("the run should not start")

    monkeypatch.setattr("atlc.cli.simulate_closed_loop", no_simulation)
    other = tmp_path / "other"
    assert main(["run", "--config", str(cfg), "--out", str(other),
                 "--set", f"id={longest}x"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "cannot name a file" in err[0]
    assert not other.exists()


def test_compare_rejects_an_id_too_long_to_name_its_outputs(tmp_path, capsys):
    d = tmp_path / "suite"
    d.mkdir()
    write_config(d / "a.json", id="a", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    write_config(d / "b.json", id="b" * 300, kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    out = tmp_path / "out"
    assert main(["compare", "--dir", str(d), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "cannot name a file" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("kind, override", [
    ({"kind": "tlc_fixed"}, "tau_fixed=NaN"),
    ({"kind": "tlc_fixed"}, "tau_fixed=Infinity"),
    ({"kind": "tlc_fixed"}, "tau_fixed=0"),
    ({"kind": "hocbf", "p1": 0.3, "p2": 0.3}, "p1=NaN"),
    ({"kind": "tlc_fixed"}, 'tlc_robust="false"'),
    ({"kind": "tlc_fixed"}, "tau_fixed=true"),
    ({"kind": "hocbf", "p1": 0.3, "p2": 0.3}, "p2=true"),
])
def test_run_rejects_non_finite_kind_setting(tmp_path, capsys, kind, override):
    cfg = write_config(tmp_path / "s.json", T=1.0, **kind)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--set", override]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("name, overrides", [
    ("atlc_cd04", ["tau_fixed=0.7", "p1=3", "tlc_robust=false"]),
    ("atlc_cd04", ["tau_fixed=0.7"]),
    ("atlc_cd04", ["p2=3"]),
    ("atlc_cd04", ["tlc_robust=true"]),
    ("tlc_cd04", ["n_tau=3", "T_look=9"]),
    ("tlc_cd04", ["tau_min=0.1"]),
    ("tlc_cd04", ["p1=3"]),
    ("hocbf_aggressive", ["tau_max=1.5"]),
    ("hocbf_aggressive", ["tau_fixed=0.5"]),
    ("hocbf_aggressive", ["tlc_robust=false"]),
])
def test_run_rejects_keys_of_another_kind(tmp_path, capsys, name, overrides):
    """The tau selection keys are read by kind atlc only, tau_fixed and
    tlc_robust by tlc_fixed only, and p1 and p2 by hocbf only."""
    out = tmp_path / "out"
    args = ["run", "--config", str(SCENARIOS / f"{name}.json"), "--out", str(out),
            "--set", "T=0.3"]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "kind" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("name, overrides", [
    ("atlc_cd04", ["tau_max=1e200"]),
    ("tlc_cd04", ["tau_fixed=1e200"]),
    ("tlc_cd04", ["tau_fixed=1e200", "tlc_robust=false"]),
])
def test_run_rejects_a_time_scale_whose_weights_overflow(tmp_path, capsys, name,
                                                         overrides):
    """A time scale whose Taylor weights overflow is a config error, for
    the candidate grid and for the fixed scale, robust or pointwise."""
    out = tmp_path / "out"
    args = ["run", "--config", str(SCENARIOS / f"{name}.json"), "--out", str(out),
            "--set", "T=0.3"]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: invalid scenario value: the Taylor weights of time "
                   "scale 1e+200 overflow"]
    assert not out.exists()


def test_compare_and_margin_map_reject_a_time_scale_whose_weights_overflow(
        tmp_path, capsys):
    """compare checks every grid before its first run; margin-map writes
    no map whose margins would be NaN."""
    suite = tmp_path / "suite"
    suite.mkdir()
    write_config(suite / "a.json", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    write_config(suite / "b.json", kind="atlc", tau_max=1e200, T=1.0)
    out = tmp_path / "out"
    assert main(["compare", "--dir", str(suite), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "overflow" in err[0]
    assert not out.exists()

    out = tmp_path / "m.csv"
    assert main(["margin-map", "--config", str(SCENARIOS / "atlc_cd04.json"),
                 "--z", "90", "--v", "15", "--tau-max", "1.5e154", "--n-tau", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: invalid scenario value: the Taylor weights of time "
                   "scale 1.5e+154 overflow"]
    assert not out.exists()


def test_overflowing_dynamics_abort_with_an_integration_error(tmp_path):
    """A lead speed of 1e308 overflows the normalised rows of the first
    decision's QP: the run aborts (exit 3) with the QP's typed error and no
    numpy warning, not with a division by zero."""
    out = tmp_path / "out"
    code = main(["run", "--config", str(SCENARIOS / "tlc_cd04.json"),
                 "--set", "vp=1e308", "--set", "T=1", "--out", str(out)])
    assert code == 3
    summary = json.loads((out / "tlc_cd04_summary.json").read_text())
    assert summary["status"] == ("aborted: the QP rows cannot be normalised: "
                                 "a normalised value is not finite")


def test_huge_time_scales_normalise_their_qp_rows(tmp_path):
    """Taylor weights near 5e199 square to overflow in the QP's row norms;
    the rows are rescaled instead, so the run completes, with no warning
    (the suite turns warnings into errors) and no "found no optimum" abort."""
    out = tmp_path / "out"
    code = main(["run", "--config", str(SCENARIOS / "atlc_cd04.json"),
                 "--set", "tau_max=1e100", "--set", "T=0.3", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "atlc_cd04_summary.json").read_text())
    assert (summary["status"], summary["event_count"]) == ("ok", 1)
    assert summary["min_h"] == pytest.approx(79.6671686)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, code", [("lp", 2), ("c3", 0)])
def test_extreme_magnitudes_overflow_in_the_qp_without_a_warning(tmp_path, key, code):
    """A 1e300 safety distance or CLF rate overflows candidate objectives in
    the QP; those candidates are rejected quietly, so the
    run finishes with every event infeasible instead of aborting on a
    warning turned into an error."""
    out = tmp_path / "out"
    assert main(["run", "--config", str(SCENARIOS / "atlc_cd04.json"),
                 "--set", "T=1", "--set", f"{key}=1e300", "--out", str(out)]) == code
    summary = json.loads((out / "atlc_cd04_summary.json").read_text())
    assert (summary["status"], summary["event_count"],
            summary["infeasible_events"]) == ("ok", 8, 8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w", ["1e8", "1e12", "1e300"])
@pytest.mark.parametrize("name", ["atlc_cd04", "tlc_cd04", "hocbf_aggressive"])
def test_huge_slack_weights_run(tmp_path, name, w):
    """A slack weight of 1e8 or more runs like 1e7 (59 events, min h
    51.6968 over 4 s) where the QP's products stay finite, and runs at all,
    without a warning, at 1e300."""
    out = tmp_path / "out"
    assert main(["run", "--config", str(SCENARIOS / f"{name}.json"), "--set", "T=4",
                 "--set", f"w={w}", "--out", str(out)]) == 0
    summary = json.loads((out / f"{name}_summary.json").read_text())
    assert summary["status"] == "ok"
    if w != "1e300":
        assert summary["event_count"] == 59
        assert summary["min_h"] == pytest.approx(51.6968, abs=5e-5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", ["f0", "f1", "f2", "v0", "vd", "M"])
def test_model_magnitudes_that_overflow_are_config_errors(tmp_path, capsys, key):
    """A model parameter or start speed of 1e300, or a mass of 1e-300 whose
    square underflows to 0 in the input cost, overflows the model at the
    start state: one error line and exit 1 before anything runs, not a
    warning, a traceback or an aborted run."""
    out = tmp_path / "out"
    value = "1e-300" if key == "M" else "1e300"
    assert main(["run", "--config", str(SCENARIOS / "atlc_cd04.json"), "--set", "T=1",
                 "--set", f"{key}={value}", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: invalid scenario value: the model overflows at the start state")
    assert not out.exists()


def test_compare_rejects_a_tiny_mass_before_any_run(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    write_config(suite / "a.json", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    write_config(suite / "b.json", kind="tlc_fixed", M=1e-300, T=1.0)
    out = tmp_path / "out"
    assert main(["compare", "--dir", str(suite), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid scenario value: the model overflows at the start state: "
        "float division by zero"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, radius", [
    ("atlc_cd04", "box_under=1e200"),
    ("atlc_cd04", "box_over=1e155"),
    ("tlc_cd04", "box_under=1e300"),
])
def test_box_radii_whose_lattice_overflows_are_config_errors(tmp_path, capsys, name,
                                                            radius):
    """A trigger-box radius whose lattice overflows the model, where the
    first robust rows read it (the adaptive and the robust fixed kinds): one
    error line and exit 1 before anything runs, not a numpy warning and
    events flagged infeasible."""
    out = tmp_path / "out"
    assert main(["run", "--config", str(SCENARIOS / f"{name}.json"), "--set", "T=0.3",
                 "--set", radius, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid scenario value: the model overflows on the lattice of the "
        "first trigger box: overflow encountered in multiply"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, overrides", [
    ("hocbf_conservative", []),
    ("tlc_cd04", ["tlc_robust=false"]),
    ("atlc_cd04", []),
])
def test_kinds_that_read_no_huge_lattice_run(tmp_path, name, overrides):
    """The pointwise kinds read no box lattice, so a radius of 1e300 runs
    as before, without a warning; the adaptive kind runs at 1e150."""
    radius = "1e150" if name == "atlc_cd04" else "1e300"
    args = ["run", "--config", str(SCENARIOS / f"{name}.json"), "--set", "T=0.3",
            "--set", f"box_under={radius}", "--out", str(tmp_path / "out")]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 0


def test_scenario_without_a_kind_reads_only_adaptive_keys():
    """A scenario that names no kind is of kind atlc: its tau selection keys
    apply, and a tlc_fixed key is an error."""
    cfg = build_controller_config({"id": "s", "n_tau": 3, "T_look": 2.0})
    assert (cfg.kind.name, cfg.tau_cfg.n_candidates, cfg.tau_cfg.T_look) == (
        "atlc", 3, 2.0)
    with pytest.raises(ValueError, match="kind 'atlc'"):
        build_controller_config({"id": "s", "tau_fixed": 0.5})


def test_compare_rejects_a_key_of_another_kind_before_any_run(tmp_path, capsys):
    d = tmp_path / "suite"
    d.mkdir()
    write_config(d / "a.json", id="a", kind="atlc", T=1.0)
    write_config(d / "b.json", id="b", kind="hocbf", p1=0.3, p2=0.3, T=1.0, n_tau=3)
    out = tmp_path / "out"
    assert main(["compare", "--dir", str(d), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'hocbf'" in err[0]
    assert not out.exists()


def assert_same_config(found: ControllerConfig, expected: ControllerConfig):
    for field in dataclasses.fields(ControllerConfig):
        a, b = getattr(found, field.name), getattr(expected, field.name)
        same = np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b
        assert same, f"{field.name}: {a!r} != {b!r}"


def test_scenario_of_only_an_id_builds_the_default_config():
    assert_same_config(build_controller_config({"id": "s"}), ControllerConfig())


def test_tlc_fixed_kind_alone_builds_the_default_fixed_kind():
    cfg = build_controller_config({"id": "s", "kind": "tlc_fixed"})
    assert cfg.kind == ControllerKind.tlc_fixed()


def readme_table(header: str) -> list[list[str]]:
    """The body rows of the README table under ``header``, one list of
    cells each, stripped of spaces and backticks."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.split("|")[1:-1]])
    return rows


def readme_key_table() -> dict[str, tuple[str, str, str]]:
    """The README's scenario-key table: key -> (field it sets, default,
    kind that reads it)."""
    return {key: (field, default, kind) for key, field, default, kind, *_
            in readme_table("| key | sets | default | kind | meaning |")}


def readme_columns(label: str) -> list[str]:
    """The comma-separated column list in the first code span after the
    README line that starts with ``label``."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n{label}"):]
    return after.split("`")[1].split(",")


def test_readme_output_schemas_match_the_writers(tmp_path):
    """The README documents the trajectory and events columns the writers
    use and the keys of a real summary.json."""
    assert readme_columns("Trajectory CSV columns") == TRAJECTORY_COLUMNS
    assert readme_columns("Events CSV columns") == EVENT_COLUMNS
    config = write_config(tmp_path / "s.json", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "s_summary.json").read_text())
    keys = [row[0] for row in readme_table("| summary key | value |")]
    assert sorted(keys) == sorted(summary)


def test_readme_key_table_matches_the_config_types():
    """Every accepted key is in the table with the kind that reads it, and
    each default the table gives, set explicitly in a scenario of that
    kind, builds the config that leaving the key out builds and is the
    value of the field the table names."""
    table = readme_key_table()
    assert sorted(table) == sorted(KNOWN_KEYS)
    assert {key: kind for key, (_, _, kind) in table.items() if kind != "any"} == {
        key: kind for kind, keys in KIND_KEYS.items() for key in keys}
    described = sorted(key for key, (_, cell, _) in table.items() if cell.startswith("("))
    assert described == ["id", "p1", "p2"]
    for key, (field, cell, kind) in table.items():
        if key in described:
            continue
        try:
            default = json.loads(cell)
        except json.JSONDecodeError:
            default = cell
        base = {"id": "s"}
        if kind != "any":
            base["kind"] = kind
        given = build_controller_config({**base, key: default})
        assert_same_config(given, build_controller_config(base))
        value = given
        for name in field.split("."):
            value = getattr(value, name)
        assert np.all(np.asarray(value) == default), key


def test_compare_rejects_bad_box_before_any_run(tmp_path, capsys):
    d = tmp_path / "suite"
    d.mkdir()
    write_config(d / "a.json", id="a", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    write_config(d / "b.json", id="b", kind="hocbf", p1=0.5, p2=0.5, T=1.0)
    write_config(d / "c.json", id="c", kind="atlc", box_over=-0.5, T=1.0)
    out = tmp_path / "out"
    assert main(["compare", "--dir", str(d), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_compare_rejects_bad_objective_before_any_run(tmp_path, capsys):
    d = tmp_path / "suite"
    d.mkdir()
    write_config(d / "a.json", id="a", kind="hocbf", p1=0.3, p2=0.3, T=1.0)
    write_config(d / "b.json", id="b", kind="hocbf", p1=0.3, p2=0.3, T=1.0,
                 objective="foo")
    out = tmp_path / "out"
    assert main(["compare", "--dir", str(d), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_margin_map_output(tmp_path):
    cfg = write_config(tmp_path / "s.json", kind="atlc")
    out = tmp_path / "map.csv"
    code = main(["margin-map", "--config", str(cfg), "--z", "90", "--v", "15",
                 "--out", str(out)])
    assert code == 0
    with open(out, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert len(rows) == 40
    assert rows[0]["tau"] == "0.05"
    assert all(r["tau_star"] == "0.05" for r in rows)
    assert all(r["feasible"] == "1" for r in rows)


def test_margin_map_single_point_and_infeasible(tmp_path):
    cfg = write_config(tmp_path / "s.json", kind="atlc")
    out = tmp_path / "map.csv"
    assert main(["margin-map", "--config", str(cfg), "--z", "90", "--v", "15",
                 "--out", str(out), "--n-tau", "1"]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2

    assert main(["margin-map", "--config", str(cfg), "--z", "10.2", "--v", "24",
                 "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["feasible"] == "0" for r in rows)
    assert all(r["tau_star"] == "" for r in rows)


@pytest.mark.parametrize("name, kind", [
    ("hocbf_aggressive", "hocbf"), ("tlc_cd04", "tlc_fixed")])
def test_margin_map_refuses_a_scenario_of_another_kind(tmp_path, capsys, name, kind):
    """The map is the adaptive controller's robust margin, so a baseline
    scenario is a bad config, with or without grid flags."""
    out = tmp_path / "map.csv"
    for flags in ([], ["--n-tau", "3"]):
        assert main(["margin-map", "--config", str(SCENARIOS / f"{name}.json"),
                     "--z", "90", "--v", "15", "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and repr(kind) in err[0]
        assert not out.exists()


@pytest.mark.parametrize("grid_args", [
    ["--n-tau", "0"], ["--n-tau", "-3"], ["--tau-min", "0"],
    ["--tau-min", "1.5", "--tau-max", "0.5"],
    ["--tau-min", "0.5", "--tau-max", "0.5"],
])
def test_margin_map_rejects_bad_grid(tmp_path, capsys, grid_args):
    cfg = write_config(tmp_path / "s.json", kind="atlc")
    out = tmp_path / "map.csv"
    assert main(["margin-map", "--config", str(cfg), "--z", "90", "--v", "15",
                 "--out", str(out), *grid_args]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_unwritable_out_path_is_one_error_line(tmp_path, capsys):
    """An --out path under or at an existing file is reported like a bad
    config, before anything runs or is written."""
    blocker = tmp_path / "file"
    blocker.write_text("kept", encoding="utf-8")
    suite = tmp_path / "suite"
    suite.mkdir()
    config = write_config(suite / "s.json", kind="atlc", T=1.0)
    for argv in (
        ["run", "--config", str(config), "--out", str(blocker)],
        ["compare", "--dir", str(suite), "--out", str(blocker / "out")],
        ["margin-map", "--config", str(config), "--z", "90", "--v", "15",
         "--out", str(blocker / "map.csv")],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), argv[0]
        assert captured.out == ""
    assert blocker.read_text(encoding="utf-8") == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "suite"]


def test_an_out_name_too_long_for_the_file_system_is_one_error_line(
        tmp_path, capsys, monkeypatch):
    """An --out component longer than the file-name limit is one error line
    and exit 1, not an OSError traceback; run and compare report it before
    any simulation, and nothing is written."""
    def no_simulation(cfg):
        raise AssertionError("the run should not start")

    monkeypatch.setattr("atlc.cli.simulate_closed_loop", no_simulation)
    long_name = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 45)
    suite = tmp_path / "suite"
    suite.mkdir()
    config = write_config(suite / "s.json", kind="atlc", T=1.0)
    for argv in (
        ["run", "--config", str(config), "--out", str(tmp_path / long_name)],
        ["compare", "--dir", str(suite), "--out", str(tmp_path / long_name / "out")],
        ["margin-map", "--config", str(config), "--z", "90", "--v", "15",
         "--out", str(tmp_path / f"{long_name}.csv")],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), argv[0]
        assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["suite"]


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_trace_candidates(tmp_path):
    """One row per candidate and event.  From a near-limit start, where two
    events have feasible candidates (one distinct input each, so the writer
    computes their predictions) and four have none: infeasible rows leave
    the prediction and the objective empty, feasible rows fill both, and
    each feasible event's tau is a feasible row with the largest printed
    prediction."""
    cfg = write_config(tmp_path / "s.json", kind="atlc", T=0.3)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--trace-candidates"])
    assert code == 0
    rows = read_rows(tmp_path / "out" / "s_candidates.csv")
    summary = json.loads((tmp_path / "out" / "s_summary.json").read_text())
    assert len(rows) == 40 * summary["event_count"]
    assert all(r["feasible"] == "1" for r in rows)

    near = write_config(tmp_path / "near.json", kind="atlc", z0=12.0, v0=24.0, T=0.3)
    code = main(["run", "--config", str(near), "--out", str(tmp_path / "near"),
                 "--trace-candidates"])
    assert code == 2  # unsafe once every candidate is infeasible
    events = read_rows(tmp_path / "near" / "near_events.csv")
    rows = read_rows(tmp_path / "near" / "near_candidates.csv")
    assert len(events) == 6 and len(rows) == 40 * 6
    for r in rows:
        filled = r["feasible"] == "1"
        assert (r["min_h_pred"] != "") == (r["qp_objective"] != "") == filled
    by_event = {e["event_index"]: [r for r in rows if r["event_index"] == e["event_index"]]
                for e in events}
    assert sum(not any(r["feasible"] == "1" for r in c) for c in by_event.values()) == 4
    feasible_events = [e for e in events if e["feasible"] == "1"]
    assert len(feasible_events) == 2
    for e in feasible_events:
        preds = {r["tau"]: float(r["min_h_pred"])
                 for r in by_event[e["event_index"]] if r["feasible"] == "1"}
        assert preds[e["tau"]] == max(preds.values())


def synthetic_log(n_rows: int, starts: list[int]) -> TrajectoryLog:
    """A log of ``n_rows`` seeded samples whose events begin at the rows
    ``starts``.  Odd events have no time scale and are infeasible without a
    slack; the last has no inter-event time; one ``V`` is NaN."""
    rng = np.random.default_rng(n_rows)
    ends = [*starts[1:], n_rows]
    events = [
        EventRecord(
            index=k, t=0.01 * start, x=rng.normal(50.0, 20.0, 2),
            tau=None if k % 2 else float(rng.uniform(0.1, 2.0)),
            u=float(rng.normal(0.0, 3000.0)), feasible=k % 2 == 0,
            delta=None if k % 2 else float(rng.exponential()), margin=float(rng.normal()),
            dt_inter_event=None if end == n_rows else 0.01 * (end - start),
        )
        for k, (start, end) in enumerate(zip(starts, ends))
    ]
    V = rng.normal(0.0, 100.0, n_rows)
    V[n_rows // 2] = np.nan
    return TrajectoryLog(
        events=events, t=0.01 * np.arange(n_rows), z=rng.normal(50.0, 20.0, n_rows),
        v=rng.normal(15.0, 5.0, n_rows), h=rng.normal(10.0, 5.0, n_rows), V=V,
        event_index=np.repeat(np.arange(len(starts)), np.diff([*starts, n_rows])),
    )


@pytest.mark.parametrize("n_rows, starts", [
    (1, [0]),
    (BLOCK_ROWS, [0, 1, BLOCK_ROWS - 1]),
    (BLOCK_ROWS + 1, [0, BLOCK_ROWS - 4]),  # the last event runs across a block boundary
    (2 * BLOCK_ROWS + 3, [0, 5, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS]),
], ids=["one_row", "one_block", "one_block_and_one_row", "events_that_begin_a_block"])
def test_trajectory_writer_matches_the_list_writer(tmp_path, n_rows, starts):
    """The writer formats a block of rows at a time; its bytes equal those
    of one list of all rows, and each event's time scale and inter-event
    time stay on its first row wherever the blocks split it."""
    log = synthetic_log(n_rows, starts)
    write_trajectory_csv(tmp_path / "streamed.csv", log)
    list_trajectory_csv(tmp_path / "listed.csv", log)
    streamed = (tmp_path / "streamed.csv").read_bytes()
    assert streamed == (tmp_path / "listed.csv").read_bytes()
    assert len(streamed.splitlines()) == n_rows + 1


def test_summary_of_a_file_without_rows_is_empty(tmp_path):
    header_only = tmp_path / "header.csv"
    header_only.write_text(",".join(TRAJECTORY_COLUMNS) + "\n", encoding="utf-8")
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    for path in (header_only, empty):
        assert summary_from_trajectory_csv(path, AccParams()) == {
            "min_h": None, "event_count": 0, "infeasible_events": 0,
            "effort": 0.0, "mean_abs_du": 0.0,
        }


def dict_reader_summary(path: Path) -> dict:
    """The summary of a trajectory CSV parsed with ``csv.DictReader``, one
    Python object per cell, with the summary's reductions."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    t, v, u, h = (np.array([float(row[key]) for row in rows]) for key in "tvuh")
    event_index = np.array([int(row["event_index"]) for row in rows])
    feasible = np.array([row["feasible"] == "1" for row in rows])
    first_of_event = np.r_[True, event_index[1:] != event_index[:-1]]
    du = np.abs(np.diff(u[first_of_event]))
    return {
        "min_h": float(fmt(h.min())),
        "event_count": int(event_index.max()) + 1,
        "infeasible_events": int(np.sum(~feasible[first_of_event])),
        "effort": float(fmt(np.trapezoid(effort_integrand(u, v, AccParams()), t))),
        "mean_abs_du": float(fmt(np.mean(du))) if du.size else 0.0,
    }


@pytest.mark.parametrize("n_rows, starts, columns", [
    (1, [0], TRAJECTORY_COLUMNS),
    (300, [0, 5, 150, 151], TRAJECTORY_COLUMNS[::-1]),
], ids=["one_row", "permuted_columns"])
def test_summary_matches_a_dict_reader(tmp_path, n_rows, starts, columns):
    """The summary finds its columns by header name, in any order, and a
    file with one data row still gives one-row columns."""
    written = tmp_path / "written.csv"
    write_trajectory_csv(written, synthetic_log(n_rows, starts))
    with open(written, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    path = tmp_path / "trajectory.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    summary = summary_from_trajectory_csv(path, AccParams())
    assert summary == dict_reader_summary(path)
    assert summary == summary_from_trajectory_csv(written, AccParams())
    assert summary["event_count"] == len(starts)


def test_a_long_log_is_written_and_summarised_in_bounded_memory(tmp_path):
    """100,000 rows: the writer holds one block of rows and the summary one
    block plus its six typed columns (41 B a row), so the traced peak stays
    under 8 MB, where rows held as strings take 600-800 B each."""
    n_rows = 100_000
    log = synthetic_log(n_rows, list(range(0, n_rows, 37)))
    path = tmp_path / "long_trajectory.csv"

    def write_and_summarise():
        write_trajectory_csv(path, log)
        return summary_from_trajectory_csv(path, AccParams())

    start = time.perf_counter()
    summary = write_and_summarise()
    assert time.perf_counter() - start < 2.0
    assert summary["event_count"] == len(log.events)
    tracemalloc.start()
    try:
        assert write_and_summarise() == summary
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
