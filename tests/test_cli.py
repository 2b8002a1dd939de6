"""Scenario runner: exit codes, CSV schemas, determinism, round trips."""

import csv
import json
from pathlib import Path

import pytest

from atlc import AccParams
from atlc.cli import TRAJECTORY_COLUMNS, main, summary_from_trajectory_csv


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


def test_hocbf_requires_rates(tmp_path):
    cfg = write_config(tmp_path / "h.json", kind="hocbf", T=1.0)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1


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
])
def test_run_rejects_bad_box_or_start(tmp_path, capsys, override):
    cfg = write_config(tmp_path / "s.json", kind="atlc", T=1.0)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--set", override]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("kind, override", [
    ({"kind": "tlc_fixed"}, "tau_fixed=NaN"),
    ({"kind": "tlc_fixed"}, "tau_fixed=Infinity"),
    ({"kind": "tlc_fixed"}, "tau_fixed=0"),
    ({"kind": "hocbf", "p1": 0.3, "p2": 0.3}, "p1=NaN"),
])
def test_run_rejects_non_finite_kind_setting(tmp_path, capsys, kind, override):
    cfg = write_config(tmp_path / "s.json", T=1.0, **kind)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--set", override]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


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


@pytest.mark.parametrize("grid_args", [
    ["--n-tau", "0"], ["--n-tau", "-3"], ["--tau-min", "0"],
    ["--tau-min", "1.5", "--tau-max", "0.5"],
])
def test_margin_map_rejects_bad_grid(tmp_path, capsys, grid_args):
    cfg = write_config(tmp_path / "s.json", kind="atlc")
    out = tmp_path / "map.csv"
    assert main(["margin-map", "--config", str(cfg), "--z", "90", "--v", "15",
                 "--out", str(out), *grid_args]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_trace_candidates(tmp_path):
    cfg = write_config(tmp_path / "s.json", kind="atlc", T=0.3)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--trace-candidates"])
    assert code == 0
    with open(tmp_path / "out" / "s_candidates.csv", encoding="utf-8",
              newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((tmp_path / "out" / "s_summary.json").read_text())
    assert len(rows) == 40 * summary["event_count"]
    assert all(r["feasible"] == "1" for r in rows)
