"""Scenario runner and comparison harness.

Scenarios are flat JSON files; missing keys fall back to the case-study
defaults and unknown keys are rejected.  All outputs are UTF-8 CSV with LF
line endings and floats printed to 9 significant digits, so identical
configs reproduce byte-identical files.  Summary statistics are computed
from the rounded values as they appear in the trajectory CSV, which makes
the summary exactly reproducible by re-parsing the CSV.

Exit codes: 0 clean run, 1 bad config, 2 safety violated (min h < 0),
3 aborted (Zeno diagnostic or integrator failure).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .controller import (
    ControllerConfig,
    ControllerKind,
    SimulationError,
    TrajectoryLog,
    ZenoError,
    effort_integrand,
    simulate_closed_loop,
)
from .margin import tau_star_scan
from .model import AccParams, acc_model, make_state
from .robust_bounds import make_box
from .tau_select import TauSelectConfig, candidate_taus

TRAJECTORY_COLUMNS = [
    "t", "z", "v", "u", "tau", "h", "V", "delta",
    "event_index", "feasible", "dt_inter_event",
]
EVENT_COLUMNS = [
    "event_index", "t", "z", "v", "tau", "u", "feasible", "delta",
    "margin", "dt_inter_event",
]

DEFAULTS = {
    "vp": 13.89, "vd": 24.0, "M": 1650.0, "f0": 0.1, "f1": 5.0, "f2": 0.25,
    "lp": 10.0, "c3": 2.0, "w": 1.0e5, "ca": 0.4, "cd": 0.4,
    "tau_min": 0.05, "tau_max": 2.0, "n_tau": 40, "T_look": 1.0,
    "box_under": 0.5, "box_over": 0.5, "T": 30.0, "kind": "atlc",
    "tau_fixed": 0.5, "tlc_robust": True, "objective": "acc_effort",
    "clf_form": "quadratic", "z0": 90.0, "v0": 15.0,
}
OPTIONAL_KEYS = {"id", "p1", "p2"}
KNOWN_KEYS = set(DEFAULTS) | OPTIONAL_KEYS


class ConfigError(ValueError):
    pass


def fmt(value) -> str:
    """Fixed 9-significant-digit float formatting; empty for missing values."""
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def load_scenario(path: Path, overrides: dict | None = None) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    merged = dict(DEFAULTS)
    merged.update(raw)
    if overrides:
        bad = sorted(set(overrides) - KNOWN_KEYS)
        if bad:
            raise ConfigError(f"override keys {bad} are not recognized")
        merged.update(overrides)
    merged.setdefault("id", path.stem)
    return merged


def _radii(value) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(2, arr[0])
    if arr.shape != (2,):
        raise ConfigError("box radii must be a scalar or a pair")
    return arr


def build_controller_config(scenario: dict) -> ControllerConfig:
    kind_name = scenario["kind"]
    try:
        if kind_name in ("tlc", "tlc_fixed"):
            kind = ControllerKind.tlc_fixed(
                float(scenario["tau_fixed"]), robust=bool(scenario["tlc_robust"])
            )
        elif kind_name == "hocbf":
            if "p1" not in scenario or "p2" not in scenario:
                raise ConfigError("kind 'hocbf' requires keys p1 and p2")
            kind = ControllerKind.hocbf(float(scenario["p1"]), float(scenario["p2"]))
        elif kind_name == "atlc":
            kind = ControllerKind.atlc()
        else:
            raise ConfigError(f"unknown kind {kind_name!r}")
        params = AccParams(
            M=float(scenario["M"]), vp=float(scenario["vp"]),
            vd=float(scenario["vd"]), f0=float(scenario["f0"]),
            f1=float(scenario["f1"]), f2=float(scenario["f2"]),
            lp=float(scenario["lp"]), ca=float(scenario["ca"]),
            cd=float(scenario["cd"]), c3=float(scenario["c3"]),
            w=float(scenario["w"]),
        )
        tau_cfg = TauSelectConfig(
            tau_min=float(scenario["tau_min"]),
            tau_max=float(scenario["tau_max"]),
            n_candidates=int(scenario["n_tau"]),
            T_look=float(scenario["T_look"]),
        )
        return ControllerConfig(
            kind=kind,
            params=params,
            box_under=_radii(scenario["box_under"]),
            box_over=_radii(scenario["box_over"]),
            tau_cfg=tau_cfg,
            T=float(scenario["T"]),
            objective=str(scenario["objective"]),
            clf_form=str(scenario["clf_form"]),
            z0=float(scenario["z0"]),
            v0=float(scenario["v0"]),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario value: {exc}") from exc


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(path: Path, log: TrajectoryLog) -> None:
    events_by_index = {e.index: e for e in log.events}
    seen: set[int] = set()
    rows = []
    for i in range(log.t.size):
        k = int(log.event_index[i])
        event = events_by_index[k]
        is_event_row = k not in seen
        seen.add(k)
        rows.append([
            fmt(log.t[i]), fmt(log.z[i]), fmt(log.v[i]), fmt(log.u[i]),
            fmt(event.tau) if is_event_row else "",
            fmt(log.h[i]), fmt(log.V[i]), fmt(log.delta[i]),
            str(k), fmt(bool(log.feasible[i])),
            fmt(event.dt_inter_event) if is_event_row else "",
        ])
    _write_csv(path, TRAJECTORY_COLUMNS, rows)


def write_events_csv(path: Path, log: TrajectoryLog) -> None:
    rows = [
        [str(e.index), fmt(e.t), fmt(e.x[0]), fmt(e.x[1]), fmt(e.tau),
         fmt(e.u), fmt(e.feasible), fmt(e.delta), fmt(e.margin),
         fmt(e.dt_inter_event)]
        for e in log.events
    ]
    _write_csv(path, EVENT_COLUMNS, rows)


def write_candidates_csv(path: Path, tables) -> None:
    rows = []
    for k, t, table in tables:
        for entry in table:
            rows.append([
                str(k), fmt(t), fmt(entry.tau), fmt(entry.feasible),
                fmt(entry.min_h_pred if math.isfinite(entry.min_h_pred) else None),
                fmt(entry.qp_objective if math.isfinite(entry.qp_objective) else None),
            ])
    _write_csv(
        path,
        ["event_index", "t", "tau", "feasible", "min_h_pred", "qp_objective"],
        rows,
    )


def summary_from_trajectory_csv(path: Path, params: AccParams) -> dict:
    """Recompute the summary record from an emitted trajectory CSV.

    Works entirely on the rounded values stored in the file; the CLI uses
    the same routine to produce summary.json, so re-parsing reproduces it
    exactly.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        return {
            "min_h": None, "event_count": 0, "infeasible_events": 0,
            "effort": 0.0, "mean_abs_du": 0.0,
        }
    t = np.array([float(r["t"]) for r in rows])
    v = np.array([float(r["v"]) for r in rows])
    u = np.array([float(r["u"]) for r in rows])
    h = np.array([float(r["h"]) for r in rows])
    event_index = np.array([int(r["event_index"]) for r in rows])
    feasible = np.array([r["feasible"] == "1" for r in rows])

    effort = float(np.trapezoid(effort_integrand(u, v, params), t))

    first_of_event = np.ones(len(rows), dtype=bool)
    first_of_event[1:] = event_index[1:] != event_index[:-1]
    event_u = u[first_of_event]
    mean_abs_du = (
        float(np.mean(np.abs(np.diff(event_u)))) if event_u.size > 1 else 0.0
    )
    n_events = int(event_index.max()) + 1 if rows else 0
    infeasible = int(np.sum(~feasible[first_of_event]))
    return {
        "min_h": float(fmt(h.min())),
        "event_count": n_events,
        "infeasible_events": infeasible,
        "effort": float(fmt(effort)),
        "mean_abs_du": float(fmt(mean_abs_du)),
    }


def run_scenario(scenario: dict, out_dir: Path, trace_candidates: bool = False):
    """Simulate one scenario and write its output files.

    Returns (exit_code, summary dict or None).
    """
    cfg = build_controller_config(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    sid = scenario["id"]
    status = "ok"
    try:
        log = simulate_closed_loop(cfg)
    except (ZenoError, SimulationError) as exc:
        log = exc.log
        status = f"aborted: {exc}"
    traj_path = out_dir / f"{sid}_trajectory.csv"
    write_trajectory_csv(traj_path, log)
    write_events_csv(out_dir / f"{sid}_events.csv", log)
    if trace_candidates:
        tables = [
            (e.index, e.t, e.table) for e in log.events if e.table is not None
        ]
        write_candidates_csv(out_dir / f"{sid}_candidates.csv", tables)
    summary = summary_from_trajectory_csv(traj_path, cfg.params)
    summary.update({"id": sid, "kind": cfg.kind.name, "T": cfg.T, "status": status})
    with open(out_dir / f"{sid}_summary.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if status != "ok":
        return 3, summary
    if summary["min_h"] < 0.0:
        return 2, summary
    return 0, summary


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} must look like key=value")
        key, _, value = pair.partition("=")
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    return overrides


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(Path(args.config), _parse_overrides(args.set))
        code, summary = run_scenario(
            scenario, Path(args.out), trace_candidates=args.trace_candidates
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    min_h = summary["min_h"]
    print(
        f"{summary['id']}: min_h={'n/a' if min_h is None else format(min_h, '.6g')} "
        f"events={summary['event_count']} "
        f"infeasible={summary['infeasible_events']} status={summary['status']}"
    )
    return code


def cmd_compare(args) -> int:
    directory = Path(args.dir)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        print(f"error: no scenario files in {directory}", file=sys.stderr)
        return 1
    try:
        scenarios = [load_scenario(p) for p in paths]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    by_id: dict[str, Path] = {}
    for scenario, path in zip(scenarios, paths):
        sid = scenario["id"]
        if sid in by_id:
            print(
                f"error: duplicate scenario id {sid!r} in {by_id[sid]} and {path}",
                file=sys.stderr,
            )
            return 1
        by_id[sid] = path
    # validate every config before the first run starts
    try:
        for scenario in scenarios:
            build_controller_config(scenario)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    worst = 0
    for scenario in scenarios:
        code, summary = run_scenario(scenario, out_dir)
        worst = 3 if code == 3 else worst
        results.append(summary)

    rows = [
        [s["id"], s["kind"], fmt(s["min_h"]), str(s["infeasible_events"]),
         str(s["event_count"]), fmt(s["effort"]), fmt(s["mean_abs_du"])]
        for s in results
    ]
    _write_csv(
        out_dir / "comparison.csv",
        ["scenario", "kind", "min_h", "infeasible_events", "event_count",
         "effort", "mean_abs_du"],
        rows,
    )
    header = (
        f"{'scenario':<24}{'kind':<11}{'min_h':>12}{'infeas':>8}"
        f"{'events':>8}{'effort':>12}{'mean|du|':>12}"
    )
    print(header)
    print("-" * len(header))
    for s in results:
        min_h = "n/a" if s["min_h"] is None else format(s["min_h"], ".4g")
        print(
            f"{s['id']:<24}{s['kind']:<11}{min_h:>12}"
            f"{s['infeasible_events']:>8}{s['event_count']:>8}"
            f"{s['effort']:>12.4g}{s['mean_abs_du']:>12.4g}"
        )
    return worst


def cmd_margin_map(args) -> int:
    try:
        scenario = load_scenario(Path(args.config))
        cfg = build_controller_config(scenario)
        x = make_state(args.z, args.v)
        tc = cfg.tau_cfg
        grid = candidate_taus(TauSelectConfig(
            tau_min=tc.tau_min if args.tau_min is None else args.tau_min,
            tau_max=tc.tau_max if args.tau_max is None else args.tau_max,
            n_candidates=tc.n_candidates if args.n_tau is None else args.n_tau,
        ))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    model = acc_model(cfg.params, cfg.clf_form)
    box = make_box(x, cfg.box_under, cfg.box_over)
    result = tau_star_scan(box, grid, model, cfg.bound_cfg)
    rows = [
        [fmt(tau), fmt(value), fmt(value >= 0.0), fmt(result.tau_star)]
        for tau, value in zip(result.tau_grid, result.values)
    ]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ["tau", "margin", "feasible", "tau_star"], rows)
    star = "none" if result.tau_star is None else f"{result.tau_star:.6g}"
    print(f"wrote {len(rows)} rows to {out}; tau_star={star}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="atlc",
        description="Event-triggered adaptive Taylor-Lagrange cruise-control "
                    "simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--trace-candidates", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run a directory of scenarios")
    p_cmp.add_argument("--dir", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_map = sub.add_parser("margin-map", help="margin over a time-scale grid")
    p_map.add_argument("--config", required=True)
    p_map.add_argument("--z", type=float, required=True)
    p_map.add_argument("--v", type=float, required=True)
    p_map.add_argument("--out", required=True)
    p_map.add_argument("--tau-min", type=float, default=None)
    p_map.add_argument("--tau-max", type=float, default=None)
    p_map.add_argument("--n-tau", type=int, default=None)
    p_map.set_defaults(func=cmd_margin_map)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
