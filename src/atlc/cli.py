"""Scenario runner and comparison harness.

Scenarios are flat JSON files; a missing key keeps the default of the
config field it sets, and an unknown key is rejected.  All outputs are
UTF-8 CSV with LF line endings and floats printed to 9 significant digits,
so identical configs reproduce byte-identical files.  Summary statistics
are computed from the rounded values as they appear in the trajectory CSV,
which makes the summary exactly reproducible by re-parsing the CSV.

The writers stream their rows to ``csv.writer``: the trajectory CSV is
formatted ``BLOCK_ROWS`` samples at a time, and the events and candidates
CSVs one event at a time.  The summary reads the trajectory CSV back with
``np.loadtxt``, which parses only the six columns it uses, found by header
name, into one structured array (41 B a row), whatever the run's length.

Exit codes: 0 clean run, 1 bad config or unwritable output path, 2 safety
violated (min h < 0), 3 aborted (Zeno diagnostic or integrator failure).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .controller import (
    ControllerConfig,
    ControllerKind,
    SimulationError,
    TrajectoryLog,
    simulate_closed_loop,
)
from .margin import tau_star_scan
from .model import AccParams, effort_integrand, make_state
from .robust_bounds import make_box, taylor_table
from .tau_select import TauSelectConfig, candidate_taus, with_predictions

TRAJECTORY_COLUMNS = [
    "t", "z", "v", "u", "tau", "h", "V", "delta",
    "event_index", "feasible", "dt_inter_event",
]
EVENT_COLUMNS = [
    "event_index", "t", "z", "v", "tau", "u", "feasible", "delta",
    "margin", "dt_inter_event",
]
# the trajectory columns the summary reads, each with the type it is parsed to
SUMMARY_DTYPE = np.dtype([("t", "f8"), ("v", "f8"), ("u", "f8"), ("h", "f8"),
                          ("event_index", "i8"), ("feasible", "?")])
# trajectory rows formatted at a time
BLOCK_ROWS = 128

PARAM_KEYS = ("M", "vp", "vd", "f0", "f1", "f2", "lp", "ca", "cd", "c3", "w")
FLOAT_KEYS = PARAM_KEYS + (
    "tau_min", "tau_max", "T_look", "T", "z0", "v0", "tau_fixed", "p1", "p2")
KNOWN_KEYS = set(FLOAT_KEYS) | {
    "n_tau", "box_under", "box_over", "kind", "tlc_robust", "id"}
# the keys only one controller kind reads; a scenario without a kind is "atlc"
KIND_KEYS = {
    "atlc": ("tau_min", "tau_max", "n_tau", "T_look"),
    "tlc_fixed": ("tau_fixed", "tlc_robust"),
    "hocbf": ("p1", "p2"),
}


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
    merged = dict(raw)
    if overrides:
        bad = sorted(set(overrides) - KNOWN_KEYS)
        if bad:
            raise ConfigError(f"override keys {bad} are not recognized")
        merged.update(overrides)
    merged.setdefault("id", path.stem)
    sid = merged["id"]
    # the id names the output files, so it may not leave the output directory
    if (not isinstance(sid, str) or sid in ("", ".", "..")
            or "/" in sid or "\\" in sid or "\0" in sid):
        raise ConfigError(f"{path}: id must be a plain file-name stem, got {sid!r}")
    return merged


def _number(key: str, value) -> float:
    """A JSON number, not a boolean, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _radii(key: str, value) -> np.ndarray:
    values = value if isinstance(value, list) else [value]
    arr = np.array([_number(key, v) for v in values])
    if arr.size == 1:
        arr = np.full(2, arr[0])
    if arr.shape != (2,):
        raise ConfigError(f"{key} must be a number or a pair")
    return arr


def _kind(scenario: dict, num: dict) -> dict:
    """The kind argument of ControllerConfig, empty when the scenario names
    no kind; a key that only another kind reads is an error."""
    kind_name = scenario.get("kind", "atlc")
    if not isinstance(kind_name, str) or kind_name not in KIND_KEYS:
        raise ConfigError(f"unknown kind {kind_name!r}")
    foreign = sorted(key for name, keys in KIND_KEYS.items() if name != kind_name
                     for key in keys if key in scenario)
    if foreign:
        raise ConfigError(f"keys {foreign} do not apply to kind {kind_name!r}")
    if "kind" not in scenario:
        return {}
    if kind_name == "tlc_fixed":
        fixed = {}
        if "tlc_robust" in scenario:
            robust = scenario["tlc_robust"]
            if not isinstance(robust, bool):
                raise ConfigError(f"tlc_robust must be true or false, got {robust!r}")
            fixed["robust"] = robust
        if "tau_fixed" in num:
            fixed["tau"] = num["tau_fixed"]
        return {"kind": ControllerKind.tlc_fixed(**fixed)}
    if kind_name == "hocbf":
        return {"kind": ControllerKind.hocbf(num.get("p1"), num.get("p2"))}
    return {"kind": ControllerKind.atlc()}


def build_controller_config(scenario: dict) -> ControllerConfig:
    """The config a scenario describes: each key it gives sets one field,
    and each key it leaves out keeps that field's default."""
    try:
        num = {key: _number(key, scenario[key])
               for key in FLOAT_KEYS if key in scenario}
        fields = _kind(scenario, num)
        tau = {key: num[key] for key in ("tau_min", "tau_max", "T_look") if key in num}
        if "n_tau" in scenario:
            n_tau = _number("n_tau", scenario["n_tau"])
            if not n_tau.is_integer():
                raise ConfigError(f"n_tau must be an integer, got {scenario['n_tau']!r}")
            tau["n_candidates"] = int(n_tau)
        fields.update((key, _radii(key, scenario[key]))
                      for key in ("box_under", "box_over") if key in scenario)
        fields.update((key, num[key]) for key in ("T", "z0", "v0") if key in num)
        cfg = ControllerConfig(
            params=AccParams(**{key: num[key] for key in PARAM_KEYS if key in num}),
            tau_cfg=TauSelectConfig(**tau), **fields,
        )
        # the Taylor weights of every time scale the controller uses are finite
        kind = cfg.kind
        if kind.name != "hocbf":
            taus = candidate_taus(cfg.tau_cfg) if kind.name == "atlc" else [kind.tau_fixed]
            taylor_table(taus, cfg.model.m)
        # no overflow in the model at the start state (its rhs: L_f h, the effort)
        model, x = cfg.model, make_state(cfg.z0, cfg.v0)
        with np.errstate(over="raise", invalid="raise"):
            values = [model.lie_stack(x), *model.clf_terms(x), *model.cost(x),
                      effort_integrand(np.array([model.u_min, model.u_max]), x[1], cfg.params)]
        if not all(np.isfinite(v).all() for v in values):
            raise FloatingPointError("a value is not finite")
        return cfg
    except ConfigError:
        raise
    except FloatingPointError as exc:  # not a ValueError
        raise ConfigError(f"invalid scenario value: the model overflows at the "
                          f"start state: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid scenario value: {exc}") from exc


def _make_out_dir(path: Path) -> None:
    """Create the output directory ``path``, or raise a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot create output directory: {exc}") from exc


def _check_output_names(out_dir: Path, ids) -> None:
    """Raise a ConfigError when a scenario's longest output name,
    ``<id>_candidates.csv``, cannot name a file in ``out_dir``: the limit is
    that of ``out_dir``, or of its nearest existing parent before it is made."""
    directory = next((p for p in (out_dir, *out_dir.parents) if os.path.isdir(p)), out_dir)
    try:
        limit = os.pathconf(directory, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):  # no pathconf, or no such limit
        limit = 255
    for sid in ids:
        name = f"{sid}_candidates.csv"
        try:
            size = len(os.fsencode(name))
        except UnicodeEncodeError as exc:
            raise ConfigError(f"id {sid!r} cannot name a file: {exc}") from exc
        if size > limit > 0:
            raise ConfigError(f"id {sid!r} cannot name a file: the output name "
                              f"is {size} bytes, over the limit of {limit} in {directory}")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt_floats(values: np.ndarray) -> list[str]:
    """fmt of each entry of a float array, through Python floats."""
    return ["" if x != x else f"{x:.9g}" for x in values.tolist()]


def _trajectory_rows(log: TrajectoryLog):
    """The trajectory CSV rows, formatted one block of samples at a time."""
    # each event's input, slack and feasibility, formatted once
    held = [(fmt(e.u), fmt(e.delta), fmt(e.feasible)) for e in log.events]
    previous = None
    for start in range(0, len(log.t), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        columns = (_fmt_floats(c[block]) for c in (log.t, log.z, log.v, log.h, log.V))
        for t, z, v, h, V, k in zip(*columns, log.event_index[block].tolist()):
            event = log.events[k]
            u, delta, feasible = held[k]
            is_event_row = k != previous
            previous = k
            yield [
                t, z, v, u, fmt(event.tau) if is_event_row else "", h, V, delta,
                str(k), feasible, fmt(event.dt_inter_event) if is_event_row else "",
            ]


def write_trajectory_csv(path: Path, log: TrajectoryLog) -> None:
    _write_csv(path, TRAJECTORY_COLUMNS, _trajectory_rows(log))


def write_events_csv(path: Path, log: TrajectoryLog) -> None:
    rows = (
        [str(e.index), fmt(e.t), fmt(e.x[0]), fmt(e.x[1]), fmt(e.tau),
         fmt(e.u), fmt(e.feasible), fmt(e.delta), fmt(e.margin),
         fmt(e.dt_inter_event)]
        for e in log.events
    )
    _write_csv(path, EVENT_COLUMNS, rows)


def _candidate_rows(log: TrajectoryLog, cfg: ControllerConfig):
    for e in log.events:
        if e.table is None:
            continue
        table = with_predictions(e.table, e.x, cfg.tau_cfg.T_look, cfg.model)
        for tau, feasible, pred, objective in zip(
                table.tau.tolist(), table.feasible.tolist(),
                table.min_h_pred.tolist(), table.qp_objective.tolist()):
            yield [str(e.index), fmt(e.t), fmt(tau), fmt(feasible), fmt(pred),
                   fmt(objective if feasible else None)]


def write_candidates_csv(path: Path, log: TrajectoryLog, cfg: ControllerConfig) -> None:
    """Candidate table of every adaptive event, with the predictions that
    one-input decisions leave uncomputed computed here."""
    _write_csv(
        path,
        ["event_index", "t", "tau", "feasible", "min_h_pred", "qp_objective"],
        _candidate_rows(log, cfg),
    )


def summary_from_trajectory_csv(path: Path, params: AccParams) -> dict:
    """Recompute the summary record from an emitted trajectory CSV.

    Works entirely on the rounded values stored in the file; the CLI uses
    the same routine to produce summary.json, so re-parsing reproduces it
    exactly.  Only the six columns the summary uses are parsed.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if not fh.readline():
            return {
                "min_h": None, "event_count": 0, "infeasible_events": 0,
                "effort": 0.0, "mean_abs_du": 0.0,
            }
        fh.seek(0)
        rows = np.loadtxt(fh, SUMMARY_DTYPE, comments=None, delimiter=",", skiprows=1,
                          usecols=[header.index(k) for k in SUMMARY_DTYPE.names], ndmin=1)
    t, v, u, h, event_index, feasible = (rows[name] for name in SUMMARY_DTYPE.names)

    effort = float(np.trapezoid(effort_integrand(u, v, params), t))

    first_of_event = np.ones(len(t), dtype=bool)
    first_of_event[1:] = event_index[1:] != event_index[:-1]
    event_u = u[first_of_event]
    mean_abs_du = (
        float(np.mean(np.abs(np.diff(event_u)))) if event_u.size > 1 else 0.0
    )
    n_events = int(event_index.max()) + 1
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
    _make_out_dir(out_dir)
    sid = scenario["id"]
    status = "ok"
    try:
        log = simulate_closed_loop(cfg)
    except SimulationError as exc:
        log = exc.log
        status = f"aborted: {exc}"
    traj_path = out_dir / f"{sid}_trajectory.csv"
    write_trajectory_csv(traj_path, log)
    write_events_csv(out_dir / f"{sid}_events.csv", log)
    if trace_candidates:
        write_candidates_csv(out_dir / f"{sid}_candidates.csv", log, cfg)
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
    scenario = load_scenario(Path(args.config), _parse_overrides(args.set))
    _check_output_names(Path(args.out), [scenario["id"]])
    code, summary = run_scenario(
        scenario, Path(args.out), trace_candidates=args.trace_candidates
    )
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
        raise ConfigError(f"no scenario files in {directory}")
    scenarios = [load_scenario(p) for p in paths]
    by_id: dict[str, Path] = {}
    for scenario, path in zip(scenarios, paths):
        sid = scenario["id"]
        if sid in by_id:
            raise ConfigError(
                f"duplicate scenario id {sid!r} in {by_id[sid]} and {path}")
        by_id[sid] = path
    # validate every config and the output directory before the first run
    for scenario in scenarios:
        build_controller_config(scenario)
    out_dir = Path(args.out)
    _check_output_names(out_dir, by_id)
    _make_out_dir(out_dir)

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
    grid_flags = {"tau_min": args.tau_min, "tau_max": args.tau_max,
                  "n_tau": args.n_tau}
    try:
        scenario = load_scenario(Path(args.config), {
            key: value for key, value in grid_flags.items() if value is not None})
        cfg = build_controller_config(scenario)
        if cfg.kind.name != "atlc":
            raise ConfigError("margin-map maps the margin of kind 'atlc', "
                              f"not of kind {cfg.kind.name!r}")
        x = make_state(args.z, args.v)
        out = Path(args.out)
        if os.path.isdir(out):
            raise ConfigError(f"{out}: is a directory, not a file to write")
        _make_out_dir(out.parent)
    except ValueError as exc:  # a ConfigError, or a non-finite state
        print(f"error: {exc}", file=sys.stderr)
        return 1
    box = make_box(x, cfg.box_under, cfg.box_over)
    result = tau_star_scan(box, candidate_taus(cfg.tau_cfg), cfg.model, cfg.bound_cfg)
    rows = [
        [fmt(tau), fmt(value), fmt(value >= 0.0), fmt(result.tau_star)]
        for tau, value in zip(result.tau_grid, result.values)
    ]
    try:
        _write_csv(out, ["tau", "margin", "feasible", "tau_star"], rows)
    except OSError as exc:
        raise ConfigError(f"{out}: cannot write the margin map: {exc}") from exc
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
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
