"""Output checks applied to every benchmark operation.

Each check returns a list of problems; an empty list means the operation's
output is correct.  Pinned runs are compared with fingerprints recorded by
``record_reference.py``; seeded runs are checked against the controller's
own invariants.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import atlc
# bound now, before the traced run wraps atlc.cli's binding, so that the
# check's own recomputation is not counted as program work
from atlc.cli import summary_from_trajectory_csv

U_TOL = 1e-9  # relative; absolute below |u| = 1
MARGIN_TOL = 1e-9  # same convention for margin values


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def fingerprint(code: int, log) -> dict:
    """Event count, tau sequence, applied inputs and exit code of one run."""
    return {
        "exit": code,
        "events": len(log.events),
        "tau": [e.tau for e in log.events],
        "u": [e.u for e in log.events],
    }


def check_fingerprint(found: dict, ref: dict) -> list[str]:
    problems = []
    if found["exit"] != ref["exit"]:
        problems.append(f"exit code {found['exit']} != reference {ref['exit']}")
    if found["events"] != ref["events"]:
        problems.append(f"{found['events']} events != reference {ref['events']}")
        return problems
    bad_tau = [i for i, (a, b) in enumerate(zip(found["tau"], ref["tau"])) if a != b]
    if bad_tau:
        problems.append(f"tau differs from reference at event {bad_tau[0]}")
    bad_u = [i for i, (a, b) in enumerate(zip(found["u"], ref["u"]))
             if not close(a, b, U_TOL)]
    if bad_u:
        i = bad_u[0]
        problems.append(
            f"u differs from reference at event {i}: {found['u'][i]!r} vs {ref['u'][i]!r}"
        )
    return problems


def check_loop(code: int, summary: dict, log, scenario: dict,
               cfg, out_dir: Path) -> list[str]:
    """Invariants every closed-loop run must satisfy."""
    problems = []
    if code == 3:
        problems.append(f"aborted: {summary.get('status')}")
    if log is None:
        return problems + ["no trajectory log was produced"]
    if summary["infeasible_events"] == 0 and summary["min_h"] is not None \
            and summary["min_h"] < 0.0:
        problems.append(f"min_h {summary['min_h']} < 0 with every event feasible")
    sid = scenario["id"]
    recomputed = summary_from_trajectory_csv(out_dir / f"{sid}_trajectory.csv",
                                             cfg.params)
    recomputed.update({"id": sid, "kind": cfg.kind.name, "T": cfg.T,
                       "status": summary["status"]})
    written = json.loads((out_dir / f"{sid}_summary.json").read_text(encoding="utf-8"))
    if written != recomputed:
        problems.append("summary.json differs from its recomputation from the CSV")
    problems += check_containment(log, cfg)
    return problems


def check_containment(log, cfg) -> list[str]:
    """Every dense sample logged before a trigger lies in its event box,
    inflated by the integrator's absolute tolerance."""
    tol = cfg.integrator_cfg.abs_tol
    states = np.column_stack([log.z, log.v])
    for event in log.events:
        rows = states[log.event_index == event.index]
        box = atlc.make_box(event.x, cfg.box_under, cfg.box_over)
        inside = np.all((rows >= box.lower - tol) & (rows <= box.upper + tol), axis=1)
        if not np.all(inside):
            return [f"dense sample outside the box of event {event.index}"]
    return []


def check_scan(result, ref: dict | None) -> list[str]:
    """tau_star is the first grid point with nonnegative margin; reference
    states also match their recorded margin row."""
    problems = []
    values = np.asarray(result.values)
    if not np.all(np.isfinite(values)):
        problems.append("non-finite margin value")
    feasible = np.flatnonzero(values >= 0.0)
    expected = float(result.tau_grid[feasible[0]]) if feasible.size else None
    if result.tau_star != expected:
        problems.append(f"tau_star {result.tau_star} is not the first feasible "
                        f"grid point {expected}")
    if ref is not None:
        if result.tau_star != ref["tau_star"]:
            problems.append(f"tau_star {result.tau_star} != reference {ref['tau_star']}")
        if len(values) != len(ref["values"]) or not all(
                close(a, b, MARGIN_TOL) for a, b in zip(values, ref["values"])):
            problems.append("margin row differs from reference")
    return problems


def scan_record(result) -> dict:
    return {"tau_star": result.tau_star, "values": [float(v) for v in result.values]}
