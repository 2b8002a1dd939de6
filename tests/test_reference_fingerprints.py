"""Every pinned closed loop reproduces the benchmark's fingerprints.

``perfbench/reference.json`` holds the event count, the tau sequence and the
applied inputs of the pinned scenarios: the adaptive loops, the robust
fixed-scale loops (which solve the robust rows one time scale at a time)
and the barrier baselines.  It also holds the margin rows of the 32 fixed
states of the margin scan.  Running them here, with the benchmark's own
check (tau exact, u and margins within 1e-9), makes a change that flips a
decision or moves a margin fail in the tests and not only in the benchmark.
The loops are those of the session's one ``atlc compare`` run
(``case_study`` in ``conftest.py``), with the exit code each scenario gave.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import atlc
from atlc import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


CHECKS = benchmark_module("checks")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


ADAPTIVE = ["atlc_cd04", "atlc_cd03"]


def case_study_scan():
    """The margin scan of the benchmark: the case study's box, tau grid and
    bound lattice around each state."""
    cfg = cli.build_controller_config(
        cli.load_scenario(ROOT / "scenarios" / "atlc_cd04.json"))
    model = atlc.acc_model(cfg.params, cfg.clf_form)
    tc = cfg.tau_cfg
    grid = np.linspace(tc.tau_min, tc.tau_max, tc.n_candidates)

    def scan(z, v):
        box = atlc.make_box(atlc.make_state(z, v), cfg.box_under, cfg.box_over)
        return atlc.tau_star_scan(box, grid, model, cfg.bound_cfg)
    return scan


@pytest.mark.parametrize("name", ADAPTIVE)
def test_adaptive_loop_matches_reference(name, case_study):
    run = case_study.runs[name]
    found = CHECKS.fingerprint(run.code, run.log)
    assert CHECKS.check_fingerprint(found, REFERENCE["loops"][name]) == []


@pytest.mark.parametrize("name", sorted(set(REFERENCE["loops"]) - set(ADAPTIVE)))
def test_baseline_loop_matches_reference(name, case_study):
    run = case_study.runs[name]
    found = CHECKS.fingerprint(run.code, run.log)
    assert CHECKS.check_fingerprint(found, REFERENCE["loops"][name]) == []


def test_margin_scan_matches_reference():
    states = benchmark_module("workloads").reference_scan_states()
    assert len(states) == len(REFERENCE["scan"]) == 32
    scan = case_study_scan()
    for (z, v), ref in zip(states, REFERENCE["scan"]):
        assert CHECKS.check_scan(scan(z, v), ref) == [], (z, v)
