"""Every pinned closed loop reproduces the benchmark's fingerprints.

``perfbench/reference.json`` holds the event count, the tau sequence and the
applied inputs of the pinned scenarios: the adaptive loops, the robust
fixed-scale loops (which solve the robust rows one time scale at a time)
and the barrier baselines.  Running them here, with the benchmark's own
check (tau exact, u within 1e-9), makes a change that flips a decision fail
in the tests and not only in the benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from atlc import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def benchmark_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


ADAPTIVE = ["atlc_cd04", "atlc_cd03"]


def check_loop(name, tmp_path, monkeypatch):
    checks = benchmark_checks()
    simulate = cli.simulate_closed_loop
    logs = []

    def capturing(cfg):
        logs.append(simulate(cfg))
        return logs[-1]

    monkeypatch.setattr(cli, "simulate_closed_loop", capturing)
    scenario = cli.load_scenario(ROOT / "scenarios" / f"{name}.json")
    code, _ = cli.run_scenario(scenario, tmp_path)
    found = checks.fingerprint(code, logs[0])
    assert checks.check_fingerprint(found, REFERENCE["loops"][name]) == []


@pytest.mark.parametrize("name", ADAPTIVE)
def test_adaptive_loop_matches_reference(name, tmp_path, monkeypatch):
    check_loop(name, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", sorted(set(REFERENCE["loops"]) - set(ADAPTIVE)))
def test_baseline_loop_matches_reference(name, tmp_path, monkeypatch):
    check_loop(name, tmp_path, monkeypatch)
