"""Tests of the benchmark itself (not part of the atlc test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

The count test runs each workload's traced prefix twice in fresh worker
processes, about three minutes in all.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import atlc
import checks
import run
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTED_UNITS = ("count", "B", "ratio")


def traced_layers(workload: str, seed: int, out_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.WORKER), "run", workload, str(seed), "0", "1",
         str(out_dir)],
        cwd=run.ROOT, env=run.child_env(), stdout=subprocess.PIPE, text=True,
        timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["problems"]
    return result["layers"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = traced_layers(workload, 7, tmp_path)
    second = traced_layers(workload, 7, tmp_path)
    assert set(first) == {m["name"] for m in BENCHMARK["per_layer"]}
    counted = [name for name in first if run.per_layer_unit(name) in COUNTED_UNITS
               and name != "trace.overhead_ratio"]
    assert counted
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}


def test_benchmark_json_matches_the_runner():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in BENCHMARK["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_missing_caller_binding_fails_loudly(monkeypatch):
    monkeypatch.delattr(atlc.tau_select, "solve_qp")
    with pytest.raises(tracer.BindingError, match="tau_select"):
        tracer.Tracer().install()


def test_fingerprint_check_flags_a_changed_input():
    ref = {"exit": 0, "events": 2, "tau": [0.05, 0.1], "u": [-100.0, 250.0]}
    assert checks.check_fingerprint(dict(ref), ref) == []
    moved = dict(ref, u=[-100.0, 250.0 + 1e-6])
    assert checks.check_fingerprint(moved, ref)
    assert checks.check_fingerprint(dict(ref, exit=2), ref)
    assert checks.check_fingerprint(dict(ref, tau=[0.05, 0.15]), ref)
