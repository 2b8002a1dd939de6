"""The benchmark's probes and entry points still work with the package.

The tracer in perfbench/ refuses to install when a refactor removes or
re-binds a layer function it wraps.  Installing both probes in a fresh
interpreter catches that in about a second, without running a workload.
The benchmark worker's setup loads the scenarios, builds their configs and
the model, and makes each workload's first decision or scan; running it
per workload catches a change to any public call the benchmark makes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("probe", ["Tracer", "DecisionRecorder"])
def test_benchmark_probe_installs(probe):
    proc = run_python("-c", f"import atlc.cli, tracer; tracer.{probe}().install()")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["adaptive_loop", "baseline_loop", "margin_scan"])
def test_benchmark_worker_setup(workload):
    proc = run_python(str(ROOT / "perfbench" / "worker.py"), "setup", workload)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ready\n"


def test_tracer_reads_an_adaptive_decision():
    """The traced run counts the candidates of a real decision and the
    feasible ones among them: at (12, 24) 2 of the 40 are feasible."""
    script = "\n".join([
        "import atlc, atlc.cli, tracer",
        "probe = tracer.Tracer()",
        "probe.install()",
        "decision = atlc.compute_control(atlc.make_state(12.0, 24.0), atlc.ControllerConfig())",
        "print(probe.counts['tau_select.candidates'],",
        "      probe.counts['tau_select.feasible_candidates'],",
        "      int(decision.table.feasible.sum()))",
    ])
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["40", "2", "2"]


def test_tracer_counts_every_trigger_rhs_call():
    """The traced run's model.rhs_evals.trigger counts the one-state rhs
    calls through acc_dynamics_rhs; here it equals the model.rhs calls of
    the trigger segments of a short tlc_cd04 run, counted on the model."""
    script = "\n".join([
        "import dataclasses, pathlib",
        "import atlc.cli, atlc.controller as controller, tracer",
        "probe = tracer.Tracer()",
        "probe.install()",
        "calls = []",
        "traced = controller.integrate_until_trigger",
        "def counting(x, u, box, t0, t1, model, cfg):",
        "    def rhs(y, v):",
        "        calls.append(None)",
        "        return model.rhs(y, v)",
        "    counted = dataclasses.replace(model, rhs=rhs)",
        "    return traced(x, u, box, t0, t1, counted, cfg)",
        "controller.integrate_until_trigger = counting",
        "path = pathlib.Path('scenarios/tlc_cd04.json')",
        "scenario = atlc.cli.load_scenario(path, {'T': 0.3})",
        "controller.simulate_closed_loop(atlc.cli.build_controller_config(scenario))",
        "print(probe.counts.get('model.rhs_evals.trigger', 0), len(calls))",
    ])
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    counted, calls = map(int, proc.stdout.split())
    assert counted > 0 and counted == calls
