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
