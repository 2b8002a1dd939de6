"""The benchmark's probes still find every binding they wrap.

The tracer in perfbench/ refuses to install when a refactor removes or
re-binds a layer function it wraps.  Installing both probes in a fresh
interpreter catches that in about a second, without running a workload.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("probe", ["Tracer", "DecisionRecorder"])
def test_benchmark_probe_installs(probe):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    script = f"import atlc.cli, tracer; tracer.{probe}().install()"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
