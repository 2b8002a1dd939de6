"""The package imports without scipy.

scipy is only the tests' reference for the integrator, root finder and QP
solver; importing it would add most of the package's start-up time and
memory.  A fresh interpreter shows what ``import atlc`` really loads.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = (
        "import sys, atlc, atlc.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
