"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs the seven pinned closed loops and scans the fixed margin_scan
reference states, then writes their fingerprints to
``perfbench/reference.json``.  Re-record only when a change is meant to
alter the closed loop or the margins, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import atlc

import checks
import tracer
import workloads as wl
from worker import HERE, ROOT, Bench


def main() -> int:
    bench = Bench("adaptive_loop")
    recorder = tracer.DecisionRecorder()
    recorder.install()
    out_dir = ROOT / ".bench_out" / "reference"
    loops = {}
    try:
        for name in wl.PINNED:
            recorder.reset()
            code, _ = atlc.cli.run_scenario(bench.scenarios[name], out_dir)
            loops[name] = checks.fingerprint(code, recorder.log)
            print(f"{name}: exit {code}, {loops[name]['events']} events", flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    scan = [checks.scan_record(bench.scan(z, v)) for z, v in wl.reference_scan_states()]
    reference = {"loops": loops, "scan": scan}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
