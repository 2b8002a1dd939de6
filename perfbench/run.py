"""Closed-loop decision-latency benchmark for atlc.

    python3 perfbench/run.py --workload adaptive_loop --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Workloads: ``adaptive_loop``, ``baseline_loop``, ``margin_scan`` (see
``README.md``), or ``all`` to run each in turn.  With ``--trace 0`` the
end-to-end metrics are measured; with ``--trace 1`` a separate traced run
gives the per-layer metrics.  Each workload runs in a fresh process with
BLAS pinned to one thread, one caller, each operation starting when the
previous one ends.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("adaptive_loop", "baseline_loop", "margin_scan")
SETUP_PROBES = 7  # fresh processes per run; setup_s is their median
DEADLINE_S = 175.0  # a single-workload run must end within 180 s
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "decision_mean_ms": "ms",
    "decision_p95_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ratio", "_per_feasible")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for name in PINNED_THREADS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"  # same dict and set layout in every process
    return env


def check_checkout() -> None:
    for needed in (ROOT / "src" / "atlc" / "__init__.py", ROOT / "scenarios"):
        if not needed.exists():
            raise BenchError(f"{needed.relative_to(ROOT)} is missing: run from "
                             "the root of a full atlc checkout")


def setup_seconds(workload: str, deadline: float) -> float:
    """Wall time from starting a fresh process to its first decision."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "setup", workload],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe for {workload} failed (exit {code})")
        samples.append(elapsed)
    return statistics.median(samples)


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "run", workload, str(seed),
             str(seconds), str(trace), OUT.name],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the result object and prints the
    human-readable report lines."""
    deadline = time.monotonic() + DEADLINE_S
    out = run_worker(workload, seed, seconds, trace, deadline)
    attempted, failed = out["attempted"], out["failed"]
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"== {workload}  seed {seed}  trace {trace}  output check {verdict}")
    for problem in out["problems"]:
        print(f"   check failed: {problem}")
    if trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in out["layers"].items()}
        for name, m in metrics.items():
            print(f"   {name:<38}{m['value']:>16.6g} {m['unit']}")
        for name, shares in out["shares"].items():
            parts = ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
            print(f"   wall share on {name}: {parts}")
        print(f"   spans written to {out['trace_file']}")
    else:
        e2e = out["e2e"]
        values = {
            "setup_s": setup_seconds(workload, deadline),
            "decision_mean_ms": e2e["decision_mean_ms"],
            "decision_p95_ms": e2e["decision_p95_ms"],
            "throughput_per_s": e2e["throughput_per_s"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        unit_name = "states" if workload == "margin_scan" else "events"
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh processes",
            "decision_mean_ms": f"n={e2e['decisions']}",
            "decision_p95_ms": f"n={e2e['decisions']}, {e2e['beyond_p95']} beyond",
            "throughput_per_s": f"{e2e['units']} {unit_name} in {e2e['busy_s']:.2f} s",
            "peak_rss_mb": "worker process",
        }
        for name, m in metrics.items():
            print(f"   {name:<22}{m['value']:>14.6g} {m['unit']:<5} ({notes[name]})")
        print(f"   {'decision_p50_ms':<22}{e2e['decision_p50_ms']:>14.6g} {'ms':<5} "
              f"(n={e2e['decisions']}; not a bounded metric, see README)")
        base = e2e["deadline_base"]
        if base:
            print(f"   {'deadline_miss_ratio':<22}{e2e['deadline_misses'] / base:>14.6g} "
                  f"{'ratio':<5} ({e2e['deadline_misses']} of {base} decisions "
                  "governing a triggered segment)")
    print(f"   {'ops_failed_ratio':<22}{failed / attempted:>14.6g} {'ratio':<5} "
          f"({failed} of {attempted} ops)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        check_checkout()
        results = [run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results) else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
