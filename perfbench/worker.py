"""Measurement process of the benchmark.  ``run.py`` starts it with BLAS
pinned to one thread and ``src`` on the import path:

    worker.py setup <workload>
        set up as a fresh user process would, make the first decision,
        print "ready" and exit; the parent times this from process start
    worker.py run <workload> <seed> <seconds> <trace> <out_dir>
        run the workload, check every output, print the result as JSON

The untraced run consumes the workload's op stream until ``seconds`` have
passed.  The traced run takes a fixed prefix of the stream so its counts
repeat exactly: it runs the prefix once untraced and once traced, and the
two throughputs give the tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import atlc
from atlc import cli

import checks
import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
perf = time.perf_counter

TRACE_OPS = {
    "adaptive_loop": 18,  # 16 seeded starts, atlc_cd04, atlc_cd03
    "baseline_loop": 10,  # two rounds of the five baselines
    "margin_scan": 1032,  # the 32 reference states and 1000 seeded states
}
SHARE_SPANS = ("sim.integrate_fixed_horizon", "qp.solve_qp",
               "sim.integrate_until_trigger", "robust_bounds.stack_on_grid")


class Bench:
    """What a user process sets up once: scenarios, configs, the model."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.scenarios = {
            name: cli.load_scenario(ROOT / "scenarios" / f"{name}.json")
            for name in wl.PINNED
        }
        self.cfgs = {name: cli.build_controller_config(sc)
                     for name, sc in self.scenarios.items()}
        self.case = self.cfgs[wl.CASE_STUDY]
        self.model = atlc.acc_model(self.case.params, self.case.clf_form)
        tc = self.case.tau_cfg
        self.tau_grid = np.linspace(tc.tau_min, tc.tau_max, tc.n_candidates)

    def first_decision(self) -> None:
        if self.workload == "margin_scan":
            self.scan(*wl.reference_scan_states()[0])
            return
        adaptive = self.workload == "adaptive_loop"
        cfg = self.cfgs[(wl.ADAPTIVE_PINNED if adaptive else wl.BASELINE_PINNED)[0]]
        model = atlc.acc_model(cfg.params, cfg.clf_form)
        atlc.compute_control(atlc.make_state(cfg.z0, cfg.v0), cfg, model)

    def ops(self, seed: int):
        p = self.case.params
        if self.workload == "adaptive_loop":
            return wl.adaptive_ops(seed, p.lp, p.vp, p.g_grav)
        if self.workload == "baseline_loop":
            return wl.baseline_ops(seed)
        return wl.scan_ops(seed, wl.reference_scan_states())

    def scenario(self, op: wl.ScenarioOp) -> dict:
        if op.pinned:
            return self.scenarios[op.name]
        return {**self.scenarios[wl.CASE_STUDY], **op.overrides}

    def scan(self, z: float, v: float):
        box = atlc.make_box(atlc.make_state(z, v), self.case.box_under,
                            self.case.box_over)
        return atlc.tau_star_scan(box, self.tau_grid, self.model,
                                  self.case.bound_cfg)


class Results:
    """Timings, work counts and check verdicts of the ops run so far."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies: list[float] = []  # one per decision or scanned state
        self.misses = 0  # decisions slower than the interval they govern
        self.miss_base = 0  # decisions whose segment ended in a trigger
        self.per_op: list[tuple[bool, int, float]] = []  # (pinned, units, busy_s)
        self.bytes_written = 0
        self.pinned_roots: dict[str, int] = {}  # traced pinned op -> root span

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{what}: " + "; ".join(problems))

    def rate(self, include_pinned: bool = True) -> float:
        """Work units (events or states) per second inside the op calls."""
        done = [(u, b) for pinned, u, b in self.per_op if include_pinned or not pinned]
        busy = sum(b for _, b in done)
        return sum(u for u, _ in done) / busy if busy > 0 else 0.0


def run_scenario_op(bench, op, recorder, out_dir, res, reference, trace) -> None:
    scenario = bench.scenario(op)
    cfg = bench.cfgs[op.name] if op.pinned else cli.build_controller_config(scenario)
    recorder.reset()
    res.attempted += 1
    root = len(trace.spans) if trace is not None else -1
    start = perf()
    try:
        code, summary = atlc.cli.run_scenario(scenario, out_dir)
    except Exception:  # noqa: BLE001 - a raising op counts as failed
        res.per_op.append((op.pinned, 0, perf() - start))
        res.fail(op.name, [traceback.format_exc(limit=3)])
        return
    busy = perf() - start
    log = recorder.log
    res.per_op.append((op.pinned, len(log.events) if log else 0, busy))
    if trace is not None and op.pinned:
        res.pinned_roots.setdefault(op.name, root)
    problems = checks.check_loop(code, summary, log, scenario, cfg, out_dir)
    if op.pinned and log is not None:
        problems += checks.check_fingerprint(checks.fingerprint(code, log),
                                             reference["loops"][op.name])
    if problems:
        res.fail(op.name, problems)
    if log is not None:
        for latency, event in zip(recorder.latencies, log.events):
            res.latencies.append(latency)
            if event.dt_inter_event is not None:
                res.miss_base += 1
                res.misses += latency > event.dt_inter_event
    for path in out_dir.iterdir():
        res.bytes_written += path.stat().st_size
        path.unlink()


def run_scan_op(bench, op, res, reference) -> None:
    what = f"scan(z={op.z}, v={op.v})"
    res.attempted += 1
    start = perf()
    try:
        result = bench.scan(op.z, op.v)
    except Exception:  # noqa: BLE001 - a raising op counts as failed
        res.per_op.append((op.pinned, 0, perf() - start))
        res.fail(what, [traceback.format_exc(limit=3)])
        return
    busy = perf() - start
    res.per_op.append((op.pinned, 1, busy))
    res.latencies.append(busy)
    ref = reference["scan"][op.ref] if op.pinned else None
    problems = checks.check_scan(result, ref)
    if problems:
        res.fail(what, problems)


def run_ops(bench, ops, recorder, out_dir, reference, trace=None,
            deadline=None) -> Results:
    res = Results()
    for op in ops:
        if deadline is not None and res.attempted and perf() >= deadline:
            break
        if isinstance(op, wl.ScanOp):
            run_scan_op(bench, op, res, reference)
        else:
            run_scenario_op(bench, op, recorder, out_dir, res, reference, trace)
    return res


def end_to_end(res: Results) -> dict:
    ms = np.asarray(res.latencies) * 1e3
    p95 = float(np.percentile(ms, 95))
    return {
        "decision_mean_ms": float(ms.mean()),
        "decision_p50_ms": float(np.median(ms)),
        "decision_p95_ms": p95,
        "decisions": int(ms.size),
        "beyond_p95": int(np.sum(ms > p95)),
        "throughput_per_s": res.rate(),
        "units": sum(u for _, u, _ in res.per_op),
        "busy_s": sum(b for _, _, b in res.per_op),
        "deadline_misses": res.misses,
        "deadline_base": res.miss_base,
    }


def per_layer(trace: tracer.Tracer, res: Results, overhead: float) -> dict:
    s = tracer.layer_summary(trace)
    inc, calls, counts = s["inclusive"], s["calls"], trace.counts

    def ratio(a, b):
        return a / b if b else 0.0

    stacks = calls.get("robust_bounds.stack_on_grid", 0)
    rollouts = calls.get("tau_select.rollout_min_h", 0)
    metrics = {
        "sim.integrate_fixed_horizon.s": inc.get("sim.integrate_fixed_horizon", 0.0),
        "sim.integrate_fixed_horizon.calls": calls.get("sim.integrate_fixed_horizon", 0),
        "model.rhs_evals.rollout": counts.get("model.rhs_evals.rollout", 0),
        "tau_select.rollouts": rollouts,
        "tau_select.candidates": counts.get("tau_select.candidates", 0),
        "tau_select.rollouts_per_feasible": ratio(
            rollouts, counts.get("tau_select.feasible_candidates", 0)),
        "tau_select.select_tau.self_s": s["self"].get("tau_select.select_tau", 0.0),
        "qp.solve_qp.s": inc.get("qp.solve_qp", 0.0),
        "qp.solve_qp.calls": calls.get("qp.solve_qp", 0),
        "qp.solve_qp.infeasible": counts.get("qp.solve_qp.infeasible", 0),
        "constraints.build_qp_instance.s": inc.get("constraints.build_qp_instance", 0.0),
        "tau_select.solve_event_qp.s": inc.get("tau_select.solve_event_qp", 0.0),
        "sim.integrate_until_trigger.s": inc.get("sim.integrate_until_trigger", 0.0),
        "sim.integrate_until_trigger.calls": calls.get("sim.integrate_until_trigger", 0),
        "model.rhs_evals.trigger": counts.get("model.rhs_evals.trigger", 0),
        "robust_bounds.stack_on_grid.s": inc.get("robust_bounds.stack_on_grid", 0.0),
        "robust_bounds.stack_on_grid.calls": stacks,
        "robust_bounds.lattice_points": counts.get("robust_bounds.lattice_points", 0),
        "robust_bounds.distinct_box_ratio": ratio(len(trace.boxes), stacks),
        "margin.margin_from_stack.s": inc.get("margin.margin_from_stack", 0.0),
        "margin.margin_from_stack.calls": calls.get("margin.margin_from_stack", 0),
        "margin.tau_star_scan.s": inc.get("margin.tau_star_scan", 0.0),
        "cli.write_csv.s": inc.get("cli.write_trajectory_csv", 0.0)
        + inc.get("cli.write_events_csv", 0.0),
        "cli.summary_from_trajectory_csv.s":
            inc.get("cli.summary_from_trajectory_csv", 0.0),
        "cli.bytes_written": res.bytes_written,
        "controller.compute_control.calls": calls.get("controller.compute_control", 0),
    }
    for layer in tracer.TRACED_LAYERS:
        metrics[f"{layer}.self_s"] = s["layer_self"].get(layer, 0.0)
    metrics["trace.busy_s"] = sum(b for _, _, b in res.per_op)
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def measure(workload: str, seed: int, seconds: float, traced: bool,
            out_dir: Path) -> dict:
    bench = Bench(workload)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    recorder = tracer.DecisionRecorder()
    recorder.install()
    run_dir = out_dir / f"ops-{workload}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if not traced:
            res = run_ops(bench, bench.ops(seed), recorder, run_dir, reference,
                          deadline=perf() + seconds)
            return {"res": res, "e2e": end_to_end(res)}
        ops = list(itertools.islice(bench.ops(seed), TRACE_OPS[workload]))
        # pinned adaptive runs would double the traced run's length
        with_pinned = workload != "adaptive_loop"
        plain = run_ops(bench, [op for op in ops if with_pinned or not op.pinned],
                        recorder, run_dir, reference)
        trace = tracer.Tracer()
        trace.install()
        res = run_ops(bench, ops, recorder, run_dir, reference, trace=trace)
        overhead = plain.rate(with_pinned) / res.rate(with_pinned) - 1.0
        res.attempted += plain.attempted
        res.failed += plain.failed
        res.problems = plain.problems + res.problems
        shares = {name: tracer.span_share(trace, root, SHARE_SPANS)
                  for name, root in res.pinned_roots.items()}
        trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "decision"],
            "spans": trace.spans, "counts": trace.counts, "shares": shares,
        }), encoding="utf-8")
        return {"res": res, "layers": per_layer(trace, res, overhead), "shares": shares,
                "trace_file": str(trace_path)}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str]) -> int:
    atlc_dir = Path(atlc.__file__).resolve().parent
    if atlc_dir != ROOT / "src" / "atlc":
        print(f"error: imported atlc from {atlc_dir}, not from this checkout",
              file=sys.stderr)
        return 2
    if argv[0] == "setup":
        Bench(argv[1]).first_decision()
        print("ready", flush=True)
        return 0
    workload, seed, seconds, trace, out_dir = argv[1:6]
    out = measure(workload, int(seed), float(seconds), trace == "1", Path(out_dir))
    res = out.pop("res")
    out.update({
        "attempted": res.attempted, "failed": res.failed,
        "problems": res.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
