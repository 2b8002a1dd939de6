import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from atlc import AccParams, SimulationError, TrajectoryLog, acc_model, cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@dataclasses.dataclass
class ScenarioRun:
    """One scenario's run inside ``atlc compare``: its exit code, its
    closed-loop log and the wall time of that loop."""

    code: int
    log: TrajectoryLog
    wall_s: float


@dataclasses.dataclass
class CaseStudy:
    """``atlc compare --dir scenarios/``: its exit code, the directory it
    wrote and each scenario's run, by scenario id."""

    code: int
    out: Path
    runs: dict[str, ScenarioRun]


@pytest.fixture(scope="session")
def case_study(tmp_path_factory):
    """The nine case-study loops, run once per session through the command
    line; the golden, fingerprint and acceptance tests read this one run."""
    out = tmp_path_factory.mktemp("case_study")
    run_scenario, simulate = cli.run_scenario, cli.simulate_closed_loop
    loops, runs = [], {}

    def timed_simulate(cfg):
        start = time.perf_counter()
        try:
            log = simulate(cfg)
        except SimulationError as exc:
            log = exc.log
            raise
        finally:
            loops.append((log, time.perf_counter() - start))
        return log

    def recorded_run(scenario, out_dir, **kwargs):
        code, summary = run_scenario(scenario, out_dir, **kwargs)
        runs[scenario["id"]] = ScenarioRun(code, *loops.pop())
        return code, summary

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "simulate_closed_loop", timed_simulate)
        patch.setattr(cli, "run_scenario", recorded_run)
        code = cli.main(["compare", "--dir", str(SCENARIOS), "--out", str(out)])
    return CaseStudy(code, out, runs)


@pytest.fixture(scope="session")
def params():
    return AccParams()


@pytest.fixture(scope="session")
def model(params):
    return acc_model(params)


@pytest.fixture(scope="session")
def sign_gain_model(params):
    """The case-study model with an input gain proportional to 50 - z, which
    changes sign across any event box that straddles z = 50: the ends of
    the gain interval then have opposite signs, and the robust condition
    two different rows."""
    scale = 1.0 / (10.0 * params.M)
    return dataclasses.replace(
        acc_model(params),
        phi=lambda x: (50.0 - x[..., 0]) * scale,
    )


def rk4_step(f, x, dt):
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_flow(f, x0, t_end, dt):
    """Fixed-step reference integrator, independent of the package's solver."""
    x = np.asarray(x0, dtype=float).copy()
    n = int(round(t_end / dt))
    for _ in range(n):
        x = rk4_step(f, x, dt)
    rem = t_end - n * dt
    if rem > 0:
        x = rk4_step(f, x, rem)
    return x
