import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

import atlc.qp
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
    wrote, each scenario's run, by scenario id, and the number of QP
    instances that reached the active-set enumeration."""

    code: int
    out: Path
    runs: dict[str, ScenarioRun]
    enumerated: int


@pytest.fixture(scope="session")
def case_study(tmp_path_factory):
    """The nine case-study loops, run once per session through the command
    line; the golden, fingerprint and acceptance tests read this one run."""
    out = tmp_path_factory.mktemp("case_study")
    run_scenario, simulate = cli.run_scenario, cli.simulate_closed_loop
    enumerate_ = atlc.qp._enumerate
    loops, runs, enumerated = [], {}, []

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

    def counted_enumerate(diag, *rest):
        enumerated.append(diag.shape[0])
        return enumerate_(diag, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "simulate_closed_loop", timed_simulate)
        patch.setattr(cli, "run_scenario", recorded_run)
        patch.setattr(atlc.qp, "_enumerate", counted_enumerate)
        code = cli.main(["compare", "--dir", str(SCENARIOS), "--out", str(out)])
    return CaseStudy(code, out, runs, sum(enumerated))


@pytest.fixture(scope="session")
def params():
    return AccParams()


@pytest.fixture(scope="session")
def model(params):
    return acc_model(params)


@pytest.fixture(scope="session")
def sign_gain_model(params):
    """The case-study model with an input gain proportional to 50 - z, which
    changes sign across any event box that straddles z = 50: the gain box
    then has two vertices, and the robust condition two rows."""
    scale = 1.0 / (10.0 * params.M)
    return dataclasses.replace(
        acc_model(params),
        phi=lambda x: ((50.0 - x[..., 0]) * scale)[..., None],
    )


@pytest.fixture(scope="session")
def two_input_model(params):
    """A two-input toy on the case-study state whose input gain
    ((50 - z), (v - 25)) / (10 M) changes sign in both entries across a box
    around (50, 25), so its gain box has four vertices.  Its CLF and cost
    put the second input at half the weight of the first; only the robust
    rows and QPs read it, so it keeps the case study's one-input rhs."""
    base = acc_model(params)
    scale = 1.0 / (10.0 * params.M)

    def clf_terms(x):
        V, lfV, lgV = base.clf_terms(x)
        return V, lfV, np.concatenate([lgV, 0.5 * lgV], axis=-1)

    def cost(x):
        diag, linear = base.cost(x)
        return np.append(diag, 0.5 * diag), np.append(linear, 0.5 * linear)

    return dataclasses.replace(
        base, q=2,
        phi=lambda x: np.stack([50.0 - x[..., 0], x[..., 1] - 25.0], axis=-1) * scale,
        clf_terms=clf_terms, cost=cost,
        u_min=np.array([params.u_min, -0.5 * params.u_max]),
        u_max=np.array([params.u_max, 0.25 * params.u_max]),
        fallback=np.array([params.u_min, 0.0]),
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
