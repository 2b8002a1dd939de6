"""Seeded operation streams for the three benchmark workloads.

An operation is one scenario run through ``atlc.cli.run_scenario`` or one
state scanned through ``atlc.margin.tau_star_scan``.  Each workload is an
endless, deterministic stream of operations built from the seed alone; the
untraced run consumes it until its time is up, the traced run takes a fixed
prefix so its counts repeat exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

ADAPTIVE_PINNED = ("atlc_cd04", "atlc_cd03")
BASELINE_PINNED = (
    "hocbf_aggressive", "hocbf_conservative", "tlc_cd04", "tlc_cd07", "tlc_cd12",
)
PINNED = ADAPTIVE_PINNED + BASELINE_PINNED
# case-study scenario whose box, tau grid and bound lattice margin_scan uses
CASE_STUDY = "atlc_cd04"

# Seeded adaptive starts: 16 narrow strata of (approach speed, braking
# authority, headroom); the seed places each start inside its stratum.
# Near-limit starts cost about 16 rollouts per event, far starts about 1, so
# narrow strata keep the seeded share of a run's work steady across seeds.
V0_BANDS = ((12.0, 16.0), (22.0, 26.0))  # [m/s]
CD_BANDS = ((0.35, 0.5), (0.8, 1.0))  # braking authority [g]
HEADROOM_BANDS = ((1.5, 2.5), (5.0, 7.0), (15.0, 20.0), (45.0, 60.0))  # [m]
# Simulated seconds per headroom band.  The start transient is where seeds
# differ; the farthest starts run longer so that, as in the pinned runs, most
# decisions take one rollout and the median decision is a stable statistic.
SEEDED_T = (0.5, 0.5, 0.5, 1.5)
STRATA = [(v, c, h) for h, c, v in
          itertools.product(range(len(HEADROOM_BANDS)), range(2), range(2))]
BRAKING_HEADROOM = 1.1  # start gap covers 110% of the braking distance

# margin_scan state region: half the states near the safety boundary, where
# tau_star moves off the first grid point, half over the operating region
SCAN_NEAR_Z = (6.0, 14.0)
SCAN_FAR_Z = (14.0, 150.0)
SCAN_V = (0.5, 30.0)


@dataclass(frozen=True)
class ScenarioOp:
    name: str  # pinned scenario file stem, or seeded_<cycle>_<stratum>
    overrides: dict = field(default_factory=dict)  # empty for pinned runs

    @property
    def pinned(self) -> bool:
        return not self.overrides


@dataclass(frozen=True)
class ScanOp:
    z: float
    v: float
    ref: int | None = None  # index into the recorded reference states

    @property
    def pinned(self) -> bool:
        return self.ref is not None


def seeded_start(rng: np.random.Generator, stratum, lp: float, vp: float,
                 g: float) -> dict:
    """One (z0, v0, cd) start in the given stratum of the operating region."""
    iv, ic, ih = stratum
    v0 = rng.uniform(*V0_BANDS[iv])
    cd = rng.uniform(*CD_BANDS[ic])
    lo, hi = np.log(HEADROOM_BANDS[ih])  # log-uniform extra gap
    extra = float(np.exp(rng.uniform(lo, hi)))
    closing = max(v0 - vp, 0.0)
    braking = BRAKING_HEADROOM * closing * closing / (2.0 * cd * g)
    return {
        "z0": round(lp + braking + extra, 6),
        "v0": round(float(v0), 6),
        "cd": round(float(cd), 6),
        "T": SEEDED_T[ih],
    }


def adaptive_ops(seed: int, lp: float, vp: float, g: float):
    """16 seeded starts, atlc_cd04, atlc_cd03, and again with new starts.

    The seeded starts come first so that a run of any length past their
    cost covers the same operations: atlc_cd04 starts before the deadline
    and completes.
    """
    for cycle in itertools.count():
        rng = np.random.default_rng([seed, cycle])
        for j, stratum in enumerate(STRATA):
            overrides = seeded_start(rng, stratum, lp, vp, g)
            overrides["id"] = f"seeded_{cycle}_{j}"
            yield ScenarioOp(overrides["id"], overrides)
        for name in ADAPTIVE_PINNED:
            yield ScenarioOp(name)


def baseline_ops(seed: int):
    """The five pinned baselines, each round in a seeded order."""
    for cycle in itertools.count():
        order = np.random.default_rng([seed, cycle]).permutation(len(BASELINE_PINNED))
        for i in order:
            yield ScenarioOp(BASELINE_PINNED[i])


def scan_ops(seed: int, reference_states):
    """The recorded reference states, then seeded states without end."""
    for i, (z, v) in enumerate(reference_states):
        yield ScanOp(z, v, ref=i)
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        z_band = SCAN_NEAR_Z if i % 2 == 0 else SCAN_FAR_Z
        yield ScanOp(float(rng.uniform(*z_band)), float(rng.uniform(*SCAN_V)))


def reference_scan_states() -> list[tuple[float, float]]:
    """Fixed margin_scan states whose full margin rows are recorded."""
    zs = (7.0, 9.5, 10.2, 10.8, 12.0, 20.0, 60.0, 140.0)
    vs = (0.5, 8.0, 16.0, 29.0)
    return [(z, v) for z in zs for v in vs]
