"""TPA point-process generation, run merging, and thinning.

A single run walks the inverse-temperature parameter across [0, beta] and
emits values whose z-images form a rate-1 Poisson point process on
[z(0), z(beta)].  Runs are walked in lockstep: every step draws one energy
per active run, each at that run's own b, and the superposition of k runs
has rate k.  Thinning brings the rate down to any positive target.  Points
are stored as b values, never as z values: z is unknown in production use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import SIGN_NONNEGATIVE, SIGN_NONPOSITIVE
from .samplers import SamplerOracle

DIRECTION_DOWN = "downward"
DIRECTION_UP = "upward"


@dataclass(frozen=True)
class PointProcess:
    """Sorted parameter values in (0, beta_max) with their generating rate."""

    points: tuple[float, ...]
    rate: float
    beta_max: float
    direction: str

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.direction not in (DIRECTION_DOWN, DIRECTION_UP):
            raise ValueError(f"unknown direction {self.direction!r}")
        pts = np.asarray(self.points, dtype=float)
        outside = ~((0.0 < pts) & (pts < self.beta_max))
        unsorted = pts <= np.concatenate(([0.0], pts[:-1]))
        bad = np.flatnonzero(outside | unsorted)
        if bad.size:
            # The first offending point decides, the range check first.
            first = bad[0]
            if outside[first]:
                raise ValueError(f"point {pts[first]} outside (0, {self.beta_max})")
            raise ValueError("points must be sorted ascending and distinct")

    def __len__(self) -> int:
        return len(self.points)


def tpa_runs(
    oracle: SamplerOracle,
    beta: float,
    runs: int,
    rng: np.random.Generator,
    trace: list | None = None,
) -> PointProcess:
    """Superposition of ``runs`` independent rate-1 runs, walked in lockstep.

    For H <= 0 every run starts at beta and walks b downward, jumping to
    -inf when H(X) = 0; for H >= 0 it starts at 0 and walks upward, jumping
    to +inf.  Each step draws, for the m runs still inside, X_j ~ pi_{b_j}
    in one vector draw, then U ~ Uniform(0, 1) with zeros redrawn, and moves
    b_j <- b_j - ln(U_j)/H(X_j); values are recorded while b stays inside
    (0, beta).  Oracle draws used = number of points + runs.  With one run
    this consumes the generator exactly as a run walked on its own.

    ``trace`` receives one record per step, grouped by run in step order,
    with run ids counted from 0.
    """
    sign = oracle.model.sign_class
    if sign == SIGN_NONPOSITIVE:
        start, jump, direction = beta, -math.inf, DIRECTION_DOWN
    elif sign == SIGN_NONNEGATIVE:
        start, jump, direction = 0.0, math.inf, DIRECTION_UP
    else:
        raise ValueError("TPA needs a sign-definite Hamiltonian; shift mixed models first")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    b = np.full(runs, float(start))
    ids = np.arange(runs)
    points, steps = [], []
    # H(X) = 0 divides by zero; np.where then takes the jump.
    with np.errstate(divide="ignore"):
        while b.size:
            hx = oracle.draw_energies_at(b, rng)
            u = rng.random(b.size)
            while not u.all():
                zeros = u == 0.0
                u[zeros] = rng.random(np.count_nonzero(zeros))
            b_next = np.where(hx == 0.0, jump, b - np.log(u) / hx)
            if trace is not None:
                steps.append((ids, b_next, hx, u))
            inside = (0.0 < b_next) & (b_next < beta)
            b, ids = b_next[inside], ids[inside]
            points.append(b)
    if trace is not None:
        columns = [np.concatenate(column) for column in zip(*steps)]
        order = np.argsort(columns[0], kind="stable")
        records = zip(*(column[order].tolist() for column in columns))
        trace.extend({"run_id": i, "b": b, "H": h, "U": u} for i, b, h, u in records)
    pts = np.sort(np.concatenate(points))
    return PointProcess(tuple(pts.tolist()), float(runs), beta, direction)


def tpa_run(
    oracle: SamplerOracle,
    beta: float,
    rng: np.random.Generator,
    trace: list | None = None,
) -> PointProcess:
    """One rate-1 run; mixed models must be shifted first."""
    return tpa_runs(oracle, beta, 1, rng, trace)


def merge_runs(runs: list[PointProcess]) -> PointProcess:
    """Superpose runs sharing beta_max and direction; rates add."""
    if not runs:
        raise ValueError("merge_runs needs at least one run")
    first = runs[0]
    for run in runs[1:]:
        if run.beta_max != first.beta_max:
            raise ValueError("cannot merge runs with different beta_max")
        if run.direction != first.direction:
            raise ValueError("cannot merge runs with different directions")
    points = sorted(p for run in runs for p in run.points)
    rate = sum(run.rate for run in runs)
    return PointProcess(tuple(points), rate, first.beta_max, first.direction)


def thin(process: PointProcess, target_rate: float, rng: np.random.Generator) -> PointProcess:
    """Keep each point independently with probability target_rate / rate."""
    if not (0.0 < target_rate <= process.rate):
        raise ValueError("target rate must lie in (0, current rate]")
    if target_rate == process.rate:
        return process
    keep_p = target_rate / process.rate
    mask = rng.random(len(process.points)) < keep_p
    kept = tuple(np.asarray(process.points)[mask].tolist())
    return PointProcess(kept, target_rate, process.beta_max, process.direction)
