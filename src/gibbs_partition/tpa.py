"""TPA point-process generation, run merging, and thinning.

A single run walks the inverse-temperature parameter across [0, beta] and
emits values whose z-images form a rate-1 Poisson point process on
[z(0), z(beta)].  Merging k runs superposes to rate k; thinning brings the
rate down to any positive target.  Points are stored as b values, never as
z values: z is unknown in production use.
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
        prev = 0.0
        for p in self.points:
            if not (0.0 < p < self.beta_max):
                raise ValueError(f"point {p} outside (0, {self.beta_max})")
            if p <= prev:
                raise ValueError("points must be sorted ascending and distinct")
            prev = p

    def __len__(self) -> int:
        return len(self.points)


def _uniform_open(rng: np.random.Generator) -> float:
    # U = 0 must not occur; rng.random() is [0, 1) so redraw the zero.
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return u


def tpa_run_nonpositive(
    oracle: SamplerOracle,
    beta: float,
    rng: np.random.Generator,
    trace: list | None = None,
    run_id: int = 0,
) -> PointProcess:
    """One rate-1 run for H <= 0: walk b downward from beta.

    Each step draws X ~ pi_b and U ~ Uniform(0,1) and moves
    b <- b - ln(U)/H(X), jumping to -inf when H(X) = 0; values are recorded
    while b stays positive.  Oracle draws used = number of points + 1.
    """
    if oracle.model.sign_class != SIGN_NONPOSITIVE:
        raise ValueError("tpa_run_nonpositive requires a nonpositive Hamiltonian")
    if beta <= 0:
        raise ValueError("beta must be positive")
    b = beta
    points = []
    while True:
        hx = oracle.draw_energy(b, rng)
        u = _uniform_open(rng)
        b_next = -math.inf if hx == 0.0 else b - math.log(u) / hx
        assert b_next < b, "downward runs must strictly decrease b"
        if trace is not None:
            trace.append({"run_id": run_id, "b": b_next, "H": hx, "U": u})
        if b_next > 0.0:
            points.append(b_next)
            b = b_next
        else:
            break
    return PointProcess(tuple(sorted(points)), 1.0, beta, DIRECTION_DOWN)


def tpa_run_nonnegative(
    oracle: SamplerOracle,
    beta: float,
    rng: np.random.Generator,
    trace: list | None = None,
    run_id: int = 0,
) -> PointProcess:
    """Mirror run for H >= 0: walk b upward from 0, jump to +inf on H(X) = 0."""
    if oracle.model.sign_class != SIGN_NONNEGATIVE:
        raise ValueError("tpa_run_nonnegative requires a nonnegative Hamiltonian")
    if beta <= 0:
        raise ValueError("beta must be positive")
    b = 0.0
    points = []
    while True:
        hx = oracle.draw_energy(b, rng)
        u = _uniform_open(rng)
        b_next = math.inf if hx == 0.0 else b - math.log(u) / hx
        assert b_next > b, "upward runs must strictly increase b"
        if trace is not None:
            trace.append({"run_id": run_id, "b": b_next, "H": hx, "U": u})
        if b_next < beta:
            points.append(b_next)
            b = b_next
        else:
            break
    return PointProcess(tuple(points), 1.0, beta, DIRECTION_UP)


def tpa_run(
    oracle: SamplerOracle,
    beta: float,
    rng: np.random.Generator,
    trace: list | None = None,
    run_id: int = 0,
) -> PointProcess:
    """Dispatch on the model's sign class; mixed models must be shifted first."""
    sign = oracle.model.sign_class
    if sign == SIGN_NONPOSITIVE:
        return tpa_run_nonpositive(oracle, beta, rng, trace, run_id)
    if sign == SIGN_NONNEGATIVE:
        return tpa_run_nonnegative(oracle, beta, rng, trace, run_id)
    raise ValueError("TPA needs a sign-definite Hamiltonian; shift mixed models first")


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
    kept = tuple(p for p, m in zip(process.points, mask) if m)
    return PointProcess(kept, target_rate, process.beta_max, process.direction)
