"""TPA point-process generation and thinning.

A single run walks the inverse-temperature parameter across [0, beta] and
emits values whose z-images form a rate-1 Poisson point process on
[z(0), z(beta)].  Runs are walked in lockstep: every step draws one energy
per active run, each at that run's own b, and the superposition of k runs
has rate k.  Thinning keeps each point with a fixed probability, which
scales the rate by it.  Points are one sorted float64 array of b values,
never z values: z is unknown in production use.  The caller knows the rate
(the run count) and the direction (the model's sign class).
"""

from __future__ import annotations

import math

import numpy as np

from .models import SIGN_NONNEGATIVE, SIGN_NONPOSITIVE
from .samplers import SamplerOracle


def tpa_runs(
    oracle: SamplerOracle,
    beta: float,
    runs: int,
    rng: np.random.Generator,
    trace: list | None = None,
) -> np.ndarray:
    """Superposition of ``runs`` independent rate-1 runs, walked in lockstep.

    For H <= 0 every run starts at beta and walks b downward, jumping to
    -inf when H(X) = 0; for H >= 0 it starts at 0 and walks upward, jumping
    to +inf.  Each step draws, for the m runs still inside, X_j ~ pi_{b_j}
    in one vector draw, then U ~ Uniform(0, 1) with zeros redrawn, and moves
    b_j <- b_j - ln(U_j)/H(X_j); values are recorded while b stays inside
    (0, beta).  Returns the recorded values, sorted ascending.  Oracle
    draws used = number of points + runs.  With one run this consumes the
    generator exactly as a run walked on its own.

    ``trace`` receives one record per step, grouped by run in step order,
    with run ids counted from 0.
    """
    sign = oracle.model.sign_class
    if sign == SIGN_NONPOSITIVE:
        start, jump = beta, -math.inf
    elif sign == SIGN_NONNEGATIVE:
        start, jump = 0.0, math.inf
    else:
        raise ValueError("TPA needs a sign-definite Hamiltonian; shift mixed models first")
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    b = np.full(runs, float(start))
    ids = np.arange(runs)
    points, steps = [], []
    # H(X) = 0 divides ln U < 0 by zero: b_next is +inf or -inf, outside
    # (0, beta), and only the trace records the jump in its place.
    with np.errstate(divide="ignore"):
        while b.size:
            hx = oracle.draw_energies_at(b, rng)
            u = rng.random(b.size)
            while np.count_nonzero(u) < u.size:
                zeros = u == 0.0
                u[zeros] = rng.random(np.count_nonzero(zeros))
            b_next = b - np.log(u) / hx
            inside = (0.0 < b_next) & (b_next < beta)
            if trace is not None:
                steps.append((ids, b_next, hx, u))
                ids = ids[inside]
            b = b_next[inside]
            points.append(b)
    if trace is not None:
        columns = [np.concatenate(column) for column in zip(*steps)]
        columns[1] = np.where(columns[2], columns[1], jump)
        order = np.argsort(columns[0], kind="stable")
        records = zip(*(column[order].tolist() for column in columns))
        trace.extend({"run_id": i, "b": b, "H": h, "U": u} for i, b, h, u in records)
    return np.sort(np.concatenate(points))


def tpa_run(
    oracle: SamplerOracle,
    beta: float,
    rng: np.random.Generator,
    trace: list | None = None,
) -> np.ndarray:
    """One rate-1 run; mixed models must be shifted first."""
    return tpa_runs(oracle, beta, 1, rng, trace)


def thin(points: np.ndarray, keep: float, rng: np.random.Generator) -> np.ndarray:
    """Keep each point independently with probability ``keep`` in (0, 1].

    ``keep == 1`` returns ``points`` itself and draws nothing.
    """
    if not 0.0 < keep <= 1.0:
        raise ValueError("keep probability must lie in (0, 1]")
    if keep == 1.0:
        return points
    return points[rng.random(points.size) < keep]
