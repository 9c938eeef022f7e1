"""Initial interval-length estimate and well-balanced cooling schedules.

Step 1 of the approximation algorithm estimates q (the z-interval length)
from a handful of TPA runs; step 2 runs TPA at a much higher rate, thins,
and keeps every d-th point so that consecutive z-gaps concentrate as
Gamma(d, k) variables below the target eta.  ``save_schedule`` and
``load_schedule`` write and read a built schedule with its params, so that
later runs can skip steps 1-2.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .models import GibbsModel, SIGN_NONNEGATIVE, SIGN_NONPOSITIVE, _is_number
from .samplers import SamplerOracle
from .tpa import thin, tpa_runs

REGIME_INTEGER_NONPOSITIVE = "integer-nonpositive"
REGIME_INTEGER_NONNEGATIVE = "integer-nonnegative"
REGIME_SHIFTED = "shifted-mixed"
REGIMES = (REGIME_INTEGER_NONPOSITIVE, REGIME_INTEGER_NONNEGATIVE, REGIME_SHIFTED)
# TPA runs that step 1 walks to estimate q.
INITIAL_RUNS = 5


@dataclass(frozen=True)
class ScheduleParams:
    """Rate/selection parameters: keep every d-th point of a rate-k process.

    By construction d = (3/4) * eta * k up to the ceiling on d, so z-gaps of
    kept points have mean (3/4) * eta.
    """

    eta: float
    d: int
    k: float
    q_hat1: float
    regime: str

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.eta, self.k, self.q_hat1)):
            raise ValueError("eta, k and q_hat1 must be finite")
        if self.eta <= 0 or self.k <= 0 or self.d < 1:
            raise ValueError("eta and k must be positive, d >= 1")
        if self.q_hat1 < 0:
            raise ValueError("q_hat1 must be nonnegative")


@dataclass(frozen=True)
class CoolingSchedule:
    """beta_0 = 0 < beta_1 < ... < beta_l = beta with midpoints and half-lengths."""

    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.betas) < 2:
            raise ValueError("a schedule needs at least two points")
        if self.betas[0] != 0.0:
            raise ValueError("schedules start at 0")
        for lo, hi in zip(self.betas, self.betas[1:]):
            # Also false for a nan or infinite point.
            if not lo < hi < math.inf:
                raise ValueError("schedule points must be finite and strictly increasing")

    @property
    def beta(self) -> float:
        return self.betas[-1]

    @property
    def num_intervals(self) -> int:
        return len(self.betas) - 1

    @property
    def midpoints(self) -> tuple[float, ...]:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.betas, self.betas[1:]))

    @property
    def half_lengths(self) -> tuple[float, ...]:
        """Parameter-space half-lengths delta_i = (beta_{i+1} - beta_i) / 2."""
        return tuple((hi - lo) / 2.0 for lo, hi in zip(self.betas, self.betas[1:]))


def save_schedule(path: str, schedule: CoolingSchedule, params: ScheduleParams | None) -> None:
    """Write ``{"betas": [...], "params": {...} or null}``."""
    spec = {"betas": list(schedule.betas), "params": asdict(params) if params is not None else None}
    with open(path, "w") as fh:
        json.dump(spec, fh)


def load_schedule(path: str) -> tuple[CoolingSchedule, ScheduleParams | None]:
    """Read a ``save_schedule`` file; its ``params`` may be null or absent.

    A malformed file raises ValueError: not an object, no list of numbers
    as ``betas``, or params that are not an object with numbers as eta, k
    and q_hat1, an integer as d and a ``REGIMES`` value as regime.  Other
    keys are ignored.
    """
    with open(path) as fh:
        spec = json.load(fh)
    betas = spec.get("betas") if isinstance(spec, dict) else None
    if not isinstance(betas, list) or not all(_is_number(b) for b in betas):
        raise ValueError("a schedule file needs a list of numbers as 'betas'")
    schedule = CoolingSchedule(tuple(float(b) for b in betas))
    raw = spec.get("params")
    if raw is None:
        return schedule, None
    if not isinstance(raw, dict):
        raise ValueError("schedule params must be a JSON object")
    for name in ("eta", "d", "k", "q_hat1", "regime"):
        if name not in raw:
            raise ValueError(f"schedule params have no {name!r} field")
    for name in ("eta", "k", "q_hat1"):
        if not _is_number(raw[name]):
            raise ValueError(f"schedule params field {name!r} must be a number")
    if type(raw["d"]) is not int:
        raise ValueError("schedule params field 'd' must be an integer")
    if raw["regime"] not in REGIMES:
        raise ValueError(f"schedule params field 'regime' must be one of {', '.join(REGIMES)}")
    params = ScheduleParams(eta=float(raw["eta"]), d=raw["d"], k=float(raw["k"]),
                            q_hat1=float(raw["q_hat1"]), regime=raw["regime"])
    return schedule, params


def regime_for_model(model: GibbsModel) -> str:
    """Integer regimes need integer energies of a single sign; everything
    else goes through the shifted pipeline."""
    if model.integer_valued and model.sign_class == SIGN_NONPOSITIVE:
        return REGIME_INTEGER_NONPOSITIVE
    if model.integer_valued and model.sign_class == SIGN_NONNEGATIVE:
        return REGIME_INTEGER_NONNEGATIVE
    return REGIME_SHIFTED


def initial_estimate(
    oracle: SamplerOracle,
    beta: float,
    rng: np.random.Generator,
    trace: list | None = None,
) -> tuple[float, int]:
    """Estimate q from 5 TPA runs walked together.

    Returns (q_hat1, draws_used).  q_hat1 is the runs' total point count
    divided by 5, so it estimates q itself, and q_hat1 + 1/2 >= q/2 with
    probability >= 99%.
    """
    before = oracle.counter.total
    points = tpa_runs(oracle, beta, INITIAL_RUNS, rng, trace=trace)
    draws_used = oracle.counter.total - before
    return len(points) / INITIAL_RUNS, draws_used


def select_params(q_hat1: float, n: int, regime: str, beta: float) -> ScheduleParams:
    """Parameter choice for the target failure budget, per regime.

    Integer regimes: eta = 2/[2 + ln(2n)], d = ceil(22 ln(100 (2+ln 2n)
    (q_hat1 + 1/2))), k = (2/3) d (2 + ln 2n).  Shifted regime:
    eta = 2/ln 2, d = ceil(22 ln(200 (ln 2)^-1 (q_hat1 + 2 n beta + 1))),
    k = (2/3) (ln 2) d.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if q_hat1 < 0:
        raise ValueError("q_hat1 must be nonnegative")
    if regime in (REGIME_INTEGER_NONPOSITIVE, REGIME_INTEGER_NONNEGATIVE):
        scale = 2.0 + math.log(2.0 * n)
        eta = 2.0 / scale
        d = math.ceil(22.0 * math.log(100.0 * scale * (q_hat1 + 0.5)))
        k = (2.0 / 3.0) * d * scale
    elif regime == REGIME_SHIFTED:
        eta = 2.0 / math.log(2.0)
        d = math.ceil(
            22.0 * math.log(200.0 / math.log(2.0) * (q_hat1 + 2.0 * n * beta + 1.0))
        )
        k = (2.0 / 3.0) * math.log(2.0) * d
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return ScheduleParams(eta=eta, d=max(d, 1), k=k, q_hat1=q_hat1, regime=regime)


def well_balanced_schedule(
    oracle: SamplerOracle,
    beta: float,
    params: ScheduleParams,
    rng: np.random.Generator,
    trace: list | None = None,
) -> tuple[CoolingSchedule, int]:
    """Step 2: run TPA ceil(k) times, thin to rate k, keep every d-th point.

    Thinning keeps each point with probability k / ceil(k).  Points are kept
    counting from the end where the walk starts (the beta end when H <= 0,
    the 0 end when H >= 0), which is what makes consecutive kept z-gaps
    Gamma(d, k); the final partial block is absorbed into the interval
    touching the far endpoint.  Fewer than d points yield the legal
    single-interval schedule {0, beta}.
    """
    before = oracle.counter.total
    runs = math.ceil(params.k)
    pts = thin(tpa_runs(oracle, beta, runs, rng, trace=trace), params.k / runs, rng)
    draws_used = oracle.counter.total - before

    if oracle.model.sign_class == SIGN_NONPOSITIVE:
        pts = pts[::-1]
    kept = np.sort(pts[params.d - 1::params.d])
    return CoolingSchedule(betas=(0.0, *kept.tolist(), float(beta))), draws_used
