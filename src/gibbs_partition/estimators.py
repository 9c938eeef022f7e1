"""The paired product estimator and baseline estimators.

Per interval i of a cooling schedule, the paired factors

    W_i = exp(-delta_i H(X_i)),   V_i = exp(delta_i H(X_{i+1}))

are tilts toward the interval midpoint anchored at both endpoints
(delta_i is the parameter half-length), so E[W_i] = Z(m_i)/Z(beta_i) and
E[V_i] = Z(m_i)/Z(beta_{i+1}) and each factor's relative variance only
involves Z values inside the interval.  The full-run products W and V are
averaged over replicates and the ratio of the two sample means estimates
Z(beta)/Z(0).  Baselines: the multistage product estimator (on the
one-interval schedule {0, beta} it is single-shot importance sampling) and
the fixed two-piece linear/geometric schedule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .models import logsumexp, shift_hamiltonian
from .samplers import SamplerOracle
from .schedule import (
    REGIME_SHIFTED,
    CoolingSchedule,
    ScheduleParams,
    initial_estimate,
    regime_for_model,
    select_params,
    well_balanced_schedule,
)

# Replicate-count coefficients for the sample means in step 3.  The relvar
# bound for a well-balanced schedule is 2e in the integer regimes and e in
# the shifted regime, so the shifted pipeline needs half the replicates.
REPLICATE_COEFF_INTEGER = 2.0 * math.e * math.sqrt(10.0)
REPLICATE_COEFF_SHIFTED = math.e * math.sqrt(10.0)
# Geometric steps after which the two-piece schedule stops short of beta.
_GEOMETRIC_STEPS = 10_000


def exp_or_inf(log_value: float) -> float:
    """exp(log_value), saturating to inf past the float range instead of raising."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _inverse_square(x: float) -> float:
    """x ** -2, or inf where that passes the float range (x <= 2^-512)."""
    return x ** -2 if x > 2.0 ** -512 else math.inf


def epsilon_tilde(epsilon: float) -> float:
    """Per-mean accuracy target: the ratio of two means within (1+eps_tilde)^2.

    It is sqrt(1 + epsilon) - 1, written so that no subtraction cancels:
    the difference rounds to 0 for epsilon below about 3.3e-16."""
    return epsilon / (math.sqrt(1.0 + epsilon) + 1.0)


def replicate_count(epsilon: float, regime: str) -> int:
    """Step 3's replicates, coeff * epsilon_tilde^-2 rounded up.

    Below about epsilon = 1.5e-154 the count passes the float range, so no
    row of draws could hold it: that raises MemoryError."""
    coeff = (
        REPLICATE_COEFF_SHIFTED if regime == REGIME_SHIFTED else REPLICATE_COEFF_INTEGER
    )
    count = coeff * _inverse_square(epsilon_tilde(epsilon))
    if count == math.inf:
        raise MemoryError(f"epsilon={epsilon} needs more replicates than the float range holds")
    return math.ceil(count)


def _require_row(n: int) -> None:
    """Refuse n draws per row, before any draw, when no row of n can be allocated.

    A row is n doubles.  The allocation is tried and freed at once; one past
    numpy's largest array, 2^63 - 1 bytes, raises MemoryError as well."""
    try:
        np.empty(n)
    except ValueError as exc:
        raise MemoryError(f"cannot allocate a row of {n:.4g} draws: {exc}") from None


@dataclass(frozen=True)
class ParamOverrides:
    """Expert knobs replacing selected schedule/replicate parameters."""

    d: int | None = None
    k: float | None = None
    eta: float | None = None
    replicates: int | None = None


def _refuse_bad_reparam(overrides: ParamOverrides) -> None:
    """Refuse an eta or k override that is not positive and finite, or a d below 1.

    k = (4/3) d / eta is derived from eta when k is not given, so eta = 0
    is refused before it."""
    if overrides.k is None and overrides.eta == 0:
        raise ValueError("eta must be positive")
    given = [x for x in (overrides.eta, overrides.k) if x is not None]
    if not all(math.isfinite(x) for x in given):
        raise ValueError("eta and k overrides must be finite")
    if any(x <= 0 for x in given) or (overrides.d is not None and overrides.d < 1):
        raise ValueError("eta and k must be positive, d >= 1")


@dataclass(frozen=True)
class PairedEstimate:
    """Result of one full paired-product run.

    ``log_ratio_estimate`` is ln(mean W / mean V) + log_shift_correction, in
    logs so that no value passes the float range; it always refers to the
    caller's model, since the correction beta*c undoes the Hamiltonian shift
    of a shifted pipeline.  ``draws_total`` is the oracle counter delta
    across steps 1-3.
    """

    log_ratio_estimate: float
    replicates: int
    draws_total: int
    schedule: CoolingSchedule
    params: ScheduleParams | None
    log_shift_correction: float = 0.0


def paired_replicate_logs(
    schedule: CoolingSchedule, oracle: SamplerOracle, r: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """ln W and ln V of r replicates, from r energies at each schedule point
    in turn; X_{i+1} closes V_i and opens W_{i+1}.  Each row of energies is
    added into two running sums of r as it is drawn, in row order, so the
    stage never holds the (points, r) block, and no BLAS thread count
    reaches the last bits."""
    rows = oracle.energy_rows(schedule.betas, r, rng)
    sum_w, log_vs = np.zeros(r), np.zeros(r)
    previous = next(rows)
    for delta, energies in zip(schedule.half_lengths, rows):
        # A row closes its V factor before it opens the next W factor, its
        # last read, so that read scales it in place.
        sum_w += np.multiply(previous, delta, out=previous)
        log_vs += delta * energies
        previous = energies
    return np.negative(sum_w, out=sum_w), log_vs


def prepare(oracle: SamplerOracle, beta: float) -> tuple[SamplerOracle, str, float]:
    """Route a model to its pipeline: (oracle to walk, regime, log correction).

    Mixed-sign or non-integer models go through the shifted pipeline: the
    walked oracle sees H - 2n, which leaves every pi_b unchanged, and
    ln Z/Z0 = ln Z'/Z'0 + beta*c with c = -2n.  Other models walk as given,
    with correction 0.
    """
    model = oracle.model
    regime = regime_for_model(model)
    if regime != REGIME_SHIFTED:
        return oracle, regime, 0.0
    c = -2.0 * model.n_bound
    return oracle.with_model(shift_hamiltonian(model, c)), regime, beta * c


def paired_product_estimate(
    oracle: SamplerOracle,
    beta: float,
    epsilon: float,
    rng: np.random.Generator,
    overrides: ParamOverrides | None = None,
    schedule: CoolingSchedule | None = None,
    schedule_params: ScheduleParams | None = None,
    trace: list | None = None,
) -> PairedEstimate:
    """Full paired-product approximation of Z(beta)/Z(0).

    Steps: estimate q from 5 TPA runs, build a well-balanced schedule, then
    average replicate (W, V) products and return ln(mean W / mean V).  Under exact
    oracles the output is within a factor 1+epsilon of the truth with
    probability >= 3/4.  Mixed-sign or non-integer models are routed through
    the shifted pipeline automatically (H - 2n, same pi_b, ratio corrected
    back).  A pre-built ``schedule`` skips steps 1-2; it must end at ``beta``
    and takes no d, k or eta override.  An eta or k override that is not
    positive and finite, or a d override below 1, is refused before any draw.

    Args:
        oracle: sampler for pi_b on the caller's model.
        beta: target inverse temperature (> 0).
        epsilon: relative accuracy target; values above 1/10 warn.
        rng: parent generator; one child stream is spawned per stage.
        overrides: expert replacements for d, k, eta, replicates.
        schedule: reuse an existing schedule, ending at ``beta``, instead of
            building one.
        schedule_params: params to record alongside a reused schedule; it
            needs ``schedule``.
        trace: optional list collecting TPA step records.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if epsilon > 0.1:
        warnings.warn(
            "the (epsilon, 3/4) guarantee is analyzed for epsilon <= 1/10; "
            f"epsilon={epsilon} accepted without it",
            stacklevel=2,
        )
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if schedule is not None and schedule.beta != beta:
        raise ValueError(f"the schedule ends at beta={schedule.beta}, not at beta={beta}")
    if schedule is None and schedule_params is not None:
        raise ValueError("schedule_params need a schedule: step 2 would replace them")
    overrides = overrides or ParamOverrides()
    reparam = any(x is not None for x in (overrides.d, overrides.k, overrides.eta))
    if schedule is not None and reparam:
        raise ValueError("a given schedule fixes d, k and eta: they cannot be overridden")
    if reparam:
        _refuse_bad_reparam(overrides)

    work, regime, log_shift = prepare(oracle, beta)
    r = (
        overrides.replicates
        if overrides.replicates is not None
        else replicate_count(epsilon, regime)
    )
    if r < 1:
        raise ValueError("replicates must be >= 1")
    _require_row(r)
    start = oracle.counter.total
    init_rng, sched_rng, rep_rng = rng.spawn(3)

    params = schedule_params
    if schedule is None:
        q_hat1, _ = initial_estimate(work, beta, init_rng, trace=trace)
        params = select_params(q_hat1, oracle.model.n_bound, regime, beta)
        if reparam:
            eta = overrides.eta if overrides.eta is not None else params.eta
            d = overrides.d if overrides.d is not None else params.d
            k = overrides.k if overrides.k is not None else (4.0 / 3.0) * d / eta
            params = ScheduleParams(eta=eta, d=d, k=k, q_hat1=q_hat1, regime=regime)
        schedule, _ = well_balanced_schedule(work, beta, params, sched_rng, trace=trace)

    log_ws, log_vs = paired_replicate_logs(schedule, work, r, rep_rng)
    log_w_bar = logsumexp(log_ws) - math.log(r)
    log_v_bar = logsumexp(log_vs) - math.log(r)

    return PairedEstimate(
        log_ratio_estimate=log_w_bar - log_v_bar + log_shift,
        replicates=r,
        draws_total=oracle.counter.total - start,
        schedule=schedule,
        params=params,
        log_shift_correction=log_shift,
    )


def median_boosted_estimate(
    oracle: SamplerOracle,
    beta: float,
    epsilon: float,
    rng: np.random.Generator,
    boost: int = 1,
    **kwargs,
) -> PairedEstimate:
    """Median of ``boost`` independent full estimates (odd boost only).

    Repetition plus the median pushes the 3/4 confidence arbitrarily close
    to 1; draws_total accumulates across all component runs.
    """
    if boost < 1 or boost % 2 == 0:
        raise ValueError("boost must be a positive odd integer")
    if boost == 1:
        return paired_product_estimate(oracle, beta, epsilon, rng, **kwargs)
    runs = [
        paired_product_estimate(oracle, beta, epsilon, child, **kwargs)
        for child in rng.spawn(boost)
    ]
    runs.sort(key=lambda est: est.log_ratio_estimate)
    return replace(runs[boost // 2], draws_total=sum(est.draws_total for est in runs))


def bezakova_schedule(q: float, n: int, beta: float) -> CoolingSchedule:
    """Fixed two-piece schedule: linear steps 1/n up to ceil(q)/n, then
    geometric growth by 1 + 1/q, truncated at and capped by beta.

    The geometric part stops after 10,000 steps, since it cannot reach beta
    when 1 + 1/q rounds to 1; it then warns with the final interval's width.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    kk = math.ceil(q)
    gamma = 1.0 + 1.0 / q
    points = [j / n for j in range(kk + 1)]
    t = 1
    nxt = kk * gamma / n
    while nxt < beta and t <= _GEOMETRIC_STEPS:
        points.append(nxt)
        t += 1
        nxt = kk * gamma ** t / n
    betas = [0.0, *(p for p in points[1:] if p < beta - 1e-12)]
    if nxt < beta:
        warnings.warn(
            f"bezakova_schedule stopped after {_GEOMETRIC_STEPS:,} geometric steps "
            f"short of beta; its final interval is {beta - betas[-1]:.6g} wide",
            UserWarning,
            stacklevel=2,
        )
    return CoolingSchedule(betas=(*betas, float(beta)))


def product_log_estimate(
    schedule: CoolingSchedule,
    oracle: SamplerOracle,
    draws_per_stage: int,
    rng: np.random.Generator,
) -> float:
    """Multistage product baseline, in logs: per stage i, the log sample mean
    of exp(-(beta_{i+1} - beta_i) H(X)) with X ~ pi_{beta_i}; stages add."""
    if draws_per_stage < 1:
        raise ValueError("draws_per_stage must be >= 1")
    _require_row(draws_per_stage)
    betas = schedule.betas
    energies = oracle.energy_rows(betas[:-1], draws_per_stage, rng)
    log_total = 0.0
    for lo, hi, row in zip(betas, betas[1:], energies):
        log_total += logsumexp(-(hi - lo) * row) - math.log(draws_per_stage)
    return log_total


def product_baseline_log_estimate(
    oracle: SamplerOracle,
    beta: float,
    draws: int,
    rng: np.random.Generator,
    trace: list | None = None,
) -> tuple[float, CoolingSchedule]:
    """Multistage product baseline on the fixed two-piece schedule, in logs.

    q comes from the 5-run TPA initial estimate; the schedule is
    ``bezakova_schedule`` at that q, or {0, beta} when q_hat is 0, and each
    of its stages gets ``max(1, draws // intervals)`` draws.  Models are
    routed through ``prepare`` as in the paired pipeline.  Returns the log
    estimate of Z(beta)/Z(0) and the schedule.  A budget below one draw
    raises ValueError before any draw, and one whose smallest possible
    stage row cannot be allocated raises MemoryError before any draw.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    # bezakova_schedule puts at most ceil(beta n) linear points and
    # _GEOMETRIC_STEPS geometric ones below beta, so it makes at most one
    # interval more than that and no stage takes fewer draws than this row.
    # A beta n past the float range bounds nothing.
    span = beta * oracle.model.n_bound
    if 0 < span < math.inf:
        _require_row(max(1, draws // (math.ceil(span) + _GEOMETRIC_STEPS + 1)))
    work, _, log_shift = prepare(oracle, beta)
    q_hat1, _ = initial_estimate(work, beta, rng, trace=trace)
    if q_hat1 > 0:
        schedule = bezakova_schedule(q_hat1, oracle.model.n_bound, beta)
    else:
        schedule = CoolingSchedule(betas=(0.0, float(beta)))
    per_stage = max(1, draws // schedule.num_intervals)
    return product_log_estimate(schedule, work, per_stage, rng) + log_shift, schedule


def sample_bound_integer(q: float, n: int, epsilon: float) -> float:
    """Average-draw bound for the integer regimes, evaluated for an instance.

    q is |ln Z(beta)/Z(0)| of the caller's model, as ``cli`` passes it, and
    n its ``n_bound``."""
    scale = 2.0 + math.log(2.0 * n)
    return (q + 1.0) * (
        5.0 + scale * (14.9 * math.log(100.0 * scale * (q + 1.0)) + 48.2 * _inverse_square(epsilon))
    )


def sample_bound_shifted(q: float, n: int, beta: float, epsilon: float) -> float:
    """Average-draw bound for the shifted pipeline, evaluated for an instance.

    q is |ln Z(beta)/Z(0)| of the caller's model, not of the shifted one
    the pipeline walks; the bound adds the shift's 2 n beta itself.  It is
    not yet a bound everywhere: on mixed-5 at beta 1 and epsilon 0.1 the
    paired mean over 100 seeds is 14,903 draws against 10,162, until its
    evaluation point or its constant is corrected (ROADMAP item 16)."""
    x = q + 2.0 * n * beta + 1.0
    return x * (5.0 + 10.7 * math.log(69.4 * x) + 16.7 * _inverse_square(epsilon))
