"""The benchmark's calls into gibbs_partition.

run.py imports this module only after it has put the checkout's ``src/``
first on ``sys.path``; importing it is the library import that ``setup_s``
times. Every call here goes through a public function of the library, so
the source needs no tracing of its own.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gibbs_partition import cli, estimators, models, samplers, schedule, streams, tpa
from measure import Tracer, median
from reference import cdf_kernel, draw_kernel

EPSILON = 0.1
# The k2-mcmc setting: 46 is the fewest systematic sweeps that keep each
# restart draw on k2 within total variation 1e-3 of pi_b for every b in [0, 1].
MCMC_SWEEPS = 46
TV_BUDGET = 1e-3
# run_experiment draws repetition 0 of a paired run from this stream.
PIPELINE_STREAM = "paired-rep"

MIXED5 = Path(__file__).resolve().parent / "models" / "mixed-5.json"


@dataclass(frozen=True)
class Case:
    """One model at one beta with one sampler, as a user would pass to the CLI."""

    label: str
    spec: str
    beta: float
    sampler: str = "exact"

    def config(self, seed: int) -> cli.ExperimentConfig:
        return cli.ExperimentConfig(
            model=self.spec,
            beta=self.beta,
            epsilon=EPSILON,
            sampler=self.sampler,
            mcmc_steps=MCMC_SWEEPS,
            tv_budget=TV_BUDGET if self.sampler == "mcmc" else 0.0,
            seed=seed,
            reps=1,
        )

    def oracle(self, model: models.GibbsModel) -> samplers.SamplerOracle:
        if self.sampler == "mcmc":
            return samplers.mcmc_oracle(model, MCMC_SWEEPS, TV_BUDGET)
        return samplers.exact_oracle(model)


# Why each workload exists is in README.md. A round runs every case once,
# in this order.
WORKLOADS = {
    "small-exact": (
        Case("k2", "k2", 1.0),
        Case("cycle-4", "cycle-4", 1.0),
        Case("grid-3x3", "grid-3x3", 1.0),
        Case("mixed-5", f"table:{MIXED5}", 1.0),
    ),
    "grid4x4-exact": (Case("grid-4x4", "grid-4x4", 0.5),),
    "k2-mcmc": (Case("k2", "k2", 1.0, "mcmc"),),
}
# The kernel each workload's estimate time is divided by: the kind of work
# that dominates it. Shared machines slow interpreter-bound and
# memory-bound code by different amounts, so one kernel cannot serve both.
REFERENCES = {"small-exact": draw_kernel, "grid4x4-exact": cdf_kernel, "k2-mcmc": draw_kernel}


def set_up(case: Case) -> float:
    """Model build, oracle construction and exact truth; returns ln Z(beta)/Z(0)."""
    model = cli.build_model(case.spec)
    case.oracle(model)
    return models.log_ratio_exact(model, case.beta)


def estimate(case: Case, seed: int) -> dict:
    """One estimate the way users run it: one repetition of run_experiment."""
    return cli.run_experiment(case.config(seed))[0]


@contextmanager
def pipeline_span(tracer: Tracer):
    """Time each paired_product_estimate call that run_experiment makes.

    The span is a child of the caller's run_experiment span, so the self
    time of that span is the CLI's overhead.
    """
    inner = estimators.paired_product_estimate

    def timed(*args, **kwargs):
        with tracer.span("estimators.paired_product_estimate"):
            return inner(*args, **kwargs)

    estimators.paired_product_estimate = timed
    try:
        yield
    finally:
        estimators.paired_product_estimate = inner


def _work_oracle(oracle: samplers.SamplerOracle):
    """The oracle the pipeline walks TPA on: mixed-sign models are shifted."""
    model = oracle.model
    regime = schedule.regime_for_model(model)
    if regime != schedule.REGIME_SHIFTED:
        return oracle, regime
    return oracle.with_model(models.shift_hamiltonian(model, -2.0 * model.n_bound)), regime


def replay(case: Case, seed: int, tracer: Tracer) -> dict:
    """Run one estimate again, one stage at a time, with a span per call.

    The stream is split with stage_stream(seed, "paired-rep", 0).spawn(3)
    as paired_product_estimate splits it, and the replicate stage is that
    function given the built schedule, so the result must equal
    run_experiment's for the same seed.
    """
    with tracer.span("models.build"):
        model = cli.build_model(case.spec)
    with tracer.span("models.truth"):
        models.log_ratio_exact(model, case.beta)
    with tracer.span("samplers.oracle"):
        oracle = case.oracle(model)
    with tracer.span("streams.split"):
        init_rng, sched_rng, _ = streams.stage_stream(seed, PIPELINE_STREAM, 0).spawn(3)
    with tracer.span("models.shift"):
        work, regime = _work_oracle(oracle)
    with tracer.span("schedule.init"):
        q_hat1, init_draws = schedule.initial_estimate(work, case.beta, init_rng)
    with tracer.span("schedule.select"):
        params = schedule.select_params(q_hat1, model.n_bound, regime, case.beta)
    with tracer.span("schedule.build"):
        built, build_draws = schedule.well_balanced_schedule(work, case.beta, params, sched_rng)
    rep_rng = streams.stage_stream(seed, PIPELINE_STREAM, 0)
    with tracer.span("estimators.replicates"):
        est = estimators.paired_product_estimate(
            oracle, case.beta, EPSILON, rep_rng, schedule=built, schedule_params=params
        )
    return {
        "model": model,
        "schedule": built,
        "log_estimate": est.log_ratio_estimate,
        "draws_total": init_draws + build_draws + est.draws_total,
        "schedule.init_draws": init_draws,
        "schedule.build_draws": build_draws,
        "schedule.points": len(built.betas),
        "schedule.tpa_runs": math.ceil(params.k),
        "estimators.replicates_draws": est.draws_total,
        "estimators.r": est.replicates,
        "samplers.coupling_allowance": samplers.coupling_failure_bound(
            oracle.tv_budget_per_draw, init_draws + build_draws + est.draws_total
        ),
    }


def _draw_us(oracle: samplers.SamplerOracle, betas, rng, per_batch: int, batches: int = 5) -> float:
    """Median over batches of microseconds per SamplerOracle.draw.

    Draws walk ``betas`` in order, wrapping around; the first batch warms
    the oracle and is not timed.
    """
    seq = [betas[i % len(betas)] for i in range(per_batch * (batches + 1))]
    draw = oracle.draw
    per_draw = []
    for batch in range(batches + 1):
        chunk = seq[batch * per_batch:(batch + 1) * per_batch]
        start = time.perf_counter()
        for b in chunk:
            draw(b, rng)
        if batch:
            per_draw.append((time.perf_counter() - start) / per_batch * 1e6)
    return median(per_draw)


def probe(case: Case, seed: int, model: models.GibbsModel, built, r: int) -> dict:
    """Direct calls into the sampler, TPA and stream layers of one model.

    ``built`` is a schedule the pipeline built for this model and ``r`` its
    replicate count.
    """
    rng = np.random.default_rng(seed)
    out = {
        # Every draw at a new b, as in TPA: the exact oracle builds a CDF each time.
        "samplers.draw_us.fresh_b": _draw_us(
            samplers.exact_oracle(model), rng.uniform(0.0, case.beta, 600).tolist(), rng, 100
        ),
        # Draws cycling over one schedule, as in the replicate stage.
        "samplers.draw_us.repeat_b": _draw_us(
            samplers.exact_oracle(model), list(built.betas), rng, 2000
        ),
    }
    if model.graph is not None:
        out["samplers.draw_us.mcmc"] = _draw_us(
            samplers.mcmc_oracle(model, MCMC_SWEEPS, TV_BUDGET), list(built.betas), rng, 100
        )
    work, _ = _work_oracle(case.oracle(model))
    seconds, draws = [], []
    for _ in range(30):
        before = work.counter.total
        start = time.perf_counter()
        tpa.tpa_run(work, case.beta, rng)
        seconds.append(time.perf_counter() - start)
        draws.append(work.counter.total - before)
    out["tpa.run_s"] = median(seconds)
    out["tpa.draws_per_run"] = sum(draws) / len(draws)
    spawns = []
    for _ in range(5):
        rep_rng = streams.stage_stream(seed, PIPELINE_STREAM, 0).spawn(3)[2]
        start = time.perf_counter()
        rep_rng.spawn(r)
        spawns.append(time.perf_counter() - start)
    out["streams.spawn_s"] = median(spawns)
    return out
