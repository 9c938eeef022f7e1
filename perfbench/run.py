"""Benchmark of the paired-product pipeline at epsilon = 0.1.

    python3 perfbench/run.py --workload small-exact --seed 1 --seconds 30 --trace 0

A closed loop: one caller runs whole rounds of estimates, each a timed
``run_experiment`` call with ``reps=1`` and a seed drawn from ``--seed``,
and starts a round only after the previous one returned. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same seeds again,
stage by stage, and reports the per-layer metrics. Human-readable lines
come first; the last line of standard output is one JSON object.
``--out FILE`` appends the full record, with every estimate, for
compare.py.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from measure import Tracer, coverage, mean, median, self_time, tail_percentile

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREADS_ENV = "GIBBS_PARTITION_THREADS"
SETUP_REPEATS = 3
# An estimate this many epsilon bands from the truth is a defect, not bad luck:
# at r = 7217 replicates the log-estimate's standard deviation is under 0.04.
GROSS_BANDS = 5
MIN_COVERAGE = 0.5

# BENCHMARK.json names the reported metrics and their units.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Reported beside the metrics; the tail percentile's unit is s.
EXTRA_UNITS = {
    "estimate_s_p50": "s",
    "estimates_per_s": "1/s",
    "reference_ms": "ms",
    "estimate_n": "count",
    "rounds": "count",
    "coverage": "share",
    "error_rate": "share",
    "traced_estimates": "count",
    "reproduced": "count",
}
# Spans of the staged replay whose mean per estimate is a per-layer metric.
SPAN_METRICS = {
    "models.build": "models.build_s",
    "models.truth": "models.truth_s",
    "samplers.oracle": "samplers.oracle_s",
    "schedule.init": "schedule.init_s",
    "schedule.build": "schedule.build_s",
    "estimators.replicates": "estimators.replicates_s",
    "replay": "trace.estimate_s",
}
# Direct calls made once per model; a workload reports their median over models.
PROBE_METRICS = (
    "samplers.draw_us.fresh_b",
    "samplers.draw_us.repeat_b",
    "samplers.draw_us.mcmc",
    "tpa.run_s",
    "tpa.draws_per_run",
    "streams.spawn_s",
)


def load_stages():
    """Import the library from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import gibbs_partition

    if not Path(gibbs_partition.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gibbs_partition loaded from {gibbs_partition.__file__}, not {SRC}")
    import stages

    return stages


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def seeds(workload: str, seed: int, cases):
    """Endless (round, case, estimate seed) triples, the same for the same --seed."""
    rng = random.Random(f"{workload}/{seed}")
    for round_ in itertools.count():
        for case in cases:
            yield round_, case, rng.getrandbits(32)


def closed_loop(workload: str, seed: int, seconds: float, cases, run_round) -> float:
    """Run whole rounds until the budget; returns the loop's wall seconds.

    A round starts only while the time spent plus half a typical round stays
    within the budget, so the loop ends as near the budget as whole rounds
    allow. At least one round always runs.
    """
    pairs = seeds(workload, seed, cases)
    start = time.perf_counter()
    rounds = []
    while True:
        began = time.perf_counter()
        run_round([next(pairs) for _ in cases])
        rounds.append(time.perf_counter() - began)
        if time.perf_counter() - start + median(rounds) / 2 >= seconds:
            return time.perf_counter() - start


def setup_seconds(workload: str) -> float:
    """Median over fresh processes of import, model build, oracle and truth."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return median(samples)


def setup_probe(workload: str) -> None:
    start = time.perf_counter()
    stages = load_stages()
    for case in stages.WORKLOADS[workload]:
        stages.set_up(case)
    print(time.perf_counter() - start)


def check_row(row: dict, truth: float) -> str | None:
    """Why a completed estimate's output is wrong, or None."""
    if row["true_log_ratio"] != truth:
        return f"true_log_ratio {row['true_log_ratio']} differs from ln Z ratio {truth}"
    if row["draws_total"] < 1:
        return "no draws counted"
    if abs(row["log_estimate"] - truth) > GROSS_BANDS * math.log1p(row["epsilon"]):
        return f"log_estimate {row['log_estimate']} is far from the truth {truth}"
    return None


class Outcome:
    """Estimates, failures and output errors of one run."""

    def __init__(self, truths: dict, epsilon: float):
        self.truths = truths
        self.epsilon = epsilon
        self.estimates: list[dict] = []
        self.failed = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.estimates) + self.failed

    def attempt(self, case, seed: int, call):
        """Run ``call`` and keep its row; an exception or a non-finite
        log-estimate counts as failed and the run goes on."""
        try:
            row, extra = call()
        except Exception:  # counted in error_rate; the run must go on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        if not math.isfinite(row["log_estimate"]):
            print(f"{case.label} seed {seed}: non-finite log_estimate", file=sys.stderr)
            self.failed += 1
            return
        problem = check_row(row, self.truths[case.label])
        if problem:
            self.errors.append(f"{case.label} seed {seed}: {problem}")
        self.estimates.append(
            {
                "case": case.label,
                "seed": seed,
                "log_estimate": row["log_estimate"],
                "true_log_ratio": row["true_log_ratio"],
                "draws_total": row["draws_total"],
                **extra,
            }
        )

    def require_estimates(self) -> None:
        """No metric exists without a completed estimate: end the run."""
        if not self.estimates:
            raise SystemExit(f"no estimate completed; {self.failed} failed")

    @property
    def coverage(self) -> float:
        return coverage(
            [e["log_estimate"] for e in self.estimates],
            [e["true_log_ratio"] for e in self.estimates],
            self.epsilon,
        )

    def correct(self) -> bool:
        if self.coverage < MIN_COVERAGE:
            self.errors.append(f"coverage {self.coverage} below {MIN_COVERAGE}")
        return self.failed == 0 and bool(self.estimates) and not self.errors


def untraced(stages, workload: str, seed: int, seconds: float, outcome: Outcome):
    kernel = stages.REFERENCES[workload]
    reference = []

    def run_round(batch):
        before = kernel()
        for round_, case, est_seed in batch:
            gc.collect()
            start = time.perf_counter()

            def call():
                row = stages.estimate(case, est_seed)
                return row, {"seconds": time.perf_counter() - start, "round": round_}

            outcome.attempt(case, est_seed, call)
        reference.append((before + kernel()) / 2)

    wall = closed_loop(workload, seed, seconds, stages.WORKLOADS[workload], run_round)
    outcome.require_estimates()
    # A round holds one estimate of each model, so times are taken per round:
    # the median of single estimates would sit on the boundary between two
    # models' times.
    by_round = defaultdict(list)
    for e in outcome.estimates:
        by_round[e["round"]].append(e["seconds"])
    times = [mean(v) for v in by_round.values()]
    # Other tenants of a shared machine slow it by up to 1.8x for minutes at
    # a time, which moves every median of seconds by more than any bound
    # allows. Dividing each round by the reference kernel timed around it
    # cancels most of that.
    costs = [mean(v) / reference[r] for r, v in by_round.items()]
    metrics = {
        "estimate_ref_p50": median(costs),
        "draws_per_estimate": mean(e["draws_total"] for e in outcome.estimates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "estimate_s_p50": median(times),
        "estimates_per_s": len(outcome.estimates) / wall,
        "reference_ms": 1e3 * median(reference),
        "estimate_n": len(outcome.estimates),
        "rounds": len(times),
        "coverage": outcome.coverage,
        "error_rate": outcome.failed / outcome.attempted,
    }
    tail = tail_percentile(times)
    if tail:
        extra[f"estimate_s_p{tail[0]}"] = tail[1]
    return metrics, extra


def traced(stages, workload: str, seed: int, seconds: float, outcome: Outcome):
    tracer = Tracer()
    probes: dict[str, dict] = {}
    mismatched = []

    def run_one(case, est_seed):
        tracer.estimate += 1

        def call():
            gc.collect()
            with stages.pipeline_span(tracer), tracer.span("cli.run_experiment"):
                row = stages.estimate(case, est_seed)
            cli_span = tracer.last("cli.run_experiment")
            gc.collect()
            with tracer.span("replay"):
                staged = stages.replay(case, est_seed, tracer)
            if (staged["log_estimate"], staged["draws_total"]) != (row["log_estimate"], row["draws_total"]):
                mismatched.append(est_seed)
                outcome.errors.append(
                    f"{case.label} seed {est_seed}: replay gave ({staged['log_estimate']}, "
                    f"{staged['draws_total']}), run_experiment ({row['log_estimate']}, {row['draws_total']})"
                )
            spans = {s.name: s for s in tracer.spans if s.estimate == tracer.estimate}
            extra = {
                metric: spans[name].seconds for name, metric in SPAN_METRICS.items()
            }
            extra["cli.estimate_s"] = tracer.spans[cli_span].seconds
            extra["cli.overhead_s"] = self_time(tracer.spans[cli_span], tracer.children(cli_span))
            extra.update({k: v for k, v in staged.items() if k not in ("model", "schedule")})
            if case.label not in probes:
                probes[case.label] = stages.probe(
                    case, est_seed, staged["model"], staged["schedule"], staged["estimators.r"]
                )
            return row, extra

        outcome.attempt(case, est_seed, call)

    def run_round(batch):
        for _, case, est_seed in batch:
            run_one(case, est_seed)

    closed_loop(workload, seed, seconds, stages.WORKLOADS[workload], run_round)
    outcome.require_estimates()
    metrics = layer_metrics(outcome.estimates, list(probes.values()))
    extra = {
        "traced_estimates": len(outcome.estimates),
        "reproduced": len(outcome.estimates) - len(mismatched),
    }
    if len(probes) > 1:
        for label, probe in probes.items():
            mine = [e for e in outcome.estimates if e["case"] == label]
            for name, value in layer_metrics(mine, [probe]).items():
                extra[f"{name}.{label}"] = value
    return metrics, extra


def layer_metrics(estimates: list[dict], probes: list[dict]) -> dict:
    """Per-layer metrics from traced estimates and per-model probes.

    Stage times and counts are means per estimate, so they add up; a
    share or a time per draw is a ratio of sums over the estimates.
    """
    total = sum(e["trace.estimate_s"] for e in estimates)

    def per_draw(seconds_key, draws_key):
        return 1e6 * sum(e[seconds_key] for e in estimates) / sum(e[draws_key] for e in estimates)

    out = {}
    for name in PER_LAYER_UNITS:
        if name in PROBE_METRICS:
            values = [p[name] for p in probes if name in p]
            if values:
                out[name] = median(values)
        elif estimates and name in estimates[0]:
            out[name] = mean(e[name] for e in estimates)
    out["cli.draws_per_estimate"] = mean(e["draws_total"] for e in estimates)
    out["schedule.build_us_per_draw"] = per_draw("schedule.build_s", "schedule.build_draws")
    out["schedule.build_share"] = sum(e["schedule.build_s"] for e in estimates) / total
    out["estimators.replicates_us_per_draw"] = per_draw(
        "estimators.replicates_s", "estimators.replicates_draws"
    )
    out["estimators.replicates_share"] = sum(e["estimators.replicates_s"] for e in estimates) / total
    out["trace.overhead_share"] = total / sum(e["cli.estimate_s"] for e in estimates) - 1.0
    return {name: out[name] for name in PER_LAYER_UNITS if name in out}


def report(args, env, outcome, metrics, extra, units) -> dict:
    """Print every metric with its unit; returns the result object."""
    correct = outcome.correct()
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  correct {correct}  "
        f"attempted {outcome.attempted}  failed {outcome.failed}  "
        + "  ".join(f"{k} {v}" for k, v in env.items())
    )
    extra = {
        name: {
            "value": value,
            "unit": EXTRA_UNITS.get(name) or units.get(name.rsplit(".", 1)[0], "s"),
        }
        for name, value in extra.items()
    }
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, metric in {**metrics, **extra}.items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    for error in outcome.errors:
        print(f"  error: {error}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record as a JSON line to this file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ[THREADS_ENV] = "1"

    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    stages = load_stages()
    if args.workload not in stages.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(stages.WORKLOADS)}")
    env = environment()
    setup_s = setup_seconds(args.workload) if not args.trace else None
    truths = {case.label: stages.set_up(case) for case in stages.WORKLOADS[args.workload]}
    outcome = Outcome(truths, stages.EPSILON)
    if args.trace:
        metrics, extra = traced(stages, args.workload, args.seed, args.seconds, outcome)
        units = PER_LAYER_UNITS
    else:
        metrics, extra = untraced(stages, args.workload, args.seed, args.seconds, outcome)
        metrics = {"setup_s": setup_s, **metrics}
        units = END_TO_END_UNITS
    result, extra = report(args, env, outcome, metrics, extra, units)
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "epsilon": stages.EPSILON,
            "trace": args.trace,
            "environment": env,
            **result,
            "extra": extra,
            "errors": outcome.errors,
            "estimates": outcome.estimates,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
