"""Experiment runner: model loading, method dispatch, seeding, result tables.

Repetition r of a run derives all of its randomness from (seed, stage, r),
so tables are byte-identical across reruns and worker counts.  CSV rows
deliberately exclude wall-clock time (it lives in the JSON sidecar) to keep
the determinism contract checkable by byte comparison.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

from . import estimators, models, samplers, schedule as sched_mod
from .streams import stage_stream

THREADS_ENV = "GIBBS_PARTITION_THREADS"

CSV_FIELDS = [
    "rep",
    "method",
    "model",
    "beta",
    "epsilon",
    "sampler",
    "estimate",
    "log_estimate",
    "true_log_ratio",
    "replicates",
    "draws_total",
    "schedule_length",
    "seed",
]

COMPARE_FIELDS = [
    "method",
    "model",
    "beta",
    "epsilon",
    "reps",
    "coverage",
    "mean_draws",
    "mean_abs_log_error",
    "sample_bound",
    "seed",
]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    model: str
    beta: float
    epsilon: float = 0.1
    method: str = "paired"
    sampler: str = "exact"
    mcmc_steps: int = 100
    tv_budget: float = 0.0
    seed: int = 0
    reps: int = 1
    boost: int = 1
    draws: int = 10_000
    overrides: dict = field(default_factory=dict)
    schedule_in: str | None = None
    schedule_out: str | None = None
    trace: str | None = None

    def validate(self):
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        if not (0 < self.epsilon <= 1):
            raise ConfigError("epsilon must lie in (0, 1]")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if self.method not in ("paired", "product", "single", "exact"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.sampler not in ("exact", "mcmc"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.tv_budget != 0.0 and self.sampler != "mcmc":
            raise ConfigError("tv_budget needs sampler mcmc")
        if self.boost < 1 or self.boost % 2 == 0:
            raise ConfigError("boost must be a positive odd integer")
        if self.boost != 1 and self.method != "paired":
            raise ConfigError("boost needs method paired")
        if self.draws < 1:
            raise ConfigError("draws must be >= 1")
        if (self.schedule_in or self.schedule_out) and self.method != "paired":
            raise ConfigError("schedule_in and schedule_out need method paired")
        if self.schedule_in and {"d", "k", "eta"} & set(self.overrides):
            raise ConfigError("schedule_in fixes the schedule: d, k and eta cannot be overridden")


def build_model(spec: str) -> models.GibbsModel:
    """Resolve a model shorthand: k2 | path-N | cycle-N | grid-RxC | const-h | table:<file>."""
    if spec == "k2":
        return models.ising_model([(0, 1)], num_vertices=2)
    kind, _, size = spec.partition("-")
    if kind in ("path", "cycle", "grid"):
        if not re.fullmatch("[0-9]+x[0-9]+" if kind == "grid" else "[0-9]+", size):
            form = "RxC" if kind == "grid" else "N"
            raise ConfigError(f"model spec {spec!r} is not of the form {kind}-{form}")
        if kind == "grid":
            return models.grid_model(*map(int, size.split("x")))
        n = int(size)
        # Guard before the edge list: a path of millions of sites costs GBs.
        models.require_countable(n)
        edges = models.path_edges(n) if kind == "path" else models.cycle_edges(n)
        return models.ising_model(edges, num_vertices=n)
    if spec.startswith("const-"):
        return models.constant_model(float(spec[len("const-"):]))
    if spec.startswith("table:"):
        return models.load_model(spec[len("table:"):])
    raise ConfigError(f"unknown model spec {spec!r}")


def build_oracle(model: models.GibbsModel, config: ExperimentConfig) -> samplers.SamplerOracle:
    if config.sampler == "exact":
        return samplers.exact_oracle(model)
    return samplers.mcmc_oracle(model, config.mcmc_steps, config.tv_budget)


def parse_overrides(text: str) -> dict:
    """Parse 'd=140,k=300.5,eta=0.5,r=100' into override fields."""
    out: dict = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key == "d":
            out["d"] = int(value)
        elif key == "k":
            out["k"] = float(value)
        elif key == "eta":
            out["eta"] = float(value)
        elif key == "r":
            out["replicates"] = int(value)
        else:
            raise ConfigError(f"unknown override {key!r}")
    return out


def _load_schedule(path: str):
    with open(path) as fh:
        spec = json.load(fh)
    schedule = sched_mod.CoolingSchedule.from_dict(spec)
    params = (
        sched_mod.ScheduleParams.from_dict(spec["params"]) if spec.get("params") else None
    )
    return schedule, params


def _save_schedule(path: str, schedule: sched_mod.CoolingSchedule, params) -> None:
    spec = schedule.to_dict()
    spec["params"] = params.to_dict() if params is not None else None
    with open(path, "w") as fh:
        json.dump(spec, fh)


def _run_repetition(config: ExperimentConfig, model: models.GibbsModel, truth, rep: int) -> dict:
    """One independent repetition; safe to run in a worker process.

    ``truth`` is ``models.log_ratio_exact(model, config.beta)``.  Each method
    makes one library call on a fresh oracle, so ``draws_total`` is that
    oracle's draw count.  With ``schedule_out`` the paired method saves the
    schedule and params its estimate used.
    """
    start = time.perf_counter()
    trace: list | None = [] if config.trace else None
    draws = replicates = 0
    if config.method == "exact":
        log_est, length = truth, 0
    else:
        oracle = build_oracle(model, config)
        rng = stage_stream(config.seed, f"{config.method}-rep", rep)
        if config.method == "paired":
            schedule = params = None
            if config.schedule_in:
                schedule, params = _load_schedule(config.schedule_in)
            est = estimators.median_boosted_estimate(
                oracle,
                config.beta,
                config.epsilon,
                rng,
                boost=config.boost,
                overrides=estimators.ParamOverrides(**config.overrides),
                schedule=schedule,
                schedule_params=params,
                trace=trace,
            )
            if config.schedule_out:
                _save_schedule(config.schedule_out, est.schedule, est.params)
            log_est, length, replicates = (
                est.log_ratio_estimate, len(est.schedule.betas), est.replicates
            )
        elif config.method == "single":
            log_est = estimators.single_shot_log_estimate(
                oracle, config.beta, config.draws, rng
            )
            length = 2
        else:  # product
            log_est, schedule = estimators.product_baseline_log_estimate(
                oracle, config.beta, config.draws, rng, trace=trace
            )
            length = len(schedule.betas)
        draws = oracle.counter.total
    return {
        "rep": rep,
        "method": config.method,
        "model": config.model,
        "beta": config.beta,
        "epsilon": config.epsilon,
        "sampler": config.sampler,
        "estimate": estimators.exp_or_inf(log_est),
        "log_estimate": log_est,
        "true_log_ratio": truth,
        "replicates": replicates,
        "draws_total": draws,
        "schedule_length": length,
        "seed": config.seed,
        "_trace": trace,
        "_wall_time": time.perf_counter() - start,
    }


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Execute `reps` independent estimates on one model; rows are in repetition order.

    With ``schedule_out``, repetition 0 runs first and saves its schedule;
    repetitions 1.. read that file back as their ``schedule_in``.  With
    ``trace``, every repetition's TPA step records go to that file.
    """
    config.validate()
    model = build_model(config.model)
    return _run_on(config, model, models.log_ratio_exact(model, config.beta))


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1") or "1"
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, not {raw!r}") from None


def _run_on(config: ExperimentConfig, model: models.GibbsModel, truth) -> list[dict]:
    reps = 1 if config.method == "exact" else config.reps
    rows: list[dict] = []
    if config.schedule_out:
        rows = [_run_repetition(config, model, truth, 0)]
        config = replace(config, schedule_in=config.schedule_out, schedule_out=None)
    todo = range(len(rows), reps)
    threads = _worker_count()
    if threads > 1 and len(todo) > 1 and not config.trace:
        n = len(todo)
        # A forked pool starts all its workers at once: no more than the repetitions left.
        with ProcessPoolExecutor(max_workers=min(threads, n)) as pool:
            rows += pool.map(_run_repetition, [config] * n, [model] * n, [truth] * n, todo)
    else:
        rows += [_run_repetition(config, model, truth, rep) for rep in todo]
    if config.trace:
        _write_trace(rows, config.trace)
    return rows


def compare_methods(config: ExperimentConfig, methods: list[str]) -> list[dict]:
    """Paired vs baselines at matched draw budgets, with the instance bound.

    ``schedule_in``, ``schedule_out`` and ``trace`` act on the paired rows only.
    """
    config.validate()
    if not methods:
        raise ConfigError("empty method list")
    for m in methods:
        if m not in ("paired", "product", "single"):
            raise ConfigError(f"compare does not support method {m!r}")

    model = build_model(config.model)
    truth = models.log_ratio_exact(model, config.beta)
    band = math.log(1.0 + config.epsilon)
    regime = sched_mod.regime_for_model(model)
    q = abs(truth)
    if regime == sched_mod.REGIME_SHIFTED:
        bound = estimators.sample_bound_shifted(
            q, model.n_bound, config.beta, config.epsilon
        )
    else:
        bound = estimators.sample_bound_integer(q, model.n_bound, config.epsilon)

    paired_rows = _run_on(replace(config, method="paired"), model, truth)
    mean_paired_draws = sum(r["draws_total"] for r in paired_rows) / len(paired_rows)

    table = []
    for method in methods:
        if method == "paired":
            rows = paired_rows
        else:
            draws = max(1, round(mean_paired_draws))
            rows = _run_on(replace(config, method=method, draws=draws, schedule_in=None,
                                   schedule_out=None, trace=None), model, truth)
        errs = [abs(r["log_estimate"] - truth) for r in rows if math.isfinite(r["log_estimate"])]
        table.append(
            {
                "method": method,
                "model": config.model,
                "beta": config.beta,
                "epsilon": config.epsilon,
                "reps": config.reps,
                "coverage": sum(err <= band for err in errs) / len(rows),
                "mean_draws": sum(r["draws_total"] for r in rows) / len(rows),
                "mean_abs_log_error": sum(errs) / len(errs) if errs else float("nan"),
                "sample_bound": bound,
                "seed": config.seed,
            }
        )
    return table


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows: list[dict], fields: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_fmt(row.get(f)) for f in fields])
    return buf.getvalue()


def _json_safe(value):
    """``value`` with non-finite floats as "inf", "-inf" and "nan".

    JSON (RFC 8259) has no tokens for them; these strings are the ones CSV
    writes.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _dumps(value, **kwargs) -> str:
    return json.dumps(_json_safe(value), allow_nan=False, **kwargs)


def _emit(rows, fields, config, out, fmt, elapsed):
    if fmt == "json":
        payload = []
        for row in rows:
            rec = {f: row.get(f) for f in fields}
            if "_wall_time" in row:
                rec["wall_time"] = row["_wall_time"]
            payload.append(rec)
        text = _dumps(payload, indent=2) + "\n"
    else:
        text = render_csv(rows, fields)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        sidecar = out + ".config.json"
        with open(sidecar, "w") as fh:
            fh.write(_dumps({"config": asdict(config), "wall_time": elapsed}, indent=2))
    else:
        sys.stdout.write(text)


def _write_trace(rows: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for row in rows:
            for record in row.pop("_trace", []) or []:
                fh.write(_dumps(record) + "\n")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="k2|path-N|cycle-N|grid-RxC|const-h|table:<file>")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--sampler", choices=["exact", "mcmc"], default="exact")
    p.add_argument("--mcmc-steps", type=int, default=None, help="default 100; needs --sampler mcmc")
    p.add_argument("--tv-budget", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--boost", type=int, default=1)
    p.add_argument("--draws", type=int, default=10_000,
                   help="draw budget for the single/product baselines")
    p.add_argument("--expert-overrides", default="",
                   help="expert mode: d=..,k=..,eta=..,r=..")
    p.add_argument("--schedule-in", default=None)
    p.add_argument("--schedule-out", default=None)
    p.add_argument("--trace", default=None, help="write TPA step records (JSON lines)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _config_from_args(args) -> ExperimentConfig:
    if args.mcmc_steps is not None and args.sampler != "mcmc":
        raise ConfigError("mcmc_steps needs sampler mcmc")
    return ExperimentConfig(
        model=args.model,
        beta=args.beta,
        epsilon=args.epsilon,
        method=getattr(args, "method", "paired"),
        sampler=args.sampler,
        mcmc_steps=ExperimentConfig.mcmc_steps if args.mcmc_steps is None else args.mcmc_steps,
        tv_budget=args.tv_budget,
        seed=args.seed,
        reps=args.reps,
        boost=args.boost,
        draws=args.draws,
        overrides=parse_overrides(args.expert_overrides),
        schedule_in=args.schedule_in,
        schedule_out=args.schedule_out,
        trace=args.trace,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gibbs-partition",
        description="Estimate Z(beta)/Z(0) of discrete Gibbs models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one estimation method")
    run_p.add_argument("--method", choices=["paired", "product", "single", "exact"],
                       default="paired")
    _add_common_args(run_p)

    cmp_p = sub.add_parser("compare", help="compare methods at matched draw budgets")
    cmp_p.add_argument("--methods", default="paired,product,single",
                       help="comma-separated subset of paired,product,single")
    _add_common_args(cmp_p)

    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        config = _config_from_args(args)
        if args.command == "run":
            rows, fields = run_experiment(config), CSV_FIELDS
        else:
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            rows, fields = compare_methods(config, methods), COMPARE_FIELDS
        _emit(rows, fields, config, args.out, args.format, time.perf_counter() - start)
    except (models.EnumerationGuardError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
