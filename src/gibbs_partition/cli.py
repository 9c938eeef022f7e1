"""Experiment runner: model loading, method dispatch, seeding, result tables.

Repetition r of a run derives all of its randomness from (seed, stage, r),
so tables are byte-identical across reruns and worker counts.  CSV rows
deliberately exclude wall-clock time (it lives in the JSON sidecar) to keep
the determinism contract checkable by byte comparison.

Each input is settable only where a run reads it, and exits 2 before any
draw elsewhere: ``READERS`` names the runs that read each input that only
some runs read, and ``compare`` reads what its paired rows read.
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
from dataclasses import asdict, dataclass, field, fields, replace

from . import estimators, models, samplers, schedule as sched_mod
from .streams import stage_stream

THREADS_ENV = "GIBBS_PARTITION_THREADS"

METHODS = ("paired", "product", "single", "exact")  # compare runs all but the exact truth
SAMPLERS = ("exact", "mcmc")

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


# The most expected draws of a run that walks TPA: const-1000's paired run,
# the largest of any documented command, makes about 48M exact draws in 2 s,
# so this is about half a day of draws, past any run one would wait for.
# It refuses a run that could never finish: const-1e308's bound is inf.
MAX_SAMPLE_BOUND = 1e12


class ConfigError(ValueError):
    pass


# Each input that only some runs read: the config field, method or sampler,
# that selects its readers, and those readers.
READERS = {
    "draws": ("method", ("product", "single")),
    "boost": ("method", ("paired",)),
    "overrides": ("method", ("paired",)),
    "schedule_in": ("method", ("paired",)),
    "schedule_out": ("method", ("paired",)),
    "trace": ("method", ("paired", "product")),
    "mcmc_steps": ("sampler", ("mcmc",)),
    "tv_budget": ("sampler", ("mcmc",)),
}


def unread_inputs(config: ExperimentConfig) -> dict[str, str]:
    """Each input of ``READERS`` that ``config``'s run does not read, with its error."""
    return {name: f"{name} needs {key} {' or '.join(readers)}"
            for name, (key, readers) in READERS.items() if getattr(config, key) not in readers}


class DrawLimitError(Exception):
    """A valid run whose draw bound passes MAX_SAMPLE_BOUND."""


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
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.sampler not in SAMPLERS:
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.boost < 1 or self.boost % 2 == 0:
            raise ConfigError("boost must be a positive odd integer")
        if self.draws < 1:
            raise ConfigError("draws must be >= 1")
        # Every config carries draws and mcmc_steps; other unread inputs keep their default.
        carried, default = ("draws", "mcmc_steps"), ExperimentConfig(self.model, self.beta)
        for name, error in unread_inputs(self).items():
            if name not in carried and getattr(self, name) != getattr(default, name):
                raise ConfigError(error)


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


# Each override key: the ParamOverrides field it sets and that field's type.
OVERRIDE_KEYS = {"d": ("d", int), "k": ("k", float), "eta": ("eta", float),
                 "r": ("replicates", int)}


def parse_overrides(text: str) -> dict:
    """Parse 'd=140,k=300.5,eta=0.5,r=100' into override fields."""
    out: dict = {}
    for chunk in filter(str.strip, text.split(",")):
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in OVERRIDE_KEYS:
            raise ConfigError(f"unknown override {key!r}")
        name, kind = OVERRIDE_KEYS[key]
        out[name] = kind(value)
    return out


def _run_repetition(config: ExperimentConfig, model: models.GibbsModel, truth, rep: int,
                    loaded: tuple | None = None) -> dict:
    """One independent repetition; safe to run in a worker process.

    ``truth`` is ``models.log_ratio_exact(model, config.beta)``.  Each method
    makes one library call on a fresh oracle, so ``draws_total`` is that
    oracle's draw count.  The paired method reuses ``loaded``, the
    (schedule, params) pair of ``schedule.load_schedule``, when given; with
    ``schedule_out``, its repetition 0 saves the schedule and params its
    estimate used.
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
            schedule, params = loaded or (None, None)
            est = estimators.median_boosted_estimate(
                oracle, config.beta, config.epsilon, rng, boost=config.boost,
                overrides=estimators.ParamOverrides(**config.overrides),
                schedule=schedule, schedule_params=params, trace=trace,
            )
            if config.schedule_out and rep == 0:
                sched_mod.save_schedule(config.schedule_out, est.schedule, est.params)
            log_est, length, replicates = (
                est.log_ratio_estimate, len(est.schedule.betas), est.replicates
            )
        elif config.method == "single":
            log_est = estimators.product_log_estimate(
                sched_mod.CoolingSchedule((0.0, config.beta)), oracle, config.draws, rng
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

    ``schedule_in`` is read once and reused by every repetition.  With
    ``schedule_out``, repetition 0 runs first and saves its schedule, and
    repetitions 1.. reuse that file, read once.  With ``trace``, every
    repetition's TPA step records go to that file.
    """
    config.validate()
    model = build_model(config.model)
    truth = models.log_ratio_exact(model, config.beta)
    if config.method in ("paired", "product"):
        _check_draw_limit(config, model, truth)
    return _run_on(config, model, truth)


def _check_draw_limit(config: ExperimentConfig, model: models.GibbsModel, truth) -> float:
    """Refuse a paired or product run whose draw bound passes MAX_SAMPLE_BOUND.

    It is called before any draw, and returns the bound of one estimate.  A
    paired estimate's is the instance bound, ``sample_bound_integer`` or
    ``sample_bound_shifted`` at q = |truth|, which is compare's
    ``sample_bound``; the run's bound is that times the boost.  A product
    run walks 5 TPA runs for its q, each about q + 1 draws (q + 2 n beta + 1
    on a shifted model), and then makes ``draws`` draws; epsilon does not
    enter it.
    """
    q = abs(truth)
    shifted = sched_mod.regime_for_model(model) == sched_mod.REGIME_SHIFTED
    if config.method == "product":
        if shifted:
            q += 2.0 * model.n_bound * config.beta
        bound = sched_mod.INITIAL_RUNS * (q + 1.0) + config.draws
    elif shifted:
        bound = estimators.sample_bound_shifted(q, model.n_bound, config.beta, config.epsilon)
    else:
        bound = estimators.sample_bound_integer(q, model.n_bound, config.epsilon)
    run_bound = bound * config.boost
    if not run_bound <= MAX_SAMPLE_BOUND:
        # A model whose shifted energies pass the float range stays a
        # ValueError (exit 2): the run would meet it before its first draw.
        estimators.prepare(samplers.exact_oracle(model), config.beta)
        raise DrawLimitError(
            f"the run's draw bound is {run_bound:.4g}, past the "
            f"{MAX_SAMPLE_BOUND:.4g}-draw limit of a run that walks TPA"
        )
    return bound


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1") or "1"
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, not {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"{THREADS_ENV} must be at least 1, not {raw!r}")
    return workers


def _run_on(config: ExperimentConfig, model: models.GibbsModel, truth) -> list[dict]:
    reps = 1 if config.method == "exact" else config.reps
    threads = _worker_count()
    rows: list[dict] = []
    loaded = sched_mod.load_schedule(config.schedule_in) if config.schedule_in else None
    if config.schedule_out:
        rows = [_run_repetition(config, model, truth, 0, loaded)]
        loaded = sched_mod.load_schedule(config.schedule_out)
        # That schedule was built under the d, k and eta overrides; r still applies.
        kept = {key: value for key, value in config.overrides.items() if key == "replicates"}
        config = replace(config, overrides=kept)
    todo = range(len(rows), reps)
    if threads > 1 and len(todo) > 1:
        from concurrent.futures import ProcessPoolExecutor

        n = len(todo)
        # A forked pool starts all its workers at once: no more than the repetitions left.
        with ProcessPoolExecutor(max_workers=min(threads, n)) as pool:
            rows += pool.map(_run_repetition, [config] * n, [model] * n, [truth] * n, todo,
                             [loaded] * n)
    else:
        rows += [_run_repetition(config, model, truth, rep, loaded) for rep in todo]
    if config.trace:
        _write_trace(rows, config.trace)
    return rows


def compare_methods(config: ExperimentConfig, methods: list[str]) -> list[dict]:
    """Paired vs baselines at matched draw budgets, with the instance bound.

    It reads what its paired rows read: ``schedule_in``, ``schedule_out`` and
    ``trace`` act on the paired rows only.
    """
    paired = replace(config, method="paired")
    paired.validate()
    if not methods:
        raise ConfigError("empty method list")
    for m in methods:
        if m not in METHODS[:-1]:
            raise ConfigError(f"compare does not support method {m!r}")

    model = build_model(config.model)
    truth = models.log_ratio_exact(model, config.beta)
    band = math.log(1.0 + config.epsilon)
    bound = _check_draw_limit(paired, model, truth)

    paired_rows = _run_on(paired, model, truth)
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


def render_csv(rows: list[dict], fields: list[str]) -> str:
    """One line per row, its ``fields`` in order; ``csv`` writes each float by its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([row[f] for f in fields] for row in rows)
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


def _inputs_read(config: ExperimentConfig, methods: list[str] | None = None) -> dict:
    """``config`` as the sidecar records it: the inputs its run reads, and for
    ``compare``, whose config is its paired rows', the ``methods`` it ran in
    place of ``method``."""
    unread = set(unread_inputs(config)) | ({"method"} if methods is not None else set())
    record = {key: value for key, value in asdict(config).items() if key not in unread}
    return record if methods is None else {"methods": methods, **record}


def _emit(rows, fields, inputs, out, fmt, elapsed):
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
            fh.write(_dumps({"config": inputs, "wall_time": elapsed}, indent=2))
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
    p.add_argument("--epsilon", type=float)
    p.add_argument("--sampler", choices=SAMPLERS)
    p.add_argument("--mcmc-steps", type=int, help="needs --sampler mcmc")
    p.add_argument("--tv-budget", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--boost", type=int)
    p.add_argument("--expert-overrides", dest="overrides", metavar="EXPERT_OVERRIDES",
                   help="expert mode: d=..,k=..,eta=..,r=..")
    p.add_argument("--schedule-in")
    p.add_argument("--schedule-out")
    p.add_argument("--trace", help="write TPA step records (JSON lines)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _config_from_args(args) -> ExperimentConfig:
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if f.name in args}
    if "overrides" in given:  # a malformed one raises ConfigError, not a usage error
        given["overrides"] = parse_overrides(given["overrides"])
    config = ExperimentConfig(**given)
    # compare has no --method, so its config is its paired rows'.
    for name, error in unread_inputs(config).items():
        if name in given:
            raise ConfigError(error)
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gibbs-partition",
        description="Estimate Z(beta)/Z(0) of discrete Gibbs models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    unset = argparse.SUPPRESS  # a flag left out is absent: ExperimentConfig holds the defaults
    run_p = sub.add_parser("run", help="run one estimation method", argument_default=unset)
    run_p.add_argument("--method", choices=METHODS)
    run_p.add_argument("--draws", type=int, help="draw budget of --method product or single")
    _add_common_args(run_p)

    cmp_p = sub.add_parser("compare", help="compare methods at matched draw budgets",
                           argument_default=unset)
    cmp_p.add_argument("--methods", default=",".join(METHODS[:-1]),
                       help="comma-separated subset of " + ",".join(METHODS[:-1]))
    _add_common_args(cmp_p)

    try:
        args = parser.parse_args(argv)
        start = time.perf_counter()
        config = _config_from_args(args)
        if args.command == "run":
            rows, columns, inputs = run_experiment(config), CSV_FIELDS, _inputs_read(config)
        else:
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            rows, columns = compare_methods(config, methods), COMPARE_FIELDS
            inputs = _inputs_read(config, methods)
        _emit(rows, columns, inputs, args.out, args.format, time.perf_counter() - start)
    except (models.EnumerationGuardError, DrawLimitError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
