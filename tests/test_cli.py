"""CLI: shorthand parsing, table emission, determinism, exit codes."""

import concurrent.futures
import csv
import json
import math
import os
from dataclasses import asdict, replace

import pytest

import gibbs_partition.cli as cli
import gibbs_partition.models as models
import gibbs_partition.samplers as samplers
import gibbs_partition.schedule as sched_mod
from conftest import row_transfer_log_partition
from gibbs_partition.cli import (
    ConfigError,
    ExperimentConfig,
    build_model,
    compare_methods,
    main,
    parse_overrides,
    run_experiment,
)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# --- model shorthands -------------------------------------------------------


def test_builtin_shorthands():
    assert build_model("k2").counts.sum() == 4
    assert build_model("path-3").counts.sum() == 8
    assert build_model("cycle-4").counts.sum() == 16
    assert build_model("grid-2x2").counts.sum() == 16
    const = build_model("const--2")
    assert const.energies.tolist() == [-2.0]
    assert const.counts.tolist() == [4.0]
    with pytest.raises(ConfigError):
        build_model("moebius-5")


def test_table_shorthand(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"type": "table", "hamiltonian": [0.5, -0.5]}))
    model = build_model(f"table:{path}")
    assert model.sign_class == "mixed"


def test_parse_overrides():
    assert parse_overrides("") == {}
    got = parse_overrides("d=140, k=300.5,eta=0.5,r=100")
    assert got == {"d": 140, "k": 300.5, "eta": 0.5, "replicates": 100}
    with pytest.raises(ConfigError):
        parse_overrides("q=3")


# --- run --------------------------------------------------------------------


def test_exact_method_single_row():
    rows = run_experiment(ExperimentConfig(model="k2", beta=1.0, method="exact", reps=5))
    assert len(rows) == 1
    assert rows[0]["log_estimate"] == pytest.approx(math.log(1.8591409142295225))
    assert rows[0]["draws_total"] == 0


def test_paired_rows_on_flat_model(tmp_path):
    config = ExperimentConfig(model="const-0", beta=1.0, method="paired", reps=3, seed=9)
    rows = run_experiment(config)
    assert len(rows) == 3
    for row in rows:
        assert row["estimate"] == 1.0
        assert row["draws_total"] > 0


def test_single_and_product_methods():
    cfg = ExperimentConfig(
        model="k2", beta=1.0, method="single", reps=2, seed=3, draws=400
    )
    rows = run_experiment(cfg)
    assert all(r["draws_total"] == 400 for r in rows)
    cfg = ExperimentConfig(
        model="k2", beta=1.0, method="product", reps=2, seed=3, draws=600
    )
    rows = run_experiment(cfg)
    assert all(r["draws_total"] >= 600 for r in rows)
    assert all(math.isfinite(r["log_estimate"]) for r in rows)


def test_product_method_on_mixed_model_is_calibrated(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"type": "table", "hamiltonian": [-1.0, 0.0, 2.0]}))
    cfg = ExperimentConfig(
        model=f"table:{path}", beta=1.0, method="product", reps=6, seed=5, draws=4000
    )
    rows = run_experiment(cfg)
    truth = rows[0]["true_log_ratio"]
    mean_log = sum(r["log_estimate"] for r in rows) / len(rows)
    assert mean_log == pytest.approx(truth, abs=0.2)


def test_mcmc_sampler_path():
    cfg = ExperimentConfig(
        model="k2",
        beta=1.0,
        method="paired",
        sampler="mcmc",
        mcmc_steps=20,
        tv_budget=0.01,
        reps=1,
        seed=2,
        overrides={"replicates": 50},
    )
    rows = run_experiment(cfg)
    assert rows[0]["draws_total"] > 0


def test_validation_errors():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(model="k2", beta=-1.0))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(model="k2", beta=1.0, reps=0))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(model="k2", beta=1.0, boost=2))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(model="k2", beta=1.0, method="quantum"))
    for config, message in (
        (ExperimentConfig(model="k2", beta=1.0, epsilon=0.0), "epsilon must lie in"),
        (ExperimentConfig(model="k2", beta=1.0, epsilon=1.5), "epsilon must lie in"),
        (ExperimentConfig(model="k2", beta=1.0, sampler="gibbs"), "unknown sampler 'gibbs'"),
        (ExperimentConfig(model="k2", beta=1.0, method="product", draws=0), "draws must be >= 1"),
    ):
        with pytest.raises(ConfigError, match=message):
            config.validate()


# --- main() + exit codes ----------------------------------------------------


def _run_main(tmp_path, name, extra):
    out = tmp_path / name
    code = main(
        ["run", "--model", "k2", "--beta", "1", "--out", str(out)] + extra
    )
    return code, out


def test_main_writes_csv_and_sidecar(tmp_path):
    code, out = _run_main(
        tmp_path, "t.csv", ["--method", "exact", "--seed", "4"]
    )
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 1
    with open(str(out) + ".config.json") as fh:
        sidecar = json.load(fh)
    assert sidecar["config"]["model"] == "k2"
    assert "wall_time" in sidecar


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_defaults_are_the_config_defaults(command, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main([command, "--model", "k2", "--beta", "1", "--out", str(out)]) == 0
    with open(str(out) + ".config.json") as fh:
        sidecar = json.load(fh)
    # The defaults of the inputs each command reads: paired, exact rows.
    unread = {"draws", "mcmc_steps", "tv_budget"} | ({"method"} if command == "compare" else set())
    read = {k: v for k, v in asdict(ExperimentConfig(model="k2", beta=1.0)).items()
            if k not in unread}
    if command == "compare":
        read["methods"] = ["paired", "product", "single"]
    assert sidecar["config"] == read
    assert main([command, "--model", "k2", "--beta", "1", "--mcmc-steps", "5"]) == 2
    assert "mcmc_steps needs sampler mcmc" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,recorded,unrecorded",
    [
        (["compare", "--methods", "paired,single"],
         {"methods": ["paired", "single"], "schedule_in": None, "trace": None},
         {"method", "draws", "mcmc_steps", "tv_budget"}),
        (["run", "--method", "product", "--draws", "50"],
         {"method": "product", "draws": 50, "trace": None},
         {"overrides", "boost", "mcmc_steps", "tv_budget", "schedule_in", "schedule_out"}),
        (["run", "--method", "single", "--draws", "50"], {"draws": 50},
         {"overrides", "boost", "schedule_in", "schedule_out", "trace"}),
        (["run", "--method", "exact"], {"method": "exact"},
         {"draws", "overrides", "boost", "mcmc_steps", "tv_budget", "schedule_in", "schedule_out",
          "trace"}),
        (["run", "--expert-overrides", "r=20"],
         {"overrides": {"replicates": 20}, "boost": 1, "schedule_out": None, "trace": None},
         {"draws", "mcmc_steps"}),
        (["run", "--sampler", "mcmc", "--mcmc-steps", "3", "--tv-budget", "0.01"],
         {"mcmc_steps": 3, "tv_budget": 0.01}, {"draws"}),
    ],
    ids=["compare", "product", "single", "exact", "paired", "mcmc"],
)
def test_the_sidecar_records_only_inputs_its_command_reads(args, recorded, unrecorded, tmp_path):
    out = tmp_path / "t.csv"
    assert main([*args, "--model", "k2", "--beta", "1", "--reps", "1", "--out", str(out)]) == 0
    config = json.loads((tmp_path / "t.csv.config.json").read_text())["config"]
    assert {key: config[key] for key in recorded} == recorded
    assert not unrecorded & config.keys()


MIXED_5 = {"type": "table", "hamiltonian": [-2, -1, 0, 1, 2]}


@pytest.mark.parametrize(
    "model_args",
    [
        ["--model", "k2"],
        ["--model", "grid-3x3"],
        ["--model", "table:{mixed}"],
        ["--model", "cycle-4", "--sampler", "mcmc", "--mcmc-steps", "5"],
    ],
    ids=["k2", "grid-3x3", "mixed-5", "cycle-4-mcmc"],
)
def test_main_determinism_bytes(model_args, tmp_path, monkeypatch):
    mixed = tmp_path / "mixed-5.json"
    mixed.write_text(json.dumps(MIXED_5))
    # The later --model overrides _run_main's k2.
    args = [arg.format(mixed=mixed) for arg in model_args] + [
        "--method", "paired", "--epsilon", "0.4", "--reps", "4", "--seed", "11",
        "--expert-overrides", "r=60",
    ]
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, out1 = _run_main(tmp_path, "a.csv", args)
        _, out2 = _run_main(tmp_path, "b.csv", args)
        monkeypatch.setenv("GIBBS_PARTITION_THREADS", "2")
        _, out3 = _run_main(tmp_path, "c.csv", args)
    a, b, c = (p.read_bytes() for p in (out1, out2, out3))
    assert a == b == c


class _InProcessPool:
    """ProcessPoolExecutor stand-in: records max_workers, starts no process."""

    opened = []

    def __init__(self, max_workers):
        self.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("threads,reps,workers", [("64", 2, 2), ("64", 5, 5), ("3", 5, 3)])
def test_repetition_pool_starts_no_more_workers_than_reps(
    threads, reps, workers, tmp_path, monkeypatch
):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "opened", [])
    monkeypatch.setenv("GIBBS_PARTITION_THREADS", threads)
    args = ["--method", "product", "--reps", str(reps), "--seed", "3"]
    code, _ = _run_main(tmp_path, "t.csv", args)
    assert code == 0 and _InProcessPool.opened == [workers]


@pytest.mark.parametrize("threads", ["two", "1.5", "4x"])
def test_main_non_integer_threads_exit_2(threads, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "opened", [])
    monkeypatch.setenv("GIBBS_PARTITION_THREADS", threads)
    code, _ = _run_main(tmp_path, "t.csv", ["--method", "product", "--reps", "2"])
    assert code == 2 and _InProcessPool.opened == []
    assert "GIBBS_PARTITION_THREADS must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_main_threads_below_one_exit_2(threads, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "opened", [])
    monkeypatch.setenv("GIBBS_PARTITION_THREADS", threads)
    code, out = _run_main(tmp_path, "t.csv", ["--method", "product", "--reps", "2"])
    assert code == 2 and _InProcessPool.opened == [] and not out.exists()
    assert f"GIBBS_PARTITION_THREADS must be at least 1, not '{threads}'" in capsys.readouterr().err


def test_main_invalid_config_exit_2(tmp_path, capsys):
    assert main(["run", "--model", "k2", "--beta", "-3"]) == 2
    assert main(["run", "--model", "unknown-99", "--beta", "1"]) == 2
    assert "error" in capsys.readouterr().err
    for extra in (
        ["--expert-overrides", "k=inf"],
        ["--expert-overrides", "k=nan"],
        ["--expert-overrides", "eta=nan"],
        ["--sampler", "mcmc", "--tv-budget", "nan"],
        ["--sampler", "mcmc", "--tv-budget", "inf"],
    ):
        assert main(["run", "--model", "k2", "--beta", "1", *extra]) == 2
        assert "must be finite" in capsys.readouterr().err
    # An exact sampler has no TV budget to declare and no sweeps to run,
    # and only the paired method takes a median of boosted estimates.
    for extra, message in (
        (["--tv-budget", "0.5"], "tv_budget needs sampler mcmc"),
        (["--mcmc-steps", "5"], "mcmc_steps needs sampler mcmc"),
        (["--method", "product", "--boost", "3"], "boost needs method paired"),
        (["--method", "single", "--boost", "3"], "boost needs method paired"),
    ):
        assert main(["run", "--model", "k2", "--beta", "1", *extra]) == 2
        assert message in capsys.readouterr().err
    # Refused by the config, the model and the truth, each before any draw.
    for extra, message in (
        (["--method", "product", "--draws", "0"], "draws must be >= 1"),
        (["--model", "cycle-2"], "a cycle needs at least 3 vertices"),
        (["--method", "exact", "--beta", "inf"], "beta must be finite"),
    ):
        assert main(["run", "--model", "k2", "--beta", "1", *extra]) == 2
        assert message in capsys.readouterr().err
    for spec, form in (
        ("grid-3", "grid-RxC"),
        ("grid-2x2x2", "grid-RxC"),
        ("cycle-x", "cycle-N"),
        ("path-", "path-N"),
    ):
        assert main(["run", "--model", spec, "--beta", "1"]) == 2
        assert f"not of the form {form}" in capsys.readouterr().err


def _exit_code(argv):
    """main's exit code, also when argparse exits on a flag it does not know."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _no_oracle(*args):
    raise AssertionError("no oracle for a refused input")


@pytest.mark.parametrize(
    "refused,accepted,flag",
    [
        (["compare", "--draws", "5"], ["compare", "--expert-overrides", "r=5"], "--draws"),
        (["run", "--method", "paired", "--draws", "5"],
         ["run", "--method", "product", "--draws", "5"], "draws"),
        (["run", "--method", "exact", "--draws", "5"],
         ["run", "--method", "single", "--draws", "5"], "draws"),
        (["run", "--method", "product", "--expert-overrides", "r=5"],
         ["run", "--method", "paired", "--expert-overrides", "r=5"], "overrides"),
        (["run", "--method", "single", "--expert-overrides", "d=3"],
         ["run", "--method", "paired", "--expert-overrides", "d=3"], "overrides"),
        (["run", "--method", "exact", "--expert-overrides", "k=40,eta=0.5"],
         ["run", "--method", "paired", "--expert-overrides", "k=40,eta=0.5"], "overrides"),
        # Only the methods that walk TPA, paired and product, have steps to trace.
        (["run", "--method", "single", "--trace", "t.jsonl"],
         ["run", "--method", "product", "--trace", "t.jsonl"], "trace"),
        (["run", "--method", "exact", "--trace", "t.jsonl"],
         ["run", "--method", "paired", "--trace", "t.jsonl"], "trace"),
    ],
    ids=["compare-draws", "paired-draws", "exact-draws", "product-overrides",
         "single-overrides", "exact-overrides", "single-trace", "exact-trace"],
)
def test_an_input_no_run_reads_exit_2_before_any_draw(refused, accepted, flag, tmp_path,
                                                       monkeypatch, capsys):
    # Only product and single read --draws (compare's baselines run at the
    # paired mean draws), and only the paired method reads the overrides.
    # A relative file, such as a trace, lands next to the output.
    monkeypatch.chdir(tmp_path)
    args = ["--model", "k2", "--beta", "1", "--seed", "2", "--out", str(tmp_path / "o.csv")]
    with monkeypatch.context() as patched:
        patched.setattr(cli, "build_oracle", _no_oracle)
        assert _exit_code([*refused, *args]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and flag in err
    assert not os.listdir(tmp_path)
    assert main([*accepted, *args]) == 0
    written = [arg for arg in accepted if arg.endswith(".jsonl")]
    assert sorted(os.listdir(tmp_path)) == sorted(["o.csv", "o.csv.config.json", *written])


# The runs that read each input only some runs read: methods, compare (which
# reads what its paired rows read) or the mcmc sampler.
READ_BY = {
    "draws": {"product", "single"},
    "boost": {"paired", "compare"},
    "overrides": {"paired", "compare"},
    "schedule_in": {"paired", "compare"},
    "schedule_out": {"paired", "compare"},
    "trace": {"paired", "product", "compare"},
    "mcmc_steps": {"mcmc"},
    "tv_budget": {"mcmc"},
}
# Each input's flag, its text and the value the sidecar records for it.
FLAGS = {
    "draws": ("--draws", "50", 50),
    "boost": ("--boost", "3", 3),
    "overrides": ("--expert-overrides", "r=5", {"replicates": 5}),
    "schedule_in": ("--schedule-in", "in.json", "in.json"),
    "schedule_out": ("--schedule-out", "out.json", "out.json"),
    "trace": ("--trace", "t.jsonl", "t.jsonl"),
    "mcmc_steps": ("--mcmc-steps", "3", 3),
    "tv_budget": ("--tv-budget", "0.02", 0.02),
}


@pytest.mark.parametrize("sampler", ["exact", "mcmc"])
@pytest.mark.parametrize("command", ["paired", "product", "single", "exact", "compare"])
@pytest.mark.parametrize("name", list(FLAGS))
def test_each_input_is_taken_exactly_where_a_run_reads_it(name, command, sampler, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps({"betas": [0.0, 1.0]}))
    run = ["compare"] if command == "compare" else ["run", "--method", command]
    # A zero TV budget warns, so every mcmc run declares one; a later flag wins.
    budget = ["--tv-budget", "0.01"] if sampler == "mcmc" else []
    flag, text, value = FLAGS[name]
    argv = [*run, "--model", "k2", "--beta", "1", "--seed", "2", "--sampler", sampler, *budget,
            flag, text, "--out", "o.csv"]
    unread = {key for key, readers in READ_BY.items() if not readers & {command, sampler}}
    if name in unread:
        with monkeypatch.context() as patched:
            patched.setattr(cli, "build_oracle", _no_oracle)
            assert _exit_code(argv) == 2
        assert name in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["in.json"]
        return
    assert main(argv) == 0
    recorded = json.loads((tmp_path / "o.csv.config.json").read_text())["config"]
    expected = set(asdict(ExperimentConfig(model="k2", beta=1.0))) - unread
    if command == "compare":
        expected = expected - {"method"} | {"methods"}
    assert recorded.keys() == expected
    assert recorded[name] == value


@pytest.mark.parametrize(
    "extra,name",
    [(["--tv-budget", "0"], "tv_budget"), (["--method", "product", "--boost", "1"], "boost"),
     (["--method", "product", "--expert-overrides", ","], "overrides"),
     (["--method", "exact", "--draws", "10000"], "draws"), (["--mcmc-steps", "100"], "mcmc_steps")],
    ids=["tv-budget", "boost", "overrides", "draws", "mcmc-steps"],
)
def test_a_flag_at_its_default_is_refused_where_no_run_reads_it(extra, name, tmp_path, capsys):
    # The value would change nothing, but the sidecar would drop the flag silently.
    code, out = _run_main(tmp_path, "o.csv", extra)
    assert code == 2 and not out.exists()
    assert f"{name} needs" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(FLAGS))
def test_validate_refuses_an_unread_input_set_from_its_default(name):
    # An exact run on the exact sampler reads none of these inputs.  Every
    # config carries draws and mcmc_steps, read or not: compare hands its
    # baselines their draws, and a config built in code may carry sweeps.
    value = FLAGS[name][2]
    config = ExperimentConfig(model="k2", beta=1.0, method="exact", **{name: value})
    if name in ("draws", "mcmc_steps"):
        config.validate()
    else:
        with pytest.raises(ConfigError, match=f"^{name} needs"):
            config.validate()
    reader = sorted(READ_BY[name] - {"compare"})[0]
    replace(config, **{"sampler" if reader == "mcmc" else "method": reader}).validate()
    # A value equal to the default is not refused, whoever reads it.
    ExperimentConfig(model="k2", beta=1.0, method="exact", boost=1, overrides={},
                     tv_budget=0.0, schedule_in=None, trace=None).validate()


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"type": "table"}', "no 'hamiltonian' field"),
        ("[0.0, 1.0]", "must be a JSON object"),
        # json reads 1e400 as inf.
        ('{"type": "table", "hamiltonian": [1e400]}', "must be finite"),
        # Finite, but the shifted pipeline's H - 2n is not.
        ('{"type": "table", "hamiltonian": [0.5, 1e308]}', "pass the float range"),
        ('{"type": "ising", "num_vertices": 2, "edges": 5}', "list of [i, j] edges"),
        ('{"type": "ising", "num_vertices": 2, "edges": [1]}', "list of [i, j] edges"),
        ('{"type": "table", "hamiltonian": [{}]}', "must be numbers"),
    ],
    ids=["no-hamiltonian", "top-level-list", "infinite-value", "shift-overflows",
         "edges-not-a-list", "edge-not-a-pair", "value-not-a-number"],
)
def test_malformed_table_file_exit_2(text, message, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert main(["run", "--model", f"table:{path}", "--beta", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("sign", ["", "-"], ids=["plus", "minus"])
def test_a_table_energy_past_the_float_range_exit_2(sign, tmp_path, capsys):
    # json reads 1e400 as inf, but 10^400 as an int that no float holds:
    # one number rule, the schedule file's, refuses it before numpy sees it.
    text = '{"type": "table", "hamiltonian": [0, %s1%s]}' % (sign, "0" * 400)
    with pytest.raises(ValueError, match="numbers within the float range"):
        models.model_from_dict(json.loads(text))
    path, out = tmp_path / "m.json", tmp_path / "o.csv"
    path.write_text(text)
    assert main(["run", "--model", f"table:{path}", "--beta", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: table model energies must be numbers within the float range\n"
    assert not out.exists()


def test_main_exact_infeasible_exit_3(monkeypatch, capsys, tmp_path):
    # 2^20000 has more decimal digits than str() converts; the guard words
    # it as a power of two and checks it before building any edge list.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"type": "ising", "num_vertices": 20000, "edges": []}))
    for spec in ("path-20000", "cycle-20000", f"table:{path}", "path-1024"):
        assert main(["run", "--model", spec, "--beta", "1", "--method", "exact"]) == 3
        assert "enumeration guard" in capsys.readouterr().err
    # A dense file is refused by its front: K18 keeps 17 sites in it.
    dense = tmp_path / "k18.json"
    edges = [[i, j] for i in range(18) for j in range(i + 1, 18)]
    dense.write_text(json.dumps({"type": "ising", "num_vertices": 18, "edges": edges}))
    assert main(["run", "--model", f"table:{dense}", "--beta", "1", "--method", "exact"]) == 3
    err = capsys.readouterr().err
    assert "front of 17 sites needs 2^17 x 154 level counts" in err
    monkeypatch.setattr(models, "ENUMERATION_GUARD", 4)
    assert main(["run", "--model", "cycle-4", "--beta", "1", "--method", "exact"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--expert-overrides", "r=100000000000000000"],
        ["--method", "single", "--draws", "1000000000000000000"],
    ],
    ids=["replicates", "single-draws"],
)
def test_main_unallocatable_block_exit_3(args, capsys):
    # Rows of draws of 0.7 and 7 EiB: past any address space, below numpy's
    # 2^63-byte limit, so the allocation fails without touching memory.
    assert main(["run", "--model", "k2", "--beta", "1", *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "allocate" in err


@pytest.mark.parametrize(
    "args",
    [
        ["--expert-overrides", f"r={10**40}"],
        ["--expert-overrides", "r=100000000000000000"],
        ["--method", "single", "--draws", f"{10**40}"],
    ],
    ids=["replicates-1e40", "replicates-1e17", "single-draws-1e40"],
)
def test_a_row_no_array_can_hold_exit_3_before_any_draw(args, monkeypatch, capsys):
    # A row past numpy's largest array, and one past any address space, are
    # refused before step 1: the run never walks TPA.
    def no_draw(*args):
        raise AssertionError("no draw before the row is refused")

    monkeypatch.setattr(samplers.ExactOracle, "draw_energies_at", no_draw)
    monkeypatch.setattr(samplers.ExactOracle, "energy_rows", no_draw)
    assert main(["run", "--model", "k2", "--beta", "1", *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "allocate" in err


def test_main_mcmc_past_the_guard_exit_3(capsys):
    # Each chain starts from one int64 state index, so MCMC stops at 63 sites.
    for spec in ("grid-8x8", "path-64"):
        assert main(["run", "--model", spec, "--beta", "0.5", "--sampler", "mcmc",
                     "--tv-budget", "0.001"]) == 3
        assert "63-site limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["run", "--method", "paired"], ["run", "--method", "product"], ["compare"]],
    ids=["paired", "product", "compare"],
)
def test_a_run_that_could_never_finish_exit_3_before_any_draw(command, monkeypatch, capsys):
    # const-1e308 has q = 1e308, and TPA steps 1e-308 at a time.  Its bound
    # overflows to inf, and the run is refused before it builds an oracle.
    def no_oracle(*args):
        raise AssertionError("no oracle past the draw limit")

    monkeypatch.setattr(cli, "build_oracle", no_oracle)
    assert main([*command, "--model", "const-1e308", "--beta", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "error: the run's draw bound is inf, past the 1e+12-draw limit of a run that walks TPA\n"


@pytest.mark.parametrize("epsilon", ["1e-154", "7e-155", "1e-300", "5e-324"])
@pytest.mark.parametrize(
    "command,spec",
    [(["run"], "k2"), (["run"], "table:{mixed}"), (["compare"], "k2")],
    ids=["run-k2", "run-mixed-5", "compare-k2"],
)
def test_an_epsilon_whose_bound_passes_the_float_range_exit_3(command, spec, epsilon,
                                                              tmp_path, capsys):
    # epsilon^-2 passes the float range below 2^-512, about 7.5e-155: the
    # bound saturates to inf, as it already does just above that epsilon.
    mixed = tmp_path / "mixed-5.json"
    mixed.write_text(json.dumps(MIXED_5))
    args = [*command, "--model", spec.format(mixed=mixed), "--beta", "1", "--epsilon", epsilon]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err == "error: the run's draw bound is inf, past the 1e+12-draw limit of a run that walks TPA\n"


@pytest.mark.parametrize("method,extra", [("single", ["--draws", "10"]), ("exact", [])],
                         ids=["single", "exact"])
def test_methods_that_walk_no_tpa_run_past_the_draw_limit(method, extra, tmp_path):
    out = tmp_path / "o.csv"
    args = ["run", "--model", "const-1e308", "--beta", "1", "--method", method, *extra]
    assert main([*args, "--out", str(out)]) == 0
    assert float(_read_csv(out)[0]["log_estimate"]) == -1e308


def test_the_draw_limit_reads_the_bound_times_the_boost():
    # The k2 bound at epsilon 0.1 is 21,433.9 draws: 46,655,013 boosted
    # estimates stay under 1e12 draws, and 46,655,015 pass it.
    model = build_model("k2")
    truth = models.log_ratio_exact(model, 1.0)
    config = ExperimentConfig(model="k2", beta=1.0, boost=46_655_013)
    assert cli._check_draw_limit(config, model, truth) == pytest.approx(21433.92357764558)
    with pytest.raises(cli.DrawLimitError, match="past the 1e\\+12-draw limit"):
        cli._check_draw_limit(replace(config, boost=46_655_015), model, truth)
    # const-1000 at epsilon 0.05 has a bound of 187M draws, far under it.
    const = build_model("const-1000")
    config = ExperimentConfig(model="const-1000", beta=1.0, epsilon=0.05)
    const_truth = models.log_ratio_exact(const, 1.0)
    assert 1.8e8 < cli._check_draw_limit(config, const, const_truth) < cli.MAX_SAMPLE_BOUND / 1000


def test_a_product_run_is_limited_by_its_tpa_walk_and_draws_not_epsilon(tmp_path):
    # Product reads no epsilon: const-1000 walks 5 TPA runs of about 1,001
    # draws and then makes --draws, whatever the paired bound at epsilon.
    out = tmp_path / "o.csv"
    args = ["run", "--method", "product", "--model", "const-1000", "--beta", "1"]
    assert main([*args, "--epsilon", "0.05", "--draws", "100", "--out", str(out)]) == 0
    assert float(_read_csv(out)[0]["log_estimate"]) == pytest.approx(-1000.0)
    model = build_model("const-1000")
    truth = models.log_ratio_exact(model, 1.0)
    config = ExperimentConfig(model="const-1000", beta=1.0, method="product", draws=10**12 - 5005)
    cli._check_draw_limit(config, model, truth)
    with pytest.raises(cli.DrawLimitError, match="draw bound is 1e\\+12"):
        cli._check_draw_limit(replace(config, draws=10**12 - 5004), model, truth)


def test_mcmc_runs_past_the_state_guard_with_front_truth(tmp_path):
    # grid-5x5 has 2^25 states: its MCMC run is checked against its levels.
    out = tmp_path / "grid-mcmc.csv"
    assert main(["run", "--model", "grid-5x5", "--beta", "0.5", "--sampler", "mcmc",
                 "--mcmc-steps", "20", "--tv-budget", "1e-3", "--seed", "0",
                 "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    truth = float(row["true_log_ratio"])
    assert truth == models.log_ratio_exact(build_model("grid-5x5"), 0.5)
    assert abs(float(row["log_estimate"]) - truth) <= 5 * math.log(1.1)


def test_grid_past_the_guard_runs_with_exact_truth(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["run", "--model", "grid-8x8", "--beta", "0.5", "--seed", "3",
                 "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    truth = float(row["true_log_ratio"])
    assert truth == pytest.approx(row_transfer_log_partition(8, 8, 0.5) - 64 * math.log(2))
    assert abs(float(row["log_estimate"]) - truth) <= 5 * math.log(1.1)


def test_path_past_24_sites_runs_with_exact_truth(tmp_path):
    out = tmp_path / "path.csv"
    assert main(["run", "--model", "path-200", "--beta", "0.5", "--seed", "3",
                 "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    # Z(b) = 2 (1 + e^b)^(N-1), and Z(0) = 2^N.
    truth = 199 * math.log1p(math.exp(0.5)) - 199 * math.log(2)
    assert float(row["true_log_ratio"]) == pytest.approx(truth, rel=1e-12)
    assert abs(float(row["log_estimate"]) - truth) <= 5 * math.log(1.1)


def test_exact_method_on_cycle_1023(tmp_path):
    out = tmp_path / "cycle.csv"
    assert main(["run", "--model", "cycle-1023", "--beta", "1", "--method", "exact",
                 "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    # Z(b) = (e^b + 1)^N + (e^b - 1)^N, in log form; Z(0) = 2^N.
    e = math.e
    truth = 1023 * math.log((e + 1) / 2) + math.log1p(((e - 1) / (e + 1)) ** 1023)
    assert float(row["true_log_ratio"]) == pytest.approx(truth, rel=1e-12)


def test_exact_method_on_grid_10x10(tmp_path):
    out = tmp_path / "exact.csv"
    assert main(["run", "--model", "grid-10x10", "--beta", "0.5", "--method", "exact",
                 "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    expected = row_transfer_log_partition(10, 10, 0.5) - 100 * math.log(2)
    assert float(row["true_log_ratio"]) == pytest.approx(expected, rel=1e-12)
    assert float(row["log_estimate"]) == float(row["true_log_ratio"])


def test_json_format_includes_wall_time(tmp_path):
    out = tmp_path / "t.json"
    code = main(
        [
            "run", "--model", "k2", "--beta", "1", "--method", "exact",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload[0]["method"] == "exact"
    assert "wall_time" in payload[0]


def test_trace_output(tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = main(
        [
            "run", "--model", "k2", "--beta", "1", "--method", "paired",
            "--seed", "6", "--reps", "1", "--expert-overrides", "r=5",
            "--trace", str(trace), "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records
    assert set(records[0]) == {"run_id", "b", "H", "U"}


class _CountingPool(concurrent.futures.ProcessPoolExecutor):
    """A real process pool that records its max_workers."""

    opened = []

    def __init__(self, max_workers):
        self.opened.append(max_workers)
        super().__init__(max_workers=max_workers)


def test_trace_with_two_workers_matches_one(tmp_path, monkeypatch):
    # Each row brings its trace back from its worker, and the file is
    # written in repetition order.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "opened", [])
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("GIBBS_PARTITION_THREADS", threads)
        trace, out = tmp_path / f"trace-{threads}.jsonl", tmp_path / f"t-{threads}.csv"
        code = main(["run", "--model", "cycle-4", "--beta", "1", "--seed", "3", "--reps", "4",
                     "--trace", str(trace), "--out", str(out)])
        assert code == 0
        outputs.append((trace.read_bytes(), out.read_bytes()))
    assert _CountingPool.opened == [2]
    assert outputs[0][0] and outputs[0] == outputs[1]


def test_a_product_run_at_a_beta_within_the_schedule_cut_exit_0(tmp_path):
    # The two-piece schedule keeps its start 0 at beta <= 1e-12.
    out = tmp_path / "t.csv"
    assert main(["run", "--model", "const-1e15", "--beta", "1e-12", "--method", "product",
                 "--draws", "2000", "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    assert float(row["log_estimate"]) == float(row["true_log_ratio"]) == -1000.0


@pytest.mark.parametrize("spec,sweeps", [("k2", 46), ("grid-3x3", 5)])
def test_mcmc_rows_do_not_depend_on_worker_count(spec, sweeps, monkeypatch):
    # Each repetition draws from its own stream, so a real 2-worker pool
    # gives the rows that one process gives, wall time aside.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "opened", [])
    config = ExperimentConfig(model=spec, beta=1.0, seed=4, reps=3, sampler="mcmc",
                              mcmc_steps=sweeps, tv_budget=1e-3)
    rows = []
    for threads in ("1", "2"):
        monkeypatch.setenv("GIBBS_PARTITION_THREADS", threads)
        rows.append([{k: v for k, v in row.items() if k != "_wall_time"}
                     for row in run_experiment(config)])
    assert _CountingPool.opened == [2]
    assert [row["rep"] for row in rows[0]] == [0, 1, 2]
    assert rows[0] == rows[1]


def test_schedule_roundtrip_through_files(tmp_path):
    sched_path = tmp_path / "sched.json"
    out1 = tmp_path / "o1.csv"
    code = main(
        [
            "run", "--model", "k2", "--beta", "1", "--seed", "8",
            "--expert-overrides", "r=40",
            "--schedule-out", str(sched_path), "--out", str(out1),
        ]
    )
    assert code == 0
    saved = json.loads(sched_path.read_text())
    assert saved["betas"][0] == 0.0 and saved["betas"][-1] == 1.0
    out2 = tmp_path / "o2.csv"
    code = main(
        [
            "run", "--model", "k2", "--beta", "1", "--seed", "8",
            "--expert-overrides", "r=40",
            "--schedule-in", str(sched_path), "--out", str(out2),
        ]
    )
    assert code == 0
    r1, r2 = _read_csv(out1), _read_csv(out2)
    assert r1[0]["schedule_length"] == r2[0]["schedule_length"]
    # reused schedule skips steps 1-2, so the rerun needs fewer draws
    assert int(r2[0]["draws_total"]) < int(r1[0]["draws_total"])


def test_schedule_out_saves_the_schedule_the_run_builds(tmp_path):
    args = ["--seed", "8", "--expert-overrides", "d=30,r=40"]
    code, plain = _run_main(tmp_path, "plain.csv", args)
    assert code == 0
    # Repetition 1 reads the saved schedule after the d override was checked.
    code, saved = _run_main(
        tmp_path, "saved.csv", args + ["--reps", "2", "--schedule-out", str(tmp_path / "s.json")]
    )
    assert code == 0
    r1, r2 = _read_csv(plain), _read_csv(saved)
    assert len(r2) == 2
    assert r1[0]["schedule_length"] == r2[0]["schedule_length"]
    assert r1[0]["log_estimate"] == r2[0]["log_estimate"]


def test_schedule_out_rep_0_is_the_plain_run(tmp_path):
    # Repetition 0 builds the schedule it saves, so its row and trace are
    # those of the same-seed run without --schedule-out, steps 1-2 included.
    args = ["--model", "cycle-4", "--beta", "1", "--seed", "5", "--expert-overrides", "r=40"]
    plain, saved = tmp_path / "plain.csv", tmp_path / "saved.csv"
    assert main(["run", *args, "--trace", str(tmp_path / "plain.jsonl"),
                 "--out", str(plain)]) == 0
    assert main(["run", *args, "--reps", "2", "--trace", str(tmp_path / "saved.jsonl"),
                 "--schedule-out", str(tmp_path / "s.json"), "--out", str(saved)]) == 0
    (p0,), (s0, s1) = _read_csv(plain), _read_csv(saved)
    assert (s0["log_estimate"], s0["draws_total"]) == (p0["log_estimate"], p0["draws_total"])
    # Repetition 1 reuses the saved schedule, so it draws only replicates.
    assert int(s1["draws_total"]) == 40 * int(s1["schedule_length"])
    records = (tmp_path / "saved.jsonl").read_text()
    assert records == (tmp_path / "plain.jsonl").read_text()
    run_ids = [json.loads(line)["run_id"] for line in records.splitlines()]
    step_2 = run_ids.index(0, run_ids.index(4))
    assert set(run_ids[:step_2]) == set(range(5)) and run_ids[step_2:]
    sidecar = json.loads((tmp_path / "saved.csv.config.json").read_text())
    assert sidecar["config"]["schedule_in"] is None


def test_run_experiment_leaves_the_config_unchanged(tmp_path):
    config = ExperimentConfig(model="k2", beta=1.0, seed=8, reps=2,
                              overrides={"replicates": 40},
                              schedule_out=str(tmp_path / "s.json"))
    before = replace(config)
    run_experiment(config)
    assert config == before


def test_schedule_out_needs_the_paired_method(tmp_path):
    config = ExperimentConfig(model="k2", beta=1.0, method="product",
                              schedule_out=str(tmp_path / "s.json"))
    with pytest.raises(ConfigError):
        run_experiment(config)


@pytest.mark.parametrize("method", ["product", "single", "exact"])
def test_schedule_in_needs_the_paired_method_exit_2(tmp_path, capsys, method):
    # The file is a valid paired schedule, so only the method is at fault.
    sched = tmp_path / "s.json"
    code, _ = _run_main(tmp_path, "a.csv", ["--expert-overrides", "r=40",
                                            "--schedule-out", str(sched)])
    assert code == 0
    code, out = _run_main(tmp_path, "b.csv", ["--method", method, "--schedule-in", str(sched)])
    assert code == 2
    assert "schedule_in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", ["d=3", "k=9", "eta=0.1", "d=3,k=9,eta=0.1,r=40"])
def test_schedule_in_with_a_schedule_override_exit_2(tmp_path, capsys, override):
    # A read schedule is not rebuilt, so d, k and eta would be dropped silently.
    sched = tmp_path / "s.json"
    code, _ = _run_main(tmp_path, "a.csv", ["--expert-overrides", "r=40",
                                            "--schedule-out", str(sched)])
    assert code == 0
    code, out = _run_main(tmp_path, "b.csv", ["--expert-overrides", override,
                                              "--schedule-in", str(sched)])
    assert code == 2
    assert "cannot be overridden" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "eta,message",
    [("0", "eta must be positive"), ("-0.0", "eta must be positive"),
     ("-1", "eta and k must be positive"), ("nan", "must be finite")],
)
def test_a_nonpositive_eta_override_exit_2(tmp_path, capsys, eta, message):
    # k = (4/3) d / eta is derived from eta, so eta = 0 is refused before it.
    code, out = _run_main(tmp_path, "a.csv", ["--expert-overrides", f"eta={eta}"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("flag", ["--schedule-in", "--schedule-out"])
def test_a_run_reads_its_schedule_file_once(flag, threads, tmp_path, monkeypatch):
    # Each read removes the file, so a second read, for a later repetition
    # or a worker, would fail the run.
    sched = tmp_path / "s.json"
    code, _ = _run_main(tmp_path, "a.csv", ["--expert-overrides", "r=40",
                                            "--schedule-out", str(sched)])
    assert code == 0
    load = sched_mod.load_schedule

    def read_once(path):
        loaded = load(path)
        os.remove(path)
        return loaded

    monkeypatch.setattr(sched_mod, "load_schedule", read_once)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "opened", [])
    monkeypatch.setenv("GIBBS_PARTITION_THREADS", threads)
    code, out = _run_main(tmp_path, "b.csv", ["--expert-overrides", "r=40", "--reps", "3",
                                              flag, str(sched)])
    assert code == 0 and len(_read_csv(out)) == 3 and not sched.exists()
    assert _InProcessPool.opened == ([] if threads == "1" else [2])


def test_schedule_in_at_another_beta_exit_2(tmp_path, capsys):
    sched = tmp_path / "s.json"
    code, _ = _run_main(tmp_path, "a.csv", ["--expert-overrides", "r=40",
                                            "--schedule-out", str(sched)])
    assert code == 0
    code = main(["run", "--model", "k2", "--beta", "0.5", "--expert-overrides", "r=40",
                 "--schedule-in", str(sched)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def _params_file(**bad) -> str:
    """A k2 schedule file at beta 1 whose params are well formed but for ``bad``."""
    params = {"eta": 0.5, "d": 2, "k": 3.0, "q_hat1": 1.0, "regime": "integer-nonpositive"}
    return json.dumps({"betas": [0.0, 1.0], "params": {**params, **bad}})


@pytest.mark.parametrize(
    "text,message",
    [
        ("{}", "list of numbers as 'betas'"),
        ("[]", "list of numbers as 'betas'"),
        ('{"betas": [0, 1], "params": {"eta": 1}}', "no 'd' field"),
        ('{"betas": [0, 1], "params": [0.5, 2, 3.0, 1.0, "integer-nonpositive"]}',
         "params must be a JSON object"),
        ('{"betas": [0, null, 1]}', "list of numbers as 'betas'"),
        # json reads NaN as a float nan.
        ('{"betas": [0, NaN, 1]}', "finite and strictly increasing"),
        # An int past the float range is no float.
        ('{"betas": [0, 1' + "0" * 400 + "]}", "list of numbers as 'betas'"),
        (_params_file(eta="0.5"), "'eta' must be a number"),
        (_params_file(d=2.7), "'d' must be an integer"),
        (_params_file(k=True), "'k' must be a number"),
        (_params_file(regime=5), "'regime' must be one of"),
    ],
    ids=["empty-object", "top-level-list", "params-without-d", "list-params", "null-point",
         "nan-point", "huge-int-point", "string-eta", "float-d", "bool-k", "int-regime"],
)
def test_malformed_schedule_file_exit_2(text, message, tmp_path, capsys):
    sched = tmp_path / "s.json"
    sched.write_text(text)
    code, out = _run_main(tmp_path, "a.csv", ["--schedule-in", str(sched)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "method,extra",
    [
        ("paired", ["--expert-overrides", "d=1,k=2,r=10"]),
        ("exact", []),
        ("product", ["--draws", "100"]),
        ("single", ["--draws", "100"]),
    ],
    ids=["paired", "exact", "product", "single"],
)
def test_log_ratio_past_float_range_reports_inf(tmp_path, method, extra):
    # ln Z(1)/Z(0) = 800 for H == -800; exp(800) is past the float range.
    out = tmp_path / "o.csv"
    code = main(
        ["run", "--model", "const--800", "--beta", "1", "--method", method, *extra,
         "--out", str(out)]
    )
    assert code == 0
    row = _read_csv(out)[0]
    assert float(row["log_estimate"]) == pytest.approx(800.0, abs=1e-9)
    assert row["estimate"] == "inf"


# --- compare ----------------------------------------------------------------


def test_compare_methods_table():
    import warnings

    cfg = ExperimentConfig(model="k2", beta=1.0, epsilon=0.3, reps=4, seed=13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = compare_methods(cfg, ["paired", "product", "single"])
    assert [row["method"] for row in table] == ["paired", "product", "single"]
    model = build_model("k2")
    bound = cli._check_draw_limit(cfg, model, models.log_ratio_exact(model, 1.0))
    for row in table:
        assert 0.0 <= row["coverage"] <= 1.0
        assert row["mean_draws"] > 0
        assert row["sample_bound"] == bound > 0
    # matched budgets: baselines land near the paired draw count
    paired = table[0]["mean_draws"]
    assert table[2]["mean_draws"] == pytest.approx(paired, rel=0.05)


# `compare --reps 2 --seed 3` at beta 1 and epsilon 0.1; MODEL is the --model value.
COMPARE_ROWS = {
    "cycle-4": """method,model,beta,epsilon,reps,coverage,mean_draws,mean_abs_log_error,sample_bound,seed
paired,MODEL,1.0,0.1,2,1.0,62829.0,0.0026021254085160095,70888.35596339153,3
product,MODEL,1.0,0.1,2,1.0,62850.0,0.004871930033919281,70888.35596339153,3
single,MODEL,1.0,0.1,2,1.0,62829.0,0.0021444128261522977,70888.35596339153,3
""",
    "mixed-5": """method,model,beta,epsilon,reps,coverage,mean_draws,mean_abs_log_error,sample_bound,seed
paired,MODEL,1.0,0.1,2,1.0,14942.0,0.007534348523487111,10161.550275071033,3
product,MODEL,1.0,0.1,2,1.0,14968.0,0.002538082301361655,10161.550275071033,3
single,MODEL,1.0,0.1,2,1.0,14942.0,0.004988794013265574,10161.550275071033,3
""",
}


@pytest.mark.parametrize("name", sorted(COMPARE_ROWS))
def test_compare_rows_are_pinned(name, tmp_path):
    # Pins every column, sample_bound included, of an integer and a shifted model.
    mixed = tmp_path / "mixed-5.json"
    mixed.write_text(json.dumps(MIXED_5))
    spec = f"table:{mixed}" if name == "mixed-5" else name
    out = tmp_path / "c.csv"
    assert main(["compare", "--model", spec, "--beta", "1", "--reps", "2", "--seed", "3",
                 "--out", str(out)]) == 0
    assert out.read_text() == COMPARE_ROWS[name].replace("MODEL", spec)


def test_compare_schedule_out_acts_on_the_paired_rows(tmp_path):
    # The paired rows come from run_experiment, so --schedule-out saves the
    # schedule of their repetition 0, as in `run`.
    sched = tmp_path / "s.json"
    cfg = ExperimentConfig(model="k2", beta=1.0, reps=2, seed=8,
                           overrides={"replicates": 40}, schedule_out=str(sched))
    (paired,) = compare_methods(cfg, ["paired"])
    saved = json.loads(sched.read_text())
    rows = run_experiment(replace(cfg, schedule_out=str(tmp_path / "again.json")))
    assert paired["mean_draws"] == sum(r["draws_total"] for r in rows) / 2
    assert json.loads((tmp_path / "again.json").read_text()) == saved


def test_compare_schedule_in_acts_on_the_paired_rows(tmp_path):
    # The paired rows read the schedule; the baselines build their own.
    sched = tmp_path / "s.json"
    cfg = ExperimentConfig(model="k2", beta=1.0, reps=2, seed=8,
                           overrides={"replicates": 40})
    run_experiment(replace(cfg, schedule_out=str(sched)))
    cfg = replace(cfg, schedule_in=str(sched))
    table = compare_methods(cfg, ["paired", "product", "single"])
    rows = run_experiment(cfg)
    assert table[0]["mean_draws"] == sum(r["draws_total"] for r in rows) / 2
    assert all(r["draws_total"] == 40 * r["schedule_length"] for r in rows)
    assert [row["method"] for row in table] == ["paired", "product", "single"]


def test_compare_trace_is_the_paired_run_trace(tmp_path):
    args = ["--model", "k2", "--beta", "1", "--epsilon", "0.3", "--seed", "6",
            "--reps", "2", "--expert-overrides", "r=5"]
    compared, run = tmp_path / "compare.jsonl", tmp_path / "run.jsonl"
    # Method names are stripped, as override chunks are.
    with pytest.warns(UserWarning, match="analyzed for epsilon"):
        assert main(["compare", *args, "--methods", "paired, product ,single", "--trace",
                     str(compared), "--out", str(tmp_path / "c.csv")]) == 0
    with pytest.warns(UserWarning, match="analyzed for epsilon"):
        assert main(["run", "--method", "paired", *args, "--trace", str(run),
                     "--out", str(tmp_path / "r.csv")]) == 0
    assert compared.read_bytes() and compared.read_bytes() == run.read_bytes()
    methods = [row["method"] for row in _read_csv(tmp_path / "c.csv")]
    assert methods == ["paired", "product", "single"]


def test_a_run_builds_its_model_and_truth_once(tmp_path, monkeypatch):
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "build_model", counted("build_model", cli.build_model))
    monkeypatch.setattr(models, "log_ratio_exact", counted("log_ratio_exact", models.log_ratio_exact))
    cfg = ExperimentConfig(model="k2", beta=1.0, epsilon=0.4, reps=4, seed=3,
                           overrides={"replicates": 20})
    runs = {
        "run": lambda: run_experiment(cfg),
        "schedule-out": lambda: run_experiment(replace(cfg, schedule_out=str(tmp_path / "s.json"))),
        "compare": lambda: compare_methods(cfg, ["paired", "product", "single"]),
    }
    for label, run in runs.items():
        calls.clear()
        with pytest.warns(UserWarning, match="analyzed for epsilon"):
            run()
        assert calls == {"build_model": 1, "log_ratio_exact": 1}, label


def test_compare_rejects_empty_methods():
    cfg = ExperimentConfig(model="k2", beta=1.0, reps=1, seed=1)
    with pytest.raises(ConfigError):
        compare_methods(cfg, [])
    with pytest.raises(ConfigError):
        compare_methods(cfg, ["exact"])


def test_compare_via_main_empty_methods_exit_2():
    assert main(["compare", "--model", "k2", "--beta", "1", "--methods", ""]) == 2


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_json_outputs_are_strict_json(tmp_path):
    # Non-finite floats are written as the strings CSV uses, not Infinity.
    out = tmp_path / "t.json"
    code = main(
        [
            "run", "--model", "const--800", "--beta", "1", "--method", "exact",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload[0]["estimate"] == "inf"
    assert payload[0]["log_estimate"] == 800.0
    json.loads((tmp_path / "t.json.config.json").read_text(), parse_constant=_reject_constant)

    trace = tmp_path / "trace.jsonl"
    code = main(
        [
            "run", "--model", "k2", "--beta", "1", "--trace", str(trace),
            "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert code == 0
    records = [
        json.loads(line, parse_constant=_reject_constant)
        for line in trace.read_text().splitlines()
    ]
    # A TPA step on k2 that draws H(X) = 0 jumps to b = -inf.
    assert "-inf" in {r["b"] for r in records}
