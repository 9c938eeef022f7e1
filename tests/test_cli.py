"""CLI: shorthand parsing, table emission, determinism, exit codes."""

import csv
import json
import math
from dataclasses import replace

import pytest

import gibbs_partition.cli as cli
import gibbs_partition.models as models
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
    assert build_model("k2").num_states == 4
    assert build_model("path-3").num_states == 8
    assert build_model("cycle-4").num_states == 16
    assert build_model("grid-2x2").num_states == 16
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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "opened", [])
    monkeypatch.setenv("GIBBS_PARTITION_THREADS", threads)
    args = ["--method", "product", "--reps", str(reps), "--seed", "3"]
    code, _ = _run_main(tmp_path, "t.csv", args)
    assert code == 0 and _InProcessPool.opened == [workers]


@pytest.mark.parametrize("threads", ["two", "1.5", "4x"])
def test_main_non_integer_threads_exit_2(threads, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "opened", [])
    monkeypatch.setenv("GIBBS_PARTITION_THREADS", threads)
    code, _ = _run_main(tmp_path, "t.csv", ["--method", "product", "--reps", "2"])
    assert code == 2 and _InProcessPool.opened == []
    assert "GIBBS_PARTITION_THREADS must be an integer" in capsys.readouterr().err


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
    for spec, form in (
        ("grid-3", "grid-RxC"),
        ("grid-2x2x2", "grid-RxC"),
        ("cycle-x", "cycle-N"),
        ("path-", "path-N"),
    ):
        assert main(["run", "--model", spec, "--beta", "1"]) == 2
        assert f"not of the form {form}" in capsys.readouterr().err


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
    # Draw blocks of 2 and 7 EiB: past any address space, below numpy's
    # 2^63-byte limit, so the allocation fails without touching memory.
    assert main(["run", "--model", "k2", "--beta", "1", *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "allocate" in err


def test_main_mcmc_past_the_guard_exit_3(capsys):
    # Each chain starts from one int64 state index, so MCMC stops at 63 sites.
    for spec in ("grid-8x8", "path-64"):
        assert main(["run", "--model", spec, "--beta", "0.5", "--sampler", "mcmc",
                     "--tv-budget", "0.001"]) == 3
        assert "63-site limit" in capsys.readouterr().err


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


def test_schedule_in_at_another_beta_exit_2(tmp_path, capsys):
    sched = tmp_path / "s.json"
    code, _ = _run_main(tmp_path, "a.csv", ["--expert-overrides", "r=40",
                                            "--schedule-out", str(sched)])
    assert code == 0
    code = main(["run", "--model", "k2", "--beta", "0.5", "--expert-overrides", "r=40",
                 "--schedule-in", str(sched)])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("{}", "list of numbers as 'betas'"),
        ("[]", "list of numbers as 'betas'"),
        ('{"betas": [0, 1], "params": {"eta": 1}}', "no 'd' field"),
        ('{"betas": [0, null, 1]}', "list of numbers as 'betas'"),
        # json reads NaN as a float nan.
        ('{"betas": [0, NaN, 1]}', "finite and strictly increasing"),
    ],
    ids=["empty-object", "top-level-list", "params-without-d", "null-point", "nan-point"],
)
def test_malformed_schedule_file_exit_2(text, message, tmp_path, capsys):
    sched = tmp_path / "s.json"
    sched.write_text(text)
    code, out = _run_main(tmp_path, "a.csv", ["--schedule-in", str(sched)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["paired", "exact", "product", "single"])
def test_log_ratio_past_float_range_reports_inf(tmp_path, method):
    # ln Z(1)/Z(0) = 800 for H == -800; exp(800) is past the float range.
    out = tmp_path / "o.csv"
    code = main(
        [
            "run", "--model", "const--800", "--beta", "1", "--method", method,
            "--expert-overrides", "d=1,k=2,r=10", "--draws", "100", "--out", str(out),
        ]
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
    for row in table:
        assert 0.0 <= row["coverage"] <= 1.0
        assert row["mean_draws"] > 0
        assert row["sample_bound"] > 0
    # matched budgets: baselines land near the paired draw count
    paired = table[0]["mean_draws"]
    assert table[2]["mean_draws"] == pytest.approx(paired, rel=0.05)


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
