"""Paired product estimator and baselines against enumeration truths."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbs_partition
from gibbs_partition import (
    CoolingSchedule,
    ParamOverrides,
    bezakova_schedule,
    constant_model,
    epsilon_tilde,
    exact_oracle,
    exp_or_inf,
    grid_model,
    log_partition_exact,
    log_ratio_exact,
    mcmc_oracle,
    median_boosted_estimate,
    paired_product_estimate,
    paired_replicate_logs,
    prepare,
    product_baseline_log_estimate,
    product_log_estimate,
    replicate_count,
    sample_bound_integer,
    sample_bound_shifted,
    stage_stream,
    table_model,
)
from gibbs_partition import samplers
from gibbs_partition.estimators import REPLICATE_COEFF_INTEGER
from gibbs_partition.cli import ExperimentConfig, run_experiment
from gibbs_partition.schedule import (
    REGIME_INTEGER_NONPOSITIVE,
    REGIME_SHIFTED,
    regime_for_model,
)

from conftest import draw_exact, paired_replicate, state_energies

SEED = 4241


def _rng(tag, index=0):
    return stage_stream(SEED, tag, index)


def _z(model, b):
    return log_partition_exact(model, b)


def _interval_relvars(model, sched):
    """Per-interval relvar(W_i) = Z(b_{i+1}) Z(b_i) / Z(m_i)^2 - 1 by enumeration."""
    out = []
    for lo, hi, mid in zip(sched.betas, sched.betas[1:], sched.midpoints):
        out.append(math.exp(_z(model, hi) + _z(model, lo) - 2.0 * _z(model, mid)) - 1.0)
    return out


def _random_schedule(rng, beta=1.0, interior=3):
    cuts = np.sort(rng.random(interior)) * beta
    cuts = [c for c in cuts if 1e-6 < c < beta - 1e-6]
    return CoolingSchedule(betas=(0.0, *cuts, beta))


# --- replicate counts ------------------------------------------------------


def test_replicate_count_frozen_values():
    assert replicate_count(0.1, REGIME_INTEGER_NONPOSITIVE) == 7217
    assert replicate_count(0.1, REGIME_SHIFTED) == 3609


def test_replicate_count_decreases_with_epsilon():
    assert replicate_count(0.5, REGIME_INTEGER_NONPOSITIVE) < replicate_count(
        0.1, REGIME_INTEGER_NONPOSITIVE
    )


@pytest.mark.parametrize("epsilon", [1e-17, 1e-100])
def test_replicate_count_does_not_cancel_for_a_tiny_epsilon(epsilon):
    # sqrt(1 + epsilon) - 1 rounds to 0 below about 3.3e-16; epsilon_tilde
    # is epsilon / 2 to first order.
    assert epsilon_tilde(epsilon) == pytest.approx(epsilon / 2, rel=1e-15)
    r = replicate_count(epsilon, REGIME_INTEGER_NONPOSITIVE)
    assert r == pytest.approx(4 * REPLICATE_COEFF_INTEGER / epsilon**2, rel=1e-12)


def test_zero_replicates_are_refused_before_any_draw(k2):
    oracle = exact_oracle(k2)
    with pytest.raises(ValueError, match="replicates must be >= 1"):
        paired_product_estimate(
            oracle, 1.0, 0.1, _rng("r0"), overrides=ParamOverrides(replicates=0)
        )
    assert oracle.counter.total == 0


# --- paired replicates -----------------------------------------------------


def test_flat_model_replicate_is_exactly_one():
    model = table_model([0.0, 0.0])
    sched = CoolingSchedule(betas=(0.0, 2.0))
    w, v = paired_replicate(sched, exact_oracle(model), _rng("flat"))
    assert w == 1.0 and v == 1.0


@settings(max_examples=25, deadline=None)
@given(level=st.floats(-2, 2), cut=st.floats(0.1, 0.9))
def test_constant_model_replicate_product_identity(level, cut):
    # H == c: W = exp(-c beta/2) and V = exp(+c beta/2) with no randomness
    model = constant_model(level)
    sched = CoolingSchedule(betas=(0.0, cut, 1.0))
    w, v = paired_replicate(sched, exact_oracle(model), _rng("const"))
    assert w * v == pytest.approx(1.0, rel=1e-12)
    assert w == pytest.approx(math.exp(-level * 0.5), rel=1e-12)


@pytest.mark.parametrize("label,model", [("k2", "k2"), ("mixed-5", "mixed_table")])
def test_batched_replicates_are_point_major_draws(label, model, request):
    # All r draws at betas[0] come first, then all r at betas[1], and so on.
    model = request.getfixturevalue(model)
    sched = CoolingSchedule(betas=(0.0, 0.2, 0.55, 1.0))
    r = 50
    batched, single = exact_oracle(model), exact_oracle(model)
    log_ws, log_vs = paired_replicate_logs(sched, batched, r, _rng(f"major-{label}"))
    g = _rng(f"major-{label}")
    h = state_energies(model)
    hs = [h[[draw_exact(single, b, g) for _ in range(r)]] for b in sched.betas]
    for j in range(r):
        log_w = log_v = 0.0
        for i, delta in enumerate(sched.half_lengths):
            log_w -= delta * hs[i][j]
            log_v += delta * hs[i + 1][j]
        assert log_ws[j] == pytest.approx(log_w, rel=1e-12, abs=1e-15)
        assert log_vs[j] == pytest.approx(log_v, rel=1e-12, abs=1e-15)
    assert batched.counter.total == r * len(sched.betas)


_BLAS_BLOCK = """
import hashlib
import numpy as np
from gibbs_partition import CoolingSchedule, exact_oracle, grid_model, paired_replicate_logs, stage_stream
schedule = CoolingSchedule(tuple(np.linspace(0.0, 0.5, 160).tolist()))
logs = paired_replicate_logs(schedule, exact_oracle(grid_model(8, 8)), 7217, stage_stream(3, "blas", 0))
print(*(hashlib.sha256(x.tobytes()).hexdigest() for x in logs))
"""


def test_replicate_logs_do_not_depend_on_blas_threads():
    # 160 rows of 7,217 replicates on grid-8x8: a block this size is where
    # OpenBLAS splits a matrix-vector product over threads, and the split
    # changes its last bits.
    src = str(Path(gibbs_partition.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_BLOCK], capture_output=True, text=True, env=env, timeout=300
        )
        assert done.returncode == 0, done.stderr
        hashes.append(done.stdout.split())
    assert len(hashes[0]) == 2
    assert hashes[0] == hashes[1]


def _streamed_case(label, request):
    """(oracle, schedule) of one streamed-sum case."""
    if label == "5000-levels":
        # Width 13 columns per level-CDF block, so 20 points span two blocks.
        many = table_model(np.arange(5000.0) / 100.0)
        assert samplers._MATRIX_CAP // len(many.energies) < 20
        return exact_oracle(many), CoolingSchedule(tuple(np.linspace(0.0, 1.0, 20).tolist()))
    schedule = CoolingSchedule(betas=(0.0, 0.2, 0.55, 0.7, 1.0))
    if label == "mixed-5":
        work, regime, _ = prepare(exact_oracle(request.getfixturevalue("mixed_table")), 1.0)
        assert regime == REGIME_SHIFTED
        return work, schedule
    if label == "mcmc-k2":
        return mcmc_oracle(request.getfixturevalue("k2"), 46, 1e-3), schedule
    model = request.getfixturevalue("k2") if label == "k2" else grid_model(4, 4)
    return exact_oracle(model), schedule


@pytest.mark.parametrize("label", ["k2", "grid-4x4", "mixed-5", "5000-levels", "mcmc-k2"])
def test_streamed_replicate_sums_are_the_row_order_einsum_bytes(label, request):
    # The running sums add the rows in row order, exactly as a row-order
    # einsum over the whole (points, r) block does, down to the last bit.
    oracle, schedule = _streamed_case(label, request)
    r = 301
    block = np.array(list(oracle.energy_rows(schedule.betas, r, _rng(f"streamed-{label}"))))
    log_ws, log_vs = paired_replicate_logs(schedule, oracle, r, _rng(f"streamed-{label}"))
    deltas = np.array(schedule.half_lengths)
    assert log_ws.tobytes() == (-np.einsum("i,ij->j", deltas, block[:-1])).tobytes()
    assert log_vs.tobytes() == np.einsum("i,ij->j", deltas, block[1:]).tobytes()
    assert oracle.counter.total == 2 * r * len(schedule.betas)


def test_replicate_memory_does_not_grow_with_the_schedule():
    # 400 points of 7,217 replicates on grid-8x8: the whole energy block
    # would be 23 MB; the running sums keep the stage to a few rows.
    schedule = CoolingSchedule(tuple(np.linspace(0.0, 0.5, 400).tolist()))
    oracle, r = exact_oracle(grid_model(8, 8)), 7217
    tracemalloc.start()
    try:
        paired_replicate_logs(schedule, oracle, r, _rng("replicate-memory"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(schedule.betas) * r * 8 / 4
    assert oracle.counter.total == len(schedule.betas) * r


def test_k2_paired_factor_means(k2):
    # E[W] = Z(0.5)/Z(0), E[V] = Z(0.5)/Z(1) on the single-interval schedule
    sched = CoolingSchedule(betas=(0.0, 1.0))
    oracle = exact_oracle(k2)
    rng = _rng("factors")
    n = 30_000
    ws = np.empty(n)
    vs = np.empty(n)
    for j in range(n):
        ws[j], vs[j] = paired_replicate(sched, oracle, rng)
    ew = 1.324360635350064   # (2 e^0.5 + 2) / 4
    ev = 0.7123508633550321  # (2 e^0.5 + 2) / (2 e + 2)
    assert abs(ws.mean() - ew) <= 3 * ws.std(ddof=1) / math.sqrt(n)
    assert abs(vs.mean() - ev) <= 3 * vs.std(ddof=1) / math.sqrt(n)
    relvar = 0.05998515119362202  # Z(1) Z(0) / Z(0.5)^2 - 1
    assert ws.var(ddof=1) / ws.mean() ** 2 == pytest.approx(relvar, rel=0.1)


def test_unbiased_per_interval_on_audited_schedule(c4):
    sched = _random_schedule(_rng("audit-sched"), beta=1.0)
    oracle = exact_oracle(c4)
    rng = _rng("audit")
    n = 20_000
    h = state_energies(c4)
    for lo, hi, mid, delta in zip(
        sched.betas, sched.betas[1:], sched.midpoints, sched.half_lengths
    ):
        ws = np.array(
            [math.exp(-delta * h[draw_exact(oracle, lo, rng)]) for _ in range(n)]
        )
        expected = math.exp(_z(c4, mid) - _z(c4, lo))
        assert abs(ws.mean() - expected) <= 3.5 * ws.std(ddof=1) / math.sqrt(n)


# --- relvar identities (analytic, no sampling) -----------------------------


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_relvar_equals_exp_two_delta_z(k2, c4, beta):
    for model in (k2, c4):
        sched = _random_schedule(_rng("relvar-id"), beta=beta)
        for (lo, hi, mid), v in zip(
            zip(sched.betas, sched.betas[1:], sched.midpoints),
            _interval_relvars(model, sched),
        ):
            delta_z = 0.5 * (_z(model, hi) + _z(model, lo)) - _z(model, mid)
            assert v == pytest.approx(math.exp(2.0 * delta_z) - 1.0, abs=1e-10)
            assert delta_z >= -1e-12  # convexity


def test_product_relvar_composition(k2, c4):
    # -1 + prod(1 + v_i) == exp(sum 2 delta_z) - 1, by Theorem-style algebra
    for model in (k2, c4):
        sched = _random_schedule(_rng("relvar-comp"), beta=1.5)
        vs = _interval_relvars(model, sched)
        total = -1.0
        total += np.prod([1.0 + v for v in vs])
        sum_dz = sum(
            0.5 * (_z(model, hi) + _z(model, lo)) - _z(model, mid)
            for lo, hi, mid in zip(sched.betas, sched.betas[1:], sched.midpoints)
        )
        assert total == pytest.approx(math.exp(2.0 * sum_dz) - 1.0, abs=1e-10)


def test_midpoint_slope_inequality(k2, c4, mixed_table):
    # z'(b_{i+1}) / z'(b_i) >= exp(4 delta_z / eta_z), slopes by fine
    # central differences
    step = 1e-5
    for model in (k2, c4, mixed_table):
        work = model
        if regime_for_model(model) == REGIME_SHIFTED:
            from gibbs_partition import shift_hamiltonian

            work = shift_hamiltonian(model, -2.0 * model.n_bound)
        sched = _random_schedule(_rng("slope"), beta=1.0)
        zp = lambda b: (_z(work, b + step) - _z(work, b - step)) / (2 * step)
        for lo, hi, mid in zip(sched.betas, sched.betas[1:], sched.midpoints):
            eta_z = _z(work, hi) - _z(work, lo)
            if abs(eta_z) < 1e-9:
                continue
            delta_z = 0.5 * (_z(work, hi) + _z(work, lo)) - _z(work, mid)
            ratio = zp(hi) / zp(lo)
            assert ratio >= math.exp(4.0 * delta_z / eta_z) * (1.0 - 1e-9)


def test_ratio_correctness_analytic(c4, mixed_table):
    # E[W] / E[V] telescopes to Z(beta)/Z(0) for any schedule
    for model in (c4, mixed_table):
        sched = _random_schedule(_rng("telescope"), beta=1.0)
        log_ew = sum(
            _z(model, mid) - _z(model, lo)
            for lo, mid in zip(sched.betas, sched.midpoints)
        )
        log_ev = sum(
            _z(model, mid) - _z(model, hi)
            for hi, mid in zip(sched.betas[1:], sched.midpoints)
        )
        assert log_ew - log_ev == pytest.approx(
            log_ratio_exact(model, 1.0), abs=1e-10
        )


def test_relvar_ceiling_on_balanced_schedules(c4):
    # integer regime with n >= 4: relvar(W) stays below 2e (+25% slack)
    from gibbs_partition import initial_estimate, select_params, well_balanced_schedule

    ceiling = 2.0 * math.e * 1.25
    rng = _rng("ceiling")
    for rep in range(5):
        oracle = exact_oracle(c4)
        q_hat, _ = initial_estimate(oracle, 1.0, rng)
        params = select_params(q_hat, c4.n_bound, regime_for_model(c4), 1.0)
        sched, _ = well_balanced_schedule(oracle, 1.0, params, rng)
        n = 4000
        ws = np.empty(n)
        for j in range(n):
            ws[j], _ = paired_replicate(sched, oracle, rng)
        assert ws.var(ddof=1) / ws.mean() ** 2 <= ceiling


# --- single-shot baseline: the product estimator on {0, beta} --------------


def test_single_shot_flat_model_is_exact():
    oracle = exact_oracle(table_model([0.0, 0.0, 0.0]))
    sched = CoolingSchedule(betas=(0.0, 3.0))
    est = exp_or_inf(product_log_estimate(sched, oracle, 50, _rng("ss-flat")))
    assert est == pytest.approx(1.0, rel=1e-12)


def test_single_shot_k2(k2):
    oracle = exact_oracle(k2)
    n = 100_000
    sched = CoolingSchedule(betas=(0.0, 1.0))
    est = exp_or_inf(product_log_estimate(sched, oracle, n, _rng("ss-k2")))
    truth = 1.8591409142295225
    # sd(W) = sqrt(relvar) * E[W]
    se = math.sqrt(0.2135522670340726) * truth / math.sqrt(n)
    assert abs(est - truth) <= 3 * se
    assert oracle.counter.total == n


# --- fixed two-piece schedule ----------------------------------------------


def test_bezakova_example():
    sched = bezakova_schedule(q=1.0, n=2, beta=1.0)
    assert sched.betas == (0.0, 0.5, 1.0)


def test_bezakova_linear_then_geometric():
    sched = bezakova_schedule(q=2.0, n=4, beta=3.0)
    betas = sched.betas
    # linear part: 0, 1/4, 2/4; geometric part grows by 1 + 1/2
    assert betas[:3] == (0.0, 0.25, 0.5)
    assert betas[3] == pytest.approx(0.75)
    assert betas[4] == pytest.approx(1.125)
    assert betas[-1] == 3.0


def test_bezakova_warns_when_it_stops_short_of_beta():
    # 10,000 steps of growth 1 + 1/2000 reach about 296,456, far below 1e6.
    with pytest.warns(UserWarning, match="final interval is 703544 wide"):
        sched = bezakova_schedule(2000.0, 1, 1e6)
    assert sched.betas[-1] == 1e6


def test_bezakova_rejects_nonpositive_q():
    with pytest.raises(ValueError):
        bezakova_schedule(q=0.0, n=2, beta=1.0)
    with pytest.raises(ValueError):
        bezakova_schedule(q=-1.0, n=2, beta=1.0)


@settings(max_examples=50, deadline=None)
@given(q=st.floats(0.01, 20), n=st.integers(1, 30), beta=st.floats(0.05, 8))
def test_bezakova_strictly_increasing_and_capped(q, n, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        sched = bezakova_schedule(q, n, beta)
    assert sched.betas[0] == 0.0
    assert sched.betas[-1] == beta
    assert all(b2 > b1 for b1, b2 in zip(sched.betas, sched.betas[1:]))


# --- multistage product baseline -------------------------------------------


def test_product_estimate_flat_model():
    oracle = exact_oracle(table_model([0.0, 0.0]))
    sched = CoolingSchedule(betas=(0.0, 0.5, 1.0))
    est = exp_or_inf(product_log_estimate(sched, oracle, 100, _rng("prod-flat")))
    assert est == pytest.approx(1.0, rel=1e-12)


def test_product_baseline_flat_model_falls_back_to_one_interval():
    # q_hat is 0 on a flat model, so the baseline walks {0, beta}.
    oracle = exact_oracle(table_model([0.0] * 4))
    log_est, sched = product_baseline_log_estimate(oracle, 2.0, 100, _rng("pb-flat"))
    assert log_est == 0.0
    assert sched.betas == (0.0, 2.0)


def test_product_single_stage_matches_single_shot_distribution(k2):
    # one stage is the plain importance estimator
    sched = CoolingSchedule(betas=(0.0, 1.0))
    oracle = exact_oracle(k2)
    est = exp_or_inf(product_log_estimate(sched, oracle, 50_000, _rng("prod-one")))
    truth = 1.8591409142295225
    se = math.sqrt(0.2135522670340726) * truth / math.sqrt(50_000)
    assert abs(est - truth) <= 3.5 * se


@pytest.mark.parametrize("label,model", [("k2", "k2"), ("mixed-5", "mixed_table")])
def test_baselines_match_one_draw_at_a_time(label, model, request):
    # For exact oracles the vector draws are the scalar draws, bit for bit.
    from scipy.special import logsumexp

    model = request.getfixturevalue(model)
    n = 400
    oracle = exact_oracle(model)
    g = _rng(f"single-ref-{label}")
    h = state_energies(model)
    ref = logsumexp([-1.3 * h[draw_exact(oracle, 0.0, g)] for _ in range(n)]) - math.log(n)
    got = product_log_estimate(CoolingSchedule(betas=(0.0, 1.3)), exact_oracle(model), n,
                               _rng(f"single-ref-{label}"))
    assert got == ref

    sched = CoolingSchedule(betas=(0.0, 0.4, 1.0))
    g = _rng(f"product-ref-{label}")
    ref = 0.0
    for lo, hi in zip(sched.betas, sched.betas[1:]):
        logs = [-(hi - lo) * h[draw_exact(oracle, lo, g)] for _ in range(n)]
        ref += float(logsumexp(logs) - math.log(n))
    got = product_log_estimate(sched, exact_oracle(model), n, _rng(f"product-ref-{label}"))
    assert got == ref


def test_product_relvar_composition_empirical(k2):
    # relvar of the single-draw product matches -1 + prod(1 + v_i) with the
    # per-stage relvars computed by enumeration
    sched = CoolingSchedule(betas=(0.0, 0.5, 1.0))
    vs = []
    for lo, hi in zip(sched.betas, sched.betas[1:]):
        width = hi - lo
        vs.append(
            math.exp(_z(k2, lo + 2 * width) + _z(k2, lo) - 2 * _z(k2, hi)) - 1.0
        )
    expected = -1.0 + np.prod([1.0 + v for v in vs])
    rng = _rng("prod-relvar")
    oracle = exact_oracle(k2)
    n = 60_000
    samples = np.array([exp_or_inf(product_log_estimate(sched, oracle, 1, rng)) for _ in range(n)])
    empirical = samples.var(ddof=1) / samples.mean() ** 2
    assert empirical == pytest.approx(expected, rel=0.15)


# --- the full paired product pipeline --------------------------------------


def test_flat_model_estimate_is_exactly_one():
    oracle = exact_oracle(table_model([0.0] * 4))
    est = paired_product_estimate(oracle, 2.0, 0.1, _rng("pipe-flat"))
    assert est.log_ratio_estimate == 0.0
    assert est.schedule.betas == (0.0, 2.0)


def test_constant_model_estimate_is_exact():
    oracle = exact_oracle(constant_model(2.0))
    est = paired_product_estimate(oracle, 0.7, 0.1, _rng("pipe-const"))
    assert est.log_ratio_estimate == pytest.approx(-1.4, abs=1e-12)


def test_k2_pipeline_accuracy_and_accounting(k2):
    truth = log_ratio_exact(k2, 1.0)
    oracle = exact_oracle(k2)
    before = oracle.counter.total
    est = paired_product_estimate(oracle, 1.0, 0.1, _rng("pipe-k2"))
    assert est.draws_total == oracle.counter.total - before
    assert est.replicates == 7217
    assert abs(est.log_ratio_estimate - truth) <= math.log(1.1)
    assert est.log_shift_correction == 0.0


def test_mixed_model_routes_through_shift(mixed_table):
    truth = log_ratio_exact(mixed_table, 1.0)
    oracle = exact_oracle(mixed_table)
    est = paired_product_estimate(oracle, 1.0, 0.1, _rng("pipe-mixed"))
    assert est.params.regime == REGIME_SHIFTED
    assert est.replicates == 3609
    assert est.log_shift_correction == pytest.approx(-2.0 * mixed_table.n_bound * 1.0)
    assert abs(est.log_ratio_estimate - truth) <= math.log(1.1)


def test_epsilon_validation(k2):
    oracle = exact_oracle(k2)
    with pytest.raises(ValueError):
        paired_product_estimate(oracle, 1.0, 0.0, _rng("eps"))
    with pytest.raises(ValueError):
        paired_product_estimate(oracle, 1.0, 1.5, _rng("eps"))
    with pytest.warns(UserWarning, match="guarantee"):
        paired_product_estimate(oracle, 1.0, 0.5, _rng("eps"))


@pytest.mark.parametrize("beta", [math.inf, math.nan])
def test_nonfinite_beta_is_refused_before_any_draw(k2, beta):
    oracle = exact_oracle(k2)
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        paired_product_estimate(oracle, beta, 0.1, _rng("beta"))
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        product_baseline_log_estimate(oracle, beta, 100, _rng("beta"))
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        product_log_estimate(CoolingSchedule(betas=(0.0, beta)), oracle, 10, _rng("beta"))
    assert oracle.counter.total == 0


def test_overrides_are_honored(k2):
    oracle = exact_oracle(k2)
    est = paired_product_estimate(
        oracle,
        1.0,
        0.1,
        _rng("override"),
        overrides=ParamOverrides(d=5, eta=0.5, replicates=10),
    )
    assert est.replicates == 10
    assert est.params.d == 5
    assert est.params.eta == 0.5
    assert est.params.k == pytest.approx((4.0 / 3.0) * 5 / 0.5)


def test_reused_schedule_skips_construction(k2):
    sched = CoolingSchedule(betas=(0.0, 0.5, 1.0))
    oracle = exact_oracle(k2)
    est = paired_product_estimate(
        oracle,
        1.0,
        0.1,
        _rng("reuse"),
        overrides=ParamOverrides(replicates=100),
        schedule=sched,
    )
    assert est.schedule is sched
    assert est.params is None
    assert est.draws_total == 100 * 3  # replicates x schedule points only


@pytest.mark.parametrize("overrides", [dict(d=3, k=7.0), dict(eta=0.5), dict(k=7.0, replicates=10)])
def test_reused_schedule_refuses_schedule_overrides_before_any_draw(k2, overrides):
    # A given schedule is not rebuilt, so d, k and eta would be dropped silently.
    oracle = exact_oracle(k2)
    sched = CoolingSchedule(betas=(0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="cannot be overridden"):
        paired_product_estimate(
            oracle, 1.0, 0.1, _rng("reuse"), overrides=ParamOverrides(**overrides), schedule=sched
        )
    assert oracle.counter.total == 0


def test_reused_schedule_must_end_at_beta(k2):
    sched = CoolingSchedule(betas=(0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="beta"):
        paired_product_estimate(exact_oracle(k2), 0.5, 0.1, _rng("reuse"), schedule=sched)


def test_median_boost(k2):
    oracle = exact_oracle(k2)
    est = median_boosted_estimate(
        oracle,
        1.0,
        0.1,
        _rng("boost"),
        boost=3,
        overrides=ParamOverrides(replicates=200),
    )
    assert est.draws_total == oracle.counter.total
    with pytest.raises(ValueError):
        median_boosted_estimate(oracle, 1.0, 0.1, _rng("boost"), boost=2)


def test_deterministic_given_stream(k2):
    a = paired_product_estimate(exact_oracle(k2), 1.0, 0.1, _rng("det"))
    b = paired_product_estimate(exact_oracle(k2), 1.0, 0.1, _rng("det"))
    assert a.log_ratio_estimate == b.log_ratio_estimate
    assert a.draws_total == b.draws_total


@pytest.mark.parametrize(
    "spec,draws",
    [
        ("k2", [22031, 22031, 22027, 22039]),
        ("mixed-5", [14962, 14966, 14973, 14932]),
    ],
)
def test_run_experiment_draw_cost_is_pinned(spec, draws, tmp_path):
    # Draw counts per seed, frozen when TPA runs began to be walked in
    # lockstep, which reads the step-1 and step-2 streams step by step.
    if spec == "mixed-5":
        path = tmp_path / "mixed-5.json"
        path.write_text('{"type": "table", "hamiltonian": [-2, -1, 0, 1, 2]}')
        spec = f"table:{path}"
    got = [
        run_experiment(ExperimentConfig(model=spec, beta=1.0, seed=seed))[0]["draws_total"]
        for seed in range(4)
    ]
    assert got == draws


@pytest.mark.parametrize(
    "spec,method,draws,logs",
    [
        ("k2", "product", [10010, 10011, 10006, 10010],
         [0.6170598730730052, 0.616967162592692, 0.6236204443663365, 0.6202069261189465]),
        ("k2", "single", [10000] * 4,
         [0.6205765173722888, 0.6208536211976554, 0.6228833730516907, 0.626471475321658]),
        ("mixed-5", "product", [10024, 10035, 10014, 10025],
         [0.8378507880195567, 0.8429315483834898, 0.8465054418385147, 0.8268413252384335]),
        ("mixed-5", "single", [10000] * 4,
         [0.8321916978043085, 0.8408309737222606, 0.8437548446624135, 0.850474808589393]),
        ("k2", "paired", [22031, 22031, 22027, 22039],
         [0.6211666640153517, 0.6193671991061862, 0.610909765705653, 0.6168902074703801]),
        ("mixed-5", "paired", [14962, 14966, 14973, 14932],
         [0.8432851171614075, 0.8577671891256511, 0.8179333372098716, 0.8492977561311736]),
        ("k2-mcmc", "paired", [22017, 22001, 14762, 21970],
         [0.6250370594262353, 0.6262327162484542, 0.6169274345427258, 0.6161234317691164]),
        ("grid3x3-mcmc", "paired", [207907, 200150, 214849, 200243],
         [7.6171610553249245, 7.614602173135594, 7.6159516745032105, 7.610878353135629]),
    ],
)
def test_run_experiment_baseline_rows_are_pinned(spec, method, draws, logs, tmp_path):
    # Rows per seed: the baselines at the default 10,000-draw budget, where a
    # change in the q estimate, the two-piece schedule or the per-stage split
    # moves them, and paired rows, exact, at the k2-mcmc benchmark setting and
    # on grid-3x3, whose MCMC sites have degree 2 to 4.
    sampler = {}
    if spec == "mixed-5":
        path = tmp_path / "mixed-5.json"
        path.write_text('{"type": "table", "hamiltonian": [-2, -1, 0, 1, 2]}')
        spec = f"table:{path}"
    elif spec == "k2-mcmc":
        spec, sampler = "k2", {"sampler": "mcmc", "mcmc_steps": 46, "tv_budget": 1e-3}
    elif spec == "grid3x3-mcmc":
        spec, sampler = "grid-3x3", {"sampler": "mcmc", "mcmc_steps": 5, "tv_budget": 1e-3}
    rows = [
        run_experiment(
            ExperimentConfig(model=spec, beta=1.0, seed=seed, method=method, **sampler)
        )[0]
        for seed in range(4)
    ]
    assert [row["draws_total"] for row in rows] == draws
    assert [row["log_estimate"] for row in rows] == pytest.approx(logs, rel=1e-12)


# --- instance bounds --------------------------------------------------------


def test_sample_bound_values(k2):
    q = abs(log_ratio_exact(k2, 1.0))
    assert sample_bound_integer(q, 1, 0.1) == pytest.approx(21433.92357764558, rel=1e-9)
    # spec's comparison-table example at n=4, q=0.62
    val = sample_bound_integer(0.62, 4, 0.1)
    scale = 2 + math.log(8)
    by_hand = (0.62 + 1) * (
        5 + scale * (14.9 * math.log(100 * scale * 1.62) + 48.2 * 100)
    )
    assert val == pytest.approx(by_hand, rel=1e-12)
    assert sample_bound_shifted(1.0, 2, 1.0, 0.1) > 0


def test_grid_levels_and_enumerated_table_estimate_alike():
    from gibbs_partition import grid_edges, grid_model, ising_model

    # The transfer-matrix levels are the enumerated table's levels, so every
    # draw, and with it every stage of the pipeline, is the same.
    for seed in range(10):
        by_levels, by_table = (
            paired_product_estimate(
                exact_oracle(model), 0.5, 0.1, stage_stream(seed, "grid-alike", 0)
            )
            for model in (grid_model(4, 4), ising_model(grid_edges(4, 4), 16))
        )
        assert by_levels.log_ratio_estimate == by_table.log_ratio_estimate
        assert by_levels.draws_total == by_table.draws_total
        assert by_levels.schedule.betas == by_table.schedule.betas


def test_grid_8x8_past_the_guard_covers_within_the_draw_bound():
    from gibbs_partition import grid_model

    from conftest import row_transfer_log_partition

    # 2^64 states, so the truth comes from a row transfer matrix that shares
    # nothing with the model's level counts.  Tag frozen at first choice.
    grid = grid_model(8, 8)
    truth = row_transfer_log_partition(8, 8, 0.5) - 64 * math.log(2)
    runs = [
        paired_product_estimate(exact_oracle(grid), 0.5, 0.1, _rng("grid-8x8-past-guard", rep))
        for rep in range(20)
    ]
    hits = sum(abs(est.log_ratio_estimate - truth) <= math.log(1.1) for est in runs)
    assert hits >= 15
    mean_draws = float(np.mean([est.draws_total for est in runs]))
    assert mean_draws <= sample_bound_integer(abs(truth), grid.n_bound, 0.1)
