"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Statistical criteria run with frozen seeds so the suite is deterministic;
every expected value is recomputed here from closed forms, brute-force
enumeration, or scipy reference distributions, never from the code under
test.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from gibbs_partition import (
    CoolingSchedule,
    constant_model,
    coupling_failure_bound,
    exact_oracle,
    initial_estimate,
    ising_model,
    log_partition_exact,
    log_ratio_exact,
    mcmc_oracle,
    mcmc_tv_error,
    paired_product_estimate,
    regime_for_model,
    sample_bound_integer,
    sample_bound_shifted,
    select_params,
    shift_hamiltonian,
    stage_stream,
    table_model,
    tpa_run,
    well_balanced_schedule,
)

from conftest import brute_z, paired_replicate, tiny_models

SEED = 1  # frozen; all statistical criteria are deterministic given this

K2 = ising_model([(0, 1)], num_vertices=2)
MIXED = table_model([-1.0] + [2.0] * 49)  # |H| <= 2, mixed sign


def _report(num: int, ok: bool, detail: str):
    print(f"\ncriterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _paired_runs(model, beta, epsilon, reps, stage, oracle_factory=None):
    """Independent full pipeline runs with per-rep streams and counters."""
    factory = oracle_factory or (lambda: exact_oracle(model))
    results = []
    for rep in range(reps):
        oracle = factory()
        rng = stage_stream(SEED, stage, rep)
        results.append(paired_product_estimate(oracle, beta, epsilon, rng))
    return results


@pytest.fixture(scope="module")
def criterion7_runs():
    return _paired_runs(K2, 1.0, 0.1, 100, "c7")


def test_criterion_01_exactness_backbone():
    start = time.perf_counter()
    closed_forms = {
        "k2": lambda b: 2 * math.exp(b) + 2,
        "path-3": lambda b: 2 * math.exp(2 * b) + 4 * math.exp(b) + 2,
        "cycle-4": lambda b: 2 * math.exp(4 * b) + 12 * math.exp(2 * b) + 2,
        "grid-2x2": lambda b: 2 * math.exp(4 * b) + 12 * math.exp(2 * b) + 2,
    }
    menagerie = dict(tiny_models())
    worst = 0.0
    for label, closed in closed_forms.items():
        model = menagerie[label]
        for beta in (0.0, 0.5, 1.0, 2.0):
            got = log_partition_exact(model, beta)
            worst = max(worst, abs(got - math.log(closed(beta))))
            worst = max(worst, abs(got - brute_z(model, beta)))
            for c in (-2.0, 0.7):
                shifted = log_partition_exact(shift_hamiltonian(model, c), beta)
                worst = max(worst, abs(shifted - (got - beta * c)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"max |error| {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_tpa_law():
    start = time.perf_counter()
    q = math.log(2 * math.e + 2) - math.log(4.0)  # ln((2e+2)/4)
    rng = stage_stream(SEED + 2, "c2")
    oracle = exact_oracle(K2)
    runs = [tpa_run(oracle, 1.0, rng) for _ in range(10_000)]
    lengths = np.array([len(r) for r in runs])
    mean_ok = abs(lengths.mean() - q) <= 0.05 * q
    var_ok = abs(lengths.var(ddof=1) - q) <= 0.05 * q
    # superpose the rate-1 runs and test the z-gaps of the merged process:
    # scaled by the total rate they are Exp(1) up to O(e^{-rate*q}) edge mass
    merged = np.sort(np.concatenate(runs))
    zs = np.array([log_partition_exact(K2, b) for b in merged])
    ztop = log_partition_exact(K2, 1.0)
    gaps = np.diff(np.concatenate([zs, [ztop]])) * len(runs)
    pvalue = stats.kstest(gaps, "expon").pvalue
    elapsed = time.perf_counter() - start
    _report(
        2,
        mean_ok and var_ok and pvalue > 0.001 and elapsed < 60,
        f"mean {lengths.mean():.4f} / var {lengths.var(ddof=1):.4f} vs q {q:.4f} "
        f"(5% tol), KS p {pvalue:.4f} over {len(gaps)} gaps, {elapsed:.1f}s",
    )


def test_criterion_03_paired_factor_identities():
    start = time.perf_counter()
    # enumeration truths on the single-interval schedule {0, 1}
    z = lambda b: 2 * math.exp(b) + 2
    ew = z(0.5) / z(0.0)
    ev = z(0.5) / z(1.0)
    relvar = z(1.0) * z(0.0) / z(0.5) ** 2 - 1.0
    sched = CoolingSchedule(betas=(0.0, 1.0))
    oracle = exact_oracle(K2)
    rng = stage_stream(SEED + 2, "c3")
    n = 100_000
    ws = np.empty(n)
    vs = np.empty(n)
    for j in range(n):
        ws[j], vs[j] = paired_replicate(sched, oracle, rng)
    w_dev = abs(ws.mean() - ew) / (ws.std(ddof=1) / math.sqrt(n))
    v_dev = abs(vs.mean() - ev) / (vs.std(ddof=1) / math.sqrt(n))
    rv_emp = ws.var(ddof=1) / ws.mean() ** 2
    rv_ok = abs(rv_emp - relvar) <= 0.10 * relvar
    elapsed = time.perf_counter() - start
    _report(
        3,
        w_dev <= 3 and v_dev <= 3 and rv_ok and elapsed < 60,
        f"E[W] {ws.mean():.6f} vs {ew:.6f} ({w_dev:.2f} SE), "
        f"E[V] {vs.mean():.6f} vs {ev:.6f} ({v_dev:.2f} SE), "
        f"relvar {rv_emp:.5f} vs {relvar:.5f}, {elapsed:.1f}s",
    )


def test_criterion_04_product_relvar_law():
    rng = stage_stream(SEED, "c4-schedules")
    worst = 0.0
    for label, model in tiny_models():
        for _ in range(5):
            cuts = np.sort(rng.uniform(0.05, 0.95, size=2))
            sched = CoolingSchedule(betas=(0.0, float(cuts[0]), float(cuts[1]), 1.0))
            composed = -1.0
            prod = 1.0
            sum_dz = 0.0
            for lo, hi, mid in zip(sched.betas, sched.betas[1:], sched.midpoints):
                zlo, zhi, zmid = (brute_z(model, b) for b in (lo, hi, mid))
                prod *= 1.0 + (math.exp(zhi + zlo - 2 * zmid) - 1.0)
                sum_dz += 0.5 * (zhi + zlo) - zmid
            composed += prod
            worst = max(worst, abs(composed - (math.exp(2 * sum_dz) - 1.0)))
    _report(4, worst <= 1e-10, f"max |composition gap| {worst:.2e} (tol 1e-10)")


def test_criterion_05_poisson_tail_domination():
    start = time.perf_counter()
    ok = True
    worst_margin = math.inf
    for mu in range(1, 51):
        exact = stats.poisson.cdf(math.ceil(mu / 2) - 1, mu)
        bound = 2.0 * (math.pi * mu) ** -0.5 * (2.0 / math.e) ** (mu / 2.0)
        worst_margin = min(worst_margin, bound - exact)
        ok = ok and exact <= bound
    elapsed = time.perf_counter() - start
    _report(
        5,
        ok and elapsed < 1.0,
        f"P(X < mu/2) <= 2(pi mu)^-1/2 (2/e)^(mu/2) for mu in 1..50, "
        f"min slack {worst_margin:.2e}, {elapsed:.2f}s",
    )


def test_criterion_06_schedule_balance():
    start = time.perf_counter()
    c4 = ising_model([(0, 1), (1, 2), (2, 3), (3, 0)], num_vertices=4)
    balanced = 0
    eta = None
    for rep in range(100):
        oracle = exact_oracle(c4)
        rng = stage_stream(SEED + 4, "c6", rep)
        q_hat, _ = initial_estimate(oracle, 1.0, rng)
        params = select_params(q_hat, c4.n_bound, regime_for_model(c4), 1.0)
        sched, _ = well_balanced_schedule(oracle, 1.0, params, rng)
        zs = [log_partition_exact(c4, b) for b in sched.betas]
        if max(np.diff(zs)) <= params.eta:
            balanced += 1
        eta = params.eta
    elapsed = time.perf_counter() - start
    _report(
        6,
        balanced >= 90 and elapsed < 600,
        f"{balanced}/100 schedules with max z-gap <= eta ({eta:.4f}), {elapsed:.1f}s",
    )


def test_criterion_07_epsilon_three_quarters(criterion7_runs):
    start = time.perf_counter()
    truth = log_ratio_exact(K2, 1.0)
    assert math.exp(truth) == pytest.approx(1.8591409142295225, abs=1e-12)
    band = math.log(1.1)
    hits = sum(1 for est in criterion7_runs if abs(est.log_ratio_estimate - truth) <= band)

    # const-H: the pipeline must be exact, run per rep as well
    const = constant_model(1.0)
    const_truth = log_ratio_exact(const, 1.0)
    const_runs = _paired_runs(const, 1.0, 0.1, 100, "c7-const")
    const_hits = sum(
        1 for est in const_runs if abs(est.log_ratio_estimate - const_truth) <= band
    )
    const_exact = all(
        abs(est.log_ratio_estimate - const_truth) < 1e-12 for est in const_runs
    )
    elapsed = time.perf_counter() - start
    _report(
        7,
        hits >= 65 and const_hits >= 65 and const_exact and elapsed < 1800,
        f"K2 within 1.1x: {hits}/100 (need >= 65); const-H within 1.1x: "
        f"{const_hits}/100 and exact to 1e-12, {elapsed:.0f}s",
    )


def test_criterion_08_sample_count_bound(criterion7_runs):
    q = abs(log_ratio_exact(K2, 1.0))
    bound = sample_bound_integer(q, K2.n_bound, 0.1)
    mean_draws = float(np.mean([est.draws_total for est in criterion7_runs]))
    _report(
        8,
        mean_draws <= bound,
        f"mean draws {mean_draws:.1f} <= bound {bound:.1f} "
        f"(q {q:.4f}, n {K2.n_bound}, eps 0.1)",
    )


def test_criterion_09_shifted_regime():
    start = time.perf_counter()
    assert MIXED.sign_class == "mixed" and MIXED.n_bound == 2
    truth = log_ratio_exact(MIXED, 1.0)
    q = abs(truth)
    runs = _paired_runs(MIXED, 1.0, 0.1, 100, "c9")
    band = math.log(1.1)
    hits = sum(1 for est in runs if abs(est.log_ratio_estimate - truth) <= band)
    mean_draws = float(np.mean([est.draws_total for est in runs]))
    bound = sample_bound_shifted(q, MIXED.n_bound, 1.0, 0.1)
    elapsed = time.perf_counter() - start
    _report(
        9,
        hits >= 65 and mean_draws <= bound,
        f"coverage {hits}/100 (need >= 65), mean draws {mean_draws:.1f} <= "
        f"bound {bound:.1f}, {elapsed:.0f}s",
    )


def test_criterion_10_approximate_samples(criterion7_runs):
    start = time.perf_counter()
    target_tv = 1e-3
    # tune sweep count so the per-draw TV error stays under the budget for
    # every b the pipeline can visit, measured by exact kernel enumeration
    grid = np.linspace(0.0, 1.0, 101)
    steps = 1
    while True:
        worst_tv = max(mcmc_tv_error(K2, b, steps) for b in grid)
        if worst_tv <= target_tv:
            break
        steps += 1
        assert steps < 500, "sweep tuning failed to reach the TV budget"

    truth = log_ratio_exact(K2, 1.0)
    band = math.log(1.1)
    runs = _paired_runs(
        K2,
        1.0,
        0.1,
        100,
        "c10",
        oracle_factory=lambda: mcmc_oracle(K2, steps, target_tv),
    )
    hits = sum(1 for est in runs if abs(est.log_ratio_estimate - truth) <= band)
    exact_hits = sum(
        1 for est in criterion7_runs if abs(est.log_ratio_estimate - truth) <= band
    )
    mean_draws = float(np.mean([est.draws_total for est in runs]))
    allowance = coupling_failure_bound(target_tv, int(round(mean_draws)))
    floor = max(0.0, 65.0 - 100.0 * allowance)
    elapsed = time.perf_counter() - start
    _report(
        10,
        worst_tv <= target_tv and hits >= floor,
        f"tuned {steps} sweeps (max TV {worst_tv:.2e} <= {target_tv}), coverage "
        f"{hits}/100 vs exact {exact_hits}/100, coupling allowance "
        f"{allowance:.3f} at {mean_draws:.0f} draws (floor {floor:.0f}), {elapsed:.0f}s",
    )
