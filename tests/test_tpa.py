"""TPA runs, superposition, and thinning against their point-process laws."""

import math

import numpy as np
import pytest
from scipy import stats

from gibbs_partition import (
    constant_model,
    exact_oracle,
    log_partition_exact,
    log_ratio_exact,
    mcmc_oracle,
    stage_stream,
    table_model,
    thin,
    tpa_run,
    tpa_runs,
)

from conftest import draw_state, state_energies

SEED = 2717


def _rng(tag, index=0):
    return stage_stream(SEED, tag, index)


def _scalar_walk(oracle, beta, rng):
    """Reference: one run walked a draw at a time, (H, U, b_next) per step."""
    down = oracle.model.sign_class == "nonpositive"
    b = beta if down else 0.0
    h = state_energies(oracle.model)
    steps = []
    while True:
        hx = float(h[draw_state(oracle, b, rng)])
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        if hx == 0.0:
            b_next = -math.inf if down else math.inf
        else:
            b_next = b - math.log(u) / hx
        steps.append((hx, u, b_next))
        if not 0.0 < b_next < beta:
            return steps
        b = b_next


def test_flat_hamiltonian_one_draw_empty_run():
    model = table_model([0.0, 0.0, 0.0])
    oracle = exact_oracle(model)
    run = tpa_run(oracle, 5.0, _rng("flat"))
    assert run.size == 0
    assert oracle.counter.total == 1


def test_tiny_beta_gives_empty_run(k2):
    oracle = exact_oracle(k2)
    run = tpa_run(oracle, 1e-12, _rng("tiny"))
    assert run.size == 0


def test_draws_equal_points_plus_one(k2):
    oracle = exact_oracle(k2)
    rng = _rng("count")
    for _ in range(200):
        before = oracle.counter.total
        run = tpa_run(oracle, 1.0, rng)
        assert oracle.counter.total - before == len(run) + 1


def test_points_live_inside_the_interval(c4):
    oracle = exact_oracle(c4)
    rng = _rng("range")
    for _ in range(100):
        run = tpa_run(oracle, 1.5, rng)
        assert run.dtype == np.float64
        assert np.all((0.0 < run) & (run < 1.5))
        assert np.all(np.diff(run) > 0)


def test_direction_dispatch(k2, const1, mixed_table):
    # A downward walk (H <= 0) starts at beta and its b values fall step by
    # step; an upward one (H >= 0) starts at 0 and they rise.
    rng = _rng("dispatch")
    for model, sign in ((k2, -1.0), (const1, 1.0)):
        trace = []
        points = tpa_runs(exact_oracle(model), 3.0, 20, rng, trace=trace)
        assert points.size > 20
        for run_id in range(20):
            bs = [r["b"] for r in trace if r["run_id"] == run_id]
            assert np.all(sign * np.diff(bs) > 0)
    with pytest.raises(ValueError):
        tpa_run(exact_oracle(mixed_table), 1.0, rng)


def test_k2_run_length_is_poisson_q(k2):
    q = abs(log_ratio_exact(k2, 1.0))
    oracle = exact_oracle(k2)
    rng = _rng("length")
    lengths = np.array([len(tpa_run(oracle, 1.0, rng)) for _ in range(6000)])
    assert lengths.mean() == pytest.approx(q, rel=0.05)
    assert lengths.var(ddof=1) == pytest.approx(q, rel=0.08)


def test_constant_hamiltonian_run_length_is_poisson_beta():
    # H == 1 makes z(b) = ln|Omega| - b: increments are literally Exp(1)
    model = constant_model(1.0)
    oracle = exact_oracle(model)
    rng = _rng("const")
    beta = 2.0
    lengths = np.array([len(tpa_run(oracle, beta, rng)) for _ in range(6000)])
    assert lengths.mean() == pytest.approx(beta, rel=0.05)
    assert lengths.var(ddof=1) == pytest.approx(beta, rel=0.08)


def test_upward_spacings_are_exponential():
    # constant H: b-gaps equal z-gaps, so pooled gaps of the merged process
    # are Exp(rate) away from boundary effects
    model = constant_model(1.0)
    oracle = exact_oracle(model)
    rng = _rng("spacing")
    runs = [tpa_run(oracle, 3.0, rng) for _ in range(3000)]
    pts = np.sort(np.concatenate(runs))
    gaps = np.diff(np.concatenate([[0.0], pts])) * len(runs)
    assert stats.kstest(gaps, "expon").pvalue > 0.001


def test_merge_superposes_counts(k2):
    q = abs(log_ratio_exact(k2, 1.0))
    oracle = exact_oracle(k2)
    rng = _rng("merge5")
    totals = []
    for _ in range(2000):
        merged = np.sort(np.concatenate([tpa_run(oracle, 1.0, rng) for _ in range(5)]))
        totals.append(len(merged))
    totals = np.array(totals)
    assert totals.mean() == pytest.approx(5 * q, rel=0.05)


def test_thin_identity_at_full_rate():
    pts = np.array([0.1, 0.5, 0.9])
    rng, twin = _rng("thin-id"), _rng("thin-id")
    assert thin(pts, 1.0, rng) is pts
    assert rng.random() == twin.random()  # no uniforms drawn


def test_thin_keeps_binomial_fraction():
    rng = _rng("thin-frac")
    pts = np.sort(rng.random(10_000) * 0.999 + 5e-4)
    kept = thin(pts, 0.5, rng)
    assert set(kept) <= set(pts)
    assert np.all(np.diff(kept) > 0)
    # Binomial(10^4, 1/2): 4 sigma around 5000
    assert abs(len(kept) - 5000) <= 4 * math.sqrt(10_000 * 0.25)


def test_thin_rejects_bad_rates():
    pts = np.array([0.5])
    for keep in (1.5, 0.0, math.nan):
        with pytest.raises(ValueError):
            thin(pts, keep, _rng("thin-err"))


def test_thinned_counts_stay_poisson(k2):
    # |points| after thinning ~ Poisson(target_rate * q)
    q = abs(log_ratio_exact(k2, 1.0))
    oracle = exact_oracle(k2)
    rng = _rng("thin-poisson")
    target = 2.5
    counts = []
    for _ in range(1000):
        merged = np.sort(np.concatenate([tpa_run(oracle, 1.0, rng) for _ in range(5)]))
        counts.append(len(thin(merged, target / 5, rng)))
    counts = np.array(counts)
    mean = target * q
    # chi-square GOF against the Poisson pmf, tail-binned
    kmax = int(stats.poisson.ppf(0.999, mean)) + 1
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    probs = stats.poisson.pmf(np.arange(kmax + 1), mean)
    observed[kmax] = np.sum(observed[kmax:])
    observed = observed[: kmax + 1]
    probs[kmax] = 1.0 - probs[:kmax].sum()
    res = stats.chisquare(observed, probs * len(counts))
    assert res.pvalue > 0.001


def test_trace_records_every_step(k2):
    oracle = exact_oracle(k2)
    trace = []
    run = tpa_run(oracle, 1.0, _rng("trace"), trace=trace)
    assert len(trace) == len(run) + 1
    for record in trace:
        assert record["run_id"] == 0
        assert set(record) == {"run_id", "b", "H", "U"}
        assert 0.0 < record["U"] < 1.0


def test_z_mapped_gaps_of_merged_k2_process(k2):
    # z-images form a rate-k PPP on [z(0), z(beta)]: scaled gaps ~ Exp(1)
    oracle = exact_oracle(k2)
    rng = _rng("zgaps")
    merged = np.sort(np.concatenate([tpa_run(oracle, 1.0, rng) for _ in range(3000)]))
    zs = np.array([log_partition_exact(k2, b) for b in merged])
    ztop = log_partition_exact(k2, 1.0)
    gaps = np.diff(np.concatenate([zs, [ztop]])) * 3000
    assert stats.kstest(gaps, "expon").pvalue > 0.001


@pytest.mark.parametrize(
    "label,sampler",
    [("k2", "exact"), ("const1", "exact"), ("c4", "exact"), ("k2", "mcmc")],
)
def test_one_lockstep_run_is_the_scalar_walk(label, sampler, request):
    # Same draws, same uniforms, same generator state after every run.  The
    # walk takes ln U with numpy, whose log may differ from math.log in the
    # last bit, so b values are compared to a few ulps of beta.
    model = request.getfixturevalue(label)
    if sampler == "exact":
        lockstep, scalar = exact_oracle(model), exact_oracle(model)
    else:
        lockstep = mcmc_oracle(model, mcmc_steps=3, tv_budget_per_draw=0.1)
        scalar = mcmc_oracle(model, mcmc_steps=3, tv_budget_per_draw=0.1)
    beta = 1.5
    g1, g2 = _rng(f"scalar-{label}-{sampler}"), _rng(f"scalar-{label}-{sampler}")
    for _ in range(200):
        trace = []
        run = tpa_run(lockstep, beta, g1, trace=trace)
        steps = _scalar_walk(scalar, beta, g2)
        assert [(r["H"], r["U"]) for r in trace] == [(h, u) for h, u, _ in steps]
        got = [r["b"] for r in trace]
        want = [b for _, _, b in steps]
        np.testing.assert_allclose(got, want, rtol=0, atol=8 * np.finfo(float).eps * beta)
        assert len(run) == len(steps) - 1
        assert g1.random() == g2.random()
    assert lockstep.counter.total == scalar.counter.total


def test_lockstep_runs_superpose_to_rate_runs(k2):
    oracle = exact_oracle(k2)
    process = tpa_runs(oracle, 1.0, 3000, _rng("lockstep-zgaps"))
    assert oracle.counter.total == len(process) + 3000
    zs = np.array([log_partition_exact(k2, b) for b in process])
    ztop = log_partition_exact(k2, 1.0)
    gaps = np.diff(np.concatenate([zs, [ztop]])) * 3000
    assert stats.kstest(gaps, "expon").pvalue > 0.001


@pytest.mark.parametrize("label", ["k2", "const1"])
def test_lockstep_trace_is_grouped_by_run(label, request):
    # Each run's records are contiguous and in step order: every record but
    # the last lands inside (0, beta) as a point, the last one leaves.
    oracle = exact_oracle(request.getfixturevalue(label))
    beta, runs = 1.0, 40
    trace = []
    process = tpa_runs(oracle, beta, runs, _rng(f"trace-{label}"), trace=trace)
    ids = [r["run_id"] for r in trace]
    assert ids == sorted(ids)
    assert sorted(set(ids)) == list(range(runs))
    points = 0
    for run_id in range(runs):
        bs = [r["b"] for r in trace if r["run_id"] == run_id]
        assert all(0.0 < b < beta for b in bs[:-1])
        assert not 0.0 < bs[-1] < beta
        points += len(bs) - 1
    assert points == len(process)
    assert len(trace) == oracle.counter.total == len(process) + runs


def test_tpa_runs_rejects_bad_inputs(k2, mixed_table):
    with pytest.raises(ValueError):
        tpa_runs(exact_oracle(mixed_table), 1.0, 5, _rng("bad"))
    for beta in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="beta"):
            tpa_runs(exact_oracle(k2), beta, 5, _rng("bad"))
    with pytest.raises(ValueError):
        tpa_runs(exact_oracle(k2), 1.0, 0, _rng("bad"))
