"""Schedule construction: the q estimate, parameter selection, gap laws."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gibbs_partition import (
    CoolingSchedule,
    REGIME_INTEGER_NONNEGATIVE,
    REGIME_INTEGER_NONPOSITIVE,
    REGIME_SHIFTED,
    ScheduleParams,
    constant_model,
    exact_oracle,
    initial_estimate,
    load_schedule,
    log_partition_exact,
    log_ratio_exact,
    regime_for_model,
    save_schedule,
    select_params,
    stage_stream,
    table_model,
    tpa_runs,
    well_balanced_schedule,
)

SEED = 3113


def _rng(tag, index=0):
    return stage_stream(SEED, tag, index)


# --- regimes ---------------------------------------------------------------


def test_regime_classification(k2, const1, mixed_table):
    assert regime_for_model(k2) == REGIME_INTEGER_NONPOSITIVE
    assert regime_for_model(const1) == REGIME_INTEGER_NONNEGATIVE
    assert regime_for_model(mixed_table) == REGIME_SHIFTED
    # sign-definite but non-integer energies also go through the shift
    assert regime_for_model(table_model([-0.5, -1.5])) == REGIME_SHIFTED


# --- initial estimate ------------------------------------------------------


def test_initial_estimate_flat_model():
    oracle = exact_oracle(table_model([0.0, 0.0]))
    q_hat, draws = initial_estimate(oracle, 2.0, _rng("flat"))
    assert q_hat == 0.0
    assert draws == 5  # one draw per run, no points


def test_initial_estimate_k2_mean(k2):
    q = abs(log_ratio_exact(k2, 1.0))
    oracle = exact_oracle(k2)
    rng = _rng("qhat")
    estimates = [initial_estimate(oracle, 1.0, rng)[0] for _ in range(4000)]
    assert np.mean(estimates) == pytest.approx(q, rel=0.05)


def test_initial_estimate_counts_draws(k2):
    oracle = exact_oracle(k2)
    before = oracle.counter.total
    _, draws = initial_estimate(oracle, 1.0, _rng("draws"))
    assert draws == oracle.counter.total - before


def test_poisson_tail_bound_feeding_the_99_percent_claim():
    # Lemma: P(X < mu/2) <= 2 (pi mu)^-1/2 (2/e)^(mu/2); at mu = 10 the
    # bound is ~0.0769 while the exact CDF sits near 0.0293.
    mu = 10.0
    bound = 2.0 * (math.pi * mu) ** -0.5 * (2.0 / math.e) ** (mu / 2.0)
    exact = stats.poisson.cdf(math.ceil(mu / 2) - 1, mu)
    assert bound == pytest.approx(0.0769365359003365, abs=1e-12)
    assert exact == pytest.approx(0.029252688076961124, abs=1e-12)
    assert exact <= bound


# --- parameter selection ---------------------------------------------------


def test_select_params_integer_example():
    params = select_params(1.0, 4, REGIME_INTEGER_NONPOSITIVE, beta=1.0)
    assert params.d == 142
    assert params.k == pytest.approx(386.1871326123578, abs=1e-9)
    assert params.eta == pytest.approx(2.0 / (2.0 + math.log(8.0)), abs=1e-12)


def test_select_params_shifted_example():
    params = select_params(1.0, 1, REGIME_SHIFTED, beta=1.0)
    assert params.d == 156
    assert params.k == pytest.approx(72.0873067782343, abs=1e-9)
    assert params.eta == pytest.approx(2.0 / math.log(2.0), abs=1e-12)


@pytest.mark.parametrize(
    "regime", [REGIME_INTEGER_NONPOSITIVE, REGIME_INTEGER_NONNEGATIVE, REGIME_SHIFTED]
)
def test_select_params_consistency_identity(regime):
    # k = (4/3) d / eta exactly, both regimes
    for q_hat in [0.0, 0.4, 2.0, 11.0]:
        params = select_params(q_hat, 3, regime, beta=1.5)
        assert params.k == pytest.approx((4.0 / 3.0) * params.d / params.eta, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    q1=st.floats(0.0, 50.0),
    q2=st.floats(0.0, 50.0),
    n1=st.integers(1, 200),
    n2=st.integers(1, 200),
)
def test_select_params_monotone(q1, q2, n1, n2):
    lo_q, hi_q = sorted([q1, q2])
    lo_n, hi_n = sorted([n1, n2])
    a = select_params(lo_q, lo_n, REGIME_INTEGER_NONPOSITIVE, beta=1.0)
    b = select_params(hi_q, lo_n, REGIME_INTEGER_NONPOSITIVE, beta=1.0)
    c = select_params(lo_q, hi_n, REGIME_INTEGER_NONPOSITIVE, beta=1.0)
    assert a.d <= b.d
    assert a.d <= c.d


def test_select_params_validation():
    with pytest.raises(ValueError):
        select_params(-0.1, 2, REGIME_INTEGER_NONPOSITIVE, beta=1.0)
    with pytest.raises(ValueError):
        select_params(1.0, 0, REGIME_INTEGER_NONPOSITIVE, beta=1.0)
    with pytest.raises(ValueError):
        select_params(1.0, 2, "freezing", beta=1.0)


# --- cooling schedules -----------------------------------------------------


def test_schedule_properties():
    sched = CoolingSchedule(betas=(0.0, 0.4, 1.0))
    assert sched.beta == 1.0
    assert sched.num_intervals == 2
    assert sched.midpoints == (0.2, 0.7)
    assert sched.half_lengths == (0.2, 0.3)


def test_schedule_validation():
    with pytest.raises(ValueError):
        CoolingSchedule(betas=(0.0,))
    with pytest.raises(ValueError):
        CoolingSchedule(betas=(0.1, 1.0))
    with pytest.raises(ValueError):
        CoolingSchedule(betas=(0.0, 0.5, 0.5))


def test_schedule_roundtrip(tmp_path):
    sched = CoolingSchedule(betas=(0.0, 0.25, 1.0))
    params = select_params(1.0, 2, REGIME_INTEGER_NONPOSITIVE, beta=1.0)
    path = tmp_path / "s.json"
    save_schedule(path, sched, params)
    assert json.loads(path.read_text()) == {"betas": [0.0, 0.25, 1.0], "params": asdict(params)}
    assert load_schedule(path) == (sched, params)
    save_schedule(path, sched, None)
    assert load_schedule(path) == (sched, None)
    # Files that still hold the "degenerate" flag, or no params, load as before.
    path.write_text('{"betas": [0, 1], "degenerate": true, "params": null}')
    assert load_schedule(path) == (CoolingSchedule(betas=(0.0, 1.0)), None)
    path.write_text('{"betas": [0, 0.25, 1]}')
    assert load_schedule(path) == (sched, None)


def test_degenerate_schedule_when_too_few_points():
    # flat model: TPA never emits points, so the schedule is {0, beta}
    oracle = exact_oracle(table_model([0.0, 0.0, 0.0, 0.0]))
    params = select_params(0.0, 1, REGIME_INTEGER_NONPOSITIVE, beta=2.0)
    sched, _ = well_balanced_schedule(oracle, 2.0, params, _rng("degenerate"))
    assert sched.betas == (0.0, 2.0)


def test_schedule_endpoints_and_draw_accounting(c4):
    oracle = exact_oracle(c4)
    rng = _rng("endpoints")
    q_hat, _ = initial_estimate(oracle, 1.0, rng)
    params = select_params(q_hat, c4.n_bound, regime_for_model(c4), 1.0)
    before = oracle.counter.total
    sched, draws = well_balanced_schedule(oracle, 1.0, params, rng)
    assert draws == oracle.counter.total - before
    assert sched.betas[0] == 0.0
    assert sched.betas[-1] == 1.0
    assert all(b2 > b1 for b1, b2 in zip(sched.betas, sched.betas[1:]))


def _zgaps(model, sched):
    zs = [log_partition_exact(model, b) for b in sched.betas]
    return np.diff(zs)


def test_balanced_schedules_hit_eta_on_c4(c4):
    ok = 0
    for rep in range(25):
        oracle = exact_oracle(c4)
        rng = _rng("balance", rep)
        q_hat, _ = initial_estimate(oracle, 1.0, rng)
        params = select_params(q_hat, c4.n_bound, regime_for_model(c4), 1.0)
        sched, _ = well_balanced_schedule(oracle, 1.0, params, rng)
        if np.max(_zgaps(c4, sched)) <= params.eta:
            ok += 1
    assert ok >= 22


def test_kept_gap_law_is_gamma_d_k(c4):
    # force small d so each schedule yields many kept gaps; pool the gaps
    # nearest the beta end (they exist w.h.p. and dodge the 0-block)
    d, k = 5, 20.0
    params = ScheduleParams(
        eta=(4.0 / 3.0) * d / k, d=d, k=k, q_hat1=6.0, regime=REGIME_INTEGER_NONPOSITIVE
    )
    pooled = []
    rng = _rng("gamma")
    for _ in range(400):
        oracle = exact_oracle(c4)
        sched, _ = well_balanced_schedule(oracle, 2.0, params, rng)
        if sched.num_intervals == 1:
            continue
        gaps = _zgaps(c4, sched)[1:]  # drop the partial block touching 0
        pooled.extend(gaps[-10:])
    res = stats.kstest(np.array(pooled), stats.gamma(a=d, scale=1.0 / k).cdf)
    assert len(pooled) > 3000
    assert res.pvalue > 0.001


def test_chernoff_sandwich_on_forced_small_d(c4):
    # with d = (3/4) eta k, the fraction of kept gaps inside [eta/2, eta]
    # dominates 1 - [e^{-1/3} 4/3]^d - [e^{1/3} 2/3]^d
    d = 25
    eta = 0.6
    k = (4.0 / 3.0) * d / eta
    params = ScheduleParams(
        eta=eta, d=d, k=k, q_hat1=6.0, regime=REGIME_INTEGER_NONPOSITIVE
    )
    gaps = []
    rng = _rng("chernoff")
    for _ in range(250):
        oracle = exact_oracle(c4)
        sched, _ = well_balanced_schedule(oracle, 2.0, params, rng)
        if sched.num_intervals == 1:
            continue
        gaps.extend(_zgaps(c4, sched)[1:-1])  # interior intervals only
    gaps = np.array(gaps)
    bound = (
        1.0
        - (math.exp(-1.0 / 3.0) * 4.0 / 3.0) ** d
        - (math.exp(1.0 / 3.0) * 2.0 / 3.0) ** d
    )
    fraction = np.mean((gaps >= eta / 2.0) & (gaps <= eta))
    slack = 3.0 * math.sqrt(0.25 / len(gaps))
    assert bound > 0.5  # d chosen so the prediction is informative
    assert fraction >= bound - slack


def test_upward_schedule_on_constant_model():
    # H == 2: z is linear, so z-gaps are 2x the b-gaps; audit the eta target
    model = constant_model(2.0)
    oracle = exact_oracle(model)
    rng = _rng("upward")
    q_hat, _ = initial_estimate(oracle, 1.0, rng)
    params = select_params(q_hat, model.n_bound, regime_for_model(model), 1.0)
    sched, _ = well_balanced_schedule(oracle, 1.0, params, rng)
    assert sched.betas[0] == 0.0 and sched.betas[-1] == 1.0
    gaps = np.abs(_zgaps(model, sched))
    assert np.max(gaps) <= params.eta


@pytest.mark.parametrize("k", [7.5, 8.0], ids=["fractional-k", "integer-k"])
@pytest.mark.parametrize("label", ["c4", "const2"])
def test_kept_points_count_from_the_walk_start(label, k, request):
    # Replays step 2 on a twin generator: ceil(k) lockstep runs (their
    # points are the traced b values inside (0, beta)), the thinning mask
    # when k < ceil(k), then every d-th point counted from the end where
    # the walk starts, beta for H <= 0 (c4) and 0 for H >= 0 (const-2).
    model = request.getfixturevalue("c4") if label == "c4" else constant_model(2.0)
    beta, d = 1.5, 3
    params = ScheduleParams(
        eta=(4.0 / 3.0) * d / k, d=d, k=k, q_hat1=3.0, regime=regime_for_model(model)
    )
    rng, twin = _rng(f"kept-{label}-{k}"), _rng(f"kept-{label}-{k}")
    sched, _ = well_balanced_schedule(exact_oracle(model), beta, params, rng)

    trace = []
    tpa_runs(exact_oracle(model), beta, math.ceil(k), twin, trace=trace)
    pts = sorted(r["b"] for r in trace if 0.0 < r["b"] < beta)
    if k < math.ceil(k):
        mask = twin.random(len(pts)) < k / math.ceil(k)
        pts = [p for p, keep in zip(pts, mask) if keep]
    m = len(pts)
    if model.sign_class == "nonpositive":
        kept = [pts[m - j * d] for j in range(1, m // d + 1)]
    else:
        kept = [pts[j * d - 1] for j in range(1, m // d + 1)]
    assert len(kept) >= 3
    assert list(sched.betas[1:-1]) == sorted(kept)
    assert rng.random() == twin.random()
