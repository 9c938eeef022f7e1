"""Samplers: distributional correctness, draw accounting, coupling arithmetic."""

import itertools
import math
import types
from dataclasses import replace
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from gibbs_partition import (
    ENUMERATION_GUARD,
    ExactOracle,
    GibbsModel,
    RestartOracle,
    coupling_failure_bound,
    cycle_edges,
    exact_oracle,
    gibbs_distribution,
    grid_edges,
    grid_model,
    ising_model,
    log_partition_exact,
    log_ratio_exact,
    mcmc_draw_distribution,
    mcmc_oracle,
    mcmc_tv_curve,
    path_edges,
    shift_hamiltonian,
    table_model,
)
from gibbs_partition import samplers
from gibbs_partition.samplers import _bytes, _site_flips, _split_thresholds

from conftest import (
    draw_exact,
    draw_mcmc,
    draw_mcmc_chains,
    draw_state,
    level_cdf,
    matrix_draw_distribution,
    mean_neg_energy,
    metropolis_sweep_matrix,
    pack_states,
    split_threshold,
    state_energies,
    tiny_models,
)

SEED = 1811


def _rng(tag, index=0):
    from gibbs_partition import stage_stream

    return stage_stream(SEED, tag, index)


def _pi(model, b):
    """pi_b over the states of ``model``, from ``state_energies``."""
    logw = -b * state_energies(model)
    w = np.exp(logw - logw.max())
    return w / w.sum()


def _draw_counts(oracle, b, rng, n):
    counts = np.zeros(int(oracle.model.counts.sum()))
    for _ in range(n):
        counts[draw_state(oracle, b, rng)] += 1
    return counts


# --- exact enumeration sampler -------------------------------------------


def test_k2_aligned_probability(k2):
    oracle = exact_oracle(k2)
    rng = _rng("aligned")
    n = 100_000
    counts = _draw_counts(oracle, 1.0, rng, n)
    aligned = (counts[0] + counts[3]) / n  # states 0b00 and 0b11
    expected = math.e / (math.e + 1.0)  # 2e / (2e + 2) = 0.731059
    assert expected == pytest.approx(0.7310585786300049, abs=1e-12)
    assert aligned == pytest.approx(expected, abs=3 * math.sqrt(0.25 / n) + 0.002)


@pytest.mark.parametrize("label,model", tiny_models())
@pytest.mark.parametrize("b", [0.0, 0.3, 1.0, 2.0])
def test_exact_sampler_chi_square(label, model, b):
    oracle = exact_oracle(model)
    rng = _rng(f"chi-{label}", int(b * 10))
    n = 100_000
    counts = _draw_counts(oracle, b, rng, n)
    expected = _pi(model, b) * n
    res = stats.chisquare(counts, expected)
    assert res.pvalue > 0.001


def test_uniform_at_b_zero(mixed_table):
    oracle = exact_oracle(mixed_table)
    rng = _rng("uniform")
    counts = _draw_counts(oracle, 0.0, rng, 50_000)
    res = stats.chisquare(counts)
    assert res.pvalue > 0.001


def test_flat_hamiltonian_uniform_at_any_b():
    from gibbs_partition import table_model

    oracle = exact_oracle(table_model([0.0] * 6))
    counts = _draw_counts(oracle, 1.7, _rng("flat-b"), 60_000)
    assert stats.chisquare(counts).pvalue > 0.001


@pytest.mark.parametrize("label,model", tiny_models())
@pytest.mark.parametrize("b", [0.0, 0.3, 1.0, 2.0])
def test_draw_energy_matches_draw(label, model, b):
    # One energy at a time, ``draw`` and one reference state at a time
    # consume a generator alike.
    makers = [exact_oracle]
    if model.graph is not None:
        makers.append(lambda m: mcmc_oracle(m, mcmc_steps=3, tv_budget_per_draw=0.1))
    h = state_energies(model)
    for make in makers:
        by_energy, by_draw, by_state = make(model), make(model), make(model)
        g1 = _rng(f"energy-{label}", int(b * 10))
        g2 = _rng(f"energy-{label}", int(b * 10))
        g3 = _rng(f"energy-{label}", int(b * 10))
        energies = [next(by_energy.energy_rows([b], 1, g1)).item() for _ in range(1000)]
        drawn = [by_draw.draw(b, g2) for _ in range(1000)]
        states = [draw_state(by_state, b, g3) for _ in range(1000)]
        assert energies == drawn == [float(h[x]) for x in states]
        assert by_energy.counter.total == by_draw.counter.total == by_state.counter.total == 1000


@pytest.mark.parametrize("kind", ["exact", "mcmc"])
@pytest.mark.parametrize("b", [0.0, 0.7])
def test_draw_is_a_one_entry_draw_energies_at(kind, b, c4):
    # Draw for draw, count for count and word for word of the generator.
    def oracle():
        return exact_oracle(c4) if kind == "exact" else mcmc_oracle(c4, 3, 0.1)

    by_draw, by_entry = oracle(), oracle()
    g1, g2 = _rng(f"one-entry-{kind}"), _rng(f"one-entry-{kind}")
    drawn = [by_draw.draw(b, g1) for _ in range(200)]
    assert all(type(h) is float for h in drawn)
    assert drawn == [by_entry.draw_energies_at(np.array([b]), g2)[0] for _ in range(200)]
    assert by_draw.counter.total == by_entry.counter.total == 200
    assert g1.bit_generator.state == g2.bit_generator.state


@pytest.mark.parametrize("label,model", tiny_models())
@pytest.mark.parametrize("b", [0.0, 0.3, 1.0, 2.0])
def test_draw_energies_matches_draw_energy(label, model, b):
    # n draws at once consume the generator exactly as n state-index draws.
    batched, single = exact_oracle(model), exact_oracle(model)
    g1 = _rng(f"energies-{label}", int(b * 10))
    g2 = _rng(f"energies-{label}", int(b * 10))
    n = 1000
    energies = next(batched.energy_rows([b], n, g1))
    assert energies.tolist() == state_energies(model)[[draw_exact(single, b, g2) for _ in range(n)]].tolist()
    assert batched.counter.total == n
    assert g1.random() == g2.random()


@pytest.mark.parametrize("label,model", tiny_models())
def test_draw_energies_at_matches_draw_energy(label, model):
    # One draw at each of many fresh b values, as TPA's lockstep walk makes.
    per_b, single = exact_oracle(model), exact_oracle(model)
    bs = _rng(f"fresh-b-{label}").random(500) * 2.0
    g1, g2 = _rng(f"energies-at-{label}"), _rng(f"energies-at-{label}")
    energies = per_b.draw_energies_at(bs, g1)
    assert energies.tolist() == state_energies(model)[[draw_exact(single, b, g2) for b in bs.tolist()]].tolist()
    assert per_b.counter.total == single.counter.total == 500
    assert g1.random() == g2.random()


def test_draw_energies_at_in_blocks_matches_draw_energy():
    from gibbs_partition import table_model

    # 5,000 distinct levels: the per-b CDF columns are built in blocks.
    model = table_model(np.arange(5000.0) / 100.0)
    per_b, single = exact_oracle(model), exact_oracle(model)
    bs = _rng("blocks-b").random(60) * 2.0
    g1, g2 = _rng("blocks"), _rng("blocks")
    energies = per_b.draw_energies_at(bs, g1)
    assert energies.tolist() == state_energies(model)[[draw_exact(single, b, g2) for b in bs.tolist()]].tolist()
    assert per_b.counter.total == single.counter.total == 60


def _fresh_b_cases():
    wide = samplers._ROW_SUM_COLUMNS
    assert 736 >= wide
    fresh = _rng("summing-b").random(736)
    return [
        pytest.param(fresh, id="wide-736"),
        pytest.param(fresh[: wide - 1], id="narrow"),
        pytest.param(np.full(736, 0.5), id="one-b-736"),
    ]


@pytest.mark.parametrize("bs", _fresh_b_cases())
def test_draw_energies_at_every_summing_branch_matches_draw_exact(bs):
    # grid-4x4 has 23 levels.  A block of 736 fresh b is summed row by row,
    # one just under the shape rule by np.add.accumulate, and 736 equal b
    # build one column; each is draw_exact draw for draw.
    model = grid_model(4, 4)
    per_b, single = exact_oracle(model), exact_oracle(model)
    g1, g2 = _rng("summing-branches"), _rng("summing-branches")
    energies = per_b.draw_energies_at(bs, g1)
    assert energies.tolist() == state_energies(model)[[draw_exact(single, b, g2) for b in bs.tolist()]].tolist()
    assert per_b.counter.total == single.counter.total == len(bs)
    assert g1.bit_generator.state == g2.bit_generator.state


@pytest.mark.parametrize("extra", [0, 1], ids=["one-block", "two-blocks"])
def test_draw_energies_at_across_a_block_boundary_matches_draw_exact(extra):
    # A block holds _MATRIX_CAP // 23 grid-4x4 columns: one more b starts a
    # second block of one column.
    model = grid_model(4, 4)
    width = samplers._MATRIX_CAP // len(model.energies)
    per_b, single = exact_oracle(model), exact_oracle(model)
    bs = _rng("block-boundary-b").random(width + extra) * 2.0
    g1, g2 = _rng("block-boundary"), _rng("block-boundary")
    energies = per_b.draw_energies_at(bs, g1)
    assert energies.tolist() == state_energies(model)[[draw_exact(single, b, g2) for b in bs.tolist()]].tolist()
    assert per_b.counter.total == single.counter.total == len(bs)
    assert g1.bit_generator.state == g2.bit_generator.state


@pytest.mark.parametrize("offset", [-1, 0], ids=["accumulate", "row-by-row"])
def test_level_cdf_columns_are_the_cumsum_bytes(offset):
    # On either side of the shape rule the sums are np.cumsum(axis=0)'s,
    # and each column has the bits of the same column built alone.
    model = grid_model(4, 4)
    bs = _rng("cumsum-b").random(samplers._ROW_SUM_COLUMNS + offset) * 2.0
    levels = len(model.energies)
    cw = samplers._fill_level_cdfs(model, bs, np.empty((levels, len(bs))))
    logw = np.multiply.outer(model.energies, -bs)
    terms = model.counts[:, None] * np.exp(logw - np.maximum(logw[0], logw[-1]))
    assert cw.tobytes() == np.cumsum(terms, axis=0).tobytes()
    for j in (0, len(bs) // 2, len(bs) - 1):
        alone = samplers._fill_level_cdfs(model, bs[j : j + 1], np.empty((levels, 1)))
        assert alone[:, 0].tobytes() == cw[:, j].tobytes()


# --- draw blocks: one row per b -------------------------------------------

BLOCK_BS = [0.0, 0.3, 1.0, 5.0, 50.0]


def _block_cases():
    from gibbs_partition import grid_model, table_model

    # The grids have more levels than the guide table has buckets at small n.
    models = tiny_models() + [
        ("grid-8x8", grid_model(8, 8)),
        ("grid-10x10", grid_model(10, 10)),
        ("underflow", table_model([0.0, 1.0, 1.0, 2000.0])),
    ]
    cases = [
        (n, label, model, BLOCK_BS, i)
        for n in [1, 7, 8, 64, 7217]
        for i, (label, model) in enumerate(models)
    ]
    # 5,000 distinct levels: a block of CDF columns holds 65,536 // 5,000 =
    # 13, so 16 rows take their guide tables from two blocks.
    many = table_model(np.arange(5000.0) / 100.0)
    cases += [(n, "5000-levels", many, (np.arange(16) / 8.0).tolist(), len(models)) for n in [8, 64]]
    return [pytest.param(n, label, model, bs, id=f"{n}-{label}-model{i}") for n, label, model, bs, i in cases]


def _row_by_row(oracle, b, n, rng):
    """Energies of n reference ``draw_exact`` calls at b, or past the guard,
    where it needs a state table, of n draws by its level inversion, one
    uniform each."""
    model = oracle.model
    if model.counts.sum() <= ENUMERATION_GUARD:
        return state_energies(model)[[draw_exact(oracle, b, rng) for _ in range(n)]]
    cw = level_cdf(oracle, b)
    levels = [min(bisect_right(cw, rng.random() * cw[-1]), len(cw) - 1) for _ in range(n)]
    oracle.counter.record(n)
    return model.energies[levels]


@pytest.mark.parametrize("n,label,model,bs", _block_cases())
def test_draw_energies_block_is_row_by_row_draws(n, label, model, bs):
    # One (len(b), n) block consumes the generator as row-by-row draws do;
    # n = 8 is the smallest guide table, of g = 2 buckets.
    by_block, by_row = exact_oracle(model), exact_oracle(model)
    g1, g2 = _rng(f"block-{label}", n), _rng(f"block-{label}", n)
    block = np.array(list(by_block.energy_rows(bs, n, g1)))
    rows = [_row_by_row(by_row, b, n, g2) for b in bs]
    assert block.shape == (len(bs), n)
    assert block.tolist() == [row.tolist() for row in rows]
    assert g1.bit_generator.state == g2.bit_generator.state
    assert by_block.counter.total == by_row.counter.total == len(bs) * n


@pytest.mark.parametrize("kind", ["exact", "mcmc"])
def test_energy_rows_draw_and_count_each_row_when_it_is_taken(kind, c4):
    # A generator taken for its first row only has drawn that row's n
    # uniforms and recorded its n draws, and nothing of the rows after it.
    def oracle():
        return exact_oracle(c4) if kind == "exact" else mcmc_oracle(c4, 3, 0.1)

    streamed, one_row = oracle(), oracle()
    g1, g2 = _rng(f"rows-{kind}"), _rng(f"rows-{kind}")
    first = next(streamed.energy_rows(BLOCK_BS, 64, g1))
    assert streamed.counter.total == 64
    assert first.tolist() == next(one_row.energy_rows(BLOCK_BS[:1], 64, g2)).tolist()
    assert g1.bit_generator.state == g2.bit_generator.state


def _guide_levels(oracle, b, n):
    """The level CDF at b and the level each bucket edge j/g inverts to."""
    cw = np.asarray(level_cdf(oracle, b))
    g = 1 << (n // 8).bit_length()
    edges = np.searchsorted(cw, np.arange(g + 1) / g * cw[-1], side="right")
    return cw, g, np.minimum(edges, len(cw) - 1)


def test_guide_table_falls_back_where_levels_crowd_one_bucket():
    from gibbs_partition import grid_model

    # At b = 2 the tiny-mass levels 5..19 of grid-4x4 share the top bucket,
    # so some draws take the table and some the searchsorted fallback.
    n = 7217
    oracle = exact_oracle(grid_model(4, 4))
    cw, g, lv = _guide_levels(oracle, 2.0, n)
    assert (len(cw), g, lv[-2], lv[-1]) == (20, 1024, 5, 19)
    j = (np.random.default_rng(0).random(n) * g).astype(int)
    split = lv[j] != lv[j + 1]
    assert split.sum() == 48
    energies = next(oracle.energy_rows([2.0], n, np.random.default_rng(0)))
    reference = _row_by_row(exact_oracle(oracle.model), 2.0, n, np.random.default_rng(0))
    assert energies.tolist() == reference.tolist()


def test_guide_table_with_one_level_left_never_falls_back():
    from gibbs_partition import table_model

    # At b = 50 every level above the ground level underflows against it.
    oracle = exact_oracle(table_model([0.0, 1.0, 1.0, 2000.0]))
    cw, _, lv = _guide_levels(oracle, 50.0, 7217)
    assert len(cw) == 1 and not lv.any()
    assert next(oracle.energy_rows([50.0], 7217, _rng("one-level"))).tolist() == [0.0] * 7217


@pytest.mark.parametrize("label", ["k2", "cycle-4", "grid-2x2"])
def test_mcmc_draw_energies_block_is_row_by_row_calls(label):
    model = dict(tiny_models())[label]
    by_block = mcmc_oracle(model, mcmc_steps=3, tv_budget_per_draw=0.1)
    by_row = mcmc_oracle(model, mcmc_steps=3, tv_budget_per_draw=0.1)
    g1, g2 = _rng(f"mcmc-block-{label}"), _rng(f"mcmc-block-{label}")
    block = np.array(list(by_block.energy_rows(BLOCK_BS, 64, g1)))
    rows = [next(by_row.energy_rows([b], 64, g2)) for b in BLOCK_BS]
    assert block.tolist() == [row.tolist() for row in rows]
    assert g1.bit_generator.state == g2.bit_generator.state
    assert by_block.counter.total == by_row.counter.total == len(BLOCK_BS) * 64


class _TopUniform:
    """Generator stand-in whose every uniform is 1 - 2^-53, the largest below 1.

    For a total >= 1, u * total rounds to at most the double under total,
    never up to it.
    """

    def random(self, size=None):
        u = float(np.nextafter(1.0, 0.0))
        return u if size is None else np.full(size, u)


def test_draw_never_lands_on_underflowed_level():
    from gibbs_partition import table_model

    # At b = 1 the weight of energy 2000 underflows to zero.  On every
    # path, the largest uniform below 1 lands on the top drawable level.
    oracle = exact_oracle(table_model([0.0, 1.0, 1.0, 2000.0]))
    assert draw_exact(oracle, 1.0, _TopUniform()) == 2
    assert oracle.draw(1.0, _TopUniform()) == 1.0
    assert next(oracle.energy_rows([1.0], 3, _TopUniform())).tolist() == [1.0] * 3
    # A block's rows each cap at their own top level.
    assert np.array(list(oracle.energy_rows([1.0, 0.0], 3, _TopUniform()))).tolist() == [
        [1.0] * 3,
        [2000.0] * 3,
    ]
    # Row by row on the per-b path: at b = 0 no weight underflows.
    assert oracle.draw_energies_at([1.0, 0.0, 1.0], _TopUniform()).tolist() == [
        1.0,
        2000.0,
        1.0,
    ]
    n = 20_000
    counts = _draw_counts(oracle, 1.0, _rng("underflow"), n)
    assert counts[3] == 0
    expected = _pi(oracle.model, 1.0)[:3] * n
    assert stats.chisquare(counts[:3], expected).pvalue > 0.001


def test_draws_follow_pi_at_the_largest_accepted_counts():
    # Counts of 8e307 sum to 1.6e308, within the float range; at b = 0 that
    # sum is a level CDF's top.  Both draw shapes follow pi_b, with no warning.
    oracle, n = exact_oracle(GibbsModel(([0.0, 1.0], [8e307, 8e307]))), 20_000
    bs = np.array([0.0, 0.5])
    rows = list(oracle.energy_rows(bs, n, _rng("largest-counts-rows")))
    # Alternating b takes the per-b path; one b per call, the one-column path.
    mixed = oracle.draw_energies_at(np.tile(bs, n), _rng("largest-counts-mixed")).reshape(n, 2).T
    alike = [oracle.draw_energies_at(np.full(n, b), _rng("largest-counts-alike", i))
             for i, b in enumerate(bs)]
    for j, b in enumerate(bs.tolist()):
        p1 = 1.0 / (1.0 + math.exp(b))
        for energies in (rows[j], mixed[j], alike[j]):
            observed = np.bincount(energies.astype(int), minlength=2)
            assert stats.chisquare(observed, np.array([1.0 - p1, p1]) * n).pvalue > 0.001


@pytest.mark.parametrize("b", [6e307, 1e308])
def test_draws_and_truth_past_the_float_range(b):
    # Past about 4.5e307, -b E passes the float range on grid-2x2 (levels -4,
    # -2 and 0) and on a table of levels -4 and 4.  The law there is the
    # point mass at the lowest level for b > 0 and at the highest for b < 0,
    # as at +-4e307, where nothing overflows.  ln Z is inf, or ln 2 where
    # grid-2x2's two states of energy 0 outweigh the rest.  A warning fails
    # the test.
    for model, log_z in [(grid_model(2, 2), math.log(2.0)), (table_model([-4.0, 4.0]), math.inf)]:
        far, near = exact_oracle(model), exact_oracle(model)
        g1, g2 = _rng("past-float-range"), _rng("past-float-range")
        block = np.array(list(far.energy_rows([b, 0.5, -b], 64, g1)))
        assert block[[0, 2]].tolist() == [[-4.0] * 64, [model.energies[-1]] * 64]
        assert block.tolist() == np.array(list(near.energy_rows([4e307, 0.5, -4e307], 64, g2))).tolist()
        drawn = far.draw_energies_at(np.array([b, 0.5, -b]), g1)
        assert drawn.tolist() == near.draw_energies_at(np.array([4e307, 0.5, -4e307]), g2).tolist()
        assert log_partition_exact(model, b) == math.inf
        assert log_partition_exact(model, -b) == log_z
    # Each Metropolis threshold is 0 there, as at any b where exp(-b) underflows.
    c4 = ising_model(cycle_edges(4), 4)
    g1, g2 = _rng("past-float-range-mcmc"), _rng("past-float-range-mcmc")
    far, near = mcmc_oracle(c4, 3, 0.1), mcmc_oracle(c4, 3, 0.1)
    far_rows, near_rows = far.energy_rows([b], 64, g1), near.energy_rows([1e4], 64, g2)
    assert next(far_rows).tolist() == next(near_rows).tolist()
    assert g1.bit_generator.state == g2.bit_generator.state


def test_draw_exact_requires_exact_kind(k2):
    oracle = mcmc_oracle(k2, mcmc_steps=1, tv_budget_per_draw=0.1)
    with pytest.raises(ValueError):
        draw_exact(oracle, 0.5, _rng("kind"))


def test_counter_tracks_every_draw(k2):
    oracle = exact_oracle(k2)
    rng = _rng("counter")
    for b, n in [(0.0, 10), (0.5, 7), (0.0, 3)]:
        for _ in range(n):
            draw_exact(oracle, b, rng)
    assert oracle.counter.total == 20


def test_counter_total_sums_the_recorded_counts():
    from gibbs_partition import DrawCounter

    counter = DrawCounter()
    for n in [1, 7217, 3, 0, 1, 2]:
        counter.record(n)
    assert counter.total == 7224


def test_with_model_shares_counter(k2):
    oracle = exact_oracle(k2)
    view = oracle.with_model(shift_hamiltonian(k2, -2.0))
    rng = _rng("view")
    draw_exact(oracle, 1.0, rng)
    view.draw(1.0, rng)
    assert oracle.counter.total == 2


@pytest.mark.parametrize(
    "source,target",
    [
        (ising_model([(0, 1)], num_vertices=2), ising_model([(0, 1), (1, 2)], num_vertices=3)),
        (ising_model([(0, 1), (1, 2)], num_vertices=3), ising_model(cycle_edges(3), num_vertices=3)),
    ],
    ids=["k2-to-path3-replace", "path3-to-cycle3-replace"],
)
def test_moved_mcmc_oracle_draws_as_a_fresh_oracle_on_its_model(source, target):
    # The kernel plan is built from the graph, so an oracle moved onto
    # another model by dataclasses.replace must rebuild it: a stale plan
    # runs the old graph's kernel, and draws other spins from the same
    # generator.
    oracle = mcmc_oracle(source, mcmc_steps=5, tv_budget_per_draw=0.1)
    moved = replace(oracle, model=target)
    fresh = mcmc_oracle(target, mcmc_steps=5, tv_budget_per_draw=0.1)
    for i, b in enumerate([0.7, np.linspace(0.05, 2.0, 64)]):
        g1, g2 = _rng("moved-replace", i), _rng("moved-replace", i)
        spins = moved.spins(b, 64, g1)
        assert np.array_equal(spins, fresh.spins(b, 64, g2))
        bs = np.atleast_1d(b)
        rows = list(moved.energy_rows(bs, 9, g1))
        assert np.array_equal(rows, list(fresh.energy_rows(bs, 9, g2)))
        assert g1.bit_generator.state == g2.bit_generator.state


# --- importance identities (single-draw W) --------------------------------


def test_importance_identity_k2(k2):
    # E[exp(-beta H(X))] = Z(beta)/Z(0) for X ~ pi_0
    oracle = exact_oracle(k2)
    rng = _rng("eq1")
    n = 100_000
    h = state_energies(k2)
    w = np.array([math.exp(-1.0 * h[draw_exact(oracle, 0.0, rng)]) for _ in range(n)])
    truth = math.exp(log_ratio_exact(k2, 1.0))
    se = w.std(ddof=1) / math.sqrt(n)
    assert abs(w.mean() - truth) <= 3 * se


@pytest.mark.parametrize("label", ["k2", "cycle-4"])
def test_single_shot_relvar_matches_z_identity(label):
    model = dict(tiny_models())[label]
    oracle = exact_oracle(model)
    rng = _rng(f"eq2-{label}")
    beta, n = 1.0, 100_000
    h = state_energies(model)
    w = np.array(
        [math.exp(-beta * h[draw_exact(oracle, 0.0, rng)]) for _ in range(n)]
    )
    z = lambda b: log_partition_exact(model, b)
    expected = math.exp(z(2 * beta) + z(0.0) - 2 * z(beta)) - 1.0
    if label == "k2":
        assert expected == pytest.approx(0.2135522670340726, abs=1e-12)
    empirical = w.var(ddof=1) / w.mean() ** 2
    assert empirical == pytest.approx(expected, rel=0.10)


# --- restart MCMC ----------------------------------------------------------


def test_mcmc_zero_steps_is_uniform(k2):
    oracle = mcmc_oracle(k2, mcmc_steps=0, tv_budget_per_draw=0.5)
    spins = oracle.spins(1.0, 40_000, _rng("mcmc0"))
    counts = np.bincount(pack_states(spins), minlength=4)
    assert stats.chisquare(counts).pvalue > 0.001
    assert oracle.counter.total == 40_000


def test_mcmc_b_zero_is_uniform(c4):
    oracle = mcmc_oracle(c4, mcmc_steps=5, tv_budget_per_draw=0.5)
    spins = oracle.spins(0.0, 40_000, _rng("mcmc-b0"))
    counts = np.bincount(pack_states(spins), minlength=16)
    assert stats.chisquare(counts).pvalue > 0.001


def test_mcmc_k2_converges_to_gibbs(k2):
    # spec example: 50 sweeps, empirical aligned probability within 0.01
    oracle = mcmc_oracle(k2, mcmc_steps=50, tv_budget_per_draw=0.01)
    n = 100_000
    counts = np.bincount(pack_states(oracle.spins(1.0, n, _rng("mcmc50"))), minlength=4)
    aligned = (counts[0] + counts[3]) / n
    assert aligned == pytest.approx(0.7310585786300049, abs=0.01)


def test_mcmc_without_tv_budget_warns(k2):
    with pytest.warns(UserWarning, match="guarantee does not apply"):
        mcmc_oracle(k2, mcmc_steps=5, tv_budget_per_draw=0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda model, tv: RestartOracle(model, 5, tv),
        lambda model, tv: mcmc_oracle(model, 5, tv),
        lambda model, tv: replace(mcmc_oracle(model, 5, 0.1), tv_budget_per_draw=tv),
    ],
    ids=["class", "factory", "replace"],
)
def test_every_construction_without_tv_budget_warns_once(k2, build):
    # A zero budget claims exact draws, however the oracle is built.
    with pytest.warns(UserWarning, match="guarantee does not apply") as record:
        build(k2, 0.0)
    assert len(record) == 1
    build(k2, 0.1)  # filterwarnings = error: a nonzero budget never warns


def test_mcmc_requires_ising(mixed_table, c4):
    # A shifted Ising model is its levels only, with no graph to move on.
    for model in (mixed_table, shift_hamiltonian(c4, -2.5)):
        with pytest.raises(ValueError):
            mcmc_oracle(model, mcmc_steps=5, tv_budget_per_draw=0.1)


def test_exact_kind_rejects_tv_budget(k2):
    # An exact oracle's budget is a class constant, not a field.
    with pytest.raises(TypeError):
        ExactOracle(k2, tv_budget_per_draw=0.1)
    assert exact_oracle(k2).tv_budget_per_draw == 0.0


def test_sweep_matrix_is_stochastic_and_invariant(k2, c4):
    # The reference matrix in conftest: row-stochastic, and pi_b is invariant.
    for model, b in [(k2, 1.0), (c4, 0.7)]:
        m = metropolis_sweep_matrix(model, b)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
        pi = _pi(model, b)
        np.testing.assert_allclose(pi @ m, pi, atol=1e-12)


_LAW_MODELS = {
    "k2": ising_model([(0, 1)], num_vertices=2),
    "cycle-4": ising_model(cycle_edges(4), num_vertices=4),
    "grid-3x3": ising_model(grid_edges(3, 3), num_vertices=9),
    "star-5": ising_model([(0, leaf) for leaf in range(1, 6)], num_vertices=6),
    "edgeless-3": ising_model([], num_vertices=3),
}


@pytest.mark.parametrize("sweeps", [0, 1, 3, 46])
@pytest.mark.parametrize("b", [0.0, 0.3, 1.0, 12.0, math.inf])
@pytest.mark.parametrize("label", list(_LAW_MODELS))
def test_mcmc_draw_distribution_is_the_sweep_matrix_law(label, b, sweeps):
    # The site-by-site law against the dense reference: uniform start law
    # times the sweep matrix to the power sweeps.
    model = _LAW_MODELS[label]
    law = mcmc_draw_distribution(model, b, sweeps)
    np.testing.assert_allclose(law, matrix_draw_distribution(model, b, sweeps), rtol=0, atol=1e-12)


def test_mcmc_draw_distribution_refuses_a_model_without_a_graph():
    # At every sweep count, zero included: a table model has no sites to sweep.
    for sweeps in (0, 1, 3):
        with pytest.raises(ValueError, match="requires an Ising model"):
            mcmc_draw_distribution(table_model([0.0, 1.0, 1.0, 2.0]), 1.0, sweeps)
        with pytest.raises(ValueError, match="requires an Ising model"):
            mcmc_tv_curve(table_model([0.0, 1.0, 1.0, 2.0]), [1.0], sweeps)


@pytest.mark.parametrize("label,model", tiny_models())
def test_gibbs_distribution_is_ising_only(label, model):
    # It sums each state's energy from its spins, so it needs a graph.
    if model.graph is None:
        with pytest.raises(ValueError, match="requires an Ising model"):
            gibbs_distribution(model, 1.0)
    else:
        assert gibbs_distribution(model, 1.0).tolist() == _pi(model, 1.0).tolist()


def test_mcmc_draws_match_exact_kernel(k2):
    # the sampled kernel and the matrix kernel must be the same object
    sweeps = 3
    oracle = mcmc_oracle(k2, mcmc_steps=sweeps, tv_budget_per_draw=0.1)
    rng = _rng("kernel")
    n = 100_000
    counts = _draw_counts(oracle, 1.0, rng, n)
    expected = mcmc_draw_distribution(k2, 1.0, sweeps) * n
    assert stats.chisquare(counts, expected).pvalue > 0.001


@pytest.mark.parametrize("label", ["k2", "path-3", "cycle-4", "grid-2x2"])
@pytest.mark.parametrize("sweeps", [0, 3])
def test_mcmc_lockstep_one_chain_is_draw_mcmc(label, sweeps):
    # The lockstep kernel with one chain is the scalar reference kernel,
    # uniform for uniform.
    model = dict(tiny_models())[label]
    lockstep = mcmc_oracle(model, mcmc_steps=sweeps, tv_budget_per_draw=0.1)
    scalar = mcmc_oracle(model, mcmc_steps=sweeps, tv_budget_per_draw=0.1)
    g1, g2 = _rng(f"lockstep-{label}"), _rng(f"lockstep-{label}")
    bs = [0.0, 0.3, 1.0, 2.0] * 250
    states = [pack_states(lockstep.spins(b, 1, g1)).item() for b in bs]
    assert states == [draw_mcmc(scalar, b, g2) for b in bs]
    assert lockstep.counter.total == scalar.counter.total == 1000
    assert g1.random() == g2.random()


_REPLAY_MODELS = [
    *((label, m) for label, m in tiny_models() if m.graph is not None),
    ("grid-3x3", ising_model(grid_edges(3, 3), num_vertices=9)),
    ("star-5", ising_model([(0, leaf) for leaf in range(1, 6)], num_vertices=6)),
    ("isolated", ising_model([(0, 1)], num_vertices=3)),
    ("lone-site", ising_model([], num_vertices=1)),
    # The MCMC limit: 63 sites, start indices up to 2^63 - 1, a degree-62 centre.
    ("star-62", ising_model([(0, leaf) for leaf in range(1, 63)], num_vertices=63)),
]


def _replay_shape(n, nv):
    """(chains, sweeps) of a replay on nv sites: n chains for 3 sweeps, or a
    shape set by the block cap on the sweeps' uniforms."""
    cap = samplers._UNIFORM_CAP
    per_block = cap // (nv * 64)
    shapes = {
        "blocks": (64, 2 * per_block + 1),  # two whole blocks, then one sweep
        "past-cap": (cap // nv + 1, 2),  # one sweep per block
        "no-sweeps": (5, 0),
    }
    return shapes.get(n, (n, 3))


@pytest.fixture
def small_uniform_cap(monkeypatch):
    """A 2^15-uniform block cap, read by the kernel and its replay alike:
    each cap-derived shape keeps its class at a quarter of the cells."""
    monkeypatch.setattr(samplers, "_UNIFORM_CAP", 1 << 15)


@pytest.mark.usefixtures("small_uniform_cap")
@pytest.mark.parametrize("label,model", _REPLAY_MODELS, ids=[m[0] for m in _REPLAY_MODELS])
@pytest.mark.parametrize("n", [1, 5, 64, 65, "blocks", "past-cap", "no-sweeps"])
@pytest.mark.parametrize("b", [0.0, 0.3, 1.0, 2.0, 50.0, -0.5, "per-chain"])
def test_mcmc_lockstep_replays_the_stream_contract(label, model, n, b):
    _assert_replays(label, model, n, b)


@pytest.mark.parametrize("deg", range(9))
def test_site_flips_is_the_metropolis_rule_by_its_truth_table(deg):
    # One chain, so every int is one bit: for every own spin, neighbour
    # spin pattern and L from 0 to c + 1, the site flips exactly when
    # aligned < deg // 2 + 1 + L.  The site is site 1 of nv = deg + 2, so
    # its plane k sits at 1 + k nv among set planes of the other sites;
    # its padded planes, k >= c, are there too, and must not be read.
    c, nv = deg - deg // 2, deg + 2
    for own, pattern, limit in itertools.product((0, 1), range(2**deg), range(c + 2)):
        nbr_spins = [(pattern >> i) & 1 for i in range(deg)]
        aligned = nbr_spins.count(own)
        planes = [1] * ((c + 2) * nv)
        planes[1::nv] = [int(limit > k) for k in range(c + 2)]
        rows = [1, own, *nbr_spins]
        flips = _site_flips(rows, 1, range(2, nv), c, planes, 1, 1)
        assert flips == int(aligned < deg // 2 + 1 + limit), (own, pattern, limit)


def test_mcmc_lockstep_replays_blocks_at_the_kernel_cap():
    # One blocks case at the kernel's own cap, not the replay test's.
    _assert_replays("k2", dict(_REPLAY_MODELS)["k2"], "blocks", 1.0)


def _assert_replays(label, model, n, b):
    # n chains in lockstep are n scalar chains, chain j reading column j of
    # each sweep's (nv, n) block of uniforms; degree-0 sites always flip.
    nv = model.graph.num_vertices
    n, sweeps = _replay_shape(n, nv)
    oracle = mcmc_oracle(model, mcmc_steps=sweeps, tv_budget_per_draw=0.1)
    if b == -0.5:
        with pytest.raises(ValueError, match="b >= 0"):
            oracle.spins(b, n, _NoDraws())
        assert oracle.counter.total == 0
        return
    if b == "per-chain":
        # One chain at exactly 0 and the rest in (0, 3): a mixed call still
        # runs the full kernel.
        b = _rng(f"replay-b-{label}", n).uniform(0.0, 3.0, n)
        b[0] = 0.0
    g1, g2 = _rng(f"replay-{label}", n), _rng(f"replay-{label}", n)
    spins = oracle.spins(b, n, g1)
    assert spins.shape == (nv, n)
    assert pack_states(spins).tolist() == draw_mcmc_chains(oracle, b, n, g2)
    assert g1.bit_generator.state == g2.bit_generator.state


@pytest.mark.parametrize("label", ["k2", "star-62"])
@pytest.mark.parametrize("sweeps", [0, 1, 46])
@pytest.mark.parametrize("per_chain", [False, True], ids=["scalar", "per-chain"])
def test_mcmc_at_b_zero_reads_only_its_start_states(label, sweeps, per_chain):
    # At b = 0 every proposal passes, so each sweep flips every site: the
    # draws are the starts flipped by the parity of the sweeps, and the
    # generator moves exactly as one bare start-state call moves it.
    model = dict(_REPLAY_MODELS)[label]
    nv, n = model.graph.num_vertices, 300
    oracle = mcmc_oracle(model, mcmc_steps=sweeps, tv_budget_per_draw=0.1)
    g1, g2 = _rng(f"b-zero-{label}", sweeps), _rng(f"b-zero-{label}", sweeps)
    spins = oracle.spins(np.zeros(n) if per_chain else 0.0, n, g1)
    starts = g2.integers(0, 2**nv, size=n)
    assert g1.bit_generator.state == g2.bit_generator.state
    assert pack_states(spins).tolist() == (starts ^ (2**nv - 1) * (sweeps % 2)).tolist()
    assert oracle.counter.total == n


@pytest.mark.parametrize("b", [-1.0, -1e-300, math.nan, "per-chain"])
def test_mcmc_refuses_b_below_zero_and_nan(k2, b):
    # The flip rule takes each threshold at a <= deg // 2 to be 1, true
    # only for b >= 0: at b = -1 on k2 it drew uniform spins, not pi_b.
    oracle = mcmc_oracle(k2, mcmc_steps=46, tv_budget_per_draw=0.1)
    if b == "per-chain":
        b = np.array([0.0, 1.0, -0.5])
    with pytest.raises(ValueError, match="b >= 0"):
        oracle.spins(b, np.size(b), _NoDraws())
    assert oracle.counter.total == 0
    if np.ndim(b) == 0:
        for exact in (
            lambda: mcmc_draw_distribution(k2, b, 46),
            lambda: mcmc_tv_curve(k2, [b], 46),
        ):
            with pytest.raises(ValueError, match="b >= 0"):
                exact()


def _assert_exact_split(t, whole, part):
    assert whole.dtype == np.uint8
    assert 0.0 <= part <= 1.0
    assert Fraction(int(whole)) + Fraction(float(part)) == Fraction(min(t, 1.0)) * 2**8


@pytest.mark.parametrize(
    "t",
    [0.0, 5e-324, 2.0**-33, 2.0**-9, 2.0**-8, 0.3, math.exp(-2), 1 - 2.0**-53, 1.0, math.exp(0.5)],
)
def test_threshold_split_is_exact(t):
    # whole + part is min(1, t) * 2^8 with no rounding, from the smallest
    # subnormal to a b < 0 threshold past 1.
    whole, part = _split_thresholds(np.array([t]))
    _assert_exact_split(t, whole[0], part[0])


@settings(max_examples=300, deadline=None)
@given(st.floats(-5.0, 60.0), st.integers(1, 62))
def test_threshold_split_is_exact_for_any_b_and_delta(b, delta):
    # The kernel's thresholds are exp(-(delta * b)).
    t = np.exp(-np.multiply(delta, b))
    whole, part = _split_thresholds(np.array([t]))
    _assert_exact_split(float(t), whole[0], part[0])


def _degree_plan_thresholds():
    """The kernel plan's threshold exponents, (K, nv), on a graph with one
    site of each degree 0 to 8, each joined to leaves of its own."""
    edges, nv = [], 9
    for hub in range(9):
        edges += [(hub, leaf) for leaf in range(nv, nv + hub)]
        nv += hub
    oracle = mcmc_oracle(ising_model(edges, num_vertices=nv), 1, 0.1)
    return oracle._neg_expo


_DEGREE_PLAN = _degree_plan_thresholds()


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0))
@example(0.0)
@example(5e-324)
@example(1e-16)
@example(50.0)
@example(math.inf)
def test_split_thresholds_never_increase_with_k(b):
    # The flip rule aligned < deg // 2 + 1 + L counts the thresholds a
    # uniform passes; that is the reference's one-threshold decision only
    # if, at every site, whole is nonincreasing in k and part is where the
    # wholes are equal.  Padded rows count too: they must not pass where a
    # real one fails.  Past b ~ 2.2e307 the largest exponent, -8 b,
    # overflows to -inf, as it does in the kernel, and its threshold is 0.
    assert _DEGREE_PLAN.shape == (4, 45)
    with np.errstate(over="ignore"):
        t = np.exp(np.multiply.outer(_DEGREE_PLAN, [b]))
    whole, part = _split_thresholds(t)
    assert (whole[:-1] >= whole[1:]).all()
    assert (part[:-1] >= part[1:])[whole[:-1] == whole[1:]].all()


def test_bytes_split_each_word_low_byte_first():
    # The same eight uniforms on any host: a big-endian word splits alike.
    word = 0x08070605_04030201
    assert _bytes(np.array([word], dtype=np.uint64)).tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
    assert _bytes(np.array([word], dtype=">u8")).tolist() == [1, 2, 3, 4, 5, 6, 7, 8]


# A star whose degree-4 centre carries two thresholds and whose leaves
# carry one, past their degree in the second slot.
_STAR4 = ising_model([(0, leaf) for leaf in range(1, 5)], num_vertices=5)


class _TiedWords:
    """Generator stand-in: start states and doubles come from a real
    Generator, and the 8-bit uniforms, eight to a raw word and low byte
    first, are taken in order from ``uniforms``, 0 past its end.
    ``doubles`` records the size of every ``random`` call."""

    def __init__(self, rng, uniforms):
        self._rng, self._uniforms, self.doubles = rng, iter(uniforms), []
        self.bit_generator = types.SimpleNamespace(random_raw=self._raw)

    def _raw(self, size):
        words = [[next(self._uniforms, 0) for _ in range(8)] for _ in range(size)]
        return np.array(
            [sum(byte << 8 * i for i, byte in enumerate(w)) for w in words], dtype=np.uint64
        )

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, size=None):
        self.doubles.append(size)
        return self._rng.random(size)


def test_k2_tie_flips_an_aligned_site_exactly_when_its_double_is_below_part(k2):
    # Every uniform sits on the whole of e^-b, so each of the 2n cells draws
    # one double, in (site, chain) order, and an aligned site flips exactly
    # when that double is below the part; a misaligned site always flips.
    b, n = 1.0, 64
    whole, part = split_threshold(math.exp(-b))
    oracle = mcmc_oracle(k2, mcmc_steps=1, tv_budget_per_draw=0.1)
    stub = _TiedWords(_rng("ties-k2"), [whole] * (2 * n))
    spins = oracle.spins(b, n, stub)
    assert stub.doubles == [2 * n]
    twin = _rng("ties-k2")
    starts = twin.integers(0, 4, size=n).tolist()
    v = twin.random((2, n))
    expected, tied_outcomes = [], set()
    for j, s in enumerate(starts):
        for site in (0, 1):
            if (s & 1) == (s >> 1) & 1:
                tied_outcomes.add(bool(v[site, j] < part))
                if v[site, j] < part:
                    s ^= 1 << site
            else:
                s ^= 1 << site
        expected.append(s)
    assert pack_states(spins).tolist() == expected
    # Aligned sites both flip and stay, so a kernel that accepts ties fails.
    assert tied_outcomes == {False, True}
    assert stub.random() == twin.random()


@pytest.mark.parametrize("b", [0.3, 3.0])
def test_star_tie_draws_one_double_shared_by_both_centre_thresholds(b):
    # The degree-4 centre has thresholds e^-2b (3 aligned) and e^-4b (4
    # aligned).  At b = 0.3 even chains sit on the first's whole and odd
    # chains on the second's; at b = 3 both wholes are 0, so one tie
    # settles both.  The leaves sit on e^-b's whole.  Each cell draws one
    # double, in (site, chain) order, and a tied threshold passes exactly
    # when that double is below its part.
    adj = _STAR4.graph.adjacency()
    n = 512
    centre = [split_threshold(math.exp(-b * (2 + 2 * (j % 2))))[0] for j in range(n)]
    uniforms = centre + [split_threshold(math.exp(-b))[0]] * (4 * n)
    oracle = mcmc_oracle(_STAR4, mcmc_steps=1, tv_budget_per_draw=0.1)
    stub = _TiedWords(_rng("ties-star", int(b)), uniforms)
    spins = oracle.spins(b, n, stub)
    assert stub.doubles == [5 * n]
    twin = _rng("ties-star", int(b))
    starts = twin.integers(0, 32, size=n).tolist()
    v = twin.random((5, n))
    expected, centre_outcomes = [], set()
    for j, s in enumerate(starts):
        for site, nbrs in enumerate(adj):
            aligned = sum(((s >> u) & 1) == ((s >> site) & 1) for u in nbrs)
            delta = 2 * aligned - len(nbrs)
            if delta > 0:
                whole, part = split_threshold(math.exp(-b * delta))
                u = uniforms[site * n + j]
                if u > whole or (u == whole and v[site, j] >= part):
                    continue
                if site == 0 and u == whole:
                    centre_outcomes.add(bool(v[site, j] < part))
            s ^= 1 << site
        expected.append(s)
    assert pack_states(spins).tolist() == expected
    assert True in centre_outcomes
    assert stub.random() == twin.random()


@pytest.mark.parametrize(
    "label,model",
    [("star-4", _STAR4), ("grid-3x3", ising_model(grid_edges(3, 3), num_vertices=9))],
)
def test_per_chain_ties_draw_one_double_per_tied_cell_in_cell_order(label, model):
    # The star's leaves and the grid's corners carry one real threshold and
    # one padded past their degree, which stands for 0; the star's centre
    # and the grid's other sites carry two real ones.  Chains cycle through
    # three b values, and each cell's byte is one of its site's real wholes
    # at its own chain's b, 0, or another byte; the bytes past each sweep's
    # cells would tie if read.  Exactly the cells on a real whole at their
    # chain's b draw a double, one each, and the spins and the generator
    # end as the replay's, which takes the doubles in (sweep, site, chain)
    # order.
    adj = model.graph.adjacency()
    nv, n, sweeps = len(adj), 12, 3
    bs = np.array([0.3, 1.0, 2.5] * (n // 3))

    def real_wholes(v, j):
        deg = len(adj[v])
        return [
            split_threshold(math.exp(-bs[j] * (2 * a - deg)))[0]
            for a in range(deg // 2 + 1, deg + 1)
        ]

    pick = _rng(f"per-chain-ties-{label}")
    uniforms, tied, padded = [], 0, 0
    for _ in range(sweeps):
        for v in range(nv):
            for j in range(n):
                wholes = real_wholes(v, j)
                choice = pick.integers(4)
                byte = (wholes + [0, int(pick.integers(256))])[min(choice, len(wholes) + 1)]
                uniforms.append(byte)
                tied += byte in wholes
                padded += len(wholes) == 1 and byte == 0 and 0 not in wholes
        uniforms += [real_wholes(0, 0)[0]] * (-(nv * n) % 8)
    assert nv * n % 8 and padded and tied
    oracle = mcmc_oracle(model, mcmc_steps=sweeps, tv_budget_per_draw=0.1)
    stub = _TiedWords(_rng(f"per-chain-ties-rng-{label}"), uniforms)
    spins = oracle.spins(bs, n, stub)
    twin = _TiedWords(_rng(f"per-chain-ties-rng-{label}"), uniforms)
    replay = mcmc_oracle(model, mcmc_steps=sweeps, tv_budget_per_draw=0.1)
    assert pack_states(spins).tolist() == draw_mcmc_chains(replay, bs, n, twin)
    assert stub.doubles == twin.doubles == [tied]
    assert stub._rng.bit_generator.state == twin._rng.bit_generator.state


@pytest.mark.parametrize(
    "label,model", [("star-4", _STAR4), ("lone-site", ising_model([], num_vertices=1))]
)
def test_a_uniform_on_a_threshold_past_the_degree_draws_no_double(label, model):
    # Only a site's real thresholds tie.  On the star every uniform is 0,
    # the whole of a threshold past the degree were it the 0 it stands
    # for, and below each real threshold at b = 0.3; the lone site has no
    # real threshold, so it reads every byte value and none ties.  Every
    # site flips and no double is drawn.
    nv = model.graph.num_vertices
    n, uniforms = (256, range(256)) if nv == 1 else (4, [0] * (nv * 4))
    stub = _TiedWords(_rng(f"no-tie-{label}"), uniforms)
    spins = mcmc_oracle(model, 1, 0.1).spins(0.3, n, stub)
    assert stub.doubles == []
    starts = _rng(f"no-tie-{label}").integers(0, 2**nv, size=n)
    assert pack_states(spins).tolist() == (starts ^ (2**nv - 1)).tolist()


@pytest.mark.parametrize("b", [1.0, "per-chain"])
@pytest.mark.parametrize("sweeps", [1, 3])
def test_mcmc_lockstep_two_thresholds_match_exact_kernel(b, sweeps):
    # The degree-4 centre of a star carries two thresholds, e^-2b and e^-4b;
    # per chain, chains alternate between b = 0.3 and b = 1.
    n = 400_000
    oracle = mcmc_oracle(_STAR4, mcmc_steps=sweeps, tv_budget_per_draw=0.1)
    bs = np.where(np.arange(n) % 2 == 0, 0.3, 1.0) if b == "per-chain" else b
    states = pack_states(oracle.spins(bs, n, _rng(f"star4-chi-{b}", sweeps)))
    assert oracle.counter.total == n
    groups = [(0.3, states[0::2]), (1.0, states[1::2])] if b == "per-chain" else [(b, states)]
    for b_value, group in groups:
        counts = np.bincount(group, minlength=32)
        expected = mcmc_draw_distribution(_STAR4, b_value, sweeps) * len(group)
        assert stats.chisquare(counts, expected).pvalue > 0.001


@pytest.mark.parametrize("label", ["k2", "cycle-4"])
@pytest.mark.parametrize("sweeps", [1, 3])
def test_mcmc_lockstep_matches_exact_kernel(label, sweeps):
    model = dict(tiny_models())[label]
    oracle = mcmc_oracle(model, mcmc_steps=sweeps, tv_budget_per_draw=0.1)
    n = 400_000
    states = pack_states(oracle.spins(1.0, n, _rng(f"lockstep-chi-{label}", sweeps)))
    assert oracle.counter.total == n
    counts = np.bincount(states, minlength=1 << model.graph.num_vertices)
    expected = mcmc_draw_distribution(model, 1.0, sweeps)
    assert stats.chisquare(counts, expected * n).pvalue > 0.001
    assert np.abs(counts / n - expected).max() < 5e-3


@pytest.mark.parametrize("label", ["k2", "path-3", "cycle-4", "grid-2x2"])
def test_mcmc_lockstep_per_chain_b_one_chain_is_draw_mcmc(label):
    model = dict(tiny_models())[label]
    lockstep = mcmc_oracle(model, mcmc_steps=3, tv_budget_per_draw=0.1)
    scalar = mcmc_oracle(model, mcmc_steps=3, tv_budget_per_draw=0.1)
    g1, g2 = _rng(f"per-chain-{label}"), _rng(f"per-chain-{label}")
    bs = _rng(f"per-chain-b-{label}").random(1000) * 2.0
    states = [pack_states(lockstep.spins(bs[i : i + 1], 1, g1)).item() for i in range(1000)]
    assert states == [draw_mcmc(scalar, b, g2) for b in bs.tolist()]
    assert lockstep.counter.total == scalar.counter.total == 1000
    assert g1.random() == g2.random()


@pytest.mark.parametrize("label", ["k2", "cycle-4"])
@pytest.mark.parametrize("sweeps", [1, 3])
def test_mcmc_lockstep_per_chain_b_matches_exact_kernel(label, sweeps):
    # Chains alternate between two b values, so each chain must read its own.
    model = dict(tiny_models())[label]
    oracle = mcmc_oracle(model, mcmc_steps=sweeps, tv_budget_per_draw=0.1)
    n = 400_000
    bs = np.where(np.arange(n) % 2 == 0, 0.3, 1.0)
    states = pack_states(oracle.spins(bs, n, _rng(f"per-chain-chi-{label}", sweeps)))
    assert oracle.counter.total == n
    for b, half in [(0.3, states[0::2]), (1.0, states[1::2])]:
        counts = np.bincount(half, minlength=1 << model.graph.num_vertices)
        expected = mcmc_draw_distribution(model, b, sweeps) * len(half)
        assert stats.chisquare(counts, expected).pvalue > 0.001


def test_mcmc_lockstep_rejects_misshapen_b(k2):
    oracle = mcmc_oracle(k2, mcmc_steps=1, tv_budget_per_draw=0.1)
    with pytest.raises(ValueError):
        oracle.spins(np.array([0.3, 1.0]), 3, _rng("misshapen"))


def test_mcmc_draw_energies_are_lockstep_energies(c4):
    by_energy = mcmc_oracle(c4, mcmc_steps=2, tv_budget_per_draw=0.1)
    by_state = mcmc_oracle(c4, mcmc_steps=2, tv_budget_per_draw=0.1)
    energies = next(by_energy.energy_rows([0.7], 500, _rng("mcmc-energies")))
    states = pack_states(by_state.spins(0.7, 500, _rng("mcmc-energies")))
    assert energies.tolist() == state_energies(c4)[states].tolist()
    assert by_energy.counter.total == 500


def test_mcmc_draw_energies_at_are_per_chain_lockstep_energies(c4):
    by_energy = mcmc_oracle(c4, mcmc_steps=2, tv_budget_per_draw=0.1)
    by_state = mcmc_oracle(c4, mcmc_steps=2, tv_budget_per_draw=0.1)
    bs = _rng("mcmc-energies-at-b").random(500)
    energies = by_energy.draw_energies_at(bs, _rng("mcmc-energies-at"))
    states = pack_states(by_state.spins(bs, 500, _rng("mcmc-energies-at")))
    assert energies.tolist() == state_energies(c4)[states].tolist()
    assert by_energy.counter.total == by_state.counter.total == 500


@pytest.mark.parametrize("spec", ["cycle-4", "grid-3x3"])
def test_paired_mcmc_estimate_never_builds_the_state_table(spec, monkeypatch):
    from gibbs_partition import ParamOverrides, paired_product_estimate
    from gibbs_partition.cli import build_model

    model = build_model(spec)
    oracle = mcmc_oracle(model, mcmc_steps=2, tv_budget_per_draw=1e-4)

    def no_table(*args):
        raise AssertionError("the estimate enumerated the states")

    # _state_spins is the one state enumeration left in the library; the
    # exact laws of gibbs_distribution and mcmc_draw_distribution read it.
    monkeypatch.setattr(samplers, "_state_spins", no_table)
    est = paired_product_estimate(
        oracle, 1.0, 0.1, _rng(f"no-table-{spec}"), overrides=ParamOverrides(replicates=20)
    )
    assert est.draws_total > 0 and math.isfinite(est.log_ratio_estimate)


@pytest.mark.parametrize("label,model", [
    ("k2", ising_model([(0, 1)], num_vertices=2)),
    ("grid-3x3", ising_model(grid_edges(3, 3), num_vertices=9)),
    ("path-3+isolated", ising_model(path_edges(3), num_vertices=4)),
])
def test_mcmc_tv_curve_is_the_tv_of_the_law(label, model):
    # Entry [i, s] is the total variation between the law after s sweeps
    # and pi_b, bit for bit.
    bs, sweeps = [0.0, 0.3, 1.0, math.inf], 12
    curve = mcmc_tv_curve(model, bs, sweeps)
    expected = [
        [0.5 * np.abs(mcmc_draw_distribution(model, b, s) - gibbs_distribution(model, b)).sum()
         for s in range(sweeps + 1)]
        for b in bs
    ]
    assert curve.shape == (len(bs), sweeps + 1)
    assert curve.tobytes() == np.array(expected).tobytes()


def test_mcmc_tv_error_decreases(k2):
    tvs = mcmc_tv_curve(k2, [1.0], 32)[0, [0, 2, 8, 32]]
    assert tvs[0] > tvs[1] > tvs[2] > tvs[3]
    assert tvs[3] < 1e-3


def test_mcmc_law_on_grid_4x4_matches_draws_by_level():
    # 2^16 states, past the reach of a dense sweep matrix.  At 2 sweeps the
    # law is still far from pi_b, so the draws must follow the law itself.
    grid, b, sweeps, n = grid_model(4, 4), 0.5, 2, 200_000
    energies = state_energies(grid)
    levels, at = np.unique(energies, return_inverse=True)
    law = np.bincount(at, weights=mcmc_draw_distribution(grid, b, sweeps))
    pi = np.bincount(at, weights=_pi(grid, b))
    assert 0.5 * np.abs(law - pi).sum() > 0.05
    oracle = mcmc_oracle(grid, mcmc_steps=sweeps, tv_budget_per_draw=0.1)
    drawn = next(oracle.energy_rows([b], n, _rng("grid-4x4-law")))
    drawn_levels = np.searchsorted(levels, drawn)
    assert (levels[drawn_levels] == drawn).all()
    counts = np.bincount(drawn_levels, minlength=len(levels))
    # Levels expected fewer than 5 times share one bin.
    rare = law * n < 5
    observed = np.append(counts[~rare], counts[rare].sum())
    expected = np.append(law[~rare], law[rare].sum()) * n
    assert stats.chisquare(observed, expected).pvalue > 0.001


def test_mcmc_tv_error_decreases_on_grid_4x4():
    grid = grid_model(4, 4)
    tvs = mcmc_tv_curve(grid, [0.5], 24)[0, [0, 2, 8, 16, 24]]
    assert all(a > b for a, b in zip(tvs, tvs[1:]))
    assert tvs[-1] < 1e-8


# --- coupling accounting ---------------------------------------------------


def test_coupling_failure_bound_examples():
    assert coupling_failure_bound(0.0, 10**6) == 0.0
    assert coupling_failure_bound(1e-6, 10**4) == pytest.approx(0.01)
    assert coupling_failure_bound(0.5, 10) == 1.0


@settings(max_examples=50, deadline=None)
@given(tv=st.floats(0, 1), n=st.integers(0, 10**9))
def test_coupling_failure_bound_properties(tv, n):
    bound = coupling_failure_bound(tv, n)
    assert 0.0 <= bound <= 1.0
    assert bound <= tv * n or bound == 1.0


def test_coupling_failure_bound_rejects_negative():
    with pytest.raises(ValueError):
        coupling_failure_bound(-0.1, 5)
    with pytest.raises(ValueError):
        coupling_failure_bound(0.1, -5)


# --- models counted by levels, past the enumeration guard -------------------


def test_exact_oracle_draws_from_levels_past_the_guard():
    from gibbs_partition import grid_model

    # 2^64 states: the oracle reads only the 111 levels.
    grid = grid_model(8, 8)
    oracle = exact_oracle(grid)
    n = 20_000
    energies = next(oracle.energy_rows([0.5], n, _rng("grid-8x8")))
    assert set(energies.tolist()) <= set(grid.energies.tolist())
    assert oracle.counter.total == n
    se = energies.std(ddof=1) / math.sqrt(n)
    assert abs(-energies.mean() - mean_neg_energy(grid, 0.5)) <= 4 * se


def test_grid_levels_and_enumerated_table_draw_alike():
    from gibbs_partition import grid_edges, grid_model, ising_model

    by_levels = exact_oracle(grid_model(3, 3))
    by_table = exact_oracle(ising_model(grid_edges(3, 3), 9))
    bs = _rng("grid-alike-b").random(300) * 2.0
    g1, g2 = _rng("grid-alike"), _rng("grid-alike")
    assert by_levels.draw_energies_at(bs, g1).tolist() == by_table.draw_energies_at(bs, g2).tolist()
    rows = next(by_levels.energy_rows([0.7], 500, g1))
    assert rows.tolist() == next(by_table.energy_rows([0.7], 500, g2)).tolist()
    assert [by_levels.draw(1.3, g1) for _ in range(500)] == [by_table.draw(1.3, g2) for _ in range(500)]
    g1, g2 = _rng("grid-alike-states"), _rng("grid-alike-states")
    states = [draw_exact(by_levels, 1.3, g1) for _ in range(500)]
    assert states == [draw_exact(by_table, 1.3, g2) for _ in range(500)]


class _NoDraws:
    """Generator stand-in that fails the test if anything draws from it."""

    def __getattr__(self, name):
        raise AssertionError(f"the generator was used ({name})")


def test_state_level_consumers_refuse_models_past_the_guard():
    from gibbs_partition import EnumerationGuardError, grid_model

    grid = grid_model(5, 5)  # 2^25 states, one past the guard
    # The MCMC oracle needs only one int64 start index per chain: 63 sites.
    past_guard = mcmc_oracle(grid, mcmc_steps=5, tv_budget_per_draw=0.1)
    assert next(past_guard.energy_rows([0.5], 10, _rng("past-guard-mcmc"))).shape == (10,)
    with pytest.raises(EnumerationGuardError, match="63-site limit"):
        mcmc_oracle(grid_model(8, 8), mcmc_steps=5, tv_budget_per_draw=0.1)
    oracle = exact_oracle(grid)
    with pytest.raises(EnumerationGuardError):
        draw_exact(oracle, 0.5, _NoDraws())
    assert oracle.counter.total == 0
    with pytest.raises(EnumerationGuardError):
        gibbs_distribution(grid, 0.5)
    with pytest.raises(EnumerationGuardError):
        mcmc_draw_distribution(grid, 0.5, 3)
    # Draws that need only the levels still work.
    assert next(oracle.energy_rows([0.5], 10, _rng("past-guard"))).shape == (10,)
    assert oracle.draw(0.5, _rng("past-guard")) in grid.energies


def test_mcmc_oracle_draws_alike_on_a_grid_model_and_its_ising_model():
    from gibbs_partition import grid_edges, grid_model, ising_model

    by_levels = mcmc_oracle(grid_model(2, 3), mcmc_steps=3, tv_budget_per_draw=0.1)
    by_table = mcmc_oracle(ising_model(grid_edges(2, 3), 6), mcmc_steps=3, tv_budget_per_draw=0.1)
    e1 = next(by_levels.energy_rows([0.8], 300, _rng("mcmc-grid")))
    e2 = next(by_table.energy_rows([0.8], 300, _rng("mcmc-grid")))
    assert e1.tolist() == e2.tolist()
