"""Model core: constructors, the exact oracle, and the shift transform."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

import gibbs_partition.models as models
from gibbs_partition import (
    EnumerationGuardError,
    constant_model,
    gibbs_distribution,
    grid_edges,
    grid_model,
    ising_model,
    load_model,
    log_partition_exact,
    log_ratio_exact,
    mcmc_tv_curve,
    model_from_dict,
    path_edges,
    shift_hamiltonian,
    table_model,
)
from gibbs_partition.cli import build_model

from conftest import (
    _grid_levels,
    brute_ising_energies,
    brute_log_partition,
    brute_z,
    logsumexp_exp_of_top,
    mean_neg_energy,
    row_transfer_log_partition,
    state_energies,
    tiny_models,
)

BETA_GRID = [0.0, 0.25, 0.5, 1.0, 2.0]


def test_k2_energy_table(k2):
    # Omega = {-1,1}^2, H = -1[x1 = x2]: two aligned states, two split ones.
    assert k2.energies.tolist() == [-1.0, 0.0]
    assert k2.counts.tolist() == [2.0, 2.0]
    assert k2.n_bound == 1
    assert k2.sign_class == "nonpositive"
    assert k2.integer_valued


def test_c4_ground_states(c4):
    assert c4.counts.sum() == 16
    assert c4.energies[0] == -4.0
    assert c4.counts[0] == 2  # all-up and all-down


def test_empty_edge_set_is_flat():
    model = ising_model([], num_vertices=3)
    assert model.energies.tolist() == [0.0]
    assert model.counts.tolist() == [8.0]
    assert model.sign_class == "nonpositive"


@pytest.mark.parametrize(
    "label,model", [pair for pair in tiny_models() if pair[1].graph is not None]
)
def test_ising_tables_match_bruteforce(label, model):
    expected = brute_ising_energies(model.graph.edges, model.graph.num_vertices)
    energies, counts = np.unique(expected, return_counts=True)
    assert model.energies.tolist() == energies.tolist()
    assert model.counts.tolist() == counts.tolist()


@pytest.mark.parametrize("bad_edges", [[(0, 0)], [(0, 1), (1, 0)], [(0, 2)]])
def test_ising_rejects_bad_edges(bad_edges):
    with pytest.raises(ValueError):
        ising_model(bad_edges, num_vertices=2)


def test_ising_enumeration_guard():
    # 2^1024 states pass the float64 range of the level counts.
    with pytest.raises(EnumerationGuardError, match="allows 1023 sites"):
        ising_model(path_edges(1024), num_vertices=1024)
    # K18 keeps 17 sites in its front: 2^17 x 154 counts pass the guard.
    k18 = [(i, j) for i in range(18) for j in range(i + 1, 18)]
    with pytest.raises(EnumerationGuardError, match=r"front of 17 sites needs 2\^17 x 154"):
        ising_model(k18, num_vertices=18)


@pytest.mark.parametrize("n", [2, 5, 24, 25, 100, 1023])
def test_path_levels_are_binomial(n):
    # k aligned edges: 2 C(N - 1, k) states.  Counts past 2^53 carry rounding.
    path = build_model(f"path-{n}")
    aligned = list(range(n - 1, -1, -1))
    expected = [2.0 * math.comb(n - 1, k) for k in aligned]
    assert path.energies.tolist() == [-float(k) for k in aligned]
    np.testing.assert_allclose(path.counts, expected, rtol=1e-12)
    if n <= 53:
        assert path.counts.tolist() == expected
    assert path.counts.sum() == pytest.approx(2.0 ** n, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 24, 25, 1023])
def test_cycle_levels_are_binomial(n):
    # k aligned edges: 2 C(N, N - k) states when N - k is even, else none.
    cycle = build_model(f"cycle-{n}")
    aligned = [k for k in range(n, -1, -1) if (n - k) % 2 == 0]
    expected = [2.0 * math.comb(n, n - k) for k in aligned]
    assert cycle.energies.tolist() == [-float(k) for k in aligned]
    np.testing.assert_allclose(cycle.counts, expected, rtol=1e-12)
    if n <= 53:
        assert cycle.counts.tolist() == expected


@pytest.mark.parametrize("n", [2, 5, 24, 25, 100, 1023])
@pytest.mark.parametrize("beta", [0.25, 1.0])
def test_path_and_cycle_truth_match_closed_forms(n, beta):
    # Z = 2 (1 + e^b)^(N-1) on a path and (e^b + 1)^N + (e^b - 1)^N on a
    # cycle, in log form: (e + 1)^1023 overflows float64.
    e = math.exp(beta)
    path = math.log(2.0) + (n - 1) * math.log1p(e)
    assert log_partition_exact(build_model(f"path-{n}"), beta) == pytest.approx(path, rel=1e-12)
    if n >= 3:
        cycle = n * math.log(e + 1.0) + math.log1p(((e - 1.0) / (e + 1.0)) ** n)
        got = log_partition_exact(build_model(f"cycle-{n}"), beta)
        assert got == pytest.approx(cycle, rel=1e-12)


def test_log_partition_reads_levels_past_the_guard(c4, monkeypatch):
    # The levels are in memory, so the truth needs no enumeration.
    monkeypatch.setattr(models, "ENUMERATION_GUARD", 8)
    assert log_partition_exact(c4, 1.0) == pytest.approx(
        brute_log_partition(brute_ising_energies(c4.graph.edges, 4), 1.0), abs=1e-12
    )


def test_log_partition_k2_closed_form(k2):
    # Z(beta) = 2 e^beta + 2
    assert log_partition_exact(k2, 0.0) == pytest.approx(math.log(4.0), abs=1e-12)
    got = log_partition_exact(k2, 1.0)
    assert got == pytest.approx(math.log(2 * math.e + 2), abs=1e-12)
    assert got == pytest.approx(2.006408868078168, abs=1e-12)


@pytest.mark.parametrize("label,model", tiny_models())
@pytest.mark.parametrize("beta", BETA_GRID)
def test_log_partition_matches_bruteforce(label, model, beta):
    assert log_partition_exact(model, beta) == pytest.approx(
        brute_z(model, beta), abs=1e-10
    )


def test_flat_model_log_partition_is_log_omega():
    model = table_model([0.0] * 7)
    for beta in BETA_GRID:
        assert log_partition_exact(model, beta) == pytest.approx(
            math.log(7), abs=1e-12
        )


def test_shift_identity_trivial(k2):
    assert shift_hamiltonian(k2, 0.0) is k2


def test_shift_k2_example(k2):
    shifted = shift_hamiltonian(k2, -2.0)
    got = log_partition_exact(shifted, 1.0)
    assert got == pytest.approx(math.log(2 * math.e + 2) + 2.0, abs=1e-12)


def test_shift_mixed_makes_strictly_negative(mixed_table):
    n = mixed_table.n_bound
    shifted = shift_hamiltonian(mixed_table, -2.0 * n)
    # H' = H - 2n lands in [-3n, -n]: strictly negative, so TPA applies.
    assert shifted.sign_class == "nonpositive"
    assert shifted.energies.max() == -n
    assert shifted.energies.min() >= -3 * n


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(-5, 5), min_size=1, max_size=12),
    c=st.floats(-4, 4),
    beta=st.floats(0.0, 3.0),
)
@example(values=[0.0], c=1.000000000001, beta=0.0)
def test_shift_log_partition_identity(values, c, beta):
    model = table_model(values)
    shifted = shift_hamiltonian(model, c)
    lhs = log_partition_exact(shifted, beta)
    rhs = log_partition_exact(model, beta) - beta * c
    assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("label,model", tiny_models())
def test_z_is_convex(label, model):
    betas = np.linspace(0.0, 2.0, 41)
    z = np.array([log_partition_exact(model, b) for b in betas])
    second = z[:-2] - 2 * z[1:-1] + z[2:]
    assert np.all(second >= -1e-9)


@pytest.mark.parametrize("label,model", tiny_models())
def test_z_slope_is_mean_neg_energy(label, model):
    h = 1e-5
    for beta in [0.1, 0.5, 1.0, 1.7]:
        fd = (
            log_partition_exact(model, beta + h)
            - log_partition_exact(model, beta - h)
        ) / (2 * h)
        assert fd == pytest.approx(mean_neg_energy(model, beta), abs=1e-6)


def test_log_ratio_sign_conventions(k2, const1):
    assert log_ratio_exact(k2, 1.0) > 0  # H <= 0: Z increases
    assert log_ratio_exact(const1, 1.0) == pytest.approx(-1.0, abs=1e-12)


def test_constant_model_flags():
    model = constant_model(-2.0)
    assert model.counts.tolist() == [4.0]
    assert model.sign_class == "nonpositive"
    assert model.n_bound == 2
    half = constant_model(0.5)
    assert not half.integer_valued
    assert half.n_bound == 1


def test_n_bound_dominates_energies_just_above_an_integer():
    assert table_model([1.000000000001]).n_bound == 2
    assert table_model([-3.0, 2.0]).n_bound == 3


def test_grid_2x2_equals_cycle(c4, grid22):
    assert grid22.energies.tolist() == c4.energies.tolist()
    assert grid22.counts.tolist() == c4.counts.tolist()
    assert len(grid_edges(2, 3)) == 7


def test_model_validation_catches_inconsistency(k2):
    with pytest.raises(ValueError):
        table_model([])


# Hand-written files, read back as the built-in constructors build the model.
@pytest.mark.parametrize(
    "spec,built",
    [
        ({"type": "ising", "num_vertices": 2, "edges": [[0, 1]]}, lambda: build_model("k2")),
        (
            {"type": "ising", "num_vertices": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]},
            lambda: grid_model(2, 2),
        ),
        ({"type": "table", "hamiltonian": [-2, -1, 0, 1, 2]}, lambda: table_model([-2.0, -1.0, 0.0, 1.0, 2.0])),
    ],
    ids=["k2", "grid-2x2", "mixed-5"],
)
def test_model_from_dict_reads_hand_written_specs(spec, built):
    loaded, model = model_from_dict(spec), built()
    assert loaded.energies.tolist() == model.energies.tolist()
    assert loaded.counts.tolist() == model.counts.tolist()
    assert loaded.graph == model.graph
    assert (loaded.n_bound, loaded.sign_class, loaded.integer_valued) == (
        model.n_bound, model.sign_class, model.integer_valued
    )


def test_json_loader_validates(tmp_path):
    with pytest.raises(ValueError):
        model_from_dict({"type": "spin-glass"})
    with pytest.raises(ValueError):
        model_from_dict({"type": "table", "hamiltonian": []})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "ising", "num_vertices": 2, "edges": [[0, 0]]}))
    with pytest.raises(ValueError):
        load_model(path)


# --- levels as the model ----------------------------------------------------

GRID_SHAPES = [(r, c) for r in range(1, 17) for c in range(1, 17) if r * c <= 16]


@pytest.mark.parametrize("rows,cols", GRID_SHAPES)
def test_grid_model_levels_match_enumeration(rows, cols):
    grid = grid_model(rows, cols)
    enumerated = ising_model(grid_edges(rows, cols), rows * cols)
    brute = brute_ising_energies(grid_edges(rows, cols), rows * cols)
    energies, counts = np.unique(brute, return_counts=True)
    assert grid.energies.tolist() == enumerated.energies.tolist() == energies.tolist()
    assert grid.counts.tolist() == enumerated.counts.tolist() == counts.tolist()
    assert grid.graph == enumerated.graph
    assert grid.n_bound == enumerated.n_bound
    assert grid.counts.sum() == 2 ** (rows * cols)


@pytest.mark.parametrize("rows,cols", [(3, 3), (2, 5), (5, 2)])
def test_grid_model_state_table_is_built_on_first_read(rows, cols):
    # gibbs_distribution sums each state's energy from its spins when read.
    grid = grid_model(rows, cols)
    logw = -0.7 * np.array(brute_ising_energies(grid_edges(rows, cols), rows * cols))
    w = np.exp(logw - logw.max())
    assert gibbs_distribution(grid, 0.7).tolist() == (w / w.sum()).tolist()


def test_gibbs_distribution_at_infinite_b(k2):
    # pi_inf is uniform on the lowest-energy states and pi_-inf on the
    # highest, with no 0 * inf on the way (warnings are errors here).
    assert gibbs_distribution(k2, math.inf).tolist() == [0.5, 0, 0, 0.5]
    assert gibbs_distribution(k2, -math.inf).tolist() == [0, 0.5, 0.5, 0]
    pi = gibbs_distribution(grid_model(3, 3), math.inf)
    assert pi[0] == pi[-1] == 0.5 and pi.sum() == 1.0


@pytest.mark.parametrize("b", [4.5e307, 1e308, -1e308])
@pytest.mark.parametrize("spec", ["cycle-4", "k4"])
def test_gibbs_distribution_past_the_float_range_is_its_limit(spec, b):
    # -b E passes the float range at the extreme level (at every level of
    # K4 at b = -1e308, whose energies are all negative), so pi_b is the
    # law at b = +-inf, with no overflow warning and no nan.  The MCMC
    # kernel runs at b >= 0 only.
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    model = build_model(spec) if spec != "k4" else ising_model(k4, num_vertices=4)
    limit = gibbs_distribution(model, math.copysign(math.inf, b))
    assert gibbs_distribution(model, b).tolist() == limit.tolist()
    if b > 0:
        assert np.isfinite(mcmc_tv_curve(model, [b], 2)).all()


BYTE_SHAPES = [(r, c) for r in range(1, 9) for c in range(1, 9)] + [(10, 10), (12, 12), (3, 40)]


@pytest.mark.parametrize("rows,cols", BYTE_SHAPES)
def test_grid_levels_are_the_transfer_matrix_bytes(rows, cols):
    # Past 53 sites the counts carry rounding, so the sums must match in order.
    width = min(rows, cols)
    num_edges = len(grid_edges(rows, cols))
    energies, counts = _grid_levels(width, rows * cols // width, num_edges)
    grid = grid_model(rows, cols)
    assert grid.energies.tobytes() == energies.tobytes()
    assert grid.counts.tobytes() == counts.tobytes()


@pytest.mark.parametrize("label,model", tiny_models())
@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 2.0])
def test_level_truth_matches_per_state_sum(label, model, beta):
    per_state = float(scipy_logsumexp(-beta * state_energies(model)))
    assert log_partition_exact(model, beta) == pytest.approx(per_state, abs=1e-12)


@pytest.mark.parametrize("rows,cols", [(10, 10), (6, 9), (9, 6), (1, 30)])
@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
def test_grid_truth_past_the_guard_matches_row_transfer(rows, cols, beta):
    grid = grid_model(rows, cols)
    width = min(rows, cols)
    expected = row_transfer_log_partition(rows * cols // width, width, beta)
    assert log_partition_exact(grid, beta) == pytest.approx(expected, rel=1e-12)


def test_grid_8x8_counts_every_state():
    grid = grid_model(8, 8)
    assert log_partition_exact(grid, 0.0) == pytest.approx(64 * math.log(2), abs=1e-12)
    assert grid.counts.sum() == 2 ** 64
    assert len(grid.energies) == 111
    with pytest.raises(EnumerationGuardError):
        gibbs_distribution(grid, 0.5)


def test_grid_model_refuses_fronts_past_the_guard():
    with pytest.raises(EnumerationGuardError):
        grid_model(20, 20)
    with pytest.raises(EnumerationGuardError):
        grid_model(1, 1024)
    with pytest.raises(ValueError):
        grid_model(0, 3)


def test_shift_moves_levels_and_defers_the_table():
    grid = grid_model(3, 3)
    shifted = shift_hamiltonian(grid, -30.0)
    assert shifted.energies.tolist() == (grid.energies - 30.0).tolist()
    assert shifted.counts.tolist() == grid.counts.tolist()
    # The shifted model is its levels only: no graph and no states to list.
    assert shifted.graph is None
    with pytest.raises(ValueError, match="requires an Ising model"):
        gibbs_distribution(shifted, 1.0)
    # Levels that round to one energy merge, with their counts added.
    merged = shift_hamiltonian(table_model([0.0, 1e-17, 1e-17, 2.0]), 4.0)
    assert merged.energies.tolist() == [4.0, 6.0]
    assert merged.counts.tolist() == [3.0, 1.0]


def test_level_model_validation():
    graph = models.IsingGraph(num_vertices=1, edges=())
    levels_of = {
        "descending": dict(levels=([0.0, -1.0], [1.0, 1.0]), graph=graph),
        "empty level": dict(levels=([-1.0, 0.0], [1.0, 0.0]), graph=graph),
        "ragged": dict(levels=([-1.0, 0.0], [2.0]), graph=graph),
        "nan count": dict(levels=([0.0], [math.nan])),
        "inf count": dict(levels=([-1.0, 0.0], [2.0, math.inf])),
    }
    for kwargs in levels_of.values():
        with pytest.raises(ValueError):
            models.GibbsModel(**kwargs)


PICKLED_SPECS = ["k2", "path-5", "cycle-4", "grid-3x3", "grid-10x10", "const-2", "mixed-5"]


@pytest.mark.parametrize("shifted", [False, True], ids=["plain", "shifted"])
@pytest.mark.parametrize("spec", PICKLED_SPECS)
def test_models_pickle_as_plain_data(spec, shifted, tmp_path):
    if spec == "mixed-5":
        path = tmp_path / "mixed-5.json"
        path.write_text(json.dumps({"type": "table", "hamiltonian": [-2, -1, 0, 1, 2]}))
        spec = f"table:{path}"
    model = build_model(spec)
    if shifted:
        model = shift_hamiltonian(model, -2.0 * model.n_bound)
    copy = pickle.loads(pickle.dumps(model))
    for key in ("graph", "n_bound", "sign_class", "integer_valued"):
        assert getattr(copy, key) == getattr(model, key)
    absent = ("num_states", "name", "source", "shift", "table", "hamiltonian")
    assert not any(hasattr(copy, key) for key in absent)
    assert copy.energies.tobytes() == model.energies.tobytes()
    assert copy.counts.tobytes() == model.counts.tobytes()
    assert not copy.energies.flags.writeable and not copy.counts.flags.writeable
    assert not [key for key, value in vars(model).items() if callable(value)]


def test_an_ising_model_pickles_without_its_state_table():
    # path-1000 has 2^1000 states and keeps its graph; a table of 2^20
    # energies, 8 MB, keeps its 7 levels.
    assert len(pickle.dumps(build_model("path-1000"))) < 64 * 1024
    table = table_model(np.arange(2 ** 20) % 7)
    assert len(table.energies) == 7
    assert len(pickle.dumps(table)) < 4 * 1024


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.floats(-800, 800), st.sampled_from([0.0, 1.0, -1.0, 709.0, -math.inf])),
        min_size=1,
        max_size=60,
    ),
    scale=st.sampled_from([1e-3, 1.0, 500.0]),
)
def test_logsumexp_rounds_as_scipy(values, scale):
    a = np.array(values) * scale
    ours, scipys = models.logsumexp(a), float(scipy_logsumexp(a))
    assert ours == scipys or (math.isnan(ours) and math.isnan(scipys))


@pytest.mark.parametrize(
    "values",
    [
        [-math.inf],
        [math.inf, 1.0],
        [-math.inf, -math.inf],
        [math.nan, 1.0],
        [1e308, 1e308],
        [3.0] * 7,
        np.linspace(-5.0, 5.0, 20_000),
    ],
)
def test_logsumexp_edge_cases_round_as_scipy(values):
    a = np.asarray(values, dtype=float)
    ours, scipys = models.logsumexp(a), float(scipy_logsumexp(a))
    assert ours == scipys or (math.isnan(ours) and math.isnan(scipys))


@pytest.mark.parametrize(
    "values",
    [
        [2.5],
        [-math.inf],
        [math.inf],
        [math.nan],
        [-math.inf, -math.inf],
        [math.inf, 1.0, math.inf],
        [math.nan, 1.0, -math.inf],
        [1.0, -math.inf, 1.0, 0.5],
        [-3.0] * 5 + [-7.25, -math.inf],
        # k2's ln W shape: most entries tie at the top.
        np.r_[np.zeros(5_268), -np.random.default_rng(22).exponential(1.0, 1_949)],
    ],
)
def test_logsumexp_matches_the_exp_of_top_formula_byte_for_byte(values):
    a = np.asarray(values, dtype=float)
    ours = np.float64(models.logsumexp(a)).tobytes()
    assert ours == np.float64(logsumexp_exp_of_top(a)).tobytes()
