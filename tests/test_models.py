"""Model core: constructors, the exact oracle, and the shift transform."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gibbs_partition.models as models
from gibbs_partition import (
    EnumerationGuardError,
    constant_model,
    grid_edges,
    ising_model,
    load_model,
    log_partition_exact,
    log_ratio_exact,
    mean_neg_energy,
    model_from_dict,
    model_to_dict,
    save_model,
    shift_hamiltonian,
    table_model,
)

from conftest import brute_ising_energies, brute_z, tiny_models

BETA_GRID = [0.0, 0.25, 0.5, 1.0, 2.0]


def test_k2_energy_table(k2):
    # Omega = {-1,1}^2, H = -1[x1 = x2]: two aligned states, two split ones.
    assert sorted(k2.hamiltonian.tolist()) == [-1.0, -1.0, 0.0, 0.0]
    assert k2.n_bound == 1
    assert k2.sign_class == "nonpositive"
    assert k2.integer_valued


def test_c4_ground_states(c4):
    h = c4.hamiltonian
    assert h.size == 16
    assert h.min() == -4.0
    assert np.sum(h == -4.0) == 2  # all-up and all-down


def test_empty_edge_set_is_flat():
    model = ising_model([], num_vertices=3)
    assert np.all(model.hamiltonian == 0.0)
    assert model.sign_class == "nonpositive"


@pytest.mark.parametrize("label,model", tiny_models())
def test_ising_tables_match_bruteforce(label, model):
    if model.graph is None:
        pytest.skip("table model")
    expected = brute_ising_energies(model.graph.edges, model.graph.num_vertices)
    assert model.hamiltonian.tolist() == expected


@pytest.mark.parametrize("bad_edges", [[(0, 0)], [(0, 1), (1, 0)], [(0, 2)]])
def test_ising_rejects_bad_edges(bad_edges):
    with pytest.raises(ValueError):
        ising_model(bad_edges, num_vertices=2)


def test_ising_enumeration_guard():
    with pytest.raises(EnumerationGuardError):
        ising_model([(0, 1)], num_vertices=25)


def test_log_partition_guard_refuses_large_spaces(c4, monkeypatch):
    monkeypatch.setattr(models, "ENUMERATION_GUARD", 8)
    with pytest.raises(EnumerationGuardError, match="oracle"):
        log_partition_exact(c4, 1.0)


def test_log_partition_k2_closed_form(k2):
    # Z(beta) = 2 e^beta + 2
    assert log_partition_exact(k2, 0.0).value == pytest.approx(math.log(4.0), abs=1e-12)
    got = log_partition_exact(k2, 1.0).value
    assert got == pytest.approx(math.log(2 * math.e + 2), abs=1e-12)
    assert got == pytest.approx(2.006408868078168, abs=1e-12)


@pytest.mark.parametrize("label,model", tiny_models())
@pytest.mark.parametrize("beta", BETA_GRID)
def test_log_partition_matches_bruteforce(label, model, beta):
    assert log_partition_exact(model, beta).value == pytest.approx(
        brute_z(model, beta), abs=1e-10
    )


def test_flat_model_log_partition_is_log_omega():
    model = table_model([0.0] * 7)
    for beta in BETA_GRID:
        assert log_partition_exact(model, beta).value == pytest.approx(
            math.log(7), abs=1e-12
        )


def test_shift_identity_trivial(k2):
    assert shift_hamiltonian(k2, 0.0) is k2


def test_shift_k2_example(k2):
    shifted = shift_hamiltonian(k2, -2.0)
    got = log_partition_exact(shifted, 1.0).value
    assert got == pytest.approx(math.log(2 * math.e + 2) + 2.0, abs=1e-12)


def test_shift_mixed_makes_strictly_negative(mixed_table):
    n = mixed_table.n_bound
    shifted = shift_hamiltonian(mixed_table, -2.0 * n)
    # H' = H - 2n lands in [-3n, -n]: strictly negative, so TPA applies.
    assert shifted.sign_class == "nonpositive"
    assert shifted.hamiltonian.max() == -n
    assert shifted.hamiltonian.min() >= -3 * n


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
    lhs = log_partition_exact(shifted, beta).value
    rhs = log_partition_exact(model, beta).value - beta * c
    assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("label,model", tiny_models())
def test_z_is_convex(label, model):
    betas = np.linspace(0.0, 2.0, 41)
    z = np.array([log_partition_exact(model, b).value for b in betas])
    second = z[:-2] - 2 * z[1:-1] + z[2:]
    assert np.all(second >= -1e-9)


@pytest.mark.parametrize("label,model", tiny_models())
def test_z_slope_is_mean_neg_energy(label, model):
    h = 1e-5
    for beta in [0.1, 0.5, 1.0, 1.7]:
        fd = (
            log_partition_exact(model, beta + h).value
            - log_partition_exact(model, beta - h).value
        ) / (2 * h)
        assert fd == pytest.approx(mean_neg_energy(model, beta), abs=1e-6)


def test_log_ratio_sign_conventions(k2, const1):
    assert log_ratio_exact(k2, 1.0) > 0  # H <= 0: Z increases
    assert log_ratio_exact(const1, 1.0) == pytest.approx(-1.0, abs=1e-12)


def test_constant_model_flags():
    model = constant_model(-2.0, num_states=3)
    assert model.sign_class == "nonpositive"
    assert model.n_bound == 2
    half = constant_model(0.5)
    assert not half.integer_valued
    assert half.n_bound == 1


def test_n_bound_dominates_energies_just_above_an_integer():
    assert table_model([1.000000000001]).n_bound == 2
    assert table_model([-3.0, 2.0]).n_bound == 3


def test_grid_2x2_equals_cycle(c4, grid22):
    assert sorted(grid22.hamiltonian.tolist()) == sorted(c4.hamiltonian.tolist())
    assert len(grid_edges(2, 3)) == 7


def test_model_validation_catches_inconsistency(k2):
    with pytest.raises(ValueError):
        models.GibbsModel(
            hamiltonian=k2.hamiltonian,
            n_bound=1,
            sign_class="nonnegative",
            integer_valued=True,
        )
    with pytest.raises(ValueError):
        models.GibbsModel(
            hamiltonian=k2.hamiltonian,
            n_bound=0,
            sign_class="nonpositive",
            integer_valued=True,
        )
    with pytest.raises(ValueError):
        table_model([])


def test_json_roundtrip(tmp_path, k2, mixed_table):
    for model in (k2, mixed_table):
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.hamiltonian.tolist() == model.hamiltonian.tolist()
        assert loaded.sign_class == model.sign_class


def test_json_loader_validates(tmp_path):
    assert model_to_dict(table_model([1.0]))["type"] == "table"
    with pytest.raises(ValueError):
        model_from_dict({"type": "spin-glass"})
    with pytest.raises(ValueError):
        model_from_dict({"type": "table", "hamiltonian": []})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "ising", "num_vertices": 2, "edges": [[0, 0]]}))
    with pytest.raises(ValueError):
        load_model(path)
