"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's vectorized code paths:
partition sums run over explicit Boltzmann terms with math.fsum, and Ising
energies are recomputed from spin tuples via itertools.  Tests freeze
expected values computed from these oracles, never from the code they
check.
"""

import itertools
import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from gibbs_partition import (
    constant_model,
    cycle_edges,
    exp_or_inf,
    grid_edges,
    ising_model,
    paired_replicate_logs,
    path_edges,
    table_model,
)
from gibbs_partition.samplers import KIND_EXACT


def brute_log_partition(values, beta):
    """ln sum exp(-beta*H) over an explicit energy list, via fsum."""
    terms = [-beta * float(h) for h in values]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def brute_ising_energies(edges, num_vertices):
    """H(x) for every state, recomputed from explicit spin tuples.

    Matches the library's state indexing contract: spin(v) of state s is +1
    iff bit v of s is set.
    """
    energies = [None] * (2 ** num_vertices)
    for spins in itertools.product((-1, 1), repeat=num_vertices):
        s = sum(1 << v for v, spin in enumerate(spins) if spin == 1)
        energies[s] = -float(sum(1 for i, j in edges if spins[i] == spins[j]))
    return energies


def level_cdf(oracle, b):
    """The oracle model's level CDF at b, as a list, added left to right.

    cw[l] = sum over levels j <= l of m_j exp(-b E_j), scaled by the largest
    term, with the trailing levels whose weight underflowed to zero dropped:
    they are never drawn, and the top level left has a step of positive
    width.
    """
    model = oracle.model
    logw = -b * model.energies
    cw = list(itertools.accumulate((model.counts * np.exp(logw - max(logw[0], logw[-1]))).tolist()))
    del cw[bisect_left(cw, cw[-1]) + 1 :]
    return cw


def draw_exact(oracle, b, rng):
    """Reference exact draw: one state from pi_b by inversion over states
    sorted by (energy, index).

    The uniform picks a level by CDF inversion over levels; where it lands
    inside that level's CDF step picks one of the level's equally weighted
    states.  The sorted states and where each level starts in that order
    are kept on the oracle as ``_by_level``, built on first use.  The draw
    is recorded in the oracle's counter, as a library draw is.
    """
    if oracle.kind != KIND_EXACT:
        raise ValueError("draw_exact needs an exact-enumeration oracle")
    if getattr(oracle, "_by_level", None) is None:
        counts = oracle.model.counts.astype(np.int64)
        order = np.argsort(oracle.model.hamiltonian, kind="stable")
        oracle._by_level = order, np.cumsum(counts) - counts
    order, starts = oracle._by_level
    cw = level_cdf(oracle, b)
    t = rng.random() * cw[-1]
    oracle.counter.record(b)
    # t can round up to cw[-1], where bisect_right runs past the top level.
    level = min(bisect_right(cw, t), len(cw) - 1)
    lo = cw[level - 1] if level else 0.0
    m = int(oracle.model.counts[level])
    offset = min(int((t - lo) / (cw[level] - lo) * m), m - 1)
    return int(order[starts[level] + offset])


def draw_state(oracle, b, rng):
    """One state index from the reference draw for the oracle's kind; it
    consumes ``rng`` as one library draw at b does."""
    if oracle.kind == KIND_EXACT:
        return draw_exact(oracle, b, rng)
    return draw_mcmc(oracle, b, rng)


def pack_states(spins):
    """State indices of the columns of an (nv, n) spin array: bit v of a
    state is set iff its spin at site v is +1."""
    return (spins.astype(np.int64) << np.arange(len(spins))[:, None]).sum(axis=0)


def _metropolis_sweep(state, adj, b, us):
    """One systematic Metropolis sweep of one chain, site v reading us[v].

    Flipping site v with a currently-aligned neighbors is accepted with
    probability min(1, exp(-b * deltaH)), deltaH = 2a - deg(v), computed
    with math.exp.
    """
    for v, nbrs in enumerate(adj):
        sv = (state >> v) & 1
        aligned = sum(1 for u in nbrs if ((state >> u) & 1) == sv)
        delta = 2 * aligned - len(nbrs)
        if us[v] < (1.0 if delta <= 0 else math.exp(-b * delta)):
            state ^= 1 << v
    return state


def draw_mcmc(oracle, b, rng):
    """Reference restart-Metropolis draw: one chain, one site at a time.

    The state after ``oracle.mcmc_steps`` systematic Metropolis sweeps from
    a uniform start, with the sweeps' uniforms drawn as one block.  The draw
    is recorded in the oracle's counter, as a library draw is.
    """
    adj = oracle.model.graph.adjacency()
    nv = len(adj)
    state = int(rng.integers(0, 2 ** nv))
    steps = oracle.mcmc_steps
    if steps > 0:
        us = rng.random(steps * nv)
        for k in range(steps):
            state = _metropolis_sweep(state, adj, b, us[k * nv : (k + 1) * nv])
    oracle.counter.record(b)
    return state


def draw_mcmc_chains(oracle, b, n, rng):
    """Reference lockstep draw: n restart chains, each one site at a time.

    Replays the lockstep stream contract: n start states from one
    ``rng.integers`` call, then one (nv, n) block of uniforms per sweep, and
    chain j sweeps on column j of each block.  ``b`` is one value or one per
    chain.  Returns the n states as a list of ints.
    """
    adj = oracle.model.graph.adjacency()
    nv = len(adj)
    bs = np.asarray(b, dtype=float).tolist() if np.ndim(b) else [b] * n
    states = rng.integers(0, 2 ** nv, size=n).tolist()
    for _ in range(oracle.mcmc_steps):
        us = rng.random((nv, n))
        states = [_metropolis_sweep(s, adj, bs[j], us[:, j]) for j, s in enumerate(states)]
    return states


def paired_replicate(schedule, oracle, rng):
    """One (W, V) pair: the library's r = 1 replicate block, exponentiated."""
    log_ws, log_vs = paired_replicate_logs(schedule, oracle, 1, rng)
    return exp_or_inf(log_ws.item()), exp_or_inf(log_vs.item())


def brute_z(model, beta):
    return brute_log_partition(model.hamiltonian.tolist(), beta)


def row_transfer_log_partition(rows, cols, beta):
    """ln Z(beta) of the free-boundary rows x cols Ising grid, H = -#aligned edges.

    Sums Boltzmann weights at one beta with a row-to-row transfer matrix over
    the 2^cols spin rows, rescaling after each row, so it shares nothing with
    the library's site-by-site count of energy levels.
    """
    bits = (np.arange(2 ** cols)[:, None] >> np.arange(cols)) & 1
    within = (bits[:, 1:] == bits[:, :-1]).sum(axis=1)
    between = (bits[:, None, :] == bits[None, :, :]).sum(axis=2)
    step = np.exp(beta * (between + within[None, :]))
    weights = np.exp(beta * within)
    log_scale = 0.0
    for _ in range(rows - 1):
        weights = weights @ step
        top = weights.max()
        log_scale += math.log(top)
        weights = weights / top
    return log_scale + math.log(weights.sum())


@pytest.fixture
def k2():
    return ising_model([(0, 1)], num_vertices=2)


@pytest.fixture
def path3():
    return ising_model(path_edges(3), num_vertices=3)


@pytest.fixture
def c4():
    return ising_model(cycle_edges(4), num_vertices=4)


@pytest.fixture
def grid22():
    return ising_model(grid_edges(2, 2), num_vertices=4)


@pytest.fixture
def const1():
    return constant_model(1.0)


@pytest.fixture
def mixed_table():
    return table_model([-2.0, -1.0, 0.0, 1.0, 2.0])


def tiny_models():
    """The built-in desk-scale menagerie, as (label, model) pairs."""
    return [
        ("k2", ising_model([(0, 1)], num_vertices=2)),
        ("path-3", ising_model(path_edges(3), num_vertices=3)),
        ("cycle-4", ising_model(cycle_edges(4), num_vertices=4)),
        ("grid-2x2", ising_model(grid_edges(2, 2), num_vertices=4)),
        ("const-1", constant_model(1.0)),
        ("mixed-5", table_model([-2.0, -1.0, 0.0, 1.0, 2.0])),
    ]


def z_grid(model, betas):
    return np.array([brute_z(model, b) for b in betas])
