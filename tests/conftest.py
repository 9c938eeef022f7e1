"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's vectorized code paths:
partition sums run over explicit Boltzmann terms with math.fsum, and Ising
energies are recomputed from spin tuples via itertools.  Tests freeze
expected values computed from these oracles, never from the code they
check.
"""

import functools
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
from gibbs_partition.models import require_enumerable
from gibbs_partition import samplers


def brute_log_partition(values, beta):
    """ln sum exp(-beta*H) over an explicit energy list, via fsum."""
    terms = [-beta * float(h) for h in values]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def mean_neg_energy(model, beta):
    """E[-H(X)] for X ~ pi_beta, the slope z'(beta), as fsum over the levels."""
    logw = [math.log(m) - beta * float(e) for e, m in zip(model.energies, model.counts)]
    top = max(logw)
    w = [math.exp(t - top) for t in logw]
    return math.fsum(-float(e) * x for e, x in zip(model.energies, w)) / math.fsum(w)


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


@functools.lru_cache(maxsize=None)
def _graph_energies(graph):
    energies = np.array(brute_ising_energies(graph.edges, graph.num_vertices))
    energies.flags.writeable = False
    return energies


def state_energies(model):
    """H(x) for every state of ``model``, under the enumeration guard.

    An Ising model's come from its graph by ``brute_ising_energies``, in
    state-index order; any other model's are its levels expanded in
    ascending energy order, which is the only state order its levels fix.
    """
    require_enumerable(model)
    if model.graph is not None:
        return _graph_energies(model.graph)
    return np.repeat(model.energies, model.counts.astype(np.int64))


# The byte reference for grid levels: a transfer matrix over the grid's
# shorter side, whose sums grid_model must repeat in the same order.
def _grid_levels(width: int, length: int, num_edges: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels of H = -#aligned edges on a free-boundary length x width grid.

    count[p, k] counts the spin assignments of the sites visited so far, in
    line order, that have k aligned edges and whose front (the last visited
    site of each of the width columns) has spins p, bit c set iff spin +1.
    Visiting site (r, c) replaces bit c.  The new spin meets its left
    neighbour, bit c - 1, visited just before, and the site above it, the
    old bit c.  So each new pattern gathers the two old patterns that differ
    from it in bit c, with their counts shifted by 0, 1 or 2 aligned edges.
    """
    patterns = np.arange(2 ** width)
    size = patterns.size
    # Rows of shifted.reshape(3 * size, -1) each new pattern gathers, per
    # column: one source in the first line, which has no site above, and
    # the two sources (old bit c = 0, 1) after it.
    first, later = [], []
    for c in range(width):
        spin = (patterns >> c) & 1
        left = (((patterns >> (c - 1)) & 1) == spin).astype(np.int64) if c else 0
        cleared = patterns & ~(1 << c)
        first.append(left * size + cleared)
        later.append([(left + (up == spin)) * size + (cleared | (up << c)) for up in (0, 1)])
    count = np.zeros((size, num_edges + 1))
    count[0, 0] = 1.0
    # shifted[d, p, k] = count[p, k - d]; the first d columns stay zero.
    shifted = np.zeros((3, size, num_edges + 1))
    flat = shifted.reshape(3 * size, num_edges + 1)
    for r in range(length):
        for c in range(width):
            shifted[0] = count
            shifted[1, :, 1:] = count[:, :-1]
            shifted[2, :, 2:] = count[:, :-2]
            if r:
                up0, up1 = later[c]
                count = flat[up0] + flat[up1]
            else:
                count = flat[first[c]]
    totals = count.sum(axis=0)
    aligned = np.flatnonzero(totals)[::-1]
    return (-aligned).astype(np.float64), totals[aligned]


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
    if not isinstance(oracle, samplers.ExactOracle):
        raise ValueError("draw_exact needs an exact oracle")
    if getattr(oracle, "_by_level", None) is None:
        counts = oracle.model.counts.astype(np.int64)
        order = np.argsort(state_energies(oracle.model), kind="stable")
        oracle._by_level = order, np.cumsum(counts) - counts
    order, starts = oracle._by_level
    cw = level_cdf(oracle, b)
    t = rng.random() * cw[-1]
    oracle.counter.record(1)
    # t can round up to cw[-1], where bisect_right runs past the top level.
    level = min(bisect_right(cw, t), len(cw) - 1)
    lo = cw[level - 1] if level else 0.0
    m = int(oracle.model.counts[level])
    offset = min(int((t - lo) / (cw[level] - lo) * m), m - 1)
    return int(order[starts[level] + offset])


def draw_state(oracle, b, rng):
    """One state index from the reference draw for the oracle's class; it
    consumes ``rng`` as one library draw at b does."""
    if isinstance(oracle, samplers.ExactOracle):
        return draw_exact(oracle, b, rng)
    return draw_mcmc(oracle, b, rng)


def pack_states(spins):
    """State indices of the columns of an (nv, n) spin array: bit v of a
    state is set iff its spin at site v is +1."""
    return (spins.astype(np.int64) << np.arange(len(spins))[:, None]).sum(axis=0)


def split_threshold(t):
    """(whole, part) of min(1, t) * 2^8: whole = min(floor, 2^8 - 1) as a
    Python int and part the float remainder, both exact."""
    scaled = math.ldexp(min(t, 1.0), 8)
    whole = min(math.floor(scaled), 2**8 - 1)
    return whole, scaled - whole


def _metropolis_sweep(state, adj, splits, us, vs):
    """One systematic Metropolis sweep of one chain, site v reading us[v].

    Flipping site v with a currently-aligned neighbors is accepted with
    probability min(1, exp(-b * deltaH)), deltaH = 2a - deg(v); for
    deltaH > 0 ``splits[deltaH]`` is that threshold split at 8 bits: the
    8-bit uniform us[v] accepts below the whole, and at the whole the tie
    double vs[v] decides against the part.
    """
    for v, nbrs in enumerate(adj):
        sv = (state >> v) & 1
        aligned = sum(1 for u in nbrs if ((state >> u) & 1) == sv)
        delta = 2 * aligned - len(nbrs)
        if delta <= 0:
            state ^= 1 << v
            continue
        whole, part = splits[delta]
        if us[v] < whole or (us[v] == whole and vs[v] < part):
            state ^= 1 << v
    return state


def _uniforms8(rng, count):
    """count 8-bit uniforms from ceil(count / 8) raw generator words, each
    word's bytes low byte first; the unused bytes of the last word are
    dropped."""
    words = rng.bit_generator.random_raw((count + 7) // 8).tolist()
    return [(w >> shift) & 0xFF for w in words for shift in range(0, 64, 8)][:count]


def draw_mcmc(oracle, b, rng):
    """Reference restart-Metropolis draw: the lockstep reference at one chain.

    The draw is recorded in the oracle's counter, as a library draw is.
    """
    state = draw_mcmc_chains(oracle, b, 1, rng)[0]
    oracle.counter.record(1)
    return state


def draw_mcmc_chains(oracle, b, n, rng):
    """Reference lockstep draw: n restart chains, each one site at a time.

    Replays the lockstep stream contract: n start states from one
    ``rng.integers`` call, then per sweep nv * n 8-bit uniforms from raw
    generator words, site-major, chain j sweeping on entry v * n + j for
    site v.  Sweeps come in blocks of as many as fit in
    ``samplers._UNIFORM_CAP`` uniforms, read at call time as the kernel
    reads it; after a block's words, each uniform that equals the 8-bit
    whole of one of its site's thresholds (one per aligned count from
    deg // 2 + 1 to deg) at its chain's b draws one double, in (sweep, site,
    chain) order.  A call whose every b is 0 reads only its start states:
    there every proposal passes whatever it reads, so its sweeps run on the
    largest 8-bit uniform and the largest tie double below 1.  ``b`` is
    one value or one per chain.  Returns the n states as a list of ints.
    """
    adj = oracle.model.graph.adjacency()
    nv = len(adj)
    bs = np.asarray(b, dtype=float).tolist() if np.ndim(b) else [b] * n
    deltas = {2 * a - len(nbrs) for nbrs in adj for a in range(len(nbrs) // 2 + 1, len(nbrs) + 1)}

    @functools.lru_cache(maxsize=None)
    def splits(bj):
        """split_threshold(math.exp(-bj * deltaH)) for each deltaH > 0 of the graph."""
        return {d: split_threshold(math.exp(-bj * d)) for d in deltas}

    states = rng.integers(0, 2 ** nv, size=n).tolist()
    if not any(bs):
        largest = [2**8 - 1] * nv, [1.0 - 2.0**-53] * nv
        for _ in range(oracle.mcmc_steps):
            states = [_metropolis_sweep(s, adj, splits(0.0), *largest) for s in states]
        return states

    @functools.lru_cache(maxsize=None)
    def wholes(bj):
        return [
            {splits(bj)[2 * a - len(nbrs)][0] for a in range(len(nbrs) // 2 + 1, len(nbrs) + 1)}
            for nbrs in adj
        ]

    per_block = max(1, samplers._UNIFORM_CAP // max(1, nv * n))
    for lo in range(0, oracle.mcmc_steps, per_block):
        block = [_uniforms8(rng, nv * n) for _ in range(min(per_block, oracle.mcmc_steps - lo))]
        tied = [
            (k, v * n + j)
            for k, us in enumerate(block)
            for v in range(nv)
            for j in range(n)
            if us[v * n + j] in wholes(bs[j])[v]
        ]
        ties = [{} for _ in block]
        for (k, cell), v in zip(tied, rng.random(len(tied)).tolist() if tied else []):
            ties[k][cell] = v
        for k, us in enumerate(block):
            states = [
                _metropolis_sweep(
                    s, adj, splits(bs[j]), us[j::n], [ties[k].get(v * n + j) for v in range(nv)]
                )
                for j, s in enumerate(states)
            ]
    return states


def metropolis_sweep_matrix(model, b):
    """Reference one-sweep transition matrix of the systematic Metropolis
    kernel, dense over all 2^n states, built state by state.

    Site v of state s flips with probability min(1, exp(-b deltaH)),
    deltaH = 2a - deg(v) for a neighbours aligned with it; the sweep is the
    product of the nv site matrices in site order.
    """
    require_enumerable(model)
    adj = model.graph.adjacency()
    size = 2 ** len(adj)
    sweep = np.eye(size)
    for v, nbrs in enumerate(adj):
        site = np.zeros((size, size))
        for s in range(size):
            sv = (s >> v) & 1
            aligned = sum(1 for u in nbrs if ((s >> u) & 1) == sv)
            delta = 2 * aligned - len(nbrs)
            acc = 1.0 if delta <= 0 else math.exp(-b * delta)
            site[s, s ^ (1 << v)] = acc
            site[s, s] = 1.0 - acc
        sweep = sweep @ site
    return sweep


def matrix_draw_distribution(model, b, sweeps):
    """Reference law of a restart-MCMC draw: the uniform start law times the
    sweep matrix to the power ``sweeps``."""
    size = 1 << model.graph.num_vertices
    return np.full(size, 1.0 / size) @ np.linalg.matrix_power(
        metropolis_sweep_matrix(model, b), sweeps
    )


def logsumexp_exp_of_top(a) -> float:
    """Reference ``models.logsumexp`` that exponentiates -inf in place of
    each top entry, so exp(-inf - top) puts its 0 in the shifted sum."""
    a = np.asarray(a, dtype=np.float64)
    top = a.max(keepdims=True)
    at_top = a == top
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = np.sum(at_top, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), keepdims=True) / m
        out = np.log1p(s) + np.log(m) + top
        if not np.isfinite(out[0]):
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return float(out[0])


def paired_replicate(schedule, oracle, rng):
    """One (W, V) pair: the library's r = 1 replicate block, exponentiated."""
    log_ws, log_vs = paired_replicate_logs(schedule, oracle, 1, rng)
    return exp_or_inf(log_ws.item()), exp_or_inf(log_vs.item())


def brute_z(model, beta):
    return brute_log_partition(state_energies(model).tolist(), beta)


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
