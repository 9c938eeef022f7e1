"""Sampling oracles for pi_b: exact enumeration and restart-Metropolis MCMC.

Every consumer of draws reads only the energy H(X), so the oracle contract
is ``draw_energies(b, n, rng)`` for n independent draws at one b, or a
(len(b), n) block for a 1-d array of b, and ``draw_energies_at(bs, rng)``
for one draw at each b of an array; no draw path keeps a state index or
reads the state table.  The exact oracle samples from the model's density
of states (its distinct energy levels and their multiplicities), so building
it and a draw at a fresh b cost O(levels), not O(states).  One builder,
``_level_cdfs``, makes every level CDF, one column per b; one draw per b
inverts by counting down the column, and a row of n draws at one b through
a guide table over it, O(1) per draw on average.  The MCMC oracle runs
restart chains in lockstep on one (nv, n) spin array with one (nv, n)
block of uniforms per sweep, and sums each chain's energy from its spins.
Every draw consumes a caller-supplied numpy Generator and is counted by the
counter's one ``record`` method, whose running total is the ground truth
for all sample counts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .models import GibbsModel, require_enumerable

KIND_EXACT = "exact-enumeration"
KIND_MCMC = "mcmc"

# Entries per block of level-CDF columns in a draw at many fresh b values.
_MATRIX_CAP = 1 << 16


class DrawCounter:
    """Monotone running total of draws served."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def record(self, b: float | np.ndarray, n: int = 1) -> None:
        """n draws at b, or n at each entry of a 1-d array b."""
        self.total += n * np.asarray(b).size


@dataclass
class SamplerOracle:
    """Source of draws from pi_b for b in [0, beta].

    ``tv_budget_per_draw`` is a declared upper bound on the total-variation
    distance of each draw from pi_b (0 for exact sampling); the library only
    verifies the accounting arithmetic, not the bound itself.
    """

    model: GibbsModel
    kind: str
    tv_budget_per_draw: float = 0.0
    mcmc_steps: int = 0
    counter: DrawCounter = field(default_factory=DrawCounter)

    def __post_init__(self):
        if self.kind not in (KIND_EXACT, KIND_MCMC):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.kind == KIND_EXACT and self.tv_budget_per_draw != 0.0:
            raise ValueError("exact-enumeration oracles must declare tv budget 0")
        if not 0 <= self.tv_budget_per_draw < math.inf:
            raise ValueError("tv_budget_per_draw must be finite and nonnegative")
        if self.kind == KIND_MCMC:
            if self.model.graph is None:
                raise ValueError("mcmc sampling requires an Ising model")
            if self.mcmc_steps < 0:
                raise ValueError("mcmc_steps must be nonnegative")
            # Each chain starts from one rng.integers(0, 2**nv) state index,
            # so the guard stays until the start-state stream changes.
            require_enumerable(self.model.num_states)

    def draw(self, b: float, rng: np.random.Generator) -> float:
        """H(X) for one X ~ pi_b: one row of one ``draw_energies`` draw.

        No estimate calls it; the per-layer probes in ``perfbench`` do.
        """
        return float(self.draw_energies(b, 1, rng)[0])

    def draw_energies(
        self, b: float | np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """H(X) for n independent X ~ pi_b; a 1-d array of b gives one row per b.

        A scalar b returns n energies, and an array ``b`` a (len(b), n) block
        that consumes ``rng`` exactly as one call per entry, in order, would;
        the counter records n draws at each b.  For exact oracles the
        uniforms are one (len(b), n) block inverted through a guide table
        per row (see ``_draw_levels``); MCMC oracles run n restart chains
        in lockstep per row.
        """
        bs = np.atleast_1d(np.asarray(b, dtype=float))
        if self.kind == KIND_EXACT:
            block = _draw_levels(self, bs, n, rng)
        else:
            block = np.empty((len(bs), n))
            for row, row_b in zip(block, bs.tolist()):
                row[:] = _spin_energies(self.model, draw_mcmc_lockstep(self, row_b, n, rng))
        return block if np.ndim(b) else block[0]

    def draw_energies_at(self, bs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """H(X_j) for independent X_j ~ pi_{bs[j]}, one per entry of ``bs``.

        For exact oracles this equals ``[draw(b, rng) for b in bs]`` draw
        for draw; MCMC oracles run one restart chain per entry, each at its
        own b, in lockstep.
        """
        bs = np.asarray(bs, dtype=float)
        if self.kind == KIND_EXACT:
            self.counter.record(bs)
            return _count_levels(self.model, bs, rng.random(len(bs)))
        return _spin_energies(self.model, draw_mcmc_lockstep(self, bs, len(bs), rng))

    def with_model(self, model: GibbsModel) -> "SamplerOracle":
        """View of this oracle on another model, sharing the draw counter.

        Shifting H by a constant leaves pi_b unchanged, so the shifted
        pipeline draws through a view and all draws land in one tally.  The
        view is checked as a new oracle is.
        """
        return replace(self, model=model)


def exact_oracle(model: GibbsModel) -> SamplerOracle:
    """Exact draws from the model's levels; it needs no state table."""
    return SamplerOracle(model=model, kind=KIND_EXACT)


def mcmc_oracle(model: GibbsModel, mcmc_steps: int, tv_budget_per_draw: float) -> SamplerOracle:
    """Restart-Metropolis draws; raises EnumerationGuardError past the guard."""
    oracle = SamplerOracle(
        model=model,
        kind=KIND_MCMC,
        tv_budget_per_draw=tv_budget_per_draw,
        mcmc_steps=mcmc_steps,
    )
    if tv_budget_per_draw == 0.0:
        warnings.warn(
            "mcmc oracle declares no total-variation budget per draw, so the "
            "(epsilon, 3/4) guarantee does not apply to its estimates",
            UserWarning,
            stacklevel=2,
        )
    return oracle


def _level_cdfs(model: GibbsModel, bs: np.ndarray):
    """Level CDFs at each b of ``bs``, one column per b, in column blocks.

    Yields ``(cols, cw, top, last)`` for the b values bs[cols]: cw[l, j] is
    the sum over levels i <= l of m_i exp(-b_j E_i), scaled by column j's
    largest term and added in level order; top = cw[-1]; and last is each
    column's top drawable level, the first whose entry reaches top.  The
    trailing levels after it have weights that underflowed to zero and are
    never drawn.  A block holds at most _MATRIX_CAP entries, so a model
    with many levels never holds a levels x len(bs) matrix at once.
    """
    energies, counts = model.energies, model.counts
    width = max(1, _MATRIX_CAP // len(energies))
    for lo in range(0, len(bs), width):
        cols = slice(lo, lo + width)
        logw = np.multiply.outer(energies, -bs[cols])
        # Energies ascend, so each column's largest log-weight is at an end.
        top_logw = np.maximum(logw[0], logw[-1])
        cw = np.cumsum(counts[:, None] * np.exp(logw - top_logw), axis=0)
        top = cw[-1]
        yield cols, cw, top, (cw < top).sum(axis=0)


def _count_levels(model: GibbsModel, bs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Energy of one draw at each b of ``bs``, bs[j] inverting uniform u[j].

    The drawn level is the first whose CDF entry passes u * top, counted
    down its column, capped at last: u * top can round up to top.
    """
    out = np.empty(len(bs))
    for cols, cw, top, last in _level_cdfs(model, bs):
        out[cols] = model.energies[np.minimum((cw <= u[cols] * top).sum(axis=0), last)]
    return out


def _draw_levels(
    oracle: SamplerOracle, bs: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Energies of n draws at each b of ``bs``, one row per b.

    One (len(bs), n) block of uniforms; uniform u of row i draws the level
    ``_count_levels`` would for bs[i], found through a guide table (Chen and
    Asau, AIIE Trans. 6(2), 1974) of g = 2^k buckets over the row's level
    CDF column, k derived from n, so g = 1 below 8 draws.  lv[j] is the level
    that u = j/g inverts to.  For a power of two g, u*g and j/g are exact
    and fl(u * top) is monotone in u, so a uniform in bucket j = floor(u*g)
    inverts to a level in [lv[j], lv[j+1]]: where the two agree that is its
    level, and in the at most levels - 1 other buckets ``searchsorted`` over
    the level CDF finds it.  Each row of energies overwrites its row of
    uniforms.
    """
    energies = oracle.model.energies
    block = rng.random((len(bs), n))
    oracle.counter.record(bs, n)
    g = 1 << (n // 8).bit_length()
    edges = np.arange(g + 1) / g
    for cols, cw, top, last in _level_cdfs(oracle.model, bs):
        for row, col, t, cap in zip(block[cols], cw.T, top.tolist(), last.tolist()):
            lv = np.minimum(np.searchsorted(col, edges * t, side="right"), cap)
            # Energies are finite, so nan marks the buckets a boundary splits.
            guide = np.where(lv[:-1] == lv[1:], energies[lv[:-1]], np.nan)
            drawn = guide[(row * g).astype(np.intp)]
            split = np.flatnonzero(np.isnan(drawn))
            if split.size:
                drawn[split] = energies[
                    np.minimum(np.searchsorted(col, row[split] * t, side="right"), cap)
                ]
            row[:] = drawn
    return block


def draw_mcmc_lockstep(
    oracle: SamplerOracle, b: float | np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Spins of n independent restart chains run in lockstep, as (nv, n) bools.

    Each chain runs mcmc_steps systematic Metropolis sweeps from a fresh
    uniform state, so draws are independent, at the cost of re-running the
    burn-in every time.  Row v holds site v of every chain, True for spin
    +1; ``rng`` gives the n start states as state indices, site v from bit
    v, then one (nv, n) block of uniforms per sweep.  ``b`` is one value or
    one per chain.
    """
    if oracle.kind != KIND_MCMC:
        raise ValueError("draw_mcmc_lockstep needs an mcmc oracle")
    per_chain = np.ndim(b) > 0
    if per_chain and np.shape(b) != (n,):
        raise ValueError("per-chain b needs one value per chain")
    adj = oracle.model.graph.adjacency()
    nv = len(adj)
    states = rng.integers(0, 2 ** nv, size=n)
    spins = ((states >> np.arange(nv)[:, None]) & 1).astype(bool)
    # A flip of site v with a aligned neighbours passes if u < min(1,
    # exp(-b (2a - deg))).  That is 1 for a <= deg // 2 and past it
    # nonincreasing in a (or >= 1 for b < 0), so the flip happens exactly
    # when a < deg // 2 + 1 + #{thresholds above u}.  above[k][v] is site
    # v's threshold at a = deg // 2 + 1 + k, or 0 (below every u) past deg.
    deg = np.array([len(nbrs) for nbrs in adj])[:, None]
    base = (deg // 2 + 1).astype(np.int8)
    a = base + np.arange((deg - deg // 2).max())
    delta = np.multiply.outer(np.minimum(2 * a - deg, deg), np.atleast_1d(b))
    above = list(np.where((a <= deg)[..., None], np.exp(-delta), 0.0).swapaxes(0, 1))
    sites = [(spins[v], [spins[u] for u in nbrs]) for v, nbrs in enumerate(adj)]
    for _ in range(oracle.mcmc_steps):
        uniforms = rng.random((nv, n))
        limits = sum((uniforms < t for t in above), base)
        for (row, nbr_rows), limit in zip(sites, limits):
            aligned = sum((nbr == row for nbr in nbr_rows), np.int8(0))
            np.bitwise_xor(row, aligned < limit, out=row)
    oracle.counter.record(b, 1 if per_chain else n)
    return spins


def _spin_energies(model: GibbsModel, spins: np.ndarray) -> np.ndarray:
    """H of each column of an (nv, n) spin array: -1 per aligned edge, in
    edge order, as the state table sums it, so the two agree bit for bit."""
    h = np.zeros(spins.shape[1])
    for i, j in model.graph.edges:
        h -= spins[i] == spins[j]
    return h


def coupling_failure_bound(tv_budget_per_draw: float, total_draws: int) -> float:
    """Union-bound failure mass added by approximate draws: min(1, S * tv)."""
    if tv_budget_per_draw < 0 or total_draws < 0:
        raise ValueError("inputs must be nonnegative")
    return min(1.0, total_draws * tv_budget_per_draw)


def metropolis_sweep_matrix(model: GibbsModel, b: float) -> np.ndarray:
    """Exact one-sweep transition matrix of the systematic Metropolis kernel.

    Row-stochastic over the whole state space; used to measure the MCMC
    sampler's true total-variation error by evolving the start distribution.
    """
    if model.graph is None:
        raise ValueError("sweep matrix requires an Ising model")
    require_enumerable(model.num_states)
    nv = model.graph.num_vertices
    adj = model.graph.adjacency()
    size = 2 ** nv
    sweep = np.eye(size)
    for v in range(nv):
        site = np.zeros((size, size))
        for s in range(size):
            sv = (s >> v) & 1
            aligned = sum(1 for u in adj[v] if ((s >> u) & 1) == sv)
            delta = 2 * aligned - len(adj[v])
            acc = 1.0 if delta <= 0 else math.exp(-b * delta)
            site[s, s ^ (1 << v)] = acc
            site[s, s] = 1.0 - acc
        sweep = sweep @ site
    return sweep


def mcmc_draw_distribution(model: GibbsModel, b: float, sweeps: int) -> np.ndarray:
    """Exact distribution of a restart-MCMC draw after the given sweep count."""
    require_enumerable(model.num_states)
    size = model.num_states
    dist = np.full(size, 1.0 / size)
    if sweeps > 0:
        dist = dist @ np.linalg.matrix_power(metropolis_sweep_matrix(model, b), sweeps)
    return dist


def gibbs_distribution(model: GibbsModel, b: float) -> np.ndarray:
    logw = -b * model.hamiltonian
    logw = logw - logw.max()
    w = np.exp(logw)
    return w / w.sum()


def mcmc_tv_error(model: GibbsModel, b: float, sweeps: int) -> float:
    """TV distance between the restart-MCMC draw distribution and pi_b."""
    return 0.5 * float(
        np.abs(mcmc_draw_distribution(model, b, sweeps) - gibbs_distribution(model, b)).sum()
    )
