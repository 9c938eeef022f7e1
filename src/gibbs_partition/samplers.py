"""Sampling oracles for pi_b: exact enumeration and restart-Metropolis MCMC.

Every consumer of draws reads only the energy H(X), so the oracle contract
is its two draw shapes: ``energy_rows(bs, n, rng)`` yields n independent
draws at each b of an array in order, drawing and counting each row only
when it is taken, as the paired product reads them, and
``draw_energies_at(bs, rng)`` makes one draw at each b, as TPA reads them;
``draw(b, rng)`` is a one-entry ``draw_energies_at``.  No draw path keeps a
state index, and no model holds a state table.  ``ExactOracle`` samples from
the model's density of states (its distinct energy levels and their
multiplicities), so building it and a draw at a fresh b cost O(levels), not
O(states).  One builder, ``_fill_level_cdfs``, makes every level CDF in
place, one column per b, summing each in level order as
``np.cumsum(axis=0)`` does, row by row in a wide block, so a column's bits
never depend on the block it is built in; both draw shapes build their
columns block by block in one buffer.  A row of n draws at one b inverts
its column through a guide table, O(1) per draw on average.  A call with
one draw per fresh b, a TPA step, inverts each block with one
``np.add.reduce`` that counts down every column at once; a call whose every
b is one value builds and searches one column.
``RestartOracle`` runs n restart chains in lockstep on any Ising model of
at most 63 sites (int64 start indices), from a kernel plan of the graph it
builds once, each acceptance plane one compare of a block of uniforms with
a threshold; ``RestartOracle.spins`` states its kernel and stream contract,
and each chain's energy is summed from its spins.  Under the guard,
``mcmc_draw_distribution`` and ``mcmc_tv_curve`` evolve the exact law of
its draws as one 2^n vector updated site by site.  Every draw consumes a
caller-supplied numpy Generator and is counted by the counter's one
``record(n)`` method, whose total is the ground truth for all sample counts.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .models import EnumerationGuardError, GibbsModel, require_enumerable

# Entries per block of level-CDF columns in a draw at many fresh b values.
_MATRIX_CAP = 1 << 16
# Columns from which a level-CDF block is summed row by row.  Measured on 2
# to 50 levels, that beats one np.add.accumulate down the columns from
# between 100 and 180 columns on; below, a Python step per level costs more.
_ROW_SUM_COLUMNS = 160
# 8-bit uniforms per block of Metropolis sweeps (128 KB), a whole number
# of sweeps each.
_UNIFORM_CAP = 1 << 17
# Sites of the largest model the MCMC oracle runs: one int64 start index each.
_MCMC_MAX_SITES = 63


class DrawCounter:
    """Monotone running total of draws served."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def record(self, n: int) -> None:
        """n more draws."""
        self.total += n


@dataclass
class SamplerOracle:
    """Source of draws from pi_b for b in [0, beta], as their energies.

    ``tv_budget_per_draw`` is a declared upper bound on the total-variation
    distance of each draw from pi_b (0 for exact sampling); the library only
    verifies the accounting arithmetic, not the bound itself.  A subclass
    defines ``draw_energies_at`` and the generator ``energy_rows(bs, n,
    rng)``: for each b of ``bs`` in order it draws one row of n energies
    from ``rng``, records those n draws and yields the row, a fresh array,
    so a caller that stops early has drawn and counted only the rows it took.
    """

    model: GibbsModel
    counter: DrawCounter = field(default_factory=DrawCounter, kw_only=True)

    def draw(self, b: float, rng: np.random.Generator) -> float:
        """H(X) for one X ~ pi_b: a one-entry ``draw_energies_at``.

        No estimate calls it; the per-layer probes in ``perfbench`` do.
        """
        return float(self.draw_energies_at(np.array([b], dtype=float), rng)[0])


@dataclass
class ExactOracle(SamplerOracle):
    """Exact draws from the model's levels; it needs no state table."""

    tv_budget_per_draw: ClassVar[float] = 0.0

    def energy_rows(self, bs: np.ndarray, n: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """Energies of n draws at each b of ``bs``, one row per b.

        Each row reads ``rng.random(n)``, as the rows of one (len(bs), n)
        ``rng.random`` call would; uniform u of row i draws the
        level ``_count_levels`` would for bs[i], found through a guide table
        (Chen and Asau, AIIE Trans. 6(2), 1974) of g = 2^k buckets over the
        row's level CDF column, k derived from n, so g = 1 below 8 draws.
        lv[j] is the level that u = j/g inverts to.  For a power of two g,
        u*g and j/g are exact and fl(u * top) is monotone in u, so a uniform
        in bucket j = floor(u*g) inverts to a level in [lv[j], lv[j+1]]:
        where the two agree that is its level, and in the at most levels - 1
        other buckets ``searchsorted`` over the level CDF finds it.  The
        edge u = 1 counts every entry, so the last bucket is always one of
        them.  The columns are built in blocks, as in ``_count_levels``.
        """
        energies = self.model.energies
        bs = np.asarray(bs, dtype=float)
        g = 1 << (n // 8).bit_length()
        edges = np.arange(g + 1) / g
        buckets = np.empty(n, np.intp)
        width = max(1, _MATRIX_CAP // len(energies))
        buffer = np.empty((len(energies), min(width, len(bs))))
        for lo in range(0, len(bs), width):
            cw = _fill_level_cdfs(self.model, bs[lo : lo + width], buffer)
            for col, t in zip(cw.T, cw[-1].tolist()):
                row = rng.random(n)
                self.counter.record(n)
                lv = col.searchsorted(edges * t, side="right")
                # Energies are finite, so nan marks the buckets a boundary splits.
                guide = np.where(lv[:-1] == lv[1:], energies.take(lv[:-1]), np.nan)
                np.multiply(row, g, out=buckets, casting="unsafe")
                drawn = guide.take(buckets)
                split = np.isnan(drawn).nonzero()[0]
                if split.size:
                    drawn[split] = energies.take(col.searchsorted(row[split] * t, side="right"))
                yield drawn

    def draw_energies_at(self, bs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """H(X_j) for independent X_j ~ pi_{bs[j]}, one per entry of ``bs``;
        it equals ``[draw(b, rng) for b in bs]`` draw for draw."""
        bs = np.asarray(bs, dtype=float)
        self.counter.record(len(bs))
        return _count_levels(self.model, bs, rng.random(len(bs)))

    def with_model(self, model: GibbsModel) -> "ExactOracle":
        """View of this oracle on another model, sharing the draw counter.

        Shifting H by a constant leaves pi_b unchanged, so the shifted
        pipeline draws through a view and all draws land in one tally.
        """
        return replace(self, model=model)


@dataclass
class RestartOracle(SamplerOracle):
    """Restart-Metropolis draws: ``mcmc_steps`` sweeps from a fresh uniform
    state per draw, on an Ising model of at most 63 sites.

    Its draws at b = 0, the start of every cooling schedule, are exact and
    read only their start states; it refuses b < 0 and nan.  Every
    construction with a zero ``tv_budget_per_draw`` warns, since the
    (epsilon, 3/4) guarantee does not apply to its estimates.
    """

    mcmc_steps: int
    tv_budget_per_draw: float

    def __post_init__(self):
        if not 0 <= self.tv_budget_per_draw < math.inf:
            raise ValueError("tv_budget_per_draw must be finite and nonnegative")
        if self.model.graph is None:
            raise ValueError("mcmc sampling requires an Ising model")
        if self.mcmc_steps < 0:
            raise ValueError("mcmc_steps must be nonnegative")
        # Each chain starts from one rng.integers(0, 2**nv) state index,
        # which numpy draws as an int64 up to nv = 63.
        nv = self.model.graph.num_vertices
        if nv > _MCMC_MAX_SITES:
            raise EnumerationGuardError(
                f"mcmc start states are int64 indices below 2^nv: {nv} sites "
                f"exceed the {_MCMC_MAX_SITES}-site limit"
            )
        if self.tv_budget_per_draw == 0.0:
            warnings.warn(
                "mcmc oracle declares no total-variation budget per draw, so the "
                "(epsilon, 3/4) guarantee does not apply to its estimates",
                UserWarning,
                stacklevel=3,
            )
        # The kernel plan, what ``spins`` reads of the graph.  Site v with a
        # aligned neighbours flips if u < min(1, exp(-b (2a - deg))), 1 for
        # a <= deg // 2 and past it nonincreasing in a: exactly when a <
        # deg // 2 + 1 + L, L = #{thresholds u passes}.  Threshold k, row k
        # of _neg_expo, is the one at a = deg // 2 + 1 + k, real for k < c =
        # deg - deg // 2.  Past that it is padded: it repeats the last real
        # one, so it passes and ties exactly when that one does, and the
        # flip rule never reads it.  A degree-0 site, in _lone, has no real
        # threshold: it flips whatever its L, and it never ties.  There is
        # at least one threshold, so a plane fills each sweep even when no
        # site has an edge.  Each site of _sites keeps its neighbours and its c.
        adj = self.model.graph.adjacency()
        deg = np.array([len(nbrs) for nbrs in adj])
        c = deg - deg // 2
        a = deg // 2 + 1 + np.arange(max(1, c.max()))[:, None]
        self._neg_expo = -np.minimum(2 * a - deg, np.maximum(deg, 1)).astype(float)
        self._sites = [(v, nbrs, int(c_v)) for v, (nbrs, c_v) in enumerate(zip(adj, c))]
        self._lone = np.flatnonzero(deg == 0)

    def energy_rows(self, bs: np.ndarray, n: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """n restart chains in lockstep per row, the energies of their spins."""
        for b in np.asarray(bs, dtype=float).tolist():
            yield _spin_energies(self.model, self.spins(b, n, rng))

    def draw_energies_at(self, bs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """H(X_j) for independent X_j ~ pi_{bs[j]}: one restart chain per entry
        of ``bs``, each at its own b, in lockstep."""
        return _spin_energies(self.model, self.spins(bs, len(bs), rng))

    def spins(self, b: float | np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        """Spins of n independent restart chains run in lockstep, as (nv, n) bools.

        Each chain runs mcmc_steps systematic Metropolis sweeps from a fresh
        uniform state, so draws are independent, at the cost of re-running the
        burn-in every time.  Row v holds site v of every chain, True for spin
        +1; ``b`` is one value or one per chain.  The stream contract:

        - One ``rng.integers`` call gives the n start states as state indices,
          site v from bit v.
        - Each sweep reads one (nv, n) block of 8-bit uniforms from
          ceil(nv n / 8) words of ``rng.bit_generator.random_raw``, split by
          ``_bytes`` low byte first; the unused bytes of a sweep's last word
          are dropped.  Sweeps are read m at a time, m the most that fit in
          _UNIFORM_CAP uniforms and at least 1, so the words read do not
          depend on m.
        - Each acceptance threshold is split by ``_split_thresholds``.  A
          uniform that equals the whole of one of its site's real thresholds
          draws one double with ``rng.random``, and that double decides every
          threshold it ties; a block's doubles follow its words, in C order
          over (sweep, site, chain).  Padded thresholds never tie.
        - A call whose every b is 0 reads only its start states.  There every
          threshold is min(1, e^0) = 1, whole 2^8 - 1 and part 1, so every
          proposal passes and each sweep flips every site: the draws are the
          starts flipped by the parity of mcmc_steps, exactly.

        The site loop is multi-spin coded (Zorn, Herrmann and Rebbi, Comput.
        Phys. Commun. 23:337, 1981): site v of every chain is one Python int,
        bit j for chain j, and so is plane k of a sweep's cells at site v, one
        ``np.less`` with threshold k's wholes, its ties set by ``_settle_ties``;
        thresholds do not increase with k, so plane k is L > k.  ``_site_flips``
        updates a site in every chain at once with a few integer bit operations.

        A b below 0 or nan raises ValueError: the oracle's kernel plan assumes
        each threshold at a <= deg // 2 is 1, which holds only for b >= 0.
        """
        b = np.asarray(b, dtype=float)
        if b.ndim and b.shape != (n,):
            raise ValueError("per-chain b needs one value per chain")
        _require_nonnegative(b)
        nv = len(self._sites)
        states = rng.integers(0, 2 ** nv, size=n)
        spins = ((states >> np.arange(nv)[:, None]) & 1).astype(bool)
        self.counter.record(n)
        if not b.any():
            if self.mcmc_steps % 2:
                np.logical_not(spins, out=spins)
            return spins
        # Negation is exact, so t has the bits of exp(-(min(2a - deg, max(deg, 1)) b)),
        # exactly 0 where the product passes the float range.
        with np.errstate(over="ignore"):
            t = np.exp(np.multiply.outer(self._neg_expo, np.atleast_1d(b)))
        whole, part = _split_thresholds(t)
        rows, ones = _pack_rows(spins), (1 << n) - 1
        cells = nv * n
        width = 8 * ((cells + 7) // 8)
        per_block = max(1, _UNIFORM_CAP // max(1, cells))
        # One (k, sweep, site, chain) plane block, reused by every block of sweeps.
        buffer = np.empty((len(whole), min(per_block, self.mcmc_steps), nv, n), bool)
        stride = len(whole) * nv
        for lo in range(0, self.mcmc_steps, per_block):
            m = min(per_block, self.mcmc_steps - lo)
            u = _bytes(rng.bit_generator.random_raw(m * width // 8)).reshape(m, width)
            u = u[:, :cells].reshape(m, nv, n)
            for k, w in enumerate(whole):
                np.less(u, w, out=buffer[k, :m])
            _settle_ties(u, buffer[:, :m], whole, part, self._lone, rng)
            # Plane k of each sweep's sites, in (sweep, k, site) order.
            planes = _pack_rows(buffer[:, :m].transpose(1, 0, 2, 3))
            for o in range(0, m * stride, stride):
                for v, nbrs, c in self._sites:
                    rows[v] ^= _site_flips(rows, v, nbrs, c, planes, o + v, ones)
        return _unpack_rows(rows, n)


def exact_oracle(model: GibbsModel) -> ExactOracle:
    """An ``ExactOracle`` on ``model``."""
    return ExactOracle(model)


def mcmc_oracle(model: GibbsModel, mcmc_steps: int, tv_budget_per_draw: float) -> RestartOracle:
    """Restart-Metropolis draws; raises EnumerationGuardError past 63 sites."""
    return RestartOracle(model, mcmc_steps, tv_budget_per_draw)


def _fill_level_cdfs(model: GibbsModel, b: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """Build the level CDFs at each b of ``b`` in place in the first len(b)
    columns of ``buffer``, and return that view.

    Entry [l, j] is the sum over levels i <= l of m_i exp(-b_j E_i), scaled
    by column j's largest term.  The sums run in level order: entry l is
    entry l - 1 plus its own term, one rounding each, as
    ``np.cumsum(axis=0)`` adds them.  A block of _ROW_SUM_COLUMNS columns
    or more adds level l - 1 into level l one row at a time, and a narrower
    one is one ``np.add.accumulate``.  Both make the same sums, so a
    column's bits do not depend on the block it is built in, and a call
    that needs one b builds one column.
    """
    energies, counts = model.energies, model.counts
    cw = buffer[:, : len(b)]
    # Energies ascend, so each column's largest log-weight is at an end.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(energies[:, None], -b, out=cw)
        peak = np.maximum(cw[0], cw[-1])
        # The sum is inf or nan whenever a peak is inf.
        if not math.isfinite(np.add.reduce(peak)):
            # Past the float range every other level weighs under
            # exp(-4e292) of an end level: the column is that level's
            # point mass, the lowest for b > 0.
            hot = np.flatnonzero(np.isinf(peak))
            cw[:, hot] = -np.inf
            cw[np.where(b[hot] > 0, 0, -1), hot] = 0.0
            peak[hot] = 0.0
        np.subtract(cw, peak, out=cw)
    np.exp(cw, out=cw)
    np.multiply(counts[:, None], cw, out=cw)
    if len(b) < _ROW_SUM_COLUMNS:
        np.add.accumulate(cw, axis=0, out=cw)
    else:
        for previous, row in zip(cw, cw[1:]):
            np.add(previous, row, out=row)
    return cw


def _count_levels(model: GibbsModel, bs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Energy of one draw at each b of ``bs``, bs[j] inverting uniform u[j].

    The drawn level is the number of CDF entries at or below the key u *
    top in its column, the first whose entry passes it.  No key is clamped.
    An entry sums terms fl(m_l w_l) <= m_l, w_l <= 1, and rounding is
    monotone, so top is at most the running sum of the counts, which
    ``GibbsModel`` keeps finite; the peak level weighs its count, at least
    1, so top >= 1.  So for u <= 1 - 2^-53 the key rounds to at most the
    largest double under top, and no draw passes the top drawable level,
    the first whose entry reaches top: levels whose weights underflowed
    after it are never drawn.

    A block holds at most _MATRIX_CAP entries, built by ``_fill_level_cdfs``
    in one buffer, so a model with many levels never holds a levels x
    len(bs) matrix at once, and each block is inverted by one
    ``np.add.reduce`` of its entries at or below their column's key.  When
    every b is one value, one column serves them all, and
    ``searchsorted(side="right")`` over it counts the same entries, since a
    column never decreases.
    """
    energies = model.energies
    if bs.size and bs[0] == bs[-1] and (bs == bs[0]).all():
        col = _fill_level_cdfs(model, bs[:1], np.empty((len(energies), 1)))[:, 0]
        return energies.take(col.searchsorted(u * col[-1], side="right"))
    width = max(1, _MATRIX_CAP // len(energies))
    buffer = np.empty((len(energies), min(width, len(bs))))
    levels = np.empty(len(bs), np.intp)
    for lo in range(0, len(bs), width):
        cols = slice(lo, lo + width)
        cw = _fill_level_cdfs(model, bs[cols], buffer)
        np.add.reduce(cw <= u[cols] * cw[-1], axis=0, out=levels[cols])
    return energies.take(levels)


def _bytes(words: np.ndarray) -> np.ndarray:
    """8-bit bytes of 64-bit generator words, low byte first, on any host."""
    return words.astype("<u8", copy=False).view(np.uint8)


def _split_thresholds(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split acceptance thresholds min(1, t) into 8-bit whole and part, exactly.

    ``whole`` = min(floor(min(1, t) 2^8), 2^8 - 1) as uint8 and ``part`` =
    min(1, t) 2^8 - whole, in [0, 1]; scaling by 2^8 and taking the
    fraction both round nothing.  An 8-bit uniform u passes when u < whole,
    or when u == whole and a double V < part: probability (whole + P(V <
    part)) / 2^8, within 2^-61 of min(1, t), since V is a 53-bit uniform.
    """
    scaled = np.minimum(t, 1.0) * 2.0**8
    whole = np.minimum(np.floor(scaled), 2.0**8 - 1)
    return whole.astype(np.uint8), scaled - whole


def _settle_ties(u, planes, whole, part, lone, rng) -> None:
    """Set each tied cell's bit in every plane whose threshold it ties.

    ``u`` is an (m, nv, n) block of uniforms and ``planes`` its (K, m, nv,
    n) planes, each contiguous, plane k holding u < whole[k].  ``whole`` and
    ``part`` are (K, nv, nb): threshold k of site v at chain j's b, nb = 1
    for one b and n for one b per chain.  A cell ties when its uniform
    equals the whole of one of its site's thresholds, unless its site is one
    of ``lone``, which have no real threshold.  Each tied cell, in C order,
    draws one double V, and V < part is its bit in every plane it ties.  One
    pass over the block finds the tied cells; past it, each is read through
    its site and chain only.
    """
    tied = u == whole[0]
    for w in whole[1:]:
        tied |= u == w
    if lone.size:
        tied[:, lone] = False
    cells = np.flatnonzero(tied)
    if cells.size:
        nv, n = u.shape[1:]
        # Column v nb + j of cell i: site v = i // n % nv, chain j = i % n per chain.
        cols = cells % (nv * n) // (n // whole.shape[2])
        v = rng.random(cells.size)
        if len(whole) == 1:
            planes[0].reshape(-1)[cells] = v < part.reshape(-1)[cols]
            return
        uc = u.reshape(len(u), -1)[np.divmod(cells, nv * n)]
        for plane, w, p in zip(planes, whole.reshape(len(whole), -1), part.reshape(len(part), -1)):
            hit = (w[cols] == uc).nonzero()[0]
            plane.reshape(-1)[cells[hit]] = v[hit] < p[cols[hit]]


def _pack_rows(bits: np.ndarray) -> list[int]:
    """The rows of a bool array, in C order, each as one Python int whose
    bit j is set where column j is True.

    Rows of at most 64 columns come out of one uint64 ``tolist``, which
    beats one ``int.from_bytes`` per row in a k2 call of up to 64 chains;
    longer rows take one ``int.from_bytes`` each.
    """
    packed = np.packbits(bits, axis=-1, bitorder="little")
    size = packed.shape[-1]
    if size <= 8:
        packed = packed.reshape(-1, size)
        words = np.zeros((len(packed), 8), np.uint8)
        words[:, :size] = packed
        return words.view("<u8").ravel().tolist()
    flat = packed.tobytes()
    return [int.from_bytes(flat[i : i + size], "little") for i in range(0, len(flat), size)]


def _unpack_rows(rows: list[int], n: int) -> np.ndarray:
    """The (len(rows), n) bool array whose row i has bit j of rows[i] at column j."""
    size = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(size, "little") for row in rows), np.uint8)
    unpacked = np.unpackbits(packed.reshape(len(rows), size), axis=-1, count=n, bitorder="little")
    return unpacked.view(bool)


def _site_flips(rows: list[int], v: int, nbrs, c: int, planes: list[int], o: int, ones: int) -> int:
    """The chains in which site v flips, as the bits of one int, bit j for chain j.

    ``rows[u]`` holds site u's spins, bit j set for +1 in chain j, and
    ``ones`` has the bit of every chain set.  Site v has c = deg - deg // 2
    real thresholds, and planes[o + k nv], k < c and nv = len(rows), holds
    the chains whose L passes k.  A chain flips when its D disagreeing
    neighbours and its L add up to c or more, which is exactly aligned =
    deg - D < deg // 2 + 1 + L; so a degree-0 site flips in every chain.
    The count is kept as c vote planes, votes[k] the chains whose count
    passes k: they start as the planes of L, each neighbour's disagreements
    rows[u] ^ rows[v] add one vote, and the flips are votes[c - 1].  With
    c = 1, at every site of degree 1 or 2, the one plane is kept as an int,
    not a list: on k2 that beats the list loop at 5 to 225 chains.
    """
    if not c:
        return ones
    row = rows[v]
    if c == 1:
        flips = planes[o]
        for u in nbrs:
            flips |= rows[u] ^ row
        return flips
    votes = planes[o : o + c * len(rows) : len(rows)]
    for u in nbrs:
        d = rows[u] ^ row
        for k in range(c - 1, 0, -1):
            votes[k] |= votes[k - 1] & d
        votes[0] |= d
    return votes[-1]


def _require_nonnegative(b: float | np.ndarray) -> None:
    """Refuse a Metropolis b below 0 or nan, where the kernel's law is wrong."""
    if not np.all(np.asarray(b) >= 0):
        raise ValueError("restart-Metropolis draws need every b >= 0")


def _spin_energies(model: GibbsModel, spins: np.ndarray) -> np.ndarray:
    """H of each column of an (nv, n) spin array: -1 per aligned edge, in
    edge order."""
    h = np.zeros(spins.shape[1])
    for i, j in model.graph.edges:
        h -= spins[i] == spins[j]
    return h


def coupling_failure_bound(tv_budget_per_draw: float, total_draws: int) -> float:
    """Union-bound failure mass added by approximate draws: min(1, S * tv)."""
    if tv_budget_per_draw < 0 or total_draws < 0:
        raise ValueError("inputs must be nonnegative")
    return min(1.0, total_draws * tv_budget_per_draw)


def _state_spins(model: GibbsModel) -> np.ndarray:
    """Spins of every state of an Ising model, under the guard, as (nv, 2^n)
    bools: row v is True where bit v of the state index is set, spin +1."""
    if model.graph is None:
        raise ValueError("the law over states requires an Ising model")
    require_enumerable(model)
    spins = np.zeros((model.graph.num_vertices, 1 << model.graph.num_vertices), dtype=bool)
    for v, row in enumerate(spins):
        row.reshape(-1, 2, 1 << v)[:, 1] = True
    return spins


def _sweep_laws(model: GibbsModel, b: float):
    """Exact laws over states of a restart-MCMC draw after 0, 1, 2, ... sweeps.

    One 2^n vector, updated in place: it starts uniform and each sweep
    updates it site by site, as ``RestartOracle.spins`` does.  Site v moves
    the mass dist[s] accept_v[s] to s ^ 2^v, accept_v[s] = min(1, exp(-b
    (2a - deg))) for the a neighbours aligned with v in s; in a (-1, 2,
    2^v) view that partner is the reversed middle axis.  A b below 0 or nan
    raises ValueError, as in ``RestartOracle.spins``.
    """
    _require_nonnegative(b)
    spins = _state_spins(model)
    dist = np.full(spins.shape[1], 1.0 / spins.shape[1])
    moved = np.empty_like(dist)
    sites = []
    for v, nbrs in enumerate(model.graph.adjacency()):
        aligned = sum((spins[u] == spins[v] for u in nbrs), np.zeros(len(dist), np.int8))
        deg = len(nbrs)
        # One per aligned count, so that b = inf never multiplies 0 by inf.
        accept = [math.exp(-b * (2 * a - deg)) if 2 * a > deg else 1.0 for a in range(deg + 1)]
        shape = (-1, 2, 1 << v)
        sites.append((np.array(accept)[aligned], dist.reshape(shape),
                      moved.reshape(shape)[:, ::-1]))
    while True:
        yield dist
        for accept, pairs, partners in sites:
            np.multiply(dist, accept, out=moved)
            dist -= moved
            pairs += partners


def mcmc_draw_distribution(model: GibbsModel, b: float, sweeps: int) -> np.ndarray:
    """Exact law over states of a restart-MCMC draw after ``sweeps`` sweeps."""
    return next(itertools.islice(_sweep_laws(model, b), sweeps, None))


def gibbs_distribution(model: GibbsModel, b: float) -> np.ndarray:
    """pi_b over every state of an Ising model, under the guard, each
    state's energy summed from its spins: site v is bit v of its index.
    At b = inf (-inf), and at a finite b whose largest log-weight passes
    the float range, it is uniform on the lowest (highest) energy states."""
    energies = _spin_energies(model, _state_spins(model))
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan
        logw = -b * energies
    if math.isinf(b) or math.isinf(logw.max()):
        extreme = energies == (energies.min() if b > 0 else energies.max())
        return extreme / extreme.sum()
    w = np.exp(logw - logw.max())
    return w / w.sum()


def mcmc_tv_curve(model: GibbsModel, bs, sweeps: int) -> np.ndarray:
    """TV distance between the restart-MCMC law after s sweeps and pi_b at
    [i, s], b = bs[i] and s = 0 to ``sweeps``; each b runs its sweeps once."""
    curve = np.empty((len(bs), sweeps + 1))
    for row, b in zip(curve, bs):
        pi = gibbs_distribution(model, b)
        for s, law in zip(range(sweeps + 1), _sweep_laws(model, b)):
            row[s] = 0.5 * float(np.abs(law - pi).sum())
    return curve
