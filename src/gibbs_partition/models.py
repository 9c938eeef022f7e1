"""Gibbs models over finite state spaces and the exact partition oracle.

A model is its density of states: the distinct energies E_l and their
multiplicities m_l, which is all that the estimators, the exact sampler and
the exact truth ln Z(b) = logsumexp(ln m_l - b E_l) read; its flags
(``n_bound``, ``sign_class``, ``integer_valued``) are derived from the
levels.  An Ising model also keeps its graph, which the MCMC sampler moves
on; every Ising model counts its levels over a front of sites, so no model
construction holds a 2^n array, and a table model keeps only the levels of
its table.  A model's state count is the sum of its level counts; only the
MCMC kernel checks enumerate states, from the graph.  Models are plain data,
never changed after construction and holding no cache, so they are safe to
share across concurrent workers and they pickle.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

# Bounds _front_levels' 2^w x (|E|+1) count array and _state_spins' 2^n state table.
ENUMERATION_GUARD = 2 ** 24

SIGN_NONPOSITIVE = "nonpositive"
SIGN_NONNEGATIVE = "nonnegative"
SIGN_MIXED = "mixed"


class EnumerationGuardError(ValueError):
    """State space too large to enumerate; only sampling oracles apply."""


@dataclass(frozen=True)
class IsingGraph:
    """Graph structure kept with Ising models so MCMC can make local moves."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(a) for a in adj)


class GibbsModel:
    """Density of states: distinct energies E_l, ascending, with multiplicities m_l.

    ``levels`` is the pair (energies, counts), stored as float64 arrays;
    counts below 2^53 are exact integers, and larger ones (grids past 53
    sites) carry float64 rounding.  Three flags are derived from the levels:
    ``n_bound``, the least positive integer with |E_l| <= n_bound for every
    level; ``sign_class``; and ``integer_valued``, whether all energies are
    integers, which is what the integer-regime parameter choices assume.
    The counts, summed in level order, stay within the float range.

    An Ising model keeps its ``graph`` for MCMC's local moves.
    """

    def __init__(self, levels: tuple, graph: IsingGraph | None = None):
        energies, counts = (np.array(x, dtype=np.float64) for x in levels)
        if energies.ndim != 1 or energies.size < 1 or counts.shape != energies.shape:
            raise ValueError("levels must be two non-empty 1-d arrays of one length")
        if not np.all(np.isfinite(energies)):
            raise ValueError("hamiltonian values must be finite")
        if np.any(np.diff(energies) <= 0) or not np.all((counts >= 1) & (counts < np.inf)):
            raise ValueError("level energies must ascend strictly, with finite positive counts")
        # The running sum in level order bounds every level CDF's top.
        with np.errstate(over="ignore"):
            if not math.isfinite(np.add.accumulate(counts)[-1]):
                raise ValueError("level counts must sum within the float range")
        self.energies = energies
        self.counts = counts
        self.n_bound = _bound_for(energies)
        self.sign_class = _sign_class(energies)
        self.integer_valued = _is_integer(energies)
        self.graph = graph
        self._freeze()

    def _freeze(self) -> None:
        self.energies.flags.writeable = False
        self.counts.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writable; models are not changed.
        self.__dict__.update(state)
        self._freeze()


def _sign_class(h: np.ndarray) -> str:
    # All-zero tables count as nonpositive so TPA has a direction.
    if np.all(h <= 0.0):
        return SIGN_NONPOSITIVE
    if np.all(h >= 0.0):
        return SIGN_NONNEGATIVE
    return SIGN_MIXED


def _bound_for(h: np.ndarray) -> int:
    return max(1, math.ceil(float(np.max(np.abs(h)))))


def _is_integer(h: np.ndarray) -> bool:
    return bool(np.all(h == np.round(h)))


def require_enumerable(model: GibbsModel) -> None:
    """Raise EnumerationGuardError for a state space past the enumeration guard."""
    states = model.counts.sum()
    if states > ENUMERATION_GUARD:
        # As a power of two: str() refuses 2^n in decimal past n = 14,000 or so.
        raise EnumerationGuardError(
            f"2^{math.log2(states):.10g} states exceed the enumeration guard "
            f"(2^{math.log2(ENUMERATION_GUARD):.10g}); exact laws over states need a smaller model"
        )


def logsumexp(a) -> float:
    """ln sum exp(a) over a 1-d array, rounded as scipy.special.logsumexp rounds it.

    The entries equal to the maximum are taken out of the shifted sum and
    counted, so ln(m) + log1p(s / m) keeps the precision of the top terms.
    A non-finite result falls back to the direct ln sum exp(a), which
    handles all -inf, +inf and nan entries.
    """
    a = np.asarray(a, dtype=np.float64)
    top = a.max(keepdims=True)
    at_top = a == top
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.exp(a - top)
        shifted[at_top] = 0.0
        m = np.count_nonzero(at_top)
        s = np.sum(shifted, keepdims=True) / m
        out = np.log1p(s) + np.log(m) + top
        if not np.isfinite(out[0]):
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return float(out[0])


def table_model(values) -> GibbsModel:
    """Build a model from an explicit energy table; it keeps only the table's levels."""
    h = np.array(values, dtype=np.float64)
    if h.ndim != 1 or h.size < 1:
        raise ValueError("hamiltonian must be a non-empty 1-d array")
    return GibbsModel(np.unique(h, return_counts=True))


def require_countable(num_vertices: int) -> None:
    """Refuse a spin model of 1,024 sites or more: its 2^n states pass float64."""
    if num_vertices >= 1024:
        raise EnumerationGuardError(
            f"2^{num_vertices} states pass float64; the enumeration guard allows 1023 sites"
        )


def ising_model(edges, num_vertices: int) -> GibbsModel:
    """Ising model on a simple graph: Omega = {-1,1}^V, H(x) = -#aligned edges.

    State index s encodes spins bitwise: spin(v) = +1 iff bit v of s is set.
    n_bound equals |E| (all edges aligned), sign class is nonpositive.  The
    levels are counted over a front of sites visited in vertex order (see
    ``_front_levels``), which refuses a front past the guard; 1,024 sites or
    more are refused before the edges are read.  The model keeps the graph.
    """
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
    require_countable(num_vertices)
    seen = set()
    canon = []
    for i, j in edges:
        if not (0 <= i < num_vertices and 0 <= j < num_vertices):
            raise ValueError(f"edge ({i},{j}) out of range for {num_vertices} vertices")
        if i == j:
            raise ValueError(f"self-loop ({i},{j}) not allowed")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate edge ({i},{j})")
        seen.add(key)
        canon.append(key)
    graph = IsingGraph(num_vertices=num_vertices, edges=tuple(canon))
    return GibbsModel(_front_levels(graph, range(num_vertices)), graph)


def grid_model(rows: int, cols: int) -> GibbsModel:
    """Free-boundary rows x cols Ising grid, levels counted by transfer matrix.

    ``ising_model(grid_edges(rows, cols), rows * cols)`` with its sites
    visited along the longer side, row-major when rows >= cols and
    column-major otherwise, so the front holds w = min(rows, cols) sites
    (Beale, PRL 76:78, 1996) and building it costs O(2^w |E|) per site.
    """
    if rows < 1 or cols < 1:
        raise ValueError("a grid needs at least one row and one column")
    num_vertices = rows * cols
    require_countable(num_vertices)
    graph = IsingGraph(num_vertices=num_vertices, edges=tuple(grid_edges(rows, cols)))
    sites = np.arange(num_vertices).reshape(rows, cols)
    order = (sites if rows >= cols else sites.T).ravel().tolist()
    return GibbsModel(_front_levels(graph, order), graph)


def _front_levels(graph: IsingGraph, order) -> tuple[np.ndarray, np.ndarray]:
    """Levels of H = -#aligned edges on ``graph``, its sites visited in ``order``.

    count[p, k] counts the spin assignments of the visited sites with k
    aligned edges whose front slots hold spins p, bit s set iff the site in
    slot s has spin +1.  Visiting v shifts the counts by the number of its
    visited neighbours, all in the front, aligned with it.  If some front
    sites then have every neighbour visited, v takes the slot of the earliest
    visited of them, whose bit is summed out as (bit 0 term) + (bit 1 term);
    otherwise v takes a new slot.  The slot plan is made first, in O(V + E),
    and a front past the enumeration guard is refused before any counting.
    """
    adj = graph.adjacency()
    unvisited = [len(nbrs) for nbrs in adj]
    slot = [-1] * graph.num_vertices
    front: list[int] = []  # the sites that hold a slot, in visit order
    plan = []
    width = 0
    for v in order:
        for u in adj[v]:
            unvisited[u] -= 1
        gone = next((u for u in front if not unvisited[u]), -1)
        if gone >= 0:
            front.remove(gone)
        s = slot[gone] if gone >= 0 else width
        met = tuple(slot[u] for u in adj[v] if slot[u] >= 0 and u != gone)
        plan.append((1 << width, s, gone >= 0, gone in adj[v], met))
        width = max(width, s + 1)
        slot[v] = s
        front.append(v)
    levels = len(graph.edges) + 1
    if 2 ** width * levels > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"a front of {width} sites needs 2^{width} x {levels} level counts, "
            f"past the enumeration guard ({ENUMERATION_GUARD})"
        )
    pad = max(map(len, adj))  # no site shifts its counts further
    row = pad + levels
    patterns = np.arange(2 ** width)
    count = np.eye(1, levels)  # no site visited: one pattern, 0 aligned edges
    padded = np.zeros((0, row))
    gathers = {}  # sites that meet the front alike gather alike
    for step in plan:
        size, s, replaces, meets, met = step
        if len(padded) != size:
            # moved[i] is padded.flat[i : i + levels]: row q of the counts moved
            # d places up the k axis starts at q * row + pad - d.
            padded = np.zeros((size, row))
            moved = np.ndarray((padded.size - levels + 1, levels), buffer=padded, strides=(8, 8))
        if step not in gathers:
            p = patterns[: size if replaces else 2 * size]
            spin = (p >> s) & 1
            start = p * row + pad - spin * (row << s)
            for m in met:
                start -= ((p >> m) & 1) == spin
            # The bit 0 and bit 1 terms; v meets the site that left slot s in one.
            gathers[step] = start - meets * (1 - spin), start + (row << s) - meets * spin
        padded[:, pad:] = count
        bit0, bit1 = gathers[step]
        count = moved[bit0]
        if replaces:
            count += moved[bit1]
    totals = count.sum(axis=0)
    aligned = np.flatnonzero(totals)[::-1]
    return (-aligned).astype(np.float64), totals[aligned]


def constant_model(level: float) -> GibbsModel:
    """Four states, each with H = ``level``; Z(b)/Z(0) = exp(-b*level)."""
    return GibbsModel(([float(level)], [4]))


def path_edges(num_vertices: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(num_vertices - 1)]


def cycle_edges(num_vertices: int) -> list[tuple[int, int]]:
    if num_vertices < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return path_edges(num_vertices) + [(num_vertices - 1, 0)]


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Non-periodic rows x cols lattice, vertices in row-major order."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def log_partition_exact(model: GibbsModel, beta: float) -> float:
    """ln Z(beta) = logsumexp(ln m_l - beta E_l) over the model's levels, each
    beta E_l past the float range taken as +-inf; raw Z is never materialized."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    with np.errstate(over="ignore"):
        return logsumexp(np.log(model.counts) - beta * model.energies)


def log_ratio_exact(model: GibbsModel, beta: float) -> float:
    """Signed ln(Z(beta)/Z(0)) from the exact oracle."""
    return log_partition_exact(model, beta) - log_partition_exact(model, 0.0)


def shift_hamiltonian(model: GibbsModel, c: float) -> GibbsModel:
    """Add a constant to every energy: pi_beta unchanged, ln Z'(b) = ln Z(b) - b*c.

    The shifted model is its levels only, with no graph.  Levels that
    round to one energy merge.
    """
    if c == 0.0:
        return model
    c = float(c)
    with np.errstate(over="ignore"):
        shifted = model.energies + c
    if not np.all(np.isfinite(shifted)):
        top = float(np.max(np.abs(model.energies)))
        raise ValueError(f"energies up to |H| = {top:g} shifted by {c:g} pass the float range")
    energies, level = np.unique(shifted, return_inverse=True)
    return GibbsModel((energies, np.bincount(level, weights=model.counts)))


def _is_number(value) -> bool:
    """An int or float within the float range; not a bool, not a string."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def model_from_dict(spec: dict) -> GibbsModel:
    """Load a model from the JSON schema, validating invariants.

    Malformed specs raise ValueError: a spec that is not an object, a
    missing field, ising fields that are not an integer vertex count and a
    list of integer pairs, or a table that is not a non-empty list of
    numbers within the float range.
    """
    if not isinstance(spec, dict):
        raise ValueError("a model spec must be a JSON object")
    missing = {"ising": ("edges", "num_vertices"), "table": ("hamiltonian",)}
    kind = spec.get("type")
    for key in missing.get(kind, ()):
        if key not in spec:
            raise ValueError(f"{kind} model spec has no {key!r} field")
    if kind == "ising":
        num_vertices, edges = spec["num_vertices"], spec["edges"]
        pairs = isinstance(edges, list) and all(
            isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e) for e in edges
        )
        if type(num_vertices) is not int or not pairs:
            raise ValueError("ising model needs integer num_vertices and a list of [i, j] edges")
        return ising_model([tuple(e) for e in edges], num_vertices=num_vertices)
    if kind == "table":
        values = spec["hamiltonian"]
        if not isinstance(values, list) or len(values) < 1:
            raise ValueError("table model needs a non-empty list of energies")
        if not all(_is_number(v) for v in values):
            raise ValueError("table model energies must be numbers within the float range")
        return table_model(values)
    raise ValueError(f"unknown model type {kind!r}")


def load_model(path) -> GibbsModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
