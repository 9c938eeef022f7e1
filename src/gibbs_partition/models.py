"""Gibbs models over finite state spaces and the exact partition oracle.

A model is its density of states: the distinct energies E_l and their
multiplicities m_l, which is all that the estimators, the exact sampler and
the exact truth ln Z(b) = logsumexp(ln m_l - b E_l) read; its flags
(``n_bound``, ``sign_class``, ``integer_valued``) are derived from the
levels.  States are opaque integer indices 0..num_states-1, and the state
table H(x) serves only state-level consumers (model files, kernel
enumeration, tests), never a draw: the MCMC sampler sums energies from its
spins.  Models are plain data, not changed after construction (a deferred
state table is only filled in), so they are safe to share across concurrent
workers and they pickle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Keeps the exact oracle under seconds on desk hardware.
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

    ``energies`` and ``counts`` are float64 arrays; counts below 2^53 are
    exact integers, and larger ones (grids past 53 sites) carry float64
    rounding.  Three flags are derived from the levels: ``n_bound``, the
    least positive integer with |E_l| <= n_bound for every level;
    ``sign_class``; and ``integer_valued``, whether all energies are
    integers, which is what the integer-regime parameter choices assume.

    The state table H(x), read as ``hamiltonian``, has one source: a table
    passed as ``hamiltonian``, which the levels are counted from; else a
    ``source`` model, giving ``source.hamiltonian + shift``; else the Ising
    ``graph``, giving -#aligned edges.  The last two take ``levels`` and
    ``num_states`` and build the table, under the guard, on first read, so a
    model pickles as its levels, graph and source.  Every model has its
    levels in memory, so every model has an exact truth.
    """

    def __init__(
        self,
        hamiltonian,
        name: str = "table",
        graph: IsingGraph | None = None,
        *,
        levels: tuple[np.ndarray, np.ndarray] | None = None,
        num_states: int | None = None,
        source: GibbsModel | None = None,
        shift: float = 0.0,
    ):
        if hamiltonian is None:
            if levels is None or num_states is None or (graph is None and source is None):
                raise ValueError("a tableless model needs levels, num_states and a graph or source")
            energies, counts = (np.array(x, dtype=np.float64) for x in levels)
        else:
            hamiltonian = np.array(hamiltonian, dtype=np.float64)
            if hamiltonian.ndim != 1 or hamiltonian.size < 1:
                raise ValueError("hamiltonian must be a non-empty 1-d array")
            hamiltonian.flags.writeable = False
            energies, counts = np.unique(hamiltonian, return_counts=True)
            counts = counts.astype(np.float64)
            num_states = hamiltonian.size
        if energies.ndim != 1 or energies.size < 1 or counts.shape != energies.shape:
            raise ValueError("levels must be two non-empty 1-d arrays of one length")
        if not np.all(np.isfinite(energies)):
            raise ValueError("hamiltonian values must be finite")
        if np.any(np.diff(energies) <= 0) or np.any(counts < 1):
            raise ValueError("level energies must ascend strictly, with positive counts")
        energies.flags.writeable = False
        counts.flags.writeable = False
        self._table = hamiltonian
        self.source = source
        self.shift = shift
        self.energies = energies
        self.counts = counts
        self.num_states = int(num_states)
        self.n_bound = _bound_for(energies)
        self.sign_class = _sign_class(energies)
        self.integer_valued = _is_integer(energies)
        self.name = name
        self.graph = graph

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writable; models are not changed.
        self.__dict__.update(state)
        for array in (self.energies, self.counts, self._table):
            if array is not None:
                array.flags.writeable = False

    @property
    def hamiltonian(self) -> np.ndarray:
        """The state table H(x), built from the source or graph on first read."""
        if self._table is None:
            if self.source is not None:
                h = self.source.hamiltonian + self.shift
            else:
                h = _ising_table(self.graph.num_vertices, self.graph.edges)
            h.flags.writeable = False
            self._table = h
        return self._table


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


def require_enumerable(num_states: int) -> None:
    """Raise EnumerationGuardError for a state space past the enumeration guard."""
    if num_states > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"{num_states} states exceed the enumeration guard "
            f"({ENUMERATION_GUARD}); state-level oracles need a smaller model"
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
        m = np.sum(at_top, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), keepdims=True) / m
        out = np.log1p(s) + np.log(m) + top
        if not np.isfinite(out[0]):
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return float(out[0])


def table_model(values, name: str = "table") -> GibbsModel:
    """Build a model from an explicit energy table."""
    h = np.asarray(values, dtype=np.float64)
    return GibbsModel(hamiltonian=h, name=name)


def _ising_table(num_vertices: int, edges) -> np.ndarray:
    """H(x) = -#aligned edges for every state x; spin(v) = +1 iff bit v of x is set."""
    require_enumerable(2 ** num_vertices)
    idx = np.arange(2 ** num_vertices, dtype=np.int64)
    h = np.zeros(idx.size, dtype=np.float64)
    for i, j in edges:
        aligned = ((idx >> i) & 1) == ((idx >> j) & 1)
        h[aligned] -= 1.0
    return h


def ising_model(edges, num_vertices: int) -> GibbsModel:
    """Ising model on a simple graph: Omega = {-1,1}^V, H(x) = -#aligned edges.

    State index s encodes spins bitwise: spin(v) = +1 iff bit v of s is set.
    n_bound equals |E| (all edges aligned), sign class is nonpositive.  The
    levels are counted from the full state table, so the enumeration
    guard bounds num_vertices; the model keeps the graph, not the table.
    """
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
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
    return GibbsModel(
        hamiltonian=None,
        name=f"ising-{num_vertices}v-{len(canon)}e",
        graph=IsingGraph(num_vertices=num_vertices, edges=tuple(canon)),
        levels=np.unique(_ising_table(num_vertices, canon), return_counts=True),
        num_states=2 ** num_vertices,
    )


def grid_model(rows: int, cols: int) -> GibbsModel:
    """Free-boundary rows x cols Ising grid, levels counted by transfer matrix.

    The same graph, n_bound, levels and state indexing as
    ``ising_model(grid_edges(rows, cols), rows * cols)``, but the density of
    states is counted site by site over the 2^w spin patterns of a front of
    w = min(rows, cols) sites (Beale, PRL 76:78, 1996), so building it costs
    O(2^w |E|) per site and no 2^n array.  The enumeration guard bounds the
    count array, not the state space; the state table is built, under
    the guard, only if ``hamiltonian`` is read.
    """
    if rows < 1 or cols < 1:
        raise ValueError("a grid needs at least one row and one column")
    num_vertices = rows * cols
    edges = grid_edges(rows, cols)
    width = min(rows, cols)
    if 2 ** width * (len(edges) + 1) > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"a {rows}x{cols} grid needs 2^{width} x {len(edges) + 1} level counts, "
            f"past the enumeration guard ({ENUMERATION_GUARD})"
        )
    if num_vertices >= 1024:
        raise EnumerationGuardError(
            f"2^{num_vertices} states pass the float64 range of the level counts"
        )
    return GibbsModel(
        hamiltonian=None,
        name=f"ising-{num_vertices}v-{len(edges)}e",
        graph=IsingGraph(num_vertices=num_vertices, edges=tuple(edges)),
        levels=_grid_levels(width, num_vertices // width, len(edges)),
        num_states=2 ** num_vertices,
    )


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


def constant_model(level: float, num_states: int = 4, name: str | None = None) -> GibbsModel:
    """Model with H identically equal to ``level``; Z(b)/Z(0) = exp(-b*level)."""
    if num_states < 1:
        raise ValueError("num_states must be >= 1")
    return table_model(
        np.full(num_states, float(level)),
        name=name or f"const-{level:g}",
    )


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
    """ln Z(beta) = logsumexp(ln m_l - beta E_l) over the model's levels;
    raw Z is never materialized."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    return logsumexp(np.log(model.counts) - beta * model.energies)


def mean_neg_energy(model: GibbsModel, beta: float) -> float:
    """E[-H(X)] for X ~ pi_beta, i.e. the slope z'(beta), over the levels."""
    h = model.energies
    logw = np.log(model.counts) - beta * h
    w = np.exp(logw - logw.max())
    return float(np.sum(-h * w) / np.sum(w))


def log_ratio_exact(model: GibbsModel, beta: float) -> float:
    """Signed ln(Z(beta)/Z(0)) from the exact oracle."""
    return log_partition_exact(model, beta) - log_partition_exact(model, 0.0)


def interval_length_exact(model: GibbsModel, beta: float) -> float:
    """q = |ln(Z(beta)/Z(0))|, the length of the z-interval TPA walks over."""
    return abs(log_ratio_exact(model, beta))


def shift_hamiltonian(model: GibbsModel, c: float) -> GibbsModel:
    """Add a constant to every energy: pi_beta unchanged, ln Z'(b) = ln Z(b) - b*c.

    Only the levels are shifted; the shifted state table is built from the
    model's own if it is read.  Levels that round to one energy merge.
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
    return GibbsModel(
        hamiltonian=None,
        name=f"{model.name}+shift({c:g})",
        graph=model.graph,
        levels=(energies, np.bincount(level, weights=model.counts)),
        num_states=model.num_states,
        source=model,
        shift=c,
    )


def model_to_dict(model: GibbsModel) -> dict:
    # A shift moves the ground level off the graph's -|E|; only a table keeps it.
    if model.graph is not None and model.energies[0] == -len(model.graph.edges):
        return {
            "type": "ising",
            "num_vertices": model.graph.num_vertices,
            "edges": [list(e) for e in model.graph.edges],
        }
    return {"type": "table", "hamiltonian": [float(v) for v in model.hamiltonian]}


def model_from_dict(spec: dict) -> GibbsModel:
    """Load a model from the JSON schema, validating invariants.

    Malformed specs raise ValueError: a spec that is not an object, a
    missing field, ising fields that are not an integer vertex count and a
    list of integer pairs, or a table that is not a non-empty list of numbers.
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
        if not all(type(v) in (int, float) for v in values):
            raise ValueError("table model energies must be numbers")
        return table_model(values)
    raise ValueError(f"unknown model type {kind!r}")


def load_model(path) -> GibbsModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def save_model(model: GibbsModel, path) -> None:
    spec = model_to_dict(model)  # may raise; then no file is opened
    with open(path, "w") as fh:
        json.dump(spec, fh)
