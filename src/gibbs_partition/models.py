"""Gibbs models over finite state spaces and the brute-force partition oracle.

States are opaque integer indices 0..num_states-1; spin semantics live only
inside the Ising constructor.  All values are immutable after construction,
so models are safe to share across concurrent workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

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


@dataclass(frozen=True)
class GibbsModel:
    """Energy table H(x) over an indexed finite state space.

    ``n_bound`` is a positive integer with |H(x)| <= n_bound for every state;
    ``integer_valued`` records whether all energies are integers, which is
    what the integer-regime parameter choices assume.
    """

    hamiltonian: np.ndarray
    n_bound: int
    sign_class: str
    integer_valued: bool
    name: str = "table"
    graph: IsingGraph | None = None

    def __post_init__(self):
        h = np.array(self.hamiltonian, dtype=np.float64)
        if h.ndim != 1 or h.size < 1:
            raise ValueError("hamiltonian must be a non-empty 1-d array")
        if not np.all(np.isfinite(h)):
            raise ValueError("hamiltonian values must be finite")
        h.flags.writeable = False
        object.__setattr__(self, "hamiltonian", h)
        if int(self.n_bound) != self.n_bound or self.n_bound < 1:
            raise ValueError("n_bound must be a positive integer")
        if float(np.max(np.abs(h))) > self.n_bound:
            raise ValueError("n_bound does not dominate max |H(x)|")
        if self.sign_class != _sign_class(h):
            raise ValueError(
                f"declared sign_class {self.sign_class!r} inconsistent with "
                f"energy range [{h.min()}, {h.max()}]"
            )
        if self.integer_valued != bool(np.all(h == np.round(h))):
            raise ValueError("integer_valued flag inconsistent with energies")

    @property
    def num_states(self) -> int:
        return int(self.hamiltonian.size)


@dataclass(frozen=True)
class LogPartition:
    """Natural log of Z(beta); raw Z is never materialized."""

    beta: float
    value: float


def _sign_class(h: np.ndarray) -> str:
    # All-zero tables count as nonpositive so TPA has a direction.
    if np.all(h <= 0.0):
        return SIGN_NONPOSITIVE
    if np.all(h >= 0.0):
        return SIGN_NONNEGATIVE
    return SIGN_MIXED


def _bound_for(h: np.ndarray) -> int:
    return max(1, math.ceil(float(np.max(np.abs(h)))))


def table_model(values, name: str = "table", graph: IsingGraph | None = None) -> GibbsModel:
    """Build a model from an explicit energy table."""
    h = np.asarray(values, dtype=np.float64)
    return GibbsModel(
        hamiltonian=h,
        n_bound=_bound_for(h),
        sign_class=_sign_class(h),
        integer_valued=bool(np.all(h == np.round(h))),
        name=name,
        graph=graph,
    )


def ising_model(edges, num_vertices: int) -> GibbsModel:
    """Ising model on a simple graph: Omega = {-1,1}^V, H(x) = -#aligned edges.

    State index s encodes spins bitwise: spin(v) = +1 iff bit v of s is set.
    n_bound equals |E| (all edges aligned), sign class is nonpositive.
    """
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
    if 2 ** num_vertices > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"2^{num_vertices} states exceed the enumeration guard "
            f"({ENUMERATION_GUARD}); exact oracle only supports smaller models"
        )
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

    idx = np.arange(2 ** num_vertices, dtype=np.int64)
    h = np.zeros(idx.size, dtype=np.float64)
    for i, j in canon:
        aligned = ((idx >> i) & 1) == ((idx >> j) & 1)
        h[aligned] -= 1.0
    graph = IsingGraph(num_vertices=num_vertices, edges=tuple(canon))
    return GibbsModel(
        hamiltonian=h,
        n_bound=max(1, len(canon)),
        sign_class=SIGN_NONPOSITIVE,
        integer_valued=True,
        name=f"ising-{num_vertices}v-{len(canon)}e",
        graph=graph,
    )


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


def log_partition_exact(model: GibbsModel, beta: float) -> LogPartition:
    """ln Z(beta) by full enumeration with a max-shift log-sum-exp.

    Raises EnumerationGuardError above the enumeration guard: past that size
    the model is usable with the sampling estimators only.
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    if model.num_states > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"{model.num_states} states exceed the enumeration guard; "
            "sampling oracle only"
        )
    value = float(logsumexp(-beta * model.hamiltonian))
    return LogPartition(beta=float(beta), value=value)


def mean_neg_energy(model: GibbsModel, beta: float) -> float:
    """E[-H(X)] for X ~ pi_beta, i.e. the slope z'(beta), by enumeration."""
    h = model.hamiltonian
    logw = -beta * h
    logw = logw - logw.max()
    w = np.exp(logw)
    return float(np.sum(-h * w) / np.sum(w))


def log_ratio_exact(model: GibbsModel, beta: float) -> float:
    """Signed ln(Z(beta)/Z(0)) from the exact oracle."""
    return log_partition_exact(model, beta).value - log_partition_exact(model, 0.0).value


def interval_length_exact(model: GibbsModel, beta: float) -> float:
    """q = |ln(Z(beta)/Z(0))|, the length of the z-interval TPA walks over."""
    return abs(log_ratio_exact(model, beta))


def shift_hamiltonian(model: GibbsModel, c: float) -> GibbsModel:
    """Add a constant to every energy: pi_beta unchanged, ln Z'(b) = ln Z(b) - b*c."""
    if c == 0.0:
        return model
    h = model.hamiltonian + float(c)
    return GibbsModel(
        hamiltonian=h,
        n_bound=_bound_for(h),
        sign_class=_sign_class(h),
        integer_valued=bool(np.all(h == np.round(h))),
        name=f"{model.name}+shift({c:g})",
        graph=model.graph,
    )


def model_to_dict(model: GibbsModel) -> dict:
    if model.graph is not None:
        return {
            "type": "ising",
            "num_vertices": model.graph.num_vertices,
            "edges": [list(e) for e in model.graph.edges],
        }
    return {"type": "table", "hamiltonian": [float(v) for v in model.hamiltonian]}


def model_from_dict(spec: dict) -> GibbsModel:
    """Load a model from the JSON schema, validating invariants."""
    kind = spec.get("type")
    if kind == "ising":
        return ising_model(
            [tuple(e) for e in spec["edges"]],
            num_vertices=int(spec["num_vertices"]),
        )
    if kind == "table":
        values = spec["hamiltonian"]
        if len(values) < 1:
            raise ValueError("table model needs at least one state")
        return table_model(values)
    raise ValueError(f"unknown model type {kind!r}")


def load_model(path) -> GibbsModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def save_model(model: GibbsModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)
