"""Estimation grid and prior factor construction.

Nodes live on an arclength x time lattice, flattened space-major:
flat index = k * N + n for arclength index n and time index k.  The prior
couples each node only to its immediate lattice neighbors, which is what
keeps the normal equations block-banded with bandwidth N + 1.

The prior is four factor kinds (unary, spatial binary, temporal binary and
cell), each the same kernel applied at many lattice sites.
`build_prior_factors` emits each kind as one stacked `PriorFamily`: its
node indices, weights and per-item kernel arguments as arrays, evaluated by
one batched kernel call.  Families share the (nodes, weights, evaluate)
protocol of `sensors.MeasurementGroup`, so the solver treats prior and
measurement factors alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .prior import (NodeState, PriorParams, StateArrays, binary_batch,
                    phi_s_batch, phi_t_batch, propagate_corner,
                    propagate_spatial, propagate_temporal, q_binary_s_inv,
                    q_binary_t_inv, q_quaternary_inv, quaternary_batch,
                    unary_batch)


@dataclass
class Grid:
    s_knots: np.ndarray
    t_knots: np.ndarray
    states: List[NodeState]

    def __post_init__(self):
        self.s_knots = np.asarray(self.s_knots, dtype=float).reshape(-1)
        self.t_knots = np.asarray(self.t_knots, dtype=float).reshape(-1)
        if len(self.states) != self.n_nodes:
            raise ValueError("grid states length does not match knot counts")

    @property
    def N(self) -> int:
        return len(self.s_knots)

    @property
    def K(self) -> int:
        return len(self.t_knots)

    @property
    def n_nodes(self) -> int:
        return self.N * self.K

    def flat(self, n: int, k: int) -> int:
        return k * self.N + n

    def node_indices(self, i: int):
        return i % self.N, i // self.N

    def state(self, n: int, k: int) -> NodeState:
        return self.states[self.flat(n, k)]

    def copy(self) -> "Grid":
        return Grid(self.s_knots.copy(), self.t_knots.copy(),
                    [s.copy() for s in self.states])

    def state_arrays(self) -> StateArrays:
        return StateArrays.from_states(self.states)


def _check_knots(knots: np.ndarray, name: str):
    if knots.ndim != 1 or len(knots) < 1:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if len(knots) > 1 and np.min(np.diff(knots)) <= 0:
        raise ValueError(f"{name} must be strictly increasing")


def build_grid(s_knots: Sequence[float], t_knots: Sequence[float],
               init: Union[NodeState, Callable[[float, float], NodeState]]) -> Grid:
    """Lay out the lattice and initialize every node.

    `init` is either the state at the first node, continued across the grid
    with zero process noise (so every prior factor starts at zero error), or
    a callable (s, t) -> NodeState sampled at each knot pair.
    """
    s_knots = np.asarray(s_knots, dtype=float).reshape(-1)
    t_knots = np.asarray(t_knots, dtype=float).reshape(-1)
    _check_knots(s_knots, "s_knots")
    _check_knots(t_knots, "t_knots")
    N, K = len(s_knots), len(t_knots)
    states: List[NodeState] = [None] * (N * K)  # type: ignore[list-item]
    if callable(init):
        for k in range(K):
            for n in range(N):
                st = init(float(s_knots[n]), float(t_knots[k]))
                states[k * N + n] = st.copy()
    else:
        states[0] = init.copy()
        for n in range(1, N):
            states[n] = propagate_spatial(states[n - 1], s_knots[n] - s_knots[n - 1])
        for k in range(1, K):
            dt = t_knots[k] - t_knots[k - 1]
            states[k * N] = propagate_temporal(states[(k - 1) * N], dt)
            for n in range(1, N):
                ds = s_knots[n] - s_knots[n - 1]
                states[k * N + n] = propagate_corner(
                    states[(k - 1) * N + n - 1], states[(k - 1) * N + n],
                    states[k * N + n - 1], ds, dt)
    return Grid(s_knots, t_knots, states)


# ---------------------------------------------------------------------------
# prior factor families


@dataclass
class PriorFamily:
    """Every prior factor of one kind, stacked.

    `nodes` is (m, B): row i holds each factor's i-th node, so each pair of
    rows has one fixed time-row offset.  `weights` is (B, 24, 24), the
    inverse noise covariances.  `kernel` is the batched error function of
    the kind, called with the m gathered node-state stacks followed by
    `args`, its per-item arguments.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    kernel: Callable
    args: tuple

    def __len__(self) -> int:
        return self.nodes.shape[1]

    def evaluate(self, sa: StateArrays, want_jac: bool = True):
        """(errors, J_0, ..., J_m-1) at node states `sa`; each J_i is the
        (B, 24, 24) Jacobian onto slot i's node chart, None without
        `want_jac`."""
        return self.kernel(*[sa.take(n) for n in self.nodes], *self.args,
                           want_jac=want_jac)


@dataclass
class FactorSet:
    """The prior families (None for a kind the set leaves out) and the
    measurement factors."""

    unary: Optional[PriorFamily] = None
    binary_spatial: Optional[PriorFamily] = None
    binary_temporal: Optional[PriorFamily] = None
    quaternary: Optional[PriorFamily] = None
    measurement: list = field(default_factory=list)

    def prior_families(self) -> List[PriorFamily]:
        """The non-empty prior families, in assembly order."""
        return [f for f in (self.unary, self.binary_spatial,
                            self.binary_temporal, self.quaternary) if f]

    def prior_count(self) -> int:
        return sum(len(f) for f in self.prior_families())


def build_prior_factors(grid: Grid, params: PriorParams) -> FactorSet:
    """One unary factor at the first node, binary chains along the first time
    row and first arclength column, and one cell factor per lattice cell
    (time-major), each kind as one family."""
    N, K = grid.N, grid.K
    ds = np.diff(grid.s_knots)
    dt = np.diff(grid.t_knots)
    row, col = np.arange(N - 1), N * np.arange(K - 1)
    c00 = (col[:, None] + row[None, :]).ravel()
    cell_ds = np.tile(ds, K - 1)
    cell_dt = np.repeat(dt, N - 1)

    def weights(fn, *steps):
        w = [fn(*d, params) for d in zip(*steps)]
        return np.array(w).reshape(-1, 24, 24)

    return FactorSet(
        PriorFamily("unary", np.zeros((1, 1), dtype=int),
                    np.linalg.inv(params.p0)[None], unary_batch, (params,)),
        PriorFamily("spatial", np.stack([row, row + 1]),
                    weights(q_binary_s_inv, ds), binary_batch,
                    (phi_s_batch(ds),)),
        PriorFamily("temporal", np.stack([col, col + N]),
                    weights(q_binary_t_inv, dt), binary_batch,
                    (phi_t_batch(dt),)),
        PriorFamily("cell", np.stack([c00, c00 + 1, c00 + N, c00 + N + 1]),
                    weights(q_quaternary_inv, cell_ds, cell_dt),
                    quaternary_batch, (cell_ds, cell_dt)))
