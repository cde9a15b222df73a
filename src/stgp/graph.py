"""Estimation grid and prior factor construction.

Nodes live on an arclength x time lattice, flattened time-major:
flat index = k * N + n for arclength index n and time index k.  The grid
holds their states as one `StateArrays`.  The prior couples each node only
to its 8 lattice neighbours, which keeps the normal equations block-banded
once the solver orders the nodes along the longer grid axis: with bandwidth
min(N, K) + 1 when both axes have two knots or more, 1 along a single row
or column and 0 for one node.

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

from .prior import (NodeState, PriorParams, StateArrays, apply_pair,
                    binary_batch, chart_decode_batch,
                    encode_with_jacobians_batch, integrator, q_binary_s_inv,
                    q_binary_t_inv, q_quaternary_inv, quaternary_batch,
                    unary_batch)


@dataclass
class Grid:
    s_knots: np.ndarray
    t_knots: np.ndarray
    states: StateArrays

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

    def state(self, n: int, k: int) -> NodeState:
        return self.states[self.flat(n, k)]

    def copy(self) -> "Grid":
        return Grid(self.s_knots.copy(), self.t_knots.copy(),
                    self.states.take(np.arange(self.n_nodes)))

    def state_arrays(self) -> StateArrays:
        return self.states


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

    The continuation sweeps the anti-diagonals n + k = d, one batched step
    per diagonal: a node on the first time row takes a spatial step from its
    left neighbour, one on the first arclength column a temporal step from
    the node before it, and an interior node is the corner that zeroes its
    cell factor, in the chart of the cell's (0, 0) corner.
    """
    s_knots = np.asarray(s_knots, dtype=float).reshape(-1)
    t_knots = np.asarray(t_knots, dtype=float).reshape(-1)
    _check_knots(s_knots, "s_knots")
    _check_knots(t_knots, "t_knots")
    N, K = len(s_knots), len(t_knots)
    if callable(init):
        return Grid(s_knots, t_knots, StateArrays.from_states(
            [init(float(s), float(t)) for t in t_knots for s in s_knots]))
    # every node starts as `init`; each diagonal overwrites its own nodes
    sa = StateArrays.from_state(init).take(np.zeros(N * K, dtype=int))
    ms, mt = integrator(np.diff(s_knots)), integrator(np.diff(t_knots))
    for d in range(1, N + K - 1):
        n = np.arange(max(0, d - K + 1), min(d, N - 1) + 1)
        k = d - n
        i = k * N + n
        row, col, inner = k == 0, n == 0, (n > 0) & (k > 0)
        base = sa.take(i - N * (k > 0) - (n > 0))
        z = base.chart_origin()
        z[row] = apply_pair(ms[n[row] - 1], z[row], 2)
        z[col] = apply_pair(mt[k[col] - 1], z[col], 1)
        if inner.any():
            msi, mti = ms[n[inner] - 1], mt[k[inner] - 1]
            Rb, tb = base.R[inner], base.t[inner]
            z10 = encode_with_jacobians_batch(sa.take(i[inner] - N), Rb, tb,
                                              want_jac=False)[0]
            z01 = encode_with_jacobians_batch(sa.take(i[inner] - 1), Rb, tb,
                                              want_jac=False)[0]
            z[inner] = (apply_pair(msi, z01, 2) + apply_pair(mti, z10, 1)
                        - apply_pair(mti, apply_pair(msi, z[inner], 2), 1))
        sa.put(i, chart_decode_batch(z, base.R, base.t))
    return Grid(s_knots, t_knots, sa)


# ---------------------------------------------------------------------------
# prior factor families


@dataclass
class PriorFamily:
    """Every prior factor of one kind, stacked.

    `nodes` is (m, B): row i holds each factor's i-th node, so each pair of
    rows has one fixed time-row offset.  `weights` is (B, 24, 24), the
    inverse noise covariances.  `kernel` is the batched error function of
    the kind, called with the m gathered node-state stacks followed by
    `args`: `PriorParams`, the steps' (B, 2, 2) integrators and the pair
    layout of `prior.apply_pair`, or the cell kind's steps ds and dt.
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
                    (integrator(ds), 2)),
        PriorFamily("temporal", np.stack([col, col + N]),
                    weights(q_binary_t_inv, dt), binary_batch,
                    (integrator(dt), 1)),
        PriorFamily("cell", np.stack([c00, c00 + 1, c00 + N, c00 + N + 1]),
                    weights(q_quaternary_inv, cell_ds, cell_dt),
                    quaternary_batch, (cell_ds, cell_dt)))
