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
`build_prior_factors` emits each kind as one stacked `Family`: its node
indices, weights, batched kernel and per-family kernel arguments.  A
measurement group (`sensors.group_measurements`) is a `Family` too, so the
solver evaluates prior and measurement factors through one contract: the
kernel, called with the family's arguments and then its gathered node
states, returns the errors and one Jacobian per node slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .prior import (PriorParams, StateArrays, apply_pair, binary_batch,
                    decode_with_jacobians_batch, encode_with_jacobians_batch,
                    integrator, k_matrix_inv, kron_lift, quaternary_batch,
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

    def copy(self) -> "Grid":
        return Grid(self.s_knots.copy(), self.t_knots.copy(),
                    self.states.take(np.arange(self.n_nodes)))

    def state_arrays(self) -> StateArrays:
        # an alias of `states`, kept only for the frozen bench/pipeline.py
        return self.states


def _check_knots(knots: np.ndarray, name: str):
    if knots.ndim != 1 or len(knots) < 1:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if len(knots) > 1 and np.min(np.diff(knots)) <= 0:
        raise ValueError(f"{name} must be strictly increasing")


def build_grid(s_knots: Sequence[float], t_knots: Sequence[float],
               init: StateArrays) -> Grid:
    """Lay out the lattice and start every node from `init`, a one-state
    `StateArrays` (such as `PriorParams.prior_mean`) taken as the state at
    the first node and continued across the grid with zero process noise,
    so every prior factor starts at zero error.  (A grid of given states, such
    as `sim.GroundTruth.grid_states()`, is `Grid(s_knots, t_knots, states)`.)

    The continuation sweeps the anti-diagonals n + k = d, one batched step
    per diagonal: a node on the first time row takes a spatial step from its
    left neighbour, one on the first arclength column a temporal step from
    the node before it, and an interior node is the corner that zeroes its
    cell factor, in the chart of the cell's (0, 0) corner.  Along a
    diagonal n rises, so its first node is the one on the first column
    (when d < K) and its last the one on the first row (when d < N); the
    interior nodes' two neighbours are encoded about their bases in one
    call, and every node of the diagonal is decoded in one more.
    """
    s_knots = np.asarray(s_knots, dtype=float).reshape(-1)
    t_knots = np.asarray(t_knots, dtype=float).reshape(-1)
    _check_knots(s_knots, "s_knots")
    _check_knots(t_knots, "t_knots")
    N, K = len(s_knots), len(t_knots)
    # every node starts as `init`; each diagonal overwrites its own nodes
    sa = init.take(np.zeros(N * K, dtype=int))
    ms, mt = integrator(np.diff(s_knots)), integrator(np.diff(t_knots))
    for d in range(1, N + K - 1):
        n = np.arange(max(0, d - K + 1), min(d, N - 1) + 1)
        i = (d - n) * N + n
        col, row = d < K, d < N
        base = sa.take(i - N * (n < d) - (n > 0))
        z = base.chart_origin()
        if col:
            z[:1] = apply_pair(mt[d - 1:d], z[:1], 1)
        if row:
            z[-1:] = apply_pair(ms[d - 1:d], z[-1:], 2)
        inner = slice(int(col), len(n) - int(row))
        if inner.start < inner.stop:
            ni = n[inner]
            msi, mti = ms[ni - 1], mt[d - ni - 1]
            Rb, tb = base.R[inner], base.t[inner]
            z10, z01 = np.split(encode_with_jacobians_batch(
                sa.take(np.concatenate([i[inner] - N, i[inner] - 1])),
                np.concatenate([Rb, Rb]), np.concatenate([tb, tb]),
                want_jac=False)[0], 2)
            z[inner] = (apply_pair(msi, z01, 2) + apply_pair(mti, z10, 1)
                        - apply_pair(mti, apply_pair(msi, z[inner], 2), 1))
        sa.put(i, decode_with_jacobians_batch(z, base.R, base.t,
                                              want_jac=False)[0])
    return Grid(s_knots, t_knots, sa)


# ---------------------------------------------------------------------------
# prior factor families


@dataclass
class Family:
    """Every factor of one kind, stacked: a prior kind or a measurement
    group.

    `nodes` is (m, B): row i holds each factor's i-th node, so each pair of
    rows has one fixed time-row offset.  A measurement group's factors may
    share a node set (several samples in one cell); the solver adds those in
    separate scatter rounds.  `weights` is (B, d, d), the
    inverse noise covariances.  `kernel` is the batched error function of
    the kind, called as `kernel(*args, *node_states)` with the m gathered
    node-state stacks last, in the manner of `functools.partial`: for a
    prior kind `args` is `PriorParams`, the steps' (B, 2, 2) integrators and
    the pair layout of `prior.apply_pair`, or the cell kind's steps ds and
    dt.  `reads`, when given, replaces `nodes` as the rows of node ids
    gathered for the kernel: a measurement group reads its distinct
    temporal bridges' ends (`query.Binding`).
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    kernel: Callable
    args: tuple
    reads: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.nodes.shape[1]

    def evaluate(self, sa: StateArrays):
        """(errors, J_0, ..., J_m-1) at node states `sa`: the (B, d) errors
        and each J_i the (B, d, 24) Jacobian onto slot i's node chart."""
        reads = self.nodes if self.reads is None else self.reads
        return self.kernel(*self.args, *[sa.take(n) for n in reads])


@dataclass
class FactorSet:
    """The prior families (None for a kind the set leaves out) and the
    measurement factors."""

    unary: Optional[Family] = None
    binary_spatial: Optional[Family] = None
    binary_temporal: Optional[Family] = None
    quaternary: Optional[Family] = None
    measurement: list = field(default_factory=list)

    def prior_families(self) -> List[Family]:
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
    inv = np.linalg.inv
    return FactorSet(
        Family("unary", np.zeros((1, 1), dtype=int), inv(params.p0)[None],
               unary_batch, (params,)),
        Family("spatial", np.stack([row, row + 1]),
               kron_lift(None, k_matrix_inv(ds), inv(params.qs_psd)),
               binary_batch, (integrator(ds), 2)),
        Family("temporal", np.stack([col, col + N]),
               kron_lift(k_matrix_inv(dt), None, inv(params.qt_psd)),
               binary_batch, (integrator(dt), 1)),
        Family("cell", np.stack([c00, c00 + 1, c00 + N, c00 + N + 1]),
               kron_lift(k_matrix_inv(cell_dt), k_matrix_inv(cell_ds),
                         inv(params.qst_psd)),
               quaternary_batch, (cell_ds, cell_dt)))
