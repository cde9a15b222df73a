"""Continuous posterior queries at arbitrary (s, t) inside the grid hull.

A point binds to the corners of the one cell that contains it: one node on a
grid node, two on a knot line (along s or along t), four inside a cell.
Interpolation runs in up to two stages: a 1D conditioning in time on each of
the cell's columns, then a 1D conditioning in arclength between the two
column results.  Each stage conditions the bridge value on its endpoints,
with gain Lam(u) = Q(u) phi(D-u)^T Q(D)^-1, prior weight Psi(u) = phi(u) -
Lam(u) phi(D) and residual R(u) = Q(u) - Lam(u) Q(D) Lam(u)^T; a coordinate
on a knot drops its stage.  The three stay (B, 2, 2) factors on the chart's
derivative pairs, applied by `prior.apply_pair`; the stage noise is
R (x) I (x) Q with the PSD Q of the stage's axis.

`bind` turns coordinates into corner nodes and stage gains for any number
of points at once (hull check, knot snapping, cell location, closed-form
gains from one `_bridge` call for both stages), grouped by binding shape;
queries and measurement factors both bind through it.  The gains depend
only on the cell size and the offset, never on the state or the prior.
`interpolate` is the one nonlinear chain, batched over the points of one
binding shape and called with their gathered corner states: the temporal
stage of both columns of every point runs as one batch, decoded in each
column's own chart, and the spatial stage then runs in a chart about the
left column's result.  `interpolate` always returns the chain's Jacobians
with the states; each stage's decode (`prior.decode_with_jacobians_batch`)
gives its part in closed form from the stage's chart, so no decoded state
is encoded again.  `query_states` runs `interpolate` once per binding
shape, pushes the corner covariance blocks through those Jacobians pair by
pair (`CornerCovariances.push`, which never forms the dense corner joint)
and adds the conditioning residual, which only it forms; each measurement
family (`sensors.measurement_batch`) runs `interpolate` once per
linearization.  On cell edges the gains collapse onto the shared nodes
exactly, so adjacent cells evaluate boundary queries through the same chain
and queries are continuous across the whole hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .prior import (NodeState, PriorParams, StateArrays, apply_pair,
                    decode_with_jacobians_batch, encode_self_jacobian_batch,
                    encode_with_jacobians_batch, integrator, k_matrix,
                    k_matrix_inv)

HULL_TOL = 1e-9

Gain = Tuple[np.ndarray, np.ndarray, np.ndarray]


class OutOfHullError(ValueError):
    """Query coordinate outside the rectangle covered by the grid."""


def _T(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def locate(knots: np.ndarray, u: np.ndarray, name: str,
           cell: Optional[int] = None):
    """(index, offset, stage) of each coordinate in u along one grid axis.

    A coordinate not finite or outside [knots[0], knots[-1]] by more than
    HULL_TOL (scaled by the knots' magnitude) raises OutOfHullError.  The
    offset runs from the left knot of the containing cell, the last knot
    mapping into the last cell.  Within the tolerance of a knot a coordinate
    snaps to it: the stage is dropped (False) and the index is the knot's;
    otherwise it is the cell's.  `cell` forces that cell and keeps every
    stage; a coordinate outside the forced cell by more than the tolerance
    raises ValueError.  A single-knot axis has no stage."""
    knots = np.asarray(knots, dtype=float)
    u = np.asarray(u, dtype=float)
    tol = HULL_TOL * max(1.0, float(np.max(np.abs(knots))))
    outside = ~((u >= knots[0] - tol) & (u <= knots[-1] + tol))
    if outside.any():
        raise OutOfHullError(f"{name}={u[outside][0]} outside hull "
                             f"[{knots[0]}, {knots[-1]}]")
    last = max(len(knots) - 2, 0)
    if cell is not None and not 0 <= cell <= last:
        raise ValueError(f"cell index {name}={cell} outside grid")
    idx = np.clip(np.searchsorted(knots, u, side="right") - 1, 0, last) \
        if cell is None else np.full(u.shape, cell)
    if len(knots) == 1:
        return idx, np.zeros(u.shape), np.zeros(u.shape, dtype=bool)
    width = knots[idx + 1] - knots[idx]
    off = u - knots[idx]
    stray = (cell is not None) & ((off < -tol) | (off > width + tol))
    if stray.any():
        raise ValueError(f"{name}={u[stray][0]} outside forced cell "
                         f"{name}={cell} [{knots[cell]}, {knots[cell + 1]}]")
    off = np.clip(off, 0.0, width)
    at_left = (off <= tol) & (cell is None)
    at_right = ~at_left & (width - off <= tol) & (cell is None)
    return idx + at_right, off, ~(at_left | at_right)


# ---------------------------------------------------------------------------
# stage gains


def _bridge(delta, u):
    """2x2 integrator-chain conditioning at offsets u into segments of length
    delta, elementwise: the gain on the far endpoint, the prior-rollout
    weight on the near endpoint, and their residual kernel."""
    k_u = k_matrix(u)
    lam = k_u @ _T(integrator(delta - u)) @ k_matrix_inv(delta)
    psi = integrator(u) - lam @ integrator(delta)
    return lam, psi, k_u - lam @ k_matrix(delta) @ _T(lam)


@dataclass
class Binding:
    """The points of one binding shape.

    `index` (B,) holds their positions in the bound input.  `nodes` is
    (m, B): row i holds each point's i-th corner, in (00, 10, 01, 11) order
    with subscripts (spatial, temporal).  `temporal`/`spatial` are the
    stages' (Lam, Psi, R) as stacked (B, 2, 2) factors on the chart's
    derivative pairs (module docstring), None for a dropped stage.
    """

    index: np.ndarray
    nodes: np.ndarray
    temporal: Optional[Gain]
    spatial: Optional[Gain]

    @property
    def node_ids(self) -> Tuple[int, ...]:
        # the first point's corners; kept only because the frozen
        # bench/pipeline.py reads them from make_interpolant
        return tuple(self.nodes[:, 0].tolist())


def bind(s_knots, t_knots, s, t,
         cell: Optional[Tuple[int, int]] = None) -> List[Binding]:
    """Corner nodes and stage gains of the points (s[i], t[i]), one
    `Binding` per binding shape that occurs.  A coordinate on a knot drops
    its stage, so knot-line points bind to 2 nodes and grid nodes to 1.
    `cell` forces an (n, k) cell on every point: offsets are then measured
    from that cell's corner and no stage is dropped."""
    s_knots = np.asarray(s_knots, dtype=float)
    t_knots = np.asarray(t_knots, dtype=float)
    n_cell, k_cell = cell or (None, None)
    n, sigma, keep_s = locate(s_knots, np.atleast_1d(s), "s", n_cell)
    k, tau, keep_t = locate(t_knots, np.atleast_1d(t), "t", k_cell)
    N = len(s_knots)
    corner = k * N + n
    shape = keep_t + 2 * keep_s
    # both stages' gains in one call: the temporal stages, then the spatial
    gains = _bridge(
        np.concatenate([np.diff(t_knots)[k[keep_t]],
                        np.diff(s_knots)[n[keep_s]]]),
        np.concatenate([tau[keep_t], sigma[keep_s]]))
    row_t = np.cumsum(keep_t) - 1
    row_s = np.cumsum(keep_s) - 1 + np.count_nonzero(keep_t)
    out = []
    for code in np.unique(shape):
        idx = np.flatnonzero(shape == code)
        has_t, has_s = code % 2, code // 2
        steps = [0, 1] if has_s else [0]
        if has_t:
            steps += [d + N for d in steps]
        out.append(Binding(
            idx, corner[idx] + np.array(steps)[:, None],
            tuple(g[row_t[idx]] for g in gains) if has_t else None,
            tuple(g[row_s[idx]] for g in gains) if has_s else None))
    return out


def make_interpolant(s_knots, t_knots, params: PriorParams, s: float,
                     t: float) -> Binding:
    """One point's binding (`params` is unread).  Kept only because the
    frozen bench/pipeline.py times and counts bindings through it."""
    return bind(s_knots, t_knots, s, t)[0]


# ---------------------------------------------------------------------------
# nonlinear interpolation chain


def _pair_state(a: StateArrays, b: StateArrays, gain: Gain, outer: int):
    """Condition bridge states on endpoint pairs (a, b) in each a's chart and
    decode; `gain` is the stage's (Lam, Psi, R), `outer` its pair layout.
    Returns (states, J_a, J_b, S) where the Jacobians map endpoint chart
    perturbations to each result's own chart and S, the decode's inverse
    chart Jacobian, maps chart-level residual noise into it.  J_a's pose
    columns take the decode's closed-form S @ base_motion for the base
    moving with a."""
    lam, psi, _ = gain
    z_b, enc_b, bm_b = encode_with_jacobians_batch(b, a.R, a.t)
    z_m = (apply_pair(psi, a.chart_origin(), outer)
           + apply_pair(lam, z_b, outer))
    x_m, s, s_bm = decode_with_jacobians_batch(z_m, a.R, a.t)
    j_a = apply_pair(psi, encode_self_jacobian_batch(a), outer)
    j_a[..., 0:6] += apply_pair(lam, bm_b, outer)
    j_a = s @ j_a
    j_a[..., 0:6] -= s_bm
    return x_m, j_a, s @ apply_pair(lam, enc_b, outer), s


def interpolate(corners: Sequence[StateArrays], temporal: Optional[Gain],
                spatial: Optional[Gain]):
    """Interpolated states of B points that share one binding shape.

    `corners` holds the m gathered (B-item) corner-state stacks in
    (00, 10, 01, 11) order with subscripts (spatial, temporal).
    `temporal`/`spatial` are the stacked stage gains, None for a dropped
    stage.  Returns (states, jacobians, noise): a list of m (B, 24, 24) maps
    from each corner's chart to the point's own chart and the stage noise
    terms from which `_residual` forms the conditioning residual in that
    chart.
    """
    B = len(corners[0])
    if temporal is None and spatial is None:
        return corners[0], [np.broadcast_to(np.eye(24), (B, 24, 24))], []
    if temporal is None or spatial is None:
        gain, outer = (temporal, 1) if spatial is None else (spatial, 2)
        x, j_a, j_b, s = _pair_state(*corners, gain, outer)
        return x, [j_a, j_b], [((s,), gain[2], outer)]

    # both columns' temporal stages as one batch: left (00, 01), right (10, 11)
    c00, c10, c01, c11 = corners
    cols, jc_a, jc_b, s_c = _pair_state(
        StateArrays.concat([c00, c10]), StateArrays.concat([c01, c11]),
        tuple(np.concatenate([g, g]) for g in temporal), 1)
    left, right = cols.take(np.arange(B)), cols.take(np.arange(B, 2 * B))
    x, jq_l, jq_r, s_q = _pair_state(left, right, spatial, 2)
    jacs = [jq_l @ jc_a[:B], jq_r @ jc_a[B:], jq_l @ jc_b[:B],
            jq_r @ jc_b[B:]]
    noise = [((jq_l, s_c[:B]), temporal[2], 1),
             ((jq_r, s_c[B:]), temporal[2], 1), ((s_q,), spatial[2], 2)]
    return x, jacs, noise


def _residual(noise, params: PriorParams, B: int) -> np.ndarray:
    """Sum of T (R (x) I (x) Q) T^T over `interpolate`'s stage noise terms
    (maps, R, outer), T the maps' product and Q the stage axis' PSD: Q acts
    on each 6-row block of T^T, then R on its pairs."""
    out = np.zeros((B, 24, 24))
    for maps, r2, outer in noise:
        t = reduce(np.matmul, maps)
        q = params.qt_psd if outer == 1 else params.qs_psd
        out += t @ apply_pair(r2, (q @ _T(t).reshape(B, 4, 6, 24)).reshape(
            B, 24, 24), outer)
    return out


def query_states(posterior, s, t, cell: Optional[Tuple[int, int]] = None):
    """Posterior mean states (a `StateArrays`) and (P, 24, 24) covariances at
    the points (s[i], t[i]), answered as one batch per binding shape.  Each
    covariance is the corner covariance blocks pushed through the chain's
    Jacobians (`CornerCovariances.push`) plus the conditioning residual."""
    grid = posterior.grid
    s, t = np.atleast_1d(s), np.atleast_1d(t)
    means = grid.states.take(np.zeros(len(s), dtype=int))
    covs = np.empty((len(s), 24, 24))
    for b in bind(grid.s_knots, grid.t_knots, s, t, cell):
        x, jacs, noise = interpolate([grid.states.take(n) for n in b.nodes],
                                     b.temporal, b.spatial)
        cov = posterior.cov.push(b.nodes, jacs) \
            + _residual(noise, posterior.params, len(b.index))
        means.put(b.index, x)
        covs[b.index] = 0.5 * (cov + _T(cov))
    return means, covs


def query_state(posterior, s: float, t: float,
                cell: Optional[Tuple[int, int]] = None):
    """(mean state, covariance) at one point; touches only its cell."""
    means, covs = query_states(posterior, s, t, cell)
    return means[0], covs[0]


def query_mean(posterior, s: float, t: float,
               cell: Optional[Tuple[int, int]] = None) -> NodeState:
    """Posterior mean state at (s, t); touches only the containing cell's
    states, never the covariance."""
    grid = posterior.grid
    (b,) = bind(grid.s_knots, grid.t_knots, s, t, cell)
    return interpolate([grid.states.take(n) for n in b.nodes], b.temporal,
                       b.spatial)[0][0]
