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
The temporal stage depends only on its column, its cell and the offset, so
points at one time share it: a shape query (many arclengths at one
instant) has adjacent points on one knot column, and two samples at one
(s, t) share both columns.  `bind` therefore gives each binding shape its
distinct temporal bridges, the nodes (n, k), (n, k+1) at one offset, and
each point's left and right bridge (`temporal_bridges`, keyed by node
ids and times only), and `sensors.group_measurements` gives each
measurement family the same.  `interpolate` is the one nonlinear chain,
batched over the points of one binding shape and called with the gathered
states of the binding's `ends`: it conditions every distinct bridge once,
decoded in its column's own chart, and the spatial stage then runs per
point in a chart about its left column's result, reading both columns'
results by index.  `interpolate` always returns the chain's Jacobians with
the states; each stage's decode (`prior.decode_with_jacobians_batch`)
gives its part in closed form from the stage's chart, so no decoded state
is encoded again.  `answer` runs `interpolate` on one binding, pushes the
corner covariance blocks through those Jacobians pair by pair
(`CornerCovariances.push`, which never forms the dense corner joint) and
adds the conditioning residual, which only it forms; `query_states`
answers each binding shape of its points, `cli.cmd_query` each CHUNK
slice (`Binding.take`) of one `bind` call, and each measurement family
(`sensors.measurement_batch`) runs `interpolate` once per linearization.
On cell edges the gains collapse onto the shared nodes exactly, so
adjacent cells evaluate boundary queries through the same chain and
queries are continuous across the whole hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .prior import (ChartRangeError, NodeState, PriorParams, StateArrays,
                    apply_pair, decode_with_jacobians_batch,
                    encode_self_jacobian_batch, encode_with_jacobians_batch,
                    integrator, k_matrix, k_matrix_inv)

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
    # the knots increase, so their largest magnitude is at an end
    tol = HULL_TOL * max(1.0, abs(knots[0]), abs(knots[-1]))
    inside = (u >= knots[0] - tol) & (u <= knots[-1] + tol)
    if not inside.all():
        raise OutOfHullError(f"{name}={u[~inside][0]} outside hull "
                             f"[{knots[0]}, {knots[-1]}]")
    last = max(len(knots) - 2, 0)
    if cell is not None and not 0 <= cell <= last:
        raise ValueError(f"cell index {name}={cell} outside grid")
    # np.minimum/np.maximum, not np.clip, whose fixed cost is several times
    # theirs on the few coordinates of one point
    idx = np.minimum(np.maximum(
        np.searchsorted(knots, u, side="right") - 1, 0), last) \
        if cell is None else np.full(u.shape, cell)
    if len(knots) == 1:
        return idx, np.zeros(u.shape), np.zeros(u.shape, dtype=bool)
    width = knots[idx + 1] - knots[idx]
    off = u - knots[idx]
    if cell is not None:
        stray = (off < -tol) | (off > width + tol)
        if stray.any():
            raise ValueError(f"{name}={u[stray][0]} outside forced cell "
                             f"{name}={cell} [{knots[cell]}, "
                             f"{knots[cell + 1]}]")
        return idx, np.minimum(np.maximum(off, 0.0), width), \
            np.ones(u.shape, dtype=bool)
    off = np.minimum(np.maximum(off, 0.0), width)
    at_left = off <= tol
    at_right = ~at_left & (width - off <= tol)
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
    with subscripts (spatial, temporal).  `spatial` is the arclength stage's
    (Lam, Psi, R) per point, stacked (B, 2, 2) factors on the chart's
    derivative pairs (module docstring).  With a temporal stage, `ends` is
    (2, C), the bottom and top nodes of the C distinct temporal bridges,
    `temporal` their stacked (C, 2, 2) gains and `columns` (c, B) each
    point's bridge in its left and, with four corners, right column
    (`temporal_bridges`).  A dropped stage's gains are None; without a
    temporal stage `columns` is None and `ends` is `nodes`.  `interpolate`
    reads the states of `ends`.
    """

    index: np.ndarray
    nodes: np.ndarray
    temporal: Optional[Gain]
    spatial: Optional[Gain]
    ends: np.ndarray
    columns: Optional[np.ndarray]

    def take(self, part) -> "Binding":
        """The binding of the points at positions `part` (a slice or an
        index array) of this one, reading only their bridges."""
        nodes = self.nodes[:, part]
        spatial = None if self.spatial is None \
            else tuple(g[part] for g in self.spatial)
        if self.columns is None:
            return Binding(self.index[part], nodes, None, spatial, nodes, None)
        c = len(self.columns)
        used, columns = np.unique(self.columns[:, part], return_inverse=True)
        return Binding(self.index[part], nodes,
                       tuple(g[used] for g in self.temporal), spatial,
                       self.ends[:, used], columns.reshape(c, -1))

    @property
    def node_ids(self) -> Tuple[int, ...]:
        # the first point's corners; kept only because the frozen
        # bench/pipeline.py reads them from make_interpolant
        return tuple(self.nodes[:, 0].tolist())


def temporal_bridges(nodes: np.ndarray, t: np.ndarray, temporal: Gain):
    """The distinct temporal bridges of B points with a temporal stage,
    `nodes` their (m, B) corners and `t` their times: each point's column i
    (of c = m/2) runs from corner i to corner i + c, and `temporal` holds
    the points' own (B, 2, 2) gains.  A bridge is fixed by its bottom node
    and the time, which fixes the offset in its cell: neither state values
    nor gains enter.  Returns (ends, gains, columns): the (2, C) bottom and
    top nodes of the C distinct bridges, their gains (those of a point on
    each) and the (c, B) bridge of each point's columns."""
    c, B = len(nodes) // 2, len(t)
    if B == 1:  # one point's columns never share a bridge
        return nodes.reshape(2, c), tuple(np.repeat(g, c, axis=0)
                                          for g in temporal), \
            np.arange(c)[:, None]
    # a complex key sorts by node, then by time
    _, first, columns = np.unique((nodes[:c] + 1j * t).ravel(),
                                  return_index=True, return_inverse=True)
    ends = nodes.reshape(2, c * B)[:, first]
    return ends, tuple(g[first % B] for g in temporal), columns.reshape(c, B)


def bind(s_knots, t_knots, s, t,
         cell: Optional[Tuple[int, int]] = None) -> List[Binding]:
    """Corner nodes and stage gains of the points (s[i], t[i]), one
    `Binding` per binding shape that occurs.  A coordinate on a knot drops
    its stage, so knot-line points bind to 2 nodes and grid nodes to 1.
    `cell` forces an (n, k) cell on every point: offsets are then measured
    from that cell's corner and no stage is dropped.  A binding with a
    temporal stage holds its distinct bridges (`temporal_bridges`)."""
    s_knots = np.asarray(s_knots, dtype=float)
    t_knots = np.asarray(t_knots, dtype=float)
    s, t = np.atleast_1d(s), np.atleast_1d(t)
    n_cell, k_cell = cell or (None, None)
    n, sigma, keep_s = locate(s_knots, s, "s", n_cell)
    k, tau, keep_t = locate(t_knots, t, "t", k_cell)
    N = len(s_knots)
    corner = k * N + n
    shape = keep_t + 2 * keep_s
    # both stages' gains in one call: the temporal stages, then the spatial
    k_in, n_in = k[keep_t], n[keep_s]
    gains = _bridge(
        np.concatenate([t_knots[k_in + 1] - t_knots[k_in],
                        s_knots[n_in + 1] - s_knots[n_in]]),
        np.concatenate([tau[keep_t], sigma[keep_s]]))
    row_t = keep_t.cumsum() - 1
    row_s = keep_s.cumsum() - 1 + len(k_in)
    out = []
    for code in np.flatnonzero(np.bincount(shape, minlength=4)):
        idx = np.flatnonzero(shape == code)
        has_t, has_s = code % 2, code // 2
        steps = [0, 1] if has_s else [0]
        if has_t:
            steps += [d + N for d in steps]
        nodes = corner[idx] + np.array(steps)[:, None]
        spatial = tuple(g[row_s[idx]] for g in gains) if has_s else None
        if has_t:
            ends, temporal, columns = temporal_bridges(
                nodes, t[idx], tuple(g[row_t[idx]] for g in gains))
        else:
            ends, temporal, columns = nodes, None, None
        out.append(Binding(idx, nodes, temporal, spatial, ends, columns))
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


def interpolate(ends: Sequence[StateArrays], temporal: Optional[Gain],
                spatial: Optional[Gain], columns: Optional[np.ndarray]):
    """Interpolated states of B points that share one binding shape.

    `ends` holds the gathered state stacks of a `Binding`'s `ends`: the C
    distinct temporal bridges' bottom and top nodes with a temporal stage,
    else the m corners, in (00, 10) order.  `temporal` and `spatial` are the
    stacked stage gains, None for a dropped stage, and `columns` each
    point's bridges.  Each distinct bridge is conditioned once, and every
    point reads its columns' results, Jacobians and noise by index.
    Returns (states, jacobians, noise): a list of m (B, 24, 24) maps from
    each corner's chart, in (00, 10, 01, 11) order with subscripts
    (spatial, temporal), to the point's own chart, and the stage noise terms
    from which `_residual` forms the conditioning residual in that chart.
    """
    if temporal is None:
        if spatial is None:
            B = len(ends[0])
            return ends[0], [np.broadcast_to(np.eye(24), (B, 24, 24))], []
        x, j_a, j_b, s = _pair_state(*ends, spatial, 2)
        return x, [j_a, j_b], [((s,), spatial[2], 2, None)]

    # every distinct bridge conditioned once, then read by each point
    try:
        cols, jc_a, jc_b, s_c = _pair_state(*ends, temporal, 1)
    except ChartRangeError as ex:  # name a point on the failing bridge
        point = np.flatnonzero(np.any(columns == ex.index, axis=0))[0]
        raise ChartRangeError(ex.angle, point) from ex
    if spatial is None:
        (left,) = columns
        return (cols.take(left), [jc_a[left], jc_b[left]],
                [((s_c,), temporal[2], 1, left)])
    left, right = columns
    x, jq_l, jq_r, s_q = _pair_state(cols.take(left), cols.take(right),
                                     spatial, 2)
    jacs = [jq_l @ jc_a[left], jq_r @ jc_a[right], jq_l @ jc_b[left],
            jq_r @ jc_b[right]]
    noise = [((jq_l, s_c), temporal[2], 1, left),
             ((jq_r, s_c), temporal[2], 1, right),
             ((s_q,), spatial[2], 2, None)]
    return x, jacs, noise


def _residual(noise, params: PriorParams, B: int) -> np.ndarray:
    """Sum of T (R (x) I (x) Q) T^T over `interpolate`'s stage noise terms
    (maps, R, outer, rows), T the maps' product and Q the stage axis' PSD:
    Q acts on each 6-row block of T^T, then R on its pairs.  `rows` reads
    each point's bridge from the last map and R, which hold one item per
    distinct temporal bridge; None when they hold one per point."""
    out = np.zeros((B, 24, 24))
    for maps, r2, outer, rows in noise:
        if rows is not None:
            maps, r2 = (*maps[:-1], maps[-1][rows]), r2[rows]
        t = reduce(np.matmul, maps)
        q = params.qt_psd if outer == 1 else params.qs_psd
        out += t @ apply_pair(r2, (q @ _T(t).reshape(B, 4, 6, 24)).reshape(
            B, 24, 24), outer)
    return out


def answer(posterior, b: Binding):
    """Posterior mean states (a `StateArrays`) and (B, 24, 24) covariances
    of the points of one binding: the corner covariance blocks pushed
    through the chain's Jacobians (`CornerCovariances.push`) plus the
    conditioning residual."""
    states = posterior.grid.states
    x, jacs, noise = interpolate([states.take(e) for e in b.ends],
                                 b.temporal, b.spatial, b.columns)
    cov = posterior.cov.push(b.nodes, jacs) \
        + _residual(noise, posterior.params, len(b.index))
    return x, 0.5 * (cov + _T(cov))


def query_states(posterior, s, t, cell: Optional[Tuple[int, int]] = None):
    """Posterior mean states (a `StateArrays`) and (P, 24, 24) covariances at
    the points (s[i], t[i]), answered as one batch per binding shape
    (`answer`)."""
    grid = posterior.grid
    s, t = np.atleast_1d(s), np.atleast_1d(t)
    means = grid.states.take(np.zeros(len(s), dtype=int))
    covs = np.empty((len(s), 24, 24))
    for b in bind(grid.s_knots, grid.t_knots, s, t, cell):
        x, covs[b.index] = answer(posterior, b)
        means.put(b.index, x)
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
    return interpolate([grid.states.take(e) for e in b.ends], b.temporal,
                       b.spatial, b.columns)[0][0]
