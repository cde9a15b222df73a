"""Continuous posterior queries at arbitrary (s, t) inside the grid hull.

A point binds to the corners of the one cell that contains it: one node on a
grid node, two on a knot line (along s or along t), four inside a cell.
Interpolation runs in up to two stages: a 1D conditioning in time on each of
the cell's columns, then a 1D conditioning in arclength between the two
column results.  Each stage conditions the bridge value on its endpoints,
with gain Lam(u) = Q(u) phi(D-u)^T Q(D)^-1 and residual
R(u) = Q(u) - Lam(u) Q(D) Lam(u)^T; a coordinate on a knot drops its stage.

`bind` turns coordinates into corner nodes and stage gains for any number
of points at once (hull check, knot snapping, cell location, closed-form
gains), grouped by binding shape; queries and measurement factors both bind
through it.  The gains depend only on the cell size and the offset, never on
the state.  `interpolate` is the one nonlinear chain, batched over the
points of one binding shape: the temporal stage of both columns of every
point runs as one batch, decoded in each column's own chart, and the spatial
stage then runs in a chart about the left column's result.  `query_states`
runs it once per binding shape and pushes the corner joint covariance
through its Jacobians; the measurement factors run it once per sensor kind
and binding shape.  On cell edges the gains collapse onto the shared nodes
exactly, so adjacent cells evaluate boundary queries through the same chain
and queries are continuous across the whole hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .prior import (NodeState, PriorParams, StateArrays, chart_decode_batch,
                    encode_self_jacobian_batch, encode_with_jacobians_batch)

HULL_TOL = 1e-9
# points per batch in query_states: bounds the stacked chain Jacobians and
# corner joints to a few MB (about 14 MB at 64 points), which a process that
# also holds posteriors would otherwise add to its peak memory
CHUNK = 16

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
    stage.  A single-knot axis has no stage."""
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
    off = np.clip(u - knots[idx], 0.0, width)
    at_left = (off <= tol) & (cell is None)
    at_right = ~at_left & (width - off <= tol) & (cell is None)
    return idx + at_right, off, ~(at_left | at_right)


# ---------------------------------------------------------------------------
# stage gains

_I2 = np.eye(2)
_I6 = np.eye(6)
_I12 = np.eye(12)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes, broadcast over the leading ones."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3],
                                         out.shape[-2] * out.shape[-1]))


def _integrator(d: np.ndarray) -> np.ndarray:
    """M(d) = [[1, d], [0, 1]] for each step in d."""
    return _I2 + np.multiply.outer(d, [[0.0, 1.0], [0.0, 0.0]])


def _sym2(a, b, c) -> np.ndarray:
    """[[a, b], [b, c]] for each element of a, b and c."""
    return np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)


def _bridge(delta, u):
    """2x2 integrator-chain conditioning at offsets u into segments of length
    delta, elementwise: the gain on the far endpoint, the prior-rollout
    weight on the near endpoint, and their residual kernel.  `k` and `k_inv`
    are `oracle.k_matrix` and `prior.k_matrix_inv` elementwise; the prior
    weights keep the scalar form, whose power can round differently from
    NumPy's array power in the last bit."""
    k = lambda d: _sym2(d ** 3 / 3.0, d ** 2 / 2.0, d)
    k_inv = _sym2(12.0 / delta ** 3, -6.0 / delta ** 2, 4.0 / delta)
    k_u = k(u)
    lam = k_u @ _T(_integrator(delta - u)) @ k_inv
    psi = _integrator(u) - lam @ _integrator(delta)
    return lam, psi, k_u - lam @ k(delta) @ _T(lam)


def temporal_gain(dt, tau, params: PriorParams) -> Gain:
    """(Lam, Psi, R) as 24x24 operators for the within-column time stage,
    stacked over the shape of dt and tau."""
    lam, psi, r2 = _bridge(dt, tau)
    return (_kron(lam, _I12), _kron(psi, _I12),
            _kron(r2, _kron(_I2, params.qt_psd)))


def spatial_gain(ds, sigma, params: PriorParams) -> Gain:
    """(Lam, Psi, R) as 24x24 operators for the arclength stage, stacked
    over the shape of ds and sigma."""
    lam, psi, r2 = _bridge(ds, sigma)
    return (_kron(_I2, _kron(lam, _I6)), _kron(_I2, _kron(psi, _I6)),
            _kron(_I2, _kron(r2, params.qs_psd)))


@dataclass
class Binding:
    """The points of one binding shape.

    `index` (B,) holds their positions in the bound input.  `nodes` is
    (m, B): row i holds each point's i-th corner, in (00, 10, 01, 11) order
    with subscripts (spatial, temporal).  `temporal`/`spatial` are the
    stacked (B, 24, 24) stage gains (Lam, Psi, R), None for a dropped stage.
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


def bind(s_knots, t_knots, params: PriorParams, s, t,
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
    out = []
    for code in np.unique(shape):
        idx = np.flatnonzero(shape == code)
        has_t, has_s = code % 2, code // 2
        steps = [0, 1] if has_s else [0]
        if has_t:
            steps += [d + N for d in steps]
        ni, ki = n[idx], k[idx]
        out.append(Binding(
            idx, corner[idx] + np.array(steps)[:, None],
            temporal_gain(t_knots[ki + 1] - t_knots[ki], tau[idx], params)
            if has_t else None,
            spatial_gain(s_knots[ni + 1] - s_knots[ni], sigma[idx], params)
            if has_s else None))
    return out


def make_interpolant(s_knots, t_knots, params: PriorParams, s: float,
                     t: float) -> Binding:
    """One point's binding.  Kept only because the frozen bench/pipeline.py
    times and counts bindings through it."""
    return bind(s_knots, t_knots, params, s, t)[0]


# ---------------------------------------------------------------------------
# nonlinear interpolation chain


def _pair_state(a: StateArrays, b: StateArrays, gain: Gain, want_jac: bool):
    """Condition bridge states on endpoint pairs (a, b) in each a's chart and
    decode.  `gain` holds the stacked (B, 24, 24) stage operators
    (Lam, Psi, R).  Returns (states, J_a, J_b, S) where the Jacobians map
    endpoint chart perturbations to each result's own chart and S maps
    chart-level residual noise into it."""
    lam, psi, _ = gain
    z_b, enc_b, bm_b = encode_with_jacobians_batch(b, a.R, a.t, want_jac)
    z_m = np.squeeze(psi @ a.chart_origin()[..., None]
                     + lam @ z_b[..., None], -1)
    x_m = chart_decode_batch(z_m, a.R, a.t)
    if not want_jac:
        return x_m, None, None, None
    _, enc_m, bm_m = encode_with_jacobians_batch(x_m, a.R, a.t)
    j_a = psi @ encode_self_jacobian_batch(a)
    j_a[..., 0:6] += lam @ bm_b - bm_m
    s = np.linalg.inv(enc_m)
    return x_m, s @ j_a, s @ (lam @ enc_b), s


def interpolate(sa: StateArrays, nodes: np.ndarray, temporal: Optional[Gain],
                spatial: Optional[Gain], want_jac: bool):
    """Interpolated states of B points that share one binding shape.

    `nodes` is (m, B): row i holds each point's i-th corner, indexing `sa`,
    in (00, 10, 01, 11) order with subscripts (spatial, temporal).
    `temporal`/`spatial` are the stacked stage gains, None for a dropped
    stage.  Returns (states, jacobians, residual): with `want_jac`, a list of
    m (B, 24, 24) maps from each corner's chart to the point's own chart and
    the (B, 24, 24) conditioning residual in that chart; otherwise Nones.
    """
    B = nodes.shape[1]
    if temporal is None and spatial is None:
        x = sa.take(nodes[0])
        if not want_jac:
            return x, None, None
        return x, [np.broadcast_to(np.eye(24), (B, 24, 24))], \
            np.zeros((B, 24, 24))
    if temporal is None or spatial is None:
        gain = temporal if spatial is None else spatial
        x, j_a, j_b, s = _pair_state(sa.take(nodes[0]), sa.take(nodes[1]),
                                     gain, want_jac)
        if not want_jac:
            return x, None, None
        return x, [j_a, j_b], s @ gain[2] @ _T(s)

    # both columns' temporal stages as one batch: left (00, 01), right (10, 11)
    cols, jc_a, jc_b, s_c = _pair_state(
        sa.take(np.concatenate([nodes[0], nodes[1]])),
        sa.take(np.concatenate([nodes[2], nodes[3]])),
        tuple(np.concatenate([g, g]) for g in temporal), want_jac)
    left, right = cols.take(np.arange(B)), cols.take(np.arange(B, 2 * B))
    x, jq_l, jq_r, s_q = _pair_state(left, right, spatial, want_jac)
    if not want_jac:
        return x, None, None
    jacs = [jq_l @ jc_a[:B], jq_r @ jc_a[B:], jq_l @ jc_b[:B],
            jq_r @ jc_b[B:]]
    tl, tr = jq_l @ s_c[:B], jq_r @ s_c[B:]
    r_t = temporal[2]
    resid = tl @ r_t @ _T(tl) + tr @ r_t @ _T(tr) + s_q @ spatial[2] @ _T(s_q)
    return x, jacs, 0.5 * (resid + _T(resid))


def query_states(posterior, s, t, cell: Optional[Tuple[int, int]] = None):
    """Posterior mean states (a `StateArrays`) and (P, 24, 24) covariances at
    the points (s[i], t[i]).  Each covariance is the corner joint pushed
    through the chain's Jacobians plus the conditioning residual.  Points
    run in chunks of CHUNK."""
    grid = posterior.grid
    s, t = np.atleast_1d(s), np.atleast_1d(t)
    means = grid.states.take(np.zeros(len(s), dtype=int))
    covs = np.empty((len(s), 24, 24))
    for lo in range(0, len(s), CHUNK):
        for b in bind(grid.s_knots, grid.t_knots, posterior.params,
                      s[lo:lo + CHUNK], t[lo:lo + CHUNK], cell):
            x, jacs, resid = interpolate(grid.states, b.nodes, b.temporal,
                                         b.spatial, want_jac=True)
            U = np.concatenate(jacs, axis=-1)
            cov = U @ posterior.cov.joint(b.nodes) @ _T(U) + resid
            means.put(lo + b.index, x)
            covs[lo + b.index] = 0.5 * (cov + _T(cov))
    return means, covs


def query_state(posterior, s: float, t: float,
                cell: Optional[Tuple[int, int]] = None):
    """(mean state, covariance) at one point; touches only its cell."""
    means, covs = query_states(posterior, s, t, cell)
    return means[0], covs[0]


def query_mean(posterior, s: float, t: float,
               cell: Optional[Tuple[int, int]] = None) -> NodeState:
    """Posterior mean state at (s, t); touches only the containing cell."""
    grid = posterior.grid
    (b,) = bind(grid.s_knots, grid.t_knots, posterior.params, s, t, cell)
    return interpolate(grid.states, b.nodes, b.temporal, b.spatial,
                       want_jac=False)[0][0]
