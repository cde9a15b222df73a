"""Continuous posterior queries at arbitrary (s, t) inside the grid hull.

A point binds to the corners of the one cell that contains it: one node on a
grid node, two on a knot line (along s or along t), four inside a cell.
Interpolation runs in up to two stages: a 1D conditioning in time on each of
the cell's columns, then a 1D conditioning in arclength between the two
column results.  Each stage conditions the bridge value on its endpoints,
with gain Lam(u) = Q(u) phi(D-u)^T Q(D)^-1 and residual
R(u) = Q(u) - Lam(u) Q(D) Lam(u)^T; a coordinate on a knot drops its stage.

The gains depend only on the cell size and the offset, never on the state,
so `make_interpolant` computes them once per point.  `interpolate` is the
one nonlinear chain, batched over points of one binding shape: the temporal
stage of both columns of every point runs as one batch, decoded in each
column's own chart, and the spatial stage then runs in a chart about the
left column's result.  Posterior queries call it with a batch of one; the
interpolated measurement factors call it once per sensor kind and binding
shape.  On cell edges the gains collapse onto the shared nodes exactly, so
adjacent cells evaluate boundary queries through the same chain and queries
are continuous across the whole hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .prior import (NodeState, PriorParams, StateArrays, chart_decode_batch,
                    encode_self_jacobian_batch, encode_with_jacobians_batch,
                    k_matrix)

HULL_TOL = 1e-9


class OutOfHullError(ValueError):
    """Query coordinate outside the rectangle covered by the grid."""


def locate(knots: np.ndarray, u: float, name: str) -> Tuple[int, float]:
    """Cell index and offset for coordinate u, clamping on-knot queries to the
    cell whose left edge they sit on (last knot maps into the last cell)."""
    knots = np.asarray(knots, dtype=float)
    span = max(1.0, float(np.max(np.abs(knots))))
    if u < knots[0] - HULL_TOL * span or u > knots[-1] + HULL_TOL * span:
        raise OutOfHullError(
            f"{name}={u} outside hull [{knots[0]}, {knots[-1]}]")
    if len(knots) == 1:
        return 0, 0.0
    idx = int(np.clip(np.searchsorted(knots, u, side="right") - 1,
                      0, len(knots) - 2))
    return idx, float(np.clip(u - knots[idx], 0.0, knots[idx + 1] - knots[idx]))


def _m2(d: float) -> np.ndarray:
    return np.array([[1.0, d], [0.0, 1.0]])


def _pair_gain(delta: float, u: float):
    """2x2 integrator-chain conditioning pieces (gain on the far endpoint,
    prior-rollout weight on the near endpoint, and their residual kernel)."""
    if not 0.0 <= u <= delta * (1.0 + 1e-12):
        raise ValueError(f"offset {u} outside segment [0, {delta}]")
    lam = k_matrix(u) @ _m2(delta - u).T @ np.linalg.inv(k_matrix(delta))
    psi = _m2(u) - lam @ _m2(delta)
    resid = k_matrix(u) - lam @ k_matrix(delta) @ lam.T
    return lam, psi, resid


_I2 = np.eye(2)
_I6 = np.eye(6)
_I12 = np.eye(12)


def temporal_gain(dt: float, tau: float, params: PriorParams):
    """(Lam, Psi, R) as 24x24 operators for the within-column time stage."""
    lam, psi, r2 = _pair_gain(dt, tau)
    return (np.kron(lam, _I12), np.kron(psi, _I12),
            np.kron(r2, np.kron(_I2, params.qt_psd)))


def spatial_gain(ds: float, sigma: float, params: PriorParams):
    """(Lam, Psi, R) as 24x24 operators for the arclength stage."""
    lam, psi, r2 = _pair_gain(ds, sigma)
    return (np.kron(_I2, np.kron(lam, _I6)), np.kron(_I2, np.kron(psi, _I6)),
            np.kron(_I2, np.kron(r2, params.qs_psd)))


def interp_weights(ds: float, dt: float, sigma: float, tau: float,
                   params: PriorParams):
    """Chart-level interpolation map onto the four corner charts, plus the
    residual covariance, for a query at offsets (sigma, tau) inside a cell of
    size (ds, dt).  Corner order is (00, 10, 01, 11) with subscripts (spatial,
    temporal).  This is the exact linearization of the query chain about any
    common chart; the nonlinear path in query_mean composes the same gains
    through per-column local charts."""
    if ds <= 0 or dt <= 0:
        raise ValueError("cell dimensions must be positive")
    lam_t, psi_t, r_t = temporal_gain(dt, tau, params)
    lam_s, psi_s, r_s = spatial_gain(ds, sigma, params)
    W = np.hstack([psi_s @ psi_t, lam_s @ psi_t, psi_s @ lam_t, lam_s @ lam_t])
    resid = psi_s @ r_t @ psi_s.T + lam_s @ r_t @ lam_s.T + r_s
    return W, 0.5 * (resid + resid.T)


# ---------------------------------------------------------------------------
# nonlinear interpolation chain

Gain = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _T(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


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


@dataclass
class Interpolant:
    """One point's binding: corner node ids (flat, in the order the chain
    uses them) and the per-stage gain operators."""

    node_ids: Tuple[int, ...]
    temporal: Optional[Gain]
    spatial: Optional[Gain]

    def state(self, states: StateArrays) -> NodeState:
        return self._chain(states, want_jac=False)[0]

    def state_with_jacobians(self, states: StateArrays):
        """(state, jacobians onto each node's chart, residual in the state's
        own chart)."""
        x, jacs, resid = self._chain(states, want_jac=True)
        return x, [J[0] for J in jacs], resid[0]

    def _chain(self, states: StateArrays, want_jac: bool):
        # a batch of one over the corner states only
        one = lambda g: None if g is None else tuple(op[None] for op in g)
        x, jacs, resid = interpolate(
            states.take(self.node_ids),
            np.arange(len(self.node_ids))[:, None], one(self.temporal),
            one(self.spatial), want_jac)
        return x[0], jacs, resid


def _snap_knot(knots: np.ndarray, idx: int, off: float) -> Optional[int]:
    """Index of the knot the offset lands on, or None inside the cell."""
    span = max(1.0, float(np.max(np.abs(knots))))
    if abs(off) <= HULL_TOL * span:
        return idx
    if idx + 1 < len(knots) \
            and abs(off - (knots[idx + 1] - knots[idx])) <= HULL_TOL * span:
        return idx + 1
    return None


def make_interpolant(s_knots, t_knots, params: PriorParams, s: float, t: float,
                     cell: Optional[Tuple[int, int]] = None) -> Interpolant:
    """Resolve (s, t) to corner nodes and stage gains.  A coordinate on a knot
    drops its stage, so knot-line queries bind to 2 nodes and grid-node
    queries to 1.  `cell` forces a specific (n, k) cell for boundary
    continuity checks; offsets are then measured from that cell's corner and
    no stage is dropped."""
    s_knots = np.asarray(s_knots, dtype=float)
    t_knots = np.asarray(t_knots, dtype=float)
    N, K = len(s_knots), len(t_knots)
    sn = kn = None
    if cell is None:
        n0, sigma = locate(s_knots, s, "s")
        k0, tau = locate(t_knots, t, "t")
        sn = _snap_knot(s_knots, n0, sigma)
        kn = _snap_knot(t_knots, k0, tau)
    else:
        n0, k0 = cell
        if not (0 <= n0 <= max(N - 2, 0) and 0 <= k0 <= max(K - 2, 0)):
            raise ValueError(f"cell {cell} outside grid")
        sigma = s - s_knots[n0]
        tau = t - t_knots[k0]
    if N == 1 and abs(s - s_knots[0]) > HULL_TOL * max(1.0, abs(s_knots[0])):
        raise OutOfHullError(f"s={s} outside degenerate hull {{{s_knots[0]}}}")
    if K == 1 and abs(t - t_knots[0]) > HULL_TOL * max(1.0, abs(t_knots[0])):
        raise OutOfHullError(f"t={t} outside degenerate hull {{{t_knots[0]}}}")

    temporal = spatial = None
    if K > 1:
        if kn is not None:
            k0 = kn
        else:
            dt = float(t_knots[k0 + 1] - t_knots[k0])
            temporal = temporal_gain(dt, float(np.clip(tau, 0.0, dt)), params)
    if N > 1:
        if sn is not None:
            n0 = sn
        else:
            ds = float(s_knots[n0 + 1] - s_knots[n0])
            spatial = spatial_gain(ds, float(np.clip(sigma, 0.0, ds)), params)

    flat = lambda n, k: k * N + n
    if temporal is None and spatial is None:
        ids: Tuple[int, ...] = (flat(n0, k0),)
    elif spatial is None:
        ids = (flat(n0, k0), flat(n0, k0 + 1))
    elif temporal is None:
        ids = (flat(n0, k0), flat(n0 + 1, k0))
    else:
        ids = (flat(n0, k0), flat(n0 + 1, k0), flat(n0, k0 + 1),
               flat(n0 + 1, k0 + 1))
    return Interpolant(ids, temporal, spatial)


def query_mean(posterior, s: float, t: float,
               cell: Optional[Tuple[int, int]] = None) -> NodeState:
    """Posterior mean state at (s, t); touches only the containing cell."""
    grid = posterior.grid
    interp = make_interpolant(grid.s_knots, grid.t_knots, posterior.params,
                              s, t, cell)
    return interp.state(grid.states)


def query_state(posterior, s: float, t: float,
                cell: Optional[Tuple[int, int]] = None):
    """(mean state, covariance) in one pass over the cell: the corner joint
    pushed through the interpolation chain plus the conditioning residual."""
    grid = posterior.grid
    interp = make_interpolant(grid.s_knots, grid.t_knots, posterior.params,
                              s, t, cell)
    x_q, jacs, resid = interp.state_with_jacobians(grid.states)
    joint = posterior.cov.joint(interp.node_ids)
    U = np.hstack(jacs)
    cov = U @ joint @ U.T + resid
    return x_q, 0.5 * (cov + cov.T)
