"""Continuous (s, t) queries: cell location, conditioning weights against the
dense oracle, mean and covariance reproduction, and hull continuity."""

import os

import numpy as np
import pytest

from stgp.cli import load_config
from stgp.graph import build_grid, build_prior_factors
from stgp.liegroup import Pose, se3_exp
from stgp.oracle import (dense_condition_query, dense_prior_covariance,
                         k_matrix)
from stgp.prior import NodeState, chart_encode
from stgp.sensors import (InterpolatedMeasurementFactor, Measurement,
                          build_measurement_factors)
from stgp.query import (HULL_TOL, OutOfHullError, _bridge, bind, locate,
                        query_mean, query_state, query_states)
from stgp.solver import corner_covariances, factorize, gauss_newton
from test_solver import random_banded_system

FIG3 = os.path.join(os.path.dirname(__file__), "..", "configs", "fig3.json")

I2, I6, I12, I24 = np.eye(2), np.eye(6), np.eye(12), np.eye(24)


def lift_temporal(gain, params):
    """A time stage's 2x2 (Lam, Psi, R) as 24x24 chart operators."""
    lam, psi, r2 = gain
    return (np.kron(lam, I12), np.kron(psi, I12),
            np.kron(r2, np.kron(I2, params.qt_psd)))


def lift_spatial(gain, params):
    """An arclength stage's 2x2 (Lam, Psi, R) as 24x24 chart operators."""
    lam, psi, r2 = gain
    return (np.kron(I2, np.kron(lam, I6)), np.kron(I2, np.kron(psi, I6)),
            np.kron(I2, np.kron(r2, params.qs_psd)))


def stage_gains(ds: float, dt: float, sigma: float, tau: float, params):
    """The lifted temporal and spatial stage gains `bind` gives a point at
    offsets (sigma, tau) inside a cell of size (ds, dt)."""
    (b,) = bind([0.0, ds], [0.0, dt], sigma, tau, cell=(0, 0))
    return (lift_temporal([g[0] for g in b.temporal], params),
            lift_spatial([g[0] for g in b.spatial], params))


def interp_weights(ds: float, dt: float, sigma: float, tau: float,
                   params):
    """Chart-level interpolation map onto the four corner charts, plus the
    residual covariance, for a query at offsets (sigma, tau) inside a cell of
    size (ds, dt).  Corner order is (00, 10, 01, 11) with subscripts (spatial,
    temporal).  This is the exact linearization of the query chain about any
    common chart; the nonlinear chain composes the same gains through
    per-column local charts."""
    (lam_t, psi_t, r_t), (lam_s, psi_s, r_s) = stage_gains(ds, dt, sigma, tau,
                                                           params)
    W = np.hstack([psi_s @ psi_t, lam_s @ psi_t, psi_s @ lam_t, lam_s @ lam_t])
    resid = psi_s @ r_t @ psi_s.T + lam_s @ r_t @ lam_s.T + r_s
    return W, 0.5 * (resid + resid.T)


def reference_binding(s_knots, t_knots, params, s: float, t: float):
    """One point's (node ids, temporal gain, spatial gain), point by point:
    nearest-knot snapping, 2x2 inverses by LAPACK and np.kron lifts."""
    def snap(knots, u):
        span = max(1.0, float(np.max(np.abs(knots))))
        i = int(np.argmin(np.abs(knots - u)))
        return i if abs(knots[i] - u) <= HULL_TOL * span else None

    def cell(knots, u):
        i = int(np.clip(np.searchsorted(knots, u, side="right") - 1, 0,
                        len(knots) - 2))
        return i, float(np.clip(u - knots[i], 0.0, knots[i + 1] - knots[i]))

    def pair(delta, u):
        m2 = lambda d: np.array([[1.0, d], [0.0, 1.0]])
        lam = k_matrix(u) @ m2(delta - u).T @ np.linalg.inv(k_matrix(delta))
        return (lam, m2(u) - lam @ m2(delta),
                k_matrix(u) - lam @ k_matrix(delta) @ lam.T)

    n, k = snap(s_knots, s), snap(t_knots, t)
    temporal = spatial = None
    if k is None:
        k, tau = cell(t_knots, t)
        temporal = lift_temporal(pair(t_knots[k + 1] - t_knots[k], tau),
                                 params)
    if n is None:
        n, sigma = cell(s_knots, s)
        spatial = lift_spatial(pair(s_knots[n + 1] - s_knots[n], sigma),
                               params)
    steps = [0] if spatial is None else [0, 1]
    if temporal is not None:
        steps += [d + len(s_knots) for d in steps]
    return (tuple(k * len(s_knots) + n + d for d in steps), temporal,
            spatial)


class MeanOnlyPosterior:
    """Grid + params wrapper for mean queries on hand-built grids."""

    def __init__(self, grid, params):
        self.grid = grid
        self.params = params
        self.cov = None


# cell location


def test_locate_interior_and_knots():
    knots = np.array([0.0, 0.3, 1.0])
    idx, off, stage = locate(knots, [0.15, 0.3, 0.0, 1.0, 0.3 + 1e-12], "s")
    # a cell interior keeps its stage; a knot drops it and names the knot
    assert idx.tolist() == [0, 1, 0, 2, 1]
    assert off == pytest.approx([0.15, 0.0, 0.0, 0.7, 1e-12])
    assert stage.tolist() == [True, False, False, False, False]
    # a forced cell keeps every stage
    idx, off, stage = locate(knots, [0.3, 0.1], "s", cell=0)
    assert idx.tolist() == [0, 0] and stage.all()
    assert off == pytest.approx([0.3, 0.1])


def test_locate_out_of_hull():
    knots = np.array([0.0, 1.0])
    for u in (-0.01, 1.01, np.nan, np.inf):
        with pytest.raises(OutOfHullError):
            locate(knots, [0.5, u], "s")
    # within tolerance of the boundary is clamped, not rejected
    idx, off, stage = locate(knots, [1.0 + 1e-12], "s")
    assert (idx[0], off[0], stage[0]) == (1, 1.0, False)
    with pytest.raises(ValueError):
        locate(knots, [0.5], "s", cell=1)
    # a forced cell rejects a coordinate outside it instead of clamping it
    with pytest.raises(ValueError, match="s=0.9 outside forced cell s=0"):
        locate(np.array([0.0, 0.5, 1.0]), [0.9], "s", cell=0)


def test_interpolant_node_counts(params):
    s = np.linspace(0.0, 1.0, 3)
    t = np.linspace(0.0, 2.0, 3)
    cases = [
        ((s[1], t[1]), 1),          # grid node
        ((s[1], 0.4), 2),           # s knot line: temporal pair
        ((0.2, t[2]), 2),           # t knot line: spatial pair
        ((0.2, 0.4), 4),            # cell interior
        ((s[2], t[2]), 1),          # far corner of the hull
    ]
    for (si, ti), n in cases:
        (b,) = bind(s, t, si, ti)
        assert b.nodes.shape == (n, 1), (si, ti)
    # the same points in one call, grouped by shape in input order
    bindings = bind(s, t, [p[0][0] for p in cases],
                    [p[0][1] for p in cases])
    assert sorted(i for b in bindings for i in b.index) == list(range(5))
    for b in bindings:
        assert all(cases[i][1] == len(b.nodes) for i in b.index)


def test_bind_matches_point_by_point_reference(params):
    """Batched binding against the point-by-point reference: the same nodes
    for every point and the same gains up to rounding, for cell interiors,
    knot lines, grid nodes, hull edges and points within the knot tolerance
    of a knot.  The gains differ from the reference's by rounding only."""
    s_knots = np.array([0.0, 0.2, 0.45, 0.5, 1.0])
    t_knots = np.array([0.0, 0.3, 0.7, 1.0])
    rng = np.random.default_rng(31)
    pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(40)]
    pts += [(s, t) for s in s_knots for t in (0.5, t_knots[2])]
    pts += [(0.33, t) for t in t_knots]
    pts += [(0.45 + 0.3 * HULL_TOL, 0.1), (0.45 - 0.3 * HULL_TOL, 0.7),
            (1.0 + 0.5 * HULL_TOL, 0.2), (0.6, -0.5 * HULL_TOL)]
    bindings = bind(s_knots, t_knots, *zip(*pts))
    seen = 0
    for b in bindings:
        for j, i in enumerate(b.index):
            nodes, temporal, spatial = reference_binding(
                s_knots, t_knots, params, *pts[i])
            assert tuple(b.nodes[:, j]) == nodes, pts[i]
            for got, ref, lift in ((b.temporal, temporal, lift_temporal),
                                   (b.spatial, spatial, lift_spatial)):
                assert (got is None) == (ref is None), pts[i]
                got = lift([g[j] for g in got], params) if got else ()
                # R is a difference of terms that cancel: allow 1e-12
                for op, op_ref in zip(got, ref or ()):
                    assert np.max(np.abs(op - op_ref)) \
                        <= 1e-12 * np.max(np.abs(op_ref))
            seen += 1
    assert seen == len(pts)
    assert {len(b.nodes) for b in bindings} == {1, 2, 4}


def knot_points(s_knots, t_knots, seed: int):
    """Points of every binding shape: cell interiors, both kinds of knot
    line, grid nodes and points within the knot tolerance of a knot."""
    rng = np.random.default_rng(seed)
    s0, s1, t0, t1 = s_knots[0], s_knots[-1], t_knots[0], t_knots[-1]
    pts = [(rng.uniform(s0, s1), rng.uniform(t0, t1)) for _ in range(40)]
    pts += [(s, rng.uniform(t0, t1)) for s in s_knots]
    pts += [(rng.uniform(s0, s1), t) for t in t_knots]
    pts += [(s, t) for s in s_knots[::2] for t in t_knots[::2]]
    pts += [(s_knots[1] + 0.3 * HULL_TOL, rng.uniform(t0, t1)),
            (rng.uniform(s0, s1), t_knots[1] - 0.3 * HULL_TOL)]
    return np.array(pts).T


@pytest.mark.parametrize("knots", ["fig3", "non-uniform"])
def test_bind_gains_are_per_stage_bridges(knots):
    """`bind` evaluates both stages' gains in one `_bridge` call, yet every
    gain is bit for bit that of a `_bridge` call on its binding shape's
    points of that stage alone."""
    if knots == "fig3":
        cfg = load_config(FIG3)
        s_knots, t_knots = np.asarray(cfg.s_knots), np.asarray(cfg.t_knots)
    else:
        s_knots = np.array([0.0, 0.2, 0.45, 0.5, 1.0])
        t_knots = np.array([0.0, 0.3, 0.7, 1.0, 1.7])
    s, t = knot_points(s_knots, t_knots, 41)
    n, sigma, _ = locate(s_knots, s, "s")
    k, tau, _ = locate(t_knots, t, "t")
    bindings = bind(s_knots, t_knots, s, t)
    assert {len(b.nodes) for b in bindings} == {1, 2, 4}
    for b in bindings:
        i = b.index
        for got, knots_, cell, off in ((b.temporal, t_knots, k, tau),
                                       (b.spatial, s_knots, n, sigma)):
            if got is not None:
                ref = _bridge(knots_[cell[i] + 1] - knots_[cell[i]], off[i])
                assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def test_push_matches_dense_joint():
    """`CornerCovariances.push` against the dense joint pushed through the
    maps side by side, U joint U^T, for 1-node, both kinds of 2-node and
    4-node bindings on non-uniform knots: equal within 1e-12 relative and
    symmetric to the bit."""
    s_knots = np.array([0.0, 0.2, 0.45, 0.5, 1.0])
    t_knots = np.array([0.0, 0.3, 0.7, 1.7])
    cc = corner_covariances(factorize(random_banded_system(43, 5, 4)))
    rng = np.random.default_rng(44)
    shapes = set()
    for b in bind(s_knots, t_knots, *knot_points(s_knots, t_knots, 45)):
        jacs = [rng.standard_normal((len(b.index), 24, 24)) for _ in b.nodes]
        U = np.concatenate(jacs, axis=-1)
        ref = U @ cc.joint(b.nodes) @ np.swapaxes(U, 1, 2)
        got = cc.push(b.nodes, jacs)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(got, np.swapaxes(got, 1, 2))
        shapes.add((b.temporal is not None, b.spatial is not None))
    assert shapes == {(False, False), (True, False), (False, True),
                      (True, True)}


def test_query_states_matches_single_points(linear_posterior):
    """One batched call over points of every binding shape, many of each,
    answers each point as a batch of one does."""
    cfg, post = linear_posterior
    grid = post.grid
    rng = np.random.default_rng(37)
    s = np.concatenate([rng.uniform(0, grid.s_knots[-1], 70), grid.s_knots,
                        np.full(3, grid.s_knots[1])])
    t = np.concatenate([rng.uniform(0, grid.t_knots[-1], 70),
                        np.full(grid.N, grid.t_knots[1]), [0.1, 0.5, 0.9]])
    means, covs = query_states(post, s, t)
    assert len(means) == len(s) and covs.shape == (len(s), 24, 24)
    for i in range(len(s)):
        x, c = query_state(post, s[i], t[i])
        assert np.max(np.abs(means.R[i] - x.pose.R)) < 1e-14
        assert np.max(np.abs(means.sv[i] - x.strain_velocity)) \
            < 1e-12 * max(1.0, np.max(np.abs(x.strain_velocity)))
        assert np.max(np.abs(covs[i] - c)) < 1e-12 * np.max(np.abs(c))
    with pytest.raises(OutOfHullError):
        query_states(post, np.append(s, 0.1), np.append(t, np.nan))


# conditioning weights against closed forms and the dense oracle


def test_weights_identity_at_corner(params):
    W, resid = interp_weights(0.5, 0.4, 0.0, 0.0, params)
    assert np.max(np.abs(W[:, :24] - I24)) < 1e-12
    assert np.max(np.abs(W[:, 24:])) < 1e-12
    assert np.max(np.abs(resid)) < 1e-12


def test_weights_collapse_on_knot_lines(params):
    # sigma = 0: no mass on the far spatial column
    W, _ = interp_weights(0.5, 0.4, 0.0, 0.17, params)
    assert np.max(np.abs(W[:, 24:48])) < 1e-12
    assert np.max(np.abs(W[:, 72:])) < 1e-12
    # sigma = ds: all mass on the far column, and tau = 0 picks its base node
    W, _ = interp_weights(0.5, 0.4, 0.5, 0.0, params)
    assert np.max(np.abs(W[:, :24])) < 1e-12
    assert np.max(np.abs(W[:, 48:72])) < 1e-12
    assert np.max(np.abs(W[:, 24:48] - I24)) < 1e-12


def test_knot_line_weights_match_dense(params):
    s = np.array([0.0, 0.25, 0.5])
    t = np.array([0.0, 0.3, 0.6])
    # on the s knot line the dense oracle collapses to the temporal pair
    (lam_t, psi_t, _), (lam_s, psi_s, _) = stage_gains(0.25, 0.3, 0.1, 0.11,
                                                       params)
    Wd, _, corners = dense_condition_query(s, t, params, 0.25, 0.41)
    assert corners == [(1, 1), (1, 2)]
    assert np.max(np.abs(np.hstack([psi_t, lam_t]) - Wd)) < 1e-10
    # on the t knot line, to the spatial pair
    Wd, _, corners = dense_condition_query(s, t, params, 0.35, 0.3)
    assert corners == [(1, 1), (2, 1)]
    assert np.max(np.abs(np.hstack([psi_s, lam_s]) - Wd)) < 1e-10
    # at the node itself both weight and residual are exact
    Wd, rd, corners = dense_condition_query(s, t, params, 0.25, 0.3)
    assert corners == [(1, 1)]
    assert np.max(np.abs(Wd - I24)) < 1e-10
    assert np.max(np.abs(rd)) < 1e-10


def test_interior_weights_match_dense(identity_params):
    # cell-interior weights agree with the dense 4-corner conditioning; the
    # residual does not (per-column bridges lose their cross-covariance) and
    # is the scheme's documented interior approximation
    W, resid = interp_weights(1.0, 1.0, 0.5, 0.5, identity_params)
    Wd, resid_d, _ = dense_condition_query([0.0, 1.0], [0.0, 1.0],
                                           identity_params, 0.5, 0.5)
    assert np.max(np.abs(W - Wd)) < 1e-3
    gap = np.max(np.abs(resid - resid_d))
    assert np.isfinite(gap)
    assert np.min(np.linalg.eigvalsh(resid)) > -1e-12


# mean queries


def test_query_mean_reproduces_knots(linear_posterior):
    cfg, post = linear_posterior
    grid = post.grid
    for k, tk in enumerate(grid.t_knots):
        for n, sn in enumerate(grid.s_knots):
            x = query_mean(post, float(sn), float(tk))
            ref = grid.states[grid.flat(n, k)]
            z = chart_encode(x, ref.pose) - chart_encode(ref, ref.pose)
            assert np.max(np.abs(z)) < 1e-10


def test_query_mean_straight_rod(params):
    # constant unit stretch along x lies exactly on the interpolant's flow
    s = np.linspace(0.0, 2.0, 5)
    t = np.linspace(0.0, 1.0, 3)

    def straight(si, ti):
        pose = Pose.from_matrix(se3_exp(np.array([si, 0, 0, 0, 0, 0])))
        return NodeState(pose, np.array([1.0, 0, 0, 0, 0, 0]),
                         np.zeros(6), np.zeros(6))

    post = MeanOnlyPosterior(build_grid(s, t, straight), params)
    rng = np.random.default_rng(5)
    for _ in range(25):
        si = rng.uniform(0.0, 2.0)
        ti = rng.uniform(0.0, 1.0)
        x = query_mean(post, si, ti)
        assert np.max(np.abs(x.pose.t - [si, 0.0, 0.0])) < 1e-9
        assert np.max(np.abs(x.pose.R - np.eye(3))) < 1e-9
        assert np.max(np.abs(x.strain - [1, 0, 0, 0, 0, 0])) < 1e-9
        assert np.max(np.abs(x.velocity)) < 1e-9


def test_query_continuity_across_cell_boundaries(linear_posterior):
    cfg, post = linear_posterior
    grid = post.grid
    rng = np.random.default_rng(11)
    worst_mean = worst_cov = 0.0
    for _ in range(20):
        # point on an interior s knot, interior in t: cells (0,k) and (1,k)
        si = float(grid.s_knots[1])
        ti = rng.uniform(grid.t_knots[0], grid.t_knots[-1])
        k = min(int(np.searchsorted(grid.t_knots, ti) - 1), grid.K - 2)
        xl, cl = query_state(post, si, ti, cell=(0, k))
        xr, cr = query_state(post, si, ti, cell=(1, k))
        worst_mean = max(worst_mean, float(np.max(np.abs(
            chart_encode(xr, xl.pose) - chart_encode(xl, xl.pose)))))
        worst_cov = max(worst_cov, float(np.max(np.abs(cl - cr))))
        # and on an interior t knot, interior in s
        ti = float(grid.t_knots[1])
        si = rng.uniform(grid.s_knots[0], grid.s_knots[-1])
        n = min(int(np.searchsorted(grid.s_knots, si) - 1), grid.N - 2)
        xl, cl = query_state(post, si, ti, cell=(n, 0))
        xr, cr = query_state(post, si, ti, cell=(n, 1))
        worst_mean = max(worst_mean, float(np.max(np.abs(
            chart_encode(xr, xl.pose) - chart_encode(xl, xl.pose)))))
        worst_cov = max(worst_cov, float(np.max(np.abs(cl - cr))))
    assert worst_mean < 1e-9
    assert worst_cov < 1e-8


def test_collapsed_query_matches_forced_cell(linear_posterior):
    cfg, post = linear_posterior
    grid = post.grid
    si, ti = float(grid.s_knots[1]), 0.21
    k = 0
    x2, c2 = query_state(post, si, ti)               # collapsed 2-node path
    x4, c4 = query_state(post, si, ti, cell=(1, k))  # full 4-corner path
    z = chart_encode(x4, x2.pose) - chart_encode(x2, x2.pose)
    assert np.max(np.abs(z)) < 1e-9
    assert np.max(np.abs(c2 - c4)) < 1e-8


def test_off_knot_hull_edge_binds_edge_pair(linear_posterior):
    """Off-knot points on the far hull edges (s = L with t between knots,
    t = T with s between knots), and points up to HULL_TOL outside them,
    bind to the two edge nodes both as a query and as a measurement, and
    answer the limit of interior points approaching the edge."""
    cfg, post = linear_posterior
    grid = post.grid
    N, L, T = grid.N, grid.s_knots[-1], grid.t_knots[-1]
    off = 0.5 * HULL_TOL * max(1.0, L, T)
    k_last = (grid.K - 1) * N
    cases = [  # (s, t, inward unit step, edge pair)
        (L, 0.31, (1, 0), (N - 1, 2 * N - 1)),
        (L + off, 0.83, (1, 0), (2 * N - 1, 3 * N - 1)),
        (0.27, T, (0, 1), (k_last + 1, k_last + 2)),
        (0.5, T + off, (0, 1), (k_last + 2, k_last + 3)),
    ]
    for s, t, (us, ut), pair in cases:
        (b,) = bind(grid.s_knots, grid.t_knots, s, t)
        assert tuple(b.nodes[:, 0]) == pair, (s, t)
        (f,) = build_measurement_factors(
            [Measurement("position3", s, t, np.zeros(3), np.eye(3))], grid,
            post.params)
        assert isinstance(f, InterpolatedMeasurementFactor)
        assert f.nodes == pair, (s, t)
        x0, c0 = query_state(post, s, t)
        on_edge = (min(s, L), min(t, T))
        xe, ce = query_state(post, *on_edge)
        assert np.array_equal(xe.pose.matrix(), x0.pose.matrix())
        assert np.array_equal(xe.strain_velocity, x0.strain_velocity)
        assert np.array_equal(ce, c0)
        dist = []
        for h in (1e-4, 1e-6):
            x, c = query_state(post, on_edge[0] - us * h, on_edge[1] - ut * h)
            dist.append((np.max(np.abs(chart_encode(x, x0.pose)
                                       - x0.derivative_vector())),
                         np.max(np.abs(c - c0))))
        # interior answers converge to the edge answer, linearly in h
        for near, far in zip(dist[1], dist[0]):
            assert near < 0.02 * far
            assert near < 1e-3 * max(1.0, float(np.max(np.abs(c0))))


# covariance queries


def test_query_covariance_at_node_is_marginal(linear_posterior):
    cfg, post = linear_posterior
    grid = post.grid
    marg = post.cov.node_marginals
    for n, k in [(0, 0), (2, 1), (3, 2)]:
        C = query_state(post, float(grid.s_knots[n]),
                        float(grid.t_knots[k]))[1]
        assert np.max(np.abs(C - marg[grid.flat(n, k)])) < 1e-9


def test_query_covariance_psd_everywhere(linear_posterior):
    cfg, post = linear_posterior
    grid = post.grid
    rng = np.random.default_rng(17)
    for _ in range(200):
        si = rng.uniform(grid.s_knots[0], grid.s_knots[-1])
        ti = rng.uniform(grid.t_knots[0], grid.t_knots[-1])
        C = query_state(post, si, ti)[1]
        assert np.max(np.abs(C - C.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(C)) > -1e-10


def test_prior_only_query_matches_dense_gp(params):
    # prior-mean grid sits at the chart origin, so the nonlinear chain
    # linearizes exactly and the solver+query route must agree with pure
    # dense algebra (sharing the interpolant's own residual convention)
    s = np.array([0.0, 0.6])
    t = np.array([0.0, 0.5])
    grid = build_grid(s, t, params.prior_mean)
    post = gauss_newton(grid, build_prior_factors(grid, params), params)
    Sigma = dense_prior_covariance(s, t, params)
    rng = np.random.default_rng(23)
    for _ in range(10):
        si, ti = rng.uniform(0.01, 0.59), rng.uniform(0.01, 0.49)
        Wd, _, corners = dense_condition_query(s, t, params, si, ti)
        assert corners == [(0, 0), (1, 0), (0, 1), (1, 1)]
        _, resid = interp_weights(0.6, 0.5, si, ti, params)
        ref = Wd @ Sigma @ Wd.T + resid
        C = query_state(post, si, ti)[1]
        assert np.max(np.abs(C - ref)) < 1e-8 * max(1.0, np.max(np.abs(ref)))


def test_query_out_of_hull(linear_posterior):
    cfg, post = linear_posterior
    grid = post.grid
    with pytest.raises(OutOfHullError):
        query_mean(post, float(grid.s_knots[-1]) + 0.05, 0.0)
    with pytest.raises(OutOfHullError):
        query_mean(post, 0.0, float(grid.t_knots[-1]) + 0.05)
    with pytest.raises(OutOfHullError):
        query_state(post, -0.05, 0.0)
