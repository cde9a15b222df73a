"""Continuous (s, t) queries: cell location, conditioning weights against the
dense oracle, mean and covariance reproduction, and hull continuity."""

import numpy as np
import pytest

from stgp.graph import build_grid, build_prior_factors
from stgp.liegroup import Pose, se3_exp
from stgp.oracle import dense_condition_query, dense_prior_covariance
from stgp.prior import NodeState, chart_encode
from stgp.sensors import (InterpolatedMeasurementFactor, Measurement,
                          build_measurement_factor)
from stgp.query import (HULL_TOL, OutOfHullError, interp_weights, locate,
                        make_interpolant, query_mean, query_state,
                        spatial_gain, temporal_gain)
from stgp.solver import gauss_newton

I24 = np.eye(24)


class MeanOnlyPosterior:
    """Grid + params wrapper for mean queries on hand-built grids."""

    def __init__(self, grid, params):
        self.grid = grid
        self.params = params
        self.cov = None


# cell location


def test_locate_interior_and_knots():
    knots = np.array([0.0, 0.3, 1.0])
    assert locate(knots, 0.15, "s") == (0, pytest.approx(0.15))
    assert locate(knots, 0.3, "s") == (1, 0.0)
    assert locate(knots, 0.0, "s") == (0, 0.0)
    idx, off = locate(knots, 1.0, "s")
    assert idx == 1 and off == pytest.approx(0.7)


def test_locate_out_of_hull():
    knots = np.array([0.0, 1.0])
    with pytest.raises(OutOfHullError):
        locate(knots, -0.01, "s")
    with pytest.raises(OutOfHullError):
        locate(knots, 1.01, "s")
    # within tolerance of the boundary is clamped, not rejected
    assert locate(knots, 1.0 + 1e-12, "s") == (0, 1.0)


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
        interp = make_interpolant(s, t, params, si, ti)
        assert len(interp.node_ids) == n, (si, ti)


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
    lam_t, psi_t, _ = temporal_gain(0.3, 0.11, params)
    Wd, _, corners = dense_condition_query(s, t, params, 0.25, 0.41)
    assert corners == [(1, 1), (1, 2)]
    assert np.max(np.abs(np.hstack([psi_t, lam_t]) - Wd)) < 1e-10
    # on the t knot line, to the spatial pair
    lam_s, psi_s, _ = spatial_gain(0.25, 0.1, params)
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
        interp = make_interpolant(grid.s_knots, grid.t_knots, post.params,
                                  s, t)
        assert interp.node_ids == pair, (s, t)
        f = build_measurement_factor(
            Measurement("position3", s, t, np.zeros(3), np.eye(3)), grid,
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
