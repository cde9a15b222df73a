"""Estimation accuracy against ground truth on the paper's reference
scenario (configs/fig3.json), and off the plane on fig3's and async's
sensors: the posterior mean and its uncertainty are both gated."""

import dataclasses

import numpy as np
import pytest

from stgp.cli import load_config
from stgp.graph import build_grid, build_prior_factors
from stgp.liegroup import so3_log
from stgp.prior import chart_encode, encode_with_jacobians_batch
from stgp.sensors import build_measurement_factors
from stgp.sim import GroundTruth, generate_measurements
from stgp.solver import SolverOptions, gauss_newton
from conftest import SpatialTruth


@pytest.fixture(scope="module")
def fig3():
    cfg = load_config("configs/fig3.json")
    truth = GroundTruth(cfg)
    params = cfg.prior_params()
    grid = build_grid(cfg.s_knots, cfg.t_knots, params.prior_mean)
    factors = build_prior_factors(grid, params)
    factors.measurement = build_measurement_factors(
        generate_measurements(cfg, truth), grid, params)
    post = gauss_newton(grid, factors, params,
                        SolverOptions(max_iters=cfg.max_iters, tol=cfg.tol))
    assert post.report.converged
    return post, truth.grid_states()


def test_fig3_position_rmse(fig3):
    # measured 2.64 mm
    post, truth = fig3
    sq = [np.sum((x.pose.t - xt.pose.t) ** 2)
          for x, xt in zip(post.grid.states, truth)]
    assert 1e3 * np.sqrt(np.mean(sq)) < 4.0


def test_fig3_iterations(fig3):
    """The decrement stop ends Gauss-Newton at iteration 7: the decrement
    reads 2.3e-8 at iteration 6 and 6.2e-10 at 7.  Iterations 5 and 6 step
    with iteration 4's factorization (decrement 1.1e-4); iteration 7's
    frozen decrement falls below tol and it factorizes again to confirm
    convergence: 5 factorizations, against 7 without the freeze."""
    post, _ = fig3
    assert post.report.iterations <= 7
    assert post.report.factorizations <= 5
    assert sum(post.report.halvings) == 0


def test_fig3_nees(fig3):
    """Mean per-node 24-dim NEES over 24; measured 0.40.  The node error is
    the truth's chart about the estimated pose minus the estimate's own."""
    post, truth = fig3
    marg = post.node_marginals
    nees = []
    for x, xt, P in zip(post.grid.states, truth, marg):
        e = chart_encode(xt, x.pose) - x.derivative_vector()
        nees.append(e @ np.linalg.solve(P, e))
    assert 0.30 <= np.mean(nees) / 24.0 <= 0.50


# The estimator off the plane.  fig3's and async's priors pin nu_z, omega_x
# and omega_y (PSD 1e-4), which every planar truth obeys; the out-of-plane
# prior frees them and keeps the rest of the scenario's prior.
OUT_OF_PLANE = {
    "fig3": ("configs/fig3.json",
             dict(qs_diag=[0.4748, 1.3037, 0.4748, 0.0308, 0.0308, 0.0308],
                  qst_diag=[13.37, 36.66, 13.37, 0.03, 0.03, 0.03])),
    "async": ("bench/scenarios/async.json",
              dict(qs_diag=[1.3037] * 3 + [0.0308] * 3,
                   qst_diag=[36.66] * 3 + [0.03] * 3)),
}
# (pos_rmse_mm below, rot_rmse_deg below, NEES/24 band), fixed before the
# first run: fig3's band is the planar gate's; async's planar control reads
# NEES/24 0.45 under this prior, so its band is wider above
SPATIAL_GATES = {"fig3": (4.0, 0.3, (0.30, 0.50)),
                 "async": (6.5, 0.3, (0.30, 0.70))}


def node_errors(cfg, truth):
    """(pos_rmse_mm, rot_rmse_deg, NEES/24) of the estimate from `truth`'s
    measurements against its states at the knots."""
    params = cfg.prior_params()
    grid = build_grid(cfg.s_knots, cfg.t_knots, params.prior_mean)
    factors = build_prior_factors(grid, params)
    factors.measurement = build_measurement_factors(
        generate_measurements(cfg, truth), grid, params)
    post = gauss_newton(grid, factors, params,
                        SolverOptions(max_iters=cfg.max_iters, tol=cfg.tol))
    assert post.report.converged
    x, xt = post.grid.states, truth.grid_states()
    rot = so3_log(np.swapaxes(xt.R, 1, 2) @ x.R)
    e = encode_with_jacobians_batch(xt, x.R, x.t, want_jac=False)[0] \
        - x.chart_origin()
    P = post.node_marginals
    nees = np.einsum("ni,ni->n", e, np.linalg.solve(P, e[..., None])[..., 0])
    return (1e3 * np.sqrt(np.mean(np.sum((x.t - xt.t) ** 2, axis=1))),
            np.degrees(np.sqrt(np.mean(np.sum(rot ** 2, axis=1)))),
            np.mean(nees) / 24.0)


@pytest.mark.parametrize("scenario", sorted(OUT_OF_PLANE))
def test_spatial_truth_estimates_like_planar(scenario):
    """A 3-D truth with a still base (`conftest.SpatialTruth`) estimates
    within the gates under the out-of-plane prior, on the scenario's own
    sensors (async's off-knot gyro3 and strain6 included), and within 1.5x
    of a planar-truth control's position and rotation RMSE under the same
    prior.  Measured: fig3 3.01 mm, 0.187 deg, NEES/24 0.38 against the
    control's 3.08 mm, 0.165 deg, 0.32; async 4.55 mm, 0.207 deg, 0.53
    against 5.13 mm, 0.215 deg, 0.45."""
    path, prior = OUT_OF_PLANE[scenario]
    cfg = dataclasses.replace(load_config(path), **prior)
    pos, rot, nees = node_errors(cfg, SpatialTruth(cfg))
    pos_planar, rot_planar, _ = node_errors(cfg, GroundTruth(cfg))
    pos_max, rot_max, (lo, hi) = SPATIAL_GATES[scenario]
    assert pos < pos_max and rot < rot_max and lo <= nees <= hi
    assert pos <= 1.5 * pos_planar and rot <= 1.5 * rot_planar
