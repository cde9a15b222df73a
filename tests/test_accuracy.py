"""Estimation accuracy against ground truth on the paper's reference
scenario (configs/fig3.json): the posterior mean and its uncertainty are
both gated."""

import numpy as np
import pytest

from stgp.cli import load_config
from stgp.graph import build_grid, build_prior_factors
from stgp.prior import chart_encode
from stgp.sensors import build_measurement_factors
from stgp.sim import GroundTruth, generate_measurements
from stgp.solver import SolverOptions, gauss_newton


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
