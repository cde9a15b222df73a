"""Shared helpers: seeded random states, small default prior parameters,
and one measurement factor evaluated on its own."""

import numpy as np
import pytest

from stgp.liegroup import Pose, se3_exp
from stgp.prior import NodeState, PriorParams
from stgp.sensors import group_measurements


def random_state(rng: np.random.Generator, angle: float = 0.3,
                 trans: float = 0.5, deriv: float = 0.5) -> NodeState:
    phi = rng.standard_normal(3)
    phi *= angle * rng.uniform(0.1, 1.0) / np.linalg.norm(phi)
    xi = np.concatenate([trans * rng.standard_normal(3), phi])
    return NodeState(Pose.from_matrix(se3_exp(xi)),
                     deriv * rng.standard_normal(6),
                     deriv * rng.standard_normal(6),
                     deriv * rng.standard_normal(6))


def random_states(seed: int, n: int, **kw):
    rng = np.random.default_rng(seed)
    return [random_state(rng, **kw) for _ in range(n)]


def factor_terms(f, grid, want_jac: bool = True):
    """[error, J_0, ...] of one measurement factor at the grid's states,
    evaluated as a group of one and cut to the rows it observes."""
    (group,) = group_measurements([f])
    out = group.evaluate(grid.state_arrays(), want_jac)
    return [a[0][f.meas.rows] for a in out if a is not None]


@pytest.fixture
def params() -> PriorParams:
    return PriorParams(qs_psd=np.diag([1.0, 0.8, 1.2, 0.5, 0.9, 1.1]),
                       qt_psd=np.diag([0.7, 1.0, 0.6, 1.3, 0.4, 1.0]),
                       qst_psd=np.diag([1.1, 0.9, 1.0, 0.8, 1.2, 0.7]),
                       p0=np.diag(np.linspace(0.5, 2.0, 24)))


@pytest.fixture
def identity_params() -> PriorParams:
    return PriorParams(qs_psd=np.eye(6), qt_psd=np.eye(6), qst_psd=np.eye(6),
                       p0=np.eye(24))


@pytest.fixture(scope="session")
def linear_posterior():
    """Converged posterior on the bundled small scenario, shared by the query
    and CLI suites.  Returns (config, posterior)."""
    from stgp.cli import load_config
    from stgp.graph import FactorSet, build_grid, build_prior_factors
    from stgp.sensors import build_measurement_factors
    from stgp.sim import GroundTruth, generate_measurements
    from stgp.solver import SolverOptions, gauss_newton

    cfg = load_config("configs/linear.json")
    params = cfg.prior_params()
    grid = build_grid(cfg.s_knots, cfg.t_knots, params.prior_mean)
    prior = build_prior_factors(grid, params)
    mf = build_measurement_factors(
        generate_measurements(cfg, GroundTruth(cfg)), grid, params)
    factors = FactorSet(prior.unary, prior.binary_spatial,
                        prior.binary_temporal, prior.quaternary, mf)
    post = gauss_newton(grid, factors, params,
                        SolverOptions(max_iters=cfg.max_iters, tol=cfg.tol))
    assert post.report.converged
    return cfg, post
