"""Shared helpers: seeded random states, their stacking and their
retraction, small default prior parameters, one measurement factor
evaluated on its own, the dense reference views of a stencil-layout
system, and a closed-form ground truth that leaves the plane."""

import numpy as np
import pytest

from stgp.liegroup import Pose, adjoint, se3_exp
from stgp.prior import (NodeState, PriorParams, StateArrays,
                        decode_with_jacobians_batch)
from stgp.sensors import group_measurements
from stgp.sim import GroundTruth
from stgp.solver import BLOCK, FORWARD, stencil_slot


def random_state(rng: np.random.Generator, angle: float = 0.3,
                 trans: float = 0.5, deriv: float = 0.5) -> NodeState:
    phi = rng.standard_normal(3)
    phi *= angle * rng.uniform(0.1, 1.0) / np.linalg.norm(phi)
    xi = np.concatenate([trans * rng.standard_normal(3), phi])
    m = se3_exp(xi)
    return NodeState(Pose(m[:3, :3], m[:3, 3]),
                     deriv * rng.standard_normal(6),
                     deriv * rng.standard_normal(6),
                     deriv * rng.standard_normal(6))


def random_states(seed: int, n: int, **kw):
    rng = np.random.default_rng(seed)
    return [random_state(rng, **kw) for _ in range(n)]


def stack_states(states) -> StateArrays:
    """The `NodeState`s of a list, stacked in order."""
    return StateArrays(
        R=np.stack([s.pose.R for s in states]),
        t=np.stack([s.pose.t for s in states]),
        eps=np.stack([s.strain for s in states]),
        vel=np.stack([s.velocity for s in states]),
        sv=np.stack([s.strain_velocity for s in states]))


def retract(x: NodeState, delta: np.ndarray) -> NodeState:
    """x moved by a 24-dim perturbation in its own chart."""
    z = x.derivative_vector() + np.asarray(delta, dtype=float)
    return decode_with_jacobians_batch(z[None], x.pose.R[None],
                                       x.pose.t[None], want_jac=False)[0][0]


def factor_terms(f, grid):
    """[error, J_0, ...] of one measurement factor at the grid's states,
    evaluated as a group of one and cut to the rows it observes."""
    (group,) = group_measurements([f])
    return [a[0][f.meas.rows] for a in group.evaluate(grid.states)]


def stencil_pairs(N: int, K: int):
    """(i, j) for every node i and each j of i itself and its forward
    stencil neighbours, time-major."""
    for i in range(N * K):
        k, n = divmod(i, N)
        for dn, dk in ((0, 0),) + FORWARD:
            if 0 <= n + dn < N and k + dk < K:
                yield i, (k + dk) * N + n + dn


def add_block(system, i: int, j: int, block: np.ndarray):
    """H[i, j] += block, and H[j, i] += block.T for i != j; i and j must be
    equal or stencil neighbours."""
    if i > j:
        i, j, block = j, i, block.T
    (ki, ni), (kj, nj) = divmod(i, system.N), divmod(j, system.N)
    if kj - ki > 1 or abs(nj - ni) > 1:
        raise ValueError(f"nodes {i},{j} outside the banded pattern")
    system.blocks.reshape(-1, *system.blocks.shape[2:])[
        i, stencil_slot(system.N, i, j)] += block


def add_rhs(system, i: int, vec: np.ndarray):
    system.rhs.reshape(-1, BLOCK)[i] += vec


def dense(system) -> np.ndarray:
    """The full symmetric matrix of a stencil-layout system."""
    blocks = system.blocks.reshape(-1, *system.blocks.shape[2:])
    H = np.zeros((system.dim, system.dim))
    for i, j in stencil_pairs(system.N, system.K):
        blk = blocks[i, stencil_slot(system.N, i, j)]
        H[BLOCK * j:BLOCK * (j + 1), BLOCK * i:BLOCK * (i + 1)] = blk.T
        H[BLOCK * i:BLOCK * (i + 1), BLOCK * j:BLOCK * (j + 1)] = blk
    return H


def matvec(system, x: np.ndarray) -> np.ndarray:
    """H @ x, block by block over the stencil storage."""
    blocks = system.blocks.reshape(-1, *system.blocks.shape[2:])
    xr = np.asarray(x, dtype=float).reshape(-1, BLOCK)
    y = np.zeros_like(xr)
    for i, j in stencil_pairs(system.N, system.K):
        blk = blocks[i, stencil_slot(system.N, i, j)]
        y[i] += blk @ xr[j]
        if j != i:
            y[j] += blk.T @ xr[i]
    return y.reshape(np.shape(x))


class SpatialTruth(GroundTruth):
    """A rod that leaves the plane, with a still base: T(s, t) =
    exp(s xi0) exp(g xia), g = sin(2 pi t / period) s^2 / (2 L).  With
    A = exp(s xi0) and u = Ad(A) xia, the world strain is xi0 + g_s u, the
    velocity g_t u and the strain rate g_st u, each zero-rate at s = 0 like
    the planar truth.  On fig3's rod the tip leaves the plane by up to
    178 mm."""

    XI0 = np.array([1.0, 0.0, 0.0, 0.4, 0.5, 0.8])
    XIA = np.array([0.0, 0.0, 0.0, 0.3, 0.2, 0.4])

    def states(self, s, t) -> StateArrays:
        cfg = self.config
        L, w = cfg.length, 2.0 * np.pi / cfg.period
        s = np.asarray(s, dtype=float).reshape(-1, 1)
        t = np.asarray(t, dtype=float).reshape(-1, 1)
        a, da = np.sin(w * t), w * np.cos(w * t)
        A = se3_exp(s * self.XI0)
        T = A @ se3_exp(a * s * s / (2.0 * L) * self.XIA)
        u = adjoint(A) @ self.XIA
        return StateArrays(T[:, :3, :3], T[:, :3, 3],
                           self.XI0 + a * s / L * u,
                           da * s * s / (2.0 * L) * u, da * s / L * u)


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
