"""Grid construction, prior factor families, and the assembled precision's
sparsity pattern."""

import numpy as np
import pytest

from stgp.graph import Grid, build_grid, build_prior_factors
from stgp.liegroup import Pose, se3_exp
from stgp.oracle import dense_prior_precision, phi_cell
from stgp.prior import (NodeState, PriorParams, StateArrays, apply_pair,
                        chart_encode, decode_with_jacobians_batch,
                        integrator)
from stgp.sim import GroundTruth, ScenarioConfig
from stgp.solver import linearize
from conftest import dense, stack_states


def family_pattern(factors, n_nodes: int) -> np.ndarray:
    """Boolean block-sparsity pattern of J^T W J from the families' nodes."""
    pat = np.zeros((n_nodes, n_nodes), dtype=bool)
    for fam in factors.prior_families():
        for a in fam.nodes:
            for b in fam.nodes:
                pat[a, b] = True
    return pat


def dense_block_pattern(H: np.ndarray) -> np.ndarray:
    """Which 24x24 blocks of a dense matrix hold a nonzero."""
    n = H.shape[0] // 24
    return np.abs(H).reshape(n, 24, n, 24).max(axis=(1, 3)) > 0


def test_build_grid_single_node():
    g = build_grid([0.0], [0.0], StateArrays.identity())
    assert g.N == 1 and g.K == 1 and g.n_nodes == 1


def test_build_grid_flat_ordering():
    g = build_grid([0.0, 0.5, 1.0], [0.0, 1.0], StateArrays.identity())
    assert g.N == 3 and g.K == 2
    # time-major: flat index k*N + n
    order = [(n, k) for k in range(2) for n in range(3)]
    for i, (n, k) in enumerate(order):
        assert g.flat(n, k) == i
        assert divmod(i, g.N) == (k, n)


def test_build_grid_rejects_nonmonotone():
    with pytest.raises(ValueError):
        build_grid([0.0, 0.5, 0.5], [0.0], StateArrays.identity())
    with pytest.raises(ValueError):
        build_grid([0.0, 1.0], [1.0, 0.0], StateArrays.identity())


def test_build_grid_prior_mean_propagation():
    """Default init integrates the zero-noise prior from the initial state, so
    prior factor errors vanish on the initial grid."""
    init = StateArrays.identity()
    init.eps[0] = [1.0, 0, 0, 0, 0, 0.5]
    g = build_grid(np.linspace(0, 1, 4), np.linspace(0, 2, 3), init)
    params = PriorParams(qs_psd=np.eye(6), qt_psd=np.eye(6), qst_psd=np.eye(6),
                         p0=np.eye(24), prior_mean=init)
    factors = build_prior_factors(g, params)
    sa = g.states
    for fam in factors.prior_families():
        e = fam.evaluate(sa)[0]
        assert e.shape == (len(fam), 24)
        assert np.max(np.abs(e)) < 1e-9


def node_by_node_grid(s_knots, t_knots, x0: NodeState):
    """Reference continuation of x0 with zero process noise, one node at a
    time: the first time row by spatial steps, the first arclength column by
    temporal steps, and every other node as the corner that zeroes its cell
    factor in the chart of the cell's (0, 0) corner."""
    def step(z, base):
        return decode_with_jacobians_batch(z[None], base.pose.R[None],
                                           base.pose.t[None],
                                           want_jac=False)[0][0]

    # the transitions as the sweep applies them, one item at a time
    def ps(ds, z):
        return apply_pair(integrator(np.array([ds])), z[None], 2)[0]

    def pt(dt, z):
        return apply_pair(integrator(np.array([dt])), z[None], 1)[0]

    N, K = len(s_knots), len(t_knots)
    xs = [x0] + [None] * (N * K - 1)
    for n in range(1, N):
        x = xs[n - 1]
        xs[n] = step(ps(s_knots[n] - s_knots[n - 1], x.derivative_vector()),
                     x)
    for k in range(1, K):
        dt = t_knots[k] - t_knots[k - 1]
        x = xs[(k - 1) * N]
        xs[k * N] = step(pt(dt, x.derivative_vector()), x)
        for n in range(1, N):
            ds = s_knots[n] - s_knots[n - 1]
            x00, x10 = xs[(k - 1) * N + n - 1], xs[(k - 1) * N + n]
            x01 = xs[k * N + n - 1]
            z = (ps(ds, chart_encode(x01, x00.pose))
                 + pt(dt, chart_encode(x10, x00.pose))
                 - pt(dt, ps(ds, x00.derivative_vector())))
            xs[k * N + n] = step(z, x00)
    return xs


@pytest.mark.parametrize("init", ["prior_mean", "generic"])
@pytest.mark.parametrize("N,K", [(6, 4), (3, 5), (4, 4), (1, 5), (5, 1),
                                 (1, 1)])
def test_build_grid_matches_node_by_node_recursion(N, K, init):
    """The anti-diagonal sweep reproduces the node-by-node recursion bit for
    bit on non-uniform knots."""
    rng = np.random.default_rng(10 * N + K)
    s = np.cumsum(rng.uniform(0.05, 0.3, N))
    t = np.cumsum(rng.uniform(0.1, 0.6, K))
    if init == "prior_mean":
        x0 = ScenarioConfig(length=1.0, n_space=N, n_time=K,
                            duration=1.0).prior_params().prior_mean
    else:
        T = se3_exp(np.array([0.1, -0.2, 0.05, 0.3, -0.1, 0.2]))
        x0 = stack_states([NodeState(
            Pose(T[:3, :3], T[:3, 3]),
            np.array([1.0, 0.1, -0.2, 0.3, -0.4, 0.8]),
            0.3 * rng.standard_normal(6), 0.3 * rng.standard_normal(6))])
    got = build_grid(s, t, x0).states
    ref = stack_states(node_by_node_grid(s, t, x0[0]))
    for f in ("R", "t", "eps", "vel", "sv"):
        assert np.array_equal(getattr(got, f), getattr(ref, f)), f


@pytest.mark.parametrize("N,K,counts", [
    (3, 2, (1, 2, 1, 2)),
    (1, 1, (1, 0, 0, 0)),
    (2, 2, (1, 1, 1, 1)),
    (4, 3, (1, 3, 2, 6)),
])
def test_prior_factor_counts(N, K, counts, params):
    g = build_grid(np.linspace(0, 1, N), np.linspace(0, 1, K),
                   StateArrays.identity())
    fs = build_prior_factors(g, params)
    got = (len(fs.unary), len(fs.binary_spatial), len(fs.binary_temporal),
           len(fs.quaternary))
    assert got == counts
    assert fs.prior_count() == N * K


def test_every_node_referenced(params):
    g = build_grid(np.linspace(0, 1, 4), np.linspace(0, 1, 3),
                   StateArrays.identity())
    fs = build_prior_factors(g, params)
    seen = set()
    for fam in fs.prior_families():
        seen.update(fam.nodes.ravel().tolist())
    assert seen == set(range(g.n_nodes))


def test_binary_chain_placement(params):
    # spatial chain on the first time row, temporal chain on the first column
    g = build_grid(np.linspace(0, 1, 4), np.linspace(0, 1, 3),
                   StateArrays.identity())
    fs = build_prior_factors(g, params)
    a, b = fs.binary_spatial.nodes
    assert np.all(a // g.N == 0) and np.all(b // g.N == 0)
    assert np.array_equal(b, a + 1)
    a, b = fs.binary_temporal.nodes
    assert np.all(a % g.N == 0) and np.all(b % g.N == 0)
    assert np.array_equal(b, a + g.N)
    c00, c10, c01, c11 = fs.quaternary.nodes
    assert np.array_equal(c10, c00 + 1) and np.array_equal(c01, c00 + g.N)
    assert np.array_equal(c11, c00 + g.N + 1)
    cells = [(n, k) for n, k in zip(c00 % g.N, c00 // g.N)]
    # time-major, so the cell order matches ds/dt per item
    assert cells == [(n, k) for k in range(g.K - 1) for n in range(g.N - 1)]


def test_precision_pattern_single_node(params):
    g = build_grid([0.0], [0.0], StateArrays.identity())
    fs = build_prior_factors(g, params)
    pat = family_pattern(fs, g.n_nodes)
    assert pat.shape == (1, 1) and pat[0, 0]
    assert np.array_equal(dense_block_pattern(dense(linearize(fs, g))), pat)


def test_precision_pattern_neighbors(params):
    g = build_grid(np.linspace(0, 1, 3), np.linspace(0, 1, 3),
                   StateArrays.identity())
    fs = build_prior_factors(g, params)
    pat = family_pattern(fs, g.n_nodes)
    assert np.array_equal(pat, pat.T)
    assert np.array_equal(dense_block_pattern(dense(linearize(fs, g))), pat)
    center = g.flat(1, 1)
    coupled = sorted(np.nonzero(pat[center])[0])
    neighbors = sorted(g.flat(1 + dn, 1 + dk)
                       for dn in (-1, 0, 1) for dk in (-1, 0, 1))
    assert coupled == neighbors


def test_precision_pattern_bandwidth(params):
    g = build_grid(np.linspace(0, 1, 4), np.linspace(0, 1, 4),
                   StateArrays.identity())
    fs = build_prior_factors(g, params)
    pat = family_pattern(fs, g.n_nodes)
    idx = np.nonzero(pat)
    assert np.max(np.abs(idx[0] - idx[1])) <= g.N + 1
    assert np.array_equal(dense_block_pattern(dense(linearize(fs, g))), pat)


def test_precision_matches_oracle_and_pattern(params):
    """Assembled prior precision at the chart origin equals the lifted dense
    construction, and vanishes outside the depth-two neighbor pattern: on
    uniform knots, and on knots whose every step differs, so each cell's
    weight must take its own (ds, dt)."""
    cases = [(np.linspace(0.0, 1.0, N), np.linspace(0.0, 2.0, K))
             for N, K in ((2, 3), (4, 2))]
    cases.append((np.array([0.0, 0.1, 0.45, 1.0]),
                  np.array([0.0, 0.3, 1.1])))
    for s_knots, t_knots in cases:
        g = build_grid(s_knots, t_knots, StateArrays.identity())
        fs = build_prior_factors(g, params)
        H = dense(linearize(fs, g))
        ref = dense_prior_precision(s_knots, t_knots, params)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(H - ref)) < 1e-10 * scale
        for i in range(g.n_nodes):
            ki, ni = divmod(i, g.N)
            for j in range(g.n_nodes):
                kj, nj = divmod(j, g.N)
                if abs(ni - nj) > 1 or abs(ki - kj) > 1:
                    blk = H[24 * i:24 * i + 24, 24 * j:24 * j + 24]
                    assert np.max(np.abs(blk)) < 1e-10 * scale


def test_diagonal_blocks_positive_definite(params):
    g = build_grid(np.linspace(0, 1, 3), np.linspace(0, 1, 3),
                   StateArrays.identity())
    fs = build_prior_factors(g, params)
    H = dense(linearize(fs, g))
    for i in range(g.n_nodes):
        blk = H[24 * i:24 * i + 24, 24 * i:24 * i + 24]
        assert np.min(np.linalg.eigvalsh(blk)) > 0


def test_grid_state_arrays_roundtrip():
    """`state_arrays`, which the benchmark scripts read, is `states`."""
    g = build_grid(np.linspace(0, 1, 3), np.linspace(0, 1, 2),
                   StateArrays.identity())
    sa = g.state_arrays()
    assert sa is g.states
    assert sa.R.shape == (6, 3, 3)
    assert sa.eps.shape == (6, 6)


def test_grid_states_index_and_iterate():
    """Indexing, iterating and indexing at `Grid.flat` give each node's
    `NodeState` in time-major order."""
    cfg = ScenarioConfig(length=0.5, n_space=3, n_time=2, duration=1.0)
    g = Grid(cfg.s_knots, cfg.t_knots, GroundTruth(cfg).grid_states())
    states = list(g.states)
    assert len(g.states) == len(states) == g.n_nodes
    for i, x in enumerate(states):
        k, n = divmod(i, g.N)
        for y in (g.states[i], g.states[g.flat(n, k)]):
            assert np.array_equal(y.pose.R, g.states.R[i])
            assert np.array_equal(y.strain_velocity, x.strain_velocity)
    assert np.array_equal(g.states[-1].pose.t, g.states.t[g.n_nodes - 1])
    with pytest.raises(IndexError):
        g.states[g.n_nodes]
    with pytest.raises(ValueError):
        Grid(g.s_knots, g.t_knots[:1], g.states)


def test_nonuniform_knots(params):
    s = np.array([0.0, 0.1, 0.4, 1.0])
    t = np.array([0.0, 0.5, 0.6])
    g = build_grid(s, t, StateArrays.identity())
    fs = build_prior_factors(g, params)
    # each binary family's pair factors give the dense transition of its step
    for fam, phi in ((fs.binary_spatial, [phi_cell(d, 0) for d in np.diff(s)]),
                     (fs.binary_temporal, [phi_cell(0, d) for d in np.diff(t)])):
        m, outer = fam.args
        eye = np.broadcast_to(np.eye(24), (len(m), 24, 24))
        assert np.array_equal(apply_pair(m, eye, outer), np.array(phi))
    ds, dt = fs.quaternary.args
    assert np.array_equal(ds, np.tile(np.diff(s), len(t) - 1))
    assert np.array_equal(dt, np.repeat(np.diff(t), len(s) - 1))
