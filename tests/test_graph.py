"""Grid construction, prior factor families, and the assembled precision's
sparsity pattern."""

import numpy as np
import pytest

from stgp.graph import Grid, build_grid, build_prior_factors
from stgp.liegroup import Pose
from stgp.oracle import dense_prior_precision
from stgp.prior import NodeState, PriorParams, phi_s_batch, phi_t_batch
from stgp.sim import GroundTruth, ScenarioConfig
from stgp.solver import linearize
from conftest import dense


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
    g = build_grid([0.0], [0.0], NodeState.identity())
    assert g.N == 1 and g.K == 1 and g.n_nodes == 1


def test_build_grid_flat_ordering():
    g = build_grid([0.0, 0.5, 1.0], [0.0, 1.0], NodeState.identity())
    assert g.N == 3 and g.K == 2
    # space-major: flat index k*N + n
    order = [(n, k) for k in range(2) for n in range(3)]
    for i, (n, k) in enumerate(order):
        assert g.flat(n, k) == i
        assert g.node_indices(i) == (n, k)


def test_build_grid_rejects_nonmonotone():
    with pytest.raises(ValueError):
        build_grid([0.0, 0.5, 0.5], [0.0], NodeState.identity())
    with pytest.raises(ValueError):
        build_grid([0.0, 1.0], [1.0, 0.0], NodeState.identity())


def test_build_grid_from_ground_truth():
    cfg = ScenarioConfig(length=0.5, n_space=4, n_time=3, duration=1.0,
                         kappa0=0.8, kappa_a=0.3)
    truth = GroundTruth(cfg)
    g = build_grid(cfg.s_knots, cfg.t_knots, truth.state)
    for k, t in enumerate(cfg.t_knots):
        for n, s in enumerate(cfg.s_knots):
            ref = truth.state(float(s), float(t))
            got = g.state(n, k)
            assert np.max(np.abs(got.pose.matrix() - ref.pose.matrix())) < 1e-12


def test_build_grid_prior_mean_propagation():
    """Default init integrates the zero-noise prior from the initial state, so
    prior factor errors vanish on the initial grid."""
    init = NodeState(Pose.identity(), np.array([1.0, 0, 0, 0, 0, 0.5]),
                     np.zeros(6), np.zeros(6))
    g = build_grid(np.linspace(0, 1, 4), np.linspace(0, 2, 3), init)
    params = PriorParams(qs_psd=np.eye(6), qt_psd=np.eye(6), qst_psd=np.eye(6),
                         p0=np.eye(24), prior_mean=init)
    factors = build_prior_factors(g, params)
    sa = g.state_arrays()
    for fam in factors.prior_families():
        e = fam.evaluate(sa, want_jac=False)[0]
        assert e.shape == (len(fam), 24)
        assert np.max(np.abs(e)) < 1e-9


@pytest.mark.parametrize("N,K,counts", [
    (3, 2, (1, 2, 1, 2)),
    (1, 1, (1, 0, 0, 0)),
    (2, 2, (1, 1, 1, 1)),
    (4, 3, (1, 3, 2, 6)),
])
def test_prior_factor_counts(N, K, counts, params):
    g = build_grid(np.linspace(0, 1, N), np.linspace(0, 1, K),
                   NodeState.identity())
    fs = build_prior_factors(g, params)
    got = (len(fs.unary), len(fs.binary_spatial), len(fs.binary_temporal),
           len(fs.quaternary))
    assert got == counts
    assert fs.prior_count() == N * K


def test_every_node_referenced(params):
    g = build_grid(np.linspace(0, 1, 4), np.linspace(0, 1, 3),
                   NodeState.identity())
    fs = build_prior_factors(g, params)
    seen = set()
    for fam in fs.prior_families():
        seen.update(fam.nodes.ravel().tolist())
    assert seen == set(range(g.n_nodes))


def test_binary_chain_placement(params):
    # spatial chain on the first time row, temporal chain on the first column
    g = build_grid(np.linspace(0, 1, 4), np.linspace(0, 1, 3),
                   NodeState.identity())
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
    g = build_grid([0.0], [0.0], NodeState.identity())
    fs = build_prior_factors(g, params)
    pat = family_pattern(fs, g.n_nodes)
    assert pat.shape == (1, 1) and pat[0, 0]
    assert np.array_equal(dense_block_pattern(dense(linearize(fs, g))), pat)


def test_precision_pattern_neighbors(params):
    g = build_grid(np.linspace(0, 1, 3), np.linspace(0, 1, 3),
                   NodeState.identity())
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
                   NodeState.identity())
    fs = build_prior_factors(g, params)
    pat = family_pattern(fs, g.n_nodes)
    idx = np.nonzero(pat)
    assert np.max(np.abs(idx[0] - idx[1])) <= g.N + 1
    assert np.array_equal(dense_block_pattern(dense(linearize(fs, g))), pat)


def test_precision_matches_oracle_and_pattern(params):
    """Assembled prior precision at the chart origin equals the lifted dense
    construction, and vanishes outside the depth-two neighbor pattern."""
    for (N, K) in ((2, 3), (4, 2)):
        s_knots = np.linspace(0.0, 1.0, N)
        t_knots = np.linspace(0.0, 2.0, K)
        g = build_grid(s_knots, t_knots, NodeState.identity())
        fs = build_prior_factors(g, params)
        H = dense(linearize(fs, g))
        ref = dense_prior_precision(s_knots, t_knots, params)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(H - ref)) < 1e-10 * scale
        for i in range(g.n_nodes):
            ni, ki = g.node_indices(i)
            for j in range(g.n_nodes):
                nj, kj = g.node_indices(j)
                if abs(ni - nj) > 1 or abs(ki - kj) > 1:
                    blk = H[24 * i:24 * i + 24, 24 * j:24 * j + 24]
                    assert np.max(np.abs(blk)) < 1e-10 * scale


def test_diagonal_blocks_positive_definite(params):
    g = build_grid(np.linspace(0, 1, 3), np.linspace(0, 1, 3),
                   NodeState.identity())
    fs = build_prior_factors(g, params)
    H = dense(linearize(fs, g))
    for i in range(g.n_nodes):
        blk = H[24 * i:24 * i + 24, 24 * i:24 * i + 24]
        assert np.min(np.linalg.eigvalsh(blk)) > 0


def test_grid_state_arrays_roundtrip():
    g = build_grid(np.linspace(0, 1, 3), np.linspace(0, 1, 2),
                   NodeState.identity())
    sa = g.state_arrays()
    assert sa.R.shape == (6, 3, 3)
    assert sa.eps.shape == (6, 6)


def test_nonuniform_knots(params):
    s = np.array([0.0, 0.1, 0.4, 1.0])
    t = np.array([0.0, 0.5, 0.6])
    g = build_grid(s, t, NodeState.identity())
    fs = build_prior_factors(g, params)
    assert np.array_equal(fs.binary_spatial.args[0], phi_s_batch(np.diff(s)))
    assert np.array_equal(fs.binary_temporal.args[0], phi_t_batch(np.diff(t)))
    ds, dt = fs.quaternary.args
    assert np.array_equal(ds, np.tile(np.diff(s), len(t) - 1))
    assert np.array_equal(dt, np.repeat(np.diff(t), len(s) - 1))
