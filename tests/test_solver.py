"""Block-banded normal equations: assembly, factorization backed by dense
oracles, and the Gauss-Newton loop."""

import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from stgp.graph import FactorSet, Grid, build_grid, build_prior_factors
from stgp.liegroup import se3_exp
from stgp.oracle import dense_prior_precision
from stgp.prior import StateArrays, chart_encode
from stgp.sensors import Measurement, NodeMeasurementFactor, \
    build_measurement_factors
from stgp.sim import GroundTruth, generate_measurements
from stgp.solver import (BLOCK, BlockBandedSystem, NotPositiveDefiniteError,
                         SolverOptions, _band_layout, apply_update,
                         assemble_band, corner_covariances, evaluate_cost,
                         factorize, gauss_newton, linearize, solve_factorized,
                         sweep_order)
from conftest import (add_block, add_rhs, dense, factor_terms, matvec,
                      random_states, stack_states, stencil_pairs)


def random_banded_system(seed: int, N: int, K: int) -> BlockBandedSystem:
    """Random SPD system honouring the depth-two coupling pattern."""
    rng = np.random.default_rng(seed)
    system = BlockBandedSystem.zeros(N, K)
    n_nodes = N * K
    for i in range(n_nodes):
        A = rng.standard_normal((BLOCK, BLOCK))
        add_block(system, i, i, A @ A.T * 0.05 + 40.0 * np.eye(BLOCK))
        add_rhs(system, i, rng.standard_normal(BLOCK))
    for i, j in stencil_pairs(N, K):
        if j != i:
            # eight couplings of spectral norm ~3 against a 40 I diagonal
            add_block(system, i, j, 0.3 * rng.standard_normal((BLOCK, BLOCK)))
    return system


# structure of the assembled system


def test_add_block_rejects_out_of_band():
    system = BlockBandedSystem.zeros(3, 3)
    with pytest.raises(ValueError):
        add_block(system, 0, 6, np.eye(BLOCK))  # two time rows apart
    with pytest.raises(ValueError):
        add_block(system, 0, 2, np.eye(BLOCK))  # two knots apart spatially


def test_matvec_matches_dense():
    system = random_banded_system(3, N=3, K=4)
    H = dense(system)
    assert np.max(np.abs(H - H.T)) < 1e-12
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.standard_normal(system.dim)
        assert np.max(np.abs(matvec(system, x) - H @ x)) < 1e-9


# sweeps along s, along t, the N == K rule, and thin grids whose bandwidth
# is not min(N, K) + 1
SHAPES = [(5, 3), (3, 5), (4, 4), (1, 4), (4, 1), (1, 1), (2, 2), (2, 6)]


def scalar_order(N, K):
    """The sweep order as a permutation of the 24NK scalar unknowns."""
    return (BLOCK * sweep_order(N, K)[:, None] + np.arange(BLOCK)).ravel()


def band_width(N, K):
    """Largest distance in the sweep order between stencil neighbours."""
    pos = np.argsort(sweep_order(N, K))
    return max(abs(pos[i] - pos[j]) for i, j in stencil_pairs(N, K))


@pytest.mark.parametrize("N,K", SHAPES)
def test_sweep_order_round_trips(N, K):
    order = sweep_order(N, K)
    assert sorted(order) == list(range(N * K))
    pos = np.argsort(order)
    assert np.array_equal(order[pos], np.arange(N * K))
    # the faster index runs along the shorter axis (time when N == K)
    k, n = np.divmod(order, N)
    slow, fast = (n, k) if N > K else (k, n)
    assert np.array_equal(np.lexsort((fast, slow)), np.arange(N * K))
    # stencil neighbours are min(N, K) + 1 positions apart at most when both
    # axes have two knots or more, 1 along a single row or column
    assert band_width(N, K) == (min(N, K) + 1 if min(N, K) > 1
                                else int(N * K > 1))


@pytest.mark.parametrize("N,K", SHAPES)
def test_band_matches_permuted_dense(N, K):
    """The band assembled from the stencil layout is the lower band of the
    permuted dense matrix, zeros past its last row included, and the factor's
    block columns are the blocks of its dense Cholesky factor."""
    system = random_banded_system(300 + N * K, N, K)
    perm = scalar_order(N, K)
    A = dense(system)[np.ix_(perm, perm)]
    ab = assemble_band(system)
    kd, n = ab.shape[0] - 1, ab.shape[1]
    b = band_width(N, K)
    assert kd == BLOCK * (b + 1) - 1
    ref = np.zeros_like(ab)
    for r in range(kd + 1):
        ref[r, :n - r] = np.diagonal(A, -r)
    assert np.array_equal(ab, ref)
    # the view's entries above a diagonal block's diagonal alias the band at
    # block offsets b and b + 1, so a full diagonal write must show here
    if min(N, K) > 1:
        assert any(np.any(A[BLOCK * (p + b):BLOCK * (p + b + 1),
                            BLOCK * p:BLOCK * (p + 1)])
                   for p in range(N * K - b))
    fact = factorize(system)
    L, X = fact.L, fact.X
    C = np.linalg.cholesky(A)
    for p in range(N * K):
        a = BLOCK * p
        assert np.max(np.abs(L[p] - C[a:a + BLOCK, a:a + BLOCK])) < 1e-12
        panel = np.zeros((BLOCK * b, BLOCK))
        rows = C[a + BLOCK:a + BLOCK * (b + 1), a:a + BLOCK]
        panel[:len(rows)] = rows
        assert np.all(np.abs(X[p] - panel) < 1e-12)  # b = 0: no panel


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated while running."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_factorize_and_covariance_hold_one_band():
    """Factorization and selected inverse make no copy of the band: on an
    8x24 grid (b = 9) the factorization's traced peak stays below twice the
    band's bytes, and the covariance sweep's below three times the stencil
    covariance it returns."""
    system = random_banded_system(8, N=8, K=24)
    fact, peak = traced_peak(factorize, system)
    assert peak < 2 * fact.band.nbytes
    cc, peak = traced_peak(corner_covariances, fact)
    assert peak < 3 * (cc.sig_diag.nbytes + cc.sig_off.nbytes)


@pytest.mark.parametrize("N,K", [(41, 11), (11, 41)])
def test_band_layout_is_linear_in_nodes(N, K):
    """The stencil reaches the band through a few ints per stored block:
    the whole layout, pickled, stays under 256 bytes per node."""
    assert len(pickle.dumps(_band_layout(N, K))) < 256 * N * K


# linearization against brute-force normal equations


def test_linearize_single_unary_at_mean(identity_params):
    grid = build_grid([0.0], [0.0], identity_params.prior_mean)
    factors = build_prior_factors(grid, identity_params)
    system = linearize(factors, grid)
    assert np.max(np.abs(system.diag[0, 0] - np.eye(BLOCK))) < 1e-12
    assert np.max(np.abs(system.rhs)) < 1e-14


def test_linearize_prior_matches_dense_precision(params):
    s = np.linspace(0.0, 1.0, 3)
    t = np.linspace(0.0, 0.8, 2)
    grid = build_grid(s, t, params.prior_mean)
    system = linearize(build_prior_factors(grid, params), grid)
    H = dense_prior_precision(s, t, params)
    assert np.max(np.abs(dense(system) - H)) < 1e-10 * np.max(np.abs(H))


def brute_force_normal_equations(factors, grid):
    """Dense H, rhs and cost summed one factor at a time: prior factors item
    by item from their family's kernel, each measurement factor evaluated as
    a group of one with its own (masked-size) weight."""
    terms = []
    for fam in factors.prior_families():
        e, *jacs = fam.evaluate(grid.states)
        terms += [(fam.nodes[:, b], e[b], [J[b] for J in jacs],
                   fam.weights[b]) for b in range(len(fam))]
    for f in factors.measurement:
        e, *jacs = factor_terms(f, grid)
        terms.append((f.nodes, e, jacs, f.weight))
    n = grid.n_nodes * BLOCK
    H = np.zeros((n, n))
    g = np.zeros(n)
    cost = 0.0
    for nodes, e, jacs, w in terms:
        cost += float(e @ w @ e)
        for i, ji in zip(nodes, jacs):
            g[BLOCK * i:BLOCK * (i + 1)] -= ji.T @ w @ e
            for j, jj in zip(nodes, jacs):
                H[BLOCK * i:BLOCK * (i + 1), BLOCK * j:BLOCK * (j + 1)] += \
                    ji.T @ w @ jj
    return H, g, cost


def test_linearize_matches_brute_force_with_measurements(params):
    """Every measurement group against per-factor normal equations: each
    sensor kind on a node, on both kinds of knot line and inside a cell,
    masked strain, and groups with up to three factors on one node set."""
    s = np.linspace(0.0, 1.0, 3)
    t = np.linspace(0.0, 0.8, 2)
    states = random_states(11, 6, angle=0.15, trans=0.1, deriv=0.2)
    grid = Grid(s, t, stack_states(states[::-1]))
    rng = np.random.default_rng(12)
    mask = np.array([True, False, False, False, False, True])

    def meas(kind, si, ti, masked=False):
        if kind == "pose6":
            T = se3_exp(0.1 * rng.standard_normal(6))
            return Measurement(kind, si, ti, T, 1e-4 * np.eye(6))
        dim = 2 if masked else (6 if kind == "strain6" else 3)
        return Measurement(kind, si, ti, 0.1 * rng.standard_normal(
            6 if kind == "strain6" else 3), 1e-4 * np.eye(dim),
            mask=mask if masked else None)

    points = [(0.5, 0.0), (1.0, 0.8),    # on a node
              (0.5, 0.35), (0.5, 0.6),   # on an s knot: 2 nodes along t
              (0.2, 0.8), (0.75, 0.0),   # on a t knot: 2 nodes along s
              (0.7, 0.5), (0.3, 0.3)]    # inside a cell: 4 nodes
    ms = [meas(kind, si, ti) for kind in ("pose6", "position3", "gyro3",
                                          "strain6") for si, ti in points]
    ms += [meas("strain6", si, ti, masked=True) for si, ti in points]
    ms.append(meas("position3", 0.7, 0.5))  # a second factor on one cell
    # a third gyro3 factor on one knot line's 2 nodes and two more in the
    # cell of (0.7, 0.5), interleaved with other kinds: scatter rounds 0-2
    ms += [meas(kind, si, ti) for kind, si, ti in [
        ("gyro3", 0.5, 0.1), ("pose6", 0.3, 0.3), ("gyro3", 0.8, 0.2),
        ("position3", 0.2, 0.8), ("gyro3", 0.6, 0.7)]]
    factors = build_prior_factors(grid, params)
    mf = build_measurement_factors(ms, grid, params)
    assert sorted({len(f.nodes) for f in mf}) == [1, 2, 4]
    shared = Counter(f.nodes for f in mf if f.meas.kind == "gyro3")
    assert sorted(len(n) for n, c in shared.items() if c == 3) == [2, 4]
    factors = FactorSet(factors.unary, factors.binary_spatial,
                        factors.binary_temporal, factors.quaternary, mf)
    system = linearize(factors, grid)
    H_ref, g_ref, cost_ref = brute_force_normal_equations(factors, grid)
    scale = np.max(np.abs(H_ref))
    assert np.max(np.abs(dense(system) - H_ref)) < 1e-12 * scale
    assert np.max(np.abs(system.rhs_flat() - g_ref)) < 1e-12 * scale
    assert abs(system.cost - cost_ref) < 1e-9 * max(1.0, cost_ref)
    assert abs(evaluate_cost(factors, grid) - cost_ref) < 1e-9 * cost_ref


def test_one_family_factor_sets_add_up(params):
    """A FactorSet with one field set linearizes that family alone (the
    others are left unset); the parts add up to the full system."""
    s = np.linspace(0.0, 1.0, 3)
    t = np.linspace(0.0, 0.8, 3)
    states = random_states(13, 9, angle=0.15, trans=0.1, deriv=0.2)
    grid = Grid(s, t, stack_states(states[::-1]))
    full = build_prior_factors(grid, params)
    full.measurement = build_measurement_factors(
        [Measurement("position3", 0.7, 0.5, np.zeros(3), 1e-4 * np.eye(3))],
        grid, params)
    parts = [FactorSet(unary=full.unary),
             FactorSet(binary_spatial=full.binary_spatial),
             FactorSet(binary_temporal=full.binary_temporal),
             FactorSet(quaternary=full.quaternary),
             FactorSet(measurement=full.measurement)]
    assert [p.prior_count() for p in parts] == [1, 2, 2, 4, 0]
    assert FactorSet().prior_count() == 0
    H = dense(linearize(full, grid))
    H_parts = sum(dense(linearize(p, grid)) for p in parts)
    assert np.max(np.abs(H_parts - H)) < 1e-12 * np.max(np.abs(H))
    cost = sum(evaluate_cost(p, grid) for p in parts)
    assert abs(cost - evaluate_cost(full, grid)) < 1e-12 * cost


def test_on_node_position_touches_one_diagonal_block(params):
    s = np.linspace(0.0, 1.0, 2)
    t = np.linspace(0.0, 1.0, 2)
    grid = build_grid(s, t, params.prior_mean)
    prior = build_prior_factors(grid, params)
    meas = Measurement("position3", s[1], t[1], np.array([1.0, 0.0, 0.0]),
                       1e-6 * np.eye(3))
    (factor,) = build_measurement_factors([meas], grid, params)
    assert isinstance(factor, NodeMeasurementFactor)
    assert factor.nodes == (3,)
    with_meas = FactorSet(prior.unary, prior.binary_spatial,
                          prior.binary_temporal, prior.quaternary, [factor])
    D = dense(linearize(with_meas, grid)) - dense(linearize(prior, grid))
    block = D[3 * BLOCK:4 * BLOCK, 3 * BLOCK:4 * BLOCK]
    assert np.linalg.matrix_rank(block, tol=1e-9) <= 3
    D[3 * BLOCK:4 * BLOCK, 3 * BLOCK:4 * BLOCK] = 0.0
    assert np.max(np.abs(D)) < 1e-12


# factorization and solve


def test_solve_identity_system():
    system = BlockBandedSystem.zeros(2, 2)
    rng = np.random.default_rng(7)
    for i in range(4):
        add_block(system, i, i, np.eye(BLOCK))
        add_rhs(system, i, rng.standard_normal(BLOCK))
    delta = solve_factorized(factorize(system), system.rhs_flat())
    assert np.max(np.abs(delta - system.rhs_flat())) < 1e-12


@pytest.mark.parametrize("N,K", [(1, 1), (1, 5), (4, 1), (3, 4), (5, 3)])
def test_solve_matches_dense_oracle(N, K):
    system = random_banded_system(100 + 10 * N + K, N, K)
    H = dense(system)
    rhs = system.rhs_flat()
    ref = np.linalg.solve(H, rhs)
    delta = solve_factorized(factorize(system), system.rhs_flat())
    assert np.max(np.abs(delta - ref)) < 1e-8 * max(1.0, np.max(np.abs(ref)))


def test_solve_residual_contract():
    system = random_banded_system(42, N=4, K=5)
    delta = solve_factorized(factorize(system), system.rhs_flat())
    rhs = system.rhs_flat()
    resid = np.max(np.abs(matvec(system, delta) - rhs))
    assert resid < 1e-8 * (1.0 + np.max(np.abs(rhs)))


def test_factorization_reusable_across_right_hand_sides():
    system = random_banded_system(9, N=2, K=3)
    fact = factorize(system)
    H = dense(system)
    rng = np.random.default_rng(10)
    for _ in range(3):
        r = rng.standard_normal(system.dim)
        x = solve_factorized(fact, r)
        assert np.max(np.abs(H @ x - r)) < 1e-8 * (1.0 + np.max(np.abs(r)))


@pytest.mark.parametrize("N,K", [(3, 2), (2, 3)])
def test_not_positive_definite_names_block_row(N, K):
    """The failed pivot is named by its time-major node in either sweep
    direction."""
    system = BlockBandedSystem.zeros(N, K)
    for i in range(N * K):
        add_block(system, i, i, np.eye(BLOCK))
    add_block(system, 4, 4, -2.0 * np.eye(BLOCK))
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factorize(system)
    assert exc.value.node == 4
    assert "block row 4" in str(exc.value)


def test_touched_blocks_scale_linearly_in_rows():
    """The stored factor grows linearly along the longer axis: its band
    has 24(N+2) rows for 24NK columns, and its block columns hold N+2
    blocks per node."""
    N = 3
    for K in (4, 8, 16):
        fact = factorize(random_banded_system(1, N, K))
        assert fact.band.shape == (BLOCK * (N + 2), BLOCK * N * K)
        assert fact.L.size + fact.X.size == (N + 2) * N * K * BLOCK ** 2


# Gauss-Newton


def test_gn_at_prior_mean_stops_first_iteration(params):
    grid = build_grid(np.linspace(0, 1, 3), np.linspace(0, 1, 3),
                      params.prior_mean)
    post = gauss_newton(grid, build_prior_factors(grid, params), params)
    assert post.report.converged
    assert post.report.iterations == 1
    assert post.report.update_norms[0] < 1e-12


def small_scenario():
    from stgp.cli import load_config
    cfg = load_config("configs/linear.json")
    params = cfg.prior_params()
    truth = GroundTruth(cfg)
    grid = build_grid(cfg.s_knots, cfg.t_knots, params.prior_mean)
    prior = build_prior_factors(grid, params)
    mf = build_measurement_factors(generate_measurements(cfg, truth),
                                   grid, params)
    factors = FactorSet(prior.unary, prior.binary_spatial,
                        prior.binary_temporal, prior.quaternary, mf)
    return cfg, params, truth, grid, factors


def test_gn_converges_with_nonincreasing_cost():
    cfg, params, truth, grid, factors = small_scenario()
    post = gauss_newton(grid, factors, params,
                        SolverOptions(max_iters=cfg.max_iters, tol=cfg.tol))
    rep = post.report
    assert rep.converged
    assert rep.iterations <= cfg.max_iters
    trace = np.array(rep.cost_trace)
    assert np.all(np.diff(trace) <= 1e-12 * trace[:-1] + 1e-300)
    assert rep.final_cost <= rep.initial_cost
    # the fit should beat the prior mean by a wide margin at the sensed nodes
    est = post.grid.states[cfg.n_space - 1].pose.t
    ref = truth.states([cfg.s_knots[-1]], [cfg.t_knots[0]]).t[0]
    assert np.linalg.norm(est - ref) < 0.01


def test_gn_stop_bounds_next_step_in_posterior_sigma():
    """At the returned state one more Gauss-Newton step moves no node by
    more than sqrt(tol) posterior standard deviations, measured with the
    posterior's own node marginals, and the last decrement is below tol."""
    cfg, params, truth, grid, factors = small_scenario()
    post = gauss_newton(grid, factors, params,
                        SolverOptions(max_iters=cfg.max_iters, tol=cfg.tol))
    rep = post.report
    assert rep.converged and "decrement" in rep.message
    assert len(rep.decrements) == rep.iterations
    assert 0 <= rep.decrements[-1] < cfg.tol
    system = linearize(factors, post.grid)
    delta = solve_factorized(factorize(system), system.rhs_flat())
    dn = delta.reshape(-1, BLOCK, 1)
    mah = dn.swapaxes(1, 2) @ np.linalg.solve(post.node_marginals, dn)
    assert np.sqrt(np.max(mah)) <= np.sqrt(cfg.tol)
    with pytest.raises(ValueError, match="tol must be > 0"):
        SolverOptions(tol=0.0)


def test_gn_holds_one_system(identity_params):
    """Gauss-Newton keeps no system it no longer reads: on an 8x24 grid with
    position fixes pulling away from the prior mean, its traced peak stays
    below the band it keeps for the covariance plus 3.2 systems' blocks, the
    one being linearized and the linearization's per-family stacks; holding
    the previous system through the trials as well reads 3.7."""
    N, K = 8, 24
    s, t = np.linspace(0, 1, N), np.linspace(0, 1, K)
    grid = build_grid(s, t, identity_params.prior_mean)
    factors = build_prior_factors(grid, identity_params)
    factors.measurement = build_measurement_factors(
        [Measurement("position3", si, ti, [0.5 * si, 0.2, 0.1],
                     1e-4 * np.eye(3)) for si in s[1:] for ti in t[::3]],
        grid, identity_params)
    post, peak = traced_peak(gauss_newton, grid, factors, identity_params,
                             SolverOptions(max_iters=3))
    assert post.report.iterations == 3
    band_bytes = 8 * BLOCK * (N + 2) * BLOCK * N * K  # b = N + 1
    system_bytes = BlockBandedSystem.zeros(N, K).blocks.nbytes
    assert peak < band_bytes + 3.2 * system_bytes


def test_gn_update_applies_in_each_node_chart(params):
    grid = build_grid([0.0, 0.5], [0.0], params.prior_mean)
    delta = np.zeros(2 * BLOCK)
    delta[:6] = [0.01, 0, 0, 0, 0.02, 0]
    delta[BLOCK + 8] = 0.3
    moved = apply_update(grid, delta)
    for i in range(2):
        base = grid.states[i]
        step = chart_encode(moved.states[i], base.pose) \
            - chart_encode(base, base.pose)
        assert np.max(np.abs(step - delta[BLOCK * i:BLOCK * (i + 1)])) < 1e-9


def test_gn_reports_step_halving_exhaustion(identity_params, monkeypatch):
    """A solve that returns the step with the wrong sign: every Gauss-Newton
    step and every halving of it increases the cost, exhausting the line
    search."""
    import stgp.solver as solver
    solve = solver.solve_factorized
    monkeypatch.setattr(solver, "solve_factorized",
                        lambda fact, rhs: -solve(fact, rhs))
    grid = build_grid([0.0], [0.0], StateArrays.identity())
    factors = build_prior_factors(grid, identity_params)
    T = se3_exp(np.full(6, 0.3))
    factors.measurement = build_measurement_factors(
        [Measurement("pose6", 0.0, 0.0, T, np.eye(6))], grid,
        identity_params)
    opts = SolverOptions(max_iters=10, tol=1e-10)
    post = gauss_newton(grid, factors, identity_params, opts)
    assert not post.report.converged
    assert "step halving exhausted" in post.report.message
    assert post.report.halvings[-1] == solver.MAX_STEP_HALVINGS
    assert post.report.iterations == 1


def test_gn_iteration_cap_reported(identity_params):
    cfg, params, truth, grid, factors = small_scenario()
    post = gauss_newton(grid, factors, params, SolverOptions(max_iters=2))
    assert not post.report.converged
    assert post.report.iterations == 2
    assert "iteration limit" in post.report.message
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        SolverOptions(max_iters=0)


# marginal covariances from the factorization


def test_corner_cov_single_node_recovers_prior(params):
    grid = build_grid([0.0], [0.0], params.prior_mean)
    fact = factorize(linearize(build_prior_factors(grid, params), grid))
    cc = corner_covariances(fact)
    assert np.max(np.abs(cc.node_marginals[0] - params.p0)) < 1e-10


@pytest.mark.parametrize("N,K", [(2, 2), (3, 3), (1, 4), (4, 1), (5, 3),
                                 (3, 5)])
def test_corner_cov_matches_dense_inverse(N, K):
    """Every node marginal and every stencil pair, in both orientations,
    against the dense inverse; empty stencil slots hold zeros."""
    system = random_banded_system(200 + 10 * N + K, N, K)
    cc = corner_covariances(factorize(system))
    ref = np.linalg.inv(dense(system))
    tol = 1e-8 * np.max(np.abs(ref))
    for i in range(N * K):
        a = BLOCK * i
        assert np.max(np.abs(cc.node_marginals[i]
                             - ref[a:a + BLOCK, a:a + BLOCK])) < tol
    pairs = list(stencil_pairs(N, K))
    for i, j in pairs:
        if i == j:
            continue
        a, b = BLOCK * i, BLOCK * j
        assert np.max(np.abs(cc.joint([i, j])[:BLOCK, BLOCK:]
                             - ref[a:a + BLOCK, b:b + BLOCK])) < tol
        assert np.max(np.abs(cc.joint([j, i])[:BLOCK, BLOCK:]
                             - ref[b:b + BLOCK, a:a + BLOCK])) < tol
    filled = cc.sig_off.reshape(N * K * 4, -1).any(axis=1)
    assert filled.sum() == len(pairs) - N * K


def test_corner_cov_joints_are_symmetric_psd():
    """The corner joint of every cell, one (4, B) gather for all of them,
    is symmetric PSD and equals each cell's own (4,) gather."""
    system = random_banded_system(77, N=3, K=3)
    cc = corner_covariances(factorize(system))
    c00 = np.array([k * 3 + n for k in range(2) for n in range(2)])
    cells = np.stack([c00, c00 + 1, c00 + 3, c00 + 4])
    joints = cc.joint(cells)
    assert joints.shape == (4, 4 * BLOCK, 4 * BLOCK)
    for J, nodes in zip(joints, cells.T):
        assert np.array_equal(J, cc.joint(nodes))
        assert np.max(np.abs(J - J.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(J)) > -1e-10
    assert np.all(np.diagonal(cc.sig_diag, axis1=-2, axis2=-1) > 0.0)


def test_pair_block_rejects_distant_rows():
    system = random_banded_system(5, N=2, K=3)
    cc = corner_covariances(factorize(system))
    with pytest.raises(ValueError):
        cc.joint([0, 4])  # rows 0 and 2
    cc = corner_covariances(factorize(random_banded_system(6, N=3, K=2)))
    with pytest.raises(ValueError):
        cc.joint([0, 2])  # one row, two knots apart
    with pytest.raises(ValueError):
        cc.joint(np.array([[0, 1], [1, 2], [3, 3]]))  # 2 and 3 in set 1
