"""GP prior building blocks: transition maps, noise covariances, charts, and
the batched kernels of the four prior factor kinds.

The closed-form k_matrix is checked against direct quadrature of the defining
integral, and the cell noise covariance against a Monte-Carlo simulation of
the driving white-noise double integral.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import stgp.prior as P
from stgp.graph import Grid, build_grid
from stgp.liegroup import Pose
from stgp.oracle import (k_matrix, phi_cell, q_binary_s, q_binary_t,
                         q_quaternary)
from stgp.prior import (ChartRangeError, NodeState, PriorParams, StateArrays,
                        chart_decode_batch, chart_encode,
                        phi_s_batch as phi_s, phi_t_batch as phi_t)
from stgp.solver import apply_update
from conftest import random_state, random_states, retract


def quad_k_matrix(d: float) -> np.ndarray:
    """integral over [0, d] of M(d-u) e2 e2^T M(d-u)^T, M(x) = [[1,x],[0,1]]."""
    out = np.zeros((2, 2))
    fns = [[lambda u: (d - u) ** 2, lambda u: (d - u)],
           [lambda u: (d - u), lambda u: 1.0]]
    for i in range(2):
        for j in range(2):
            out[i, j] = quad(fns[i][j], 0.0, d)[0]
    return out


# k_matrix and transitions


def test_k_matrix_zero():
    assert np.allclose(k_matrix(0.0), 0.0)


def test_k_matrix_unit_step():
    assert np.allclose(k_matrix(1.0), [[1 / 3, 1 / 2], [1 / 2, 1.0]],
                       atol=1e-15)
    assert np.allclose(k_matrix(1.0), quad_k_matrix(1.0), atol=1e-12)


def test_k_matrix_two_step():
    assert np.allclose(k_matrix(2.0), [[8 / 3, 2.0], [2.0, 2.0]], atol=1e-14)
    assert np.allclose(k_matrix(2.0), quad_k_matrix(2.0), atol=1e-12)


def test_k_matrix_quadrature_sweep():
    for d in (0.1, 0.37, 1.9, 4.0):
        assert np.allclose(k_matrix(d), quad_k_matrix(d), atol=1e-10)
        assert np.allclose(k_matrix(d) @ P.k_matrix_inv(d), np.eye(2),
                           atol=1e-10)


def test_phi_zero_is_identity():
    assert np.allclose(phi_s(0.0), np.eye(24))
    assert np.allclose(phi_t(0.0), np.eye(24))


def test_phi_semigroup():
    for a, b in ((0.2, 0.3), (1.0, 0.5), (0.01, 2.0)):
        assert np.allclose(phi_s(a) @ phi_s(b), phi_s(a + b), atol=1e-12)
        assert np.allclose(phi_t(a) @ phi_t(b), phi_t(a + b), atol=1e-12)


def test_phi_commutation_and_cell():
    a, b = 0.2, 0.5
    assert np.allclose(phi_t(b) @ phi_s(a), phi_s(a) @ phi_t(b), atol=1e-12)
    assert np.allclose(phi_cell(a, b), phi_t(b) @ phi_s(a), atol=1e-12)
    # one batched call stacks the per-step maps
    steps = np.array([0.0, a, b])
    assert np.array_equal(phi_s(steps), np.stack([phi_s(d) for d in steps]))
    assert np.array_equal(phi_t(steps), np.stack([phi_t(d) for d in steps]))


def test_phi_cell_bilinear_taylor_step():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(24)
    ds, dt = 0.3, 0.7
    out = phi_cell(ds, dt) @ z
    xi, eps, pi, psi = z[:6], z[6:12], z[12:18], z[18:]
    assert np.allclose(out[:6], xi + ds * eps + dt * pi + ds * dt * psi,
                       atol=1e-12)


# noise covariances


def test_q_binary_shapes_and_symmetry(params):
    for q in (q_binary_s(0.3, params), q_binary_t(0.8, params),
              q_quaternary(0.3, 0.8, params)):
        assert q.shape == (24, 24)
        assert np.max(np.abs(q - q.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(q)) > -1e-10


def test_q_binary_t_top_left_block():
    params = PriorParams(qs_psd=np.eye(6), qt_psd=np.diag([1, 2, 3, 4, 5, 6.0]),
                         qst_psd=np.eye(6), p0=np.eye(24))
    q = q_binary_t(2.0, params)
    assert np.allclose(q[:6, :6], (8 / 3) * np.diag([1, 2, 3, 4, 5, 6.0]),
                       atol=1e-12)


def test_q_quaternary_identity_kronecker(identity_params):
    k1 = np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]])
    ref = np.kron(np.kron(k1, k1), np.eye(6))
    assert np.allclose(q_quaternary(1.0, 1.0, identity_params), ref,
                       atol=1e-12)


def test_q_quaternary_monte_carlo(identity_params):
    """Covariance of the discretized double white-noise integral.

    z = sum_ij M_t(dt-u_i) e2 (x) M_s(ds-v_j) e2 (x) w_ij sqrt(du dv) with
    unit-density w; its covariance is k_matrix(dt) (x) k_matrix(ds) (x) I6.
    """
    ds = dt = 1.0
    nu = nv = 20
    du, dv = dt / nu, ds / nv
    u = (np.arange(nu) + 0.5) * du
    v = (np.arange(nv) + 0.5) * dv
    A = np.stack([dt - u, np.ones(nu)])            # M_t(dt-u) e2, (2, nu)
    B = np.stack([ds - v, np.ones(nv)])            # M_s(ds-v) e2, (2, nv)
    rng = np.random.default_rng(42)
    samples, chunk = 100000, 10000
    emp = np.zeros((24, 24))
    for _ in range(samples // chunk):
        w = rng.standard_normal((chunk, nu, nv, 6)) * np.sqrt(du * dv)
        z = np.einsum("iu,jv,suvk->sijk", A, B, w).reshape(chunk, 24)
        emp += z.T @ z
    emp /= samples
    ref = q_quaternary(ds, dt, identity_params)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(emp - ref)) < 0.02 * scale


def test_q_degenerate_step_rejected(params):
    with pytest.raises(ValueError):
        q_binary_s(0.0, params)
    with pytest.raises(ValueError):
        q_binary_t(-1.0, params)
    with pytest.raises(ValueError):
        q_quaternary(0.0, 1.0, params)


# charts


def test_chart_origin():
    x = random_states(1, 1)[0]
    z = chart_encode(x, x.pose)
    assert np.allclose(z[:6], 0.0, atol=1e-12)
    assert np.allclose(z[6:12], x.strain, atol=1e-12)
    assert np.allclose(z[12:18], x.velocity, atol=1e-12)
    assert np.allclose(z[18:], x.strain_velocity, atol=1e-12)


def test_chart_roundtrip_100_states():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = random_state(rng, angle=0.8)
        base = Pose.exp(rng.standard_normal(6) * 0.3)
        y = chart_decode_batch(chart_encode(x, base)[None], base.R[None],
                               base.t[None])[0]
        assert np.max(np.abs(y.pose.matrix() - x.pose.matrix())) < 1e-9
        assert np.max(np.abs(y.strain - x.strain)) < 1e-9
        assert np.max(np.abs(y.velocity - x.velocity)) < 1e-9
        assert np.max(np.abs(y.strain_velocity - x.strain_velocity)) < 1e-9


def test_chart_decode_batch_roundtrip():
    rng = np.random.default_rng(21)
    states = random_states(22, 50, angle=2.0, trans=1.0, deriv=1.0)
    bases = [random_state(rng, angle=0.5).pose for _ in states]
    z = np.stack([chart_encode(x, b) for x, b in zip(states, bases)])
    Rb = np.stack([b.R for b in bases])
    tb = np.stack([b.t for b in bases])
    got = chart_decode_batch(z, Rb, tb)
    ref = StateArrays.from_states(states)
    for f in ("R", "t", "eps", "vel", "sv"):
        assert np.max(np.abs(getattr(got, f) - getattr(ref, f))) < 1e-9
    # a batch of one decodes bit for bit like the same row of a larger batch
    one = chart_decode_batch(z[3:4], Rb[3:4], tb[3:4])[0]
    assert np.array_equal(one.pose.R, got.R[3])
    assert np.array_equal(one.strain_velocity, got.sv[3])


def test_chart_range_error():
    x = NodeState(Pose.exp(np.array([0, 0, 0, 0, 0, 0.99 * np.pi])),
                  np.zeros(6), np.zeros(6), np.zeros(6))
    with pytest.raises(ChartRangeError):
        chart_encode(x, Pose.identity())


def test_retract_is_chart_additive():
    """`apply_update` moves every node by its 24-block of the step in the
    node's own chart."""
    rng = np.random.default_rng(3)
    xs = random_states(3, 6)
    grid = Grid([0.0, 0.5, 1.0], [0.0, 1.0], StateArrays.from_states(xs))
    delta = 0.01 * rng.standard_normal((6, 24))
    moved = apply_update(grid, delta.ravel())
    for x, y, d in zip(xs, moved.states, delta):
        ref = chart_encode(x, x.pose) + d
        assert np.max(np.abs(chart_encode(y, x.pose) - ref)) < 1e-12
        one = retract(x, d)
        assert np.array_equal(one.pose.R, y.pose.R)
        assert np.array_equal(one.strain_velocity, y.strain_velocity)


# prior errors, through the batched kernels


def kernel_terms(kernel, slots, *args, want_jac=False):
    """A batched prior kernel over per-slot lists of states (one list per
    node slot, one entry per factor): [errors] or [errors, J_0, ...]."""
    out = kernel(*[StateArrays.from_states(xs) for xs in slots], *args,
                 want_jac=want_jac)
    return [a for a in out if a is not None]


def unary(xs, params, want_jac=False):
    return kernel_terms(P.unary_batch, [xs], params, want_jac=want_jac)


def spatial(xa, xb, ds, want_jac=False):
    return kernel_terms(P.binary_batch, [xa, xb],
                        P.phi_s_batch(np.full(len(xa), ds)), want_jac=want_jac)


def temporal(xa, xb, dt, want_jac=False):
    return kernel_terms(P.binary_batch, [xa, xb],
                        P.phi_t_batch(np.full(len(xa), dt)), want_jac=want_jac)


def cell(corners, ds, dt, want_jac=False):
    B = len(corners[0])
    return kernel_terms(P.quaternary_batch, corners, np.full(B, ds),
                        np.full(B, dt), want_jac=want_jac)


def test_unary_zero_at_prior_mean(params):
    e = unary([params.prior_mean.copy()], params)[0]
    assert np.max(np.abs(e)) < 1e-14


def test_unary_pure_translation_offset(params):
    x = params.prior_mean.copy()
    x = NodeState(Pose(x.pose.R, x.pose.t + np.array([0.1, 0, 0])),
                  x.strain, x.velocity, x.strain_velocity)
    e = unary([x], params)[0][0]
    assert np.allclose(e[:6], [0.1, 0, 0, 0, 0, 0], atol=1e-12)
    assert np.allclose(e[6:], 0.0, atol=1e-12)


def test_unary_matches_encode_formula(params):
    rng = np.random.default_rng(4)
    x = random_state(rng)
    e = unary([x], params)[0][0]
    m = params.prior_mean
    ref = chart_encode(x, m.pose) - np.concatenate(
        [np.zeros(6), m.strain, m.velocity, m.strain_velocity])
    assert np.allclose(e, ref, atol=1e-12)


def continued(x, s_knots, t_knots):
    """The states of `build_grid` continuing x across the knots."""
    return list(build_grid(s_knots, t_knots, x).states)


def test_binary_spatial_zero_error_construction():
    rng = np.random.default_rng(5)
    x_a = [random_state(rng) for _ in range(10)]
    x_b = [continued(x, [0.0, 0.1], [0.0])[1] for x in x_a]
    e = spatial(x_a, x_b, 0.1)[0]
    assert e.shape == (10, 24)
    assert np.max(np.abs(e)) < 1e-12


def test_binary_identical_states_zero_strain():
    x = NodeState(Pose.exp(np.array([0.2, 0, 0, 0, 0, 0.1])), np.zeros(6),
                  np.zeros(6), np.zeros(6))
    assert np.max(np.abs(spatial([x], [x.copy()], 0.1)[0])) < 1e-14


def test_binary_strain_forces_xi_block():
    x_a = NodeState(Pose.identity(), np.array([1.0, 0, 0, 0, 0, 0]),
                    np.zeros(6), np.zeros(6))
    e = spatial([x_a], [x_a.copy()], 0.1)[0][0]
    assert np.allclose(e[:6], [-0.1, 0, 0, 0, 0, 0], atol=1e-14)
    assert np.allclose(e[6:], 0.0, atol=1e-14)


def test_binary_temporal_zero_error_construction():
    rng = np.random.default_rng(6)
    x_a = [random_state(rng) for _ in range(10)]
    x_b = [continued(x, [0.0], [0.0, 0.4])[1] for x in x_a]
    assert np.max(np.abs(temporal(x_a, x_b, 0.4)[0])) < 1e-12


def test_quaternary_zero_on_constant_corners():
    x = NodeState(Pose.exp(np.array([0.1, -0.2, 0.3, 0.1, 0, 0.2])),
                  np.zeros(6), np.zeros(6), np.zeros(6))
    e = cell([[x], [x.copy()], [x.copy()], [x.copy()]], 0.3, 0.5)[0]
    assert np.max(np.abs(e)) < 1e-12


def test_quaternary_zero_error_construction():
    rng = np.random.default_rng(7)
    corners = [[], [], [], []]
    for _ in range(10):
        # time-major: (00, 10, 01, 11)
        for slot, x in zip(corners, continued(random_state(rng), [0.0, 0.3],
                                              [0.0, 0.5])):
            slot.append(x)
    e = cell(corners, 0.3, 0.5)[0]
    assert e.shape == (10, 24)
    assert np.max(np.abs(e)) < 1e-12


def test_quaternary_linear_case_matches_raw_formula():
    # identity poses: charts are the raw stacked vectors, so the error is the
    # signed transition combination applied to them directly
    rng = np.random.default_rng(8)
    zs = 0.1 * rng.standard_normal((4, 18))
    states = [NodeState(Pose.identity(), z[:6], z[6:12], z[12:]) for z in zs]
    ds, dt = 0.3, 0.5
    e = cell([[x] for x in states], ds, dt)[0][0]
    raw = [np.concatenate([np.zeros(6), z]) for z in zs]
    ref = raw[3] - phi_s(ds) @ raw[2] - phi_t(dt) @ raw[1] \
        + phi_cell(ds, dt) @ raw[0]
    assert np.allclose(e, ref, atol=1e-12)


# analytic Jacobians of the batched kernels against central differences


def fd_jacobian(fn, states, slot, h=1e-6):
    """d fn(*states) / d(chart perturbation of states[slot]); fn maps one
    state per slot to that factor's error."""
    cols = []
    for d in range(24):
        delta = np.zeros(24)
        delta[d] = h
        sp = list(states)
        sp[slot] = retract(states[slot], delta)
        sm = list(states)
        sm[slot] = retract(states[slot], -delta)
        cols.append((fn(*sp) - fn(*sm)) / (2 * h))
    return np.stack(cols, axis=1)


def check_fd(J, J_fd, rel=1e-5):
    scale = 1.0 + np.max(np.abs(J_fd))
    assert np.max(np.abs(J - J_fd)) < rel * scale


def check_kernel_fd(terms, slots):
    """Jacobians of one batched call against per-item central differences
    of batches of one; `terms(slots, want_jac)` evaluates the kernel."""
    jacs = terms(slots, True)[1:]
    for b in range(len(slots[0])):
        items = [xs[b] for xs in slots]
        err = lambda *a: terms([[x] for x in a], False)[0][0]
        for slot, J in enumerate(jacs):
            check_fd(J[b], fd_jacobian(err, items, slot))


def test_unary_jacobian_identity_at_mean(params):
    J = unary([params.prior_mean.copy()], params, want_jac=True)[1][0]
    assert np.allclose(J, np.eye(24), atol=1e-12)


def test_binary_jacobians_linear_regime():
    x = NodeState.identity()
    _, ja, jb = spatial([x], [x.copy()], 0.25, want_jac=True)
    assert np.allclose(ja[0], -phi_s(0.25), atol=1e-12)
    assert np.allclose(jb[0], np.eye(24), atol=1e-12)


def test_unary_jacobian_fd(params):
    rng = np.random.default_rng(9)
    xs = [random_state(rng) for _ in range(10)]
    check_kernel_fd(lambda sl, jac: unary(sl[0], params, jac), [xs])


def test_binary_spatial_jacobians_fd():
    rng = np.random.default_rng(10)
    pairs = [(random_state(rng), random_state(rng)) for _ in range(10)]
    check_kernel_fd(lambda sl, jac: spatial(*sl, 0.3, jac),
                    [list(p) for p in zip(*pairs)])


def test_binary_temporal_jacobians_fd():
    rng = np.random.default_rng(11)
    pairs = [(random_state(rng), random_state(rng)) for _ in range(10)]
    check_kernel_fd(lambda sl, jac: temporal(*sl, 0.6, jac),
                    [list(p) for p in zip(*pairs)])


def test_quaternary_jacobians_fd():
    rng = np.random.default_rng(12)
    cells = [[random_state(rng) for _ in range(4)] for _ in range(5)]
    check_kernel_fd(lambda sl, jac: cell(sl, 0.3, 0.5, jac),
                    [list(c) for c in zip(*cells)])


def test_params_validation():
    with pytest.raises(ValueError):
        PriorParams(qs_psd=np.diag([1, 1, 1, 1, 1, -1.0]), qt_psd=np.eye(6),
                    qst_psd=np.eye(6), p0=np.eye(24))
    bad = np.eye(6)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        PriorParams(qs_psd=bad, qt_psd=np.eye(6), qst_psd=np.eye(6),
                    p0=np.eye(24))
