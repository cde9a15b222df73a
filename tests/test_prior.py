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
from stgp.liegroup import (Pose, ad6, se3_exp_with_jacobian,
                           se3_left_jacobian_inv)
from stgp.oracle import (k_matrix, phi_cell, q_binary_s, q_binary_t,
                         q_quaternary)
from stgp.prior import (ChartRangeError, NodeState, PriorParams, StateArrays,
                        apply_pair, chart_decode_batch, chart_encode,
                        integrator)
from stgp.query import bind
from stgp.solver import apply_update
from conftest import random_state, random_states, retract
from test_liegroup import (ANGLE_BUCKETS, BERNOULLI_OVER_FACT, djac_vec_series,
                           max_rel, se3_left_jacobian_inv_closed,
                           twists_at_angles)


def quad_k_matrix(d: float) -> np.ndarray:
    """integral over [0, d] of M(d-u) e2 e2^T M(d-u)^T, M(x) = [[1,x],[0,1]]."""
    out = np.zeros((2, 2))
    fns = [[lambda u: (d - u) ** 2, lambda u: (d - u)],
           [lambda u: (d - u), lambda u: 1.0]]
    for i in range(2):
        for j in range(2):
            out[i, j] = quad(fns[i][j], 0.0, d)[0]
    return out


def phi_s(ds: float) -> np.ndarray:
    """The dense spatial transition over a step ds."""
    return phi_cell(ds, 0.0)


def phi_t(dt: float) -> np.ndarray:
    """The dense temporal transition over a step dt."""
    return phi_cell(0.0, dt)


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
    # one batched pair operator call stacks the per-step maps
    steps = np.array([0.0, a, b])
    eye = np.broadcast_to(np.eye(24), (3, 24, 24))
    assert np.array_equal(apply_pair(integrator(steps), eye, 2),
                          np.stack([phi_s(d) for d in steps]))
    assert np.array_equal(apply_pair(integrator(steps), eye, 1),
                          np.stack([phi_t(d) for d in steps]))


@pytest.mark.parametrize("cols", [(), (6,), (24,)])
def test_apply_pair_matches_kron(cols):
    """The pair operator against the np.kron dense forms of phi_s, phi_t and
    of both stages' Lam and Psi from `bind`, on stacked vectors, 24x6 and
    24x24 blocks, on the doubled temporal batch of the four-corner chain,
    and on an empty batch."""
    rng = np.random.default_rng(61)
    B = 9
    ds, dt = rng.uniform(0.05, 2.0, (2, B))
    (b,) = bind([0.0, 1.0], [0.0, 2.0], rng.uniform(0.01, 0.99, B),
                rng.uniform(0.01, 1.99, B))
    lift_t = lambda g: [np.kron(m, np.eye(12)) for m in g]
    lift_s = lambda g: [np.kron(np.eye(2), np.kron(m, np.eye(6))) for m in g]
    doubled = np.concatenate([b.temporal[0], b.temporal[0]])
    cases = [(integrator(ds), 2, [phi_s(d) for d in ds]),
             (integrator(dt), 1, [phi_t(d) for d in dt]),
             (doubled, 1, lift_t(doubled))]
    cases += [(g, 1, lift_t(g)) for g in b.temporal[:2]]
    cases += [(g, 2, lift_s(g)) for g in b.spatial[:2]]
    for g, outer, dense in cases:
        x = rng.standard_normal((len(g), 24) + cols)
        ref = (np.array(dense) @ x.reshape(len(g), 24, -1)).reshape(x.shape)
        got = apply_pair(g, x, outer)
        assert got.shape == x.shape
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert apply_pair(g[:0], x[:0], outer).shape == (0, 24) + cols


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


def test_left_jacobian_inv_of_negated_twist():
    """J_l^{-1}(-xi) = J_l^{-1}(xi) + ad(xi), the J_r^{-1} that
    `encode_with_jacobians_batch` uses, over the whole chart range."""
    rng = np.random.default_rng(40)
    xi = rng.standard_normal((500, 6))
    xi[:, 3:] *= (np.linspace(0.0, P.CHART_ANGLE_LIMIT, 500)
                  / np.linalg.norm(xi[:, 3:], axis=1))[:, None]
    lhs = se3_left_jacobian_inv(-xi)
    err = np.abs(se3_left_jacobian_inv(xi) + ad6(xi) - lhs)
    assert np.max(err.max(axis=(1, 2)) / np.abs(lhs).max(axis=(1, 2))) < 1e-14


def test_encode_batch_of_one_is_bitwise():
    """Each item's chart and Jacobians come out bit for bit as they do in a
    batch of one: nothing in the kernel mixes items of the batch."""
    sa = StateArrays.from_states(random_states(41, 50, angle=2.0, trans=1.0,
                                               deriv=1.0))
    base = StateArrays.from_states(random_states(42, 50, angle=0.5))
    full = P.encode_with_jacobians_batch(sa, base.R, base.t)
    for i in range(50):
        one = P.encode_with_jacobians_batch(sa.take([i]), base.R[i:i + 1],
                                            base.t[i:i + 1])
        for a, b in zip(one, full):
            assert np.array_equal(a[0], b[i])


@pytest.mark.parametrize("bucket", [b for b in ANGLE_BUCKETS
                                    if b != "0.9pi-to-pi"])
def test_encode_jacobians_match_references(bucket):
    """The encode kernel's chart, d(chart)/d(own) and d(chart)/d(base)
    against the closed-form J_l^{-1} and the exact-coefficient series of
    d(J_l^{-1} v)/dxi, per item over the chart range.  The references take
    the kernel's own xi, so they see the twist it coordinatized."""
    rng = np.random.default_rng(43)
    n = 500
    xi = twists_at_angles(44, ANGLE_BUCKETS[bucket](rng, n))
    base = StateArrays.from_states(random_states(45, n, angle=0.5))
    Re, te, _ = se3_exp_with_jacobian(xi)
    vs = rng.standard_normal((3, n, 6))
    sa = StateArrays(Re @ base.R, te + np.squeeze(Re @ base.t[..., None], -1),
                     *vs)
    z, enc, bm = P.encode_with_jacobians_batch(sa, base.R, base.t)
    x = z[:, :6]
    assert np.max(np.abs(x - xi)) < 1e-12
    jli = se3_left_jacobian_inv_closed(x)
    jri = se3_left_jacobian_inv_closed(-x)
    ref_z, ref_enc, ref_bm = np.zeros((n, 24)), np.zeros((n, 24, 24)), \
        np.zeros((n, 24, 6))
    ref_z[:, :6], ref_enc[:, :6, :6], ref_bm[:, :6] = x, jli, -jri
    for i, v in enumerate(vs):
        r = slice(6 * i + 6, 6 * i + 12)
        d = djac_vec_series(x, v, BERNOULLI_OVER_FACT)
        ref_z[:, r] = np.squeeze(jli @ v[..., None], -1)
        ref_enc[:, r, :6] = d @ jli - 0.5 * (jli @ ad6(v))
        ref_enc[:, r, r] = jli
        ref_bm[:, r] = -(d @ jri)
    assert np.max(max_rel(z[:, None], ref_z[:, None])) < 1e-13
    assert np.max(max_rel(enc, ref_enc)) < 1e-13
    assert np.max(max_rel(bm, ref_bm)) < 1e-13
    # the blockwise inverse the query chain takes of enc
    assert np.max(max_rel(P.chart_jacobian_inv(enc), np.linalg.inv(enc))) \
        < 1e-13


def test_chart_range_boundary():
    """A relative rotation just past CHART_ANGLE_LIMIT raises, one just
    short of it does not; the error names the batch's largest angle and the
    first item past the limit."""
    limit = P.CHART_ANGLE_LIMIT
    axis = np.array([0.48, -0.6, 0.64])
    angles = np.array([0.1, limit * (1 - 1e-9), limit * (1 + 1e-9), 0.2,
                       limit * (1 + 2e-9)])
    base = Pose.exp(np.array([0.3, -0.2, 0.1, 0.2, 0.1, -0.3]))
    states = [NodeState(Pose.exp(np.concatenate([[0.1, 0.2, 0.3], a * axis]))
                        @ base, np.ones(6), np.zeros(6), np.zeros(6))
              for a in angles]
    sa = StateArrays.from_states(states)
    Rb = np.broadcast_to(base.R, (5, 3, 3))
    tb = np.broadcast_to(base.t, (5, 3))
    z = P.encode_with_jacobians_batch(sa.take([0, 1, 3]), Rb[:3], tb[:3])[0]
    assert abs(np.linalg.norm(z[1, 3:6]) - angles[1]) < 1e-12
    for want_jac in (False, True):
        with pytest.raises(ChartRangeError) as err:
            P.encode_with_jacobians_batch(sa, Rb, tb, want_jac)
        assert err.value.index == 2
        assert abs(err.value.angle - angles[4]) < 1e-12


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



def test_cell_kernel_matches_dense_transitions():
    """quaternary_batch, which applies phi_s, phi_t and phi_t phi_s through
    the pair operator, against the same encodes combined through dense phi_cell
    products: its error and Jacobians cover the transitions on vectors,
    24x24 and 24x6 blocks."""
    corners = [StateArrays.from_states(random_states(47 + i, 30, angle=0.4,
                                                     trans=0.5, deriv=1.0))
               for i in range(4)]
    rng = np.random.default_rng(51)
    ds, dt = rng.uniform(0.05, 2.0, (2, 30))
    got = P.quaternary_batch(*corners, ds, dt)
    sa00 = corners[0]
    enc = [P.encode_with_jacobians_batch(c, sa00.R, sa00.t)
           for c in corners[1:]]
    (z10, e10, b10), (z01, e01, b01), (z11, e11, b11) = enc
    ps = np.array([phi_cell(a, 0.0) for a in ds])
    pt = np.array([phi_cell(0.0, b) for b in dt])
    pc = np.array([phi_cell(a, b) for a, b in zip(ds, dt)])
    mv = lambda m, v: np.squeeze(m @ v[..., None], -1)
    j00 = pc @ P.encode_self_jacobian_batch(sa00)
    j00[:, :, :6] += b11 - ps @ b01 - pt @ b10
    ref = [z11 - mv(ps, z01) - mv(pt, z10) + mv(pc, sa00.chart_origin()),
           j00, -(pt @ e10), -(ps @ e01), e11]
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-15 * np.max(np.abs(r))

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
                        integrator(np.full(len(xa), ds)), 2, want_jac=want_jac)


def temporal(xa, xb, dt, want_jac=False):
    return kernel_terms(P.binary_batch, [xa, xb],
                        integrator(np.full(len(xa), dt)), 1, want_jac=want_jac)


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
