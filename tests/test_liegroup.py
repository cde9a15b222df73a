"""Rotation and rigid-motion kernels against series and matrix-exponential
references."""

import numpy as np
from scipy.linalg import expm

from stgp.liegroup import (Pose, _djac_vec_series, ad6, adjoint,
                           dleft_jacobian_inv_vec, hat3,
                           quaternion_to_rotation, rotation_to_quaternion,
                           se3_exp, se3_left_jacobian, se3_left_jacobian_inv,
                           se3_log, so3_exp, so3_left_jacobian, so3_log)


def vee3(m: np.ndarray) -> np.ndarray:
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def se3_hat(xi: np.ndarray) -> np.ndarray:
    out = np.zeros(xi.shape[:-1] + (4, 4))
    out[..., :3, :3] = hat3(xi[..., 3:])
    out[..., :3, 3] = xi[..., :3]
    return out


def dleft_jacobian_vec(xi: np.ndarray, v: np.ndarray,
                       nmax: int = 60) -> np.ndarray:
    """Directional-derivative matrix of J_l(xi) @ v with respect to xi, by
    the series that `dleft_jacobian_inv_vec` sums with 1/(n+1)! terms."""
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, nmax + 2))))
    coeffs = 1.0 / fact[1:]  # 1/(n+1)! at index n
    return _djac_vec_series(xi, v, np.concatenate(([1.0], coeffs[1:])), nmax)


def random_twists(seed: int, n: int, max_angle: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n, 6))
    ang = np.linalg.norm(xi[:, 3:], axis=1)
    scale = rng.uniform(0.01, 1.0, n) * max_angle / ang
    xi[:, 3:] *= scale[:, None]
    xi[:, :3] *= rng.uniform(0.1, 2.0, n)[:, None]
    return xi


def series_exp(m: np.ndarray, terms: int = 40) -> np.ndarray:
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for n in range(1, terms):
        term = term @ m / n
        out = out + term
    return out


# so3


def test_so3_exp_zero_is_identity():
    assert np.allclose(so3_exp(np.zeros(3)), np.eye(3), atol=1e-15)


def test_so3_exp_quarter_turn_maps_x_to_y():
    r = so3_exp(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(r @ np.array([1.0, 0, 0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_so3_exp_matches_series():
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = rng.standard_normal(3)
        phi *= 0.7 / np.linalg.norm(phi)
        assert np.allclose(so3_exp(phi), series_exp(hat3(phi)), atol=1e-14)


def test_so3_log_identity_is_zero():
    assert np.allclose(so3_log(np.eye(3)), 0.0, atol=1e-15)


def test_so3_log_roundtrip_specific():
    phi = np.array([0.1, -0.2, 0.3])
    assert np.allclose(so3_log(so3_exp(phi)), phi, atol=1e-10)


def test_so3_log_pi_branch_sign():
    # at exactly pi the axis sign is fixed: first nonzero component positive
    out = so3_log(so3_exp(np.array([0.0, 0.0, np.pi])))
    assert np.allclose(out, [0.0, 0.0, np.pi], atol=1e-9)
    out = so3_log(so3_exp(np.array([0.0, 0.0, -np.pi])))
    assert np.allclose(out, [0.0, 0.0, np.pi], atol=1e-9)


def test_so3_exp_inverse_pairing():
    rng = np.random.default_rng(4)
    for _ in range(50):
        phi = rng.standard_normal(3)
        assert np.allclose(so3_exp(phi) @ so3_exp(-phi), np.eye(3),
                           atol=1e-12)


def test_so3_exp_determinant_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        phi = rng.standard_normal(3)
        phi *= rng.uniform(0, np.pi) / np.linalg.norm(phi)
        assert abs(np.linalg.det(so3_exp(phi)) - 1.0) < 1e-12


def test_so3_small_angle_branch():
    for mag in (1e-12, 1e-9, 5e-9, 2e-8):
        phi = np.array([mag, -0.5 * mag, 0.25 * mag])
        r = so3_exp(phi)
        assert np.allclose(r, series_exp(hat3(phi)), atol=1e-15)
        assert np.allclose(so3_log(r), phi, atol=1e-15)


def test_hat_vee_roundtrip():
    v = np.array([1.0, -2.0, 3.0])
    assert np.allclose(vee3(hat3(v)), v)
    assert np.allclose(hat3(v), -hat3(v).T)


# se3


def test_se3_exp_pure_translation():
    p = Pose.from_matrix(se3_exp(np.array([1.0, 2, 3, 0, 0, 0])))
    assert np.allclose(p.R, np.eye(3), atol=1e-15)
    assert np.allclose(p.t, [1, 2, 3], atol=1e-15)


def test_se3_log_identity():
    assert np.allclose(se3_log(np.eye(4)), 0.0, atol=1e-15)


def test_se3_exp_matches_matrix_exponential():
    for xi in random_twists(11, 50, 0.9 * np.pi):
        assert np.allclose(se3_exp(xi), expm(se3_hat(xi)), atol=1e-9)


def test_se3_roundtrip_1000_twists():
    xi = random_twists(12, 1000, 0.9 * np.pi)
    for x in xi:
        back = se3_log(se3_exp(x))
        assert np.max(np.abs(back - x)) < 1e-9


def test_se3_one_parameter_subgroup():
    for xi in random_twists(13, 30, 0.5 * np.pi):
        a, b = 0.4, 0.35
        lhs = se3_exp(a * xi) @ se3_exp(b * xi)
        assert np.allclose(lhs, se3_exp((a + b) * xi), atol=1e-9)


def test_se3_small_angle_branch():
    xi = np.array([0.3, -0.1, 0.2, 1e-9, -2e-9, 5e-10])
    assert np.allclose(se3_exp(xi), expm(se3_hat(xi)), atol=1e-12)
    assert np.max(np.abs(se3_log(se3_exp(xi)) - xi)) < 1e-12


# adjoints


def test_adjoint_identity():
    assert np.allclose(adjoint(np.eye(4)), np.eye(6))


def test_adjoint_pure_rotation_block_diagonal():
    r = so3_exp(np.array([0.3, -0.4, 0.5]))
    m = np.eye(4)
    m[:3, :3] = r
    ad = adjoint(m)
    assert np.allclose(ad[:3, :3], r)
    assert np.allclose(ad[3:, 3:], r)
    assert np.allclose(ad[:3, 3:], 0.0)
    assert np.allclose(ad[3:, :3], 0.0)


def test_adjoint_conjugation_identity():
    # exp(Ad(T) xi) == T exp(xi) T^-1
    ts = random_twists(14, 40, 0.8 * np.pi)
    xs = random_twists(15, 40, 0.6 * np.pi)
    for a, b in zip(ts, xs):
        T = se3_exp(a)
        lhs = se3_exp(adjoint(T) @ b)
        rhs = T @ se3_exp(b) @ np.linalg.inv(T)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_ad6_is_bracket():
    rng = np.random.default_rng(16)
    a, b = rng.standard_normal(6), rng.standard_normal(6)
    lhs = ad6(a) @ b
    rhs = vee_se3(se3_hat(a) @ se3_hat(b) - se3_hat(b) @ se3_hat(a))
    assert np.allclose(lhs, rhs, atol=1e-12)


def vee_se3(m: np.ndarray) -> np.ndarray:
    return np.concatenate([m[:3, 3], vee3(m[:3, :3])])


# left Jacobians


def test_left_jacobian_zero_is_identity():
    assert np.allclose(se3_left_jacobian(np.zeros(6)), np.eye(6))
    assert np.allclose(se3_left_jacobian_inv(np.zeros(6)), np.eye(6))


def test_left_jacobian_matches_series():
    # J_l(xi) = sum_n ad(xi)^n / (n+1)!
    for xi in random_twists(17, 30, 0.8 * np.pi):
        ref = np.zeros((6, 6))
        term = np.eye(6)
        fact = 1.0
        for n in range(60):
            fact *= (n + 1)
            ref += term / fact
            term = term @ ad6(xi)
        assert np.allclose(se3_left_jacobian(xi), ref, atol=1e-12)


def test_left_jacobian_inverse_pairing():
    for xi in random_twists(18, 100, 0.9 * np.pi):
        prod = se3_left_jacobian(xi) @ se3_left_jacobian_inv(xi)
        assert np.max(np.abs(prod - np.eye(6))) < 1e-9


def test_left_jacobian_differential_property():
    # d/da exp(xi + a*d) at 0, pulled to a left increment, is J_l(xi) d
    rng = np.random.default_rng(19)
    for xi in random_twists(20, 10, 0.6 * np.pi):
        d = rng.standard_normal(6)
        h = 1e-6
        Tp = se3_exp(xi + h * d)
        Tm = se3_exp(xi - h * d)
        inc = se3_log(Tp @ np.linalg.inv(Tm)) / (2 * h)
        assert np.max(np.abs(inc - se3_left_jacobian(xi) @ d)) < 1e-6


def test_so3_left_jacobian_series():
    rng = np.random.default_rng(21)
    for _ in range(20):
        phi = rng.standard_normal(3)
        ref = np.zeros((3, 3))
        term = np.eye(3)
        fact = 1.0
        for n in range(40):
            fact *= (n + 1)
            ref += term / fact
            term = term @ hat3(phi)
        assert np.allclose(so3_left_jacobian(phi), ref, atol=1e-12)


def test_dleft_jacobian_vec_directional():
    # D(xi, v) delta = d/da [J_l(xi + a*delta) v] at a = 0
    rng = np.random.default_rng(22)
    for xi in random_twists(23, 10, 0.6 * np.pi):
        v = rng.standard_normal(6)
        D = dleft_jacobian_vec(xi, v)
        Di = dleft_jacobian_inv_vec(xi, v)
        for _ in range(3):
            d = rng.standard_normal(6)
            h = 1e-6
            fd = (se3_left_jacobian(xi + h * d) @ v
                  - se3_left_jacobian(xi - h * d) @ v) / (2 * h)
            assert np.max(np.abs(D @ d - fd)) < 1e-6
            fdi = (se3_left_jacobian_inv(xi + h * d) @ v
                   - se3_left_jacobian_inv(xi - h * d) @ v) / (2 * h)
            assert np.max(np.abs(Di @ d - fdi)) < 1e-6


# pose type and quaternions


def test_pose_compose_inverse():
    rng = np.random.default_rng(24)
    for xi in random_twists(25, 20, 0.8 * np.pi):
        p = Pose.exp(xi)
        q = Pose.exp(rng.standard_normal(6) * 0.3)
        assert np.allclose(((p @ q) @ q.inverse()).matrix(), p.matrix(),
                           atol=1e-12)
        assert np.allclose(p.exp(p.log()).matrix(), p.matrix(), atol=1e-9)


def test_pose_adjoint_matches_matrix_adjoint():
    for xi in random_twists(26, 10, 0.7 * np.pi):
        p = Pose.exp(xi)
        assert np.allclose(p.adjoint(), adjoint(p.matrix()), atol=1e-12)


def test_quaternion_roundtrip():
    for xi in random_twists(27, 100, np.pi * 0.999):
        r = so3_exp(xi[3:])
        q = rotation_to_quaternion(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.allclose(quaternion_to_rotation(q), r, atol=1e-12)
