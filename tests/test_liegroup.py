"""Rotation and rigid-motion kernels against series and matrix-exponential
references."""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from scipy.linalg import expm

from stgp.liegroup import (SO3_LOG_QUAT_COS, ad6, adjoint,
                           dleft_jacobian_inv_vec, hat3, jinv_coeffs,
                           quaternion_to_rotation, rotation_to_quaternion,
                           se3_exp, se3_exp_with_jacobian,
                           se3_left_jacobian_inv, se3_log,
                           so3_left_jacobian_inv, so3_log, so3_log_angle)


def bernoulli_exact(nmax: int):
    """B_0..B_nmax (B_1 = -1/2) as fractions, from sum_k C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, nmax + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


NMAX = 80
# B_n/n!: J_l^{-1}(xi) = sum_n B_n/n! ad(xi)^n, for |phi| < 2 pi.  Exact:
# scipy.special.bernoulli is off by 1.7e-12 at B_4.
BERNOULLI_OVER_FACT = np.array([float(b / factorial(n)) for n, b in
                                enumerate(bernoulli_exact(NMAX))])
# 1/(n+1)!: J_l(xi) = sum_n ad(xi)^n / (n+1)!
INV_FACT_SHIFTED = np.array([1.0 / factorial(n + 1) for n in range(NMAX + 1)])


def vee3(m: np.ndarray) -> np.ndarray:
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def se3_hat(xi: np.ndarray) -> np.ndarray:
    out = np.zeros(xi.shape[:-1] + (4, 4))
    out[..., :3, :3] = hat3(xi[..., 3:])
    out[..., :3, 3] = xi[..., :3]
    return out


def series_power(m: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] m^n, term by term."""
    out = np.zeros(m.shape)
    term = np.broadcast_to(np.eye(m.shape[-1]), m.shape)
    for c in coeffs:
        out = out + c * term
        term = term @ m
    return out


def djac_vec_series(xi: np.ndarray, v: np.ndarray,
                    coeffs: np.ndarray) -> np.ndarray:
    """d/dxi [sum_n coeffs[n] ad(xi)^n v], term by term, by the recurrence
    D_n = -ad(w_{n-1}) + ad(xi) D_{n-1},  w_n = ad(xi)^n v."""
    p = ad6(xi)
    w = np.asarray(v, dtype=float)
    d = np.zeros(xi.shape[:-1] + (6, 6))
    acc = np.zeros_like(d)
    for c in coeffs[1:]:
        d = -ad6(w) + p @ d
        w = np.squeeze(p @ w[..., None], -1)
        acc = acc + c * d
    return acc


def dleft_jacobian_vec(xi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Directional-derivative matrix of J_l(xi) @ v with respect to xi."""
    return djac_vec_series(xi, v, INV_FACT_SHIFTED)


def se3_left_jacobian(xi: np.ndarray) -> np.ndarray:
    """The 6x6 left Jacobian of the chart decode kernel."""
    return se3_exp_with_jacobian(xi)[2]


def rotation_twist(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    return np.concatenate([np.zeros(phi.shape), phi], axis=-1)


def rotation_exp(phi) -> np.ndarray:
    """exp(phi^), the rotation block of se3_exp_with_jacobian."""
    return se3_exp_with_jacobian(rotation_twist(phi))[0]


def rotation_jacobian(phi) -> np.ndarray:
    """The SO(3) left Jacobian, the upper-left block of se3_exp_with_jacobian's
    J_l."""
    return se3_exp_with_jacobian(rotation_twist(phi))[2][..., :3, :3]


def dleft_jacobian_inv(xi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The production derivative of J_l^{-1}(xi) @ v for one v per xi."""
    phi = xi[..., 3:]
    return dleft_jacobian_inv_vec(ad6(xi), phi,
                                  jinv_coeffs(np.sum(phi * phi, axis=-1)),
                                  v)[0]


# references: the closed forms the ad polynomial replaced


def so3_left_jacobian_inv_closed(phi: np.ndarray) -> np.ndarray:
    """I - phi^/2 + (1/t^2 - cot(t/2)/(2t)) phi^2, for |phi| < 2 pi."""
    theta = np.linalg.norm(phi, axis=-1)
    t2 = theta * theta
    small = theta < 1e-2
    safe = np.where(small, 1.0, theta)
    e = np.where(small, 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
                 1.0 / (safe * safe) - 1.0 / (2.0 * safe * np.tan(0.5 * safe)))
    ph = hat3(phi)
    return np.eye(3) - 0.5 * ph + e[..., None, None] * (ph @ ph)


def se3_left_jacobian_inv_closed(xi: np.ndarray) -> np.ndarray:
    """[[J^-1, -J^-1 Q J^-1], [0, J^-1]] with the closed-form SO(3) inverse
    and Barfoot's Q."""
    jso_inv = so3_left_jacobian_inv_closed(xi[..., 3:])
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = jso_inv
    out[..., 3:, 3:] = jso_inv
    out[..., :3, 3:] = -jso_inv @ se3_left_jacobian(xi)[..., :3, 3:] @ jso_inv
    return out


def so3_log_quaternion(r: np.ndarray) -> np.ndarray:
    """Rotation vector of R through the unit quaternion, angle in [0, pi];
    at pi the first nonzero axis component is positive."""
    q = rotation_to_quaternion(r)
    w, vec = q[..., 0], q[..., 1:]
    n = np.linalg.norm(vec, axis=-1)
    theta = 2.0 * np.arctan2(n, w)
    small = n < 1e-9
    safe_n = np.where(small, 1.0, n)
    scale = np.where(small, 2.0 / np.where(w == 0, 1.0, w), theta / safe_n)
    phi = scale[..., None] * vec
    axis = vec / safe_n[..., None]
    first = np.zeros(axis.shape[:-1])
    for k in (2, 1, 0):
        first = np.where(np.abs(axis[..., k]) > 1e-12, axis[..., k], first)
    phi_pi = (theta * np.where(first < 0, -1.0, 1.0))[..., None] * axis
    return np.where((w < 1e-12)[..., None], phi_pi, phi)


def skew_reference(v: np.ndarray) -> np.ndarray:
    """hat3 one element at a time."""
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def twists_at_angles(seed: int, angles: np.ndarray) -> np.ndarray:
    """Random twists with the given angular norms (standard normal rho)."""
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((len(angles), 6))
    xi[:, 3:] *= (angles / np.linalg.norm(xi[:, 3:], axis=1))[:, None]
    return xi


def max_rel(a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per item: the largest entry error over the largest reference entry."""
    axes = (-2, -1)
    return np.max(np.abs(a - ref), axis=axes) / np.max(np.abs(ref), axis=axes)


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
    assert np.allclose(rotation_exp(np.zeros(3)), np.eye(3), atol=1e-15)


def test_so3_exp_quarter_turn_maps_x_to_y():
    r = rotation_exp(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(r @ np.array([1.0, 0, 0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_so3_exp_matches_series():
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = rng.standard_normal(3)
        phi *= 0.7 / np.linalg.norm(phi)
        assert np.allclose(rotation_exp(phi), series_exp(hat3(phi)),
                           atol=1e-14)


def test_so3_log_identity_is_zero():
    assert np.allclose(so3_log(np.eye(3)), 0.0, atol=1e-15)


def test_so3_log_roundtrip_specific():
    phi = np.array([0.1, -0.2, 0.3])
    assert np.allclose(so3_log(rotation_exp(phi)), phi, atol=1e-10)


def test_so3_log_pi_branch_sign():
    # at exactly pi the axis sign is fixed: first nonzero component positive
    out = so3_log(rotation_exp(np.array([0.0, 0.0, np.pi])))
    assert np.allclose(out, [0.0, 0.0, np.pi], atol=1e-9)
    out = so3_log(rotation_exp(np.array([0.0, 0.0, -np.pi])))
    assert np.allclose(out, [0.0, 0.0, np.pi], atol=1e-9)


def test_so3_exp_inverse_pairing():
    rng = np.random.default_rng(4)
    for _ in range(50):
        phi = rng.standard_normal(3)
        assert np.allclose(rotation_exp(phi) @ rotation_exp(-phi), np.eye(3),
                           atol=1e-12)


def test_so3_exp_determinant_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        phi = rng.standard_normal(3)
        phi *= rng.uniform(0, np.pi) / np.linalg.norm(phi)
        assert abs(np.linalg.det(rotation_exp(phi)) - 1.0) < 1e-12


def test_so3_small_angle_branch():
    for mag in (1e-12, 1e-9, 5e-9, 2e-8):
        phi = np.array([mag, -0.5 * mag, 0.25 * mag])
        r = rotation_exp(phi)
        assert np.allclose(r, series_exp(hat3(phi)), atol=1e-15)
        assert np.allclose(so3_log(r), phi, atol=1e-15)


def test_hat_vee_roundtrip():
    v = np.array([1.0, -2.0, 3.0])
    assert np.allclose(vee3(hat3(v)), v)
    assert np.allclose(hat3(v), -hat3(v).T)


# se3


def test_se3_exp_pure_translation():
    m = se3_exp(np.array([1.0, 2, 3, 0, 0, 0]))
    assert np.allclose(m[:3, :3], np.eye(3), atol=1e-15)
    assert np.allclose(m[:3, 3], [1, 2, 3], atol=1e-15)


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
    r = rotation_exp(np.array([0.3, -0.4, 0.5]))
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
        ref = series_power(ad6(xi), INV_FACT_SHIFTED)
        assert np.allclose(se3_left_jacobian(xi), ref, atol=1e-12)
    # just either side of the small-angle switch, where cos t - 1 cancels
    xi = twists_at_angles(28, np.repeat([0.0099, 0.0101, 0.02], 20))
    ref = series_power(ad6(xi), INV_FACT_SHIFTED)
    assert np.max(max_rel(se3_left_jacobian(xi), ref)) < 1e-13


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
        assert np.allclose(rotation_jacobian(phi), ref, atol=1e-12)


def test_so3_left_jacobian_inv_near_pi():
    # (1 + cos t) / sin t is 0/0 at pi
    phi = twists_at_angles(29, np.repeat([3.0, np.pi - 1e-4, np.pi - 1e-7],
                                         10))[:, 3:]
    ref = series_power(hat3(phi), BERNOULLI_OVER_FACT)
    assert np.max(max_rel(so3_left_jacobian_inv(phi), ref)) < 1e-13


ANGLE_BUCKETS = {
    "zero": lambda rng, n: np.zeros(n),
    "below-1e-6": lambda rng, n: 10.0 ** rng.uniform(-12, -6, n),
    "1e-6-to-1e-2": lambda rng, n: 10.0 ** rng.uniform(-6, -2, n),
    "1e-2-to-1": lambda rng, n: rng.uniform(1e-2, 1.0, n),
    "1-to-0.9pi": lambda rng, n: rng.uniform(1.0, 0.9 * np.pi, n),
    "0.9pi-to-pi": lambda rng, n: rng.uniform(0.9 * np.pi, np.pi, n),
}


@pytest.mark.parametrize("bucket", list(ANGLE_BUCKETS))
def test_dleft_jacobian_inv_vec_matches_series(bucket):
    rng = np.random.default_rng(30)
    xi = twists_at_angles(31, ANGLE_BUCKETS[bucket](rng, 1000))
    v = rng.standard_normal((1000, 6))
    ref = djac_vec_series(xi, v, BERNOULLI_OVER_FACT)
    assert np.max(max_rel(dleft_jacobian_inv(xi, v), ref)) < 1e-13


def test_dleft_jacobian_vec_directional():
    # D(xi, v) delta = d/da [J_l(xi + a*delta) v] at a = 0
    rng = np.random.default_rng(22)
    for xi in random_twists(23, 10, 0.9 * np.pi):
        v = rng.standard_normal(6)
        D = dleft_jacobian_vec(xi, v)
        Di = dleft_jacobian_inv(xi, v)
        for _ in range(3):
            d = rng.standard_normal(6)
            h = 1e-6
            fd = (se3_left_jacobian(xi + h * d) @ v
                  - se3_left_jacobian(xi - h * d) @ v) / (2 * h)
            assert np.max(np.abs(D @ d - fd)) < 1e-6
            fdi = (se3_left_jacobian_inv(xi + h * d) @ v
                   - se3_left_jacobian_inv(xi - h * d) @ v) / (2 * h)
            assert np.max(np.abs(Di @ d - fdi)) < 1e-6



@pytest.mark.parametrize("bucket", list(ANGLE_BUCKETS))
def test_left_jacobian_inv_matches_closed_form(bucket):
    """The ad polynomial's J_l^{-1}, J_r^{-1} = J_l^{-1} + ad and SO(3)
    J^{-1} against the closed forms it replaced, per item, up to pi."""
    rng = np.random.default_rng(32)
    xi = twists_at_angles(33, ANGLE_BUCKETS[bucket](rng, 1000))
    jli = se3_left_jacobian_inv(xi)
    assert np.max(max_rel(jli, se3_left_jacobian_inv_closed(xi))) < 1e-13
    assert np.max(max_rel(jli + ad6(xi),
                          se3_left_jacobian_inv_closed(-xi))) < 1e-13
    assert np.max(max_rel(so3_left_jacobian_inv(xi[:, 3:]),
                          so3_left_jacobian_inv_closed(xi[:, 3:]))) < 1e-13


def test_so3_log_matches_quaternion_route():
    """Within 1e-15 per radian of the quaternion log over the whole range
    and on both sides of the switch; past the switch, at pi with its sign
    rule included, it is that route bit for bit."""
    rng = np.random.default_rng(34)
    switch = np.arccos(SO3_LOG_QUAT_COS)
    angles = np.concatenate(
        [f(rng, 500) for f in ANGLE_BUCKETS.values()]
        + [switch * (1.0 + rng.uniform(-1e-3, 1e-3, 2000)),
           switch * (1.0 + np.array([-1e-12, 1e-12])), np.full(50, np.pi)])
    r = rotation_exp(twists_at_angles(35, angles)[:, 3:])
    phi, theta = so3_log_angle(r)
    ref = so3_log_quaternion(r)
    assert np.all(np.max(np.abs(phi - ref), axis=1) <= 1e-15 * theta)
    assert np.all(np.abs(theta - np.linalg.norm(ref, axis=1)) <= 1e-15 * theta)
    past = 0.5 * (np.trace(r, axis1=1, axis2=2) - 1.0) < SO3_LOG_QUAT_COS
    assert past.sum() > 1000 and (~past).sum() > 3000
    assert np.array_equal(phi[past], ref[past])
    assert np.array_equal(so3_log(r[-1]), ref[-1])


def test_skew_builders_match_elementwise_reference():
    """hat3 and ad6, one scatter each, equal the element-by-element build
    bit for bit, signed zeros included."""
    rng = np.random.default_rng(36)
    xi = rng.standard_normal((50, 6))
    xi[::7] = 0.0
    xi[3::7] = -0.0
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    assert np.array_equal(bits(hat3(xi[:, 3:])), bits(skew_reference(xi[:, 3:])))
    assert np.array_equal(bits(hat3(xi[5, :3])), bits(skew_reference(xi[5, :3])))
    ref = np.zeros((50, 6, 6))
    ref[:, :3, :3] = skew_reference(xi[:, 3:])
    ref[:, :3, 3:] = skew_reference(xi[:, :3])
    ref[:, 3:, 3:] = skew_reference(xi[:, 3:])
    assert np.array_equal(bits(ad6(xi)), bits(ref))
    assert np.array_equal(bits(ad6(xi[1])), bits(ref[1]))

# quaternions


def test_quaternion_roundtrip():
    for xi in random_twists(27, 100, np.pi * 0.999):
        r = rotation_exp(xi[3:])
        q = rotation_to_quaternion(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.allclose(quaternion_to_rotation(q), r, atol=1e-12)
