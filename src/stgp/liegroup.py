"""SO(3)/SE(3) primitives used by the estimator.

Conventions, fixed once here and relied on everywhere else:

* Twists are 6-vectors ordered linear-then-angular: (vx, vy, vz, wx, wy, wz).
* Perturbations act on the left (world side): T <- exp(delta^) @ T.
* se3_exp maps a twist to a 4x4 homogeneous transform; se3_log inverts it on
  the angular range [0, pi].  At angle exactly pi the rotation axis sign is
  ambiguous; we return the axis whose first nonzero component is positive.
* Closed-form small-angle branches switch below ANGLE_EPS; the series forms
  used there agree with the closed forms to well under 1e-12.

All functions broadcast over leading batch dimensions; a bare (3,) / (3,3) /
(6,) / (4,4) input returns an unbatched result.
"""

from __future__ import annotations

import numpy as np
from scipy.special import bernoulli

ANGLE_EPS = 1e-2
# Angular norm above which left-Jacobian inverses are refused (singular at 2*pi).
JACOBIAN_INV_ANGLE_LIMIT = 2.0 * np.pi - 1e-6

_BERNOULLI_OVER_FACT = None


def _bernoulli_over_factorial(nmax: int) -> np.ndarray:
    global _BERNOULLI_OVER_FACT
    if _BERNOULLI_OVER_FACT is None or len(_BERNOULLI_OVER_FACT) <= nmax:
        b = bernoulli(nmax)
        fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, nmax + 1))))
        _BERNOULLI_OVER_FACT = b / fact
    return _BERNOULLI_OVER_FACT


def hat3(v: np.ndarray) -> np.ndarray:
    """Skew matrix of a 3-vector: hat3(a) @ b == cross(a, b)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def _sinc_coeffs(theta: np.ndarray):
    """Return (sin t / t, (1-cos t)/t^2, (t-sin t)/t^3) with series fallback."""
    t2 = theta * theta
    small = theta < ANGLE_EPS
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                 (1.0 - np.cos(safe)) / (safe * safe))
    c = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                 (safe - np.sin(safe)) / (safe ** 3))
    return a, b, c


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues formula."""
    phi = np.asarray(phi, dtype=float)
    theta = np.linalg.norm(phi, axis=-1)
    a, b, _ = _sinc_coeffs(theta)
    ph = hat3(phi)
    eye = np.broadcast_to(np.eye(3), ph.shape)
    return eye + a[..., None, None] * ph + b[..., None, None] * (ph @ ph)


def rotation_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0, via Shepperd's pivoting."""
    r = np.asarray(r, dtype=float)
    batch = r.shape[:-2]
    tr = np.trace(r, axis1=-2, axis2=-1)
    m = np.stack([tr, r[..., 0, 0], r[..., 1, 1], r[..., 2, 2]], axis=-1)
    pivot = np.argmax(m, axis=-1)

    def g(i, j):
        return r[..., i, j]

    s0 = np.sqrt(np.maximum(1.0 + tr, 1e-30))
    q0 = np.stack([s0 / 2, (g(2, 1) - g(1, 2)) / (2 * s0),
                   (g(0, 2) - g(2, 0)) / (2 * s0),
                   (g(1, 0) - g(0, 1)) / (2 * s0)], axis=-1)
    s1 = np.sqrt(np.maximum(1.0 + g(0, 0) - g(1, 1) - g(2, 2), 1e-30))
    q1 = np.stack([(g(2, 1) - g(1, 2)) / (2 * s1), s1 / 2,
                   (g(0, 1) + g(1, 0)) / (2 * s1),
                   (g(0, 2) + g(2, 0)) / (2 * s1)], axis=-1)
    s2 = np.sqrt(np.maximum(1.0 - g(0, 0) + g(1, 1) - g(2, 2), 1e-30))
    q2 = np.stack([(g(0, 2) - g(2, 0)) / (2 * s2),
                   (g(0, 1) + g(1, 0)) / (2 * s2), s2 / 2,
                   (g(1, 2) + g(2, 1)) / (2 * s2)], axis=-1)
    s3 = np.sqrt(np.maximum(1.0 - g(0, 0) - g(1, 1) + g(2, 2), 1e-30))
    q3 = np.stack([(g(1, 0) - g(0, 1)) / (2 * s3),
                   (g(0, 2) + g(2, 0)) / (2 * s3),
                   (g(1, 2) + g(2, 1)) / (2 * s3), s3 / 2], axis=-1)

    cands = np.stack([q0, q1, q2, q3], axis=0)
    idx = np.broadcast_to(pivot, batch)[None, ..., None]
    q = np.take_along_axis(cands, idx, axis=0)[0]
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    flip = np.signbit(q[..., 0])
    q = np.where(flip[..., None], -q, q)
    return q


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1 - 2 * (y * y + z * z)
    out[..., 0, 1] = 2 * (x * y - w * z)
    out[..., 0, 2] = 2 * (x * z + w * y)
    out[..., 1, 0] = 2 * (x * y + w * z)
    out[..., 1, 1] = 1 - 2 * (x * x + z * z)
    out[..., 1, 2] = 2 * (y * z - w * x)
    out[..., 2, 0] = 2 * (x * z - w * y)
    out[..., 2, 1] = 2 * (y * z + w * x)
    out[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def so3_log(r: np.ndarray) -> np.ndarray:
    """Rotation vector of R, angle in [0, pi].

    Goes through the quaternion so the axis stays accurate arbitrarily close
    to pi.  In the exact-pi branch (where +/-axis give the same rotation) the
    sign is canonicalized: first nonzero axis component positive.
    """
    r = np.asarray(r, dtype=float)
    q = rotation_to_quaternion(r)
    w = q[..., 0]
    vec = q[..., 1:]
    n = np.linalg.norm(vec, axis=-1)
    theta = 2.0 * np.arctan2(n, w)
    small = n < 1e-9
    safe_n = np.where(small, 1.0, n)
    # theta/n, with theta ~ 2n/w for tiny n
    scale = np.where(small, 2.0 / np.where(w == 0, 1.0, w), theta / safe_n)
    phi = scale[..., None] * vec

    at_pi = w < 1e-12
    if np.any(at_pi):
        axis = vec / safe_n[..., None]
        first = np.zeros(axis.shape[:-1])
        sign = np.ones(axis.shape[:-1])
        for k in (2, 1, 0):
            comp = axis[..., k]
            use = np.abs(comp) > 1e-12
            first = np.where(use, comp, first)
        sign = np.where(first < 0, -1.0, 1.0)
        phi_pi = (theta * sign)[..., None] * axis
        phi = np.where(at_pi[..., None], phi_pi, phi)
    return phi


def so3_left_jacobian(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    theta = np.linalg.norm(phi, axis=-1)
    _, b, c = _sinc_coeffs(theta)
    ph = hat3(phi)
    eye = np.broadcast_to(np.eye(3), ph.shape)
    return eye + b[..., None, None] * ph + c[..., None, None] * (ph @ ph)


def so3_left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    theta = np.linalg.norm(phi, axis=-1)
    if np.any(theta >= JACOBIAN_INV_ANGLE_LIMIT):
        raise ValueError("left-Jacobian inverse undefined: angular norm too close to 2*pi")
    t2 = theta * theta
    small = theta < ANGLE_EPS
    safe = np.where(small, 1.0, theta)
    e = np.where(small, 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
                 (1.0 / (safe * safe)) - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe)))
    ph = hat3(phi)
    eye = np.broadcast_to(np.eye(3), ph.shape)
    return eye - 0.5 * ph + e[..., None, None] * (ph @ ph)


def se3_exp(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape[:-1] + (4, 4))
    out[..., :3, :3] = so3_exp(xi[..., 3:])
    out[..., :3, 3] = np.squeeze(so3_left_jacobian(xi[..., 3:]) @ xi[..., :3, None], -1)
    out[..., 3, 3] = 1.0
    return out


def se3_log(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    phi = so3_log(t[..., :3, :3])
    v = np.squeeze(so3_left_jacobian_inv(phi) @ t[..., :3, 3, None], -1)
    return np.concatenate([v, phi], axis=-1)


def ad6(xi: np.ndarray) -> np.ndarray:
    """Little adjoint of a twist: ad6(a) @ b is the twist bracket [a, b]."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape[:-1] + (6, 6))
    wh = hat3(xi[..., 3:])
    out[..., :3, :3] = wh
    out[..., :3, 3:] = hat3(xi[..., :3])
    out[..., 3:, 3:] = wh
    return out


def adjoint(t: np.ndarray) -> np.ndarray:
    """Big adjoint of a homogeneous transform: Ad(T) xi = (T exp(xi) T^-1)^vee."""
    t = np.asarray(t, dtype=float)
    r = t[..., :3, :3]
    out = np.zeros(t.shape[:-2] + (6, 6))
    out[..., :3, :3] = r
    out[..., :3, 3:] = hat3(t[..., :3, 3]) @ r
    out[..., 3:, 3:] = r
    return out


def _barfoot_q(rho: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Top-right 3x3 block of the SE(3) left Jacobian."""
    theta = np.linalg.norm(phi, axis=-1)
    t2 = theta * theta
    small = theta < ANGLE_EPS
    safe = np.where(small, 1.0, theta)
    sin_t, cos_t = np.sin(safe), np.cos(safe)
    a = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                 (safe - sin_t) / safe ** 3)
    b = np.where(small, 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0,
                 (t2 / 2.0 + cos_t - 1.0) / safe ** 4)
    d = np.where(small, -1.0 / 120.0 + t2 / 5040.0 - t2 * t2 / 362880.0,
                 (safe - sin_t - safe ** 3 / 6.0) / safe ** 5)
    c = 0.5 * (b + 3.0 * d)
    rh, ph = hat3(rho), hat3(phi)
    php = ph @ rh @ ph
    pp = ph @ ph
    term1 = ph @ rh + rh @ ph + php
    term2 = pp @ rh + rh @ pp - 3.0 * php
    term3 = php @ ph + ph @ php
    return (0.5 * rh + a[..., None, None] * term1 + b[..., None, None] * term2
            + c[..., None, None] * term3)


def se3_left_jacobian(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    jso = so3_left_jacobian(xi[..., 3:])
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = jso
    out[..., 3:, 3:] = jso
    out[..., :3, 3:] = _barfoot_q(xi[..., :3], xi[..., 3:])
    return out


def se3_left_jacobian_inv(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    jso_inv = so3_left_jacobian_inv(xi[..., 3:])
    q = _barfoot_q(xi[..., :3], xi[..., 3:])
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = jso_inv
    out[..., 3:, 3:] = jso_inv
    out[..., :3, 3:] = -jso_inv @ q @ jso_inv
    return out


def _djac_vec_series(xi: np.ndarray, v: np.ndarray, coeffs: np.ndarray,
                     nmax: int) -> np.ndarray:
    """d/dxi [sum_n coeffs[n] ad(xi)^n v], by the linear recurrence
    D_n = -ad(w_{n-1}) + ad(xi) D_{n-1},  w_n = ad(xi)^n v."""
    xi = np.asarray(xi, dtype=float)
    v = np.asarray(v, dtype=float)
    p = ad6(xi)
    w = v.copy()
    d = np.zeros(xi.shape[:-1] + (6, 6))
    acc = np.zeros_like(d)
    tiny_run = 0
    for n in range(1, nmax + 1):
        d = -ad6(w) + p @ d
        w = np.squeeze(p @ w[..., None], -1)
        term = coeffs[n] * d
        acc = acc + term
        # coefficient sequences can have isolated zeros, so demand two
        # consecutive negligible terms before stopping
        if np.max(np.abs(term)) < 1e-17 * (1.0 + np.max(np.abs(acc))):
            tiny_run += 1
            if tiny_run >= 2:
                break
        else:
            tiny_run = 0
    return acc


def dleft_jacobian_inv_vec(xi: np.ndarray, v: np.ndarray, nmax: int = 60) -> np.ndarray:
    """Directional-derivative matrix of J_l^{-1}(xi) @ v with respect to xi."""
    coeffs = _bernoulli_over_factorial(nmax + 1)
    return _djac_vec_series(xi, v, coeffs, nmax)


class Pose:
    """Rigid transform: rotation matrix R and translation t."""

    __slots__ = ("R", "t")

    def __init__(self, R: np.ndarray, t: np.ndarray):
        self.R = np.asarray(R, dtype=float)
        self.t = np.asarray(t, dtype=float)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Pose":
        m = np.asarray(m, dtype=float)
        return Pose(m[:3, :3].copy(), m[:3, 3].copy())

    @staticmethod
    def exp(xi: np.ndarray) -> "Pose":
        return Pose.from_matrix(se3_exp(xi))

    def log(self) -> np.ndarray:
        return se3_log(self.matrix())

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.R
        m[:3, 3] = self.t
        return m

    def inverse(self) -> "Pose":
        return Pose(self.R.T, -self.R.T @ self.t)

    def __matmul__(self, other: "Pose") -> "Pose":
        return Pose(self.R @ other.R, self.R @ other.t + self.t)

    def adjoint(self) -> np.ndarray:
        return adjoint(self.matrix())

    def copy(self) -> "Pose":
        return Pose(self.R.copy(), self.t.copy())

    def __repr__(self) -> str:
        return f"Pose(t={np.array2string(self.t, precision=4)})"
