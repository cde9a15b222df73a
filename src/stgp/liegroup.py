"""SO(3)/SE(3) primitives used by the estimator.

Conventions, fixed once here and relied on everywhere else:

* Twists are 6-vectors ordered linear-then-angular: (vx, vy, vz, wx, wy, wz).
* Perturbations act on the left (world side): T <- exp(delta^) @ T.
* se3_exp maps a twist to a 4x4 homogeneous transform; se3_log inverts it on
  the angular range [0, pi].  At angle pi the rotation axis sign is
  ambiguous; within 2e-12 of pi we return the axis whose first component
  above 1e-12 in magnitude is positive.
* Closed-form small-angle branches switch below ANGLE_EPS; the series forms
  used there agree with the closed forms to well under 1e-12.

Where each Jacobian comes from:

* Inverse left Jacobians, from the ad polynomial.  ad = ad6(xi) satisfies
  ad^5 + 2u ad^3 + u^2 ad = 0, u = |phi|^2, so the Bernoulli series of
  J_l^{-1} is I - ad/2 + c2(u) ad^2 + c4(u) ad^4 (Barfoot & Furgale, IEEE
  T-RO 2014), and since hat(phi)^4 = -u hat(phi)^2 the SO(3) one is
  I - hat(phi)/2 + (c2 - u c4) hat(phi)^2.  30 terms of c2, c4 in u reach
  double precision for |phi| <= pi, the domain of se3_left_jacobian_inv,
  so3_left_jacobian_inv and dleft_jacobian_inv_vec; their callers stay in
  it (se3_log returns angles up to pi, charts stay below
  prior.CHART_ANGLE_LIMIT = 0.9 pi).
* The exponential and left Jacobian, from closed forms in the angle (with
  the small-angle series above): se3_exp_with_jacobian, and se3_exp built
  from it, valid at any angle, because a Gauss-Newton step decoded through
  them can turn a chart past pi.

so3_log takes the angle as atan2(|vee(R - R^T)|/2, (tr R - 1)/2) and the
vector as angle/sin(angle) * vee(R - R^T)/2.  The axis of that vee loses
relative accuracy as 1/sin(angle), so items with cos(angle) below
SO3_LOG_SYM_COS (angles above about 0.955 pi) read the axis a from the
symmetric part instead, (R + R^T)/2 - cos(angle) I = (1 - cos(angle)) a a^T:
the column of its largest diagonal entry, normalized and signed by the vee
(within 2e-12 of pi, where either sign gives R to 4e-12, by the rule above).
Both routes agree with SciPy's quaternion log to within 1e-15 per radian.
rotation_to_quaternion is the half-angle form of this one log, so a rotation
has one set of parameters and one sign rule.

All functions broadcast over leading batch dimensions; a bare (3,) / (3,3) /
(6,) / (4,4) input returns an unbatched result.
"""

from __future__ import annotations

import numpy as np
from scipy.special import zeta

ANGLE_EPS = 1e-2
# cos(angle) below which so3_log reads the axis from the symmetric part of R
# (module docstring)
SO3_LOG_SYM_COS = -0.99

_I3 = np.eye(3)
_I6 = np.eye(6)


def _jinv_series(terms: int = 30) -> np.ndarray:
    """(4, terms) coefficients in u of c2, c4, dc2/du and dc4/du."""
    # a[j] = (-1)^j B_{2j+2}/(2j+2)! by Euler's zeta formula, to a few ulps
    # (scipy.special.bernoulli is 1.7e-12 off at B_4)
    k = 2 * np.arange(1, terms + 2)
    a = 2.0 * zeta(k) / (2.0 * np.pi) ** k
    j = np.arange(terms)
    c2, c4 = (1 - j) * a[:-1], -(j + 1) * a[1:]
    dc2, dc4 = (np.append(j[1:] * c[1:], 0.0) for c in (c2, c4))
    return np.stack([c2, c4, dc2, dc4])


_JINV_SERIES = _jinv_series()
_JINV_POWERS = np.arange(_JINV_SERIES.shape[1])


def jinv_coeffs(u: np.ndarray) -> np.ndarray:
    """(4, ...) array of c2, c4, dc2/du and dc4/du at u = |phi|^2 <= pi^2.
    Each item sums its own series, so its bits do not depend on its batch."""
    u = np.asarray(u, dtype=float)[..., None, None]
    return np.moveaxis(np.sum(u ** _JINV_POWERS * _JINV_SERIES, axis=-1), -1, 0)


def _skew_scatter(n: int, blocks):
    """Flat destinations, sources and signs of the nonzeros of an n x n
    matrix made of skew blocks; each block is (row, col, first source)."""
    pattern = ((0, 1, 2, -1), (0, 2, 1, 1), (1, 0, 2, 1), (1, 2, 0, -1),
               (2, 0, 1, -1), (2, 1, 0, 1))
    dst, src, sign = zip(*[(n * (r0 + r) + c0 + c, s0 + s, g)
                           for r0, c0, s0 in blocks
                           for r, c, s, g in pattern])
    return n, np.array(dst), np.array(src), np.array(sign, dtype=float)


_HAT3 = _skew_scatter(3, [(0, 0, 0)])
_AD6 = _skew_scatter(6, [(0, 0, 3), (0, 3, 0), (3, 3, 3)])


def _scatter(v: np.ndarray, layout) -> np.ndarray:
    """The n x n skew-block matrix of each vector in v, in one scatter."""
    n, dst, src, sign = layout
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (n * n,))
    out[..., dst] = v[..., src] * sign
    return out.reshape(v.shape[:-1] + (n, n))


def hat3(v: np.ndarray) -> np.ndarray:
    """Skew matrix of a 3-vector: hat3(a) @ b == cross(a, b)."""
    return _scatter(v, _HAT3)


def _sinc_coeffs(theta: np.ndarray):
    """Return (sin t / t, (1-cos t)/t^2, (t-sin t)/t^3) with series fallback."""
    t2 = theta * theta
    small = theta < ANGLE_EPS
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                 (1.0 - np.cos(safe)) / (safe * safe))
    c = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                 (safe - np.sin(safe)) / (safe * safe * safe))
    return a, b, c


def so3_log_angle(r: np.ndarray):
    """Rotation vector of R and its angle in [0, pi]: atan2 of the vee of
    R - R^T against the trace, with the axis read from the symmetric part
    where cos(angle) < SO3_LOG_SYM_COS (module docstring)."""
    r = np.asarray(r, dtype=float)
    batch = r.shape[:-2]
    flat = r.reshape(-1, 9)
    v = 0.5 * (flat[:, [7, 2, 3]] - flat[:, [5, 6, 1]])
    s = np.sqrt(np.sum(v * v, axis=-1))
    c = 0.5 * (np.sum(flat[:, ::4], axis=-1) - 1.0)
    theta = np.arctan2(s, c)
    # angle/sin(angle); s is exactly 0 only at angle 0 or pi
    phi = (theta / np.where(s > 0.0, s, 1.0))[:, None] * v
    near_pi = c < SO3_LOG_SYM_COS
    if np.any(near_pi):
        # (R + R^T)/2 - c I = (1 - c) a a^T: its column of largest diagonal
        r, th = flat[near_pi].reshape(-1, 3, 3), theta[near_pi]
        sym = 0.5 * (r + r.swapaxes(1, 2)) - c[near_pi, None, None] * _I3
        k = np.argmax(np.diagonal(sym, axis1=1, axis2=2), axis=-1)
        col = np.take_along_axis(sym, k[:, None, None], axis=2)[..., 0]
        axis = col / np.sqrt(np.sum(col * col, axis=-1))[:, None]
        # signed by the vee, or within 2e-12 of pi, where either sign gives
        # R to 4e-12, by its first component above 1e-12 in magnitude
        first = np.argmax(np.abs(axis) > 1e-12, axis=-1)[:, None]
        sign = np.where((np.pi - th < 2e-12)[:, None],
                        np.take_along_axis(axis, first, axis=-1),
                        np.sum(axis * v[near_pi], axis=-1, keepdims=True))
        phi[near_pi] = np.where(sign < 0.0, -th[:, None], th[:, None]) * axis
    return phi.reshape(batch + (3,)), theta.reshape(batch)


def rotation_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) = (cos(angle/2), sin(angle/2)/angle phi)
    of (phi, angle) = so3_log_angle(R).  The angle is at most pi in floating
    point, so w > 0; within 2e-12 of a half turn the vector takes so3_log's
    sign rule."""
    phi, theta = so3_log_angle(r)
    half = 0.5 * np.sinc(theta / (2.0 * np.pi))  # sin(angle/2)/angle
    return np.concatenate([np.cos(0.5 * theta)[..., None],
                           half[..., None] * phi], axis=-1)


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation I + 2w hat(v) + 2 hat(v)^2 of the quaternion q = (w, v),
    which need not be unit: it is divided by its largest |component|, so its
    norm can neither overflow nor underflow, then normalized.  q must be
    finite and not all zero."""
    q = np.asarray(q, dtype=float)
    q = q / np.max(np.abs(q), axis=-1, keepdims=True)
    q = q / np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    vh = hat3(q[..., 1:])
    return _I3 + 2.0 * q[..., 0, None, None] * vh + 2.0 * (vh @ vh)


def so3_log(r: np.ndarray) -> np.ndarray:
    """Rotation vector of R, angle in [0, pi] (see so3_log_angle)."""
    return so3_log_angle(r)[0]


def so3_left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    """I - hat(phi)/2 + (c2 - u c4) hat(phi)^2, u = |phi|^2 <= pi^2."""
    phi = np.asarray(phi, dtype=float)
    u = np.sum(phi * phi, axis=-1)
    c2, c4 = jinv_coeffs(u)[:2]
    ph = hat3(phi)
    return _I3 - 0.5 * ph + (c2 - u * c4)[..., None, None] * (ph @ ph)


def pose_matrix(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The 4x4 homogeneous transforms [[R, t], [0, 1]] of rotations R and
    translations t, batched over their broadcast leading dimensions."""
    R, t = np.asarray(R, dtype=float), np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast_shapes(R.shape[:-2], t.shape[:-1]) + (4, 4))
    out[..., :3, :3] = R
    out[..., :3, 3] = t
    out[..., 3, 3] = 1.0
    return out


def se3_exp(xi: np.ndarray) -> np.ndarray:
    """exp(xi) as a 4x4 homogeneous transform."""
    return pose_matrix(*se3_exp_with_jacobian(xi)[:2])


def se3_log(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    phi = so3_log(t[..., :3, :3])
    v = np.squeeze(so3_left_jacobian_inv(phi) @ t[..., :3, 3, None], -1)
    return np.concatenate([v, phi], axis=-1)


def ad6(xi: np.ndarray) -> np.ndarray:
    """Little adjoint of a twist: ad6(a) @ b is the twist bracket [a, b]."""
    return _scatter(xi, _AD6)


def adjoint(t: np.ndarray) -> np.ndarray:
    """Big adjoint of a homogeneous transform: Ad(T) xi = (T exp(xi) T^-1)^vee."""
    t = np.asarray(t, dtype=float)
    r = t[..., :3, :3]
    out = np.zeros(t.shape[:-2] + (6, 6))
    out[..., :3, :3] = r
    out[..., :3, 3:] = hat3(t[..., :3, 3]) @ r
    out[..., 3:, 3:] = r
    return out


def _barfoot_q(rh: np.ndarray, ph: np.ndarray, pp: np.ndarray,
               theta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Top-right 3x3 block of the SE(3) left Jacobian, from hat(rho),
    hat(phi), hat(phi)^2, the angle and (t - sin t)/t^3 as (..., 1, 1)."""
    t2 = theta * theta
    small = theta < ANGLE_EPS
    safe = np.where(small, 1.0, theta)
    s2 = safe * safe  # powers as products, not np.power (SIMD-dependent)
    # 1 - cos t as 2 sin^2(t/2): cos t - 1 loses digits just above ANGLE_EPS
    b = np.where(small, 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0,
                 (t2 / 2.0 - 2.0 * np.sin(0.5 * safe) ** 2) / (s2 * s2))
    d = np.where(small, -1.0 / 120.0 + t2 / 5040.0 - t2 * t2 / 362880.0,
                 (safe - np.sin(safe) - s2 * safe / 6.0) / (s2 * s2 * safe))
    b, c = b[..., None, None], 0.5 * (b + 3.0 * d)[..., None, None]
    php = ph @ rh @ ph
    term1 = ph @ rh + rh @ ph + php
    term2 = pp @ rh + rh @ pp - 3.0 * php
    term3 = php @ ph + ph @ php
    return 0.5 * rh + a * term1 + b * term2 + c * term3


def se3_exp_with_jacobian(xi: np.ndarray):
    """exp(xi) as (R, t) and the 6x6 left Jacobian J_l(xi), from one angle,
    one set of sinc coefficients and one hat(phi); valid at any angle."""
    xi = np.asarray(xi, dtype=float)
    rho, phi = xi[..., :3], xi[..., 3:]
    theta = np.sqrt(np.sum(phi * phi, axis=-1))
    a, b, c = (x[..., None, None] for x in _sinc_coeffs(theta))
    ph = hat3(phi)
    pp = ph @ ph
    jso = _I3 + b * ph + c * pp
    jac = np.zeros(xi.shape[:-1] + (6, 6))
    jac[..., :3, :3] = jso
    jac[..., 3:, 3:] = jso
    jac[..., :3, 3:] = _barfoot_q(hat3(rho), ph, pp, theta, c)
    return (_I3 + a * ph + b * pp, np.squeeze(jso @ rho[..., None], -1),
            jac)


def jinv_poly(ad: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """J_l^{-1} = I - ad/2 + c2 ad^2 + c4 ad^4 from ad = ad6(xi) and
    coeffs = jinv_coeffs(|phi|^2)."""
    ad2 = ad @ ad
    return (_I6 - 0.5 * ad + coeffs[0][..., None, None] * ad2
            + coeffs[1][..., None, None] * (ad2 @ ad2))


def se3_left_jacobian_inv(xi: np.ndarray) -> np.ndarray:
    """J_l^{-1}(xi) for |phi| <= pi, by jinv_poly."""
    xi = np.asarray(xi, dtype=float)
    phi = xi[..., 3:]
    return jinv_poly(ad6(xi), jinv_coeffs(np.sum(phi * phi, axis=-1)))


def dleft_jacobian_inv_vec(ad: np.ndarray, phi: np.ndarray,
                           coeffs: np.ndarray, v: np.ndarray):
    """Directional-derivative matrix of J_l^{-1}(xi) @ v with respect to xi,
    and D_1 = -ad(v).

    Takes ad = ad6(xi), its angular part phi and coeffs =
    jinv_coeffs(|phi|^2), all broadcasting against v.  Differentiates
    J_l^{-1} = I - ad/2 + c2(u) ad^2 + c4(u) ad^4: D_n = d(ad^n v)/dxi =
    -ad(w_{n-1}) + ad D_{n-1} with w_n = ad^n v, plus (c2' w_2 + c4' w_4)
    (2 phi)^T on the angular columns.  For |phi| <= pi only (module
    docstring), which charts never leave, so there is no guard.
    """
    c2, c4, dc2, dc4 = coeffs
    w = [np.asarray(v, dtype=float)]
    for n in range(4):
        w.append(np.squeeze(ad @ w[n][..., None], -1))
    m = -ad6(np.stack(w[:4]))
    d = [None, m[0]]
    for n in range(1, 4):
        d.append(m[n] + ad @ d[n])
    out = -0.5 * d[1] + c2[..., None, None] * d[2] + c4[..., None, None] * d[4]
    out[..., 3:] += ((dc2[..., None] * w[2] + dc4[..., None] * w[4])[..., None]
                     * (2.0 * phi[..., None, :]))
    return out, d[1]


class Pose:
    """Rigid transform: rotation matrix R and translation t, the pose view
    of one `prior.StateArrays` item."""

    __slots__ = ("R", "t")

    def __init__(self, R: np.ndarray, t: np.ndarray):
        self.R = np.asarray(R, dtype=float)
        self.t = np.asarray(t, dtype=float)
