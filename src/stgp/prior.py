"""Space-time Gaussian-process prior over SE(3) trajectories of a rod.

Each grid node carries a pose T plus three 6-vector derivative states, all in
the left (world-frame) convention:

* strain        eps = (dT/ds) T^-1, as a twist,
* velocity      pi  = (dT/dt) T^-1,
* strain rate   psi = the mixed s,t derivative.

Local coordinates ("charts") about a base pose stack a 24-vector
z = (xi, eps~, pi~, psi~) where xi = log(T base^-1) and the derivative states
are transported by the inverse left Jacobian of xi.  Block order is
temporal-derivative-major: (0,0)=xi, (0,1)=eps~, (1,0)=pi~, (1,1)=psi~.

In these coordinates the prior is a linear two-parameter Markov model: the
transition over a grid step is a Kronecker product of 2x2 integrator blocks
M(d) = [[1, d], [0, 1]] acting on the temporal/spatial derivative pairs, and
white noise enters at the highest derivative of each chain, giving the
familiar [[d^3/3, d^2/2], [d^2/2, d]] covariance blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .liegroup import (Pose, ad6, dleft_jacobian_inv_vec, se3_exp,
                       se3_left_jacobian, se3_left_jacobian_inv, so3_log,
                       so3_left_jacobian_inv)

CHART_ANGLE_LIMIT = 0.9 * np.pi

STATE_DIM = 24
_I6 = np.eye(6)
_I24 = np.eye(24)


class ChartRangeError(ValueError):
    """Relative rotation too large to coordinatize reliably."""

    def __init__(self, angle: float, index: int = 0, detail: str = ""):
        self.angle = float(angle)
        self.index = int(index)
        msg = (f"chart out of range: relative rotation angle {self.angle:.4f} "
               f"rad exceeds limit {CHART_ANGLE_LIMIT:.4f} (batch item "
               f"{self.index})")
        if detail:
            msg += "; " + detail
        super().__init__(msg)


@dataclass
class NodeState:
    """Full state of one grid node."""

    pose: Pose
    strain: np.ndarray
    velocity: np.ndarray
    strain_velocity: np.ndarray

    def __post_init__(self):
        self.strain = np.asarray(self.strain, dtype=float).reshape(6)
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(6)
        self.strain_velocity = np.asarray(self.strain_velocity, dtype=float).reshape(6)

    @staticmethod
    def identity() -> "NodeState":
        return NodeState(Pose.identity(), np.zeros(6), np.zeros(6), np.zeros(6))

    def copy(self) -> "NodeState":
        return NodeState(self.pose.copy(), self.strain.copy(),
                         self.velocity.copy(), self.strain_velocity.copy())

    def derivative_vector(self) -> np.ndarray:
        """(0, eps, pi, psi): the chart of the state about its own pose."""
        return np.concatenate([np.zeros(6), self.strain, self.velocity,
                               self.strain_velocity])


def _as_psd6(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape == ():
        m = float(m) * _I6
    elif m.shape == (6,):
        m = np.diag(m)
    if m.shape != (6, 6):
        raise ValueError(f"{name} must be a scalar, 6-vector, or 6x6 matrix")
    if np.max(np.abs(m - m.T)) > 1e-12 * (1 + np.max(np.abs(m))):
        raise ValueError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(m)) < -1e-10 * (1 + np.max(np.abs(m))):
        raise ValueError(f"{name} must be positive semidefinite")
    return 0.5 * (m + m.T)


@dataclass
class PriorParams:
    """Power-spectral densities of the three white-noise sources plus the
    initial condition (mean state and 24x24 covariance at the first node)."""

    qs_psd: np.ndarray
    qt_psd: np.ndarray
    qst_psd: np.ndarray
    p0: np.ndarray
    prior_mean: NodeState = field(default_factory=NodeState.identity)

    def __post_init__(self):
        self.qs_psd = _as_psd6(self.qs_psd, "qs_psd")
        self.qt_psd = _as_psd6(self.qt_psd, "qt_psd")
        self.qst_psd = _as_psd6(self.qst_psd, "qst_psd")
        p0 = np.asarray(self.p0, dtype=float)
        if p0.shape == ():
            p0 = float(p0) * _I24
        elif p0.shape == (24,):
            p0 = np.diag(p0)
        if p0.shape != (24, 24):
            raise ValueError("p0 must be a scalar, 24-vector, or 24x24 matrix")
        if np.max(np.abs(p0 - p0.T)) > 1e-12 * (1 + np.max(np.abs(p0))):
            raise ValueError("p0 must be symmetric")
        self.p0 = 0.5 * (p0 + p0.T)


def k_matrix_inv(d: float) -> np.ndarray:
    d = float(d)
    if d <= 0:
        raise ValueError("step must be > 0")
    return np.array([[12.0 / d ** 3, -6.0 / d ** 2], [-6.0 / d ** 2, 4.0 / d]])


def q_binary_s_inv(ds: float, params: PriorParams) -> np.ndarray:
    return np.kron(np.eye(2), np.kron(k_matrix_inv(ds), np.linalg.inv(params.qs_psd)))


def q_binary_t_inv(dt: float, params: PriorParams) -> np.ndarray:
    return np.kron(k_matrix_inv(dt), np.kron(np.eye(2), np.linalg.inv(params.qt_psd)))


def q_quaternary_inv(ds: float, dt: float, params: PriorParams) -> np.ndarray:
    return np.kron(k_matrix_inv(dt), np.kron(k_matrix_inv(ds), np.linalg.inv(params.qst_psd)))


# ---------------------------------------------------------------------------
# batched state arrays and chart coordinates


@dataclass
class StateArrays:
    """Many node states, stacked: the grid's states, factor and query
    batches.  Indexing one item gives its `NodeState` (views, not copies)."""

    R: np.ndarray    # (B, 3, 3)
    t: np.ndarray    # (B, 3)
    eps: np.ndarray  # (B, 6)
    vel: np.ndarray  # (B, 6)
    sv: np.ndarray   # (B, 6)

    @staticmethod
    def from_states(states) -> "StateArrays":
        return StateArrays(
            R=np.stack([s.pose.R for s in states]),
            t=np.stack([s.pose.t for s in states]),
            eps=np.stack([s.strain for s in states]),
            vel=np.stack([s.velocity for s in states]),
            sv=np.stack([s.strain_velocity for s in states]),
        )

    @staticmethod
    def from_state(state: NodeState) -> "StateArrays":
        return StateArrays.from_states([state])

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i) -> NodeState:
        return NodeState(Pose(self.R[i], self.t[i]), self.eps[i],
                         self.vel[i], self.sv[i])

    def take(self, idx) -> "StateArrays":
        idx = np.asarray(idx, dtype=int)
        return StateArrays(self.R[idx], self.t[idx], self.eps[idx],
                           self.vel[idx], self.sv[idx])

    def put(self, idx, other: "StateArrays") -> None:
        """Overwrite the states at `idx` with `other`'s, in order."""
        for f in fields(self):
            getattr(self, f.name)[idx] = getattr(other, f.name)

    def chart_origin(self) -> np.ndarray:
        """(B, 24) charts of the states about their own poses."""
        return np.concatenate([np.zeros_like(self.eps), self.eps, self.vel,
                               self.sv], axis=-1)


def _relative_chart(R: np.ndarray, t: np.ndarray, Rb: np.ndarray,
                    tb: np.ndarray) -> np.ndarray:
    """xi = log(T base^-1), batched over leading dimension."""
    R_rel = R @ np.swapaxes(Rb, -1, -2)
    t_rel = t - np.squeeze(R_rel @ tb[..., None], -1)
    phi = so3_log(R_rel)
    ang = np.linalg.norm(phi, axis=-1)
    bad = ang >= CHART_ANGLE_LIMIT
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ChartRangeError(float(np.max(ang)), idx)
    v = np.squeeze(so3_left_jacobian_inv(phi) @ t_rel[..., None], -1)
    return np.concatenate([v, phi], axis=-1)


def chart_encode(x: NodeState, base: Pose) -> np.ndarray:
    """24-vector chart of x about the base pose."""
    return encode_with_jacobians_batch(StateArrays.from_state(x), base.R[None],
                                       base.t[None], want_jac=False)[0][0]


def chart_decode_batch(z: np.ndarray, Rb: np.ndarray,
                       tb: np.ndarray) -> StateArrays:
    """Inverse of the chart for stacked (B, 24) charts about base poses."""
    xi = z[..., 0:6]
    T = se3_exp(xi)
    Re = T[..., :3, :3]
    d = se3_left_jacobian(xi)[..., None, :, :] \
        @ z[..., 6:].reshape(z.shape[:-1] + (3, 6, 1))
    return StateArrays(Re @ Rb, np.squeeze(Re @ tb[..., None], -1)
                       + T[..., :3, 3], d[..., 0, :, 0], d[..., 1, :, 0],
                       d[..., 2, :, 0])


def _deriv_triplet(sa: StateArrays):
    return (sa.eps, sa.vel, sa.sv)


def encode_with_jacobians_batch(sa: StateArrays, Rb: np.ndarray, tb: np.ndarray,
                                want_jac: bool = True):
    """Charts of states about fixed base poses, plus the two Jacobians the
    factors need: d(chart)/d(own perturbation) and d(chart)/d(base pose
    perturbation).  Returns (z, enc_jac | None, base_motion | None)."""
    xi = _relative_chart(sa.R, sa.t, Rb, tb)
    jli = se3_left_jacobian_inv(xi)
    vs = np.stack(_deriv_triplet(sa), axis=-2)
    jli_s = jli[..., None, :, :]
    z = np.empty(xi.shape[:-1] + (24,))
    z[..., 0:6] = xi
    z[..., 6:] = (jli_s @ vs[..., None])[..., 0].reshape(xi.shape[:-1] + (18,))
    if not want_jac:
        return z, None, None

    B = xi.shape[:-1]
    enc = np.zeros(B + (24, 24))
    enc[..., 0:6, 0:6] = jli
    # J_l^{-1}(xi) Ad(exp xi) = J_l^{-1}(-xi): the series' one odd term flips
    jr_inv = jli + ad6(xi)
    bm = np.zeros(B + (24, 6))
    bm[..., 0:6, :] = -jr_inv
    dvs = dleft_jacobian_inv_vec(xi[..., None, :], vs)
    own = dvs @ jli_s - 0.5 * (jli_s @ ad6(vs))
    base = -(dvs @ jr_inv[..., None, :, :])
    for i in range(3):
        r = slice(6 * (i + 1), 6 * (i + 2))
        enc[..., r, 0:6] = own[..., i, :, :]
        enc[..., r, r] = jli
        bm[..., r, :] = base[..., i, :, :]
    return z, enc, bm


def encode_self_jacobian_batch(sa: StateArrays) -> np.ndarray:
    """d/d(own perturbation) of the chart of a state about its own pose."""
    B = sa.eps.shape[:-1]
    out = np.zeros(B + (24, 24))
    for i, v in enumerate(_deriv_triplet(sa)):
        r = slice(6 * (i + 1), 6 * (i + 2))
        out[..., r, 0:6] = -0.5 * ad6(v)
        out[..., r, r] = np.eye(6)
    return out


def phi_s_batch(ds: np.ndarray) -> np.ndarray:
    ds = np.asarray(ds, dtype=float)
    out = np.broadcast_to(_I24, ds.shape + (24, 24)).copy()
    for a in (0, 12):
        idx = np.arange(6)
        out[..., a + idx, a + 6 + idx] = ds[..., None]
    return out


def phi_t_batch(dt: np.ndarray) -> np.ndarray:
    dt = np.asarray(dt, dtype=float)
    out = np.broadcast_to(_I24, dt.shape + (24, 24)).copy()
    idx = np.arange(12)
    out[..., idx, 12 + idx] = dt[..., None]
    return out


# ---------------------------------------------------------------------------
# prior factor errors and Jacobians, batched over factors


def unary_batch(sa: StateArrays, params: PriorParams, want_jac: bool = True):
    base = params.prior_mean.pose
    B = sa.eps.shape[0]
    Rb = np.broadcast_to(base.R, (B, 3, 3))
    tb = np.broadcast_to(base.t, (B, 3))
    z, enc, _ = encode_with_jacobians_batch(sa, Rb, tb, want_jac)
    e = z - params.prior_mean.derivative_vector()
    return e, enc


def binary_batch(sa_a: StateArrays, sa_b: StateArrays, phi: np.ndarray,
                 want_jac: bool = True):
    """Shared core of the spatial and temporal two-node factors; `phi` is the
    (B, 24, 24) transition over the step."""
    z_b, enc_b, bm_b = encode_with_jacobians_batch(sa_b, sa_a.R, sa_a.t, want_jac)
    e = z_b - np.squeeze(phi @ sa_a.chart_origin()[..., None], -1)
    if not want_jac:
        return e, None, None
    j_a = -(phi @ encode_self_jacobian_batch(sa_a))
    j_a[..., :, 0:6] += bm_b
    return e, j_a, enc_b


def quaternary_batch(sa00: StateArrays, sa10: StateArrays, sa01: StateArrays,
                     sa11: StateArrays, ds: np.ndarray, dt: np.ndarray,
                     want_jac: bool = True):
    """Four-node cell factor.  Corner subscripts are (spatial, temporal)
    offsets within the cell; charts are taken about the (0,0) corner."""
    ps = phi_s_batch(ds)
    pt = phi_t_batch(dt)
    pc = pt @ ps
    z10, enc10, bm10 = encode_with_jacobians_batch(sa10, sa00.R, sa00.t, want_jac)
    z01, enc01, bm01 = encode_with_jacobians_batch(sa01, sa00.R, sa00.t, want_jac)
    z11, enc11, bm11 = encode_with_jacobians_batch(sa11, sa00.R, sa00.t, want_jac)
    e = (z11 - np.squeeze(ps @ z01[..., None], -1)
         - np.squeeze(pt @ z10[..., None], -1)
         + np.squeeze(pc @ sa00.chart_origin()[..., None], -1))
    if not want_jac:
        return e, None, None, None, None
    j11 = enc11
    j01 = -(ps @ enc01)
    j10 = -(pt @ enc10)
    j00 = pc @ encode_self_jacobian_batch(sa00)
    j00[..., :, 0:6] += bm11 - ps @ bm01 - pt @ bm10
    return e, j00, j10, j01, j11
