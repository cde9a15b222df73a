"""Ground-truth generator for a planar-bending continuum robot plus noisy
asynchronous measurement synthesis.

The rod is inextensible with body strain (1, 0, 0, 0, 0, kappa(s, t)) and a
curvature field kappa = kappa0 + kappa_a * sin(2*pi*t/period) * (s/L), so it
bends in the xy plane and its tangent angle is a closed form in (s, t).
`GroundTruth.states` evaluates a batch of points from that closed form: the
rotation directly, the position by one Gauss-Legendre quadrature along the
arclength, and velocity, strain and strain rate as exact derivatives.
`generate_measurements` makes one such call for all of a scenario's sensor
samples and adds noise through its own forward model, independent of
`sensors.sensor_model`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .liegroup import adjoint, pose_matrix, se3_exp
from .prior import PriorParams, StateArrays
from .sensors import DIMS, KINDS, Measurement, measurement_stack

# one 32-node Gauss-Legendre panel on [0, 1]; a panel covers at most
# _PANEL_TURNING rad of the rod's turning, and at most _MAX_PANELS of them
# bound the cost of a point
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)
_NODES, _WEIGHTS = 0.5 * (_NODES + 1.0), 0.5 * _WEIGHTS
_PANEL_TURNING = 20.0
_MAX_PANELS = 1000

_RANGE_TOL = 1e-9


def _require_int(name: str, value, low: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def _require_finite(name: str, value) -> None:
    """A real number, or an array of them, every entry finite."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf" or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite and real, got {value!r}")


@dataclass
class SensorSpec:
    """One sensor family: a kind, a noise level, and a sample schedule.

    Rate-based sensors sample every location at t in {0, 1/rate, ...} up to
    the scenario duration (ends inclusive).  `locations` is a list of
    arclengths or "knots", the grid's arclength knots.  Explicit `samples`,
    (s, t) pairs, bypass the schedule.  A strain6 `mask` holds six booleans,
    the measured components.
    """

    kind: str
    std: float
    rate: Optional[float] = None
    locations: object = None
    samples: Optional[List[Tuple[float, float]]] = None
    mask: Optional[Sequence[bool]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sensor kind {self.kind!r}")
        _require_finite("sensor std", self.std)
        _require_finite("sensor variance", float(self.std) * float(self.std))
        for name in ("rate", "samples", "locations"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                _require_finite(f"sensor {name}", value)
        if self.std < 0:
            raise ValueError("sensor std must be >= 0")
        if self.samples is not None and np.shape(self.samples) != (0,) \
                and np.shape(self.samples)[1:] != (2,):
            raise ValueError("sensor samples must be (s, t) pairs")
        if isinstance(self.locations, str) and self.locations != "knots" \
                or np.ndim(self.locations) > 1:
            raise ValueError('sensor locations must be "knots" or arclengths')
        if self.samples is None:
            if self.rate is None or self.rate <= 0:
                raise ValueError(f"{self.kind} sensor needs rate > 0")
            if self.locations is None:
                raise ValueError(f"{self.kind} sensor needs locations")
        if self.mask is not None and self.kind != "strain6":
            raise ValueError("mask applies to strain6 sensors only")
        if self.mask is not None and (np.shape(self.mask) != (6,) or not all(
                isinstance(b, (bool, np.bool_)) for b in self.mask)):
            raise ValueError("strain6 mask must hold 6 booleans")

    def sample_points(self, config: "ScenarioConfig"):
        if self.samples is not None:
            return [(float(s), float(t)) for s, t in self.samples]
        n = int(config.duration * self.rate + 1e-9)
        times = np.arange(n + 1) / self.rate
        locs = config.s_knots if isinstance(self.locations, str) \
            else np.atleast_1d(np.asarray(self.locations, dtype=float))
        return [(float(s), float(t)) for s in locs for t in times]


@dataclass
class ScenarioConfig:
    """Everything one experiment needs: robot, grid, prior, sensors, solver.

    `tol` (> 0) ends Gauss-Newton once the decrement delta^T H delta, the
    cost decrease the linearized step predicts, falls below it, in
    chi-square units: the returned state is then within sqrt(tol)
    posterior standard deviations of the next iterate at every node.  A
    step that reuses an earlier factorization (a decrement
    delta^T H_old delta) never ends the run; the stop is checked with H
    factorized at the returned state.
    """

    length: float
    n_space: int
    n_time: int
    duration: float
    kappa0: float = 1.0
    kappa_a: float = 0.5
    period: float = 2.0
    qs_diag: np.ndarray = field(default_factory=lambda: np.ones(6))
    qt_diag: np.ndarray = field(default_factory=lambda: np.ones(6))
    qst_diag: np.ndarray = field(default_factory=lambda: np.ones(6))
    p0_diag: np.ndarray = field(default_factory=lambda: np.full(24, 1.0))
    sensors: List[SensorSpec] = field(default_factory=list)
    seed: int = 0
    max_iters: int = 50
    tol: float = 1e-8

    def __post_init__(self):
        self.qs_diag = np.asarray(self.qs_diag, dtype=float).reshape(6)
        self.qt_diag = np.asarray(self.qt_diag, dtype=float).reshape(6)
        self.qst_diag = np.asarray(self.qst_diag, dtype=float).reshape(6)
        self.p0_diag = np.asarray(self.p0_diag, dtype=float).reshape(24)
        for name, low in (("n_space", 1), ("n_time", 1), ("seed", 0),
                          ("max_iters", 1)):
            _require_int(name, getattr(self, name), low)
        for name in ("length", "duration", "kappa0", "kappa_a", "period",
                     "tol", "qs_diag", "qt_diag", "qst_diag", "p0_diag"):
            _require_finite(name, getattr(self, name))
        if self.length <= 0:
            raise ValueError("length must be > 0")
        if self.duration < 0 or (self.n_time > 1 and self.duration <= 0):
            raise ValueError("duration must be positive for K > 1")
        if self.period <= 0:
            raise ValueError("period must be > 0")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if np.any(self.qs_diag <= 0) or np.any(self.qt_diag <= 0) \
                or np.any(self.qst_diag <= 0) or np.any(self.p0_diag <= 0):
            raise ValueError("prior PSD diagonals must be positive")

    @property
    def s_knots(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_space)

    @property
    def t_knots(self) -> np.ndarray:
        return np.linspace(0.0, self.duration, self.n_time)

    def prior_params(self) -> PriorParams:
        mean = StateArrays.identity()
        mean.eps[0, 0] = 1.0
        return PriorParams(qs_psd=np.diag(self.qs_diag),
                           qt_psd=np.diag(self.qt_diag),
                           qst_psd=np.diag(self.qst_diag),
                           p0=np.diag(self.p0_diag), prior_mean=mean)


class GroundTruth:
    """Continuous ground-truth fields of one scenario, in closed form.

    The tangent has turned by theta = kappa0 s + a(t) s^2 / (2 L) at
    arclength s, a(t) = kappa_a sin(2 pi t / period).  With xy vectors as
    complex numbers the pose is (Rz(theta), p = int_0^s e^(i theta) du), the
    world strain (e^(i theta) - i kappa p, kappa) and the velocity (pdot -
    i theta_t p, theta_t); rates are exact time derivatives.  p and pdot
    are 32-node Gauss-Legendre sums over [0, s], one panel per 20 rad of the
    total turning (|kappa0| + |kappa_a|) L, within about 1e-15 of the
    integrals.  Each point sums its own nodes, so its bits do not depend on
    its batch.  A scenario of duration 0 does not move: its rates are zero.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        turning = (abs(config.kappa0) + abs(config.kappa_a)) * config.length
        if not turning <= _MAX_PANELS * _PANEL_TURNING:
            raise ValueError(f"the rod turns by up to {turning:g} rad, more "
                             f"than the {_MAX_PANELS * _PANEL_TURNING:g} rad "
                             "the simulator integrates")
        self._panels = max(1, math.ceil(turning / _PANEL_TURNING))

    def states(self, s, t) -> StateArrays:
        """States at the points (s[i], t[i]), s within [0, length] and t
        within [0, duration] (each to a relative 1e-9, then clipped).
        Raises ValueError where a state entry is not finite."""
        cfg = self.config
        L, D, k0, n = cfg.length, cfg.duration, cfg.kappa0, self._panels
        s = np.asarray(s, dtype=float).reshape(-1)
        t = np.asarray(t, dtype=float).reshape(-1)
        for name, x, end in (("arclength", s, L), ("time", t, D)):
            if np.any(x < -_RANGE_TOL * end) \
                    or np.any(x > end * (1 + _RANGE_TOL)):
                raise ValueError(f"{name} out of range [0, {end}]")
        x, t = np.clip(s, 0.0, L) / L, np.clip(t, 0.0, D)

        def tangent(y, a, da):
            """e^(i theta) and theta_t at normalized arclengths y = s / L."""
            return (np.exp(1j * L * y * (k0 + 0.5 * a * y)),
                    0.5 * L * da * y * y)

        with np.errstate(all="ignore"):
            w = 2.0 * math.pi / cfg.period
            a = cfg.kappa_a * np.sin(w * t)
            da = cfg.kappa_a * w * np.cos(w * t) if D > 0 else 0.0 * t
            p = dp = 0j
            for k in range(n):
                e, dth = tangent(x[:, None] * ((k + _NODES) / n),
                                 a[:, None], da[:, None])
                p = p + (_WEIGHTS * e).sum(-1)
                dp = dp + (_WEIGHTS * dth * e).sum(-1)
            p, dp = L * x / n * p, 1j * (L * x / n) * dp
            e, dth = tangent(x, a, da)
            kappa, dk = k0 + a * x, da * x
            eps, vel = e - 1j * kappa * p, dp - 1j * dth * p
            sv = 1j * (dth * e - dk * p - kappa * dp)
            zero, one = np.zeros_like(x), np.ones_like(x)
            fields = (np.stack([e.real, -e.imag, zero, e.imag, e.real, zero,
                                zero, zero, one], -1).reshape(-1, 3, 3),
                      np.stack([p.real, p.imag, zero], -1),
                      *(np.stack([v.real, v.imag, zero, zero, zero, r], -1)
                        for v, r in ((eps, kappa), (vel, dth), (sv, dk))))
        if not all(np.isfinite(f).all() for f in fields):
            raise ValueError("ground truth not finite: the scenario's "
                             "curvature or its rate overflows")
        return StateArrays(*fields)

    def grid_states(self) -> StateArrays:
        """States at the grid knots, flat time-major order (k*N + n)."""
        cfg = self.config
        return self.states(np.tile(cfg.s_knots, cfg.n_time),
                           np.repeat(cfg.t_knots, cfg.n_space))


def _measured_values(kind: str, x: StateArrays, noise: np.ndarray,
                     mask: Optional[np.ndarray]):
    """One noisy value per state: pose6 exp(noise) T, position3 and gyro3
    the world position and body angular rate plus noise, strain6 the body
    strain with noise on its masked components."""
    if kind == "pose6":
        E = se3_exp(noise)
        return pose_matrix(E[:, :3, :3] @ x.R,
                           (E[:, :3, :3] @ x.t[..., None])[..., 0]
                           + E[:, :3, 3])
    if kind == "position3":
        return x.t + noise
    if kind == "gyro3":
        return (np.swapaxes(x.R, 1, 2) @ x.vel[:, 3:6, None])[..., 0] + noise
    Rt = np.swapaxes(x.R, 1, 2)
    inverse = pose_matrix(Rt, (-Rt @ x.t[..., None])[..., 0])
    body = (adjoint(inverse) @ x.eps[..., None])[..., 0]
    body[:, mask] += noise
    return body


def generate_measurements(config: ScenarioConfig,
                          truth: GroundTruth) -> List[Measurement]:
    """Noisy samples of the ground truth for every configured sensor.

    Deterministic under the scenario seed: sensors are drawn in list order,
    samples in schedule order, and the std scales a unit normal draw so equal
    seeds share noise shapes across noise levels (std 0 gives exact values).
    All samples are simulated in one `GroundTruth.states` call; each
    sensor draws its noise as one (samples, dim) block, the same stream as
    a draw per sample, and its measurements are checked as one
    `sensors.measurement_stack`.
    """
    rng = np.random.default_rng(config.seed)
    points = [spec.sample_points(config) for spec in config.sensors]
    s, t = np.array([p for pts in points for p in pts],
                    dtype=float).reshape(-1, 2).T
    states = truth.states(s, t)
    out: List[Measurement] = []
    start = 0
    for spec, pts in zip(config.sensors, points):
        mask = None
        if spec.kind == "strain6":
            mask = np.ones(6, dtype=bool) if spec.mask is None \
                else np.asarray(spec.mask, dtype=bool)
        dim = DIMS[spec.kind] if mask is None else int(mask.sum())
        cov = max(spec.std, 1e-30) ** 2 * np.eye(dim)
        noise = spec.std * rng.standard_normal((len(pts), dim))
        x = states.take(np.arange(start, start + len(pts)))
        start += len(pts)
        out += measurement_stack(spec.kind, [p[0] for p in pts],
                                 [p[1] for p in pts],
                                 _measured_values(spec.kind, x, noise, mask),
                                 [cov] * len(pts),
                                 None if mask is None else [mask] * len(pts))
    return out
