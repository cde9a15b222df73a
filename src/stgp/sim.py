"""Ground-truth generator for a planar-bending continuum robot plus noisy
asynchronous measurement synthesis.

The rod is inextensible with body strain (1, 0, 0, 0, 0, kappa(s, t)) and a
curvature field kappa = kappa0 + kappa_a * sin(2*pi*t/period) * (s/L).  Poses
come from the product integral of body increments along arclength, taken with
a 4th-order commutator-free two-exponential step.  Velocities and
strain-velocities are central time differences of the integrated fields, so
they stay consistent with the poses by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .liegroup import Pose, se3_exp, se3_log
from .prior import NodeState, PriorParams
from .sensors import KINDS, Measurement

_C1 = 0.5 - math.sqrt(3.0) / 6.0
_C2 = 0.5 + math.sqrt(3.0) / 6.0
_ALPHA = 0.25 + math.sqrt(3.0) / 6.0
_BETA = 0.25 - math.sqrt(3.0) / 6.0

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
    the scenario duration (ends inclusive).  `locations="knots"` expands to
    the grid's arclength knots.  Explicit `samples` bypass the schedule.
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
        for name in ("rate", "samples", "locations"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                _require_finite(f"sensor {name}", value)
        if self.std < 0:
            raise ValueError("sensor std must be >= 0")
        if self.samples is None:
            if self.rate is None or self.rate <= 0:
                raise ValueError(f"{self.kind} sensor needs rate > 0")
            if self.locations is None:
                raise ValueError(f"{self.kind} sensor needs locations")
        if self.mask is not None and self.kind != "strain6":
            raise ValueError("mask applies to strain6 sensors only")

    def sample_points(self, config: "ScenarioConfig"):
        if self.samples is not None:
            return [(float(s), float(t)) for s, t in self.samples]
        times = rate_schedule(self.rate, config.duration)
        locs = config.s_knots if (isinstance(self.locations, str)
                                  and self.locations == "knots") \
            else np.atleast_1d(np.asarray(self.locations, dtype=float))
        return [(float(s), float(t)) for s in locs for t in times]


def rate_schedule(rate: float, duration: float) -> np.ndarray:
    """Sample times {0, 1/rate, ...} up to and including the duration."""
    n = int(math.floor(duration * rate + 1e-9))
    return np.arange(n + 1) / rate


@dataclass
class ScenarioConfig:
    """Everything one experiment needs: robot, grid, prior, sensors, solver.

    `tol` (> 0) ends Gauss-Newton once the decrement delta^T H delta, the
    cost decrease the linearized step predicts, falls below it, in
    chi-square units: the returned state is then within sqrt(tol)
    posterior standard deviations of the next iterate at every node.
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
    refinement: int = 8
    max_iters: int = 50
    tol: float = 1e-8

    def __post_init__(self):
        self.qs_diag = np.asarray(self.qs_diag, dtype=float).reshape(6)
        self.qt_diag = np.asarray(self.qt_diag, dtype=float).reshape(6)
        self.qst_diag = np.asarray(self.qst_diag, dtype=float).reshape(6)
        self.p0_diag = np.asarray(self.p0_diag, dtype=float).reshape(24)
        for name, low in (("n_space", 1), ("n_time", 1), ("seed", 0),
                          ("refinement", 1), ("max_iters", 1)):
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
        mean = NodeState(Pose.identity(),
                         np.array([1.0, 0, 0, 0, 0, 0]),
                         np.zeros(6), np.zeros(6))
        return PriorParams(qs_psd=np.diag(self.qs_diag),
                           qt_psd=np.diag(self.qt_diag),
                           qst_psd=np.diag(self.qst_diag),
                           p0=np.diag(self.p0_diag), prior_mean=mean)


def strain_field(s, t: float, config: ScenarioConfig) -> np.ndarray:
    """Body strain at (s, t); s may be an array."""
    s = np.asarray(s, dtype=float)
    if np.any(s < -_RANGE_TOL * config.length) \
            or np.any(s > config.length * (1 + _RANGE_TOL)):
        raise ValueError(f"arclength out of range [0, {config.length}]")
    kappa = config.kappa0 + config.kappa_a \
        * math.sin(2.0 * math.pi * t / config.period) * (s / config.length)
    out = np.zeros(s.shape + (6,))
    out[..., 0] = 1.0
    out[..., 5] = kappa
    return out


def _cf4_increments(config: ScenarioConfig, t: float, starts: np.ndarray,
                    hs: np.ndarray) -> np.ndarray:
    """Per-step 4x4 increments G_j with T_{j+1} = T_j @ G_j."""
    a1 = strain_field(starts + _C1 * hs, t, config)
    a2 = strain_field(starts + _C2 * hs, t, config)
    h = hs[:, None]
    g1 = se3_exp(h * (_ALPHA * a1 + _BETA * a2))
    g2 = se3_exp(h * (_BETA * a1 + _ALPHA * a2))
    return g1 @ g2


class GroundTruth:
    """Continuous ground-truth fields with per-time pose columns cached on a
    fine arclength lattice (refinement x grid density; integration takes 8
    substeps per lattice cell).  Full states are memoized per query point,
    so repeated sampling schedules only pay for integration once."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        cells = config.n_space * config.refinement
        self._lattice = np.linspace(0.0, config.length, cells + 1)
        self._spacing = config.length / cells
        self._h = self._spacing / 8.0
        self._delta = 1e-5 * config.period
        self._columns: Dict[float, np.ndarray] = {}
        self._states: Dict[Tuple[float, float], NodeState] = {}

    def _column(self, t: float) -> np.ndarray:
        col = self._columns.get(t)
        if col is not None:
            return col
        n = len(self._lattice) - 1
        starts = np.repeat(self._lattice[:-1], 8) \
            + np.tile(np.arange(8) * self._h, n)
        incs = _cf4_increments(self.config, t, starts,
                               np.full(8 * n, self._h))
        col = np.empty((n + 1, 4, 4))
        col[0] = np.eye(4)
        T = col[0]
        for j in range(n):
            block = incs[8 * j:8 * (j + 1)]
            for g in block:
                T = T @ g
            col[j + 1] = T
        self._columns[t] = col
        return col

    def _pose_matrix(self, s: float, t: float) -> np.ndarray:
        L = self.config.length
        if s < -_RANGE_TOL * L or s > L * (1 + _RANGE_TOL):
            raise ValueError(f"arclength out of range [0, {L}]")
        s = float(np.clip(s, 0.0, L))
        col = self._column(t)
        j = int(np.clip(np.searchsorted(self._lattice, s, side="right") - 1,
                        0, len(self._lattice) - 1))
        T = col[j]
        rem = s - self._lattice[j]
        if rem > 1e-15 * max(1.0, L):
            m = max(1, int(math.ceil(rem / self._h - 1e-12)))
            hs = np.full(m, rem / m)
            starts = self._lattice[j] + np.arange(m) * (rem / m)
            for g in _cf4_increments(self.config, t, starts, hs):
                T = T @ g
        return T

    def pose(self, s: float, t: float) -> Pose:
        return Pose.from_matrix(self._pose_matrix(s, t))

    def _eps_left(self, s: float, t: float, T: Optional[np.ndarray] = None):
        if T is None:
            T = self._pose_matrix(s, t)
        eps_body = strain_field(float(np.clip(s, 0.0, self.config.length)),
                                t, self.config)
        return Pose.from_matrix(T).adjoint() @ eps_body

    def state(self, s: float, t: float) -> NodeState:
        cached = self._states.get((s, t))
        if cached is not None:
            return cached
        cfg = self.config
        T = self._pose_matrix(s, t)
        eps = self._eps_left(s, t, T)
        if cfg.duration <= 0:
            out = NodeState(Pose.from_matrix(T), eps, np.zeros(6),
                            np.zeros(6))
            self._states[(s, t)] = out
            return out
        d = self._delta
        lo, hi = t - d, t + d
        if lo < 0.0:
            lo = t
        elif hi > cfg.duration:
            hi = t
        span = hi - lo
        T_lo = T if lo == t else self._pose_matrix(s, lo)
        T_hi = T if hi == t else self._pose_matrix(s, hi)
        rel = T_hi @ np.linalg.inv(T_lo)
        vel = se3_log(rel) / span
        sv = (self._eps_left(s, hi, T_hi) - self._eps_left(s, lo, T_lo)) / span
        out = NodeState(Pose.from_matrix(T), eps, vel, sv)
        self._states[(s, t)] = out
        return out

    def grid_states(self) -> List[NodeState]:
        """Node states at the grid knots, flat time-major order (k*N + n)."""
        return [self.state(float(s), float(t))
                for t in self.config.t_knots for s in self.config.s_knots]


def _measured_value(kind: str, x: NodeState, noise: np.ndarray,
                    mask: Optional[np.ndarray]):
    if kind == "pose6":
        return Pose.exp(noise) @ x.pose
    if kind == "position3":
        return x.pose.t + noise
    if kind == "gyro3":
        return x.pose.R.T @ x.velocity[3:6] + noise
    body = x.pose.inverse().adjoint() @ x.strain
    out = body.copy()
    out[mask] += noise
    return out


def generate_measurements(config: ScenarioConfig,
                          truth: GroundTruth) -> List[Measurement]:
    """Noisy samples of the ground truth for every configured sensor.

    Deterministic under the scenario seed: sensors are drawn in list order,
    samples in schedule order, and the std scales a unit normal draw so equal
    seeds share noise shapes across noise levels (std 0 gives exact values).
    """
    rng = np.random.default_rng(config.seed)
    out: List[Measurement] = []
    for spec in config.sensors:
        mask = None
        if spec.kind == "strain6":
            mask = np.ones(6, dtype=bool) if spec.mask is None \
                else np.asarray(spec.mask, dtype=bool).reshape(6)
        dim = int(mask.sum()) if mask is not None else \
            {"pose6": 6, "position3": 3, "gyro3": 3}[spec.kind]
        cov = max(spec.std, 1e-30) ** 2 * np.eye(dim)
        for s, t in spec.sample_points(config):
            x = truth.state(s, t)
            noise = spec.std * rng.standard_normal(dim)
            value = _measured_value(spec.kind, x, noise, mask)
            out.append(Measurement(spec.kind, s, t, value, cov, mask=mask))
    return out
