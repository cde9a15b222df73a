"""Ground-truth generator for a planar-bending continuum robot plus noisy
asynchronous measurement synthesis.

The rod is inextensible with body strain (1, 0, 0, 0, 0, kappa(s, t)) and a
curvature field kappa = kappa0 + kappa_a * sin(2*pi*t/period) * (s/L).  Poses
come from the product integral of body increments along arclength, taken with
a 4th-order commutator-free two-exponential step.  Velocities and
strain-velocities are central time differences of the integrated fields, so
they stay consistent with the poses by construction.

`GroundTruth.states` simulates a batch of points in one cell-by-cell sweep
of the arclength lattice, memoizing nothing; `generate_measurements` makes
one such call for all of a scenario's sensor samples.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .liegroup import adjoint, pose_matrix, se3_exp, se3_log
from .prior import PriorParams, StateArrays
from .sensors import DIMS, KINDS, Measurement

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
        mean = StateArrays.identity()
        mean.eps[0, 0] = 1.0
        return PriorParams(qs_psd=np.diag(self.qs_diag),
                           qt_psd=np.diag(self.qt_diag),
                           qst_psd=np.diag(self.qst_diag),
                           p0=np.diag(self.p0_diag), prior_mean=mean)


class GroundTruth:
    """Continuous ground-truth fields of one scenario.

    `states(s, t)` integrates a whole batch of points in one sweep of a fine
    arclength lattice (refinement x grid density cells of 8 substeps): one
    pose per distinct time, the t +/- delta of the rates included, is carried
    from s = 0 one cell at a time, each point takes its pose at its cell's
    start, and then all points finish their remainders together.  Nothing is
    memoized.  The sweep goes cell by cell because forming every (time,
    substep) increment at once would dominate the memory of a process that
    simulates and then estimates, as the one measuring the bench's
    `peak_rss_mb` does.  Product chains keep the order of a per-point
    integration and each distinct time's sine is taken once with `math.sin`,
    so a state's bits do not depend on the batch it comes in.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        cells = config.n_space * config.refinement
        self._lattice = np.linspace(0.0, config.length, cells + 1)
        self._h = config.length / cells / 8.0
        self._delta = 1e-5 * config.period

    def _strain(self, s, sin_t) -> np.ndarray:
        """Body strains (1, 0, 0, 0, 0, kappa) at arclengths s and times
        whose sines sin_t broadcast against s."""
        cfg = self.config
        kappa = cfg.kappa0 + cfg.kappa_a * sin_t * (s / cfg.length)
        out = np.zeros(kappa.shape + (6,))
        out[..., 0] = 1.0
        out[..., 5] = kappa
        return out

    def _increments(self, starts: np.ndarray, h, sin_t: np.ndarray):
        """4x4 increments G with T <- T @ G for 4th-order commutator-free
        two-exponential steps of length h from arclengths `starts`, at times
        whose sines `sin_t` broadcast against `starts`."""
        a1 = self._strain(starts + _C1 * h, sin_t)
        a2 = self._strain(starts + _C2 * h, sin_t)
        h = np.asarray(h)[..., None]
        return se3_exp(h * (_ALPHA * a1 + _BETA * a2)) \
            @ se3_exp(h * (_BETA * a1 + _ALPHA * a2))

    def _poses(self, s: np.ndarray, which: np.ndarray,
               sin_t: np.ndarray) -> np.ndarray:
        """(P, 4, 4) poses at arclengths s in [0, L] and the times whose
        sines are sin_t[which]."""
        lat, h = self._lattice, self._h
        cell = np.minimum(np.searchsorted(lat, s, side="right") - 1,
                          len(lat) - 1)
        out = np.empty((len(s), 4, 4))
        T = np.broadcast_to(np.eye(4), (len(sin_t), 4, 4))
        substeps = np.arange(8) * h
        for j in range(int(cell.max(initial=0)) + 1):
            if j:
                G = self._increments(lat[j - 1] + substeps, h,
                                     sin_t[:, None])
                for i in range(8):
                    T = T @ G[:, i]
            at = np.flatnonzero(cell == j)
            out[at] = T[which[at]]
        # the remainder of each point past its cell start, in m <= 8 steps
        rem = s - lat[cell]
        m = np.where(rem > 1e-15 * max(1.0, self.config.length),
                     np.maximum(1.0, np.ceil(rem / h - 1e-12)), 0.0)
        step = rem / np.maximum(m, 1.0)
        for i in range(int(m.max(initial=0))):
            go = np.flatnonzero(m > i)
            out[go] = out[go] @ self._increments(
                lat[cell[go]] + i * step[go], step[go], sin_t[which[go]])
        return out

    def states(self, s, t) -> StateArrays:
        """States at the points (s[i], t[i]), s within [0, length] and t
        within [0, duration] (each to a relative 1e-9, then clipped).
        Velocity and strain-rate are central differences over t +/- delta,
        one-sided where t - delta < 0 or else t + delta > duration, and
        zero for a duration-0 scenario."""
        cfg = self.config
        L, D = cfg.length, cfg.duration
        s = np.asarray(s, dtype=float).reshape(-1)
        t = np.asarray(t, dtype=float).reshape(-1)
        for name, x, end in (("arclength", s, L), ("time", t, D)):
            if np.any(x < -_RANGE_TOL * end) \
                    or np.any(x > end * (1 + _RANGE_TOL)):
                raise ValueError(f"{name} out of range [0, {end}]")
        s, t = np.clip(s, 0.0, L), np.clip(t, 0.0, D)
        P = len(s)
        moving = D > 0
        if moving:
            d = self._delta
            early = t - d < 0.0
            lo = np.where(early, t, t - d)
            hi = np.where(~early & (t + d > D), t, t + d)
            s, t = np.tile(s, 3), np.concatenate([t, lo, hi])
        times, which = np.unique(t, return_inverse=True)
        sin_t = np.array([math.sin(2.0 * math.pi * x / cfg.period)
                          for x in times.tolist()])
        T = self._poses(s, which, sin_t)
        strain = self._strain(s, sin_t[which])
        eps = (adjoint(T) @ strain[..., None])[..., 0]
        if moving:
            span = (hi - lo)[:, None]
            vel = se3_log(T[2 * P:] @ np.linalg.inv(T[P:2 * P])) / span
            sv = (eps[2 * P:] - eps[P:2 * P]) / span
        else:
            vel = sv = np.zeros((P, 6))
        return StateArrays(T[:P, :3, :3].copy(), T[:P, :3, 3].copy(),
                           eps[:P], vel, sv)

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
    All samples are simulated in one `GroundTruth.states` call, and each
    sensor draws its noise as one (samples, dim) block, the same stream as
    a draw per sample.
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
                else np.asarray(spec.mask, dtype=bool).reshape(6)
        dim = DIMS[spec.kind] if mask is None else int(mask.sum())
        cov = max(spec.std, 1e-30) ** 2 * np.eye(dim)
        noise = spec.std * rng.standard_normal((len(pts), dim))
        x = states.take(np.arange(start, start + len(pts)))
        start += len(pts)
        out += [Measurement(spec.kind, si, ti, value, cov, mask=mask)
                for (si, ti), value in zip(pts, _measured_values(
                    spec.kind, x, noise, mask))]
    return out
