"""Sensor models and the measurement factors they induce on the grid.

Four kinds:
  pose6      full pose observation; error lives in the pose tangent
  position3  world-frame position of the cross-section origin
  gyro3      body-frame angular rate
  strain6    body-frame strain, optionally masked to a component subset

`build_measurement_factors` binds every measurement in one `query.bind`
call, the same binding posterior queries use: a measurement at a grid node
binds to that node, one on a knot line to the two nodes of that edge, and
one inside a cell to its four corners, so the factor constrains the nodes
that determine the continuous state at the sample point.  A factor is a
record of the measurement, its weight, its nodes and its slice of the stage
gains.

Every measurement goes through one batched path.  `group_measurements`
stacks the factors once by sensor kind and binding shape, gains included.
`MeasurementGroup.evaluate` runs the batched chain (`query.interpolate`),
then `sensor_model`, which evaluates all four kinds with one branch per
kind, and composes the Jacobians.  A masked strain factor keeps all six
error rows and a weight that is zero outside its mask.  A factor whose
sample coincides with a node reduces to the on-node factor exactly, because
the gains collapse onto that corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .graph import Grid
from .liegroup import Pose, ad6, hat3, se3_left_jacobian_inv, se3_log
from .prior import PriorParams, StateArrays
# make_interpolant is kept only because the frozen bench/pipeline.py
# patches it here
from .query import Gain, bind, interpolate, make_interpolant  # noqa: F401

KINDS = ("pose6", "position3", "gyro3", "strain6")

_DIMS = {"pose6": 6, "position3": 3, "gyro3": 3, "strain6": 6}


@dataclass
class Measurement:
    """One sensor sample at continuous coordinates (s, t)."""

    kind: str
    s: float
    t: float
    value: object
    noise_cov: np.ndarray
    mask: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.kind == "pose6":
            if not isinstance(self.value, Pose):
                raise ValueError("pose6 value must be a Pose")
        else:
            self.value = np.asarray(self.value, dtype=float).reshape(
                _DIMS[self.kind])
        if self.mask is not None and self.kind != "strain6":
            raise ValueError("mask applies to strain6 only")
        if self.kind == "strain6":
            m = np.ones(6, dtype=bool) if self.mask is None \
                else np.asarray(self.mask, dtype=bool).reshape(6)
            if not m.any():
                raise ValueError("strain6 mask selects no components")
            self.mask = m
        self.noise_cov = np.asarray(self.noise_cov, dtype=float)
        parts = (self.value.R, self.value.t) if self.kind == "pose6" \
            else (self.value,)
        if not all(np.all(np.isfinite(a)) for a in parts + (self.noise_cov,)):
            raise ValueError(f"{self.kind} value and noise_cov must be finite")
        d = self.dim
        if self.noise_cov.shape == ():
            self.noise_cov = float(self.noise_cov) * np.eye(d)
        if self.noise_cov.shape != (d, d):
            raise ValueError(
                f"noise_cov must be {d}x{d} for {self.kind}, got "
                f"{self.noise_cov.shape}")
        if np.max(np.abs(self.noise_cov - self.noise_cov.T)) > 0:
            raise ValueError("noise_cov must be symmetric")
        np.linalg.cholesky(self.noise_cov)

    @property
    def rows(self):
        """The error rows this measurement observes: its strain mask, or
        all of them."""
        return slice(None) if self.mask is None else self.mask

    @property
    def dim(self) -> int:
        if self.kind == "strain6":
            return int(np.count_nonzero(self.mask))
        return _DIMS[self.kind]


# ---------------------------------------------------------------------------
# the batched sensor model


def _value_array(meas: Measurement) -> np.ndarray:
    return meas.value.matrix() if meas.kind == "pose6" else meas.value


def sensor_model(kind: str, x: StateArrays, values: np.ndarray):
    """Stacked errors (B, d) of one sensor kind against states `x`, and their
    Jacobians (B, d, 24) with respect to each state's own chart perturbation.
    `values` holds (B, 4, 4) pose matrices for pose6 and (B, d) vectors
    otherwise; strain6 always yields all six rows."""
    B = len(x.t)
    rt = np.swapaxes(x.R, 1, 2)
    J = np.zeros((B, 6 if kind in ("pose6", "strain6") else 3, 24))
    if kind == "pose6":
        inv = np.zeros((B, 4, 4))
        inv[:, :3, :3] = rt
        inv[:, :3, 3] = -np.squeeze(rt @ x.t[..., None], -1)
        inv[:, 3, 3] = 1.0
        e = se3_log(values @ inv)
        J[:, :, 0:6] = -se3_left_jacobian_inv(-e)
    elif kind == "position3":
        e = values - x.t
        J[:, :, 0:3] = -np.eye(3)
        J[:, :, 3:6] = hat3(x.t)
    elif kind == "gyro3":
        omega = x.vel[:, 3:6]
        e = values - np.squeeze(rt @ omega[..., None], -1)
        J[:, :, 3:6] = -0.5 * (rt @ hat3(omega))
        J[:, :, 15:18] = -rt
    else:
        ad_inv = np.zeros((B, 6, 6))
        ad_inv[:, 0:3, 0:3] = rt
        ad_inv[:, 3:6, 3:6] = rt
        ad_inv[:, 0:3, 3:6] = -(rt @ hat3(x.t))
        e = values - np.squeeze(ad_inv @ x.eps[..., None], -1)
        J[:, :, 0:6] = -0.5 * (ad_inv @ ad6(x.eps))
        J[:, :, 6:12] = -ad_inv
    return e, J


@dataclass
class MeasurementGroup:
    """Measurement factors of one sensor kind and one binding shape, no two
    of them on the same nodes, stacked.

    `nodes` is (m, B): row i holds every factor's i-th bound node, so each
    pair of rows has one fixed time-row offset.  `temporal`/`spatial` are
    the stacked (B, 2, 2) stage gains (Lam, Psi, R), None where the binding
    drops the stage; R goes unused, as only `query.query_states` forms the
    conditioning residual.  Weights are (B, d, d), zero outside a strain
    mask.
    """

    kind: str
    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    temporal: Optional[Gain]
    spatial: Optional[Gain]

    def evaluate(self, sa: StateArrays, want_jac: bool = True):
        """(errors, J_0, ..., J_m-1) at node states `sa`; each J_i is the
        (B, d, 24) Jacobian onto slot i's node chart, None without
        `want_jac`."""
        x, chain, _ = interpolate(sa, self.nodes, self.temporal, self.spatial,
                                  want_jac)
        e, Jm = sensor_model(self.kind, x, self.values)
        if not want_jac:
            return (e,) + (None,) * len(self.nodes)
        return (e, *(Jm @ J for J in chain))


def _full_weight(f) -> np.ndarray:
    if f.meas.mask is None:
        return f.weight
    w = np.zeros((6, 6))
    w[np.ix_(f.meas.mask, f.meas.mask)] = f.weight
    return w


def _stack_gains(gains) -> Optional[Gain]:
    if gains[0] is None:
        return None
    return tuple(np.stack(ops) for ops in zip(*gains))


def group_measurements(factors) -> List[MeasurementGroup]:
    """Stack measurement factors by (sensor kind, binding shape), in order of
    first appearance.  A factor whose kind and nodes repeat an earlier one's
    opens a further group of the same key, so no two factors of a group
    share a node and each group scatters into distinct blocks."""
    buckets, repeats = {}, {}
    for f in factors:
        bound = (f.meas.kind, f.nodes)
        rep = repeats[bound] = repeats.get(bound, -1) + 1
        key = (f.meas.kind, f.temporal is None, f.spatial is None, rep)
        buckets.setdefault(key, []).append(f)
    groups = []
    for (kind, *_), fs in buckets.items():
        groups.append(MeasurementGroup(
            kind, np.array([f.nodes for f in fs]).T,
            np.stack([_value_array(f.meas) for f in fs]),
            np.stack([_full_weight(f) for f in fs]),
            _stack_gains([f.temporal for f in fs]),
            _stack_gains([f.spatial for f in fs])))
    return groups


# ---------------------------------------------------------------------------
# factors


@dataclass
class MeasurementFactor:
    """A measurement bound to grid nodes: its weight (the inverse noise
    covariance), its nodes in binding order and its point's (Lam, Psi, R)
    stage gains as (2, 2) factors, None for a dropped stage."""

    meas: Measurement
    nodes: Tuple[int, ...]
    weight: np.ndarray
    temporal: Optional[Gain]
    spatial: Optional[Gain]


# The two kinds of factor differ only in their binding shape.  Kept only
# because the frozen bench/pipeline.py tells them apart with isinstance.
class NodeMeasurementFactor(MeasurementFactor):
    """Measurement at a grid node, bound to that node."""


class InterpolatedMeasurementFactor(MeasurementFactor):
    """Measurement off the grid nodes, bound to two or four of them through
    the interpolation chain."""


def _item(gain: Optional[Gain], j: int) -> Optional[Gain]:
    return None if gain is None else tuple(op[j] for op in gain)


def build_measurement_factors(measurements, grid: Grid,
                              params: PriorParams) -> list:
    """Bind every measurement to the grid, in order, with one `bind` call
    (`params` is unread; the frozen bench/pipeline.py passes it)."""
    measurements = list(measurements)
    factors = [None] * len(measurements)
    for b in bind(grid.s_knots, grid.t_knots, [m.s for m in measurements],
                  [m.t for m in measurements]):
        cls = NodeMeasurementFactor if len(b.nodes) == 1 \
            else InterpolatedMeasurementFactor
        for j, i in enumerate(b.index):
            meas = measurements[i]
            factors[i] = cls(meas, tuple(b.nodes[:, j].tolist()),
                             np.linalg.inv(meas.noise_cov),
                             _item(b.temporal, j), _item(b.spatial, j))
    return factors
