"""Sensor models and the measurement factors they induce on the grid.

Four kinds, each with the value shape and error dimension of `VALUE_SHAPES`
and `DIMS`:
  pose6      full pose observation, its value the (4, 4) homogeneous matrix
             [[R, t], [0, 1]] (finite, last row exactly (0, 0, 0, 1)); error
             lives in the pose tangent
  position3  world-frame position of the cross-section origin
  gyro3      body-frame angular rate
  strain6    body-frame strain, optionally masked to a component subset

Measurements are checked by one rule set on stacks of one kind
(`measurement_stack`): the file reader and the simulator check a kind's
records together, with one batched Cholesky for positive definiteness, and
a single `Measurement(...)` is a stack of one, so each record gets the same
message either way.

`build_measurement_factors` binds every measurement in one `query.bind`
call, the same binding posterior queries use: a measurement at a grid node
binds to that node, one on a knot line to the two nodes of that edge, and
one inside a cell to its four corners, so the factor constrains the nodes
that determine the continuous state at the sample point.  A factor is a
record of the measurement, its weight (the inverse noise covariance, from
one `np.linalg.inv` per noise dimension), its nodes and its slice of the
stage gains.

Every measurement goes through one batched path.  `group_measurements`
stacks the factors once by sensor kind and binding shape, gains included,
into `graph.Family` items whose kernel is `measurement_batch`: the batched
chain (`query.interpolate`), then `sensor_model`, which evaluates all four
kinds with one branch per kind, and the composed Jacobians.  Like `bind`
for a query batch, it finds each group's distinct temporal bridges once
(`query.temporal_bridges`), and the family reads their ends' states
(`Family.reads`), so samples that share a bridge condition it once.  A
group holds every factor of its key however many share one node set, so
the chain runs once per group; `solver._scatter_family` adds the factors
that share nodes in separate rounds.  A masked strain factor keeps all six
error rows and a weight that is zero outside its mask.  A factor whose
sample coincides with a node reduces to the on-node factor exactly,
because the gains collapse onto that corner.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .graph import Family, Grid
from .liegroup import (ad6, hat3, pose_matrix, se3_left_jacobian_inv,
                       se3_log)
from .prior import PriorParams, StateArrays
# make_interpolant is kept only because the frozen bench/pipeline.py
# patches it here
from .query import (Gain, bind, interpolate,  # noqa: F401
                    make_interpolant, temporal_bridges)

DIMS = {"pose6": 6, "position3": 3, "gyro3": 3, "strain6": 6}
VALUE_SHAPES = {"pose6": (4, 4), "position3": (3,), "gyro3": (3,),
                "strain6": (6,)}
KINDS = tuple(DIMS)


@dataclass
class Measurement:
    """One sensor sample at continuous coordinates (s, t), checked as a
    stack of one by the rule set of `measurement_stack`."""

    kind: str
    s: float
    t: float
    value: np.ndarray
    noise_cov: np.ndarray
    mask: Optional[np.ndarray] = None

    def __post_init__(self):
        values, covs, masks = _check_stack(
            self.kind, [self.s], [self.t], [self.value], [self.noise_cov],
            None if self.mask is None else [self.mask])
        self.value, self.noise_cov = values[0], covs[0]
        self.mask = None if masks is None else masks[0]

    @property
    def rows(self):
        """The error rows this measurement observes: its strain mask, or
        all of them."""
        return slice(None) if self.mask is None else self.mask


def float_array(name: str, a) -> np.ndarray:
    """`a` as a float array; ValueError if it holds a string (None reads as
    nan)."""
    a = np.asarray(a)
    if a.dtype.kind in "US" or a.dtype.kind == "O" \
            and any(isinstance(x, str) for x in a.flat):
        raise ValueError(f"{name} must hold numbers, got a string")
    return np.asarray(a, dtype=float)


def _check_numbers(name: str, xs) -> None:
    if not set(map(type, xs)) <= {float, int}:
        for x in xs:
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValueError(f"{name} must be a number, got {x!r}")


def _check_stack(kind, s, t, values, noise_covs, masks):
    """The measurement rule set, applied to stacked records of one kind:
    (values, noise covariances, masks or None) as arrays, or ValueError
    with the first broken rule, in this order: a known kind, s and t
    numbers, the value's shape, a mask on strain6 only and selecting a
    component, value and noise_cov finite, a pose6 last row of
    (0, 0, 0, 1), noise_cov d x d (a number is a variance of every
    component), exactly symmetric and, by one batched Cholesky, positive
    definite.  A stack's masks are all equal, so its records share one
    noise dimension d."""
    if kind not in KINDS:
        raise ValueError(f"unknown measurement kind {kind!r}")
    _check_numbers("s", s)
    _check_numbers("t", t)
    values = float_array(f"{kind} value", values)
    B, shape = len(values), VALUE_SHAPES[kind]
    if values.shape[1:] != shape:
        raise ValueError(f"{kind} value must have shape {shape}, "
                         f"got {values.shape[1:]}")
    if masks is not None and kind != "strain6":
        raise ValueError("mask applies to strain6 only")
    if kind == "strain6":
        masks = np.ones((B, 6), dtype=bool) if masks is None \
            else np.asarray(masks, dtype=bool).reshape(B, 6)
        if not np.all(np.any(masks, axis=1)):
            raise ValueError("strain6 mask selects no components")
        if np.any(masks != masks[:1]):
            raise ValueError("a measurement stack holds one strain6 mask")
    covs = float_array("noise_cov", noise_covs)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(covs))):
        raise ValueError(f"{kind} value and noise_cov must be finite")
    if kind == "pose6" and np.any(values[:, 3] != [0.0, 0.0, 0.0, 1.0]):
        raise ValueError("pose6 value's last row must be (0, 0, 0, 1)")
    d = DIMS[kind] if masks is None else int(np.count_nonzero(masks[0]))
    if covs.shape == (B,):
        covs = covs[:, None, None] * np.eye(d)
    if covs.shape[1:] != (d, d):
        raise ValueError(f"noise_cov must be {d}x{d} for {kind}, got "
                         f"{covs.shape[1:]}")
    if np.any(covs != np.swapaxes(covs, 1, 2)):
        raise ValueError("noise_cov must be symmetric")
    np.linalg.cholesky(covs)
    return values, covs, masks


def measurement_stack(kind: str, s, t, values, noise_covs,
                      masks=None) -> List[Measurement]:
    """The `Measurement`s of B records of one sensor kind, given as stacks:
    s and t (B,) numbers, values (B, *VALUE_SHAPES[kind]), noise_covs
    (B, d, d) or (B,) variances, and masks (B, 6), all equal, or None.  One
    rule set checks the whole stack (`_check_stack`, the same one a single
    `Measurement` runs as a stack of one) and raises ValueError with the
    message of the rule broken; each record then holds views of the
    stacks.  An empty stack has nothing to check."""
    if not len(s):
        return []
    values, covs, masks = _check_stack(kind, s, t, values, noise_covs, masks)
    out = []
    for j, (sj, tj) in enumerate(zip(s, t)):
        m = object.__new__(Measurement)  # checked above as part of the stack
        vars(m).update(kind=kind, s=sj, t=tj, value=values[j],
                       noise_cov=covs[j],
                       mask=None if masks is None else masks[j])
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# the batched sensor model


def sensor_model(kind: str, x: StateArrays, values: np.ndarray):
    """Stacked errors (B, d) of one sensor kind against states `x`, and their
    Jacobians (B, d, 24) with respect to each state's own chart perturbation.
    `values` stacks the kind's measurement values, (B, 4, 4) pose matrices
    for pose6 and (B, d) vectors otherwise; strain6 always yields all six
    rows."""
    B = len(x.t)
    rt = np.swapaxes(x.R, 1, 2)
    J = np.zeros((B, 6 if kind in ("pose6", "strain6") else 3, 24))
    if kind == "pose6":
        inv = pose_matrix(rt, -np.squeeze(rt @ x.t[..., None], -1))
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


def measurement_batch(kind: str, values: np.ndarray, temporal: Optional[Gain],
                      spatial: Optional[Gain], columns: Optional[np.ndarray],
                      *ends: StateArrays):
    """(errors, J_0, ..., J_m-1) of B measurements of one sensor kind and
    one binding shape: `ends`, `temporal`, `spatial` and `columns` are laid
    out as a `query.Binding`'s, the ends' states gathered (R goes unused, as
    only `query.query_states` forms the conditioning residual).  Each J_i is
    the (B, d, 24) Jacobian onto corner i's chart."""
    x, chain, _ = interpolate(ends, temporal, spatial, columns)
    e, Jm = sensor_model(kind, x, values)
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


def _family(kind: str, fs) -> Family:
    nodes = np.array([f.nodes for f in fs]).T
    temporal = _stack_gains([f.temporal for f in fs])
    ends, columns = nodes, None
    if temporal is not None:
        ends, temporal, columns = temporal_bridges(
            nodes, np.array([f.meas.t for f in fs], dtype=float), temporal)
    return Family(kind, nodes, np.stack([_full_weight(f) for f in fs]),
                  measurement_batch,
                  (kind, np.stack([f.meas.value for f in fs]), temporal,
                   _stack_gains([f.spatial for f in fs]), columns), ends)


def group_measurements(factors) -> List[Family]:
    """Stack measurement factors by (sensor kind, binding shape), in order of
    first appearance, each group a `Family` of `measurement_batch` with
    (B, d, d) weights that are zero outside a strain mask and, as `bind`
    gives a query batch, its distinct temporal bridges
    (`query.temporal_bridges`) as the node states it reads.  Factors that
    share their nodes stay in one group; the solver's scatter keeps them
    apart."""
    buckets = {}
    for f in factors:
        key = (f.meas.kind, f.temporal is None, f.spatial is None)
        buckets.setdefault(key, []).append(f)
    return [_family(kind, fs) for (kind, *_), fs in buckets.items()]


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
    """Bind every measurement to the grid, in order, with one `bind` call,
    and weight each by its inverse noise covariance, from one
    `np.linalg.inv` per noise dimension (`params` is unread; the frozen
    bench/pipeline.py passes it)."""
    measurements = list(measurements)
    by_dim = {}
    for i, m in enumerate(measurements):
        by_dim.setdefault(len(m.noise_cov), []).append(i)
    weights = [None] * len(measurements)
    for idx in by_dim.values():
        inv = np.linalg.inv(np.stack([measurements[i].noise_cov
                                      for i in idx]))
        for i, w in zip(idx, inv):
            weights[i] = w
    factors = [None] * len(measurements)
    for b in bind(grid.s_knots, grid.t_knots, [m.s for m in measurements],
                  [m.t for m in measurements]):
        cls = NodeMeasurementFactor if len(b.nodes) == 1 \
            else InterpolatedMeasurementFactor
        for j, i in enumerate(b.index):
            factors[i] = cls(measurements[i], tuple(b.nodes[:, j].tolist()),
                             weights[i], None if b.temporal is None
                             else _item(b.temporal, b.columns[0, j]),
                             _item(b.spatial, j))
    return factors
