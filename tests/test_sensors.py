"""Measurement models for the four sensor kinds and the binding of off-grid
samples onto cell corners."""

import numpy as np
import pytest

from stgp.graph import build_grid, build_prior_factors
from stgp.liegroup import Pose, se3_exp
from stgp.oracle import dense_condition_query
from stgp.prior import NodeState, StateArrays
from stgp.sensors import (KINDS, InterpolatedMeasurementFactor, Measurement,
                          NodeMeasurementFactor, build_measurement_factors,
                          sensor_model)
from stgp.solver import apply_update
from conftest import factor_terms, random_state, random_states, retract


def measurement_model(meas, x):
    """Error and chart Jacobian of one measurement against state x: a batch
    of one through `sensor_model`, cut to the rows the measurement observes."""
    value = meas.value.matrix() if meas.kind == "pose6" else meas.value
    e, J = sensor_model(meas.kind, StateArrays.from_state(x), value[None])
    return e[0][meas.rows], J[0][meas.rows]


# error models, trivial cases


def test_pose_meas_zero_at_truth():
    x = random_states(0, 1)[0]
    e, _ = measurement_model(Measurement("pose6", 0, 0, x.pose, np.eye(6)), x)
    assert np.max(np.abs(e)) < 1e-12


def test_pose_meas_translation_offset():
    x = NodeState.identity()
    meas = Pose(np.eye(3), np.array([0.01, 0, 0]))
    e, _ = measurement_model(Measurement("pose6", 0, 0, meas, np.eye(6)), x)
    assert np.allclose(e, [0.01, 0, 0, 0, 0, 0], atol=1e-12)


def test_position_meas_offsets():
    x = random_states(1, 1)[0]
    m = Measurement("position3", 0, 0, x.pose.t, np.eye(3))
    assert np.max(np.abs(measurement_model(m, x)[0])) < 1e-14
    m = Measurement("position3", 0, 0, x.pose.t + [0, 0.05, 0], np.eye(3))
    assert np.allclose(measurement_model(m, x)[0], [0, 0.05, 0], atol=1e-14)


def test_gyro_meas_static_and_aligned():
    x = NodeState.identity()
    m = Measurement("gyro3", 0, 0, np.zeros(3), np.eye(3))
    assert np.max(np.abs(measurement_model(m, x)[0])) < 1e-14
    x = NodeState(Pose.identity(), np.zeros(6),
                  np.array([0, 0, 0, 0, 0, 1.0]), np.zeros(6))
    m = Measurement("gyro3", 0, 0, np.array([0, 0, 1.0]), np.eye(3))
    assert np.max(np.abs(measurement_model(m, x)[0])) < 1e-14


def test_gyro_meas_frame_transport():
    # measured rate is the body-frame angular velocity R^T w
    rng = np.random.default_rng(2)
    x = random_state(rng)
    omega_body = x.pose.R.T @ x.velocity[3:]
    m = Measurement("gyro3", 0, 0, omega_body, np.eye(3))
    assert np.max(np.abs(measurement_model(m, x)[0])) < 1e-12


def test_strain_meas_adjoint_transport():
    rng = np.random.default_rng(3)
    x = random_state(rng)
    body = x.pose.inverse().adjoint() @ x.strain
    m = Measurement("strain6", 0, 0, body, np.eye(6))
    assert np.max(np.abs(measurement_model(m, x)[0])) < 1e-12
    # identity pose: plain difference
    x = NodeState(Pose.identity(), rng.standard_normal(6), np.zeros(6),
                  np.zeros(6))
    val = x.strain + 0.1
    m = Measurement("strain6", 0, 0, val, np.eye(6))
    assert np.allclose(measurement_model(m, x)[0], 0.1, atol=1e-14)


def test_strain_mask():
    rng = np.random.default_rng(4)
    x = NodeState(Pose.identity(), rng.standard_normal(6), np.zeros(6),
                  np.zeros(6))
    mask = np.array([True, False, False, False, False, True])
    m = Measurement("strain6", 0, 0, x.strain + 1.0, np.eye(2), mask=mask)
    e, J = measurement_model(m, x)
    assert e.shape == (2,)
    assert J.shape == (2, 24)
    with pytest.raises(ValueError):
        Measurement("strain6", 0, 0, np.zeros(6), np.eye(6),
                    mask=np.zeros(6, dtype=bool))


def test_measurement_validation():
    with pytest.raises(ValueError):
        Measurement("unknown", 0, 0, np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        Measurement("position3", 0, 0, np.zeros(3), -np.eye(3))
    with pytest.raises(ValueError):
        Measurement("pose6", 0, 0, np.zeros(6), np.eye(6))


# Jacobians by central differences in the state's own chart


def fd_model_jacobian(meas, x, h=1e-6):
    cols = []
    for d in range(24):
        delta = np.zeros(24)
        delta[d] = h
        ep = measurement_model(meas, retract(x, delta))[0]
        em = measurement_model(meas, retract(x, -delta))[0]
        cols.append((ep - em) / (2 * h))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("kind", ["pose6", "position3", "gyro3", "strain6"])
def test_measurement_jacobians_fd(kind):
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = random_state(rng)
        if kind == "pose6":
            value = Pose.exp(0.1 * rng.standard_normal(6)) @ x.pose
            meas = Measurement(kind, 0, 0, value, np.eye(6))
        elif kind == "position3":
            meas = Measurement(kind, 0, 0, x.pose.t + 0.01 * rng.standard_normal(3),
                               np.eye(3))
        elif kind == "gyro3":
            meas = Measurement(kind, 0, 0, rng.standard_normal(3), np.eye(3))
        else:
            meas = Measurement(kind, 0, 0, rng.standard_normal(6), np.eye(6))
        e, J = measurement_model(meas, x)
        J_fd = fd_model_jacobian(meas, x)
        assert np.max(np.abs(J - J_fd)) < 1e-5 * (1 + np.max(np.abs(J_fd)))


def test_strain_node_batch_matches_scalar():
    """The batched sensor model, one call per kind over a stack of states
    (masked strain included), against per-state central differences."""
    rng = np.random.default_rng(6)
    states = random_states(6, 8)
    sa = StateArrays.from_states(states)
    mask = np.array([True, False, True, False, False, True])
    for kind in KINDS:
        meas = []
        for i, x in enumerate(states):
            if kind == "pose6":
                value = Pose.exp(0.1 * rng.standard_normal(6)) @ x.pose
                meas.append(Measurement(kind, 0, 0, value, np.eye(6)))
            elif kind == "strain6":
                m = mask if i % 2 else None
                dim = 6 if m is None else 3
                meas.append(Measurement(kind, 0, 0, rng.standard_normal(6),
                                        np.eye(dim), mask=m))
            else:
                meas.append(Measurement(kind, 0, 0, rng.standard_normal(3),
                                        np.eye(3)))
        values = np.stack([m.value.matrix() if kind == "pose6" else m.value
                           for m in meas])
        e_b, J_b = sensor_model(kind, sa, values)
        for x, m, e, J in zip(states, meas, e_b, J_b):
            e_ref = measurement_model(m, x)[0]
            assert np.max(np.abs(e[m.rows] - e_ref)) < 1e-14
            J_fd = fd_model_jacobian(m, x)
            assert np.max(np.abs(J[m.rows] - J_fd)) \
                < 1e-5 * (1 + np.max(np.abs(J_fd)))


# off-grid binding


def make_test_grid(params, N=3, K=3):
    grid = build_grid(np.linspace(0, 1.0, N), np.linspace(0, 2.0, K),
                      NodeState.identity())
    rng = np.random.default_rng(7)
    delta = 0.05 * rng.standard_normal(24 * grid.n_nodes)
    return apply_update(grid, delta)


def test_bind_on_node_collapses(params):
    grid = make_test_grid(params)
    x = grid.state(1, 1)
    meas = Measurement("position3", float(grid.s_knots[1]),
                       float(grid.t_knots[1]), x.pose.t + 0.001, np.eye(3))
    (f,) = build_measurement_factors([meas], grid, params)
    assert isinstance(f, NodeMeasurementFactor)
    assert f.nodes == (grid.flat(1, 1),)
    ref = measurement_model(meas, x)[0]
    assert np.max(np.abs(factor_terms(f, grid, False)[0] - ref)) < 1e-14


def test_bind_on_knot_line_two_nodes(params):
    grid = make_test_grid(params)
    t_mid = 0.5 * (grid.t_knots[0] + grid.t_knots[1])
    meas = Measurement("position3", float(grid.s_knots[1]), float(t_mid),
                       np.zeros(3), np.eye(3))
    (f,) = build_measurement_factors([meas], grid, params)
    assert isinstance(f, InterpolatedMeasurementFactor)
    assert len(f.nodes) == 2
    assert f.nodes == (grid.flat(1, 0), grid.flat(1, 1))


def test_bind_interior_four_nodes(params):
    grid = make_test_grid(params)
    meas = Measurement("strain6", 0.3, 0.7, np.zeros(6), np.eye(6))
    (f,) = build_measurement_factors([meas], grid, params)
    assert len(f.nodes) == 4


def test_bind_out_of_hull_raises(params):
    grid = make_test_grid(params)
    meas = Measurement("position3", 2.0, 0.5, np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        build_measurement_factors([meas], grid, params)


def test_bind_many_in_input_order(params):
    """One call over measurements of every binding shape gives, in input
    order, the factors that one call per measurement gives."""
    grid = make_test_grid(params)
    s1, t1 = float(grid.s_knots[1]), float(grid.t_knots[1])
    meas = [Measurement(kind, s, t, np.zeros(dim), np.eye(dim))
            for kind, dim, (s, t) in [
                ("position3", 3, (0.3, 0.7)), ("strain6", 6, (s1, t1)),
                ("gyro3", 3, (s1, 0.31)), ("position3", 3, (0.62, t1)),
                ("position3", 3, (s1, t1)), ("strain6", 6, (0.1, 1.9))]]
    factors = build_measurement_factors(meas, grid, params)
    assert [len(f.nodes) for f in factors] == [4, 1, 2, 2, 1, 4]
    for f, m in zip(factors, meas):
        (ref,) = build_measurement_factors([m], grid, params)
        assert type(f) is type(ref) and f.meas is m
        assert f.nodes == ref.nodes
        assert np.array_equal(f.weight, ref.weight)
        for got, want in ((f.temporal, ref.temporal),
                          (f.spatial, ref.spatial)):
            assert (got is None) == (want is None)
            for op, op_ref in zip(got or (), want or ()):
                assert np.max(np.abs(op - op_ref)) \
                    <= 1e-15 * np.max(np.abs(op_ref))


def test_offgrid_jacobians_fd(params):
    """Chained Jacobians of interpolated factors against grid-chart central
    differences."""
    grid = make_test_grid(params)
    pts = [(0.3, 0.7), (0.62, 1.9), (float(grid.s_knots[1]), 0.31)]
    rng = np.random.default_rng(8)
    for (s, t) in pts:
        for kind in ("position3", "strain6", "gyro3", "pose6"):
            if kind == "pose6":
                value = Pose.exp(0.05 * rng.standard_normal(6))
                meas = Measurement(kind, s, t, value, np.eye(6))
            else:
                dim = 3 if kind != "strain6" else 6
                meas = Measurement(kind, s, t, 0.1 * rng.standard_normal(dim),
                                   np.eye(dim))
            (f,) = build_measurement_factors([meas], grid, params)
            jacs = factor_terms(f, grid)[1:]
            h = 1e-6
            for slot, node in enumerate(f.nodes):
                cols = []
                for d in range(24):
                    dv = np.zeros(24 * grid.n_nodes)
                    dv[24 * node + d] = h
                    ep = factor_terms(f, apply_update(grid, dv), False)[0]
                    em = factor_terms(f, apply_update(grid, -dv), False)[0]
                    cols.append((ep - em) / (2 * h))
                J_fd = np.stack(cols, axis=1)
                assert np.max(np.abs(jacs[slot] - J_fd)) \
                    < 1e-5 * (1 + np.max(np.abs(J_fd)))


def test_offgrid_linear_regime_matches_dense(params):
    """At the chart origin the bound factor's linearization equals the dense
    conditional of the interpolated state on the corners."""
    N, K = 3, 3
    s_knots = np.linspace(0, 1.0, N)
    t_knots = np.linspace(0, 2.0, K)
    grid = build_grid(s_knots, t_knots, NodeState.identity())
    s, t = 0.3, 0.7
    meas = Measurement("position3", s, t, np.array([0.01, 0.0, 0.0]),
                       np.eye(3))
    (f,) = build_measurement_factors([meas], grid, params)
    W, _, corners = dense_condition_query(s_knots, t_knots, params, s, t)
    # the position error reads -translation: rows 0:3 of the query chart
    jacs = factor_terms(f, grid)[1:]
    for slot, (n, k) in enumerate(corners):
        Jm = np.zeros((3, 24))
        Jm[:, 0:3] = -np.eye(3)
        ref = Jm @ W[:, 24 * slot:24 * slot + 24]
        assert f.nodes[slot] == k * N + n
        assert np.max(np.abs(jacs[slot] - ref)) < 1e-8


def test_constant_field_interpolates_to_itself(params):
    # all corners identical with zero derivatives: the bound factor sees the
    # same state anywhere in the cell
    grid = build_grid(np.linspace(0, 1, 3), np.linspace(0, 2, 3),
                      NodeState(Pose.exp(np.array([0.1, 0.2, -0.1, 0, 0, 0.3])),
                                np.zeros(6), np.zeros(6), np.zeros(6)))
    x_ref = grid.states[0]
    for (s, t) in ((0.25, 0.33), (0.7, 1.51), (0.5, 1.0)):
        meas = Measurement("pose6", s, t, x_ref.pose, np.eye(6))
        (f,) = build_measurement_factors([meas], grid, params)
        assert np.max(np.abs(factor_terms(f, grid, False)[0])) < 1e-10


def test_zero_noise_measurements_zero_error(params):
    """Simulator output with std 0 evaluates to zero error at the true states
    for every measurement kind."""
    from stgp.sim import GroundTruth, ScenarioConfig, SensorSpec, \
        generate_measurements
    cfg = ScenarioConfig(
        length=0.5, n_space=4, n_time=3, duration=1.0, kappa0=0.6,
        kappa_a=0.2,
        sensors=[SensorSpec("strain6", 0.0, rate=2.0, locations="knots"),
                 SensorSpec("gyro3", 0.0, rate=2.0, locations=[0.25]),
                 SensorSpec("pose6", 0.0, rate=1.0, locations=[0.5]),
                 SensorSpec("position3", 0.0, samples=[[0.5, 0.5]])])
    truth = GroundTruth(cfg)
    grid = build_grid(cfg.s_knots, cfg.t_knots, truth.state)
    for m in generate_measurements(cfg, truth):
        x = truth.state(m.s, m.t)
        e, _ = measurement_model(m, x)
        assert np.max(np.abs(e)) < 1e-10
