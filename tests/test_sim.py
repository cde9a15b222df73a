"""The ground-truth simulator against independent planar physics, and the
noise contract of `generate_measurements`."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from stgp.cli import load_config
from stgp.liegroup import adjoint, pose_matrix, se3_log
from stgp.sim import GroundTruth, SensorSpec, generate_measurements


def planar_reference(cfg, s: float, t: float):
    """(R, p, world-frame velocity, world-frame strain, its time rate) of the
    planar rod whose tangent turns by theta(u, t) = kappa0 u + kappa_a
    sin(2 pi t / P) u^2 / (2 L), from quadratures of (cos theta, sin theta)
    and their time derivatives."""
    L, w = cfg.length, 2.0 * np.pi / cfg.period
    a = cfg.kappa_a * np.sin(w * t)
    da = cfg.kappa_a * w * np.cos(w * t)

    def theta(u):
        return cfg.kappa0 * u + a * u * u / (2.0 * L)

    def dtheta(u):
        return da * u * u / (2.0 * L)

    def integral(f):
        return quad(f, 0.0, s, epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    p = np.array([integral(lambda u: np.cos(theta(u))),
                  integral(lambda u: np.sin(theta(u))), 0.0])
    dp = np.array([integral(lambda u: -np.sin(theta(u)) * dtheta(u)),
                   integral(lambda u: np.cos(theta(u)) * dtheta(u)), 0.0])
    th, wz = theta(s), dtheta(s)
    c, sn = np.cos(th), np.sin(th)
    R = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
    # Tdot T^-1 = (pdot - omega x p, omega), omega = (0, 0, dtheta/dt)
    omega = np.array([0.0, 0.0, wz])
    vel = np.concatenate([dp - np.cross(omega, p), omega])
    # Ad(T) (e_x, kappa e_z): (R e_x + p x kappa e_z, kappa e_z)
    k = np.array([0.0, 0.0, cfg.kappa0 + a * s / L])
    dk = np.array([0.0, 0.0, da * s / L])
    tangent, dtangent = np.array([c, sn, 0.0]), wz * np.array([-sn, c, 0.0])
    eps = np.concatenate([tangent + np.cross(p, k), k])
    deps = np.concatenate([dtangent + np.cross(dp, k) + np.cross(p, dk), dk])
    return R, p, vel, eps, deps


# a rod that turns by up to 20 rad, one quadrature panel's worth
CURVED = {"kappa0": 15.0, "kappa_a": 5.0}


@pytest.mark.parametrize("duration,bend", [(2.0, {}), (0.0, {}),
                                           (2.0, CURVED)],
                         ids=["2.0", "0.0", "curved"])
def test_states_match_planar_physics(duration, bend):
    """Poses, strains and their time rates to 1e-12 at knots and between
    them, at both ends of the rod and at t = 0 and t = duration, on fig3 and
    on a strongly curved rod; a duration-0 scenario has zero rates."""
    cfg = dataclasses.replace(load_config("configs/fig3.json"), **bend)
    if duration == 0.0:
        cfg = dataclasses.replace(cfg, duration=0.0, n_time=1)
    rng = np.random.default_rng(4)
    s = np.concatenate([[0.0, 0.5, 1.0, 0.123456789],
                        rng.uniform(0.0, cfg.length, 8)])
    t = np.concatenate([[0.0, cfg.duration], rng.uniform(0.0, cfg.duration,
                                                         3)])
    s, t = np.repeat(s, len(t)), np.tile(t, len(s))
    got = GroundTruth(cfg).states(s, t)
    for i, (si, ti) in enumerate(zip(s, t)):
        R, p, vel, eps, deps = planar_reference(cfg, si, ti)
        assert np.max(np.abs(got.R[i] - R)) < 1e-12
        assert np.max(np.abs(got.t[i] - p)) < 1e-12
        assert np.max(np.abs(got.eps[i] - eps)) < 1e-12
        if duration == 0.0:
            assert not got.vel[i].any() and not got.sv[i].any()
        else:
            assert np.max(np.abs(got.vel[i] - vel)) < 1e-12
            assert np.max(np.abs(got.sv[i] - deps)) < 1e-12


@pytest.mark.parametrize("bend", [{}, CURVED], ids=["fig3", "curved"])
def test_rates_match_finite_differences(bend):
    """The exact derivatives against central differences of the states
    themselves, which share no formula with them: velocity against
    log(T(t+h) T(t-h)^-1) / 2h, strain rate against (eps(t+h) - eps(t-h)) /
    2h and strain against log(T(s+h) T(s-h)^-1) / 2h, at interior points,
    to 1e-8 (the differences' own error is below 3e-9 at h = 1e-5)."""
    cfg = dataclasses.replace(load_config("configs/fig3.json"), **bend)
    truth = GroundTruth(cfg)
    rng = np.random.default_rng(5)
    s = rng.uniform(0.01, cfg.length - 0.01, 20)
    t = rng.uniform(0.01, cfg.duration - 0.01, 20)
    h = 1e-5
    x = truth.states(s, t)

    def difference(ds, dt):
        plus, minus = truth.states(s + ds, t + dt), truth.states(s - ds, t - dt)
        log = se3_log(pose_matrix(plus.R, plus.t)
                      @ np.linalg.inv(pose_matrix(minus.R, minus.t)))
        return log / (2 * h), (plus.eps - minus.eps) / (2 * h)

    vel, sv = difference(0.0, h)
    eps, _ = difference(h, 0.0)
    assert np.max(np.abs(vel - x.vel)) < 1e-8
    assert np.max(np.abs(sv - x.sv)) < 1e-8
    assert np.max(np.abs(eps - x.eps)) < 1e-8


def test_states_reject_arclength_off_the_rod():
    cfg = load_config("configs/linear.json")
    truth = GroundTruth(cfg)
    for s in (-1e-6, cfg.length * (1 + 1e-6)):
        with pytest.raises(ValueError, match="arclength out of range"):
            truth.states([0.1, s], [0.0, 0.5])


def test_measurement_noise_contract():
    """Each value minus its noise-free prediction is std times the seed's
    unit normal draws, taken sensor by sensor in list order and sample by
    sample in schedule order (masked strain components only; the pose
    residual is log(value T^-1)); a sensor with no samples adds nothing and
    leaves the next sensor's draws unchanged."""
    mask = [True, False, True, False, False, True]
    cfg = dataclasses.replace(
        load_config("configs/linear.json"), seed=11,
        sensors=[SensorSpec("strain6", 0.02, rate=2.0, locations="knots",
                            mask=mask),
                 SensorSpec("pose6", 0.01, rate=3.0, locations=[0.0, 0.33]),
                 SensorSpec("position3", 0.5, samples=[]),
                 SensorSpec("gyro3", 0.03, rate=5.0,
                            locations=[0.17, 0.6])])
    truth = GroundTruth(cfg)
    meas = generate_measurements(cfg, truth)
    x = truth.states([m.s for m in meas], [m.t for m in meas])
    rng = np.random.default_rng(cfg.seed)
    i = 0
    for spec in cfg.sensors:
        points = spec.sample_points(cfg)
        for s, t in points:
            m = meas[i]
            assert (m.kind, m.s, m.t) == (spec.kind, s, t)
            T = np.eye(4)
            T[:3, :3], T[:3, 3] = x.R[i], x.t[i]
            if m.kind == "pose6":
                residual = se3_log(m.value @ np.linalg.inv(T))
            elif m.kind == "gyro3":
                residual = m.value - x.R[i].T @ x.vel[i, 3:]
            else:
                body = adjoint(np.linalg.inv(T)) @ x.eps[i]
                assert np.max(np.abs(m.value[~m.mask]
                                     - body[~m.mask])) < 1e-12
                residual = (m.value - body)[m.mask]
            draw = spec.std * rng.standard_normal(len(residual))
            assert np.max(np.abs(residual - draw)) < 1e-12
            i += 1
    assert i == len(meas)
    without_empty = dataclasses.replace(cfg, sensors=[
        spec for spec in cfg.sensors if spec.samples != []])
    for a, b in zip(meas, generate_measurements(without_empty, truth),
                    strict=True):
        assert np.array_equal(a.value, b.value)


def test_states_do_not_depend_on_their_batch():
    """A point's state is bit-identical alone and inside a larger batch."""
    cfg = load_config("configs/linear.json")
    truth = GroundTruth(cfg)
    rng = np.random.default_rng(9)
    s = np.append(rng.uniform(0.0, cfg.length, 15), cfg.s_knots)
    t = np.append(rng.uniform(0.0, cfg.duration, 15),
                  np.full(len(cfg.s_knots), cfg.duration))
    batch = truth.states(s, t)
    for i in (0, 7, 15, 18):
        one = truth.states(s[i:i + 1], t[i:i + 1])
        for f in dataclasses.fields(batch):
            assert np.array_equal(getattr(one, f.name)[0],
                                  getattr(batch, f.name)[i])
