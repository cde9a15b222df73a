"""Workloads, timed steps, output checks and metrics of the pipeline
benchmark.  `run.py` imports this module only after it has capped the BLAS
threads, because numpy reads the cap when it is first imported.

The steps of the user pipeline on one workload:
  estimate    `stgp estimate` in-process (set-up, Gauss-Newton, covariance,
              estimate.csv, report.json, posterior.bin)
  set-up      the estimate command's set-up on its own
  query       `stgp query --grid SxT` in-process (posterior load included)
  points      `query_state` at seeded random off-knot points on the loaded
              posterior, timed one by one
Every operation starts after the previous one returns (a closed loop with
one client).  `sim` makes the inputs before any timing and is never timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import stgp.query as squery
import stgp.sensors as ssensors
import stgp.solver as ssolver
from stgp import cli
from stgp.graph import FactorSet, build_grid, build_prior_factors
from stgp.liegroup import so3_log
from stgp.prior import chart_encode
from stgp.sensors import (InterpolatedMeasurementFactor,
                          NodeMeasurementFactor, build_measurement_factors)
from stgp.sim import GroundTruth, generate_measurements
from stgp.solver import (corner_covariances, evaluate_cost, factorize,
                         linearize, solve_factorized)

from tracing import Tracer

PROBE_POINTS = 100


@dataclass(frozen=True)
class Workload:
    config: str             # scenario file, relative to the repository root
    grid: str               # `query --grid` argument
    points: int             # random off-knot query_state points
    measurements: int       # expected measurement count
    interp_factors: int     # expected off-knot (interpolated) factors
    max_pos_rmse_mm: float  # accuracy gate, with margin over the measured value


WORKLOADS: Dict[str, Workload] = {
    # the paper's reference scenario: all sensors on knots, query-heavy
    "fig3": Workload("configs/fig3.json", "20x20", 400, 233, 0, 4.0),
    # off-knot strain and gyro: linearizing interpolated factors dominates
    "async": Workload("bench/scenarios/async.json", "10x10", 100, 411, 385,
                      6.5),
    # twice the arclength knots: the dense time-row superblocks dominate
    "long_rod": Workload("bench/scenarios/long_rod.json", "10x10", 100, 453,
                         0, 3.5),
    # configs/linear.json-sized: every code path in seconds (smoke test only)
    "smoke": Workload("configs/linear.json", "3x3", 10, 14, 2, 300.0),
}

# Which layer should dominate which workload, by design: (metric, minimum).
SHARE_CHECKS = {
    "fig3": ("share.query_of_pipeline", 0.5),
    "async": ("share.gn_linearize_of_gn", 0.80),
    "long_rod": ("share.factorize_cov_of_estimate", 0.60),
}

# Spans of a traced pass: (owner, attribute, span name).  The owner is the
# namespace the caller looks the name up in.
TRACE_POINTS = [
    (cli, "cmd_estimate", "cli.cmd_estimate"),
    (cli, "cmd_query", "cli.cmd_query"),
    (cli, "load_measurements", "cli.load_measurements"),
    (cli, "build_grid", "graph.build_grid"),
    (cli, "build_prior_factors", "graph.build_prior_factors"),
    (cli, "build_measurement_factors", "sensors.build_measurement_factors"),
    (ssensors, "make_interpolant", "query.make_interpolant"),
    (cli, "gauss_newton", "solver.gauss_newton"),
    (ssolver, "factorize", "solver.factorize"),
    (ssolver, "solve_factorized", "solver.solve_factorized"),
    (ssolver, "corner_covariances", "solver.corner_covariances"),
    (cli, "write_state_csv", "cli.write_state_csv"),
    (cli, "save_posterior", "cli.save_posterior"),
    (cli, "load_posterior", "cli.load_posterior"),
    (cli, "query_state", "query.query_state"),
    (squery, "query_state", "query.query_state"),
    (squery, "make_interpolant", "query.make_interpolant"),
    (ssolver.CornerCovariances, "joint", "solver.CornerCovariances.joint"),
]
PIPELINE_ROOTS = ("cli.cmd_estimate", "cli.cmd_query", "query.query_state")


class Ops:
    """Attempted and failed operations; an operation fails when it raises or
    when any check on its output does."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"{what}: {p}" for p in problems)


@dataclass
class Inputs:
    cfg: object
    meas_path: str
    truth: list              # ground-truth NodeStates at the knots
    points: np.ndarray       # (P, 2) random off-knot (s, t)


def make_inputs(root: str, wl: Workload, seed: int, work: str) -> Inputs:
    """Simulate the scenario and draw the query points.

    Measurement noise comes from the scenario file's own seed, so accuracy
    and every count repeat exactly across benchmark seeds; `seed` draws the
    random query points.
    """
    cfg = cli.load_config(os.path.join(root, wl.config))
    truth = GroundTruth(cfg)
    meas_path = os.path.join(work, "measurements.json")
    cli.save_measurements(meas_path, generate_measurements(cfg, truth))
    rng = np.random.default_rng(seed)
    s0, s1 = cfg.s_knots[0], cfg.s_knots[-1]
    t0, t1 = cfg.t_knots[0], cfg.t_knots[-1]
    points = np.column_stack([rng.uniform(s0, s1, wl.points),
                              rng.uniform(t0, t1, wl.points)])
    return Inputs(cfg, meas_path, truth.grid_states(), points)


def set_up(cfg, meas_path: str):
    """The estimate command's set-up, through the same public functions."""
    params = cfg.prior_params()
    measurements = cli.load_measurements(meas_path)
    grid = build_grid(cfg.s_knots, cfg.t_knots, params.prior_mean)
    factors = build_prior_factors(grid, params)
    factors.measurement = build_measurement_factors(measurements, grid,
                                                    params)
    return grid, factors


def factor_split(factors) -> Dict[str, int]:
    return {
        "node": sum(isinstance(f, NodeMeasurementFactor)
                    for f in factors.measurement),
        "interp": sum(isinstance(f, InterpolatedMeasurementFactor)
                      for f in factors.measurement),
    }


def setup_problems(wl: Workload, factors) -> List[str]:
    split = factor_split(factors)
    n = len(factors.measurement)
    problems = []
    if n != wl.measurements:
        problems.append(f"{n} measurements, expected {wl.measurements}")
    if split["interp"] != wl.interp_factors \
            or split["node"] != wl.measurements - wl.interp_factors:
        problems.append(f"factor split {split}, expected "
                        f"{wl.measurements - wl.interp_factors} on-node and "
                        f"{wl.interp_factors} interpolated")
    return problems


def warm_up(inputs: Inputs, work: str) -> None:
    """One Gauss-Newton iteration, a tiny grid query and a few points, so
    allocator pools and lazy imports are in place before timing."""
    out = os.path.join(work, "warm")
    cfg = dataclasses.replace(inputs.cfg, max_iters=1)
    with contextlib.redirect_stderr(io.StringIO()):
        cli.cmd_estimate(cfg, out, measurements_path=inputs.meas_path)
    cli.cmd_query(out, grid_arg="2x2", stream=io.StringIO())
    post = cli.load_posterior(os.path.join(out, "posterior.bin"))
    for s, t in inputs.points[:10]:
        squery.query_state(post, float(s), float(t))
    shutil.rmtree(out)


@contextlib.contextmanager
def capture_posterior():
    """Keep the in-memory posterior that `estimate` hands to save_posterior."""
    box = {}
    orig = cli.save_posterior

    def save(path, post, report):
        box["post"] = post
        return orig(path, post, report)

    cli.save_posterior = save
    try:
        yield box
    finally:
        cli.save_posterior = orig


def grid_problems(rc: int, text: str, grid_arg: str) -> List[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    ns, nt = (int(v) for v in grid_arg.split("x"))
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    problems = []
    if rows.shape != (ns * nt, len(cli.STATE_COLUMNS) + 24):
        problems.append(f"output table has shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite value in output table")
    if np.any(rows[:, len(cli.STATE_COLUMNS):] < 0):
        problems.append("negative std in output table")
    return problems


def roundtrip_problems(post, loaded) -> List[str]:
    """load_posterior(save_posterior(p)) must give p back bit for bit."""
    problems = []
    if not (np.array_equal(post.grid.s_knots, loaded.grid.s_knots)
            and np.array_equal(post.grid.t_knots, loaded.grid.t_knots)):
        problems.append("knots differ after load")
    a, b = post.grid.state_arrays(), loaded.grid.state_arrays()
    for f in ("R", "t", "eps", "vel", "sv"):
        if not np.array_equal(getattr(a, f), getattr(b, f)):
            problems.append(f"state field {f} differs after load")
    for f in ("sig_diag", "sig_off"):
        if not np.array_equal(getattr(post.cov, f), getattr(loaded.cov, f)):
            problems.append(f"covariance {f} differs after load")
    return problems


def point_problems(result, reference=None) -> List[str]:
    x, cov = result
    with np.errstate(invalid="ignore"):
        std = np.sqrt(np.diag(cov))
    problems = []
    if not np.all(np.isfinite(std)) or np.any(std < 0):
        problems.append("std not finite and >= 0")
    if reference is not None:
        xr, cr = reference
        same = (np.array_equal(x.pose.R, xr.pose.R)
                and np.array_equal(x.pose.t, xr.pose.t)
                and np.array_equal(x.strain, xr.strain)
                and np.array_equal(x.velocity, xr.velocity)
                and np.array_equal(x.strain_velocity, xr.strain_velocity)
                and np.array_equal(cov, cr))
        if not same:
            problems.append("loaded posterior answers differently from the "
                            "in-memory one")
    return problems


def accuracy(post, truth) -> Dict[str, float]:
    """Node errors against sim.GroundTruth at the knots.

    The estimate.csv/ground_truth.csv route is not used: cli.read_state_csv
    cannot read the files write_state_csv writes.
    """
    marg = post.cov.node_marginals
    pos, rot, nees = [], [], []
    for i, (x, xt) in enumerate(zip(post.grid.states, truth)):
        pos.append(float(np.sum((x.pose.t - xt.pose.t) ** 2)))
        rot.append(float(np.sum(so3_log(xt.pose.R.T @ x.pose.R) ** 2)))
        e = chart_encode(xt, x.pose) - x.derivative_vector()
        nees.append(float(e @ np.linalg.solve(marg[i], e)))
    ratio = statistics.fmean(nees) / 24.0
    return {"pos_rmse_mm": 1e3 * math.sqrt(statistics.fmean(pos)),
            "rot_rmse_deg": math.degrees(math.sqrt(statistics.fmean(rot))),
            "nees_ratio": ratio,
            # lower is better: the factor by which NEES/24 is off from 1
            "nees": max(ratio, 1.0 / ratio)}


@dataclass
class Estimate:
    seconds: float
    post: object      # the in-memory posterior the estimate command saved
    loaded: object    # the same posterior read back from posterior.bin
    accuracy: Optional[Dict[str, float]] = None


def estimate_step(wl: Workload, inputs: Inputs, work: str, ops: Ops,
                  first: bool) -> Estimate:
    """`stgp estimate`, then the save/load round trip; the first estimate of
    a run also checks accuracy.

    The steps look module attributes up at call time, so a Tracer's patches
    see every call.
    """
    out = os.path.join(work, "run")
    with capture_posterior() as box:
        t0 = time.perf_counter()
        rc = cli.cmd_estimate(inputs.cfg, out,
                              measurements_path=inputs.meas_path)
        seconds = time.perf_counter() - t0
    post = box["post"]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if not post.report.converged:
        problems.append(f"not converged: {post.report.message}")
    acc = None
    if first:
        acc = accuracy(post, inputs.truth)
        if not acc["pos_rmse_mm"] < wl.max_pos_rmse_mm:
            problems.append(f"pos_rmse_mm {acc['pos_rmse_mm']:.3f} over "
                            f"bound {wl.max_pos_rmse_mm}")
    ops.record("estimate", problems)
    loaded = cli.load_posterior(os.path.join(out, "posterior.bin"))
    ops.record("save/load round trip", roundtrip_problems(post, loaded))
    return Estimate(seconds, post, loaded, acc)


def query_step(wl: Workload, work: str, ops: Ops) -> float:
    """`stgp query --grid`, posterior load included."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    rc = cli.cmd_query(os.path.join(work, "run"), grid_arg=wl.grid,
                       stream=buf)
    seconds = time.perf_counter() - t0
    ops.record("query --grid", grid_problems(rc, buf.getvalue(), wl.grid))
    return seconds


def points_step(inputs: Inputs, loaded, ops: Ops,
                reference=None) -> List[float]:
    """query_state at every random point, timed one by one.  With a
    reference posterior, every answer must equal the reference's."""
    latencies, results = [], []
    for s, t in inputs.points:
        t0 = time.perf_counter()
        results.append(squery.query_state(loaded, float(s), float(t)))
        latencies.append(time.perf_counter() - t0)
    for (s, t), res in zip(inputs.points, results):
        ref = None if reference is None \
            else squery.query_state(reference, float(s), float(t))
        ops.record("query_state", point_problems(res, ref))
    return latencies


def _quantile_ms(latencies: List[float], q: int) -> float:
    """q-th decile in milliseconds (q=5 is the median)."""
    return 1e3 * statistics.quantiles(latencies, n=10)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(wl: Workload, inputs: Inputs, work: str, ops: Ops,
            seconds: float):
    """End-to-end metrics.  Estimates alternate with rounds of (set-up,
    query --grid, points) until `seconds` run out.  After each estimate the
    rounds take about as long as the estimate did, so every metric samples
    the whole run: on a shared machine the speed shifts within seconds.
    Returns (metrics, sample-count note)."""
    t_end = time.perf_counter() + seconds
    est_s, setup_s, query_s, lat = [], [], [], []
    acc = None
    done = False
    while not done:
        gc.collect()
        est = estimate_step(wl, inputs, work, ops, first=acc is None)
        acc = acc or est.accuracy
        est_s.append(est.seconds)
        reference = est.post if len(est_s) == 1 else None
        rounds_end = time.perf_counter() + est.seconds
        while True:
            r0 = time.perf_counter()
            (_, factors), dt = _timed(set_up, inputs.cfg, inputs.meas_path)
            setup_s.append(dt)
            ops.record("set-up", setup_problems(wl, factors))
            query_s.append(query_step(wl, work, ops))
            lat.extend(points_step(inputs, est.loaded, ops, reference))
            reference = None
            now = time.perf_counter()
            r_dur = now - r0
            if now + r_dur > t_end:
                done = True
                break
            if now >= rounds_end and now + est.seconds + r_dur <= t_end:
                break
        del est
    post_path = os.path.join(work, "run", "posterior.bin")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "estimate_s": statistics.median(est_s),
        "query_s": statistics.median(query_s),
        "query_p50_ms": _quantile_ms(lat, 5),
        "query_p90_ms": _quantile_ms(lat, 9),
        "posterior_mb": os.path.getsize(post_path) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "pos_rmse_mm": acc["pos_rmse_mm"],
        "rot_rmse_deg": acc["rot_rmse_deg"],
        "nees": acc["nees"],
        "ok_frac": (ops.attempted - ops.failed) / ops.attempted,
    }
    note = (f"samples: {len(est_s)} estimate, {len(setup_s)} set-up, "
            f"{len(query_s)} query --grid, {len(lat)} query_state; "
            f"nees_ratio {acc['nees_ratio']:.6g}; fail_frac "
            f"{ops.failed / ops.attempted:.6g}")
    return metrics, note


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def layer_probes(factors, post) -> Dict[str, float]:
    """Single calls into each layer at the converged state, timed from
    outside; linearize is split by calling it on one-family FactorSets."""
    m: Dict[str, float] = {}
    grid = post.grid
    system, m["solver.linearize_s"] = _timed(linearize, factors, grid)
    meas = factors.measurement
    families = {
        "unary": FactorSet(unary=factors.unary),
        "spatial": FactorSet(binary_spatial=factors.binary_spatial),
        "temporal": FactorSet(binary_temporal=factors.binary_temporal),
        "cell": FactorSet(quaternary=factors.quaternary),
        "meas_node": FactorSet(measurement=[
            f for f in meas if isinstance(f, NodeMeasurementFactor)]),
        "meas_interp": FactorSet(measurement=[
            f for f in meas if isinstance(f, InterpolatedMeasurementFactor)]),
    }
    for fam, fs in families.items():
        m[f"solver.linearize.{fam}_s"] = _timed(linearize, fs, grid)[1]
    m["solver.evaluate_cost_s"] = _timed(evaluate_cost, factors, grid)[1]
    fact, m["solver.factorize_s"] = _timed(factorize, system)
    m["solver.solve_s"] = _timed(solve_factorized, fact, system.rhs_flat())[1]
    cov, m["solver.covariance_s"] = _timed(corner_covariances, fact)
    m["solver.system_bytes"] = (system.diag.nbytes + system.offdiag.nbytes
                                + system.rhs.nbytes)
    m["solver.factor_bytes"] = (sum(a.nbytes for a in fact.L)
                                + sum(a.nbytes for a in fact.X))
    m["solver.cov_bytes"] = cov.sig_diag.nbytes + cov.sig_off.nbytes
    split = factor_split(factors)
    m["sensors.node_factors"] = split["node"]
    m["sensors.interp_factors"] = split["interp"]
    return m


def query_probes(wl: Workload, inputs: Inputs, loaded) -> Dict[str, float]:
    """Per-point timings of each query stage, and how many nodes each query
    point (grid and random) binds to."""
    g, params = loaded.grid, loaded.params
    stages = {"interpolant": [], "cov_joint": [], "mean": [], "state": []}
    for s, t in inputs.points[:PROBE_POINTS]:
        s, t = float(s), float(t)
        interp, dt = _timed(squery.make_interpolant, g.s_knots, g.t_knots,
                            params, s, t)
        stages["interpolant"].append(dt)
        stages["cov_joint"].append(
            _timed(loaded.cov.joint, interp.node_ids)[1])
        stages["mean"].append(_timed(squery.query_mean, loaded, s, t)[1])
        stages["state"].append(_timed(squery.query_state, loaded, s, t)[1])
    m = {f"query.{k}_ms": 1e3 * statistics.median(v)
         for k, v in stages.items()}
    ns, nt = (int(v) for v in wl.grid.split("x"))
    grid_pts = [(float(s), float(t))
                for t in np.linspace(g.t_knots[0], g.t_knots[-1], nt)
                for s in np.linspace(g.s_knots[0], g.s_knots[-1], ns)]
    binds = {1: 0, 2: 0, 4: 0}
    for s, t in grid_pts + [tuple(map(float, p)) for p in inputs.points]:
        ids = squery.make_interpolant(g.s_knots, g.t_knots, params, s,
                                      t).node_ids
        binds[len(ids)] += 1
    for n, count in binds.items():
        m[f"query.bind{n}_points"] = count
    return m


def per_layer(wl: Workload, inputs: Inputs, work: str, tr: Tracer, factors,
              traced: Estimate, untraced_s: Tuple[float, float]
              ) -> Dict[str, float]:
    """Per-layer metrics from the traced pass's spans and estimate, plus
    single calls into each layer.  `untraced_s` holds the untraced pass's
    (estimate, query --grid) times."""
    post = traced.post
    est = "cli.cmd_estimate"
    rep = post.report
    est_s = tr.total(est)
    query_s = tr.total("cli.cmd_query")
    points_s = tr.total("query.query_state", root="query.query_state")
    gn_s = tr.total("solver.gauss_newton")
    m = {
        "graph.build_grid_s": tr.total("graph.build_grid", root=est),
        "graph.build_prior_factors_s": tr.total("graph.build_prior_factors",
                                                root=est),
        "cli.load_measurements_s": tr.total("cli.load_measurements",
                                            root=est),
        "sensors.bind_s": tr.total("sensors.build_measurement_factors",
                                   root=est),
        "solver.gn_s": gn_s,
        "solver.gn_iters": rep.iterations,
        "solver.gn_halvings": sum(rep.halvings),
        "solver.linearize_calls": 1 + sum(h + 1 for h in rep.halvings),
        "solver.gn_linearize_s": rep.time_linearize,
        "solver.gn_factorize_s": tr.total("solver.factorize", root=est),
        "solver.gn_solve_s": tr.total("solver.solve_factorized", root=est),
        "cli.write_state_csv_s": tr.total("cli.write_state_csv", root=est),
        "cli.save_posterior_s": tr.total("cli.save_posterior", root=est),
        "cli.load_posterior_s": tr.total("cli.load_posterior",
                                         root="cli.cmd_query"),
        "cli.posterior_bytes": os.path.getsize(
            os.path.join(work, "run", "posterior.bin")),
    }
    m.update(layer_probes(factors, post))
    m.update(query_probes(wl, inputs, traced.loaded))
    selfs = tr.self_times(PIPELINE_ROOTS)
    for layer in ("cli", "graph", "sensors", "solver", "query"):
        m[f"self.{layer}_s"] = selfs.get(layer, 0.0)
    cov_s = tr.total("solver.corner_covariances", root=est)
    m["share.gn_linearize_of_gn"] = rep.time_linearize / gn_s
    m["share.factorize_cov_of_estimate"] = \
        (m["solver.gn_factorize_s"] + cov_s) / est_s
    m["share.query_of_pipeline"] = (query_s + points_s) \
        / (est_s + query_s + points_s)
    m["trace.estimate_overhead_s"] = est_s - untraced_s[0]
    m["trace.query_overhead_s"] = query_s - untraced_s[1]
    return m


def run(root: str, name: str, seed: int, seconds: float, trace: bool,
        work: str, trace_path: str):
    """Run one workload; returns (ops, metrics, notes)."""
    wl = WORKLOADS[name]
    ops = Ops()
    inputs = make_inputs(root, wl, seed, work)
    warm_up(inputs, work)
    if not trace:
        metrics, note = measure(wl, inputs, work, ops, seconds)
        return ops, metrics, [note]

    # one untraced pass, then the same pass traced
    _, factors = set_up(inputs.cfg, inputs.meas_path)
    ops.record("set-up", setup_problems(wl, factors))
    est = estimate_step(wl, inputs, work, ops, first=True)
    untraced_s = (est.seconds, query_step(wl, work, ops))
    points_step(inputs, est.loaded, ops, reference=est.post)
    del est
    gc.collect()
    tr = Tracer()
    for owner, attr, span in TRACE_POINTS:
        tr.patch(owner, attr, span)
    try:
        est = estimate_step(wl, inputs, work, ops, first=False)
        query_step(wl, work, ops)
        points_step(inputs, est.loaded, ops)
    finally:
        tr.restore()
    tr.dump(trace_path)
    metrics = per_layer(wl, inputs, work, tr, factors, est, untraced_s)
    notes = []
    check = SHARE_CHECKS.get(name)
    if check:
        metric, low = check
        verdict = "ok" if metrics[metric] >= low else "MISSED"
        notes.append(f"layer share {metric} = {metrics[metric]:.3f}, design "
                     f"wants >= {low}: {verdict}")
    notes.append(f"spans written to {os.path.relpath(trace_path, root)}")
    return ops, metrics, notes
