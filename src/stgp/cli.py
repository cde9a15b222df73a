"""Experiment driver: simulate -> estimate -> query.

  simulate --config C --out D [--seed S]
      writes measurements.json and ground_truth.csv (S overrides the config
      seed, which draws the measurement noise)
  estimate --config C --out D [--measurements M]
      writes report.json, estimate.csv and posterior.bin
  query --out D (--s S --t T | --grid SxT)
      prints posterior state rows, with standard deviations, as CSV

All artifacts are schema-versioned ("stgp.<kind>/<major>.<minor>", per kind
in SCHEMA_VERSIONS); readers reject unknown majors.  JSON files are written
with sorted keys so identical inputs produce bit-identical bytes.  CSV files
carry a leading "# schema" comment, a header row, and floats formatted with
%.17g (exact round-trip).

posterior.bin is a NumPy .npz archive:
  schema            stgp.posterior tag
  s_knots, t_knots  grid knot vectors
  qs_psd, qt_psd, qst_psd, p0            prior parameters
  mean_R, mean_t, mean_strain, mean_velocity, mean_sv   prior mean state
  R (NK,3,3), t (NK,3), strain, velocity, sv (NK,6)     node estimates
  sig_diag (K,N,24,24)    node marginal covariances, node (n, k) at [k, n]
  sig_off (K,N,4,24,24)   covariances of node (n, k) with (n+1, k), (n-1, k+1),
                          (n, k+1), (n+1, k+1); zero where no such node is
  report            report.json content as a JSON string
(Major version 1 stored dense time-row covariance superblocks instead.)

Exit codes: 0 ok; 3 I/O failure (posterior.bin truncated included); 4
estimator did not converge (artifacts still written); 5 normal equations not
positive definite; 2 invalid input, which is one of
  config         a field missing or out of range (simulate's --seed counts
                 as the seed field); an integer field (n_space, n_time,
                 seed, max_iters) not an integer; a number (a prior
                 diagonal and a sensor's std and its square, rate, samples
                 and locations included) not finite; a sensor's samples
                 not (s, t) pairs, its locations neither "knots" nor
                 arclengths, or its mask not six booleans; max_iters < 1;
                 tol <= 0 (tol bounds the Gauss-Newton decrement at
                 convergence, in chi-square units of the cost)
  simulate       a sample off the rod or outside [0, duration], a rod that
                 turns more than the simulator integrates, or a ground-truth
                 value that is not finite
  measurements   a record malformed, its value or noise_cov not finite, or
                 a pose6 quaternion all zero
  query          a point out of the hull or not finite; --grid given with
                 --s or --t
  posterior.bin  an array missing or of a shape that does not fit the knot
                 counts, knots not finite and increasing, the prior mean
                 state mis-shaped or not finite, or a prior PSD or p0 not
                 finite, not symmetric or not positive semidefinite
Failures write no standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import zipfile
from typing import List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .graph import Grid, build_grid, build_prior_factors
from .liegroup import (pose_matrix, quaternion_to_rotation,
                       rotation_to_quaternion)
from .prior import PriorParams, StateArrays
# query_state is kept only because the frozen bench/pipeline.py patches it
from .query import (OutOfHullError, bind, query_state,  # noqa: F401
                    query_states)
from .sensors import Measurement, build_measurement_factors
from .sim import (GroundTruth, ScenarioConfig, SensorSpec,
                  generate_measurements)
from .solver import (BLOCK, SLOTS, ConvergenceReport, CornerCovariances,
                     NotPositiveDefiniteError, Posterior, SolverOptions,
                     gauss_newton)

# (major, minor) of each artifact kind
SCHEMA_VERSIONS = {"config": (1, 0), "measurements": (1, 0),
                   "ground_truth": (1, 0), "estimate": (1, 0),
                   "report": (1, 1), "posterior": (2, 0)}

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_NO_CONVERGENCE = 4
EXIT_NOT_PD = 5

# points per query_states call in cmd_query, and rows per text slice of a
# state table.  A call's traced peak is about 185 KB per point, 11.9 MB at 64
# on fig3; fig3's whole `query --grid 20x20` took 228, 170, 149 and 160 ms
# at 16, 32, 64 and 128 (medians of 20 rounds interleaved in one process,
# 2-core Xeon VM)
CHUNK = 64


class SchemaError(ValueError):
    pass


class ConfigError(ValueError):
    pass


def schema_tag(kind: str) -> str:
    major, minor = SCHEMA_VERSIONS[kind]
    return f"stgp.{kind}/{major}.{minor}"


def check_schema(tag, kind: str) -> None:
    if not isinstance(tag, str) or "/" not in tag:
        raise SchemaError(f"missing schema tag, expected {schema_tag(kind)}")
    name, _, version = tag.partition("/")
    major = version.split(".", 1)[0]
    if name != f"stgp.{kind}" or not major.isdigit() \
            or int(major) != SCHEMA_VERSIONS[kind][0]:
        raise SchemaError(f"cannot read {tag!r}, expected {schema_tag(kind)}")


# ---------------------------------------------------------------------------
# config files


def config_from_dict(d: dict) -> ScenarioConfig:
    # a file that is not a JSON object has no schema tag
    check_schema(d.get("schema") if isinstance(d, dict) else None, "config")
    try:
        sensors = [SensorSpec(kind=rec["kind"], std=rec["std"],
                              rate=rec.get("rate"),
                              locations=rec.get("locations"),
                              samples=[tuple(p) for p in rec["samples"]]
                              if rec.get("samples") is not None else None,
                              mask=rec.get("mask"))
                   for rec in d.get("sensors", [])]
        return ScenarioConfig(
            length=d["length"], n_space=d["n_space"], n_time=d["n_time"],
            duration=d["duration"], kappa0=d.get("kappa0", 1.0),
            kappa_a=d.get("kappa_a", 0.5), period=d.get("period", 2.0),
            qs_diag=d.get("qs_diag", np.ones(6)),
            qt_diag=d.get("qt_diag", np.ones(6)),
            qst_diag=d.get("qst_diag", np.ones(6)),
            p0_diag=d.get("p0_diag", np.ones(24)),
            sensors=sensors, seed=d.get("seed", 0),
            max_iters=d.get("max_iters", 50), tol=d.get("tol", 1e-8))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return config_from_dict(raw)


def _dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# measurement files


def measurement_to_dict(m: Measurement) -> dict:
    rec = {"kind": m.kind, "s": m.s, "t": m.t,
           "noise_cov": [list(row) for row in np.asarray(m.noise_cov)]}
    if m.kind == "pose6":
        quat = rotation_to_quaternion(m.value[:3, :3])
        rec["value"] = {"quat_wxyz": list(quat),
                        "translation": list(m.value[:3, 3])}
    else:
        rec["value"] = list(np.asarray(m.value, dtype=float))
    if m.kind == "strain6":
        rec["mask"] = [bool(b) for b in m.mask]
    return rec


def measurement_from_dict(rec: dict) -> Measurement:
    value = rec["value"]
    if rec["kind"] == "pose6":
        quat = np.asarray(value["quat_wxyz"], dtype=float)
        if quat.shape != (4,) or not np.all(np.isfinite(quat)) \
                or not np.any(quat):
            raise ValueError("pose6 quat_wxyz must hold 4 finite numbers,"
                             " not all zero")
        value = pose_matrix(quaternion_to_rotation(quat),
                            np.asarray(value["translation"], dtype=float))
    return Measurement(rec["kind"], rec["s"], rec["t"], value,
                       np.asarray(rec["noise_cov"], dtype=float),
                       mask=rec.get("mask"))


def save_measurements(path: str, measurements: Sequence[Measurement]) -> None:
    _dump_json({"schema": schema_tag("measurements"),
                "measurements": [measurement_to_dict(m) for m in measurements]},
               path)


def load_measurements(path: str) -> List[Measurement]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    check_schema(raw.get("schema") if isinstance(raw, dict) else None,
                 "measurements")
    try:
        return [measurement_from_dict(rec) for rec in raw["measurements"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid measurements: {exc!r}") from exc


# ---------------------------------------------------------------------------
# CSV state tables


STATE_COLUMNS = (["s", "t", "x", "y", "z", "qw", "qx", "qy", "qz"]
                 + [f"eps{i}" for i in range(1, 7)]
                 + [f"pi{i}" for i in range(1, 7)]
                 + [f"psi{i}" for i in range(1, 7)])
STD_COLUMNS = [f"std{i}" for i in range(1, 25)]


def state_rows(s, t, states: StateArrays, stds: Optional[np.ndarray] = None):
    """CSV lines of the states at the points (s[i], t[i]), each followed by
    its 24 standard deviations when `stds` is given: every value formatted
    %.17g, yielded as text slices of CHUNK lines at most."""
    cols = [np.asarray(s, dtype=float)[:, None],
            np.asarray(t, dtype=float)[:, None], states.t,
            rotation_to_quaternion(states.R), states.eps, states.vel,
            states.sv]
    if stds is not None:
        cols.append(stds)
    line = ",".join(["%.17g"] * sum(c.shape[1] for c in cols)) + "\n"
    for lo in range(0, len(states), CHUNK):
        table = np.concatenate([c[lo:lo + CHUNK] for c in cols], axis=1)
        yield (line * len(table)) % tuple(table.ravel().tolist())


def write_state_csv(path: str, kind: str, s, t, states: StateArrays,
                    stds: Optional[np.ndarray] = None) -> None:
    header = ",".join(STATE_COLUMNS + (STD_COLUMNS if stds is not None
                                       else []))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {schema_tag(kind)}\n{header}\n")
        for text in state_rows(s, t, states, stds):
            fh.write(text)


def read_state_csv(path: str, kind: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    check_schema(first.lstrip("# "), kind)
    # the schema comment would otherwise be taken for the header row
    return np.genfromtxt(path, delimiter=",", skip_header=1, names=True)


# ---------------------------------------------------------------------------
# posterior archive


def save_posterior(path: str, post: Posterior, report_dict: dict) -> None:
    grid, params = post.grid, post.params
    mean = params.prior_mean
    sa = grid.states
    payload = dict(
        schema=schema_tag("posterior"),
        s_knots=grid.s_knots, t_knots=grid.t_knots,
        qs_psd=params.qs_psd, qt_psd=params.qt_psd,
        qst_psd=params.qst_psd, p0=params.p0,
        mean_R=mean.R[0], mean_t=mean.t[0], mean_strain=mean.eps[0],
        mean_velocity=mean.vel[0], mean_sv=mean.sv[0],
        R=sa.R, t=sa.t, strain=sa.eps, velocity=sa.vel, sv=sa.sv,
        sig_diag=post.cov.sig_diag, sig_off=post.cov.sig_off,
        report=json.dumps(report_dict, sort_keys=True))
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_posterior(path: str) -> Posterior:
    """The posterior archive at `path`.  OSError when it cannot be read as
    an archive, SchemaError when it lacks an array or a report field, when
    its knots are not finite and increasing, when an array's shape does
    not fit the knot counts or when the prior mean state is mis-shaped or
    not finite; ValueError when `PriorParams` refuses a PSD or p0.  A report
    of stgp.report/1.0 loads with no decrements."""
    if not zipfile.is_zipfile(path):  # also false for a missing file
        raise OSError(f"cannot read {path}: missing or not a zip archive")
    try:
        with np.load(path, allow_pickle=False) as z:
            check_schema(str(z["schema"]), "posterior")
            s_knots, t_knots = z["s_knots"], z["t_knots"]
            for name, knots in (("s_knots", s_knots), ("t_knots", t_knots)):
                if knots.ndim != 1 or not len(knots) \
                        or not np.all(np.isfinite(knots)) \
                        or np.any(np.diff(knots) <= 0):
                    raise SchemaError(f"posterior {path}: {name} must be "
                                      "finite and increasing")
            N, K = len(s_knots), len(t_knots)
            shapes = dict(R=(N * K, 3, 3), t=(N * K, 3), strain=(N * K, 6),
                          velocity=(N * K, 6), sv=(N * K, 6),
                          sig_diag=(K, N, BLOCK, BLOCK),
                          sig_off=(K, N, SLOTS - 1, BLOCK, BLOCK),
                          mean_R=(3, 3), mean_t=(3,), mean_strain=(6,),
                          mean_velocity=(6,), mean_sv=(6,))
            arrays = {name: z[name] for name in shapes}
            for name, shape in shapes.items():
                got = arrays[name].shape
                if got != shape:
                    raise SchemaError(f"posterior {path}: {name} has shape "
                                      f"{got}, expected {shape}")
            for name in shapes:
                if name.startswith("mean_") \
                        and not np.all(np.isfinite(arrays[name])):
                    raise SchemaError(f"posterior {path}: {name} not finite")
            names = ("R", "t", "strain", "velocity", "sv")
            states = StateArrays(*(arrays[name] for name in names))
            mean = StateArrays(*(arrays["mean_" + name][None]
                                 for name in names))
            params = PriorParams(qs_psd=z["qs_psd"], qt_psd=z["qt_psd"],
                                 qst_psd=z["qst_psd"], p0=z["p0"],
                                 prior_mean=mean)
            cov = CornerCovariances(N, K, arrays["sig_diag"],
                                    arrays["sig_off"])
            rep = json.loads(str(z["report"]))
        if rep.get("schema") == "stgp.report/1.0":
            rep.setdefault("decrements", [])  # added in 1.1
        fields = dataclasses.fields(ConvergenceReport)
        report = ConvergenceReport(**{f.name: rep[f.name] for f in fields})
    except zipfile.BadZipFile as exc:
        raise OSError(f"cannot read posterior {path}: {exc}") from exc
    except KeyError as exc:
        raise SchemaError(f"posterior {path} lacks {exc}") from exc
    return Posterior(Grid(s_knots, t_knots, states), params, cov, report)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: ScenarioConfig, out_dir: str) -> int:
    truth = GroundTruth(cfg)
    measurements = generate_measurements(cfg, truth)
    states = truth.grid_states()
    os.makedirs(out_dir, exist_ok=True)
    save_measurements(os.path.join(out_dir, "measurements.json"), measurements)
    write_state_csv(os.path.join(out_dir, "ground_truth.csv"),
                    "ground_truth", np.tile(cfg.s_knots, cfg.n_time),
                    np.repeat(cfg.t_knots, cfg.n_space), states)
    return EXIT_OK


def _report_dict(report: ConvergenceReport, factors) -> dict:
    return {**dataclasses.asdict(report), "schema": schema_tag("report"),
            "prior_factors": factors.prior_count(),
            "measurement_factors": len(factors.measurement)}


def _estimate(cfg: ScenarioConfig, measurements: Sequence[Measurement]):
    params = cfg.prior_params()
    grid = build_grid(cfg.s_knots, cfg.t_knots, params.prior_mean)
    factors = build_prior_factors(grid, params)
    factors.measurement = build_measurement_factors(measurements, grid, params)
    opts = SolverOptions(max_iters=cfg.max_iters, tol=cfg.tol)
    post = gauss_newton(grid, factors, params, opts)
    return post, factors


def cmd_estimate(cfg: ScenarioConfig, out_dir: str,
                 measurements_path: Optional[str] = None) -> int:
    os.makedirs(out_dir, exist_ok=True)
    path = measurements_path or os.path.join(out_dir, "measurements.json")
    measurements = load_measurements(path)
    post, factors = _estimate(cfg, measurements)
    # the covariance is computed lazily and times itself into the report
    marg = post.node_marginals
    report = _report_dict(post.report, factors)
    _dump_json(report, os.path.join(out_dir, "report.json"))
    stds = np.sqrt(np.maximum(np.einsum("...ii->...i", marg), 0.0))
    grid = post.grid
    write_state_csv(os.path.join(out_dir, "estimate.csv"), "estimate",
                    np.tile(grid.s_knots, grid.K),
                    np.repeat(grid.t_knots, grid.N), grid.states, stds)
    save_posterior(os.path.join(out_dir, "posterior.bin"), post, report)
    if not post.report.converged:
        print(f"estimate did not converge: {post.report.message}",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _parse_grid_arg(text: str) -> Tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        ns, nt = int(a), int(b)
    except ValueError:
        raise ConfigError(f"--grid expects SxT, got {text!r}")
    if ns < 1 or nt < 1:
        raise ConfigError("--grid sizes must be >= 1")
    return ns, nt


def cmd_query(out_dir: str, s: Optional[float] = None,
              t: Optional[float] = None, grid_arg: Optional[str] = None,
              stream: Optional[TextIO] = None) -> int:
    stream = stream or sys.stdout
    if grid_arg is not None:
        if s is not None or t is not None:
            raise ConfigError("query takes --s and --t, or --grid SxT, "
                              "not both")
        ns, nt = _parse_grid_arg(grid_arg)
    elif s is None or t is None:
        raise ConfigError("query needs --s and --t, or --grid SxT")
    post = load_posterior(os.path.join(out_dir, "posterior.bin"))
    if grid_arg is not None:
        s_vals = np.linspace(post.grid.s_knots[0], post.grid.s_knots[-1], ns)
        t_vals = np.linspace(post.grid.t_knots[0], post.grid.t_knots[-1], nt)
        s_vals, t_vals = np.tile(s_vals, nt), np.repeat(t_vals, ns)
    else:
        s_vals, t_vals = np.array([s], dtype=float), np.array([t], dtype=float)
    # every point is answered before the first line is written; of each
    # slice's covariances only the standard deviations are kept.  Each
    # binding shape's points are sliced apart, so no slice mixes shapes
    groups = [b.index for b in bind(post.grid.s_knots, post.grid.t_knots,
                                    s_vals, t_vals)]
    means = post.grid.states.take(np.zeros(len(s_vals), dtype=int))
    stds = np.empty((len(s_vals), 24))
    for sl in (g[lo:lo + CHUNK] for g in groups
               for lo in range(0, len(g), CHUNK)):
        mean, covs = query_states(post, s_vals[sl], t_vals[sl])
        means.put(sl, mean)
        stds[sl] = np.sqrt(np.maximum(np.einsum("...ii->...i", covs), 0.0))
        del mean, covs  # freed before the next slice's are made
    stream.write(",".join(STATE_COLUMNS + STD_COLUMNS) + "\n")
    for text in state_rows(s_vals, t_vals, means, stds):
        stream.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stgp",
        description="Space-time GP state estimation for continuum robots")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("simulate", "estimate", "query"):
        sp = sub.add_parser(name)
        if name != "query":
            sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        if name == "simulate":
            sp.add_argument("--seed", type=int, default=None)
        if name == "estimate":
            sp.add_argument("--measurements", default=None)
        if name == "query":
            sp.add_argument("--s", type=float, default=None)
            sp.add_argument("--t", type=float, default=None)
            sp.add_argument("--grid", default=None)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "query":
            return cmd_query(args.out, s=args.s, t=args.t,
                             grid_arg=args.grid)
        cfg = load_config(args.config)
        if args.command == "simulate":
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
            return cmd_simulate(cfg, args.out)
        return cmd_estimate(cfg, args.out,
                            measurements_path=args.measurements)
    except (ConfigError, SchemaError, OutOfHullError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotPositiveDefiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_PD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
