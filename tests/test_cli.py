"""Artifacts of the simulate -> estimate commands read back through the CLI's
own readers, and the documented exit codes of the command-line entry point."""

import dataclasses
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from stgp import cli
from stgp.liegroup import (pose_matrix, rotation_to_quaternion,
                           se3_exp_with_jacobian)
from stgp.prior import StateArrays
from stgp.query import bind, query_state, query_states
from stgp.sensors import Measurement
from stgp.sim import GroundTruth
from stgp.solver import ConvergenceReport, NotPositiveDefiniteError

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                      "linear.json")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("linear"))
    cfg = cli.load_config(CONFIG)
    assert cli.cmd_simulate(cfg, out) == cli.EXIT_OK
    assert cli.cmd_estimate(cfg, out) == cli.EXIT_OK
    return cfg, out


def test_state_csv_roundtrip(run_dir):
    cfg, out = run_dir
    post = cli.load_posterior(os.path.join(out, "posterior.bin"))
    truth = GroundTruth(cfg)
    est = cli.read_state_csv(os.path.join(out, "estimate.csv"), "estimate")
    gt = cli.read_state_csv(os.path.join(out, "ground_truth.csv"),
                            "ground_truth")
    assert list(est.dtype.names) == cli.STATE_COLUMNS + cli.STD_COLUMNS
    assert list(gt.dtype.names) == cli.STATE_COLUMNS
    n_nodes = cfg.n_space * cfg.n_time
    assert est.shape == gt.shape == (n_nodes,)
    ref = truth.states(gt["s"], gt["t"])
    for i, x in enumerate(post.grid.states):
        assert np.array_equal([est["x"][i], est["y"][i], est["z"][i]],
                              x.pose.t)
        assert np.array_equal([est[f"eps{j}"][i] for j in range(1, 7)],
                              x.strain)
        assert np.array_equal([gt["x"][i], gt["y"][i], gt["z"][i]],
                              ref.t[i])
    assert np.all(np.stack([est[c] for c in cli.STD_COLUMNS]) > 0)
    with pytest.raises(cli.SchemaError):
        cli.read_state_csv(os.path.join(out, "estimate.csv"), "ground_truth")


def test_report_times_covariance(run_dir):
    _, out = run_dir
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["time_covariance"] > 0
    with np.load(os.path.join(out, "posterior.bin")) as z:
        assert json.loads(str(z["report"])) == report


def test_loaded_report_matches_report_json(run_dir):
    """Every ConvergenceReport field of a loaded posterior, timings
    included, equals report.json."""
    _, out = run_dir
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    post = cli.load_posterior(os.path.join(out, "posterior.bin"))
    for f in dataclasses.fields(ConvergenceReport):
        assert getattr(post.report, f.name) == report[f.name], f.name
    assert post.report.time_total > 0
    assert report["schema"] == "stgp.report/1.1"
    assert len(post.report.decrements) == post.report.iterations
    assert 0 <= post.report.decrements[-1] < post.report.decrements[0]


def test_loads_report_1_0_without_decrements(run_dir, tmp_path):
    """A posterior whose embedded report predates the decrements
    (stgp.report/1.0) loads with none and every other field intact."""
    _, out = run_dir
    with np.load(os.path.join(out, "posterior.bin")) as z:
        payload = {k: z[k] for k in z.files}
    report = json.loads(str(payload["report"]))
    del report["decrements"]
    report["schema"] = "stgp.report/1.0"
    payload["report"] = json.dumps(report, sort_keys=True)
    with open(tmp_path / "posterior.bin", "wb") as fh:
        np.savez(fh, **payload)
    post = cli.load_posterior(str(tmp_path / "posterior.bin"))
    assert post.report.decrements == []
    for f in dataclasses.fields(ConvergenceReport):
        if f.name != "decrements":
            assert getattr(post.report, f.name) == report[f.name], f.name
    # a 1.1 report must carry them
    report["schema"] = "stgp.report/1.1"
    payload["report"] = json.dumps(report, sort_keys=True)
    with open(tmp_path / "posterior.bin", "wb") as fh:
        np.savez(fh, **payload)
    with pytest.raises(cli.SchemaError, match="decrements"):
        cli.load_posterior(str(tmp_path / "posterior.bin"))


def test_posterior_round_trips_bit_for_bit(linear_posterior, tmp_path):
    """load_posterior(save_posterior(p)) gives back the states, the
    covariance blocks, the prior PSDs, p0 and the prior mean exactly, and
    answers queries exactly as p does."""
    _, post = linear_posterior
    path = str(tmp_path / "posterior.bin")
    cli.save_posterior(path, post, dataclasses.asdict(post.report))
    loaded = cli.load_posterior(path)
    a, b = post.grid.states, loaded.grid.states
    for f in ("R", "t", "eps", "vel", "sv"):
        assert np.array_equal(getattr(a, f), getattr(b, f)), f
    assert np.array_equal(post.cov.sig_diag, loaded.cov.sig_diag)
    assert np.array_equal(post.cov.sig_off, loaded.cov.sig_off)
    for f in ("qs_psd", "qt_psd", "qst_psd", "p0"):
        assert np.array_equal(getattr(post.params, f),
                              getattr(loaded.params, f)), f
    a, b = post.params.prior_mean, loaded.params.prior_mean
    assert len(b) == 1
    for f in ("R", "t", "eps", "vel", "sv"):
        assert np.array_equal(getattr(a, f), getattr(b, f)), f
    for s, t in [(0.0, 0.0), (0.2, 0.5), (0.6, 0.83), (0.35, 1.0)]:
        x, cov = query_state(post, s, t)
        y, cov_loaded = query_state(loaded, s, t)
        assert np.array_equal(cov, cov_loaded)
        assert np.array_equal(x.pose.R, y.pose.R)
        assert np.array_equal(x.pose.t, y.pose.t)
        for f in ("strain", "velocity", "strain_velocity"):
            assert np.array_equal(getattr(x, f), getattr(y, f)), f


# exit codes, through the command-line entry point


def write_config(tmp_path, name="config.json", **changes) -> str:
    """configs/linear.json with top-level fields replaced."""
    with open(CONFIG, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.update(changes)
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return path


def test_exit_invalid_schema_major(tmp_path):
    cfg = write_config(tmp_path, schema="stgp.config/2.0")
    assert cli.main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "run")]) == cli.EXIT_INVALID


@pytest.mark.parametrize("changes", [
    {"n_space": 4.5}, {"max_iters": 2.5}, {"seed": "x"}, {"tol": "abc"},
    {"n_time": True}, {"duration": float("inf")}, {"length": float("nan")},
    {"max_iters": 0}, {"tol": 0}, {"tol": -1e-8},
    {"qt_diag": [1.0] * 5 + [float("nan")]},
    {"sensors": [{"kind": "strain6", "std": float("nan"), "rate": 2.0,
                  "locations": "knots"}]},
    {"sensors": [{"kind": "position3", "std": 0.01,
                  "samples": [[0.3, float("inf")]]}]},
    {"sensors": [{"kind": "position3", "std": 0.01,
                  "samples": [[0.3, 0.5, 0.1]]}]},
    {"sensors": [{"kind": "gyro3", "std": 0.01, "rate": 2.0,
                  "locations": "tip"}]},
    {"sensors": [{"kind": "strain6", "std": 0.01, "rate": 2.0,
                  "locations": "knots", "mask": [True, False]}]},
], ids=["n_space-float", "max_iters-float", "seed-str", "tol-str",
        "n_time-bool", "duration-inf", "length-nan", "max_iters-0",
        "tol-0", "tol-negative", "qt_diag-nan", "std-nan", "sample-inf",
        "sample-triple", "locations-str", "mask-short"])
def test_exit_invalid_config_fields(tmp_path, capsys, changes):
    """A config field of the wrong type, not finite or out of range exits 2
    with one error line and nothing on standard output."""
    cfg = write_config(tmp_path, **changes)
    assert cli.main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "run")]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid config:")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("s,t,name", [(-0.01, 0.5, "arclength"),
                                        (0.61, 0.5, "arclength"),
                                        (0.3, -0.01, "time"),
                                        (0.3, 1.5, "time")])
def test_exit_invalid_sample_off_the_rod(tmp_path, capsys, s, t, name):
    """A sensor sample at an arclength outside [0, length] or a time outside
    [0, duration] exits 2 with one error line, writing nothing."""
    cfg = write_config(tmp_path, sensors=[
        {"kind": "position3", "std": 0.01, "samples": [[0.3, 0.5], [s, t]]}])
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) \
        == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} out of range")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == "" and not out.exists()


def finite_numbers(node) -> bool:
    """Every number in a parsed JSON document is finite."""
    if isinstance(node, dict):
        return all(finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(finite_numbers(v) for v in node)
    return not isinstance(node, float) or np.isfinite(node)


@pytest.mark.parametrize("changes", [
    {"period": 1e-300}, {"duration": 1e300, "sensors": []},
    {"kappa_a": 1e308, "length": 0.5}, {"period": 1e-308},
    {"sensors": [{"kind": "position3", "std": 1e200,
                  "samples": [[0.3, 0.5]]}]},
], ids=["period-tiny", "duration-huge", "kappa_a-huge", "period-tinier",
        "std-huge"])
def test_simulate_writes_only_finite_values(tmp_path, capsys, changes):
    """Simulate either exits 2 with one error line, writing nothing, or
    exits 0 with every value in measurements.json and ground_truth.csv
    finite."""
    cfg = write_config(tmp_path, **changes)
    out = tmp_path / "run"
    rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.out == ""
    if rc == cli.EXIT_INVALID:
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()
        return
    assert rc == cli.EXIT_OK
    with open(out / "measurements.json", encoding="utf-8") as fh:
        assert finite_numbers(json.load(fh))
    rows = (out / "ground_truth.csv").read_text().splitlines()[2:]
    assert np.all(np.isfinite([float(v) for row in rows
                               for v in row.split(",")]))


def test_exit_invalid_simulate_seed(tmp_path, capsys):
    """A --seed override is validated as the config's seed field: a
    negative one exits 2 with an error naming `seed`, writing nothing; a
    valid one is taken."""
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", "-1"]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "seed" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.out == "" and not out.exists()
    assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", "7"]) == cli.EXIT_OK
    assert (out / "measurements.json").exists()


def test_exit_invalid_posterior_major_1(run_dir, tmp_path, capsys):
    """A posterior of major version 1 (dense time-row superblocks) is
    refused, not misread."""
    _, out = run_dir
    with np.load(os.path.join(out, "posterior.bin")) as z:
        payload = {k: z[k] for k in z.files}
    payload["schema"] = "stgp.posterior/1.0"
    with open(tmp_path / "posterior.bin", "wb") as fh:
        np.savez(fh, **payload)
    assert cli.main(["query", "--out", str(tmp_path), "--grid", "2x2"]) \
        == cli.EXIT_INVALID
    assert "stgp.posterior/1.0" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--s", "2.0", "--t", "0.5"],
                                  ["--s", "0.3", "--t", "-1.0"],
                                  ["--grid", "0x3"],
                                  ["--s", "nan", "--t", "0.5"],
                                  ["--grid", "2x2", "--s", "0.1",
                                   "--t", "0.1"]])
def test_exit_invalid_query(run_dir, args, capsys):
    """A failing query writes nothing to standard output, not even the
    header; a coordinate that is not finite is out of the hull, and --grid
    refuses a point given with it rather than drop it."""
    _, out = run_dir
    assert cli.main(["query", "--out", out] + args) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""
    if "nan" in args:
        assert "s=nan outside hull" in captured.err


@pytest.mark.parametrize("what,content", [
    ("config", []),
    ("measurements", []),
    ("measurements", {"schema": "stgp.measurements/1.0"}),
    ("measurements", {"schema": "stgp.measurements/1.0", "measurements": [
        {"kind": "position3", "s": 0.0, "t": 0.0,
         "noise_cov": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}),
] + [("measurements", {"schema": "stgp.measurements/1.0", "measurements": [
        {"kind": "pose6", "s": 0.0, "t": 0.0,
         "value": {"quat_wxyz": quat, "translation": [0, 0, 0]},
         "noise_cov": np.eye(6).tolist()}]})
    for quat in ([1, 0, 0], [0, 0, 0, 0], [float("inf"), 0, 0, 0])])
def test_exit_invalid_input_files(run_dir, tmp_path, capsys, what, content):
    """Malformed config and measurement files exit 2 with an error line:
    a top-level list, a missing measurement list, a record without
    `value`, a pose6 quaternion of three numbers, all zero or not finite."""
    _, out = run_dir
    path = str(tmp_path / f"{what}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(content, fh)
    if what == "config":
        args = ["simulate", "--config", path, "--out", str(tmp_path)]
    else:
        args = ["estimate", "--config", CONFIG, "--out", str(tmp_path),
                "--measurements", path]
    assert cli.main(args) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_pose6_quaternion_read_at_any_scale():
    """The reader takes a pose6 quaternion at any finite, nonzero scale:
    (1e308, 1e308, 0, 0), whose norm overflows, is the quarter turn about
    x, and (1e-320, 0, 0, 0), whose norm underflows, is the identity."""
    quarter_x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0],
                          [0.0, 1.0, 0.0]])
    for quat, R in (([1e308, 1e308, 0.0, 0.0], quarter_x),
                    ([1e-320, 0.0, 0.0, 0.0], np.eye(3))):
        m = cli.measurement_from_dict(
            {"kind": "pose6", "s": 0.0, "t": 0.0, "noise_cov": np.eye(6),
             "value": {"quat_wxyz": quat, "translation": [1.0, 2.0, 3.0]}})
        assert np.allclose(m.value, pose_matrix(R, [1.0, 2.0, 3.0]),
                           rtol=0, atol=1e-15)


@pytest.mark.parametrize("field", ["value", "noise_cov"])
def test_exit_invalid_nonfinite_measurement(run_dir, tmp_path, capsys,
                                            field):
    """A measurement whose value or noise covariance is not finite is
    refused by the reader, before any estimation runs."""
    _, out = run_dir
    with open(os.path.join(out, "measurements.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    rec = next(r for r in raw["measurements"] if r["kind"] == "position3")
    if field == "value":
        rec["value"][0] = float("nan")
    else:
        rec["noise_cov"][1][1] = float("inf")
    path = str(tmp_path / "measurements.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    assert cli.main(["estimate", "--config", CONFIG, "--out",
                     str(tmp_path / "run"), "--measurements", path]) \
        == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid measurements:")
    assert "must be finite" in captured.err and captured.out == ""
    assert not os.path.exists(tmp_path / "run" / "report.json")


@pytest.mark.parametrize("keep", ["empty", "few", "half"])
def test_exit_io_truncated_posterior(run_dir, tmp_path, capsys, keep):
    """A posterior.bin cut short cannot be read as an archive: exit 3."""
    _, out = run_dir
    with open(os.path.join(out, "posterior.bin"), "rb") as fh:
        data = fh.read()
    size = {"empty": 0, "few": 3, "half": len(data) // 2}[keep]
    with open(tmp_path / "posterior.bin", "wb") as fh:
        fh.write(data[:size])
    assert cli.main(["query", "--out", str(tmp_path), "--grid", "2x2"]) \
        == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_exit_invalid_posterior_missing_array(run_dir, tmp_path, capsys):
    """An archive without one of its arrays is refused as a schema
    violation: exit 2, naming the array."""
    _, out = run_dir
    with np.load(os.path.join(out, "posterior.bin")) as z:
        payload = {k: z[k] for k in z.files if k != "sig_off"}
    with open(tmp_path / "posterior.bin", "wb") as fh:
        np.savez(fh, **payload)
    assert cli.main(["query", "--out", str(tmp_path), "--grid", "2x2"]) \
        == cli.EXIT_INVALID
    assert "sig_off" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["R", "t", "strain", "velocity", "sv",
                                  "sig_diag", "sig_off", "s_knots",
                                  "t_knots", "mean_R", "mean_t",
                                  "mean_strain", "mean_velocity", "mean_sv",
                                  "mean_R-nan", "mean_sv-nan", "p0-nan",
                                  "qs_psd-nan", "p0-indefinite"])
def test_exit_invalid_posterior_shapes(run_dir, tmp_path, capsys, name):
    """An array cut short, so that its shape no longer fits the knot counts
    or, for the prior mean state, its (3, 3), (3,) or (6,) shape, knots
    that are not increasing, knots, a prior mean array, a prior PSD or p0
    that are not finite, or a p0 that is not positive semidefinite are
    refused: exit 2, naming the array."""
    _, out = run_dir
    name, _, edit = name.partition("-")
    with np.load(os.path.join(out, "posterior.bin")) as z:
        payload = {k: z[k] for k in z.files}
    if name == "s_knots":
        payload[name] = payload[name][::-1]
    elif edit == "indefinite":
        payload[name][0, 0] = -payload[name][0, 0]
    elif name == "t_knots" or edit == "nan":
        payload[name].flat[1] = np.nan
    else:
        payload[name] = payload[name][:-1]
    with open(tmp_path / "posterior.bin", "wb") as fh:
        np.savez(fh, **payload)
    assert cli.main(["query", "--out", str(tmp_path), "--grid", "2x2"]) \
        == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and name in captured.err
    assert captured.out == ""


def state_row(s: float, t: float, x, stds=None) -> str:
    """Per-row reference of one line of `cli.state_rows`."""
    vals = [s, t, *x.pose.t, *rotation_to_quaternion(x.pose.R), *x.strain,
            *x.velocity, *x.strain_velocity]
    if stds is not None:
        vals.extend(stds)
    return ",".join("%.17g" % v for v in vals)


def test_query_grid_rows_match_one_batch(run_dir, monkeypatch):
    """cmd_query answers a grid slice by slice in binding-shape order, no
    slice mixing shapes, yet prints byte for byte the rows of one
    query_states call over all of its points, in grid order: on a grid of
    one slice and on one of three slices, the last partial."""
    _, out = run_dir
    post = cli.load_posterior(os.path.join(out, "posterior.bin"))
    shapes = []

    def recording(post, s, t):
        shapes.append(len(bind(post.grid.s_knots, post.grid.t_knots, s, t)))
        return query_states(post, s, t)

    monkeypatch.setattr(cli, "query_states", recording)
    for ns, nt in ((7, 5), (13, 11)):
        buf = io.StringIO()
        shapes.clear()
        assert cli.cmd_query(out, grid_arg=f"{ns}x{nt}", stream=buf) \
            == cli.EXIT_OK
        s = np.tile(np.linspace(post.grid.s_knots[0], post.grid.s_knots[-1],
                                ns), nt)
        t = np.repeat(np.linspace(post.grid.t_knots[0],
                                  post.grid.t_knots[-1], nt), ns)
        assert set(shapes) == {1}
        assert len(bind(post.grid.s_knots, post.grid.t_knots, s, t)) > 1
        means, covs = query_states(post, s, t)
        stds = np.sqrt(np.maximum(np.einsum("...ii->...i", covs), 0.0))
        rows = [state_row(float(a), float(b), means[i], stds[i])
                for i, (a, b) in enumerate(zip(s, t))]
        header = ",".join(cli.STATE_COLUMNS + cli.STD_COLUMNS)
        assert buf.getvalue().splitlines() == [header] + rows
    assert 2 * cli.CHUNK < 13 * 11 < 3 * cli.CHUNK


def test_state_rows_match_per_row_reference():
    """The batched writer prints the per-row reference's bytes: for the
    identity, half turns, a turn of 0.9 pi, entries of -0.0, random states
    over several slices and an empty batch, every quaternion with w > 0.
    Pose measurements take the same quaternions."""
    rng = np.random.default_rng(60)
    axes = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -2, 0],
                     [0, 1, -3], [-3, 0, 1]], dtype=float)
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    half = 2 * axes[:, :, None] * axes[:, None, :] - np.eye(3)
    R = np.concatenate([np.eye(3)[None], half,
                        se3_exp_with_jacobian(np.array(
                            [[0, 0, 0, -0.9 * np.pi, 0, 0]]))[0],
                        se3_exp_with_jacobian(np.column_stack(
                            [np.zeros((150, 3)),
                             rng.standard_normal((150, 3))]))[0]])
    P = len(R)
    assert np.all(rotation_to_quaternion(R)[:, 0] > 0)
    t, eps, vel, sv = (rng.standard_normal((P, k)) for k in (3, 6, 6, 6))
    stds = np.abs(rng.standard_normal((P, 24)))
    for a in (t, eps, vel, sv, stds):
        a[:3] = -0.0
    states = StateArrays(R, t, eps, vel, sv)
    s_vals, t_vals = rng.uniform(0, 1, P), rng.uniform(0, 1, P)
    s_vals[0] = t_vals[0] = -0.0
    for sd in (None, stds):
        got = "".join(cli.state_rows(s_vals, t_vals, states, sd))
        ref = "".join(state_row(float(a), float(b), states[i],
                                None if sd is None else sd[i]) + "\n"
                      for i, (a, b) in enumerate(zip(s_vals, t_vals)))
        assert got == ref
    empty = states.take(np.arange(0))
    assert "".join(cli.state_rows(s_vals[:0], t_vals[:0], empty)) == ""
    for r in R:
        m = Measurement("pose6", 0.0, 0.0, pose_matrix(r, np.zeros(3)),
                        np.eye(6))
        assert json.dumps(cli.measurement_to_dict(m)["value"]["quat_wxyz"]) \
            == json.dumps(list(rotation_to_quaternion(r)))


def test_query_grid_memory_per_point(run_dir, monkeypatch):
    """cmd_query keeps a mean state and 24 standard deviations per point,
    not its covariance.  The interpolation is replaced by a stand-in that
    answers each call with fresh (P, 24, 24) covariances, so the traced
    peak of a 30x30 grid, written to a stream that discards it, is what
    the command itself holds, the loaded posterior included: below 1.5 KB
    per point (the covariances alone take 4.6 KB)."""
    _, out = run_dir

    def answers(post, s, t):
        return (post.grid.states.take(np.zeros(len(s), dtype=int)),
                np.tile(np.eye(24), (len(s), 1, 1)))

    class Discard:
        def write(self, text):
            pass

    monkeypatch.setattr(cli, "query_states", answers)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.cmd_query(out, grid_arg="30x30", stream=Discard()) \
            == cli.EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1500 * 30 * 30


@pytest.mark.parametrize("args", [["--grid", "0x3"], [], ["--s", "0.3"]])
def test_exit_invalid_query_before_loading(tmp_path, args, capsys):
    """Malformed query arguments are rejected before posterior.bin is
    read, so a directory without one still exits 2, not 3."""
    assert cli.main(["query", "--out", str(tmp_path)] + args) \
        == cli.EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_exit_invalid_chart_range(tmp_path, capsys):
    """High curvature on a two-knot rod puts the spatial prior factor's
    relative rotation outside the chart."""
    cfg = write_config(tmp_path, kappa0=5.0, n_space=2)
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    assert cli.main(["estimate", "--config", cfg, "--out", out]) \
        == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "chart out of range" in err
    assert "while linearizing spatial factor at nodes [0, 1]" in err


def test_exit_io_missing_files(tmp_path, capsys):
    assert cli.main(["query", "--out", str(tmp_path), "--grid", "2x2"]) \
        == cli.EXIT_IO
    assert cli.main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == cli.EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_exit_no_convergence_still_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, max_iters=1)
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    assert cli.main(["estimate", "--config", cfg, "--out", out]) \
        == cli.EXIT_NO_CONVERGENCE
    assert "did not converge" in capsys.readouterr().err
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert not report["converged"] and report["iterations"] == 1
    est = cli.read_state_csv(os.path.join(out, "estimate.csv"), "estimate")
    assert est.shape == (12,)
    post = cli.load_posterior(os.path.join(out, "posterior.bin"))
    assert not post.report.converged
    assert post.node_marginals.shape == (12, 24, 24)


def test_exit_not_positive_definite(run_dir, tmp_path, monkeypatch, capsys):
    """A valid config cannot make the normal equations indefinite, so the
    solver is replaced by one that reports it."""
    _, out = run_dir

    def indefinite(*args, **kwargs):
        raise NotPositiveDefiniteError(3, "injected")

    monkeypatch.setattr(cli, "gauss_newton", indefinite)
    assert cli.main(["estimate", "--config", CONFIG, "--out", str(tmp_path),
                     "--measurements",
                     os.path.join(out, "measurements.json")]) \
        == cli.EXIT_NOT_PD
    assert "block row 3" in capsys.readouterr().err


@pytest.mark.parametrize("n_space,n_time,duration,sample", [
    (1, 3, 1.0, [0.0, 0.31]),    # a single arclength knot
    (4, 1, 0.0, [0.31, 0.0]),    # a single time knot
    (1, 1, 0.0, [0.0, 0.0]),     # a single node
])
def test_degenerate_grids_round_trip(tmp_path, capsys, n_space, n_time,
                                     duration, sample):
    sensors = [{"kind": "strain6", "std": 0.02, "rate": 2.0,
                "locations": "knots"},
               {"kind": "position3", "std": 0.002, "samples": [sample]}]
    cfg = write_config(tmp_path, n_space=n_space, n_time=n_time,
                       duration=duration, sensors=sensors)
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    assert cli.main(["estimate", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["query", "--out", out, "--grid", "2x2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 1 + 4
    vals = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.all(np.isfinite(vals))
