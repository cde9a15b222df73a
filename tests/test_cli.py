"""Artifacts of the simulate -> estimate commands read back through the CLI's
own readers, and the documented exit codes of the command-line entry point."""

import dataclasses
import json
import os

import numpy as np
import pytest

from stgp import cli
from stgp.query import query_state
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
    for i, x in enumerate(post.grid.states):
        assert np.array_equal([est["x"][i], est["y"][i], est["z"][i]],
                              x.pose.t)
        assert np.array_equal([est[f"eps{j}"][i] for j in range(1, 7)],
                              x.strain)
        ref = truth.state(float(gt["s"][i]), float(gt["t"][i]))
        assert np.array_equal([gt["x"][i], gt["y"][i], gt["z"][i]],
                              ref.pose.t)
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


def test_posterior_round_trips_bit_for_bit(linear_posterior, tmp_path):
    """load_posterior(save_posterior(p)) gives back the states and the
    covariance blocks exactly, and answers queries exactly as p does."""
    _, post = linear_posterior
    path = str(tmp_path / "posterior.bin")
    cli.save_posterior(path, post, dataclasses.asdict(post.report))
    loaded = cli.load_posterior(path)
    a, b = post.grid.state_arrays(), loaded.grid.state_arrays()
    for f in ("R", "t", "eps", "vel", "sv"):
        assert np.array_equal(getattr(a, f), getattr(b, f)), f
    assert np.array_equal(post.cov.sig_diag, loaded.cov.sig_diag)
    assert np.array_equal(post.cov.sig_off, loaded.cov.sig_off)
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
                                  ["--grid", "0x3"]])
def test_exit_invalid_query(run_dir, args, capsys):
    _, out = run_dir
    assert cli.main(["query", "--out", out] + args) == cli.EXIT_INVALID
    assert "error:" in capsys.readouterr().err


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
