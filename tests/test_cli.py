"""Artifacts of the simulate -> estimate commands read back through the CLI's
own readers."""

import json
import os

import numpy as np
import pytest

from stgp import cli
from stgp.sim import GroundTruth

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
