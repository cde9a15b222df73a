"""Smoke test of the pipeline benchmark on configs/linear.json-sized inputs.

Runs every code path of bench/run.py (untraced and traced) in seconds:

  python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracing import Tracer  # noqa: E402

# Metrics that must repeat exactly from run to run.  File sizes are not among
# them: posterior.bin embeds report.json, whose timings vary in length.
EXACT_UNITS = ("count", "computed_bytes")
ACCURACY = ("pos_rmse_mm", "rot_rmse_deg", "nees")


def _run(trace: int, root: str = ROOT, workload: str = "smoke"):
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)


def _result(trace: int) -> dict:
    proc = _run(trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def untraced():
    return [_result(0), _result(0)]


@pytest.fixture(scope="module")
def traced():
    return [_result(1), _result(1)]


def _check_result(res: dict, declared: list) -> None:
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in declared]


def test_untraced_metrics_match_benchmark_json(untraced, spec):
    for res in untraced:
        _check_result(res, spec["end_to_end"])


def test_traced_metrics_match_benchmark_json(traced, spec):
    for res in traced:
        _check_result(res, spec["per_layer"])


def test_counts_and_accuracy_repeat_exactly(untraced, traced):
    a, b = traced
    exact = [k for k, v in a["metrics"].items() if v["unit"] in EXACT_UNITS]
    assert "solver.gn_iters" in exact and "solver.cov_bytes" in exact
    for k in exact:
        assert a["metrics"][k] == b["metrics"][k], k
    a, b = untraced
    for k in ACCURACY:
        assert a["metrics"][k] == b["metrics"][k], k
    assert a["attempted"] == b["attempted"]


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and bench/ present, the benchmark exits
    non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, str(tmp_path), "fig3")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_self_time_and_restore():
    class Box:
        @staticmethod
        def work():
            time.sleep(0.01)

    tr = Tracer()
    tr.patch(Box, "work", "inner.work")
    with tr.span("outer.call"):
        Box.work()
        Box.work()
    tr.restore()
    Box.work()
    assert [s[0] for s in tr.spans] == ["outer.call", "inner.work",
                                        "inner.work"]
    selfs = tr.self_times(["outer.call"])
    assert selfs["inner"] == pytest.approx(tr.total("inner.work"))
    assert selfs["outer"] == pytest.approx(tr.total("outer.call")
                                           - tr.total("inner.work"))
    assert tr.total("inner.work", root="outer.call") >= 0.02
