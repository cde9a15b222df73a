"""The program surface the benchmark scripts read: bench/pipeline.py imports
stgp names, patches others by (owner, attribute) when it traces, and reads
bindings and factor kinds.  A rename that would break `bench/run.py` fails
here in about a second rather than in the minutes-long bench/test_smoke.py."""

import importlib
import os
import sys

import numpy as np
import pytest

from stgp.graph import FactorSet
from stgp.sensors import Measurement, build_measurement_factors

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


@pytest.fixture(scope="module")
def pipeline():
    """bench/pipeline.py, imported with bench/ on sys.path; importing it
    resolves every stgp name it imports."""
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("pipeline")
    finally:
        sys.path.remove(BENCH)


def test_trace_points_resolve(pipeline):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in pipeline.TRACE_POINTS
               if not hasattr(owner, attr)]
    assert missing == []


def test_bench_reads_bindings_and_factor_kinds(pipeline, linear_posterior):
    _, post = linear_posterior
    g = post.grid
    s1, t1 = float(g.s_knots[1]), float(g.t_knots[1])
    for (s, t), m in [((s1, t1), 1), ((s1, 0.21), 2), ((0.3, 0.21), 4)]:
        ids = pipeline.squery.make_interpolant(g.s_knots, g.t_knots,
                                               post.params, s, t).node_ids
        assert len(ids) == m
        assert post.cov.joint(ids).shape == (24 * m, 24 * m)
    meas = [Measurement("position3", s, t, np.zeros(3), np.eye(3))
            for s, t in [(s1, t1), (0.3, 0.21), (s1, 0.21)]]
    factors = FactorSet(measurement=build_measurement_factors(
        meas, g, post.params))
    assert pipeline.factor_split(factors) == {"node": 1, "interp": 2}
