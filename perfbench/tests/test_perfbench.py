"""Tests of the benchmark itself: reproducibility, exact counts, self time.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads
from mheat import geometry, semigroup, verify

BENCH = Path(__file__).resolve().parent.parent


def _small_hess(threads):
    # hess-curved at a small size; chunk_size forces 4 chunks
    m = geometry.Sphere(2, 1.0)
    f = geometry.coordinate_field(m, axis=2)
    x, v = workloads._sphere_point(m, 0.8, np.random.default_rng(3))
    return semigroup.estimate_hess(m, f, x, v, v, 0.1, None, "bismut",
                                   n_paths=2048, h=0.01, seed=17,
                                   chunk_size=256, threads=threads)


def test_hess_curved_bitwise_identical_across_threads():
    one, two = _small_hess(1), _small_hess(2)
    assert one.value.tobytes() == two.value.tobytes()
    assert one.stderr.tobytes() == two.stderr.tobytes()


COUNTS = ("transport.ChunkWalk.step.path_steps", "transport.increment_block.bytes",
          "oracle.kernel_on_grid.calls", "oracle.kernel_on_grid.points",
          "semigroup.green.node_calls", "semigroup.green.sim_time_ratio",
          "semigroup.chunks", "geometry.frame.points", "verify.serial_walks")


def _traced_counts():
    m = geometry.Sphere(2, 1.0)
    f = geometry.coordinate_field(m, axis=2)
    x, v = workloads._sphere_point(m, 0.8, np.random.default_rng(3))
    cfg = semigroup.HessianEstimatorConfig(sigma=3.0)
    wl2 = verify.BoundCheckConfig(alpha=0.24, gamma=0.3, beta=0.12,
                                  s_grid=np.geomspace(0.05, 2.0, 3),
                                  t_grid=np.geomspace(0.05, 2.0, 2),
                                  grid_resolution=12)
    tracer = spans.Tracer()
    with tracer.installed():
        _small_hess(2)
        semigroup.estimate_green_hess(m, f, x, v, v, cfg, n_paths=64, h=0.05,
                                      seed=5, threads=2, mode="mixed")
        verify.check_weighted_l2(geometry.Torus(2), wl2)
    return spans.layer_metrics(tracer.spans)


def test_layer_counts_repeat_exactly():
    first, second = _traced_counts(), _traced_counts()
    for name in COUNTS:
        assert first[name] == second[name], name
    # 2048 paths x 10 steps for the hess call, plus the 40 green nodes
    assert first["semigroup.green.node_calls"] == 40
    assert first["transport.ChunkWalk.step.path_steps"] > 2048 * 10
    assert first["semigroup.green.sim_time_ratio"] > 1.0
    assert first["oracle.kernel_on_grid.calls"] > 0
    assert first["verify.serial_walks"] == 0


def test_patches_are_restored():
    before = semigroup.estimate_hess
    with spans.Tracer().installed():
        assert semigroup.estimate_hess is not before
    assert semigroup.estimate_hess is before


def _span(tracer_spans, sid, name, thread, start, end, parent=None, depth=1, cross=False):
    sp = spans.Span(sid, name, thread, parent, depth, cross)
    sp.start, sp.end = start, end
    tracer_spans.append(sp)
    return sp


def test_self_time_splits_pool_work_and_skips_waiting():
    # estimator on thread 0 over [0, 10]; pool thread 1 walks [1, 4] with a
    # gap [3, 3.5] between steps, pool thread 2 walks [1, 9]
    s = []
    _span(s, 0, "semigroup.estimate_hess", 0, 0.0, 10.0)
    _span(s, 1, "transport.ChunkWalk.init", 1, 1.0, 2.0, parent=0, cross=True)
    _span(s, 2, "transport.ChunkWalk.step", 1, 2.0, 3.0, parent=0, cross=True)
    _span(s, 3, "transport.ChunkWalk.step", 1, 3.5, 4.0, parent=0, cross=True)
    _span(s, 4, "transport.ChunkWalk.init", 2, 1.0, 2.0, parent=0, cross=True)
    _span(s, 5, "transport.ChunkWalk.step", 2, 2.0, 9.0, parent=0, cross=True)
    own = spans.self_times(s)
    assert math.isclose(sum(own.values()), 10.0)     # sums to the wall time
    assert math.isclose(own[1], 0.5) and math.isclose(own[4], 0.5)
    assert math.isclose(own[2], 0.5)
    assert math.isclose(own[3], 0.25)
    assert math.isclose(own[5], 0.5 + 0.25 + 0.25 + 5.0)
    # thread 0 runs [0, 1] and [9, 10] and waits in between; the gap on
    # thread 1 is the estimator's own work, shared with thread 2's step
    assert math.isclose(own[0], 2.0 + 0.25)


def test_runs_only_from_a_source_checkout(tmp_path):
    # a tree with the benchmark but without src/ must fail without a result
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "hess-curved", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
