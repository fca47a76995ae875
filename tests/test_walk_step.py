"""The coordinate-major walk step and the pinned increment stream."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mheat.geometry import (
    Euclidean,
    Hyperbolic,
    Point,
    Sphere,
    TangentVector,
    Torus,
    coordinate_field,
)
from mheat.semigroup import estimate_hess, estimate_pt
from mheat.transport import ChunkWalk, WalkGroup, increment_block


def _model(kind, d, geo):
    if kind == "euclidean":
        return Euclidean(d)
    if kind == "torus":
        return Torus(d)
    if kind == "sphere":
        return Sphere(d, geo)
    return Hyperbolic(d, geo)


def _reference_step(m, X, F, dB):
    # row-major exp + per-vector transport + retract, the generic route
    V = np.einsum("nd,nda->na", dB, F)
    Fn = np.stack([m.transport(X, V, F[:, i]) for i in range(m.dim)], axis=1)
    return m.retract(m.exp(X, V)), Fn


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["euclidean", "torus", "sphere", "hyperbolic"]),
       d=st.sampled_from([2, 3]),
       geo=st.floats(0.5, 2.0),
       n=st.integers(1, 12),
       step=st.floats(1e-4, 0.8),
       n_zero=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(kind="hyperbolic", d=3, geo=1.998046875, n=9, step=0.5, n_zero=0, seed=0)
@example(kind="hyperbolic", d=2, geo=2.0, n=8, step=0.75, n_zero=0, seed=169)
@example(kind="hyperbolic", d=2, geo=2.0, n=11, step=0.5, n_zero=0, seed=531)
@example(kind="hyperbolic", d=2, geo=2.0, n=9, step=0.5, n_zero=0, seed=265)
def test_walk_step_matches_exp_transport_retract(kind, d, geo, n, step, n_zero, seed):
    m = _model(kind, d, geo)
    rng = np.random.default_rng(seed)
    X = m.random_points(rng, n, spread=0.5)
    F = m.frame(X)
    dB = step * rng.standard_normal((n, d))
    zero = np.zeros(n, dtype=bool)
    zero[:min(n_zero, n)] = True
    dB[zero] = 0.0

    P_new, F_new = m.walk_step(np.ascontiguousarray(X.T),
                               np.ascontiguousarray(F.transpose(1, 2, 0)),
                               np.ascontiguousarray(dB.T))
    X_new = P_new.T
    F_new = F_new.transpose(2, 0, 1)
    X_ref, F_ref = _reference_step(m, X, F, dB)

    scale = max(1.0, float(np.max(np.abs(X))), float(np.max(np.abs(X_ref))))
    tol = 1e-12 * scale
    if kind == "hyperbolic":
        # hyperboloid coordinates carry round-off eps a^2 |X|^2: <X, X>_L =
        # -1/a^2 cancels their leading digits
        tol *= max(1.0, geo ** 2 * scale)
    if kind == "torus":
        # the chart wraps at 2 pi: compare through the periodic difference
        assert np.max(np.abs(m.wrap(X_new - X_ref))) < tol
    else:
        assert np.max(np.abs(X_new - X_ref)) < tol
    assert np.max(np.abs(F_new - F_ref)) < tol

    # frames stay orthonormal and tangent at the new points
    gram = np.stack([np.stack([m.metric_dot(F_new[:, i], F_new[:, j])
                               for j in range(d)], axis=-1)
                     for i in range(d)], axis=-2)
    assert np.max(np.abs(gram - np.eye(d))) < tol
    # on H^d the defect a^2 |<X, U>_L| |X| of a tangent U grows like |X|^2, so
    # it is bounded by the reference route's own defect on the same input
    for i in range(d):
        ref_defect = float(np.max(m.tangency_defect(X_ref, F_ref[:, i])))
        assert np.max(m.tangency_defect(X_new, F_new[:, i])) <= max(2.0 * ref_defect, tol)
    assert np.max(m.embedding_defect(X_new)) < tol

    # zero increments keep their point and frame
    if zero.any():
        assert np.array_equal(F_new[zero], F[zero])
        assert np.max(np.abs(X_new[zero] - m.retract(X[zero]))) < tol


@pytest.mark.parametrize("m", [Sphere(2, 1.0), Hyperbolic(3, 0.8), Torus(2)],
                         ids=lambda m: m.describe())
def test_chunk_walk_views_follow_the_state(m):
    walk = ChunkWalk(m, [WalkGroup(3, 0.1, 5, 0, 6, x0=m.base_point())])
    n, d, amb = 6, m.dim, m.ambient_dim
    assert walk.points.shape == (n, amb)
    assert walk.frames.shape == (n, d, amb)
    (inc,) = walk.group_increments
    assert inc.shape == (5, d, n)
    assert np.array_equal(inc.transpose(2, 0, 1), increment_block(3, 5, d, walk.h, 0, 6))
    for k, dB in walk.steps():
        assert dB.shape == (n, d)
        assert dB.T.flags.c_contiguous
        assert np.array_equal(dB.T, inc[k])


# draws of increment_block at fixed (path, step, coordinate) positions; a
# change to the Philox keying, the per-path stride, the uniform-to-Gaussian
# map or the layout moves them
GOLDEN_INCREMENTS = [
    ((20260, 7, 3, 0.01, 5, 9), (0, 0, 0), "-0x1.551afa83b97dcp-5"),
    ((20260, 7, 3, 0.01, 5, 9), (1, 4, 2), "0x1.8d8704eebc72bp-4"),
    ((20260, 7, 3, 0.01, 5, 9), (3, 6, 2), "0x1.fb68116f7aff5p-4"),
    ((1, 3, 2, 0.0025, 0, 2), (0, 0, 0), "-0x1.29d62ed27f4bfp-5"),
    ((1, 3, 2, 0.0025, 0, 2), (1, 2, 1), "0x1.29fd4dffce8c4p-6"),
    ((2 ** 63 + 5, 1, 5, 0.5, 1000, 1002), (0, 0, 4), "-0x1.1865eb4ced326p+0"),
    ((2 ** 63 + 5, 1, 5, 0.5, 1000, 1002), (1, 0, 0), "0x1.38aa4cbb764d3p+0"),
]


@pytest.mark.parametrize("args,pos,expected", GOLDEN_INCREMENTS)
def test_increment_block_golden_values(args, pos, expected):
    block = increment_block(*args)
    assert block.shape == (args[5] - args[4], args[1], args[2])
    assert float(block[pos]) == float.fromhex(expected)


@pytest.mark.parametrize("mode", ["bismut", "mixed"])
def test_estimates_bitwise_identical_across_threads(mode):
    m = Sphere(2, 1.0)
    f = coordinate_field(m, axis=2)
    z = 0.8
    x = Point(np.array([math.sqrt(1 - z * z), 0.0, z]))
    v = TangentVector(x, np.array([0.0, 1.0, 0.0]))
    hess = [estimate_hess(m, f, x, v, v, 0.1, None, mode, n_paths=1536,
                          h=0.01, seed=21, chunk_size=256, threads=th)
            for th in (1, 2, 4)]
    pt = [estimate_pt(m, f, x, 0.1, 1536, 0.01, 21, chunk_size=256, threads=th)
          for th in (1, 2, 4)]
    for ests in (hess, pt):
        for e in ests[1:]:
            assert e.value.tobytes() == ests[0].value.tobytes()
            assert e.stderr.tobytes() == ests[0].stderr.tobytes()
