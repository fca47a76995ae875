"""Path simulation and the Q/W transport processes."""

import math

import numpy as np
import pytest

from mheat.geometry import (
    Euclidean,
    Hyperbolic,
    Point,
    Sphere,
    TangentVector,
    Torus,
)
from mheat.semigroup import _walk_chunks
from mheat.transport import (
    ChunkWalk,
    WalkGroup,
    _check_grid,
    _grid_steps,
    _vw_components,
    damped_transport_generic,
    increment_block,
    q_decay_factor,
    w_process_generic,
    w_update,
)


def one_path(m, seed, t, n_steps, idx, x0=None):
    """Path ``idx`` of stream ``seed``, from x0 or the base point."""
    x0 = m.base_point() if x0 is None else np.asarray(x0, dtype=float)
    return WalkGroup(seed, t, n_steps, idx, idx + 1, x0=x0)


# ---------------------------------------------------------------------------
# randomness plumbing

def test_increment_block_chunk_invariance():
    # concatenated chunks must equal the single-block stream
    full = increment_block(99, 50, 2, 0.01, 0, 64)
    parts = [increment_block(99, 50, 2, 0.01, lo, hi)
             for lo, hi in [(0, 7), (7, 20), (20, 64)]]
    assert np.array_equal(full, np.concatenate(parts, axis=0))


def test_increment_variance():
    h = 0.01
    inc = increment_block(5, 10, 2, h, 0, 20000)
    var = inc.var(axis=(0, 1))
    assert np.all(np.abs(var - 2 * h) < 0.05 * 2 * h)
    assert np.max(np.abs(inc.mean(axis=(0, 1)))) < 4 * math.sqrt(2 * h / (20000 * 10))


def test_sample_path_deterministic(record_walk):
    m = Sphere(2, 1.0)
    p1 = record_walk(m, one_path(m, 42, 0.5, 100, 3))
    p2 = record_walk(m, one_path(m, 42, 0.5, 100, 3))
    assert np.array_equal(p1.points, p2.points)
    assert np.array_equal(p1.increments, p2.increments)
    assert np.array_equal(p1.frames, p2.frames)
    p3 = record_walk(m, one_path(m, 42, 0.5, 100, 4))
    assert not np.array_equal(p1.increments, p3.increments)


def test_check_grid_rejects_non_integer_grid():
    # the estimators' strict step rule: t must be a multiple of h
    with pytest.raises(ValueError, match="not an integer number of steps"):
        _check_grid(1.0, 0.3)


@pytest.mark.parametrize("t, h, lo, hi, n", [
    (2.5, 1.0, 0, None, 2),     # ties round half to even, as round() does
    (3.5, 1.0, 0, None, 4),
    (0.5, 1.0, 0, None, 0),
    (0.4, 1.0, 1, None, 1),     # the floor
    (0.1, 0.25, 2, None, 2),
    (0.05, 0.01, 8, 200000, 8),
    (30.0, 0.0001, 8, 200000, 200000),  # the cap
    (1.0, 0.003, 1, None, 333),
])
def test_grid_steps_rounds_and_clips(t, h, lo, hi, n):
    assert _grid_steps(t, h, lo, hi) == n


@pytest.mark.parametrize("t, h", [
    (0.0, 0.01), (-1.0, 0.01), (math.nan, 0.01), (math.inf, 0.01),
    (1.0, 0.0), (1.0, -0.01), (1.0, math.nan), (1.0, math.inf),
])
def test_grid_steps_rejects_bad_horizon_or_step(t, h):
    with pytest.raises(ValueError, match="must be positive and finite"):
        _grid_steps(t, h)


# ---------------------------------------------------------------------------
# the walk itself

def test_flat_walk_mean_square_displacement():
    m = Euclidean(3)
    t, h, n = 0.7, 0.7 / 100, 10000
    walk = ChunkWalk(m, [WalkGroup(11, t, 100, 0, n, x0=m.base_point())])
    walk.run()
    sq = np.sum(walk.points ** 2, axis=1)
    mean = sq.mean()
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 2 * m.dim * t) <= 3 * se


def test_sphere_walk_stays_embedded(record_walk):
    m = Sphere(2, 1.0)
    path = record_walk(m, one_path(m, 1, 0.5, 200, 0))
    assert np.max(np.abs(np.linalg.norm(path.points[0], axis=1) - 1.0)) < 1e-12


def test_hyperboloid_walk_stays_embedded(record_walk):
    m = Hyperbolic(2, 1.0)
    path = record_walk(m, one_path(m, 1, 0.5, 200, 0))
    defect = m.embedding_defect(path.points[0])
    assert np.max(defect) < 1e-12


@pytest.mark.parametrize("m", [Sphere(2, 1.0), Hyperbolic(2, 1.0)],
                         ids=["sphere", "hyperbolic"])
def test_frame_orthonormality_drift(m, record_walk):
    t, h = 1.0, 0.01
    path = record_walk(m, one_path(m, 3, t, 100, 1))
    sgn = np.ones(m.ambient_dim)
    if m.kind == "hyperbolic":
        sgn[-1] = -1.0
    for k in [0, 50, 100]:
        F = path.frames[0, k]
        gram = np.einsum("ia,ja->ij", F * sgn[None, :], F)
        assert np.max(np.abs(gram - np.eye(m.dim))) <= 10 * h


def test_torus_walk_wraps_into_chart(record_walk):
    m = Torus(2)
    path = record_walk(m, one_path(m, 9, 2.0, 200, 0, x0=[6.2, 0.05]))
    assert np.all(path.points >= 0.0)
    assert np.all(path.points < 2 * math.pi)


# ---------------------------------------------------------------------------
# damped transport: Q_s is q_decay_factor(s) times the parallel transport

def _damped(m, times):
    """Q at each time in the transported frame, (len(times), d, d)."""
    return q_decay_factor(m, times)[:, None, None] * np.eye(m.dim)


def test_damped_transport_flat_identity():
    m = Euclidean(2)
    q = _damped(m, np.linspace(0.0, 0.3, 101))
    assert np.array_equal(q[-1], np.eye(2))
    assert np.array_equal(q[37], np.eye(2))


def test_damped_transport_sphere_exact_decay():
    m = Sphere(2, 1.0)
    t = 0.8
    q = _damped(m, np.linspace(0.0, t, 101))
    # Ric# = id on the unit 2-sphere, so |Q_t| = e^{-t} exactly
    assert np.linalg.norm(q[-1], 2) == pytest.approx(math.exp(-t), rel=1e-12)


def test_damped_transport_hyperbolic_saturates_bound():
    m = Hyperbolic(2, 1.0)
    t, h = 0.6, 0.006
    q = _damped(m, np.linspace(0.0, t, 101))
    K = m.ricci_lower_bound
    norm = np.linalg.norm(q[-1], 2)
    assert norm == pytest.approx(math.exp(K * t), rel=1e-12)
    assert norm <= math.exp(K * t) * (1 + 10 * h)


@pytest.mark.parametrize("m", [Euclidean(2), Sphere(2, 1.0), Hyperbolic(2, 1.0)],
                         ids=["euclidean", "sphere", "hyperbolic"])
def test_damped_transport_pathwise_bound(m):
    # in transported-frame components Q is q_decay_factor times the identity
    # on every path, so one grid of times stands for all of them
    K = m.ricci_lower_bound
    t, h = 0.5, 0.005
    times = np.linspace(0.0, t, 101)
    q = _damped(m, times)
    for k in range(0, 101, 20):
        assert np.linalg.norm(q[k], 2) <= math.exp(K * times[k]) * (1 + 10 * h)


def test_damped_transport_generic_agrees(record_walk):
    for m in [Euclidean(2), Sphere(2, 1.0), Hyperbolic(3, 1.0)]:
        path = record_walk(m, one_path(m, 5, 0.4, 100, 0))
        qa = _damped(m, path.times)
        qb = damped_transport_generic(m, len(path.increments[0]), path.h)
        assert np.max(np.abs(qa - qb)) < 1e-10


# ---------------------------------------------------------------------------
# the W process

def _frame_pairs(m, path):
    """(v, w) pairs at the start point: two frame vectors, and a pair that
    is not orthonormal."""
    x0 = Point(path.points[0, 0])
    F0 = path.frames[0, 0]
    e = [TangentVector(x0, F0[i]) for i in range(m.dim)]
    oblique = (TangentVector(x0, 1.5 * F0[0] - 0.5 * F0[-1]),
               TangentVector(x0, 0.6 * F0[0] + 0.8 * F0[1]))
    return [(e[0], e[1]), oblique]


def _w_batched(m, path, v, w):
    """W(v, w) of every recorded path by the estimators' w_update."""
    return path.w(*_vw_components(m, Point(path.points[0, 0]), v, w))


def _w_generic(m, path, p, v, w):
    """W(v, w) of recorded path p by the curvature-package oracle."""
    return w_process_generic(m, path.points[p, 0], path.increments[p], path.h,
                             _damped(m, path.times), v, w)


def test_w_flat_is_zero(record_walk):
    m = Euclidean(2)
    path = record_walk(m, one_path(m, 6, 0.4, 100, 0))
    v, w = _frame_pairs(m, path)[0]
    W = _w_batched(m, path, v, w)
    assert np.max(np.abs(W)) == 0.0


@pytest.mark.parametrize("m", [Sphere(2, 1.0), Hyperbolic(2, 1.0), Sphere(3, 1.0)],
                         ids=["sphere", "hyperbolic", "sphere3"])
def test_w_redundancy_oracle(m, record_walk):
    # analytic constant-curvature recursion, batched over the paths of one
    # walk, vs generic tensor contraction path by path, for an orthonormal
    # and a non-orthonormal pair
    path = record_walk(m, WalkGroup(8, 0.5, 100, 2, 6, x0=m.base_point()))
    for v, w in _frame_pairs(m, path):
        Wa = _w_batched(m, path, v, w)
        for p in range(len(Wa)):
            Wb = _w_generic(m, path, p, v, w)
            assert np.max(np.abs(Wa[p] - Wb)) < 1e-10


def _w_terminal_moment(m, t, n_steps, n_paths, seed, pair="orthonormal"):
    """Mean |W_t(v, w)|^2 over paths using the estimators' W step."""
    d = m.dim
    kappa = m.sectional_curvature
    h = t / n_steps
    vbar = np.zeros(d)
    vbar[0] = 1.0
    wbar = np.zeros(d)
    if pair == "orthonormal":
        wbar[1] = 1.0
    else:
        wbar[0] = 1.0
    damp = math.exp(-h * (d - 1) * kappa)

    def observe(walk):
        W = np.zeros((d, walk.n_paths))
        for k, dB in walk.steps():
            qv, qw = q_decay_factor(m, k * h) * np.stack([vbar, wbar])
            W = w_update(m, W, dB.T, qv[:, None], np.dot(qv, qw), qw @ dB.T, damp)
        return np.sum(W ** 2, axis=0)

    # chunked, so memory holds one chunk's walk rather than all paths
    sq = np.concatenate([v for _, v in _walk_chunks(m, m.base_point(), t, n_steps,
                                                    seed, n_paths, observe)])
    return sq.mean(), sq.std(ddof=1) / math.sqrt(n_paths)


def test_w_moment_sphere_matches_closed_form():
    # independent oracle: E|W_t(v,w)|^2 = e^{-2t} (1 - e^{-2t}) on the unit
    # 2-sphere for orthonormal (v, w) (Ornstein-Uhlenbeck in the frame)
    t = 1.0
    mean, se = _w_terminal_moment(Sphere(2, 1.0), t, 200, 100000, seed=123)
    exact = math.exp(-2 * t) * (1 - math.exp(-2 * t))
    assert abs(mean - exact) <= 3 * se + 0.01 * exact
    # frozen regression value for the estimator (exact formula above)
    assert exact == pytest.approx(0.11701964, abs=1e-8)
    # fitted-constant form of the moment bound with K = 0:
    # mean <= C e^{(4K + 2 theta) t} holds with a finite C
    theta = 1.0  # Kato rate of the constant potential |R|^2 = 1
    assert mean <= 1.0 * math.exp((0 + 2 * theta) * t)


def test_w_moment_hyperbolic_matches_closed_form():
    t = 0.5
    mean, se = _w_terminal_moment(Hyperbolic(2, 1.0), t, 200, 100000, seed=321)
    exact = math.exp(2 * t) * (math.exp(2 * t) - 1)
    assert abs(mean - exact) <= 3 * se + 0.01 * exact


def test_w_drift_term_vanishes_on_models(record_walk):
    # the (d*R + grad Ric#) drift is exactly zero: recursion with the drift
    # contracted from the curvature package equals the drift-free recursion
    m = Sphere(2, 1.0)
    path = record_walk(m, one_path(m, 4, 0.3, 100, 0))
    v, w = _frame_pairs(m, path)[0]
    Wa = _w_batched(m, path, v, w)[0]  # no drift by construction
    Wb = _w_generic(m, path, 0, v, w)  # drift from tensors (zeros)
    assert np.max(np.abs(Wa - Wb)) < 1e-12


# ---------------------------------------------------------------------------
# chunk walk consistency with one-path walks

def test_chunk_walk_matches_one_path_walks(record_walk):
    m = Sphere(2, 1.0)
    t, n_steps = 0.4, 80
    walk = ChunkWalk(m, [WalkGroup(55, t, n_steps, 3, 6, x0=m.base_point())])
    walk.run()
    for offset, idx in enumerate(range(3, 6)):
        path = record_walk(m, one_path(m, 55, t, n_steps, idx))
        assert np.array_equal(walk.points[offset], path.points[0, -1])
        assert np.array_equal(walk.frames[offset], path.frames[0, -1])


def test_antithetic_chunks_flip_signs(record_walk):
    m = Euclidean(2)
    inc = record_walk(m, WalkGroup(10, 0.2, 40, 0, 4, x0=m.base_point()),
                      antithetic=True).increments
    assert np.array_equal(inc[0], -inc[1])
    assert np.array_equal(inc[2], -inc[3])
    assert not np.array_equal(inc[0], inc[2])
