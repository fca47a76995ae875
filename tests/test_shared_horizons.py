"""Several horizons on one path set, and one start point per path set.

A mixed-mode Hessian path set walks to its longest horizon and is read at
each shorter horizon's step; verify's semigroup bounds walk each point once
per step size.  The goldens were recorded before horizons shared walks:
a report whose horizons share no step, and the longest horizon's rows of
one that does, are unchanged bit for bit.
"""

import hashlib
import json

import numpy as np
import pytest

from mheat import verify
from mheat.geometry import Hyperbolic, Point, Sphere, TangentVector, gaussian_bump_field
from mheat.semigroup import _hess_nodes, _walk_chunks
from mheat.transport import WalkGroup, _vw_components, frame_components, q_decay_factor
from mheat.verify import BoundCheckConfig, check_semigroup_bounds


def _model(kind):
    return {"h2": Hyperbolic(2, 1.0), "s3": Sphere(3, 1.0)}[kind]


def _point(m, key):
    g = np.random.Generator(np.random.Philox(key=key))
    return m.random_points(g, 1, spread=0.5)[0]


@pytest.mark.parametrize("kind", ["h2", "s3"])
def test_marks_equal_the_single_path_route(kind, record_walk):
    # each horizon's estimate is the mean over paths of the mixed sample
    # Hess f(Q v, Q w) + df(W(v, w)) at that horizon's step of the longest
    # walk, taken here one path at a time off a recorded walk
    m = _model(kind)
    f = gaussian_bump_field(m, center=_point(m, 71), lam=1.5)
    x = Point(_point(m, 72))
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    v = TangentVector(x, F[0])
    w = TangentVector(x, 0.6 * F[0] + 0.8 * F[1])
    h, seed, n_paths = 0.01, 404, 3
    horizons, marks = [0.04, 0.07, 0.12], [4, 7, 12]
    ests = _hess_nodes(m, f, x, v, w, "mixed", t=[horizons], h=[h],
                       seed=[seed], n_paths=[n_paths], antithetic=False)
    assert [e.t for e in ests] == horizons
    vbar, wbar = _vw_components(m, x, v, w)
    samples = np.zeros((len(marks), n_paths))
    path = record_walk(m, WalkGroup(seed, horizons[-1], marks[-1], 0, n_paths,
                                    x0=np.asarray(x.coords)))
    for p, W in enumerate(path.w(vbar, wbar)):
        for j, (t, k) in enumerate(zip(horizons, marks)):
            pts, frs = path.points[p, k][None], path.frames[p, k][None]
            qT = float(q_decay_factor(m, t))
            H = f.hess_fn(pts, frs)[0]
            gc = frame_components(m, frs, f.grad_fn(pts))[0]
            samples[j, p] = qT * qT * (vbar @ H @ wbar) + gc @ W[k]
    for est, ref in zip(ests, samples.mean(axis=1)):
        assert abs(est.scalar - ref) <= 1e-12 * abs(ref), (est.t, est.scalar, ref)


def test_bismut_set_takes_one_horizon():
    m = _model("h2")
    f = gaussian_bump_field(m, lam=1.5)
    x = Point(m.base_point())
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    v = TangentVector(x, F[0])
    with pytest.raises(ValueError, match="one horizon"):
        _hess_nodes(m, f, x, v, v, "bismut", t=[[0.04, 0.08]], h=[0.01],
                    seed=[1], n_paths=[4])


def test_horizons_of_a_set_must_be_sorted():
    m = _model("h2")
    f = gaussian_bump_field(m, lam=1.5)
    eye = np.eye(2)
    with pytest.raises(ValueError, match="sorted"):
        _hess_nodes(m, f, [Point(m.base_point())], eye, eye, "mixed",
                    t=[[0.08, 0.04]], h=[0.01], seed=[1], n_paths=[4])


# ---------------------------------------------------------------------------
# verify's semigroup bounds: one walk per point and step size

def _rows_digest(t_list, keep=None, threads=1):
    m = _model("h2")
    f = gaussian_bump_field(m, lam=1.5)
    reps = check_semigroup_bounds(
        m, f, BoundCheckConfig(alpha=0.2, h=0.02), n_paths=1000, seed=23,
        t_list=t_list, x_list=[Point(_point(m, 61)), Point(_point(m, 62))],
        include_lp=False, threads=threads)
    rows = [{k: (float(v).hex() if isinstance(v, float) else v)
             for k, v in sorted(row.items())}
            for rep in (reps[0], reps[2]) for row in rep.samples
            if keep is None or row["t"] == keep]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# sha256 of the hex rows of reports (a) and (c), recorded with one walk per
# (horizon, point)
GOLDEN_DISTINCT_STEPS = "b6af9e43f188c3988004525781d76dc773d238e14d0c462ba013e8f795ec8e4c"
GOLDEN_LONGEST_ROWS = "88c330a0854c7078586e5d603105abea59b44a3ddec1825260a27287ba30a3a3"


@pytest.mark.parametrize("threads", [1, 2])
def test_semigroup_bounds_golden_without_shared_steps(threads):
    # h = 0.02 walks t = 0.15 in 8 steps of 0.01875 and t = 0.1 in 5 of 0.02
    assert _rows_digest([0.15, 0.1], threads=threads) == GOLDEN_DISTINCT_STEPS


@pytest.mark.parametrize("threads", [1, 2])
def test_semigroup_bounds_longest_shared_horizon_golden(threads):
    # 0.2, 0.06 and 0.1 all step 0.02: one walk per point, on the stream of
    # the t = 0.2 row, whose rows are those of its own walk
    assert _rows_digest([0.2, 0.06, 0.1], keep=0.2, threads=threads) == \
        GOLDEN_LONGEST_ROWS


def test_semigroup_bounds_walks_once_per_point_and_step(monkeypatch):
    calls = []
    sets = verify._semigroup_sets

    def spy(m, f, xs, ts, h, seeds, n_paths, threads=None):
        calls.append((len(xs), list(ts), h))
        return sets(m, f, xs, ts, h, seeds, n_paths, threads)

    monkeypatch.setattr(verify, "_semigroup_sets", spy)
    m = _model("h2")
    reps = check_semigroup_bounds(
        m, gaussian_bump_field(m, lam=1.5), BoundCheckConfig(alpha=0.2, h=0.02),
        n_paths=1000, seed=3, t_list=[0.2, 0.15, 0.06, 0.1],
        x_list=[Point(_point(m, 61)), Point(_point(m, 62))], include_lp=False)
    assert calls == [(2, [0.06, 0.1, 0.2], 0.02), (2, [0.15], 0.15 / 8)]
    # rows keep the order of t_list, then of the points
    assert [(r["t"], r["x_index"]) for r in reps[0].samples] == [
        (t, ix) for t in (0.2, 0.15, 0.06, 0.1) for ix in (0, 1)]


@pytest.mark.parametrize("threads", [2, 4])
def test_shared_horizons_thread_invariant(monkeypatch, threads):
    # 1200 paths in chunks of 500: six walks, three per point, for the pool
    monkeypatch.setattr(verify, "SEMIGROUP_CHUNK", 500)
    m = _model("h2")
    f = gaussian_bump_field(m, lam=1.5)

    def run(n_threads):
        reps = check_semigroup_bounds(
            m, f, BoundCheckConfig(alpha=0.2, h=0.02), n_paths=1200, seed=9,
            t_list=[0.06, 0.1, 0.16],
            x_list=[Point(_point(m, 81)), Point(_point(m, 82))],
            include_lp=False, threads=n_threads)
        return [{k: (float(v).hex() if isinstance(v, float) else v)
                 for k, v in row.items()}
                for rep in reps for row in rep.samples]

    assert run(threads) == run(1)


# ---------------------------------------------------------------------------
# the walk layer: one start point per path set

@pytest.mark.parametrize("kind", ["h2", "s3"])
@pytest.mark.parametrize("threads", [1, 2])
def test_walk_chunks_start_point_per_set(kind, threads):
    # set 0 is cut into 32 + 8 paths, and its 8-path chunk walks with set 1's
    # 16 paths in one wave, each group from its own start point
    m = _model(kind)
    xs = np.stack([_point(m, 91), _point(m, 92)])
    t, n_steps, seeds, n_paths = [0.1, 0.1], [10, 10], [5, 6], [40, 16]

    def observe(walk):
        walk.run()
        return np.concatenate([walk.points, walk.frames.reshape(walk.n_paths, -1)],
                              axis=1)

    def values(x0, *sets):
        out = {}
        for i, v in _walk_chunks(m, x0, *sets, observe, chunk_size=32,
                                 threads=threads):
            out.setdefault(i, []).append(v)
        return {i: np.concatenate(v) for i, v in out.items()}

    both = values(xs, t, n_steps, seeds, n_paths)
    for i in range(2):
        (alone,) = values(xs[i], t[i], n_steps[i], seeds[i], n_paths[i]).values()
        assert np.array_equal(both[i], alone), i
