"""Green's quadrature nodes walk as groups of batched walks.

Each node's chunks are groups of a few :class:`ChunkWalk` waves; every
node's estimate must be bitwise what a standalone ``estimate_hess`` on that
node's stream, step and path count returns, and no wave may hold more than
the call's largest group (the one-wave pilot aside).
"""

import warnings

import numpy as np
import pytest

from mheat import semigroup
from mheat.geometry import (
    Euclidean,
    Hyperbolic,
    Point,
    Sphere,
    TangentVector,
    coordinate_field,
    gaussian_bump_field,
    square_coordinate_field,
)
from mheat.semigroup import HessianEstimatorConfig, estimate_green_hess, estimate_hess
from mheat.transport import ChunkWalk, WalkGroup


def tv(m, x, comps):
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    return TangentVector(x, np.einsum("d,da->a", np.asarray(comps, float), F))


def _case(kind):
    """(model, field, point, sigma, h) of each Green input."""
    if kind == "s2":
        m = Sphere(2, 1.0)
        return m, coordinate_field(m, axis=2), Point([0.6, 0.0, 0.8]), 3.0, 0.02
    if kind == "h2":
        # sigma 8 keeps t_max near 1.5, where the pilot's 16 steps stay on H^2
        m = Hyperbolic(2, 1.0)
        return (m, gaussian_bump_field(m, lam=1.5), Point(m.base_point()), 8.0, 0.01)
    m = Euclidean(2)
    return m, square_coordinate_field(m), Point([0.0, 0.0]), 4.0, 0.01


def _node_calls(kind, mode, threads):
    """(args, kwargs, estimates) of each node seam call of one Green call."""
    m, f, x, sigma, h = _case(kind)
    calls = []
    real = semigroup._hess_nodes

    def recorder(*args, **kw):
        ests = real(*args, **kw)
        calls.append((args, kw, ests))
        return ests

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup, "_hess_nodes", recorder)
        estimate_green_hess(m, f, x, tv(m, x, [1, 0]), tv(m, x, [0.6, 0.8]),
                            HessianEstimatorConfig(sigma=sigma, n_nodes=12),
                            n_paths=400, h=h, seed=29, chunk_size=64,
                            threads=threads, mode=mode)
    return calls


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind, mode", [("s2", "bismut"), ("s2", "mixed"),
                                        ("h2", "mixed"), ("r2", None)])
def test_batched_nodes_match_standalone_estimates(kind, mode, threads):
    calls = _node_calls(kind, mode, threads)
    assert len(calls) == 2  # the pilot and the main walks
    for args, kw, ests in calls:
        for i, est in enumerate(ests):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                alone = estimate_hess(
                    *args[:5], kw["t"][i], *args[5:7], n_paths=kw["n_paths"][i],
                    h=kw["h"][i], seed=kw["seed"][i], chunk_size=64, threads=threads)
            assert est.scalar.hex() == alone.scalar.hex(), (i, kw["n_paths"][i])
            assert est.scalar_stderr.hex() == alone.scalar_stderr.hex()
            assert (est.n_paths, est.t, est.seed, est.mode, est.notes) == \
                (alone.n_paths, alone.t, alone.seed, alone.mode, alone.notes)


def test_waves_are_bounded(monkeypatch):
    m, f, x, sigma, h = _case("s2")
    walks = []

    def spy(*args, **kw):
        walk = ChunkWalk(*args, **kw)
        walks.append([(g.path_hi - g.path_lo, g.n_steps, g.key) for g in walk.groups])
        return walk

    monkeypatch.setattr(semigroup, "ChunkWalk", spy)
    n_nodes = 20
    est = estimate_green_hess(m, f, x, tv(m, x, [1, 0]), tv(m, x, [1, 0]),
                              HessianEstimatorConfig(sigma=sigma, n_nodes=n_nodes),
                              n_paths=2000, h=0.01, seed=3)
    assert "path-steps pilot=0 " not in est.notes
    pilot, main = walks[0], walks[1:]
    # one pilot wave: every node's 64 paths over at most 16 steps
    assert sorted(key for _, _, key in pilot) == list(range(n_nodes))
    assert all(p == 64 and k <= 16 for p, k, _ in pilot)
    assert 1 <= len(main) < n_nodes
    groups = [g for wave in main for g in wave]
    assert sorted(key for _, _, key in groups) == list(range(n_nodes))
    largest = max(p * k for p, k, _ in groups)
    widest = max(p for p, _, _ in groups)
    for wave in main:
        assert sum(p * k for p, k, _ in wave) <= largest
        assert sum(p for p, _, _ in wave) <= widest
        # longest first, so a retiring group leaves the end of the live slice
        assert [k for _, k, _ in wave] == sorted((k for _, k, _ in wave), reverse=True)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("kind", ["s2", "h2"])
def test_batch_columns_equal_separate_walks(kind, antithetic):
    m = {"s2": Sphere(2, 1.0), "h2": Hyperbolic(2, 1.0)}[kind]
    x0 = m.base_point()
    groups = [WalkGroup(5, 0.3, 30, 0, 6), WalkGroup(6, 0.1, 20, 4, 12),
              WalkGroup(5, 0.2, 20, 2, 4)]
    batch = ChunkWalk(m, x0, groups=groups, antithetic=antithetic)
    ends = {}
    for k, dB in batch.steps():
        for g, grp in enumerate(groups):
            if grp.n_steps == k + 1:
                # the step that ends group g has not moved yet
                lo, hi = batch.bounds[g], batch.bounds[g + 1]
                assert np.array_equal(dB[lo:hi], batch.group_increments[g][k].T)
        for g, grp in enumerate(groups):
            if grp.n_steps == k:
                ends[g] = batch.group_state(g)
    ends[0] = batch.group_state(0)
    assert batch.n_paths == 6  # only the longest group moved last
    for g, grp in enumerate(groups):
        alone = ChunkWalk(m, x0, grp.t, grp.n_steps, grp.seed, grp.path_lo,
                          grp.path_hi, antithetic=antithetic).run()
        assert np.array_equal(ends[g][0], alone.points)
        assert np.array_equal(ends[g][1], alone.frames)


def test_batch_groups_must_run_longest_first():
    m = Sphere(2, 1.0)
    with pytest.raises(ValueError, match="longest first"):
        ChunkWalk(m, m.base_point(), groups=[WalkGroup(1, 0.1, 10, 0, 4),
                                              WalkGroup(1, 0.2, 20, 4, 8)])
