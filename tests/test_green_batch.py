"""Green's quadrature nodes walk as groups of batched walks.

Each node's chunks are groups of a few :class:`ChunkWalk` waves; every
node's estimate must be bitwise what a standalone ``estimate_hess`` on that
node's stream, step and path count returns, and no wave may hold more
paths than the call's widest group or more increment memory than its
costliest one (the one-wave pilot aside).
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mheat import semigroup, transport
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
                    *args[:5], kw["t"][i], mode=args[5], n_paths=kw["n_paths"][i],
                    h=kw["h"][i], seed=kw["seed"][i], chunk_size=64, threads=threads)
            assert est.scalar.hex() == alone.scalar.hex(), (i, kw["n_paths"][i])
            assert est.scalar_stderr.hex() == alone.scalar_stderr.hex()
            assert (est.n_paths, est.t, est.seed, est.mode, est.notes) == \
                (alone.n_paths, alone.t, alone.seed, alone.mode, alone.notes)


def test_waves_are_bounded(monkeypatch):
    m, f, x, sigma, h = _case("s2")
    walks, memory = [], []

    def spy(*args, **kw):
        walk = ChunkWalk(*args, **kw)
        walks.append([(g.path_hi - g.path_lo, g.n_steps, g.key) for g in walk.groups])
        # (wave, each group alone) increment memory; Green walks antithetic pairs
        cost = [transport._wave_footprint(gs, m.dim, True)
                for gs in [walk.groups] + [[g] for g in walk.groups]]
        memory.append((cost[0], cost[1:]))
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
    largest = max(c for _, alone in memory[1:] for c in alone)
    widest = max(p for p, _, _ in groups)
    for wave, (cost, _) in zip(main, memory[1:]):
        assert cost <= largest
        assert sum(p for p, _, _ in wave) <= widest
        # longest first, so a retiring group leaves the end of the live slice
        assert [k for _, k, _ in wave] == sorted((k for _, k, _ in wave), reverse=True)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), antithetic=st.booleans(),
       shapes=st.lists(st.tuples(st.integers(1, 700), st.integers(1, 4096)),
                       min_size=1, max_size=24),
       budget=st.integers(1, 1 << 16))
def test_pack_waves_longest_first_within_both_bounds(d, antithetic, shapes, budget):
    # a small draw budget puts wide or long groups over it, so their
    # footprint is a block span rather than the whole walk
    groups = [WalkGroup(1, 1.0, k, 0, w + w % 2 if antithetic else w, key=i)
              for i, (k, w) in enumerate(shapes)]
    with mock.patch.object(transport, "_DRAW_BUDGET", budget):
        waves = semigroup._pack_waves(groups, d, antithetic)
        memory = [transport._wave_footprint([groups[j] for j in wave], d, antithetic)
                  for wave in waves]
        costliest = max(transport._wave_footprint([g], d, antithetic) for g in groups)
        (single,) = semigroup._pack_waves(groups, d, antithetic, one_wave=True)
    assert sorted(j for wave in waves for j in wave) == list(range(len(groups)))
    widest = max(g.path_hi - g.path_lo for g in groups)
    for wave, cost in zip(waves, memory):
        assert sum(groups[j].path_hi - groups[j].path_lo for j in wave) <= widest
        assert cost <= costliest
    for wave in waves + [single]:
        steps = [groups[j].n_steps for j in wave]
        assert steps == sorted(steps, reverse=True)
    assert sorted(single) == list(range(len(groups)))


def _owned_size(a):
    while a.base is not None:
        a = a.base
    return a.size


@pytest.mark.parametrize("antithetic", [False, True])
def test_wave_footprint_is_the_walks_increment_arrays(antithetic):
    # after the first refill the walk holds its wave buffer and one draw per
    # group: the first group is over the patched budget and draws a block
    # span, the second draws its whole walk
    m = Sphere(3, 1.0)
    groups = [WalkGroup(7, 1.0, 300, 0, 200), WalkGroup(9, 0.5, 90, 0, 40)]
    with mock.patch.object(transport, "_DRAW_BUDGET", 20000):
        walk = ChunkWalk(m, [g._replace(x0=m.base_point()) for g in groups],
                         antithetic)
        next(walk.steps())
        footprint = transport._wave_footprint(groups, m.dim, antithetic)
    drawn = [z for _, z in walk._drawn]
    assert drawn[0].shape[1] < 300 and drawn[1].shape[1] == 90
    assert walk._buf.size + sum(_owned_size(z) for z in drawn) == footprint


def test_green_curved_main_walk_steps(monkeypatch):
    # S^2, f = z at z = 0.8, sigma 3, h 0.01, 2000 paths: the main waves,
    # packed longest first, walk this many steps one after another
    m = Sphere(2, 1.0)
    x = Point([0.6, 0.0, 0.8])
    walks = []

    def spy(*args, **kw):
        walk = ChunkWalk(*args, **kw)
        walks.append(walk.n_steps)
        return walk

    monkeypatch.setattr(semigroup, "ChunkWalk", spy)
    estimate_green_hess(m, coordinate_field(m, axis=2), x, tv(m, x, [1, 0]),
                        tv(m, x, [1, 0]), HessianEstimatorConfig(sigma=3.0),
                        n_paths=2000, h=0.01, seed=5, mode="mixed")
    assert sum(walks[1:]) == 1136  # walks[0] is the pilot


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("kind", ["s2", "h2"])
def test_batch_columns_equal_separate_walks(kind, antithetic):
    m = {"s2": Sphere(2, 1.0), "h2": Hyperbolic(2, 1.0)}[kind]
    x0 = m.base_point()
    groups = [WalkGroup(5, 0.3, 30, 0, 6), WalkGroup(6, 0.1, 20, 4, 12),
              WalkGroup(5, 0.2, 20, 2, 4)]
    batch = ChunkWalk(m, [g._replace(x0=x0) for g in groups], antithetic)
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
        alone = ChunkWalk(m, [grp._replace(x0=x0)], antithetic).run()
        assert np.array_equal(ends[g][0], alone.points)
        assert np.array_equal(ends[g][1], alone.frames)


def test_batch_groups_must_run_longest_first():
    m = Sphere(2, 1.0)
    with pytest.raises(ValueError, match="longest first"):
        ChunkWalk(m, [WalkGroup(1, 0.1, 10, 0, 4, x0=m.base_point()),
                      WalkGroup(1, 0.2, 20, 4, 8, x0=m.base_point())])
