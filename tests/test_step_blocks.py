"""Walk increments arrive in step blocks through one reused wave buffer.

Every row a walk yields (``steps()`` and ``group_step``) must be bitwise the
matching slice of the group's whole ``increment_block``, whichever route
drew it: one contiguous call for a group within the draw budget, or
re-anchored runs of each path's stream for a larger one.  The walk's memory
must not grow with the horizon once a group is over the budget.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mheat import transport
from mheat.geometry import Euclidean
from mheat.transport import ChunkWalk, WalkGroup, increment_block

B = transport._BLOCK_STEPS


def _expected(grp, d, antithetic):
    """Step-major (n_steps, d, n_g) increments of one group, path by path
    from the whole walk's block: physical paths 2m, 2m + 1 of an antithetic
    group read stream m, the odd one negated."""
    h = grp.t / grp.n_steps
    paths = np.arange(grp.path_lo, grp.path_hi)
    if antithetic:
        lo = grp.path_lo // 2
        full = increment_block(grp.seed, grp.n_steps, d, h, lo, (grp.path_hi + 1) // 2)
        rows = full[paths // 2 - lo] * np.where(paths % 2, -1.0, 1.0)[:, None, None]
    else:
        rows = increment_block(grp.seed, grp.n_steps, d, h, grp.path_lo, grp.path_hi)
    return rows.transpose(1, 2, 0)


def _check_rows(walk, d, antithetic, budget):
    groups = walk.groups
    expected = [_expected(g, d, antithetic) for g in groups]
    with mock.patch.object(transport, "_DRAW_BUDGET", budget):
        for k, dB in walk.steps():
            live = [g for g, grp in enumerate(groups) if grp.n_steps > k]
            assert dB.shape == (walk.bounds[len(live)], d)
            for g in live:
                lo, hi = walk.bounds[g], walk.bounds[g + 1]
                assert np.array_equal(dB[lo:hi].T, expected[g][k])
                assert np.array_equal(walk.group_step(g, k), expected[g][k])
    for inc, exp in zip(walk.group_increments, expected):
        assert np.array_equal(inc, exp)


@st.composite
def _waves(draw):
    """Groups of one wave, longest first, with step counts on both sides of
    block boundaries, and a draw budget from 1 uniform to the module's."""
    d = draw(st.integers(1, 3))
    steps = sorted(draw(st.lists(st.integers(1, 3 * B + 5), min_size=1, max_size=4)),
                   reverse=True)
    groups = []
    for key, n_steps in enumerate(steps):
        lo = draw(st.integers(0, 40))
        groups.append(WalkGroup(draw(st.integers(0, 2 ** 64 - 1)),
                                n_steps * draw(st.sampled_from([0.01, 0.003])),
                                n_steps, lo, lo + draw(st.integers(1, 9)), key,
                                np.zeros(d)))
    budget = draw(st.one_of(st.just(transport._DRAW_BUDGET), st.integers(1, 4000)))
    return d, groups, draw(st.booleans()), budget


@settings(max_examples=60, deadline=None)
@given(_waves())
def test_walk_rows_are_slices_of_the_whole_block(wave):
    d, groups, antithetic, budget = wave
    walk = ChunkWalk(Euclidean(d), groups, antithetic)
    _check_rows(walk, d, antithetic, budget)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), n_steps=st.integers(1, 40),
       d=st.integers(1, 5), lo=st.integers(0, 50), width=st.integers(1, 6),
       data=st.data())
def test_step_range_is_a_slice_of_the_whole_block(seed, n_steps, d, lo, width, data):
    # any k0, so a path's run may start inside a Philox block of 4 uniforms
    k0 = data.draw(st.integers(0, n_steps - 1))
    k1 = data.draw(st.integers(k0 + 1, n_steps))
    full = increment_block(seed, n_steps, d, 0.01, lo, lo + width)
    part = increment_block(seed, n_steps, d, 0.01, lo, lo + width, k0, k1)
    assert part.shape == (width, k1 - k0, d)
    assert np.array_equal(part, full[:, k0:k1])


def _spans(spy):
    """(k0, k1) of the step-range draws a spied ``increment_block`` made."""
    return [c.args[6:] for c in spy.call_args_list if len(c.args) > 6]


# 9 streams each: physical paths [3, 20) and [4, 22) of antithetic pairs
@pytest.mark.parametrize("antithetic, path_lo, path_hi",
                         [(False, 3, 12), (True, 3, 20), (True, 4, 22)])
def test_group_over_the_budget_draws_spans_of_blocks(antithetic, path_lo, path_hi):
    # 9 streams x 100 steps x d = 2 is 1,800 uniforms; a budget of three
    # blocks of every stream (1,728) sends the group through per-path runs
    d, n_steps = 2, 100
    walk = ChunkWalk(Euclidean(d), [WalkGroup(11, n_steps * 0.01, n_steps, path_lo,
                                              path_hi, x0=np.zeros(d))], antithetic)
    with mock.patch.object(transport, "increment_block",
                           wraps=increment_block) as spy:
        _check_rows(walk, d, antithetic, 3 * 9 * B * d)
    # the walk's two spans, then group_increments' whole draw
    assert _spans(spy) == [(0, 3 * B), (3 * B, n_steps), (0, None)]


def test_group_within_the_budget_draws_once():
    walk = ChunkWalk(Euclidean(2), [WalkGroup(11, 1.0, 100, 0, 9, x0=np.zeros(2))])
    with mock.patch.object(transport, "increment_block",
                           wraps=increment_block) as spy:
        walk.run()
    assert _spans(spy) == [(0, None)]


def test_group_step_outside_the_buffer_raises():
    walk = ChunkWalk(Euclidean(2), [WalkGroup(11, 1.0, 100, 0, 9, x0=np.zeros(2))])
    steps = walk.steps()
    next(steps)
    with pytest.raises(ValueError, match="wave buffer"):
        walk.group_step(0, B)
    with pytest.raises(ValueError, match="step range"):
        increment_block(11, 100, 2, 0.01, 0, 9, 50, 50)


def _walk_peak(m, n_steps, n_paths=256):
    """tracemalloc peak of building and walking one chunk of paths."""
    tracemalloc.start()
    try:
        ChunkWalk(m, [WalkGroup(7, 0.001 * n_steps, n_steps, 0, n_paths,
                                x0=m.base_point())]).run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_memory_does_not_grow_with_the_horizon():
    # 256 paths x 4,000 steps x d = 3 is over the draw budget, so the walk
    # holds one span of blocks of its streams, not the whole draw
    m = Euclidean(3)
    assert 256 * 4000 * 3 > transport._DRAW_BUDGET
    assert _walk_peak(m, 4000) <= 1.5 * _walk_peak(m, 250)


def test_walk_memory_within_the_budget_is_one_draw():
    # a group within the budget keeps its whole draw: at d = 2, 4,000 steps
    # of 256 paths still fit, and memory grows up to the budget, no further
    m = Euclidean(2)
    assert 256 * 4000 * 2 <= transport._DRAW_BUDGET < 256 * 8000 * 2
    base = _walk_peak(m, 250)
    assert _walk_peak(m, 4000) <= base + 8 * transport._DRAW_BUDGET
    assert _walk_peak(m, 8000) <= 1.5 * base
