import os

# one BLAS/OpenMP thread per process, as in the benchmark: the matmuls here
# are small, and a pool of nproc threads per call only contends with other
# processes.  Set before numpy is first imported, which is when it counts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# the imports below load numpy, so they follow the thread settings
import math
from typing import NamedTuple

import numpy as np
import pytest

from mheat.geometry import ManifoldModel
from mheat.transport import ChunkWalk, WalkGroup, q_decay_factor, w_update


class WalkRecord(NamedTuple):
    """Every node of a one-group walk, path major: ``points`` (n, N+1,
    ambient), ``frames`` (n, N+1, d, ambient), ``increments`` (n, N, d)."""

    m: ManifoldModel
    times: np.ndarray  # (N+1,)
    points: np.ndarray
    frames: np.ndarray
    increments: np.ndarray

    @property
    def h(self) -> float:
        return float(self.times[1] - self.times[0])

    def w(self, vbar: np.ndarray, wbar: np.ndarray) -> np.ndarray:
        """W(v, w) at every node, (n, N+1, d): the estimators' w_update over
        all paths at once, with Q the scalar q_decay_factor at each left
        node; ``vbar``, ``wbar`` are frame components at the start point."""
        m = self.m
        n, N, d = self.increments.shape
        damp = math.exp(-self.h * (d - 1) * m.sectional_curvature)
        W = np.zeros((N + 1, d, n))
        for k in range(N):
            qv, qw = q_decay_factor(m, self.times[k]) * np.stack([vbar, wbar])
            dB = self.increments[:, k].T
            W[k + 1] = w_update(m, W[k], dB, qv[:, None], np.dot(qv, qw), qw @ dB, damp)
        return W.transpose(2, 0, 1)


def _record_walk(m: ManifoldModel, group: WalkGroup,
                 antithetic: bool = False) -> WalkRecord:
    walk = ChunkWalk(m, [group], antithetic)
    points, frames, incs = [], [], []
    # the generator yields before each move, so the loop body sees node k
    for _k, dB in walk.steps():
        points.append(walk.points.copy())
        frames.append(walk.frames.copy())
        incs.append(dB.copy())
    points.append(walk.points.copy())
    frames.append(walk.frames.copy())
    return WalkRecord(m, np.linspace(0.0, group.t, group.n_steps + 1),
                      np.stack(points, axis=1), np.stack(frames, axis=1),
                      np.stack(incs, axis=1))


@pytest.fixture
def record_walk():
    """``record_walk(m, group, antithetic=False)`` walks one WalkGroup and
    returns its :class:`WalkRecord`."""
    return _record_walk
