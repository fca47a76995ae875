"""Brownian paths on model manifolds and the transport processes along them.

The walk is a geodesic random walk: at each step the path moves along the
exact exponential map in the direction of frame-coordinate Gaussian
increments, and the orthonormal frame is parallel-transported exactly.
Increments have per-coordinate variance ``2 h`` so that the walk's generator
is the geometric Laplacian (the heat semigroup convention used throughout:
eigenfunctions decay like ``exp(-lambda t)`` with lambda the positive
eigenvalue).

The batched walk (:class:`ChunkWalk`) walks one or more groups of paths
side by side, each with its own stream, step size and step count; a group
that has walked its steps leaves the end of the live slice.  It stores its
state coordinate major -- points (ambient, n), frames (d, ambient, n),
each group's increments (n_steps, d, n) --
so every per-step operation is a whole-row numpy call over the n paths
rather than a reduction over a length-3 inner axis.  One step is
:meth:`ManifoldModel.walk_step`: the move along ``V = sum_i dB_i F_i`` and
the frame transport share one evaluation of the trigonometric functions,
and the transport is a single rank-one update because the frame components
of the unit step direction are ``dB / |V|`` (the frame is orthonormal).

The curvature process W_t(v, w) has one recursion, :func:`w_step`, which
advances a chunk of paths and optionally a batch of (v, w) pairs at once;
its update from the inner products, :func:`w_update`, also takes a step
size and transport factor per path, for a walk of several groups.
The Hessian estimators, verify's domination check and the single-path
:func:`w_process` all call it; only the curvature-package oracles
(``*_generic``) compute W another way.

Randomness is counter based: uniform draw ``j`` of step ``k`` of path ``p``
sits at a fixed offset in a Philox stream keyed by the 64-bit seed, so any
chunk of paths can be generated independently of scheduling and results are
bitwise reproducible.  Gaussians come from inverting the normal CDF, which
consumes exactly one uniform each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import expm
from scipy.special import ndtri

from .geometry import (
    ManifoldModel,
    OrthonormalFrame,
    Point,
    TangentVector,
    curvature_package,
)

__all__ = [
    "PathRecord",
    "sample_path",
    "damped_transport",
    "damped_transport_generic",
    "w_process",
    "w_process_generic",
    "w_step",
    "w_update",
    "ChunkWalk",
    "WalkGroup",
    "increment_block",
    "q_decay_factor",
]


# ---------------------------------------------------------------------------
# counter-based increment generation

def _stream_stride(n_steps: int, d: int) -> int:
    # per-path uniform budget rounded up so path offsets are Philox blocks
    need = n_steps * d
    return 4 * ((need + 3) // 4)


def increment_block(seed: int, n_steps: int, d: int, h: float,
                    path_lo: int, path_hi: int) -> np.ndarray:
    """Anti-development increments for paths [path_lo, path_hi).

    Returns shape (n_paths, n_steps, d); each entry is Normal(0, 2h), the
    draw for (path, step, coordinate) living at a fixed stream position.
    """
    n = path_hi - path_lo
    stride = _stream_stride(n_steps, d)
    bg = np.random.Philox(key=np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    bg.advance((path_lo * stride) // 4)
    u = np.random.Generator(bg).random(n * stride)
    # transformed in place: the uniforms become the increments
    z = u.reshape(n, stride)[:, :n_steps * d]
    z[z <= 0.0] = 2.0 ** -54
    ndtri(z, out=z)
    z *= math.sqrt(2.0 * h)
    return z.reshape(n, n_steps, d)


def q_decay_factor(m: ManifoldModel, s) -> np.ndarray:
    """Scalar damped-transport factor on constant-curvature models.

    Ric# = (d-1) kappa id, so the damped transport is exp(-(d-1) kappa s)
    times the parallel transport.
    """
    rate = (m.dim - 1) * m.sectional_curvature
    return np.exp(-rate * np.asarray(s, dtype=float))


# ---------------------------------------------------------------------------
# record types

@dataclass
class PathRecord:
    """One discretized Brownian trajectory with frames and increments."""

    times: np.ndarray       # (N+1,)
    points: np.ndarray      # (N+1, ambient)
    frames: np.ndarray      # (N+1, d, ambient)
    increments: np.ndarray  # (N, d)
    seed: int
    path_index: int

    @property
    def n_steps(self) -> int:
        return len(self.increments)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


# ---------------------------------------------------------------------------
# chunked walker

class WalkGroup(NamedTuple):
    """Paths [path_lo, path_hi) of the stream ``seed``, walked ``n_steps``
    steps of size t / n_steps; ``key`` labels the caller's path set."""

    seed: int
    t: float
    n_steps: int
    path_lo: int
    path_hi: int
    key: int = 0


def _group_increments(m: ManifoldModel, g: WalkGroup, antithetic: bool) -> np.ndarray:
    """Step-major (n_steps, d, n) increments of one group, contiguous."""
    h = float(g.t) / g.n_steps
    if not antithetic:
        base = increment_block(g.seed, g.n_steps, m.dim, h, g.path_lo, g.path_hi)
        return np.ascontiguousarray(base.transpose(1, 2, 0))
    # physical paths 2m, 2m+1 share stream m with flipped signs
    lo_s, hi_s = g.path_lo // 2, (g.path_hi + 1) // 2
    base = increment_block(g.seed, g.n_steps, m.dim, h, lo_s, hi_s)
    streams = np.arange(g.path_lo, g.path_hi) // 2 - lo_s
    inc = np.empty((g.n_steps, m.dim, g.path_hi - g.path_lo))
    # the indices are in range; mode="clip" lets take fill inc directly
    # where the default mode would buffer a second full block
    np.take(base.transpose(1, 2, 0), streams, axis=2, out=inc, mode="clip")
    inc[:, :, (g.path_lo + 1) % 2::2] *= -1.0  # odd physical paths
    return inc


class ChunkWalk:
    """Vectorized geodesic random walk for contiguous blocks of paths.

    A walk holds one or more :class:`WalkGroup` side by side, each with its
    own stream, horizon and step count, sorted longest first.  A group walks
    its own steps and then stays where it is: it leaves the end of the live
    slice, so the paths that still walk step k are always the first ones.
    ``t``, ``n_steps``, ``h`` and ``seed`` are those of the first (longest)
    group, and ``n_paths`` counts the paths the last step moved (all of them
    before the first step).

    All paths start at the same point, or at one point each when ``x0`` is
    a batch.  The walk exposes a generator over steps; observers read
    ``points``/``frames`` (state at the left node) and the yielded
    increments, both in fixed path order.

    State is held coordinate major -- points (ambient, n), frames
    (d, ambient, n), each group's increments step major (n_steps, d, n) in
    ``group_increments`` -- so that each step is one
    :meth:`ManifoldModel.walk_step` of whole-row operations.  ``points``
    (n, ambient), ``frames`` (n, d, ambient) and ``increments``
    (n, n_steps, d) are transposed views of that state, and the (n, d)
    increments yielded per step are views whose ``.T`` is contiguous.
    """

    def __init__(self, m: ManifoldModel, x0: np.ndarray, t: Optional[float] = None,
                 n_steps: Optional[int] = None, seed: Optional[int] = None,
                 path_lo: Optional[int] = None, path_hi: Optional[int] = None,
                 antithetic: bool = False, *, groups=None):
        if groups is None:
            groups = [WalkGroup(seed, t, n_steps, path_lo, path_hi)]
        self.groups = tuple(groups)
        if min(g.n_steps for g in self.groups) < 1:
            raise ValueError("need at least one step")
        if any(a.n_steps < b.n_steps for a, b in zip(self.groups, self.groups[1:])):
            raise ValueError("groups must be sorted by step count, longest first")
        first = self.groups[0]
        self.m = m
        self.t = float(first.t)
        self.n_steps = first.n_steps
        self.h = self.t / self.n_steps
        self.seed = int(first.seed)
        self.bounds = [0]
        for g in self.groups:
            self.bounds.append(self.bounds[-1] + g.path_hi - g.path_lo)
        n = self.bounds[-1]
        self.group_increments = [_group_increments(m, g, antithetic) for g in self.groups]
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim == 2:
            if x0.shape[0] != n:
                raise ValueError("batch of start points must match the path count")
            self._P = np.ascontiguousarray(x0.T)
            self._F = np.ascontiguousarray(m.frame(x0).transpose(1, 2, 0))
        else:
            self._P = np.repeat(x0[:, None], n, axis=1)
            f0 = m.frame(x0[None, :])[0]
            self._F = np.repeat(f0[:, :, None], n, axis=2)
        self.n_paths = n
        self._live = len(self.groups)
        self._row_k, self._row = -1, None

    @property
    def points(self) -> np.ndarray:
        return self._P.T

    @property
    def frames(self) -> np.ndarray:
        return self._F.transpose(2, 0, 1)

    @property
    def increments(self) -> np.ndarray:
        """(n, n_steps, d) increments of a one-group walk."""
        (inc,) = self.group_increments
        return inc.transpose(2, 0, 1)

    def group_state(self, g: int):
        """Points (n_g, ambient) and frames (n_g, d, ambient) of group g, as
        transposed views of contiguous arrays.  A group's end state is there
        from its last move until the next step: at the yield of step
        ``n_steps`` of the group, or after the walk for the longest groups."""
        lo, hi = self.bounds[g], self.bounds[g + 1]
        P = np.ascontiguousarray(self._P[:, lo:hi])
        F = np.ascontiguousarray(self._F[..., lo:hi])
        return P.T, F.transpose(2, 0, 1)

    def _live_groups(self, k: int) -> int:
        """Number of groups that walk step k (steps run in order)."""
        g = self._live
        while g > 1 and self.groups[g - 1].n_steps <= k:
            g -= 1
        self._live = g
        return g

    def _increments(self, k: int) -> np.ndarray:
        """(d, n_live) increments of step k for the groups that walk it."""
        live = self._live_groups(k)
        if live == 1:
            return self.group_increments[0][k]
        if self._row_k != k:
            self._row_k, self._row = k, np.concatenate(
                [inc[k] for inc in self.group_increments[:live]], axis=1)
        return self._row

    def step(self, k: int) -> None:
        """Advance every path that walks step k."""
        dB = self._increments(k)
        n = dB.shape[1]
        if n < self._P.shape[1]:
            self._P, self._F = self._P[:, :n], self._F[..., :n]
        self.n_paths = n
        self._P, self._F = self.m.walk_step(self._P, self._F, dB)
        if not np.all(np.isfinite(self._P)):
            bad = int(np.argmax(~np.all(np.isfinite(self._P), axis=0)))
            lo = max(b for b in self.bounds if b <= bad)
            raise FloatingPointError(
                f"path diverged at step {k} (chunk-local index {bad - lo})")

    def steps(self):
        """Yield (k, increments) with the walk state at the left node; the
        increments cover the live paths, and the move executes when the
        generator resumes."""
        for k in range(self.n_steps):
            yield k, self._increments(k).T
            self.step(k)

    def run(self):
        for k in range(self.n_steps):
            self.step(k)
        return self


def _check_grid(t: float, h: float) -> int:
    if not (t > 0):
        raise ValueError("time horizon t must be positive")
    if not (0 < h <= t):
        raise ValueError("step h must satisfy 0 < h <= t")
    n = t / h
    n_round = round(n)
    if abs(n - n_round) > 1e-9 * max(1.0, n):
        raise ValueError(f"t/h = {n} is not an integer number of steps")
    return int(n_round)


def _grid_steps(t: float, h: float, lo: int = 1, hi: Optional[int] = None) -> int:
    """Step count of a walk over [0, t] at step about h: round(t / h), ties
    to even, clipped to [lo, hi].  Unlike :func:`_check_grid`, t need not
    be a multiple of h; the caller walks at step t / n."""
    if not (0 < t < math.inf and 0 < h < math.inf):
        raise ValueError("time horizon t and step h must be positive and finite")
    n = max(lo, round(t / h))
    return n if hi is None else min(n, hi)


def sample_path(m: ManifoldModel, x0: Point, t: float, h: float,
                seed: int, path_index: int) -> PathRecord:
    """Simulate one geodesic-random-walk trajectory.

    Deterministic function of (seed, path_index): rerunning with identical
    arguments reproduces the record bitwise.
    """
    n_steps = _check_grid(t, h)
    walk = ChunkWalk(m, np.asarray(x0.coords), t, n_steps, seed,
                     path_index, path_index + 1)
    amb, d = m.ambient_dim, m.dim
    points = np.empty((n_steps + 1, amb))
    frames = np.empty((n_steps + 1, d, amb))
    # the generator yields before each move, so the loop body sees node k
    for k, _dB in walk.steps():
        points[k] = walk.points[0]
        frames[k] = walk.frames[0]
    points[n_steps] = walk.points[0]
    frames[n_steps] = walk.frames[0]
    return PathRecord(
        times=np.linspace(0.0, t, n_steps + 1),
        points=points,
        frames=frames,
        increments=walk.increments[0],
        seed=int(seed),
        path_index=int(path_index),
    )


def damped_transport(m: ManifoldModel, path: PathRecord) -> np.ndarray:
    """Q_t along the path, transported-frame components, shape (N+1, d, d).

    On the constant-curvature models Ric# = (d-1) kappa id, so each step is
    the exact scalar exponential; Q stays a multiple of the identity.
    """
    d = m.dim
    n = path.n_steps
    out = np.empty((n + 1, d, d))
    scale = q_decay_factor(m, path.times)
    eye = np.eye(d)
    for k in range(n + 1):
        out[k] = scale[k] * eye
    return out


def damped_transport_generic(m: ManifoldModel, path: PathRecord) -> np.ndarray:
    """Q_t via the per-step matrix exponential of the Ricci operator.

    Independent route used as a redundancy oracle: contracts the curvature
    package instead of the closed-form scalar decay.
    """
    d = m.dim
    n = path.n_steps
    h = path.step
    out = np.empty((n + 1, d, d))
    out[0] = np.eye(d)
    pkg = curvature_package(m, Point(path.points[0]),
                            OrthonormalFrame(Point(path.points[0]), path.frames[0]))
    step_mat = expm(-h * pkg.ricci)  # Ricci is position independent on models
    for k in range(n):
        out[k + 1] = step_mat @ out[k]
    return out


def _w_step_terms(riemann: np.ndarray, drift3: np.ndarray, dB: np.ndarray,
                  qv: np.ndarray, qw: np.ndarray, h: float) -> np.ndarray:
    # R(frame dB, Qv) Qw  - h * (d*R + grad Ric#)(Qv, Qw), frame components
    incr = np.einsum("ijkl,i,j,k->l", riemann, dB, qv, qw)
    incr -= h * np.einsum("ijl,i,j->l", drift3, qv, qw)
    return incr


def w_step(m: ManifoldModel, W: np.ndarray, dB: np.ndarray,
           qv: np.ndarray, qw: np.ndarray, damp: float) -> np.ndarray:
    """One step of the W recursion for a chunk of paths, frame components.

    ``W`` is (..., d, n) and ``dB`` (d, n); ``qv``, ``qw`` are the (..., d)
    damped-transport images of v and w, with one optional leading index per
    (v, w) pair.  On constant curvature R(dB, qv) qw reduces to
    kappa (<qv, qw> dB - <dB, qw> qv), and the Ricci damping is the scalar
    ``damp``.
    """
    if m.sectional_curvature == 0.0:
        return damp * W
    # <qv, qw>; a stack of pairs takes it as (..., 1, 1) to broadcast over dB
    qvw = np.dot(qv, qw) if qv.ndim == 1 else qv[..., None, :] @ qw[..., :, None]
    return w_update(m, W, dB, qv[..., :, None], qvw, (qw @ dB)[..., None, :], damp)


def w_update(m: ManifoldModel, W: np.ndarray, dB: np.ndarray, qv: np.ndarray,
             qvw, qw_dB, damp) -> np.ndarray:
    """The W step of :func:`w_step` from its inner products.

    ``qvw`` is <qv, qw> and ``qw_dB`` is <qw, dB>; with ``qv`` (d, n) and
    ``qvw``, ``qw_dB``, ``damp`` of shape (n,) every path has its own step
    size and transport factor, which is how a batch of groups walks.
    """
    kappa = m.sectional_curvature
    if kappa == 0.0:
        return damp * W
    return damp * W + kappa * (qvw * dB - qv * qw_dB)


def w_process(m: ManifoldModel, path: PathRecord, q: np.ndarray,
              v: TangentVector, w: TangentVector) -> np.ndarray:
    """W_t(v, w) along the path, components in the transported frame.

    Ito recursion with left-point curvature action and exact-exponential
    Ricci damping (matching the damped transport discretization):

        W_{k+1} = e^{-h Ric#} W_k + R(dB_k, Q_k v) Q_k w
                  - h (d*R + grad Ric#)(Q_k v, Q_k w)

    The drift term vanishes identically on constant-curvature models.  Each
    step is :func:`w_step` on a one-path chunk.
    """
    d = m.dim
    n = path.n_steps
    h = path.step
    vbar, wbar = _vw_components(m, Point(path.points[0]), v, w)
    damp = math.exp(-h * (d - 1) * m.sectional_curvature)
    out = np.zeros((n + 1, d))
    W = np.zeros((d, 1))
    for k in range(n):
        W = w_step(m, W, path.increments[k][:, None], q[k] @ vbar, q[k] @ wbar, damp)
        out[k + 1] = W[:, 0]
    return out


def w_process_generic(m: ManifoldModel, path: PathRecord, q: np.ndarray,
                      v: TangentVector, w: TangentVector) -> np.ndarray:
    """W_t(v, w) with all curvature action read from the curvature package."""
    d = m.dim
    n = path.n_steps
    h = path.step
    x0 = Point(path.points[0])
    pkg = curvature_package(m, x0, OrthonormalFrame(x0, path.frames[0]))
    drift3 = pkg.dstar_r + pkg.ricci_sharp_grad
    damp = expm(-h * pkg.ricci)
    vbar, wbar = _vw_components(m, x0, v, w)
    out = np.zeros((n + 1, d))
    W = np.zeros(d)
    for k in range(n):
        qv = q[k] @ vbar
        qw = q[k] @ wbar
        incr = _w_step_terms(pkg.riemann, drift3, path.increments[k], qv, qw, h)
        W = damp @ W + incr
        out[k + 1] = W
    return out


def frame_components(m: ManifoldModel, frames: np.ndarray,
                     ambient_vecs: np.ndarray) -> np.ndarray:
    """Components of ambient tangent vectors in given frames, batched."""
    sgn = m.metric_sign()
    return np.einsum("nda,na->nd", frames * sgn[None, None, :], ambient_vecs)


def _vw_components(m: ManifoldModel, x: Point, v: TangentVector,
                   w: Optional[TangentVector] = None):
    """Components of v (and w) in the frame at x; (vbar, None) without w."""
    F0 = m.frame(np.asarray(x.coords)[None, :])[0] * m.metric_sign()[None, :]
    vbar = F0 @ np.asarray(v.comps)
    if w is None:
        return vbar, None
    wbar = F0 @ np.asarray(w.comps)
    return vbar, wbar
