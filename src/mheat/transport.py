"""Brownian paths on model manifolds and the transport processes along them.

The walk is a geodesic random walk: at each step the path moves along the
exact exponential map in the direction of frame-coordinate Gaussian
increments, and the orthonormal frame is parallel-transported exactly.
Increments have per-coordinate variance ``2 h`` so that the walk's generator
is the geometric Laplacian (the heat semigroup convention used throughout:
eigenfunctions decay like ``exp(-lambda t)`` with lambda the positive
eigenvalue).

The batched walk (:class:`ChunkWalk`) walks one or more groups of paths side
by side, each with its own stream, step size, step count and start point
(one point, or one point per path); a group that has walked its steps
leaves the end of the live slice.  It stores its state coordinate major --
points (ambient, n), frames (d, ambient, n) and one (32, d, n) wave buffer
of increments, refilled every 32 steps -- so every per-step operation is a
whole-row numpy call over the n paths rather than a reduction over a
length-3 inner axis; past a fixed draw budget no array grows with the
number of steps.  The increments a walk yields are views of that buffer,
valid until the next step.  One step is :meth:`ManifoldModel.walk_step`:
the move along ``V = sum_i dB_i F_i`` and the frame transport share one
evaluation of the trigonometric functions, and the transport is a single
rank-one update because the frame components of the unit step direction
are ``dB / |V|`` (the frame is orthonormal).

The damped transport Q_t is the scalar :func:`q_decay_factor` times the
parallel transport.  The curvature process W_t(v, w) has one recursion:
:func:`w_update` steps it from the inner products <Qv, Qw> and <Qw, dB>,
which may be per path (a walk of several groups) and per (v, w) pair.  Its
one caller is the Hessian observer of :mod:`mheat.semigroup`, which also
serves verify's domination check.  Only the curvature-package oracles
(``*_generic``) compute Q and W another way, W along one path's recorded
increments.

Randomness is counter based: uniform draw ``j`` of step ``k`` of path ``p``
sits at a fixed offset in a Philox stream keyed by the 64-bit seed, so any
chunk of paths, and any block of its steps, can be generated independently
of scheduling and results are bitwise reproducible.  Gaussians come from
inverting the normal CDF, which consumes exactly one uniform each.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import ndtri

from .geometry import ManifoldModel, Point, TangentVector, curvature_package

__all__ = [
    "damped_transport_generic",
    "w_process_generic",
    "w_update",
    "ChunkWalk",
    "WalkGroup",
    "increment_block",
    "q_decay_factor",
]


# ---------------------------------------------------------------------------
# counter-based increment generation

# steps per refill of a walk's wave buffer
_BLOCK_STEPS = 32
# uniforms a group draws at once (see _draw_steps): its whole walk in one
# contiguous Philox call when that fits, else as many blocks of its streams
# as fit, at least one and at most _DRAW_BLOCKS (each path's run then costs
# one advance)
_DRAW_BUDGET = 1 << 21
_DRAW_BLOCKS = 8


def _stream_stride(n_steps: int, d: int) -> int:
    # per-path uniform budget rounded up so path offsets are Philox blocks
    need = n_steps * d
    return 4 * ((need + 3) // 4)


def _draw_steps(streams: int, n_steps: int, d: int) -> int:
    """Steps of an ``n_steps``-step walk in dimension d that a group of
    ``streams`` streams draws at once, the draw policy of :class:`ChunkWalk`
    and of :func:`_wave_footprint`."""
    if streams * _stream_stride(n_steps, d) <= _DRAW_BUDGET:
        return n_steps
    # a block of every stream is _BLOCK_STEPS * d uniforms each
    fit = _DRAW_BUDGET // (streams * _BLOCK_STEPS * d)
    return min(n_steps, _BLOCK_STEPS * min(_DRAW_BLOCKS, max(1, fit)))


def _group_streams(grp: "WalkGroup", antithetic: bool):
    """Stream range [lo, hi) of a group's paths; with ``antithetic`` physical
    paths 2m and 2m + 1 share stream m."""
    if antithetic:
        return grp.path_lo // 2, (grp.path_hi + 1) // 2
    return grp.path_lo, grp.path_hi


def _wave_footprint(groups, d: int, antithetic: bool) -> int:
    """Floats a :class:`ChunkWalk` of ``groups`` (longest first) holds for
    increments at most: its (min(32, longest steps), d, paths) wave buffer
    plus every group's draw, the whole walk's uniforms when
    :func:`_draw_steps` draws it at once, else one block span.  A block
    draw starts at a multiple of 32 steps, so each stream's run starts on a
    Philox block and :func:`increment_block` pads it with no uniforms."""
    paths = sum(g.path_hi - g.path_lo for g in groups)
    total = min(_BLOCK_STEPS, groups[0].n_steps) * d * paths
    for g in groups:
        lo, hi = _group_streams(g, antithetic)
        span = _draw_steps(hi - lo, g.n_steps, d)
        per_stream = _stream_stride(g.n_steps, d) if span == g.n_steps else span * d
        total += (hi - lo) * per_stream
    return total


def increment_block(seed: int, n_steps: int, d: int, h: float,
                    path_lo: int, path_hi: int, k0: int = 0,
                    k1: Optional[int] = None) -> np.ndarray:
    """Anti-development increments for paths [path_lo, path_hi) and steps
    [k0, k1) of an ``n_steps``-step walk (default: every step).

    Returns shape (n_paths, k1 - k0, d); each entry is Normal(0, 2h), the
    draw for (path, step, coordinate) living at a fixed stream position, so
    a step range is bitwise that slice of the whole walk's block.  The whole
    walk is one contiguous Philox call.  A step range is one run of each
    path's stream: the generator is advanced to the run of each path in
    turn, so only the range's uniforms are held.
    """
    k1 = n_steps if k1 is None else k1
    if not 0 <= k0 < k1 <= n_steps:
        raise ValueError("need a step range 0 <= k0 < k1 <= n_steps")
    n = path_hi - path_lo
    stride = _stream_stride(n_steps, d)
    bg = np.random.Philox(key=np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    gen = np.random.Generator(bg)
    if k0 == 0 and k1 == n_steps:
        bg.advance((path_lo * stride) // 4)
        z = gen.random(n * stride).reshape(n, stride)[:, :n_steps * d]
    else:
        # path p's run starts at uniform p * stride + k0 * d, inside Philox
        # block start // 4 (4 uniforms a block; advance drops the rest of a
        # drawn block), and the next path's run lies gap blocks further on
        start = path_lo * stride + k0 * d
        skip = start % 4
        u = np.empty((n, skip + (k1 - k0) * d))
        gap = stride // 4 - (u.shape[1] + 3) // 4
        bg.advance(start // 4)
        for row in u:
            gen.random(out=row)
            bg.advance(gap)
        z = u[:, skip:]
    # transformed in place: the uniforms become the increments; they are
    # multiples of 2^-53, so the floor moves only 0, to 2^-54
    np.maximum(z, 2.0 ** -54, out=z)
    ndtri(z, out=z)
    z *= math.sqrt(2.0 * h)
    return z.reshape(n, k1 - k0, d)


def q_decay_factor(m: ManifoldModel, s) -> np.ndarray:
    """Scalar damped-transport factor on constant-curvature models.

    Ric# = (d-1) kappa id, so the damped transport is exp(-(d-1) kappa s)
    times the parallel transport.
    """
    rate = (m.dim - 1) * m.sectional_curvature
    return np.exp(-rate * np.asarray(s, dtype=float))


# ---------------------------------------------------------------------------
# chunked walker

class WalkGroup(NamedTuple):
    """Paths [path_lo, path_hi) of the stream ``seed``, walked ``n_steps``
    steps of size t / n_steps from ``x0``: one point (ambient,), or a batch
    (path_hi - path_lo, ambient) of one point per path.  ``key`` labels the
    caller's path set."""

    seed: int
    t: float
    n_steps: int
    path_lo: int
    path_hi: int
    key: int = 0
    x0: Optional[np.ndarray] = None


def _spread(zT: np.ndarray, out: np.ndarray, path_lo: int, antithetic: bool) -> None:
    """Write step-major stream increments ``zT`` (k, d, streams) into a
    group's (k, d, n_g) columns ``out``; with ``antithetic`` physical paths
    2m and 2m + 1 share stream m, the odd one with flipped signs."""
    if not antithetic:
        out[...] = zT
        return
    par = path_lo % 2  # column of the first even physical path
    even, odd = out[..., par::2], out[..., 1 - par::2]
    even[...] = zT[..., par:par + even.shape[-1]]
    np.negative(zT[..., :odd.shape[-1]], out=odd)


class ChunkWalk:
    """Vectorized geodesic random walk for contiguous blocks of paths.

    A walk holds one or more :class:`WalkGroup` side by side, each with its
    own stream, horizon and step count, sorted longest first.  A group walks
    its own steps and then stays where it is: it leaves the end of the live
    slice, so the paths that still walk step k are always the first ones.
    ``t``, ``n_steps`` and ``h`` are those of the first (longest) group,
    and ``n_paths`` counts the paths the last step moved (all of them
    before the first step).

    Each group starts at its own ``x0``.  A point's frame is computed once
    per walk and repeated over the columns of every group that starts
    there; a batch of points is framed in one call of its own.  So each
    group walks bitwise as it would alone.  The walk exposes a generator
    over steps; observers read ``points``/``frames`` (state at the left
    node) and the yielded increments, both in fixed path order.

    State is held coordinate major (see the module docstring); ``points``
    (n, ambient) and ``frames`` (n, d, ambient) are transposed views of it.
    At each block's first step every live group writes its columns of the
    (B, d, n) wave buffer, transposed from its path-major draw and
    sign-interleaved for antithetic pairs.  A group whose whole draw fits
    in ``_DRAW_BUDGET`` uniforms draws it in one call and keeps it while it
    walks; a larger group draws a few blocks of its streams at a time.  The
    (n_live, d) increments yielded per step are a view of the buffer, valid
    only until the next step; group g's are its rows
    ``bounds[g]:bounds[g + 1]``.  ``group_increments`` draws every step
    again on demand, the reference that tests hold the streamed increments
    to.
    """

    def __init__(self, m: ManifoldModel, groups, antithetic: bool = False):
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
        self.bounds = [0]
        for g in self.groups:
            self.bounds.append(self.bounds[-1] + g.path_hi - g.path_lo)
        n = self.bounds[-1]
        self._antithetic = antithetic
        self._drawn = [(0, None)] * len(self.groups)  # (first step, draw)
        self._buf = np.empty((min(_BLOCK_STEPS, self.n_steps), m.dim, n))
        self._k0 = -1  # first step of the block in the buffer
        self._P = np.empty((m.ambient_dim, n))
        self._F = np.empty((m.dim, m.ambient_dim, n))
        frames = {}  # one frame per distinct start point, one per batch
        for g, grp in enumerate(self.groups):
            x0 = np.atleast_2d(np.asarray(grp.x0, dtype=float))
            cols = slice(self.bounds[g], self.bounds[g + 1])
            if grp.x0 is None or x0.shape[1:] != (m.ambient_dim,) or \
                    len(x0) not in (1, cols.stop - cols.start):
                raise ValueError(f"group {g}'s x0 must be one point or one "
                                 f"point per path")
            key = x0.tobytes() if len(x0) == 1 else g
            if key not in frames:
                frames[key] = m.frame(x0).transpose(1, 2, 0)
            self._P[:, cols] = x0.T
            self._F[..., cols] = frames[key]
        self.n_paths = n
        self._live = len(self.groups)

    @property
    def points(self) -> np.ndarray:
        return self._P.T

    @property
    def frames(self) -> np.ndarray:
        return self._F.transpose(2, 0, 1)

    @property
    def group_increments(self) -> list:
        """Step-major (n_steps, d, n_g) increments of every group, drawn
        again on demand."""
        out = []
        for g, grp in enumerate(self.groups):
            inc = np.empty((grp.n_steps, self.m.dim, grp.path_hi - grp.path_lo))
            _spread(self._draw(g).transpose(1, 2, 0), inc, grp.path_lo,
                    self._antithetic)
            out.append(inc)
        return out

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

    def _draw(self, g: int, k0: int = 0, k1: Optional[int] = None) -> np.ndarray:
        """Path-major (streams, k1 - k0, d) increments of group g; without a
        step range, of its whole walk."""
        grp = self.groups[g]
        return increment_block(grp.seed, grp.n_steps, self.m.dim,
                               float(grp.t) / grp.n_steps,
                               *_group_streams(grp, self._antithetic), k0, k1)

    def _drawn_steps(self, g: int, k0: int, k1: int) -> np.ndarray:
        """Steps [k0, k1) of group g from its current draw, drawing the
        next one when they lie outside it."""
        s0, z = self._drawn[g]
        if z is None or k0 < s0 or k1 > s0 + z.shape[1]:
            self._drawn[g], z = (0, None), None  # release the spent draw first
            grp = self.groups[g]
            lo, hi = _group_streams(grp, self._antithetic)
            span = _draw_steps(hi - lo, grp.n_steps, self.m.dim)
            if span == grp.n_steps:
                s0, z = 0, self._draw(g)
            else:
                s0, z = k0, self._draw(g, k0, min(k0 + span, grp.n_steps))
            self._drawn[g] = (s0, z)
        return z[:, k0 - s0:k1 - s0]

    def _refill(self, k0: int) -> None:
        """Fill the wave buffer from step k0 for every group that walks it."""
        live = self._live_groups(k0)
        self._drawn[live:] = [(0, None)] * (len(self.groups) - live)
        for g in range(live):
            grp = self.groups[g]
            k1 = min(k0 + len(self._buf), grp.n_steps)
            out = self._buf[:k1 - k0, :, self.bounds[g]:self.bounds[g + 1]]
            _spread(self._drawn_steps(g, k0, k1).transpose(1, 2, 0), out,
                    grp.path_lo, self._antithetic)
        self._k0 = k0

    def _increments(self, k: int) -> np.ndarray:
        """(d, n_live) increments of step k for the groups that walk it."""
        live = self._live_groups(k)
        j = k % len(self._buf)
        if k - j != self._k0:
            self._refill(k - j)
        return self._buf[j, :, :self.bounds[live]]

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
        increments cover the live paths and are valid until the next step,
        and the move executes when the generator resumes."""
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


def damped_transport_generic(m: ManifoldModel, n_steps: int, h: float) -> np.ndarray:
    """Q_t over ``n_steps`` steps of size ``h`` via the per-step matrix
    exponential of the Ricci operator, transported-frame components, shape
    (n_steps + 1, d, d).

    Independent route used as a redundancy oracle for
    :func:`q_decay_factor`: contracts the curvature package instead of the
    closed-form scalar decay.  The Ricci operator is the same at every
    point of a model, so no path enters.
    """
    from scipy.linalg import expm

    d = m.dim
    out = np.empty((n_steps + 1, d, d))
    out[0] = np.eye(d)
    step_mat = expm(-h * curvature_package(m).ricci)
    for k in range(n_steps):
        out[k + 1] = step_mat @ out[k]
    return out


def w_update(m: ManifoldModel, W: np.ndarray, dB: np.ndarray, qv: np.ndarray,
             qvw, qw_dB, damp) -> np.ndarray:
    """One step of the W recursion for a chunk of paths, frame components,
    from its inner products.

    ``W`` and ``dB`` are (d, n), ``qv`` is the damped-transport image of v,
    ``qvw`` is <qv, qw> and ``qw_dB`` is <qw, dB>.  On constant curvature
    R(dB, qv) qw reduces to kappa (<qv, qw> dB - <dB, qw> qv), and the
    Ricci damping is the scalar ``damp``.  With ``qv`` (d, n) and
    ``qvw``, ``qw_dB``, ``damp`` of shape (n,) every path has its own step
    size and transport factor, which is how a batch of groups walks.  The
    operands broadcast, so a leading pair axis (``W`` (P, d, n), ``qv``
    (P, d, 1 or n), ``qvw`` and ``qw_dB`` (P, 1, 1 or n)) steps P pairs.
    """
    kappa = m.sectional_curvature
    if kappa == 0.0:
        return damp * W
    return damp * W + kappa * (qvw * dB - qv * qw_dB)


def w_process_generic(m: ManifoldModel, x0: np.ndarray, increments: np.ndarray,
                      h: float, q: np.ndarray, v: TangentVector,
                      w: TangentVector) -> np.ndarray:
    """W_t(v, w) along one path with all curvature action read from the
    curvature package, components in the transported frame, (N+1, d).

    The path starts at ``x0`` (ambient,) and takes the N steps of size
    ``h`` of its (N, d) frame-coordinate ``increments``; ``q`` is its
    (N+1, d, d) damped transport and v, w are tangent vectors at x0.  Ito
    recursion with left-point curvature action and exact-exponential Ricci
    damping:

        W_{k+1} = e^{-h Ric#} W_k + R(dB_k, Q_k v) Q_k w
                  - h (d*R + grad Ric#)(Q_k v, Q_k w)

    The drift term vanishes identically on the models, where the rest is
    :func:`w_update`'s closed form.
    """
    from scipy.linalg import expm

    d = m.dim
    pkg = curvature_package(m)
    drift3 = pkg.dstar_r + pkg.ricci_sharp_grad
    damp = expm(-h * pkg.ricci)
    vbar, wbar = _vw_components(m, Point(x0), v, w)
    out = np.zeros((len(increments) + 1, d))
    for k, dB in enumerate(increments):
        qv, qw = q[k] @ vbar, q[k] @ wbar
        out[k + 1] = (damp @ out[k]
                      + np.einsum("ijkl,i,j,k->l", pkg.riemann, dB, qv, qw)
                      - h * np.einsum("ijl,i,j->l", drift3, qv, qw))
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
