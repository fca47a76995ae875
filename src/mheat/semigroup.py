"""Monte Carlo estimators for P_t f, grad P_t f, Hess P_t f and the Green
operator Hess (Delta + sigma)^{-1}.

Two independent Hessian representations are implemented:

* ``bismut`` needs only point evaluations of f.  With the fixed profiles
  k_s = max((t - 2s)/t, 0) and l_s = min(1, 2(t - s)/t),

      Hess P_t f(v, w) = -1/2 E[ f(X_t) int_0^t <W_s(k'_s v, w), dB_s> ]
                         + 1/4 E[ f(X_t) int_{t/2}^t <Q_s(l'_s w), dB_s>
                                          * int_0^{t/2} <Q_s(k'_s v), dB_s> ]

  The 1/2 and 1/4 factors pair each Ito integral with the anti-development's
  quadratic covariation 2 dt (increments have variance 2h per coordinate so
  the walk's generator is the geometric Laplacian); they were validated
  against closed-form Hessians on flat space and sphere eigenfunctions.
  The profiles' derivatives are closed form: k'_s = -2/t at the steps with
  s < t/2 and l'_s = -2/t at every later step, so one half-step index per
  path set says which integral a step feeds.

* ``mixed`` pushes derivatives onto f through the transport processes:

      Hess P_t f(v, w) = E[ Hess f(Q_t v, Q_t w)(X_t) + df(W_t(v, w))(X_t) ]

Stochastic integrals are left-point Riemann-Ito sums on the walk grid.
Every Monte Carlo consumer (these estimators, verify's checks, the CLI's
``simulate``) hands an ``observe(walk)`` to one path layer, which walks
fixed-size chunks of paths on ``threads`` workers and returns observations
in chunk order; folds in that order are bitwise reproducible for a given
(seed, n_paths, chunk_size) regardless of threading.  The layer also walks
several path sets (horizon, step count, stream, path count and possibly
start point) at once: each chunk of each set is a group, and waves of whole
groups, packed longest first, share one :class:`ChunkWalk`, so one walk step
moves every group still walking.  A wave holds no more paths than the widest
group and no more increment memory (wave buffer and draws) than the
costliest one.  Every group's values are bitwise those of a walk of that
group alone.  A mixed-mode Hessian path set may carry several horizons on
its step grid: it walks to the longest and is observed at each one's step.

The Green operator integrates e^{-sigma t} Hess P_t f over log-time nodes,
each an independent Hessian estimate on its own stream, and the nodes
walk together as the path sets of batched walks.  Its ``n_paths`` is an
accuracy contract rather than a per-node count: above 64 paths, a
64-path pilot per node (stream key 102, discarded) sizes the nodes by
Neyman allocation so that the predicted variance is at most that of
``n_paths`` paths at every node and the main walks take no more path-steps;
at 64 paths or fewer, or when the pilot sees no variance, every node walks
``n_paths`` paths.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import ManifoldModel, Point, ScalarField, TangentVector
from .transport import (ChunkWalk, WalkGroup, _check_grid, _grid_steps,
                        _vw_components, _wave_footprint, frame_components,
                        q_decay_factor, w_update)

__all__ = [
    "McEstimate",
    "HessianEstimatorConfig",
    "RunningMoments",
    "estimate_pt",
    "estimate_grad",
    "estimate_hess",
    "estimate_green_hess",
    "estimate_endpoint",
    "default_theta",
    "derive_seed",
]

DEFAULT_CHUNK = 4096
# Green pilot per quadrature node: paths and maximum steps
_PILOT_PATHS = 64
_PILOT_STEPS = 16
# the default Green t_max puts the tail weight e^{-rate t_max} at this level
_TAIL_TARGET = 1e-6


def default_theta(m: ManifoldModel) -> float:
    """Exponential-moment rate of the constant potential |R|^2 on a model.

    On the model spaces |R| is constant, so the Kato exponential moment is
    exactly exp(|R|^2 t) and the fitted rate equals |R|^2.
    """
    return m.curvature_opnorm() ** 2


def derive_seed(seed: int, *idx: int) -> int:
    """Deterministic child seed for sub-streams (quadrature nodes etc.)."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *[int(i) for i in idx]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class HessianEstimatorConfig:
    """Quadrature controls for the Green estimator: the resolvent shift
    ``sigma``, the Kato rate ``theta`` (None: :func:`default_theta`), the
    log-time node range [``t_min``, ``t_max``] (``t_max`` None: set from
    the decay rate by :func:`_green_horizon`) and the node count
    ``n_nodes``."""

    sigma: float = 1.0
    theta: Optional[float] = None
    t_min: float = 1e-3
    t_max: Optional[float] = None
    n_nodes: int = 40

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.n_nodes < 4:
            raise ValueError("n_nodes must be at least 4")
        if not (0 < self.t_min):
            raise ValueError("t_min must be positive")


@dataclass
class McEstimate:
    """A Monte Carlo estimate with its standard error and provenance."""

    value: np.ndarray
    stderr: np.ndarray
    n_paths: int
    t: float
    seed: int
    mode: str
    qtol: Optional[float] = None
    notes: Optional[str] = None

    @property
    def scalar(self) -> float:
        return float(np.asarray(self.value).reshape(-1)[0])

    @property
    def scalar_stderr(self) -> float:
        return float(np.asarray(self.stderr).reshape(-1)[0])

    @property
    def variance_dominated(self) -> bool:
        """True when the standard error exceeds the largest |value|."""
        return float(np.max(self.stderr)) > float(np.max(np.abs(self.value)))


# ---------------------------------------------------------------------------
# one-pass accumulation

class RunningMoments:
    """Numerically stable streaming mean/variance, mergeable in fixed order."""

    def __init__(self):
        self.n = 0
        self.mean = None
        self.m2 = None

    def update_batch(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        nb = values.shape[0]
        if nb == 0:
            return
        mean_b = values.mean(axis=0)
        m2_b = np.sum((values - mean_b) ** 2, axis=0)
        self._merge(nb, mean_b, m2_b)

    def _merge(self, nb, mean_b, m2_b):
        if self.n == 0:
            self.n, self.mean, self.m2 = nb, mean_b, m2_b
            return
        na = self.n
        delta = mean_b - self.mean
        tot = na + nb
        self.mean = self.mean + delta * (nb / tot)
        self.m2 = self.m2 + m2_b + delta ** 2 * (na * nb / tot)
        self.n = tot

    def merge(self, other: "RunningMoments") -> None:
        if other.n:
            self._merge(other.n, other.mean, other.m2)

    def stderr(self) -> np.ndarray:
        if self.n < 2:
            return np.full_like(np.asarray(self.mean, dtype=float), np.inf)
        var = self.m2 / (self.n - 1)
        return np.sqrt(var / self.n)


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is None:
        env = os.environ.get("MHEAT_THREADS", "")
        threads = int(env) if env.strip().isdigit() else 1
    return max(1, int(threads))


def _chunk_map(worker, n_items: int, threads: Optional[int]):
    """Yield worker(i) for i in range(n_items), in order.

    Items run on a thread pool when there are several threads and several
    items; the results come back in order either way.
    """
    nthreads = _resolve_threads(threads)
    if nthreads <= 1 or n_items == 1:
        for i in range(n_items):
            yield worker(i)
        return
    with ThreadPoolExecutor(max_workers=nthreads) as ex:
        yield from ex.map(worker, range(n_items))


def _sets(*values):
    """Per-set sequences from scalars (one set) or equal-length sequences."""
    return [list(v) if np.ndim(v) else [v] for v in values]


def _chunk_groups(n_paths, antithetic: bool, chunk_size: int):
    """(set, path_lo, path_hi) of every chunk of every path set, in (set,
    chunk) order; a chunk is ``chunk_size`` units, a unit being a path or,
    with ``antithetic``, the pair of paths (2m, 2m + 1)."""
    per_unit = 2 if antithetic else 1
    groups = []
    for i, n in enumerate(n_paths):
        if antithetic and n % 2:
            raise ValueError("antithetic estimation needs an even path count")
        units = n // per_unit
        groups += [(i, per_unit * lo, per_unit * min(lo + chunk_size, units))
                   for lo in range(0, units, chunk_size)]
    return groups


def _pack_waves(groups, d: int, antithetic: bool, one_wave: bool = False):
    """Waves of :class:`WalkGroup` indices, each longest first.

    Groups go longest first (equal step counts in the given order) into the
    current wave while it holds no more paths than the widest group and no
    more increment memory (``transport._wave_footprint`` in dimension
    ``d``) than the costliest single group, and open the next wave
    otherwise.  With ``one_wave`` every group is in one wave.
    """
    order = sorted(range(len(groups)), key=lambda j: -groups[j].n_steps)
    if one_wave:
        return [order] if order else []
    width = [g.path_hi - g.path_lo for g in groups]
    max_width = max(width, default=0)
    max_cost = max((_wave_footprint([g], d, antithetic) for g in groups), default=0)
    waves = []
    for j in order:
        if waves and paths + width[j] <= max_width and _wave_footprint(
                [groups[i] for i in waves[-1] + [j]], d, antithetic) <= max_cost:
            waves[-1].append(j)
            paths += width[j]
        else:
            waves.append([j])
            paths = width[j]
    return waves


def _walk_chunks(m: ManifoldModel, x0: np.ndarray, t, n_steps, seed, n_paths,
                 observe, *, antithetic: bool = False,
                 chunk_size: int = DEFAULT_CHUNK, threads: Optional[int] = None,
                 one_wave: bool = False):
    """Yield (set index, observe's per-path values) for every chunk, in walk
    order, which is chunk order within each set.

    A path set is one horizon ``t``, step count, stream ``seed`` and path
    count: scalars give one set, equal-length sequences several (Green's
    quadrature nodes).  Every set starts at the point ``x0``, or at its own
    row of ``x0`` when that is one point per set.  Each set is cut into
    chunks of ``chunk_size`` units (with ``antithetic`` a unit is the pair
    of paths (2m, 2m + 1), and observe's per-path values come back
    pair-averaged); one chunk of one set is a group.

    Groups walk in waves, one :class:`ChunkWalk` each, on ``threads``
    workers.  :func:`_pack_waves` packs whole groups longest first
    (Graham's LPT order, so the pool also starts on the longest wave) under
    two bounds: no more paths than the widest group, and no more increment
    memory than the costliest single group, counting the (32, d, paths)
    wave buffer and every group's draw (its whole walk when that fits in
    ``transport._DRAW_BUDGET`` uniforms, else a few 32-step blocks).  One
    set's chunks therefore walk one per wave, and a long, narrow group takes
    shorter ones along.  With ``one_wave`` every group walks in one wave
    (Green's pilot: at most 64 paths x 16 steps per node).  Every wave's
    observe(walk) returns values whose first axis runs over the walk's
    paths (ValueError otherwise).  The walk moves each group's paths
    bitwise as a walk of that group alone would, so an observer that takes
    each group's small products on the group's own rows (as the Hessian
    observer does) returns bitwise the same values, at any thread count.
    """
    t, n_steps, seed, n_paths = _sets(t, n_steps, seed, n_paths)
    per_unit = 2 if antithetic else 1
    per_set = np.ndim(x0) == 2
    groups = [WalkGroup(seed[i], t[i], int(n_steps[i]), lo, hi, key=i,
                        x0=x0[i] if per_set else x0)
              for i, lo, hi in _chunk_groups(n_paths, antithetic, chunk_size)]
    waves = _pack_waves(groups, m.dim, antithetic, one_wave)

    def worker(w):
        wave = waves[w]
        walk = ChunkWalk(m, [groups[j] for j in wave], antithetic)
        values = observe(walk)
        if np.shape(values)[:1] != (walk.bounds[-1],):
            raise ValueError("a walk's observer returns one value per path")
        if antithetic:
            values = 0.5 * (values[0::2] + values[1::2])
        b = [lo // per_unit for lo in walk.bounds]
        return [(groups[j].key, values[b[g]:b[g + 1]]) for g, j in enumerate(wave)]

    # waves are consecutive runs of the stable longest-first order, and a
    # set's chunks share one step count, so each set's come in chunk order
    for results in _chunk_map(worker, len(waves), threads):
        yield from results


# ---------------------------------------------------------------------------
# estimators

def estimate_pt(m: ManifoldModel, f: ScalarField, x: Point, t: float,
                n_paths: int, h: float, seed: int, *, antithetic: bool = True,
                chunk_size: int = DEFAULT_CHUNK,
                threads: Optional[int] = None) -> McEstimate:
    """P_t f(x) as the sample mean of f(X_t)."""
    if n_paths < 2:
        raise ValueError("need at least two paths")

    def fn(points, frames):
        vals = f.eval_fn(points)
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("f non-finite at a path endpoint")
        return vals

    return estimate_endpoint(m, fn, x, t, n_paths, h, seed, antithetic=antithetic,
                             chunk_size=chunk_size, threads=threads, mode="pt")


def estimate_endpoint(m: ManifoldModel, fn, x: Point, t: float, n_paths: int,
                      h: float, seed: int, *, antithetic: bool = True,
                      chunk_size: int = DEFAULT_CHUNK,
                      threads: Optional[int] = None,
                      mode: str = "endpoint") -> McEstimate:
    """Mean of an arbitrary endpoint functional fn(points, frames)."""
    n_steps = _check_grid(t, h)

    def observe(walk):
        walk.run()
        return np.asarray(fn(walk.points, walk.frames), dtype=float)

    acc = RunningMoments()
    for _, values in _walk_chunks(m, np.asarray(x.coords), t, n_steps, seed,
                                  n_paths, observe, antithetic=antithetic,
                                  chunk_size=chunk_size, threads=threads):
        acc.update_batch(values)
    return McEstimate(acc.mean, acc.stderr(), n_paths, t, seed, mode)


def estimate_grad(m: ManifoldModel, f: ScalarField, x: Point, v: TangentVector,
                  t: float, n_paths: int, h: float, seed: int, *,
                  antithetic: bool = True, chunk_size: int = DEFAULT_CHUNK,
                  threads: Optional[int] = None) -> McEstimate:
    """<grad P_t f(x), v> = E[<grad f(X_t), Q_t v>] via damped transport."""
    _require_oracles(f, "grad")
    vbar, _ = _vw_components(m, x, v)
    qT = float(q_decay_factor(m, t))

    def fn(points, frames):
        return qT * (frame_components(m, frames, f.grad_fn(points)) @ vbar)

    return estimate_endpoint(m, fn, x, t, n_paths, h, seed, antithetic=antithetic,
                             chunk_size=chunk_size, threads=threads, mode="grad")


def estimate_hess(m: ManifoldModel, f: ScalarField, x: Point, v: TangentVector,
                  w: TangentVector, t: float,
                  cfg: Optional[HessianEstimatorConfig] = None,
                  mode: str = "bismut", *, n_paths: int, h: float, seed: int,
                  antithetic: bool = True, chunk_size: int = DEFAULT_CHUNK,
                  threads: Optional[int] = None) -> McEstimate:
    """Hess P_t f(v, w)(x) by the chosen representation formula.

    ``cfg`` is accepted and unused: the Hessian's bismut weights are fixed
    (see the module docstring) and the config's controls are Green's.
    """
    (est,) = _hess_nodes(m, f, x, v, w, mode, t=[t], h=[h], seed=[seed],
                         n_paths=[n_paths], antithetic=antithetic,
                         chunk_size=chunk_size, threads=threads)
    if est.variance_dominated:
        se = float(np.max(est.stderr))
        # only worth a runtime warning when the noise is non-negligible
        if se > 1e-4:
            warnings.warn(f"Hessian estimate at t = {t:g} is variance dominated "
                          f"(stderr {se:.3g} > |value|)")
    return est


@dataclass
class _HessNode:
    """Per-step coefficients of one path set's Hessian estimator."""

    t: list             # horizons, sorted; the set walks to the last
    marks: list         # step count of each horizon
    qT: list            # transport factor at each horizon
    qvals: np.ndarray   # damped-transport factor at each step's left node
    half: int           # first step with s >= t/2: k' before it, l' from it
    damp: float         # Ricci damping of W per step
    qw: np.ndarray      # (n_steps, P, d) rows qvals[k] * wbar[p]
    qvw: np.ndarray     # (w_steps, P) <qvals[k] vbar[p], qvals[k] wbar[p]>
    w_steps: int        # steps whose W update is ever read


def _require_oracles(f: ScalarField, mode: Optional[str]) -> None:
    """The estimators' oracle check: ``grad`` needs f's gradient and
    ``mixed`` its gradient, Hessian and Laplacian; the point-value modes
    (``pt``, ``bismut``, or None) need nothing."""
    if mode == "grad" and f.grad_fn is None:
        raise ValueError(f"field {f.name!r} has no gradient oracle, which "
                         f"estimate_grad needs")
    if mode == "mixed" and not f.has_oracles:
        raise ValueError(f"field {f.name!r} lacks the gradient, Hessian and "
                         f"Laplacian oracles that mixed mode needs")


def _hess_nodes(m: ManifoldModel, f: ScalarField, x, v, w, mode: str, *, t, h,
                seed, n_paths, antithetic: bool = True,
                chunk_size: int = DEFAULT_CHUNK, threads: Optional[int] = None,
                one_wave: bool = False, moments: bool = False):
    """Hess P_t f(v, w) at several horizons and start points, one
    McEstimate per (path set, horizon), in order.

    Set i walks ``n_paths[i]`` paths of stream ``seed[i]`` at step ``h[i]``
    from the point ``x``, or from ``x[i]`` when ``x`` is a sequence of
    points, one per set; every set's chunks are groups of the batched walks
    of :func:`_walk_chunks`.  ``t[i]`` is the set's horizon or, in mixed
    mode, a sorted sequence of horizons on its step grid: the set walks to
    the last, and at each earlier horizon's step the observer reads that
    horizon's samples off the same paths.  Mixed mode's per-step
    coefficients (transport factor, damping, <Q v, Q w>) do not depend on
    the horizon, so each sample is exactly the estimator at its horizon;
    bismut's weights do, through k'_s = -2/t, so a bismut set takes one
    horizon.  Per-step coefficients are per path, and each set's small
    products with its increments are taken on that group's own rows, so
    each estimate is bitwise what a call for that set alone returns.
    Variance-dominated estimates carry a note and no warning.

    ``v`` and ``w`` are one pair of tangent vectors at the point x, whose
    estimates are scalars, or a stack of P pairs given as (P, d) components
    in the frame at each start point, whose estimates have one entry per
    pair; W then holds one (d, n) block per pair.  With ``moments`` (a stack
    in mixed mode) each path's samples go on with |f|^2, |df|^2 and
    |Hess f|_HS^2 at its endpoint and the P x P Gram matrix of its
    W_t(v_p, w_p), row major.
    """
    if mode not in ("bismut", "mixed"):
        raise ValueError("mode must be 'bismut' or 'mixed'")
    _require_oracles(f, mode)
    d = m.dim
    kappa = m.sectional_curvature
    one_pair = isinstance(v, TangentVector)
    x0 = np.array(x.coords if isinstance(x, Point) else [p.coords for p in x], dtype=float)
    if one_pair:
        vbar, wbar = (c[None] for c in _vw_components(m, x, v, w))
    else:
        vbar, wbar = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    P = len(vbar)
    nodes = []
    for ti, hi in zip(t, h):
        ts = list(ti) if np.ndim(ti) else [ti]
        if len(ts) > 1 and mode == "bismut":
            raise ValueError("bismut weights depend on the horizon: "
                             "a bismut path set takes one horizon")
        if any(a > b for a, b in zip(ts, ts[1:])):
            raise ValueError("a path set's horizons must be sorted")
        marks = [_check_grid(tj, hi) for tj in ts]
        t_end, n_steps = ts[-1], marks[-1]
        svals = np.arange(n_steps) * hi
        qvals = q_decay_factor(m, svals)
        half = int(np.count_nonzero(svals < 0.5 * t_end))
        qv, qw = qvals[:, None, None] * vbar, qvals[:, None, None] * wbar
        if kappa == 0.0:
            w_steps = 0  # W stays 0
        elif mode == "mixed":
            w_steps = n_steps
        else:
            # bismut reads W at steps k < half, so the updates from step
            # half - 1 on are never read
            w_steps = half - 1
        nodes.append(_HessNode(
            t=ts, marks=marks, qT=[float(q_decay_factor(m, tj)) for tj in ts],
            qvals=qvals, half=half,
            damp=math.exp(-hi * (d - 1) * kappa), qw=qw,
            # a stacked (1, d) @ (d, 1) matmul is np.dot's ddot, bit for bit
            qvw=np.matmul(qv[:w_steps, :, None, :], qw[:w_steps, :, :, None])[..., 0, 0],
            w_steps=w_steps))
    # one column block per horizon: a path's samples at its set's horizon j
    # go to block j
    n_blocks = max(len(nd.marks) for nd in nodes)

    def observe(walk):
        groups, bounds = walk.groups, walk.bounds
        node = [nodes[g.key] for g in groups]
        width = np.diff(bounds)
        n, live = bounds[-1], len(groups)
        # coefficient tables (row, step, group), spread over a group's
        # columns: the transport factor, the damping, <qv, qw> per pair
        tables = np.zeros((2 + P, walk.n_steps, live))
        for g, nd in enumerate(node):
            tables[0, :len(nd.qvals), g] = nd.qvals
            tables[1, :, g] = nd.damp
            tables[2:, :nd.w_steps, g] = nd.qvw.T
        w_steps = max(nd.w_steps for nd in node)
        W = np.zeros((P, d, n))
        if mode == "bismut":
            IW, Iv, Iw = np.zeros((P, n)), np.zeros((P, n)), np.zeros((P, n))
        vals = np.zeros((n, n_blocks, P + (3 + P * P if moments else 0)))
        # (step, group, horizon) of every horizon before a group's last,
        # latest first
        marks = sorted(((k, g, j) for g, nd in enumerate(node)
                        for j, k in enumerate(nd.marks[:-1])), reverse=True)

        def finish(g, j):
            # group g is at horizon j: observe it on its own columns
            lo, hi = bounds[g], bounds[g + 1]
            points, frames = walk.group_state(g)
            if mode == "bismut":
                fv = f.eval_fn(points)
                vg = (-0.5 * fv * IW[:, lo:hi]
                      + 0.25 * fv * Iw[:, lo:hi] * Iv[:, lo:hi]).T
            else:
                qT = node[g].qT[j]
                H = f.hess_fn(points, frames)
                term1 = qT * qT * np.einsum("nij,pi,pj->np", H, vbar, wbar)
                gc = frame_components(m, frames, f.grad_fn(points))
                Wg = np.ascontiguousarray(W[..., lo:hi])
                vg = term1 + np.einsum("nd,pdn->np", gc, Wg)
            if not np.all(np.isfinite(vg)):
                raise FloatingPointError("non-finite Hessian sample")
            out = vals[lo:hi, j]
            out[:, :P] = vg
            if moments:
                out[:, P] = f.eval_fn(points) ** 2
                out[:, P + 1] = np.sum(gc * gc, axis=1)
                out[:, P + 2] = np.sum(H * H, axis=(1, 2))
                out[:, P + 3:] = np.einsum(
                    "adn,bdn->nab", Wg, Wg).reshape(hi - lo, P * P)

        for k, dB in walk.steps():
            while groups[live - 1].n_steps == k:
                live -= 1
                finish(live, len(node[live].marks) - 1)
            while marks and marks[-1][0] == k:
                finish(*marks.pop()[1:])
            nl = bounds[live]
            dB = dB.T
            if mode == "bismut":
                e = None
                for g in range(live):
                    nd, lo, hi = node[g], bounds[g], bounds[g + 1]
                    rows = walk.group_step(g, k)
                    dot = -2.0 / nd.t[-1]  # k' before the half step, l' from it
                    if k < nd.half:
                        if e is None:
                            e = np.einsum("pdn,dn->pn", W[..., :nl], dB)
                        IW[:, lo:hi] += dot * e[:, lo:hi]
                        Iv[:, lo:hi] += dot * nd.qvals[k] * (vbar @ rows)
                    else:
                        Iw[:, lo:hi] += dot * nd.qvals[k] * (wbar @ rows)
            if k < w_steps:
                qw_dB = np.empty((P, nl))
                for g in range(live):
                    np.matmul(node[g].qw[k], walk.group_step(g, k),
                              out=qw_dB[:, bounds[g]:bounds[g + 1]])
                if live == 1:
                    coef = tables[:, k, :1]
                else:
                    coef = np.repeat(tables[:, k, :live], width[:live], axis=1)
                W = w_update(m, W[..., :nl], dB, vbar[..., None] * coef[0],
                             coef[2:, None], qw_dB[:, None], coef[1])
        # horizons that end with the walk: a repeat of a last horizon
        for _, g, j in marks:
            finish(g, j)
        for g in range(live):
            finish(g, len(node[g].marks) - 1)
        return vals[..., 0] if one_pair else vals

    accs = [[RunningMoments() for _ in nd.marks] for nd in nodes]
    for i, values in _walk_chunks(m, x0, [nd.t[-1] for nd in nodes],
                                  [nd.marks[-1] for nd in nodes], seed, n_paths,
                                  observe, antithetic=antithetic,
                                  chunk_size=chunk_size, threads=threads,
                                  one_wave=one_wave):
        for j, acc in enumerate(accs[i]):
            acc.update_batch(values[:, j])
    ests = []
    for nd, acc_i, si, ni in zip(nodes, accs, seed, n_paths):
        for tj, acc in zip(nd.t, acc_i):
            est = McEstimate(acc.mean, acc.stderr(), ni, tj, si, f"hess-{mode}")
            if est.variance_dominated:
                est.notes = "stderr exceeds |value|: variance-dominated estimate"
            ests.append(est)
    return ests


def _neyman_counts(b: np.ndarray, steps: np.ndarray, n_paths: int,
                   floor: int) -> np.ndarray:
    """Per-node path counts n_i proportional to b_i / sqrt(steps_i).

    ``b_i`` is node i's quadrature coefficient times its per-path standard
    deviation.  The counts are scaled so that the predicted variance
    sum b_i^2 / n_i equals that of ``n_paths`` paths at every node, rounded
    up to even and floored at ``floor``.  By Cauchy-Schwarz the unrounded
    path-steps sum n_i steps_i are at most n_paths * sum steps_i; where the
    rounding and the floor push them above it, or without a positive,
    finite b, the rule is ``n_paths`` everywhere.
    """
    equal = np.full(len(b), n_paths)
    ss = float(np.sum(b * b))
    if not (math.isfinite(ss) and ss > 0.0):
        return equal
    rs = np.sqrt(steps)
    n = n_paths * float(np.sum(b * rs)) / ss * (b / rs)
    n = np.maximum(2 * np.ceil(0.5 * n).astype(int), floor)
    return n if n @ steps <= equal @ steps else equal


def _green_horizon(m: ManifoldModel, cfg: HessianEstimatorConfig):
    """(theta, decay rate sigma - 2K - theta, last node t_max) of the Green
    quadrature; ValueError unless t_max > t_min (a reversed node grid)."""
    theta = cfg.theta if cfg.theta is not None else default_theta(m)
    rate = cfg.sigma - 2.0 * m.ricci_lower_bound - theta
    if cfg.t_max is not None:
        t_max = cfg.t_max
    elif rate > 0:
        t_max = max(2.0 * cfg.t_min, math.log(1.0 / _TAIL_TARGET) / rate)
    else:
        t_max = 20.0 / cfg.sigma
    if not t_max > cfg.t_min:
        raise ValueError(f"t_min = {cfg.t_min:g} must lie below the Green "
                         f"quadrature's t_max = {t_max:g}")
    return theta, rate, t_max


def estimate_green_hess(m: ManifoldModel, f: ScalarField, x: Point,
                        v: TangentVector, w: TangentVector,
                        cfg: HessianEstimatorConfig, *, n_paths: int, h: float,
                        seed: int, antithetic: bool = True,
                        chunk_size: int = DEFAULT_CHUNK,
                        threads: Optional[int] = None,
                        mode: Optional[str] = None) -> McEstimate:
    """Component of Hess (Delta + sigma)^{-1} f by time quadrature.

    Trapezoid rule in log time over [t_min, t_max]; the [0, t_min) head is
    added as a rectangle using the first node's Hessian estimate and the
    tail beyond t_max is bounded through the fitted semigroup growth rate.
    The reported ``qtol`` combines head uncertainty, the tail bound and an
    embedded half-resolution discretization estimate.

    Each node is an independent Hessian estimate on its own stream
    ``derive_seed(seed, 101, i)``, bitwise what :func:`estimate_hess` with
    that node's horizon, step, stream and path count returns, with a
    Neyman allocation of paths: node i gets n_i proportional to
    b_i / sqrt(steps_i), where b_i is its absolute
    quadrature coefficient (the head's weight added to node 0's) times the
    per-path standard deviation from a pilot.  The pilot walks 64 paths
    over min(steps_i, 16) steps on the separate stream
    ``derive_seed(seed, 102, i)`` and is then discarded, so the allocation
    is independent of the samples it weights.  ``n_paths`` is an accuracy
    contract: the counts, floored at 64 and even, give at most the
    predicted variance of ``n_paths`` paths at every node, and the main
    walks take no more path-steps than that equal rule; the pilot adds at
    most 64 * min(steps_i, 16) path-steps per node.  Every node walks
    ``n_paths`` paths (the equal rule) when n_paths <= 64, where the floor
    leaves nothing to save and no pilot runs; when every pilot deviation
    is 0 (a deterministic integrand) or none is finite; and when the
    floored counts would cost more path-steps than the equal rule.

    The nodes do not walk one by one: the pilot is one batched walk of
    every node's 64 paths, and the main walks pack the nodes' chunks,
    longest first, into waves that hold no more paths than the widest chunk
    and no more increment memory than the costliest, so the long, narrow
    tail nodes share one walk (see :func:`_walk_chunks`).  The result is a
    deterministic function of (seed, n_paths, chunk_size, cfg) at any
    thread count; ``notes`` records the pilot and main path-steps and the
    node count range.
    """
    if antithetic and n_paths % 2:
        raise ValueError("antithetic estimation needs an even path count")
    sigma = cfg.sigma
    theta, rate, t_max = _green_horizon(m, cfg)
    if rate <= 0:
        warnings.warn(
            f"sigma = {sigma:g} is not above the semigroup growth 2K + theta "
            f"= {2 * m.ricci_lower_bound + theta:g}; the time integral may "
            f"not converge")
    if mode is None:
        mode = "mixed" if f.has_oracles else "bismut"
    nodes = np.geomspace(cfg.t_min, t_max, cfg.n_nodes)
    steps = np.array([_grid_steps(float(tn), h, 8, 200000) for tn in nodes])
    u = np.log(nodes)

    def trapz_weights(uu):
        wts = np.zeros(len(uu))
        du = np.diff(uu)
        wts[:-1] += 0.5 * du
        wts[1:] += 0.5 * du
        return wts

    wts = trapz_weights(u) * nodes  # du integration with dt = t du
    head_frac = 1.0 - math.exp(-sigma * cfg.t_min)
    # node 0's estimate also carries the [0, t_min) head rectangle
    coef = wts * np.exp(-sigma * nodes)
    coef[0] += head_frac / sigma

    def node_hess(counts, n_steps, stream, one_wave=False):
        # variance domination at individual tail nodes (value near zero) is
        # expected; it is counted into the notes, not warned per node
        return _hess_nodes(
            m, f, x, v, w, mode, t=[float(tn) for tn in nodes],
            h=[float(tn) / int(k) for tn, k in zip(nodes, n_steps)],
            seed=[derive_seed(seed, stream, i) for i in range(len(nodes))],
            n_paths=[int(c) for c in counts], antithetic=antithetic,
            chunk_size=chunk_size, threads=threads, one_wave=one_wave)

    if n_paths > _PILOT_PATHS:
        pilot_steps = np.minimum(steps, _PILOT_STEPS)
        pilot = node_hess(np.full(len(nodes), _PILOT_PATHS), pilot_steps, 102,
                          one_wave=True)
        sd = np.array([e.scalar_stderr for e in pilot]) * math.sqrt(_PILOT_PATHS)
        counts = _neyman_counts(np.abs(coef) * sd, steps, n_paths, _PILOT_PATHS)
        pilot_cost = _PILOT_PATHS * int(pilot_steps.sum())
    else:
        # every floored count would be at least n_paths: nothing to save
        counts = np.full(len(nodes), n_paths)
        pilot_cost = 0
    ests = node_hess(counts, steps, 101)
    noisy_nodes = sum(1 for e in ests if e.notes)
    hvals = np.array([float(np.asarray(e.value)) for e in ests])
    hserr = np.array([float(np.asarray(e.stderr)) for e in ests])
    g = np.exp(-sigma * nodes) * hvals
    integral = float(np.sum(wts * g))
    half = float(np.sum((trapz_weights(u[::2]) * nodes[::2]) * g[::2]))
    disc = abs(integral - half) / 3.0
    head = hvals[0] * head_frac / sigma
    if rate > 0:
        tail = abs(hvals[-1]) * math.exp(-sigma * t_max) / rate
    else:
        tail = math.inf
    value = integral + head
    stderr = math.sqrt(float(np.sum((coef * hserr) ** 2)))
    qtol = 0.5 * abs(head) + tail + disc
    notes = (f"nodes={cfg.n_nodes} t_min={cfg.t_min:g} t_max={t_max:g} "
             f"theta={theta:g}; path-steps pilot={pilot_cost} "
             f"main={int(counts @ steps)} equal-rule={n_paths * int(steps.sum())}; "
             f"node paths {int(counts.min())}-{int(counts.max())}")
    if noisy_nodes:
        notes += f"; {noisy_nodes} variance-dominated quadrature nodes"
    return McEstimate(np.asarray(value), np.asarray(stderr), n_paths,
                      float(t_max), seed, f"green-{mode}", qtol=qtol,
                      notes=notes)
