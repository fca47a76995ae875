"""Monte Carlo estimators for P_t f, grad P_t f, Hess P_t f and the Green
operator Hess (Delta + sigma)^{-1}.

Two independent Hessian representations are implemented:

* ``bismut`` needs only point evaluations of f.  With the deterministic
  profiles k_s = max((t - 2s)/t, 0) and l_s = min(1, 2(t - s)/t),

      Hess P_t f(v, w) = -1/2 E[ f(X_t) int_0^t <W_s(k'_s v, w), dB_s> ]
                         + 1/4 E[ f(X_t) int_{t/2}^t <Q_s(l'_s w), dB_s>
                                          * int_0^{t/2} <Q_s(k'_s v), dB_s> ]

  The 1/2 and 1/4 factors pair each Ito integral with the anti-development's
  quadratic covariation 2 dt (increments have variance 2h per coordinate so
  the walk's generator is the geometric Laplacian); they were validated
  against closed-form Hessians on flat space and sphere eigenfunctions.

* ``mixed`` pushes derivatives onto f through the transport processes:

      Hess P_t f(v, w) = E[ Hess f(Q_t v, Q_t w)(X_t) + df(W_t(v, w))(X_t) ]

Stochastic integrals are left-point Riemann-Ito sums on the walk grid.
Every Monte Carlo consumer (these estimators, verify's checks, the CLI's
``simulate``) hands an ``observe(walk)`` to one path layer, which walks
fixed-size chunks of paths on ``threads`` workers and returns observations
in chunk order; folds in that order are bitwise reproducible for a given
(seed, n_paths, chunk_size) regardless of threading.

The Green operator integrates e^{-sigma t} Hess P_t f over log-time nodes,
each an independent Hessian estimate on its own stream.  Its ``n_paths`` is
an accuracy contract rather than a per-node count: above 64 paths, a
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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import ManifoldModel, Point, ScalarField, TangentVector
from .transport import (ChunkWalk, _check_grid, _grid_steps, _vw_components,
                        frame_components, q_decay_factor, w_step)

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
    "default_kdot",
    "default_ldot",
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


# ---------------------------------------------------------------------------
# profiles

def default_kdot(s: float, t: float) -> float:
    """Derivative of k_s = max((t - 2s)/t, 0): -2/t on [0, t/2), then 0."""
    return -2.0 / t if s < 0.5 * t else 0.0


def default_ldot(s: float, t: float) -> float:
    """Derivative of l_s = min(1, 2(t - s)/t): 0 on [0, t/2), then -2/t."""
    return -2.0 / t if s >= 0.5 * t else 0.0


@dataclass
class HessianEstimatorConfig:
    """Profiles and quadrature controls for the Hessian/Green estimators.

    ``kdot``/``ldot`` default to the derivatives of the piecewise-linear
    profiles above; custom profiles must keep kdot supported in [0, t/2) and
    ldot in [t/2, t] with integrals -1 each.
    """

    sigma: float = 1.0
    theta: Optional[float] = None
    t_min: float = 1e-3
    t_max: Optional[float] = None
    n_nodes: int = 40
    kdot: Callable[[float, float], float] = field(default=default_kdot)
    ldot: Callable[[float, float], float] = field(default=default_ldot)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.n_nodes < 4:
            raise ValueError("need at least 4 quadrature nodes")
        if not (0 < self.t_min):
            raise ValueError("t_min must be positive")

    def validate_profiles(self, t: float) -> None:
        s = np.linspace(0.0, t, 64, endpoint=False)
        h = t / 64
        kint = sum(self.kdot(float(si), t) for si in s) * h
        lint = sum(self.ldot(float(si), t) for si in s) * h
        if abs(kint + 1.0) > 0.05 or abs(lint + 1.0) > 0.05:
            raise ValueError("profile derivatives must integrate to -1 over [0, t]")
        if any(self.kdot(float(si), t) != 0.0 for si in s if si >= 0.5 * t):
            raise ValueError("kdot must vanish on [t/2, t]")
        if any(self.ldot(float(si), t) != 0.0 for si in s if si < 0.5 * t):
            raise ValueError("ldot must vanish on [0, t/2)")


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


def _chunk_map(worker, n_units: int, chunk_size: int, threads: Optional[int]):
    """Yield worker(lo, hi) over consecutive unit ranges, in chunk order.

    Chunks run on a thread pool when there are several threads and several
    chunks; the results come back in chunk order either way.
    """
    chunks = [(lo, min(lo + chunk_size, n_units))
              for lo in range(0, n_units, chunk_size)]
    nthreads = _resolve_threads(threads)
    if nthreads <= 1 or len(chunks) == 1:
        for lo, hi in chunks:
            yield worker(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=nthreads) as ex:
        yield from ex.map(lambda c: worker(*c), chunks)


def _walk_chunks(m: ManifoldModel, x0: np.ndarray, t: float, n_steps: int,
                 seed: int, n_paths: int, observe, *, antithetic: bool = False,
                 chunk_size: int = DEFAULT_CHUNK, threads: Optional[int] = None):
    """Yield observe(walk) on a fresh :class:`ChunkWalk` per chunk, in order.

    With ``antithetic`` a unit of ``chunk_size`` is the pair of paths
    (2m, 2m + 1), and observe's per-path values come back pair-averaged.
    """
    if antithetic:
        if n_paths % 2:
            raise ValueError("antithetic estimation needs an even path count")
        n_units, per_unit = n_paths // 2, 2
    else:
        n_units, per_unit = n_paths, 1

    def worker(ulo, uhi):
        walk = ChunkWalk(m, x0, t, n_steps, seed, per_unit * ulo, per_unit * uhi,
                         antithetic=antithetic)
        values = observe(walk)
        if antithetic:
            return 0.5 * (values[0::2] + values[1::2])
        return values

    return _chunk_map(worker, n_units, chunk_size, threads)


def _walk_moments(*args, **kw) -> RunningMoments:
    """Fold the moments of :func:`_walk_chunks` values in chunk order."""
    acc = RunningMoments()
    for values in _walk_chunks(*args, **kw):
        acc.update_batch(values)
    return acc


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

    acc = _walk_moments(m, np.asarray(x.coords), t, n_steps, seed, n_paths, observe,
                        antithetic=antithetic, chunk_size=chunk_size, threads=threads)
    return McEstimate(acc.mean, acc.stderr(), n_paths, t, seed, mode)


def estimate_grad(m: ManifoldModel, f: ScalarField, x: Point, v: TangentVector,
                  t: float, n_paths: int, h: float, seed: int, *,
                  antithetic: bool = True, chunk_size: int = DEFAULT_CHUNK,
                  threads: Optional[int] = None) -> McEstimate:
    """<grad P_t f(x), v> = E[<grad f(X_t), Q_t v>] via damped transport."""
    if f.grad_fn is None:
        raise ValueError("estimate_grad needs a gradient oracle for f")
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
    """Hess P_t f(v, w)(x) by the chosen representation formula."""
    if mode not in ("bismut", "mixed"):
        raise ValueError("mode must be 'bismut' or 'mixed'")
    if mode == "mixed" and not f.has_oracles:
        raise ValueError("mixed mode needs grad and Hessian oracles for f")
    cfg = cfg or HessianEstimatorConfig()
    if cfg.kdot is not default_kdot or cfg.ldot is not default_ldot:
        cfg.validate_profiles(t)
    n_steps = _check_grid(t, h)
    x0 = np.asarray(x.coords)
    vbar, wbar = _vw_components(m, x, v, w)
    d = m.dim
    kappa = m.sectional_curvature
    damp = math.exp(-h * (d - 1) * kappa)
    svals = np.arange(n_steps) * h
    qvals = q_decay_factor(m, svals)
    kd = np.array([cfg.kdot(float(s), t) for s in svals])
    ld = np.array([cfg.ldot(float(s), t) for s in svals])

    def observe(walk):
        n = walk.n_paths
        # per-step work on (d, n) arrays: dB.T of the yielded view is the
        # walk's contiguous increment row block
        W = np.zeros((d, n))
        if mode == "bismut":
            IW = np.zeros(n)
            Iv = np.zeros(n)
            Iw = np.zeros(n)
            for k, dB in walk.steps():
                dB = dB.T
                qk = qvals[k]
                if kd[k] != 0.0:
                    IW += kd[k] * np.einsum("dn,dn->n", W, dB)
                    Iv += kd[k] * qk * (vbar @ dB)
                if ld[k] != 0.0:
                    Iw += ld[k] * qk * (wbar @ dB)
                W = w_step(m, W, dB, qk * vbar, qk * wbar, damp)
            fv = f.eval_fn(walk.points)
            vals = -0.5 * fv * IW + 0.25 * fv * Iw * Iv
        else:
            for k, dB in walk.steps():
                W = w_step(m, W, dB.T, qvals[k] * vbar, qvals[k] * wbar, damp)
            qT = float(q_decay_factor(m, t))
            H = f.hess_fn(walk.points, walk.frames)
            term1 = qT * qT * np.einsum("nij,i,j->n", H, vbar, wbar)
            gc = frame_components(m, walk.frames, f.grad_fn(walk.points))
            vals = term1 + np.einsum("nd,dn->n", gc, W)
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("non-finite Hessian sample")
        return vals

    acc = _walk_moments(m, x0, t, n_steps, seed, n_paths, observe,
                        antithetic=antithetic, chunk_size=chunk_size, threads=threads)
    est = McEstimate(acc.mean, acc.stderr(), n_paths, t, seed, f"hess-{mode}")
    if est.variance_dominated:
        est.notes = "stderr exceeds |value|: variance-dominated estimate"
        se = float(np.max(est.stderr))
        # only worth a runtime warning when the noise is non-negligible
        if se > 1e-4:
            warnings.warn(f"Hessian estimate at t = {t:g} is variance dominated "
                          f"(stderr {se:.3g} > |value|)")
    return est


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

    Each node is an independent :func:`estimate_hess` on its own stream
    ``derive_seed(seed, 101, i)``, with a Neyman allocation of paths: node i
    gets n_i proportional to b_i / sqrt(steps_i), where b_i is its absolute
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
    floored counts would cost more path-steps than the equal rule.  The
    result is a deterministic function of (seed, n_paths, chunk_size, cfg)
    at any thread count; ``notes`` records the pilot and main path-steps
    and the node count range.
    """
    if antithetic and n_paths % 2:
        raise ValueError("antithetic estimation needs an even path count")
    sigma = cfg.sigma
    theta = cfg.theta if cfg.theta is not None else default_theta(m)
    K = m.ricci_lower_bound
    rate = sigma - 2.0 * K - theta
    if rate <= 0:
        warnings.warn(
            f"sigma = {sigma:g} is not above the semigroup growth 2K + theta "
            f"= {2 * K + theta:g}; the time integral may not converge")
        t_max = cfg.t_max if cfg.t_max is not None else 20.0 / sigma
    else:
        t_max = cfg.t_max if cfg.t_max is not None else \
            max(2.0 * cfg.t_min, math.log(1.0 / _TAIL_TARGET) / rate)
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

    def node_hess(i, n, n_steps, stream):
        # variance domination at individual tail nodes (value near zero) is
        # expected; collect it into the notes instead of warning per node
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return estimate_hess(
                m, f, x, v, w, float(nodes[i]), cfg, mode, n_paths=int(n),
                h=float(nodes[i]) / int(n_steps),
                seed=derive_seed(seed, stream, i), antithetic=antithetic,
                chunk_size=chunk_size, threads=threads)

    if n_paths > _PILOT_PATHS:
        pilot_steps = np.minimum(steps, _PILOT_STEPS)
        sd = np.array([node_hess(i, _PILOT_PATHS, pilot_steps[i], 102).scalar_stderr
                       for i in range(len(nodes))]) * math.sqrt(_PILOT_PATHS)
        counts = _neyman_counts(np.abs(coef) * sd, steps, n_paths, _PILOT_PATHS)
        pilot_cost = _PILOT_PATHS * int(pilot_steps.sum())
    else:
        # every floored count would be at least n_paths: nothing to save
        counts = np.full(len(nodes), n_paths)
        pilot_cost = 0
    ests = [node_hess(i, counts[i], steps[i], 101) for i in range(len(nodes))]
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
