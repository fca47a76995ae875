"""Numerical verification of the quantitative kernel and semigroup bounds.

Each check evaluates both sides of one inequality over a parameter grid,
fits the smallest admissible constant (the statements only assert that some
finite constant exists), and reports pass/fail.  "Pass" means: every ratio
is finite, and the fitted constant is stable within 10% when the grids are
refined.  Statistical checks never fail on noise alone: samples whose
standard error dominates are marked inconclusive instead.

Exponential growth rates entering the right-hand sides (the Kato rate theta
and the auxiliary kernel rate) are taken from the exponential-moment fit of
the curvature potential; on the model spaces |R|^2 is constant, so the
fitted rate is exactly |R|^2.

The Monte Carlo checks (semigroup bounds, Kato functionals) run on the
estimators' path layer of :mod:`mheat.semigroup`, in chunks of
``SEMIGROUP_CHUNK`` or ``KATO_CHUNK`` paths.  The semigroup bounds take the
estimators' own Hessian observer, with all d^2 frame pairs as one stack of
(v, w) pairs and its path moments; their points are the path sets of one
call per step size, and each point walks once to the longest horizon of
that step, read at the shorter ones on the way, so that point's rows at
those horizons are correlated.  The Kato check hands the layer an
``observe(walk)`` that snapshots potential integrals.  ``threads`` changes
their wall time, not their results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .geometry import (
    ManifoldModel,
    Point,
    ScalarField,
    Sphere,
    Torus,
    _frame_at,
    compact_bump_field,
    const_field,
    curvature_package,
)
from .oracle import (
    OracleError,
    QuadratureGrid,
    kernel_hess_quadrature,
    kernel_on_grid,
    lp_norm,
    polar_grid,
    quadrature_grid,
)
from .semigroup import (RunningMoments, _hess_nodes, _require_oracles, _walk_chunks,
                        default_theta, derive_seed)
from .spectral import (
    SphereHarmonicTables,
    SphericalPolynomial,
    TrigPolynomial,
    _sphere_bochner_terms,
    _torus_bochner_terms,
)
from .transport import _grid_steps

__all__ = [
    "BoundCheckConfig",
    "BoundReport",
    "KatoResult",
    "check_kernel_bounds",
    "check_weighted_l2",
    "check_gaffney",
    "check_semigroup_bounds",
    "kato_functional",
    "cz_scan",
]

MIN_STAT_PATHS = 1000
# paths per chunk of the Monte Carlo checks; fixed, so that results do not
# depend on the thread count
SEMIGROUP_CHUNK = 8192
KATO_CHUNK = 16384
# the statistical checks allow 3 standard errors of slack
_SLACK_NOTE = "confidence=0.997 (3-sigma slack)"
# geodesic radius of the Gaffney caps
_CAP_RADIUS = 0.3


@dataclass
class BoundCheckConfig:
    """Exponent choices and grids shared by the bound checks.

    Constraints follow the statements being tested: alpha in (0, 1/4),
    gamma in (0, 2 alpha), beta in (0, 2 alpha) for the pointwise Hessian
    kernel bound and additionally beta < alpha for the tail estimate
    (enforced where used).  All fitted constants are outputs, never inputs.
    """

    alpha: float = 0.2
    beta: Optional[float] = None
    gamma: Optional[float] = None
    t_grid: np.ndarray = field(default_factory=lambda: np.linspace(0.01, 4.0, 20))
    rho_grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 5.0, 20))
    s_grid: np.ndarray = field(default_factory=lambda: np.geomspace(0.05, 2.0, 12))
    h: float = 0.005
    grid_resolution: int = 48

    def __post_init__(self):
        if not (0.0 < self.alpha < 0.25):
            raise ValueError(f"alpha = {self.alpha} must lie in (0, 1/4)")
        if self.beta is None:
            self.beta = self.alpha / 2.0
        if self.gamma is not None and not (0.0 < self.gamma < 2.0 * self.alpha):
            raise ValueError(
                f"gamma = {self.gamma} violates gamma < 2*alpha (alpha = {self.alpha})")
        if not (0.0 < self.beta < 2.0 * self.alpha):
            raise ValueError(
                f"beta = {self.beta} violates beta < 2*alpha (alpha = {self.alpha})")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        self.rho_grid = np.asarray(self.rho_grid, dtype=float)
        self.s_grid = np.asarray(self.s_grid, dtype=float)

    def require_tail_beta(self) -> float:
        if not (0.0 < self.beta < self.alpha):
            raise ValueError(
                f"beta = {self.beta}: the tail estimate needs beta < alpha "
                f"(alpha = {self.alpha})")
        return self.beta

    def require_gamma(self) -> float:
        if self.gamma is None:
            raise ValueError("gamma must be set for the weighted L2 check")
        return self.gamma


@dataclass
class BoundReport:
    """Per-sample ratios for one inequality plus the fitted constant."""

    inequality_id: str
    samples: List[dict]
    fitted_constant: float
    passed: bool
    notes: str = ""
    aux_constants: dict = field(default_factory=dict)

    def sample_columns(self) -> List[str]:
        cols: List[str] = []
        for s in self.samples:
            for k in s:
                if k not in cols:
                    cols.append(k)
        return cols


@dataclass
class KatoResult:
    """Kato functional / exponential moment table with the fitted rate."""

    rows: List[dict]
    c_fit: float
    theta_fit: float
    nondecreasing: bool
    vanishes_at_zero: bool
    notes: str = ""


def curvature_squared_potential(m: ManifoldModel) -> ScalarField:
    """|R|^2 as a potential; constant on model spaces, read off the
    curvature package rather than hard-coded."""
    x = Point(m.base_point())
    pkg = curvature_package(m, x, _frame_at(m, x))
    f = const_field(m, pkg.r_opnorm ** 2)
    f.name = "curvature-r2"
    return f


def ric_grad_squared_potential(m: ManifoldModel) -> ScalarField:
    """|grad Ric# + d*R|^2; identically zero on constant-curvature models."""
    x = Point(m.base_point())
    pkg = curvature_package(m, x, _frame_at(m, x))
    mag = float(np.sum((pkg.ricci_sharp_grad + pkg.dstar_r) ** 2))
    f = const_field(m, mag)
    f.name = "ricgrad-r2"
    return f


def _stable(a: float, b: float, tol: float = 0.10) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale <= tol


def _positive_rate(x: np.ndarray, logy: np.ndarray) -> float:
    """Least-squares slope clipped at zero (growth rates are nonnegative)."""
    if len(x) < 2 or np.allclose(x, x[0]):
        return 0.0
    slope = float(np.polyfit(x, logy, 1)[0])
    return max(0.0, slope)


def _refine_grid(g: np.ndarray) -> np.ndarray:
    """Double a 1-d grid's density, keeping the original nodes."""
    mids = 0.5 * (g[:-1] + g[1:])
    return np.sort(np.concatenate([g, mids]))


def _opnorm(H: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of square matrices of shape (..., d, d).

    For d = 2 this is the closed form for any real [[a, b], [c, d]],
    (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2, which assumes no
    symmetry; other sizes take the largest singular value.
    """
    if H.shape[-1] != 2:
        return np.linalg.norm(H, ord=2, axis=(-2, -1))
    a, b = H[..., 0, 0], H[..., 0, 1]
    c, d = H[..., 1, 0], H[..., 1, 1]
    return 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))


def _probe_points(m: ManifoldModel, rhos: np.ndarray):
    """Points at prescribed distances from the base point along a frame axis."""
    y = m.base_point()
    F = m.frame(y[None, :])[0]
    X0 = np.broadcast_to(y, (len(rhos), m.ambient_dim))
    U = rhos[:, None] * F[0][None, :]
    return m.retract(m.exp(X0.copy(), U)), y


# ---------------------------------------------------------------------------
# kernel bounds

def _kernel_bound_constants(m: ManifoldModel, cfg: BoundCheckConfig,
                            rho_grid: np.ndarray, t_grid: np.ndarray):
    alpha, beta = cfg.alpha, cfg.beta
    K = m.ricci_lower_bound
    theta = default_theta(m)
    c3 = 2.0 * K + theta
    if m.kind == "sphere":
        rho_grid = np.clip(rho_grid, 0.0, 0.85 * math.pi * m.radius)
    X, y = _probe_points(m, rho_grid)
    samples_p = []
    samples_h = []
    p_only = []
    full = []
    hess_ratio = []
    for t in t_grid:
        out = kernel_on_grid(m, X, y, float(t))
        reliable = out.get("reliable", np.ones(len(X), dtype=bool))
        vol = m.ball_volume(math.sqrt(t))
        hnorm = _opnorm(out["hess"])
        for i, rho in enumerate(rho_grid):
            w_p = vol * math.exp(alpha * rho * rho / t)
            r_p_only = out["p"][i] * w_p
            r_full = (out["p"][i] + abs(out["dp_dt"][i])) * w_p
            w_h = t * vol * math.exp(beta * rho * rho / t) \
                / ((1.0 + math.sqrt(t)) * math.exp(0.5 * (c3 + theta) * t))
            r_h = hnorm[i] * w_h
            rel = bool(reliable[i])
            samples_p.append({"rho": float(rho), "t": float(t),
                              "lhs": float(out["p"][i] + abs(out["dp_dt"][i])),
                              "rhs_no_const": 1.0 / w_p, "ratio": float(r_full),
                              "p_ratio": float(r_p_only),
                              "provenance": "closed-form", "reliable": rel})
            samples_h.append({"rho": float(rho), "t": float(t),
                              "lhs": float(hnorm[i]), "rhs_no_const": 1.0 / w_h,
                              "ratio": float(r_h),
                              "provenance": "closed-form", "reliable": rel})
            if rel:
                p_only.append(r_p_only)
                full.append((r_full, t, rho))
                hess_ratio.append(r_h)
    # joint fit of C1 for the K t correction: pick C1 >= 0 minimizing the sup
    if K > 0:
        c1_grid = np.linspace(0.0, 8.0, 161)
        best = None
        for c1 in c1_grid:
            sup = max(r * math.exp(-c1 * K * t) for (r, t, _rho) in full)
            if best is None or sup < best[1]:
                best = (c1, sup)
        c1_fit, c_fit = best
    else:
        c1_fit, c_fit = 0.0, max(r for (r, _t, _rho) in full)
    return (samples_p, samples_h, max(p_only), c_fit, c1_fit,
            max(hess_ratio), c3, theta)


def check_kernel_bounds(m: ManifoldModel, cfg: BoundCheckConfig):
    """Gaussian bound for p + |dp/dt| and the pointwise Hessian kernel bound.

    Returns two reports; the first carries the fitted constant for the
    kernel/time-derivative bound (with the p-only constant in
    ``aux_constants``), the second the Hessian-kernel constant.
    """
    base = _kernel_bound_constants(m, cfg, cfg.rho_grid, cfg.t_grid)
    fine = _kernel_bound_constants(m, cfg, _refine_grid(cfg.rho_grid),
                                   _refine_grid(cfg.t_grid))
    (samples_p, samples_h, p_const, full_const, c1_fit, h_const,
     c3, theta) = base
    p_stable = _stable(p_const, fine[2])
    full_stable = _stable(full_const, fine[3])
    h_stable = _stable(h_const, fine[5])
    finite_p = all(math.isfinite(s["ratio"]) for s in samples_p if s["reliable"])
    finite_h = all(math.isfinite(s["ratio"]) for s in samples_h if s["reliable"])
    n_unrel = sum(0 if s["reliable"] else 1 for s in samples_p)
    notes = f"C1_fit={c1_fit:g}"
    if n_unrel:
        notes += f"; {n_unrel} samples excluded (spectral cancellation)"
    rep1 = BoundReport(
        "kernel-gaussian-bound", samples_p, full_const,
        passed=finite_p and p_stable and full_stable, notes=notes,
        aux_constants={"p_term": p_const, "p_term_refined": fine[2],
                       "C1": c1_fit, "refined": fine[3]})
    rep2 = BoundReport(
        "hessian-kernel-bound", samples_h, h_const,
        passed=finite_h and h_stable,
        notes=f"C3={c3:g} theta={theta:g}",
        aux_constants={"C3": c3, "theta": theta, "refined": fine[5]})
    return rep1, rep2


# ---------------------------------------------------------------------------
# weighted L2 estimates

def _weighted_integrals(m: ManifoldModel, cfg: BoundCheckConfig, s: float,
                        grid: QuadratureGrid, y: np.ndarray):
    gamma = cfg.gamma
    out = kernel_on_grid(m, grid.nodes, y, s, frames=grid.frames(m))
    rho = m.distance(grid.nodes, np.broadcast_to(y, grid.nodes.shape))
    weight = np.exp(gamma * rho * rho / s)
    gsq = np.sum(out["grad"] * out["grad"] * m.metric_sign()[None, :], axis=1)
    hs2 = np.sum(out["hess"] ** 2, axis=(1, 2))
    i1_density = (out["p"] ** 2 + s * gsq + s * s * out["lap"] ** 2) * weight
    i2_density = hs2 * weight
    i1 = grid.integrate(i1_density)
    i2 = grid.integrate(i2_density)
    # crude tail control for truncated (noncompact) grids: mass of the
    # outermost decile must stay below 1% of the integral
    unreliable = False
    if grid.truncation_radius is not None:
        outer = rho > 0.9 * grid.truncation_radius
        tail1 = float(np.sum(grid.weights[outer] * i1_density[outer]))
        tail2 = float(np.sum(grid.weights[outer] * i2_density[outer]))
        unreliable = tail1 > 0.01 * abs(i1) or tail2 > 0.01 * abs(i2)
    hnorm = _opnorm(out["hess"])
    return i1, i2, unreliable, hnorm, rho


def _weighted_l2_reports(m: ManifoldModel, cfg: BoundCheckConfig,
                         s_grid: np.ndarray, t_grid: np.ndarray,
                         resolution: int):
    cfg.require_gamma()
    beta = cfg.require_tail_beta()
    K = m.ricci_lower_bound
    grid = quadrature_grid(m, resolution)
    y = m.base_point()
    rows1, rows2, rows3 = [], [], []
    i1_vals, i2_vals = [], []
    for s in s_grid:
        i1, i2, unrel, hnorm, rho = _weighted_integrals(m, cfg, float(s), grid, y)
        vol = m.ball_volume(math.sqrt(s))
        rows1.append({"s": float(s), "lhs": i1, "vol": vol,
                      "provenance": "quadrature", "reliable": not unrel})
        rows2.append({"s": float(s), "lhs": i2, "vol": vol,
                      "provenance": "quadrature", "reliable": not unrel})
        for t in t_grid:
            mask = rho >= math.sqrt(t)
            tail = float(np.sum(grid.weights[mask] * hnorm[mask]))
            rows3.append({"s": float(s), "t": float(t), "lhs": tail,
                          "provenance": "quadrature", "reliable": not unrel})
        i1_vals.append(i1)
        i2_vals.append(i2)
    s_arr = np.asarray(s_grid, dtype=float)
    vols = np.array([m.ball_volume(math.sqrt(s)) for s in s_arr])
    # report (i): C' from the growth of I1 * V in s, then C_gamma as the sup
    cprime = _positive_rate(2.0 * s_arr, np.log(np.maximum(
        np.asarray(i1_vals) * vols, 1e-300)))
    r1 = np.asarray(i1_vals) * vols * np.exp(-2.0 * cprime * s_arr)
    for row, r in zip(rows1, r1):
        row["rhs_no_const"] = 1.0 / (row["vol"] * math.exp(-2.0 * cprime * row["s"]))
        row["ratio"] = float(r)
    # report (ii): same C', normalization (1 + K s) / s^2
    r2 = (np.asarray(i2_vals) * s_arr ** 2 * vols
          / (1.0 + K * s_arr) * np.exp(-2.0 * cprime * s_arr))
    for row, r in zip(rows2, r2):
        row["rhs_no_const"] = ((1.0 + K * row["s"])
                               * math.exp(2.0 * cprime * row["s"])
                               / (row["s"] ** 2 * row["vol"]))
        row["ratio"] = float(r)
    # report (iii): C'' from the s-growth after removing the known factors
    svals = np.array([r["s"] for r in rows3])
    tvals = np.array([r["t"] for r in rows3])
    lhs3 = np.array([r["lhs"] for r in rows3])
    shape = (1.0 + np.sqrt(svals)) / svals * np.exp(-beta * tvals / svals)
    logres = np.log(np.maximum(lhs3, 1e-300)) - np.log(shape)
    cpp = _positive_rate(svals, logres)
    r3 = lhs3 / (shape * np.exp(cpp * svals))
    for row, r in zip(rows3, r3):
        row["rhs_no_const"] = float((1.0 + math.sqrt(row["s"])) / row["s"]
                                    * math.exp(cpp * row["s"]
                                               - beta * row["t"] / row["s"]))
        row["ratio"] = float(r)
    consts = (float(np.max(r1)), float(np.max(r2)), float(np.max(r3)))
    return rows1, rows2, rows3, consts, cprime, cpp


def check_weighted_l2(m: ManifoldModel, cfg: BoundCheckConfig):
    """Weighted L2 bounds for (p, grad p, lap p), for Hess p, and the
    off-ball L1 Hessian tail, with fitted (C_gamma, C', C'')."""
    res = cfg.grid_resolution
    base = _weighted_l2_reports(m, cfg, cfg.s_grid, cfg.t_grid[:8], res)
    fine = _weighted_l2_reports(m, cfg, cfg.s_grid, cfg.t_grid[:8],
                                int(res * 1.5))
    rows1, rows2, rows3, consts, cprime, cpp = base
    reports = []
    ids = ["weighted-l2-kernel", "weighted-l2-hessian", "hessian-tail-l1"]
    for i, (ident, rows) in enumerate(zip(ids, (rows1, rows2, rows3))):
        finite = all(math.isfinite(r["ratio"]) for r in rows if r["reliable"])
        stable = _stable(consts[i], fine[3][i])
        reports.append(BoundReport(
            ident, rows, consts[i], passed=finite and stable,
            notes=f"Cprime={cprime:g} Cpp={cpp:g}",
            aux_constants={"Cprime": cprime, "Cpp": cpp,
                           "refined": fine[3][i]}))
    return tuple(reports)


# ---------------------------------------------------------------------------
# Gaffney off-diagonal decay

def _gaffney_scan(m: ManifoldModel, cfg: BoundCheckConfig, p: float,
                  centerE: np.ndarray, antipode: np.ndarray, radius: float,
                  t_grid: np.ndarray, n_rad: int, n_ang: int):
    K = m.ricci_lower_bound
    theta = default_theta(m)
    f = compact_bump_field(m, center=centerE, r0=radius)
    gridE = polar_grid(m, centerE, radius, n_rad, n_ang)
    gridF = polar_grid(m, antipode, radius, n_rad, n_ang)
    fvals = f.eval_fn(gridE.nodes)
    fnorm = lp_norm(gridE, fvals, p)
    rho_ef = float(m.distance(centerE[None, :], antipode[None, :])[0]) - 2 * radius
    norms, reliable = [], []
    coef = gridE.weights * fvals
    for t in t_grid:
        # Hess P_t f(x) = integral of Hess_x p_t(x, y) f(y) dmu(y) over the cap
        H, ok = kernel_hess_quadrature(m, gridF.nodes, gridE.nodes, coef,
                                       float(t), frames=gridF.frames(m))
        hnorm = _opnorm(H)
        norms.append(lp_norm(gridF, t * hnorm, p))
        reliable.append(bool(np.all(ok)))
    norms = np.asarray(norms)
    reliable = np.asarray(reliable)
    denom = (1.0 + np.sqrt(t_grid)) * np.exp((2 * K + theta) * t_grid) * fnorm
    # the norm underflows to 0 at tiny t between far caps, and the spectral
    # kernel loses relative accuracy there (reliable False): both leave the fit
    pos = (norms > 0.0) & reliable
    if np.sum(pos) < 2:
        raise ValueError("off-diagonal norm vanished on the whole t grid")
    logy = np.log(norms[pos] / denom[pos])
    c4_fit = _positive_rate(-rho_ef ** 2 / t_grid[pos], logy)
    c4_used = 0.9 * c4_fit
    with np.errstate(divide="ignore"):
        ratios = np.exp(np.log(norms / denom) + c4_used * rho_ef ** 2 / t_grid)
    return norms, denom, ratios, c4_fit, c4_used, rho_ef, reliable


def _gaffney_caps(m: ManifoldModel, p: float, cap_radius: float = _CAP_RADIUS,
                  centerE: Optional[np.ndarray] = None):
    """The cap centres of :func:`check_gaffney`: ``centerE``, by default the
    base point, and its antipode (on the torus, the point shifted by pi); a
    ValueError unless p >= 2, the model is compact and the caps are
    disjoint."""
    if p < 2:
        raise ValueError(f"p = {p:g}: the off-diagonal Hessian scan needs p >= 2")
    if not isinstance(m, (Torus, Sphere)):
        raise ValueError(f"kind = {m.kind!r}: the off-diagonal scan needs a "
                         f"compact model")
    if centerE is None:
        centerE = m.base_point()
    centerE = np.asarray(centerE, dtype=float)
    antipode = m.retract(centerE + math.pi) if isinstance(m, Torus) else -centerE
    sep = float(m.distance(centerE[None, :], antipode[None, :])[0])
    if sep <= 2 * cap_radius:
        raise ValueError(f"cap_radius = {cap_radius:g}: the caps overlap, "
                         f"rho(E, F) must be positive")
    return centerE, antipode


def check_gaffney(m: ManifoldModel, cfg: BoundCheckConfig, p: float,
                  cap_radius: float = _CAP_RADIUS,
                  centerE: Optional[np.ndarray] = None) -> BoundReport:
    """Off-diagonal decay of t |Hess P_t f| in L^p between disjoint caps:
    E about ``centerE`` (by default the base point) and F about its
    antipode (on the torus, ``centerE`` shifted by pi).

    The decay rate C4 is fitted by regressing the log of the normalized
    norm on rho(E, F)^2 / t; reported ratios use 0.9 * C4 so that a genuine
    Gaussian decay makes them tend to zero monotonically as t -> 0.
    """
    centerE, antipode = _gaffney_caps(m, p, cap_radius, centerE)
    t_grid = cfg.t_grid
    base = _gaffney_scan(m, cfg, p, centerE, antipode, cap_radius, t_grid, 12, 20)
    fine = _gaffney_scan(m, cfg, p, centerE, antipode, cap_radius, t_grid, 18, 30)
    norms, denom, ratios, c4_fit, c4_used, rho_ef, reliable = base
    # decay toward t -> 0: below the peak the ratio must shrink with t;
    # unreliable t-nodes leave the monotonicity test and the maximum
    order = [i for i in np.argsort(t_grid) if reliable[i]]
    r_sorted = ratios[order]
    imax = int(np.argmax(r_sorted))
    mono = imax > 0 and bool(np.all(np.diff(r_sorted[:imax + 1]) >= -1e-12
                                    * np.maximum(r_sorted[1:imax + 1], 1e-300)))
    samples = [{"t": float(t), "lhs": float(n), "rhs_no_const": float(dn),
                "ratio": float(r), "provenance": "quadrature", "reliable": bool(ok)}
               for t, n, dn, r, ok in zip(t_grid, norms, denom, ratios, reliable)]
    passed = (np.all(np.isfinite(r_sorted)) and _stable(c4_fit, fine[3])
              and mono)
    dropped = ",".join(f"{t:g}" for t in t_grid[~reliable])
    return BoundReport(
        "hessian-gaffney-lp", samples, float(np.max(r_sorted)), bool(passed),
        notes=f"p={p:g} rho_EF={rho_ef:g} C4_fit={c4_fit:g} C4_used={c4_used:g} "
              f"monotone={mono} unreliable_t_nodes={int(np.sum(~reliable))}"
              + (f" (t={dropped})" if dropped else ""),
        aux_constants={"C4_fit": c4_fit, "C4_used": c4_used,
                       "C4_refined": fine[3], "rho_EF": rho_ef})


# ---------------------------------------------------------------------------
# semigroup bounds (shared-path Monte Carlo)

def _sample_stats(m: ManifoldModel, est) -> dict:
    """The domination ingredients in one estimate of :func:`_semigroup_sets`."""
    d = m.dim
    mean, se = est.value, est.stderr
    dd = d * d
    gram_mean = mean[dd + 3:].reshape(dd, dd)
    # sup over unit (v, w) of E|W(v, w)|^2 from the pair Gram
    if d == 2:
        ang = np.linspace(0.0, math.pi, 64, endpoint=False)
        vv = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        # Kronecker coefficients v_i w_j of every (v, w) pair, in pair order
        coef = np.einsum("vi,wj->vwij", vv, vv).reshape(-1, d * d)
        wsup2 = float(np.max(np.einsum("ka,ab,kb->k", coef, gram_mean, coef)))
    else:
        wsup2 = float(np.trace(gram_mean))
    return {
        "hess": mean[:dd].reshape(d, d), "hess_se": se[:dd].reshape(d, d),
        "pt_f2": float(mean[dd]), "pt_f2_se": float(se[dd]),
        "pt_gradsq": float(mean[dd + 1]), "pt_gradsq_se": float(se[dd + 1]),
        "pt_hess2": float(mean[dd + 2]), "pt_hess2_se": float(se[dd + 2]),
        "wsup": math.sqrt(max(wsup2, 0.0)),
    }


def _semigroup_sets(m: ManifoldModel, f: ScalarField, xs: Sequence[Point],
                    ts: Sequence[float], h: float, seeds: Sequence[int],
                    n_paths: int, threads: Optional[int] = None):
    """Shared-path estimates of Hess P_t f and the domination ingredients at
    every point of ``xs`` and horizon of ``ts`` (sorted, on the grid of step
    h), as one list per point of one dict per horizon.

    Point i walks ``n_paths`` paths of stream ``seeds[i]`` once, to the last
    horizon, as one path set of :func:`mheat.semigroup._hess_nodes`; every
    horizon is read off those paths.  The samples are the mixed Hessian
    samples of every frame pair (e_i, e_j), in C order, and the path
    moments.
    """
    d = m.dim
    eye = np.eye(d)
    ests = _hess_nodes(m, f, list(xs), np.repeat(eye, d, axis=0), np.tile(eye, (d, 1)),
                       "mixed", t=[list(ts)] * len(xs), h=[h] * len(xs),
                       seed=list(seeds), n_paths=[n_paths] * len(xs),
                       antithetic=False, chunk_size=SEMIGROUP_CHUNK,
                       threads=threads, moments=True)
    J = len(ts)
    return [[_sample_stats(m, e) for e in ests[i:i + J]]
            for i in range(0, len(ests), J)]


def _semigroup_samples(m: ManifoldModel, f: ScalarField, x: Point, t: float,
                       n_paths: int, h: float, seed: int,
                       threads: Optional[int] = None):
    """The samples of :func:`_semigroup_sets` at one point and horizon t,
    walked round(t / h) steps, at least 2, at step t / n."""
    ((sm,),) = _semigroup_sets(m, f, [x], [t], t / _grid_steps(t, h, lo=2),
                               [seed], n_paths, threads)
    return sm


def _step_groups(t_list: Sequence[float], h: float):
    """[step, indices] of the horizons of ``t_list`` whose walks take equal
    steps t / n (n = round(t / h), at least 2); indices sorted by horizon,
    and the step that of the longest."""
    groups = []
    for it in sorted(range(len(t_list)), key=lambda i: (float(t_list[i]), i)):
        t = float(t_list[it])
        step = t / _grid_steps(t, h, lo=2)
        group = next((g for g in groups if math.isclose(step, g[0], rel_tol=1e-12)),
                     None)
        if group is None:
            groups.append([step, [it]])
        else:
            group[0] = step
            group[1].append(it)
    return groups


def check_semigroup_bounds(m: ManifoldModel, f: ScalarField,
                           cfg: BoundCheckConfig, n_paths: int, seed: int,
                           x_list: Optional[Sequence[Point]] = None,
                           t_list: Optional[Sequence[float]] = None,
                           include_lp: bool = True,
                           threads: Optional[int] = None):
    """Three checks on Hess P_t f: the pointwise growth bound, its L^p-norm
    version, and the domination by (P_t |Hess f|^2)^{1/2} plus a gradient
    term weighted by the measured W moment.

    A horizon t walks n = round(t / cfg.h) steps, at least 2, of size
    t / n.  Horizons whose steps agree share walks: each point walks once
    per step size, to the longest such horizon, on the stream
    ``derive_seed(seed, it, ix)`` of that horizon's row (``it`` its index
    in ``t_list``, ``ix`` the point's), and the shorter horizons are read
    off the same paths.  The rows of one point at such horizons are
    therefore correlated; each keeps its own path count and standard
    error and is judged on its own.  A horizon that shares its step with no
    other walks alone, as it always has.  The norm report (b) takes
    |Hess P_t f| at the nodes of :func:`quadrature_grid` by kernel
    quadrature over the same grid, at resolution 12 on H^2, whose kernel
    pays Richardson differences of an integral per (node, source) pair, and
    32 on the other models.  ``include_lp=False`` skips (b), for callers
    that want only the Monte Carlo reports (a) and (c); its report is then
    returned empty and marked not passed with an explanatory note.
    """
    if n_paths < MIN_STAT_PATHS:
        raise ValueError(f"statistical checks need >= {MIN_STAT_PATHS} paths")
    _require_oracles(f, "mixed")
    K = m.ricci_lower_bound
    theta = default_theta(m)
    if t_list is None:
        t_list = [0.25, 0.5, 1.0]
    if x_list is None:
        g = np.random.Generator(np.random.Philox(key=derive_seed(seed, 7)))
        x_list = [Point(p) for p in m.random_points(g, 5, spread=0.5)]
    samples = {}
    for step, members in _step_groups(t_list, cfg.h):
        seeds = [derive_seed(seed, members[-1], ix) for ix in range(len(x_list))]
        per_point = _semigroup_sets(m, f, x_list, [float(t_list[it]) for it in members],
                                    step, seeds, n_paths, threads)
        for ix, row in enumerate(per_point):
            samples.update(((it, ix), sm) for it, sm in zip(members, row))
    rows_a, rows_c = [], []
    for it, t in enumerate(t_list):
        for ix in range(len(x_list)):
            sm = samples[it, ix]
            hnorm = float(np.linalg.norm(sm["hess"], 2))
            hse = float(np.max(sm["hess_se"])) * m.dim
            rhs_a = ((1.0 + math.sqrt(t)) * math.exp((2 * K + theta) * t)
                     * math.sqrt(max(sm["pt_f2"], 0.0)))
            ratio_a = t * hnorm / rhs_a if rhs_a > 0 else math.inf
            inconclusive = hse > 0.5 * max(rhs_a, 1e-300)
            rows_a.append({"t": float(t), "x_index": ix, "lhs": t * hnorm,
                           "rhs_no_const": rhs_a, "ratio": float(ratio_a),
                           "stderr": t * hse,
                           "provenance": f"monte-carlo({t * hse:.3g})",
                           "reliable": not inconclusive})
            lhs_c = hnorm
            rhs_c = (math.exp(2 * K * t) * math.sqrt(max(sm["pt_hess2"], 0.0))
                     + sm["wsup"] * math.sqrt(max(sm["pt_gradsq"], 0.0)))
            se_c = hse + math.exp(2 * K * t) * sm["pt_hess2_se"] \
                + sm["wsup"] * sm["pt_gradsq_se"]
            ok = lhs_c <= rhs_c + 3.0 * se_c
            fitted_c = (sm["wsup"] / math.exp((2 * K + theta) * t)
                        if sm["wsup"] > 0 else 0.0)
            rows_c.append({"t": float(t), "x_index": ix, "lhs": lhs_c,
                           "rhs": rhs_c, "stderr": se_c,
                           "ratio": lhs_c / rhs_c if rhs_c > 0 else math.inf,
                           "passed": bool(ok), "fitted_C": fitted_c,
                           "provenance": f"monte-carlo({se_c:.3g})",
                           "reliable": not (se_c > 0.5 * max(rhs_c, 1e-300))})
    # (b): L^p-norm version on a quadrature grid (p = 2)
    rows_b = []
    have_grid = False
    if include_lp:
        try:
            grid = quadrature_grid(m, 12 if m.kind == "hyperbolic" else 32)
            have_grid = True
        except OracleError:
            have_grid = False
    if have_grid:
        fnorm = lp_norm(grid, f.eval_fn(grid.nodes), 2)
        for t in t_list:
            hvals = _hess_field_norm(m, f, float(t), grid)
            lhs = t * lp_norm(grid, hvals, 2)
            rhs = (1.0 + math.sqrt(t)) * math.exp((2 * K + theta) * t) * fnorm
            rows_b.append({"t": float(t), "lhs": lhs, "rhs_no_const": rhs,
                           "ratio": lhs / rhs,
                           "provenance": "quadrature", "reliable": True})
    const_a = max((r["ratio"] for r in rows_a if r["reliable"]), default=math.inf)
    const_b = max((r["ratio"] for r in rows_b), default=math.nan)
    passed_a = all(math.isfinite(r["ratio"]) for r in rows_a if r["reliable"])
    passed_b = bool(rows_b) and all(math.isfinite(r["ratio"]) for r in rows_b)
    conclusive = [r for r in rows_c if r["reliable"]]
    passed_c = all(r["passed"] for r in conclusive) and bool(conclusive)
    rep_a = BoundReport("semigroup-hessian-growth", rows_a, const_a, passed_a,
                        notes=f"theta={theta:g}; {_SLACK_NOTE}")
    rep_b = BoundReport("semigroup-hessian-lp", rows_b, const_b, passed_b,
                        notes="p=2" if include_lp else "skipped (include_lp=False)")
    rep_c = BoundReport("hessian-domination", rows_c,
                        max((r["fitted_C"] for r in rows_c), default=0.0),
                        passed_c,
                        notes=f"RHS uses the measured sup E|W(v,w)|^2; {_SLACK_NOTE}")
    return rep_a, rep_b, rep_c


def _hess_field_norm(m: ManifoldModel, f: ScalarField, t: float,
                     grid: QuadratureGrid) -> np.ndarray:
    """|Hess P_t f| at the grid nodes by kernel quadrature over the grid."""
    fvals = f.eval_fn(grid.nodes)
    coef = np.where(np.abs(fvals) < 1e-14, 0.0, grid.weights * fvals)
    H, _ = kernel_hess_quadrature(m, grid.nodes, grid.nodes, coef, t,
                                  frames=grid.frames(m))
    return _opnorm(H)


# ---------------------------------------------------------------------------
# Kato functional

def _kato_grid(t_list: Sequence[float], h: Optional[float] = None):
    """Sorted marks, the step count over [0, t_max] and each mark's step
    index; the walk takes round(t_max / h) steps (h defaults to t_max / 200)
    and every mark must fall on one of them."""
    t_list = sorted(float(t) for t in t_list)
    t_max = t_list[-1]
    if h is None:
        h = t_max / 200.0
    n_steps = _grid_steps(t_max, h)
    step = t_max / n_steps
    marks = []
    for t in t_list:
        k = round(t / step)
        if abs(k * step - t) > 1e-9:
            raise ValueError(f"h = {h:g} walks steps of {step:g} over "
                             f"[0, {t_max:g}], and none ends at t = {t:g}")
        marks.append(int(k))
    return t_list, n_steps, marks


def kato_functional(m: ManifoldModel, potential: ScalarField,
                    t_list: Sequence[float], x_list: Sequence[Point],
                    n_paths: int, seed: int, h: Optional[float] = None,
                    threads: Optional[int] = None) -> KatoResult:
    """Time integrals E^x[int_0^t V(X_s) ds] and exponential moments.

    The table reports, per t, the sup over x_list of the mean integral and
    of the mean exponential; (C, theta) come from least squares of
    log exponential moments against t.  The step grid is that of
    :func:`_kato_grid`.
    """
    if n_paths < MIN_STAT_PATHS:
        raise ValueError(f"statistical checks need >= {MIN_STAT_PATHS} paths")
    t_list, n_steps, marks = _kato_grid(t_list, h)
    t_max = t_list[-1]
    rows = {t: {"t": t, "functional": -math.inf, "functional_se": 0.0,
                "expmom": -math.inf, "expmom_se": 0.0, "dropped": 0}
            for t in t_list}
    for xi, x in enumerate(x_list):
        integ_acc = {t: RunningMoments() for t in t_list}
        exp_acc = {t: RunningMoments() for t in t_list}
        dropped = {t: 0 for t in t_list}
        for _, snapshots in _walk_chunks(
                m, np.asarray(x.coords), t_max, n_steps, derive_seed(seed, 11, xi),
                n_paths, lambda walk: _kato_snapshots(walk, potential, marks),
                chunk_size=KATO_CHUNK, threads=threads):
            # one contiguous row per mark, so each reduction sums as a row
            for t, snap in zip(t_list, np.ascontiguousarray(snapshots.T)):
                integ_acc[t].update_batch(snap)
                with np.errstate(over="ignore"):
                    ex = np.exp(snap)
                finite = np.isfinite(ex)
                dropped[t] += int(np.sum(~finite))
                if np.any(finite):
                    exp_acc[t].update_batch(ex[finite])
        for t in t_list:
            fmean = float(integ_acc[t].mean)
            fse = float(integ_acc[t].stderr())
            if exp_acc[t].n == 0:
                emean, ese = math.inf, math.inf
            else:
                emean = float(exp_acc[t].mean)
                ese = float(exp_acc[t].stderr())
            if fmean > rows[t]["functional"]:
                rows[t]["functional"] = fmean
                rows[t]["functional_se"] = fse
            if emean > rows[t]["expmom"]:
                rows[t]["expmom"] = emean
                rows[t]["expmom_se"] = ese
            rows[t]["dropped"] += dropped[t]
    table = [rows[t] for t in t_list]
    ts = np.array(t_list)
    logmom = np.log(np.maximum([r["expmom"] for r in table], 1e-300))
    coef = np.polyfit(ts, logmom, 1)
    theta_fit = float(coef[0])
    c_fit = float(math.exp(coef[1]))
    fvals = np.array([r["functional"] for r in table])
    ses = np.array([r["functional_se"] for r in table])
    nondec = bool(np.all(np.diff(fvals) >= -3.0 * (ses[1:] + ses[:-1])))
    # the t -> 0 limit is the intercept of a linear fit of F against t
    if len(ts) >= 2:
        intercept = float(np.polyfit(ts, fvals, 1)[1])
    else:
        intercept = float(fvals[0])
    tol0 = max(3.0 * float(np.mean(ses)), 0.02 * max(float(fvals[-1]), 1e-12))
    vanishes = abs(intercept) <= tol0
    for r in table:
        r["provenance"] = f"monte-carlo({r['functional_se']:.3g})"
    return KatoResult(table, c_fit, theta_fit, nondec, vanishes,
                      notes=_SLACK_NOTE)


def _kato_snapshots(walk, potential, marks):
    """(n_paths, len(marks)) trapezoid path integrals of the potential, column
    j taken at step ``marks[j]``."""
    integral = np.zeros(walk.n_paths)
    vals_prev = potential.eval_fn(walk.points)
    snapshots = np.zeros((walk.n_paths, len(marks)))
    for k in range(walk.n_steps):
        walk.step(k)
        vals_cur = potential.eval_fn(walk.points)
        integral += 0.5 * walk.h * (vals_prev + vals_cur)
        vals_prev = vals_cur
        for j, mark in enumerate(marks):
            if mark == k + 1:
                snapshots[:, j] = integral
    return snapshots


# ---------------------------------------------------------------------------
# Calderon-Zygmund ratio scans

def _spectral_family_check(family) -> str:
    if all(isinstance(u, TrigPolynomial) for u in family):
        return "torus"
    if all(isinstance(u, SphericalPolynomial) for u in family):
        return "sphere"
    raise ValueError(
        "cz_scan needs a family of band-limited spectral fields")


# entries of one node block of the torus scan's complex (nodes, modes) phase
# matrix, 4 MB; the scan's memory then grows with the nodes, not nodes x modes
_PHASE_BLOCK = 1 << 18


def _torus_scan_arrays(family, grid: QuadratureGrid, sigma: float):
    """Batched node values for a torus family sharing one mode lattice.

    Returns a list of one block (fields, f, u, Delta u, |Hess u|_HS): a
    slice over the whole family and, for u = (Delta + sigma)^{-1} f, four
    (n_nodes, n_fields) arrays.  The phases exp(i <x, k>) are built for one
    block of at most ``_PHASE_BLOCK`` / n_modes nodes at a time.
    """
    modes = family[0].modes
    for u in family:
        if u.modes.shape != modes.shape or not np.array_equal(u.modes, modes):
            raise ValueError("family members must share one mode lattice")
    C = np.stack([u.coeffs for u in family], axis=1)
    lam = np.sum(modes ** 2, axis=1).astype(float)
    Cu = C / (lam + sigma)[:, None]
    d = modes.shape[1]
    n = len(grid.nodes)
    f_vals, u_vals, lap_vals, hs2 = (np.zeros((n, len(family))) for _ in range(4))
    rows = max(1, _PHASE_BLOCK // len(modes))
    for i0 in range(0, n, rows):
        block = slice(i0, i0 + rows)
        phase = np.exp(1j * (grid.nodes[block] @ modes.T))
        f_vals[block] = (phase @ C).real
        u_vals[block] = (phase @ Cu).real
        lap_vals[block] = (phase @ (lam[:, None] * Cu)).real
        for i in range(d):
            for j in range(i, d):
                comp = (phase @ ((-modes[:, i] * modes[:, j])[:, None] * Cu)).real
                hs2[block] += (1.0 if i == j else 2.0) * comp ** 2
    return [(slice(0, len(family)), f_vals, u_vals, lap_vals, np.sqrt(hs2))]


# fields per block of the sphere scan.  The remainder joins the last block,
# so no block is narrower: every product stays a matrix product, and the last
# block's width agrees with the family's mod 8
_FIELD_BLOCK = 32


def _sphere_scan_arrays(family, grid: QuadratureGrid, m: Sphere, sigma: float):
    """Node values of a sphere family, ``_FIELD_BLOCK`` fields at a time.

    Yields the blocks (fields, f, u, Delta u, |Hess u|_HS) of the torus
    scan, each array (n_nodes, block width).  Only the harmonic tables and
    one block are alive at once.
    """
    lmax = max(ell for u in family for ell, _ in u.terms)
    tables = SphereHarmonicTables(grid, m, lmax)
    bounds = [_FIELD_BLOCK * k for k in range(max(1, len(family) // _FIELD_BLOCK))]
    bounds.append(len(family))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        C = tables.coeff_matrix(family[lo:hi])
        Cu = C / (tables.eigen + sigma)[:, None]
        f_vals = tables.values @ C
        u_vals = tables.values @ Cu
        lap_vals = tables.values @ (tables.eigen[:, None] * Cu)
        # one BLAS product per frame component, each over a strided view of
        # the (n, 2, 2, size) table: nothing is copied, and every product has
        # the shape of the value products above.  One product over all 4n
        # rows made OpenBLAS touch 1.7 MB more of its packing buffer (1568
        # nodes, 200 fields in one block)
        hs2 = np.zeros_like(f_vals)
        for i in range(2):
            for j in range(2):
                comp = tables.hesses[:, i, j, :] @ Cu
                comp *= comp
                hs2 += comp
        yield slice(lo, hi), f_vals, u_vals, lap_vals, np.sqrt(hs2)


def cz_scan(m: ManifoldModel, family: Sequence, p: float, sigma: float,
            family_sizes: Optional[Sequence[int]] = None,
            grid_resolution: Optional[int] = None) -> BoundReport:
    """Hessian-vs-Laplacian norm ratios and resolvent ratios over a family.

    For each field f the scan computes u = (Delta + sigma)^{-1} f exactly
    eigenvalue-wise and reports

    * ``resolvent_ratio`` = ||Hess u||_p / ||f||_p
    * ``czp_ratio``       = ||Hess u||_p / (sigma ||u||_p + ||Delta u||_p)

    using the pointwise Hilbert-Schmidt norm of the Hessian.  "Pass" means
    every ratio is finite and the running maximum changes at most 10%
    between the configured nested family sizes.  For p = 2 the scan also
    verifies the curvature-corrected L2 inequality
    ||Hess u||_2^2 <= (K eps^2 / 2) ||u||_2^2 + (1 + K / (2 eps^2)) ||Delta u||_2^2
    (with K = 0 on these models and eps = 1) and checks the pointwise
    Bochner identity residual on the first 5 fields of the family.

    The Bochner gate is relative: the residual must stay within 1e-8 of
    max(1, the largest node |Hess f|_HS^2 of the checked fields f on the
    residual's nodes), because every term of the identity scales with f^2.

    The scan is exact spectral only: the family must be band-limited
    trigonometric polynomials on a torus or spherical polynomials on the
    unit 2-sphere.

    Memory: on the sphere the scan holds the harmonic tables plus one block
    of 32 fields (the remainder joins the last block), and reduces each block
    to its per-field norms before it takes the next, so its peak does not
    grow with the family.  The torus scan stays one block of all fields: the
    shipped ``configs/czscan_t2_p2.toml`` payload is pinned bit for bit, and a
    column-blocked complex product is not known to round the same.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    kind = _spectral_family_check(family)
    if kind == "torus" and not isinstance(m, Torus):
        raise ValueError("torus family needs a torus model")
    if kind == "sphere" and not (isinstance(m, Sphere) and m.dim == 2
                                 and m.radius == 1.0):
        raise ValueError("sphere family needs the unit 2-sphere")
    if grid_resolution is None:
        grid_resolution = 64 if kind == "torus" else 28
    grid = quadrature_grid(m, grid_resolution)
    if family_sizes is None:
        family_sizes = [max(1, len(family) // 4), len(family)]
    family_sizes = sorted(set(int(n) for n in family_sizes))
    if family_sizes[-1] > len(family):
        raise ValueError("family_sizes exceed the family length")

    def norms(block):
        if math.isinf(p):
            return np.max(np.abs(block), axis=0)
        return np.sum(grid.weights[:, None] * np.abs(block) ** p,
                      axis=0) ** (1.0 / p)

    if kind == "torus":
        blocks = _torus_scan_arrays(family, grid, sigma)
    else:
        blocks = _sphere_scan_arrays(family, grid, m, sigma)
    hess_norms, f_norms, u_norms, lap_norms, hess2, lap2 = (
        np.empty(len(family)) for _ in range(6))
    for cols, f_vals, u_vals, lap_vals, hess_hs in blocks:
        hess_norms[cols] = norms(hess_hs)
        f_norms[cols] = norms(f_vals)
        u_norms[cols] = norms(u_vals)
        lap_norms[cols] = norms(lap_vals)
        if p == 2.0:
            hess2[cols] = np.sum(grid.weights[:, None] * hess_hs ** 2, axis=0)
            lap2[cols] = np.sum(grid.weights[:, None] * lap_vals ** 2, axis=0)
    samples = []
    running_max = []
    max_so_far = 0.0
    K = m.ricci_lower_bound
    eps = 1.0
    for i in range(len(family)):
        res_ratio = hess_norms[i] / f_norms[i]
        czp_ratio = hess_norms[i] / (sigma * u_norms[i] + lap_norms[i])
        row = {"index": i, "resolvent_ratio": float(res_ratio),
               "czp_ratio": float(czp_ratio), "lhs": float(hess_norms[i]),
               "rhs_no_const": float(f_norms[i]), "ratio": float(res_ratio),
               "provenance": "quadrature", "reliable": True}
        if p == 2.0:
            bound = (K * eps ** 2 / 2.0 * u_norms[i] ** 2
                     + (1.0 + K / (2.0 * eps ** 2)) * lap2[i])
            row["l2_bound_ratio"] = float(hess2[i] / bound) if bound > 0 else math.inf
            # flat models: Bochner integrates to equality
            row["hess_over_lap"] = float(math.sqrt(hess2[i] / lap2[i]))
        samples.append(row)
        max_so_far = max(max_so_far, float(res_ratio))
        if (i + 1) in family_sizes:
            running_max.append((i + 1, max_so_far))
    bochner_max = hess_peak = 0.0
    if p == 2.0:
        checked = list(family)[:5]
        if kind == "torus":
            terms = [_torus_bochner_terms(u) for u in checked]
        else:
            terms = _sphere_bochner_terms(checked, grid, m)
        bochner_max = max([0.0, *(res for res, _ in terms)])
        hess_peak = max(peak for _, peak in terms)
    finite = all(math.isfinite(s["resolvent_ratio"]) for s in samples)
    growth_ok = True
    for (n1, m1), (n2, m2) in zip(running_max[:-1], running_max[1:]):
        if not _stable(m1, m2):
            growth_ok = False
    passed = finite and growth_ok and (
        p != 2.0 or bochner_max <= 1e-8 * max(1.0, hess_peak))
    notes = (f"p={p:g} sigma={sigma:g} family={len(family)} "
             f"running_max={[(n, round(v, 6)) for n, v in running_max]}")
    if p == 2.0:
        notes += f" bochner_residual={bochner_max:.3e}"
    return BoundReport("cz-resolvent-scan", samples,
                       float(max_so_far), bool(passed), notes=notes,
                       aux_constants={"running_max": dict(running_max),
                                      "bochner_residual": bochner_max})
