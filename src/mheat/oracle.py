"""Closed-form and spectral heat kernels on model spaces, with quadrature.

Kernels follow the positive-Laplacian semigroup convention: the flat-space
density is ``(4 pi t)^{-d/2} exp(-rho^2 / 4t)`` and spectral sums decay like
``exp(-lambda t)`` with lambda the positive eigenvalue, matching the walk in
:mod:`mheat.transport`.

Implemented kernels:

* euclidean: exact Gaussian with analytic derivatives
* torus: wrapped Gaussian, evaluated as a product over axes of 1-d image
  sums theta(D_a) (and theta', theta'' for the derivatives) over the
  reduced difference |D_a| <= pi, truncated where the first omitted image
  is below e^-45 of the nearest kept one; 2k + 1 images per axis instead
  of (2k + 1)^d
* sphere (d = 2): Legendre spectral sum with exact derivatives through the
  ambient pairing u = <x, y>
* hyperbolic d = 3: elementary closed form
* hyperbolic d = 2: fixed-rule quadrature of the classical integral
  representation; rho and t derivatives by Richardson finite differences

Each model has one kernel core, evaluated on broadcast (x, y) pairs with an
ambient Hessian.  ``kernel_on_grid`` contracts it with the frame at each x;
``kernel_hess_quadrature`` sums it over many sources y in blocked pair
batches before contracting, which turns a kernel quadrature
sum_j c_j Hess_x p_t(x, y_j) into one blocked pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import (
    Euclidean,
    Hyperbolic,
    ManifoldModel,
    Point,
    Sphere,
    TangentVector,
    Torus,
)

__all__ = [
    "KernelEval",
    "QuadratureGrid",
    "OracleError",
    "heat_kernel",
    "kernel_on_grid",
    "kernel_hess_quadrature",
    "quadrature_grid",
    "polar_grid",
    "lp_norm",
]


class OracleError(RuntimeError):
    """Raised when a spectral or quadrature evaluation cannot be trusted."""


@dataclass
class KernelEval:
    """Heat kernel value and derivatives at (x, y, t).

    ``laplacian_x`` carries the positive-operator sign, so the heat equation
    reads ``dp_dt = -laplacian_x``.  ``hess_x`` holds frame components.
    """

    p: float
    dp_dt: float
    grad_x: TangentVector
    laplacian_x: float
    hess_x: np.ndarray


@dataclass
class QuadratureGrid:
    """Nodes and positive weights integrating against the volume measure."""

    nodes: np.ndarray
    weights: np.ndarray
    resolution: tuple
    model_kind: str
    truncation_radius: Optional[float] = None
    _frames: Optional[np.ndarray] = field(default=None, repr=False)

    def frames(self, m: ManifoldModel) -> np.ndarray:
        if self._frames is None:
            self._frames = m.frame(self.nodes)
        return self._frames

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * values))


# ---------------------------------------------------------------------------
# per-model kernel cores
#
# Each core takes broadcast (x, y) pairs, arrays of shape (..., ambient),
# and returns the kernel fields with the Hessian as an ambient
# (..., ambient, ambient) matrix; callers contract it with tangent frames.
# ``full=False`` returns only the Hessian (and the sphere's reliability
# flag), which is all the source-batched quadrature needs.

def _euclidean_fields(m: Euclidean, X, Y, t, full=True):
    d = m.dim
    D = X - Y
    rho2 = np.sum(D * D, axis=-1)
    p = (4.0 * math.pi * t) ** (-d / 2) * np.exp(-rho2 / (4.0 * t))
    hess = p[..., None, None] * (D[..., :, None] * D[..., None, :] / (4.0 * t * t)
                                 - np.eye(d) / (2.0 * t))
    if not full:
        return {"hess": hess}
    grad = -p[..., None] * D / (2.0 * t)
    lap_geo = p * (rho2 / (4.0 * t * t) - d / (2.0 * t))
    return {"p": p, "dp_dt": lap_geo, "grad": grad, "lap": -lap_geo, "hess": hess}


_TWO_PI = 2.0 * math.pi
# every omitted image is at most e^-45 (about 3e-20) of the nearest kept one
_IMAGE_DECAY = 45.0


def _torus_images(t: float) -> np.ndarray:
    """Per-axis image shifts 2 pi k, |k| <= K, of the wrapped Gaussian.

    The count is relative to the value, not to the peak: for a reduced
    difference |D| <= pi the nearest kept image is within pi of 0 and the
    first omitted one is at least (2K + 1) pi away, so its Gaussian factor
    is at most e^{-pi^2 K (K + 1) / t} of the nearest kept one's.  K is the
    smallest k >= 1 with pi^2 k (k + 1) / t >= 45.  The rule is per axis
    and independent of the dimension, since the kernel is a product of
    per-axis sums.
    """
    k = 1
    while math.pi ** 2 * k * (k + 1) < _IMAGE_DECAY * t:
        k += 1
    return np.arange(-k, k + 1) * _TWO_PI


def _theta(D, t, shifts):
    """1-d wrapped Gaussian theta(D) and its first two D-derivatives.

    theta is 2 pi periodic, so D is first reduced to D - 2 pi rint(D / 2 pi),
    which lies in [-pi, pi] for any finite input; ``shifts`` from
    :func:`_torus_images` then reach every image that can change a double.
    Each image E = D + s updates the sums of g, g E and g E^2 with
    g = exp(-E^2 / 4t); theta, theta' and theta'' are formed from them once.
    """
    D = D - _TWO_PI * np.rint(D / _TWO_PI)
    s0 = np.zeros_like(D)
    s1 = np.zeros_like(D)
    s2 = np.zeros_like(D)
    E = np.empty_like(D)
    g = np.empty_like(D)
    gE = np.empty_like(D)
    for s in shifts:
        np.add(D, s, out=E)
        np.multiply(E, E, out=g)
        g /= -4.0 * t
        np.exp(g, out=g)
        s0 += g
        np.multiply(g, E, out=gE)
        s1 += gE
        gE *= E
        s2 += gE
    c = (4.0 * math.pi * t) ** -0.5
    s2 *= c / (4.0 * t * t)
    s2 -= (c / (2.0 * t)) * s0
    s1 *= -c / (2.0 * t)
    s0 *= c
    return s0, s1, s2


def _torus_fields(m: Torus, X, Y, t, full=True):
    # the wrapped Gaussian is a product over axes of 1-d image sums theta, so
    # every field is a product of per-axis theta, theta' or theta'' factors
    d = m.dim
    D = X - Y
    shifts = _torus_images(t)
    derivs = list(zip(*(_theta(D[..., a], t, shifts) for a in range(d))))

    def field(*raised):
        # product over axes a of theta(D_a), differentiated once per
        # occurrence of a in ``raised``
        return math.prod(derivs[raised.count(a)][a] for a in range(d))

    hess = np.empty(D.shape[:-1] + (d, d))
    for a in range(d):
        for b in range(a, d):
            hess[..., a, b] = field(a, b)
            if b != a:
                hess[..., b, a] = hess[..., a, b]
    if not full:
        return {"hess": hess}
    grad = np.stack([field(a) for a in range(d)], axis=-1)
    lap_geo = np.einsum("...ii->...", hess)
    return {"p": field(), "dp_dt": lap_geo, "grad": grad, "lap": -lap_geo,
            "hess": hess}


def _legendre_triples(c: np.ndarray, coeffs: np.ndarray):
    """Sums of a_l P_l(c), a_l P_l'(c), a_l P_l''(c) by stable recurrences."""
    lmax = len(coeffs) - 1
    Pm2 = np.ones_like(c)
    Pm1 = c.copy()
    dPm2 = np.zeros_like(c)
    dPm1 = np.ones_like(c)
    d2Pm2 = np.zeros_like(c)
    d2Pm1 = np.zeros_like(c)
    s0 = coeffs[0] * Pm2
    s1 = np.zeros_like(c)
    s2 = np.zeros_like(c)
    abs0 = np.abs(coeffs[0]) * np.abs(Pm2)
    if lmax >= 1:
        s0 = s0 + coeffs[1] * Pm1
        s1 = s1 + coeffs[1] * dPm1
        abs0 = abs0 + abs(coeffs[1]) * np.abs(Pm1)
    for ell in range(1, lmax):
        P = ((2 * ell + 1) * c * Pm1 - ell * Pm2) / (ell + 1)
        dP = dPm2 + (2 * ell + 1) * Pm1
        d2P = d2Pm2 + (2 * ell + 1) * dPm1
        a = coeffs[ell + 1]
        s0 = s0 + a * P
        s1 = s1 + a * dP
        s2 = s2 + a * d2P
        abs0 = abs0 + abs(a) * np.abs(P)
        Pm2, Pm1 = Pm1, P
        dPm2, dPm1 = dPm1, dP
        d2Pm2, d2Pm1 = d2Pm1, d2P
    return s0, s1, s2, abs0


def _sphere_coeffs(m: Sphere, t: float):
    a2 = m.radius ** 2
    if t / a2 < 1e-4:
        raise OracleError(
            f"sphere spectral sum truncation unreliable at t = {t:g} "
            "(need t / a^2 >= 1e-4)")
    coeffs = []
    rates = []
    ell = 0
    while True:
        lam = ell * (ell + 1) / a2
        c = (2 * ell + 1) / (4.0 * math.pi * a2) * math.exp(-lam * t)
        coeffs.append(c)
        rates.append(lam)
        if ell > 3 and c < 1e-18 * (1.0 / (4.0 * math.pi * t)):
            break
        if ell > 800:
            raise OracleError("sphere spectral sum exceeded the term budget")
        ell += 1
    return np.array(coeffs), np.array(rates)


def _sphere_fields(m: Sphere, X, Y, t, full=True):
    if m.dim != 2:
        raise OracleError("sphere kernel oracle implemented for d = 2 only")
    a = m.radius
    a2 = a * a
    coeffs, rates = _sphere_coeffs(m, t)
    u = np.sum(X * Y, axis=-1)  # ambient pairing, u = a^2 cos(rho / a)
    cgrid = np.clip(u / a2, -1.0, 1.0)
    p, dpdc, d2pdc2, absum = _legendre_triples(cgrid, coeffs)
    # near the antipode at small t the alternating sum cancels below float
    # precision; values there are correct to ~1e-16 * absum absolutely but
    # carry no relative accuracy, so flag them instead of failing the batch
    reliable = np.abs(p) >= 1e-12 * absum
    p_u = dpdc / a2
    p_uu = d2pdc2 / a2 ** 2
    # ambient form p_uu y y^T - (p_u u / a^2) I; contracting it with an
    # orthonormal tangent frame F gives the frame Hessian since F F^T = I
    hess = (p_uu[..., None, None] * Y[..., :, None] * Y[..., None, :]
            - (p_u * u / a2)[..., None, None] * np.eye(3))
    if not full:
        return {"hess": hess, "reliable": reliable}
    pt = -_legendre_triples(cgrid, coeffs * rates)[0]
    grad = p_u[..., None] * (Y - (u / a2)[..., None] * X)
    lap_geo = p_uu * (a2 - u ** 2 / a2) - p_u * u / a2 * m.dim
    return {"p": p, "dp_dt": pt, "grad": grad, "lap": -lap_geo, "hess": hess,
            "reliable": reliable}


# -- hyperbolic cores (unit curvature), scaled for general curvature ---------

def _h3_core(rho: np.ndarray, t: float):
    """Unit-curvature H^3 kernel and rho/t derivatives, elementary formulas."""
    rho = np.asarray(rho, dtype=float)
    small = rho < 1e-4
    r = np.where(small, 1.0, rho)
    # log-derivative pieces of rho / sinh(rho)
    g1 = np.where(small, -rho / 3.0 + rho ** 3 / 45.0, 1.0 / r - 1.0 / np.tanh(r))
    g2 = np.where(small, -1.0 / 3.0 + rho ** 2 / 15.0,
                  -1.0 / r ** 2 + 1.0 / np.sinh(r) ** 2)
    ratio = np.where(small, 1.0 - rho ** 2 / 6.0, r / np.sinh(r))
    p = (4.0 * math.pi * t) ** (-1.5) * ratio * np.exp(-t - rho ** 2 / (4.0 * t))
    dp = p * (g1 - rho / (2.0 * t))
    d2p = p * ((g1 - rho / (2.0 * t)) ** 2 + g2 - 1.0 / (2.0 * t))
    pt = p * (-1.5 / t - 1.0 + rho ** 2 / (4.0 * t * t))
    return p, dp, d2p, pt


_H2_PANELS = 6
_H2_NODES = 40
# rho values per pass of the rule; its (rows, nodes) temporaries stay near 1 MB
_H2_ROWS = 4096


def _h2_core_p(rho: np.ndarray, t: float) -> np.ndarray:
    """Unit-curvature H^2 kernel via the integral representation.

    After substituting s = rho + u^2 the integrand is smooth including the
    on-diagonal limit; a fixed composite Gauss-Legendre rule keeps the value
    smooth in (rho, t) so finite differences of it are well behaved.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    width = math.sqrt(170.0 * t) + 3.0 * math.sqrt(t) + 1.0
    umax = math.sqrt(width)
    nodes, weights = leggauss(_H2_NODES)
    total = np.zeros_like(rho)
    edges = np.linspace(0.0, umax, _H2_PANELS + 1)
    for i0 in range(0, len(rho), _H2_ROWS):
        r = rho[i0:i0 + _H2_ROWS]
        for lo, hi in zip(edges[:-1], edges[1:]):
            u = 0.5 * (hi - lo) * (nodes + 1.0) + lo
            w = 0.5 * (hi - lo) * weights
            s = r[:, None] + u[None, :] ** 2
            diff = np.cosh(s) - np.cosh(r)[:, None]
            # cosh(rho + u^2) - cosh(rho), stable for small u
            tiny = diff < 1e-13
            safe = np.where(tiny, 1.0, diff)
            expand = (np.sinh(r)[:, None] * u[None, :] ** 2
                      + 0.5 * np.cosh(r)[:, None] * u[None, :] ** 4)
            root = np.sqrt(np.where(tiny, np.maximum(expand, 1e-300), safe))
            integrand = 2.0 * u[None, :] * s * np.exp(-s ** 2 / (4.0 * t)) / root
            total[i0:i0 + _H2_ROWS] += integrand @ w
    pref = math.sqrt(2.0) * (4.0 * math.pi * t) ** (-1.5) * math.exp(-t / 4.0)
    return pref * total


def _hyperbolic_radial(m: Hyperbolic, rho: np.ndarray, t: float, full=True):
    """p, p', p'' in rho and dp/dt of the H^d kernel (``dp_dt`` is None when
    ``full`` is false), scaled from the unit-curvature cores.

    H^3 uses the closed form; H^2 differentiates ``_h2_core_p`` by Richardson
    central differences, in rho at steps 1e-3 and 5e-4 (below rho = 1e-3,
    the even expansion about 0) and in t at 1e-3 * max(t, 0.1) and half
    that.
    """
    a = m.scale
    if m.dim == 3:
        p, dp, d2p, pt = _h3_core(a * rho, a * a * t)
        return a ** 3 * p, a ** 4 * dp, a ** 5 * d2p, a ** 5 * pt
    if m.dim != 2:
        raise OracleError("hyperbolic kernel oracle implemented for d in {2, 3}")

    def pfun(r, s=t):
        return a ** 2 * _h2_core_p(a * r.ravel(), a * a * s).reshape(r.shape)

    hr = 1e-3
    p = pfun(rho)
    # |.| keeps the radii below hr, whose differences are replaced below,
    # nonnegative
    fwd = {h: pfun(rho + h) for h in (hr, hr / 2)}
    bwd = {h: pfun(np.abs(rho - h)) for h in (hr, hr / 2)}

    def richardson(rule, step):
        return (4.0 * rule(step / 2) - rule(step)) / 3.0

    dp = richardson(lambda h: (fwd[h] - bwd[h]) / (2 * h), hr)
    d2p = richardson(lambda h: (fwd[h] - 2 * p + bwd[h]) / h ** 2, hr)
    # the fixed rule is not smooth in rho near 0, which these differences
    # amplify, so below hr take the even expansion p' = p''(0) rho, p'' = p''(0)
    zero = np.zeros(1)
    d2p0 = richardson(lambda h: 2.0 * (pfun(zero + h) - pfun(zero)) / h ** 2, hr)
    near = rho < hr
    dp = np.where(near, d2p0 * rho, dp)
    d2p = np.where(near, d2p0, d2p)
    if not full:
        return p, dp, d2p, None
    pt = richardson(lambda h: (pfun(rho, t + h) - pfun(rho, t - h)) / (2 * h),
                    1e-3 * max(t, 0.1))
    return p, dp, d2p, pt


def _hyperbolic_fields(m: Hyperbolic, X, Y, t, full=True):
    a = m.scale
    # W = y - (y_t / x_t) x with its time coordinate zeroed has the tangent
    # part of y at x and a Euclidean norm of at most that part's length,
    # sinh(a rho) / a; so W W^T contracts with the O(|x|) frames of far
    # points without the cancellation that y y^T meets there
    W = Y - (Y[..., -1:] / X[..., -1:]) * X
    W[..., -1] = 0.0
    k = np.sum(W * X, axis=-1)  # <W, x>_L
    tau = np.sqrt(np.sum(W * W, axis=-1) + (a * k) ** 2)  # sinh(a rho) / a
    rho = np.arcsinh(a * tau) / a
    p, dp, d2p, pt = _hyperbolic_radial(m, rho, t, full)
    # Hess = p'' drho drho + a coth(a rho) p' (g - drho drho) with
    # drho = -(W + a^2 k x) / tau; a tangent frame F has F S x = 0,
    # F S W = F W and F S F^T = I, so the ambient form below contracts to
    # it.  At rho -> 0 it tends to p'' g.
    small = rho < 1e-8
    s = np.where(small, 1.0, tau)
    coth = np.sqrt(1.0 + (a * s) ** 2) / s  # a coth(a rho)
    radial = np.where(small, 0.0, (d2p - coth * dp) / s ** 2)
    tangential = np.where(small, d2p, coth * dp)
    hess = (radial[..., None, None] * W[..., :, None] * W[..., None, :]
            + tangential[..., None, None] * np.diag(m.metric_sign()))
    if not full:
        return {"hess": hess}
    slope = np.where(small, 0.0, -dp / s)
    grad = slope[..., None] * (W + (a * a * k)[..., None] * X)
    lap_geo = d2p + (m.dim - 1) * tangential
    return {"p": p, "dp_dt": pt, "grad": grad, "lap": -lap_geo, "hess": hess}


_AMBIENT_CORES = ((Euclidean, _euclidean_fields), (Torus, _torus_fields),
                  (Sphere, _sphere_fields), (Hyperbolic, _hyperbolic_fields))

# at most this many (x, y) pairs per block of the source-batched quadrature;
# the per-pair temporaries of one block then stay within a few MB
_PAIR_BLOCK = 1 << 15


def _ambient_core(m: ManifoldModel):
    for cls, core in _AMBIENT_CORES:
        if isinstance(m, cls):
            return core
    raise OracleError(f"no kernel oracle for {m.describe()}")


def _frame_contract(frames: np.ndarray, hess_amb: np.ndarray) -> np.ndarray:
    return frames @ hess_amb @ frames.transpose(0, 2, 1)


def kernel_on_grid(m: ManifoldModel, X: np.ndarray, y: np.ndarray, t: float,
                   frames: Optional[np.ndarray] = None) -> dict:
    """Kernel fields p, dp_dt, grad, lap, hess for a batch of x at fixed y."""
    if not (t > 0):
        raise ValueError("t must be positive")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if frames is None:
        frames = m.frame(X)
    out = _ambient_core(m)(m, X, y[None, :], t)
    out["hess"] = _frame_contract(frames, out["hess"])
    return out


def kernel_hess_quadrature(m: ManifoldModel, X: np.ndarray, Y: np.ndarray,
                           coef: np.ndarray, t: float,
                           frames: Optional[np.ndarray] = None):
    """Frame components of sum_j coef_j Hess_x p_t(x, Y_j) at every target x.

    Returns ``(hess, reliable)``: ``hess`` has shape (nX, d, d) and
    ``reliable[i]`` is false when a pair (X_i, Y_j) with nonzero ``coef_j``
    lost relative accuracy to spectral cancellation (sphere, small t).
    Sources with ``coef_j == 0`` are skipped.  Pairs are evaluated in
    blocks of at most ``_PAIR_BLOCK``; each block's ambient Hessians are
    summed over its sources by one matmul, and the frames are contracted
    once per target at the end.  Every model with a kernel oracle: R^d,
    T^d, S^2, H^2 and H^3.
    """
    if not (t > 0):
        raise ValueError("t must be positive")
    core = _ambient_core(m)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    coef = np.asarray(coef, dtype=float)
    if frames is None:
        frames = m.frame(X)
    keep = coef != 0.0
    Y, coef = Y[keep], coef[keep]
    n, amb = X.shape
    acc = np.zeros((n, amb * amb))
    reliable = np.ones(n, dtype=bool)
    nx = max(1, min(n, _PAIR_BLOCK))
    for i0 in range(0, n, nx):
        Xb = X[i0:i0 + nx, None, :]
        ny = max(1, _PAIR_BLOCK // len(Xb))
        for j0 in range(0, len(Y), ny):
            out = core(m, Xb, Y[None, j0:j0 + ny, :], t, full=False)
            hb = out["hess"]
            acc[i0:i0 + nx] += np.matmul(coef[j0:j0 + ny],
                                         hb.reshape(hb.shape[:2] + (amb * amb,)))
            if "reliable" in out:
                reliable[i0:i0 + nx] &= np.all(out["reliable"], axis=1)
    return _frame_contract(frames, acc.reshape(n, amb, amb)), reliable


def heat_kernel(m: ManifoldModel, x: Point, y: Point, t: float) -> KernelEval:
    """Heat kernel density and derivatives at a single (x, y, t)."""
    X = np.asarray(x.coords)[None, :]
    fr = m.frame(X)
    out = kernel_on_grid(m, X, np.asarray(y.coords), t, frames=fr)
    if "reliable" in out and not bool(out["reliable"][0]):
        raise OracleError(
            f"spectral sum lost relative accuracy to cancellation at t = {t:g} "
            "(point too close to the antipode for this t)")
    return KernelEval(
        p=float(out["p"][0]),
        dp_dt=float(out["dp_dt"][0]),
        grad_x=TangentVector(x, out["grad"][0]),
        laplacian_x=float(out["lap"][0]),
        hess_x=out["hess"][0],
    )


# ---------------------------------------------------------------------------
# quadrature grids

def quadrature_grid(m: ManifoldModel, resolution: int) -> QuadratureGrid:
    """Deterministic grid integrating against the Riemannian volume measure.

    * torus: uniform product grid, exact for trigonometric polynomials of
      degree < resolution per axis
    * sphere (d = 2): Gauss-Legendre x uniform azimuth, exact for spherical
      polynomials up to degree 2 * resolution - 1
    * euclidean: Gauss-Legendre box [-10, 10]^d (caller owns the tail
      bound for its integrand)
    * hyperbolic (d = 2): geodesic polar grid on the ball of fixed radius
      12 about the base point (OracleError when a * 12 leaves hyperboloid
      coordinates too inexact).  Its farthest nodes sit at x0 = 7.3e4 for
      a = 1, where coordinates carry ~eps x0^2 of round-off; the kernel
      core integrates over them, but a walk started there diverges
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if isinstance(m, Torus):
        ax = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
        grids = np.meshgrid(*([ax] * m.dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=1)
        w = np.full(nodes.shape[0], (2.0 * math.pi / resolution) ** m.dim)
        return QuadratureGrid(nodes, w, (resolution,), m.kind)
    if isinstance(m, Sphere):
        if m.dim != 2:
            raise OracleError("sphere quadrature implemented for d = 2 only")
        a = m.radius
        cn, cw = leggauss(resolution)
        nphi = 2 * resolution
        phi = np.linspace(0.0, 2.0 * math.pi, nphi, endpoint=False)
        C, PHI = np.meshgrid(cn, phi, indexing="ij")
        S = np.sqrt(1.0 - C ** 2)
        nodes = a * np.stack([S * np.cos(PHI), S * np.sin(PHI), C], axis=-1)
        nodes = nodes.reshape(-1, 3)
        w = (a * a * 2.0 * math.pi / nphi) * np.repeat(cw, nphi)
        return QuadratureGrid(nodes, w, (resolution, nphi), m.kind)
    if isinstance(m, Euclidean):
        L = 10.0
        xn, xw = leggauss(resolution)
        xn = L * xn
        xw = L * xw
        grids = np.meshgrid(*([xn] * m.dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=1)
        wgrids = np.meshgrid(*([xw] * m.dim), indexing="ij")
        w = np.ones(nodes.shape[0])
        for g in wgrids:
            w = w * g.ravel()
        return QuadratureGrid(nodes, w, (resolution,) * m.dim, m.kind,
                              truncation_radius=L)
    if isinstance(m, Hyperbolic):
        if m.dim != 2:
            raise OracleError("hyperbolic quadrature implemented for d = 2 only")
        a = m.scale
        R = 12.0
        # coordinates and their round-off grow like e^{aR}; overflow gives NaN
        # nodes, which fail the defect test, so the OracleError is the signal
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            grid = polar_grid(m, m.base_point(), R, resolution, 2 * resolution)
            defect = a * a * float(np.max(m.embedding_defect(grid.nodes)))
        if not defect <= 1e-5:
            raise OracleError(f"H^2 grid leaves the hyperboloid at a*R = {a * R:g} "
                              f"(a^2 * embedding defect {defect:.2g})")
        return grid
    raise OracleError(f"no quadrature grid for {m.describe()}")


def polar_grid(m: ManifoldModel, center: np.ndarray, radius: float,
               n_rad: int, n_ang: int) -> QuadratureGrid:
    """Geodesic polar grid on the ball B(center, radius) of a 2-d model:
    Gauss-Legendre radii, uniform angles, exp map and the polar Jacobian."""
    if m.dim != 2:
        raise ValueError("polar grids implemented for 2-d models")
    rn, rw = leggauss(n_rad)
    rad = 0.5 * radius * (rn + 1.0)
    radw = 0.5 * radius * rw
    phi = np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False)
    F = m.frame(center[None, :])[0]
    RAD, PHI = np.meshgrid(rad, phi, indexing="ij")
    dirs = (np.cos(PHI)[..., None] * F[0][None, None, :]
            + np.sin(PHI)[..., None] * F[1][None, None, :])
    U = RAD[..., None] * dirs
    X0 = np.broadcast_to(center, U.shape[:-1] + (m.ambient_dim,))
    nodes = m.retract(m.exp(X0.reshape(-1, m.ambient_dim),
                            U.reshape(-1, m.ambient_dim)))
    kappa = m.sectional_curvature
    if kappa == 0.0:
        jac = RAD
    elif kappa > 0:
        sk = math.sqrt(kappa)
        jac = np.sin(sk * RAD) / sk
    else:
        sk = math.sqrt(-kappa)
        jac = np.sinh(sk * RAD) / sk
    w = (jac * radw[:, None] * (2.0 * math.pi / n_ang)).ravel()
    return QuadratureGrid(nodes, w, (n_rad, n_ang), m.kind,
                          truncation_radius=radius)


def lp_norm(grid: QuadratureGrid, values: np.ndarray, p: float) -> float:
    """(integral |f|^p dmu)^{1/p}, or the max for p = inf."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite on the grid")
    if math.isinf(p):
        return float(np.max(np.abs(values)))
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    return float(np.sum(grid.weights * np.abs(values) ** p) ** (1.0 / p))
