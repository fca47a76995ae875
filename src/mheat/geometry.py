"""Model Riemannian manifolds with exactly known geometry.

Four constant-curvature model spaces are supported, all realized through an
ambient embedding so that retraction is a cheap renormalization:

* ``euclidean(d)`` -- flat space, ambient dimension d
* ``torus(d)``     -- flat torus with side length 2*pi, periodic chart
* ``sphere(d, a)`` -- round sphere of radius a embedded in R^{d+1}
* ``hyperbolic(d, a)`` -- hyperboloid of curvature -a^2 in Minkowski R^{d,1}

Sign convention: the Laplacian reported by :class:`ScalarField` is the
*positive* operator (minus the trace of the geometric Hessian), so heat
evolution is ``u_t = -Lap u`` and eigenfunctions decay like ``exp(-lambda t)``.
The geometric (negative) Laplace-Beltrami operator is written ``-laplacian``
throughout.

All array-level functions are vectorized over a leading batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma as gamma_fn

__all__ = [
    "ManifoldModel",
    "Euclidean",
    "Torus",
    "Sphere",
    "Hyperbolic",
    "make_manifold",
    "Point",
    "TangentVector",
    "OrthonormalFrame",
    "CurvaturePackage",
    "ScalarField",
    "geodesic_step",
    "curvature_package",
    "distance_volume",
    "commutation_residual",
    "field_consistency_error",
    "unit_sphere_area",
    "unit_ball_volume",
]

def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d."""
    return math.pi ** (d / 2) / gamma_fn(d / 2 + 1)


def unit_sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1} in R^d."""
    return d * unit_ball_volume(d)


# ---------------------------------------------------------------------------
# public value types

@dataclass(frozen=True)
class Point:
    """A manifold point in ambient embedding coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector attached to a base point, in ambient coordinates."""

    base: Point
    comps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "comps", np.asarray(self.comps, dtype=float))


@dataclass(frozen=True)
class OrthonormalFrame:
    """d orthonormal tangent vectors at a base point, rows of ``vectors``."""

    base: Point
    vectors: np.ndarray  # (d, ambient_dim)


@dataclass(frozen=True)
class CurvaturePackage:
    """Curvature tensors at a point, components in a supplied orthonormal frame.

    ``riemann[i, j, k, l] = <R(e_i, e_j) e_k, e_l>`` with the closed form
    ``R(X, Y)Z = kappa (<Y, Z> X - <X, Z> Y)`` on constant-curvature models.
    ``r_opnorm`` is the supremum over unit pairs (v1, v2) of the
    Hilbert-Schmidt norm of the operator ``R(. , v1, v2, .)``.
    """

    riemann: np.ndarray          # (d, d, d, d)
    ricci: np.ndarray            # (d, d)
    ricci_sharp_grad: np.ndarray  # (d, d, d), components of grad Ric#
    dstar_r: np.ndarray          # (d, d, d), components of d*R
    r_opnorm: float


@dataclass
class ScalarField:
    """Closed-form test function with exact derivative oracles.

    The callables are vectorized: ``eval_fn(X)`` maps (n, ambient) to (n,);
    ``grad_fn(X)`` returns ambient representations of the tangent gradient;
    ``hess_fn(X, F)`` returns (n, d, d) frame components for frames
    ``F`` of shape (n, d, ambient); ``laplacian_fn(X)`` returns the
    positive-operator Laplacian (= minus the trace of ``hess_fn``).
    ``grad_fn``/``hess_fn``/``laplacian_fn`` may be ``None`` for fields used
    only through point evaluation.
    """

    name: str
    eval_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    laplacian_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_radius: float = math.inf

    # Point-level convenience API
    def eval(self, x: Point) -> float:
        return float(self.eval_fn(np.asarray(x.coords)[None, :])[0])

    def grad(self, x: Point) -> TangentVector:
        if self.grad_fn is None:
            raise ValueError(f"field {self.name!r} has no gradient oracle")
        return TangentVector(x, self.grad_fn(np.asarray(x.coords)[None, :])[0])

    def hess(self, x: Point, frame: OrthonormalFrame) -> np.ndarray:
        if self.hess_fn is None:
            raise ValueError(f"field {self.name!r} has no Hessian oracle")
        return self.hess_fn(np.asarray(x.coords)[None, :], frame.vectors[None, :, :])[0]

    def laplacian(self, x: Point) -> float:
        if self.laplacian_fn is None:
            raise ValueError(f"field {self.name!r} has no Laplacian oracle")
        return float(self.laplacian_fn(np.asarray(x.coords)[None, :])[0])

    @property
    def has_oracles(self) -> bool:
        return (self.grad_fn is not None and self.hess_fn is not None
                and self.laplacian_fn is not None)


# ---------------------------------------------------------------------------
# coordinate-major walk kernels: points (ambient, n), frames (d, ambient, n),
# increments (d, n); every reduction runs over a short leading axis as a sum
# of whole rows, so each path's arithmetic is independent of the batch

def _frame_combination(F: np.ndarray, dB: np.ndarray) -> np.ndarray:
    """V = sum_i dB_i F_i, shape (ambient, n)."""
    V = dB[0] * F[0]
    for i in range(1, len(dB)):
        V += dB[i] * F[i]
    return V


def _column_sq(V: np.ndarray) -> np.ndarray:
    """Euclidean squared norm of each column of V, shape (n,)."""
    acc = V[0] * V[0]
    for j in range(1, len(V)):
        acc += V[j] * V[j]
    return acc


def _gram_schmidt_frames(cand: np.ndarray, d: int, sign: np.ndarray) -> np.ndarray:
    """Orthonormal frames from candidate vectors, batched over points.

    ``cand`` (n, k, ambient) holds each point's candidates in the order they
    are tried and ``sign`` the diagonal of the ambient form.  Each candidate
    is reduced against the vectors already kept (modified Gram-Schmidt) and
    kept, normalized, when its squared norm exceeds 1e-16 (norm above 1e-8),
    until d are kept.  Returns (n, d, ambient).
    """
    n = cand.shape[0]
    out = np.zeros((n, d, cand.shape[2]))
    kept = np.zeros(n, dtype=int)
    for j in range(cand.shape[1]):
        if np.all(kept == d):
            break
        v = cand[:, j].copy()
        # slots no point has filled yet are zero and would subtract nothing
        for b in range(kept.max()):
            v -= np.sum(v * sign * out[:, b], axis=1)[:, None] * out[:, b]
        nv2 = np.sum(sign * v * v, axis=1)
        take = np.flatnonzero((nv2 > 1e-16) & (kept < d))
        out[take, kept[take]] = v[take] / np.sqrt(nv2[take])[:, None]
        kept[take] += 1
    return out


def _rank_one_move(P, F, dB, V, s, c, b, g):
    """Exact geodesic move of P along V = s u, and the transported frames.

    The new point is ``c P + b u`` and the transported unit direction is
    ``u_s = g P + c u``; directions orthogonal to u are unchanged.  So each
    frame vector F_i gains ``<F_i, u> (u_s - u)``, and ``<F_i, u> = dB_i / s``
    because the frame is orthonormal and ``V = sum_j dB_j F_j``: the
    transport is one rank-one update of the whole frame.  Zero steps
    (``s < 1e-300``) divide by 1 instead of s: there ``c = 1`` and b, g, V
    vanish, so point and frame stay put.
    """
    s = np.where(s < 1e-300, 1.0, s)
    u = V / s
    Pn = c * P
    Pn += b * u
    du = g * P
    du += (c - 1.0) * u
    return Pn, F + (dB / s)[:, None, :] * du


# ---------------------------------------------------------------------------
# manifold models

class ManifoldModel:
    """Base class; concrete models implement the exact array-level geometry.

    Attributes
    ----------
    kind : str
    dim : int
        Intrinsic dimension d.
    ambient_dim : int
    sectional_curvature : float
        The constant kappa.
    ricci_lower_bound : float
        K >= 0 with Ric >= -K; equality holds on hyperbolic models.
    """

    kind: str
    dim: int
    ambient_dim: int
    sectional_curvature: float
    ricci_lower_bound: float

    # -- embedding ---------------------------------------------------------
    def retract(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def embedding_defect(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def metric_dot(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Riemannian inner product of ambient tangent representatives."""
        return np.sum(U * V, axis=-1)

    def metric_sign(self) -> np.ndarray:
        """Diagonal of the ambient bilinear form (Minkowski-aware pairing)."""
        s = np.ones(self.ambient_dim)
        if self.kind == "hyperbolic":
            s[-1] = -1.0
        return s

    def project_tangent(self, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def tangency_defect(self, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        return np.linalg.norm(U - self.project_tangent(X, U), axis=-1)

    # -- geodesic calculus (exact on model spaces) --------------------------
    def exp(self, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def transport(self, X: np.ndarray, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Parallel transport of W along the geodesic s -> exp_X(s U), s in [0, 1]."""
        raise NotImplementedError

    def distance(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def frame(self, X: np.ndarray) -> np.ndarray:
        """A deterministic orthonormal tangent frame, shape (n, d, ambient)."""
        raise NotImplementedError

    def walk_step(self, P: np.ndarray, F: np.ndarray, dB: np.ndarray):
        """One geodesic-walk move with its frame transport, coordinate major.

        ``P`` (ambient, n) are points, ``F`` (d, ambient, n) orthonormal
        frames at them and ``dB`` (d, n) frame-coordinate increments.  Moves
        each point along ``exp(V)`` with ``V = sum_i dB_i F_i``, transports
        its frame parallel along that geodesic and retracts; returns the
        new ``(P, F)``.  Equals ``retract(exp(X, V))`` and per-vector
        ``transport`` up to round-off.
        """
        raise NotImplementedError

    # -- measure -----------------------------------------------------------
    def ball_volume(self, r: float) -> float:
        """Volume of a geodesic ball (homogeneous spaces: center independent)."""
        raise NotImplementedError

    # -- misc ----------------------------------------------------------------
    def base_point(self) -> np.ndarray:
        raise NotImplementedError

    def random_points(self, rng: np.random.Generator, n: int, spread: float = 1.0) -> np.ndarray:
        raise NotImplementedError

    def curvature_opnorm(self) -> float:
        """|R|(x), constant on model spaces: |kappa| * sqrt(d - 1)."""
        if self.dim < 2:
            return 0.0
        return abs(self.sectional_curvature) * math.sqrt(self.dim - 1)

    def describe(self) -> str:
        return f"{self.kind}(d={self.dim})"


class Euclidean(ManifoldModel):
    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.kind = "euclidean"
        self.dim = dim
        self.ambient_dim = dim
        self.sectional_curvature = 0.0
        self.ricci_lower_bound = 0.0

    def retract(self, X):
        return X

    def embedding_defect(self, X):
        return np.zeros(X.shape[:-1])

    def project_tangent(self, X, U):
        return U

    def exp(self, X, U):
        return X + U

    def log(self, X, Y):
        return Y - X

    def transport(self, X, U, W):
        return W

    def distance(self, X, Y):
        return np.linalg.norm(Y - X, axis=-1)

    def frame(self, X):
        n = X.shape[0]
        return np.broadcast_to(np.eye(self.dim), (n, self.dim, self.dim)).copy()

    def walk_step(self, P, F, dB):
        return P + _frame_combination(F, dB), F

    def ball_volume(self, r):
        return unit_ball_volume(self.dim) * r ** self.dim

    def base_point(self):
        return np.zeros(self.dim)

    def random_points(self, rng, n, spread=1.0):
        return spread * rng.standard_normal((n, self.dim))


class Torus(ManifoldModel):
    """Flat torus (R / 2 pi Z)^d with the quotient metric."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.kind = "torus"
        self.dim = dim
        self.ambient_dim = dim
        self.sectional_curvature = 0.0
        self.ricci_lower_bound = 0.0

    def retract(self, X):
        return np.mod(X, 2.0 * math.pi)

    def embedding_defect(self, X):
        return np.zeros(X.shape[:-1])

    def project_tangent(self, X, U):
        return U

    def exp(self, X, U):
        return self.retract(X + U)

    def wrap(self, D):
        """Reduce coordinate differences into [-pi, pi)."""
        return (D + math.pi) % (2.0 * math.pi) - math.pi

    def log(self, X, Y):
        return self.wrap(Y - X)

    def transport(self, X, U, W):
        return W

    def distance(self, X, Y):
        return np.linalg.norm(self.wrap(Y - X), axis=-1)

    def frame(self, X):
        n = X.shape[0]
        return np.broadcast_to(np.eye(self.dim), (n, self.dim, self.dim)).copy()

    def walk_step(self, P, F, dB):
        return self.retract(P + _frame_combination(F, dB)), F

    def ball_volume(self, r):
        d = self.dim
        if r <= 0:
            return 0.0
        if d == 1:
            return min(2.0 * r, 2.0 * math.pi)
        if d == 2:
            if r <= math.pi:
                return math.pi * r * r
            if r >= math.pi * math.sqrt(2.0):
                return (2.0 * math.pi) ** 2
            # circle/square intersection: remove the four over-hanging segments
            seg = r * r * math.acos(math.pi / r) - math.pi * math.sqrt(r * r - math.pi ** 2)
            return math.pi * r * r - 4.0 * seg
        if d == 3:
            # slice through the d=2 formula
            zmax = min(r, math.pi)
            nodes, weights = leggauss(200)
            z = 0.5 * zmax * (nodes + 1.0)
            w = 0.5 * zmax * weights
            two_d = Torus(2)
            areas = np.array([two_d.ball_volume(math.sqrt(max(r * r - zi * zi, 0.0))) for zi in z])
            return 2.0 * float(np.sum(w * areas))
        raise NotImplementedError("torus ball volumes implemented for d <= 3")

    def base_point(self):
        return np.zeros(self.dim)

    def random_points(self, rng, n, spread=1.0):
        return rng.uniform(0.0, 2.0 * math.pi, size=(n, self.dim))


class Sphere(ManifoldModel):
    """Round sphere of radius a in R^{d+1}; curvature 1/a^2."""

    def __init__(self, dim: int, radius: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.kind = "sphere"
        self.dim = dim
        self.ambient_dim = dim + 1
        self.radius = radius
        self.sectional_curvature = 1.0 / radius ** 2
        self.ricci_lower_bound = 0.0

    def retract(self, X):
        return self.radius * X / np.linalg.norm(X, axis=-1, keepdims=True)

    def embedding_defect(self, X):
        return np.abs(np.linalg.norm(X, axis=-1) - self.radius)

    def project_tangent(self, X, U):
        a2 = self.radius ** 2
        return U - (np.sum(X * U, axis=-1, keepdims=True) / a2) * X

    def exp(self, X, U):
        a = self.radius
        s = np.linalg.norm(U, axis=-1, keepdims=True)
        small = s < 1e-300
        shat = np.where(small, 1.0, s)
        return np.where(
            small, X, np.cos(s / a) * X + a * np.sin(s / a) * (U / shat))

    def log(self, X, Y):
        a = self.radius
        c = np.clip(np.sum(X * Y, axis=-1, keepdims=True) / a ** 2, -1.0, 1.0)
        rho = a * np.arccos(c)
        T = Y - c * X
        nt = np.linalg.norm(T, axis=-1, keepdims=True)
        safe = nt > 1e-14
        return np.where(safe, rho * T / np.where(safe, nt, 1.0), 0.0)

    def transport(self, X, U, W):
        a = self.radius
        s = np.linalg.norm(U, axis=-1, keepdims=True)
        small = (s < 1e-300)
        uhat = U / np.where(small, 1.0, s)
        c = np.sum(W * uhat, axis=-1, keepdims=True)
        uhat_s = -np.sin(s / a) * X / a + np.cos(s / a) * uhat
        out = W + c * (uhat_s - uhat)
        return np.where(small, W, out)

    def walk_step(self, P, F, dB):
        a = self.radius
        V = _frame_combination(F, dB)
        s = np.sqrt(_column_sq(V))
        cs, sn = np.cos(s / a), np.sin(s / a)
        P, F = _rank_one_move(P, F, dB, V, s, cs, a * sn, -sn / a)
        P *= a / np.sqrt(_column_sq(P))
        return P, F

    def distance(self, X, Y):
        a = self.radius
        c = np.clip(np.sum(X * Y, axis=-1) / a ** 2, -1.0, 1.0)
        return a * np.arccos(c)

    def frame(self, X):
        # project the ambient axes, try them by decreasing projected norm
        # (stable on ties), Gram-Schmidt the first d that stay independent
        normal = X / self.radius
        cand = np.eye(X.shape[1]) - normal[:, :, None] * normal[:, None, :]
        order = np.argsort(-np.linalg.norm(cand, axis=2), axis=1, kind="stable")
        cand = np.take_along_axis(cand, order[:, :, None], axis=1)
        return _gram_schmidt_frames(cand, self.dim, np.ones(X.shape[1]))

    def ball_volume(self, r):
        a = self.radius
        d = self.dim
        if r <= 0:
            return 0.0
        r = min(r, math.pi * a)
        if d == 1:
            return min(2.0 * r, 2.0 * math.pi * a)
        if d == 2:
            return 2.0 * math.pi * a ** 2 * (1.0 - math.cos(r / a))
        nodes, weights = leggauss(200)
        s = 0.5 * r * (nodes + 1.0)
        w = 0.5 * r * weights
        integrand = (a * np.sin(s / a)) ** (d - 1)
        return unit_sphere_area(d) * float(np.sum(w * integrand))

    def base_point(self):
        x = np.zeros(self.ambient_dim)
        x[-1] = self.radius  # north pole
        return x

    def random_points(self, rng, n, spread=1.0):
        g = rng.standard_normal((n, self.ambient_dim))
        return self.retract(g)


class Hyperbolic(ManifoldModel):
    """Hyperboloid model of curvature -a^2 in Minkowski space R^{d,1}.

    Minkowski form <x, y> = sum_i x_i y_i - x_t y_t with the time coordinate
    last; points satisfy <x, x> = -1/a^2 with x_t > 0.
    """

    def __init__(self, dim: int, curvature_scale: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if curvature_scale <= 0:
            raise ValueError("curvature scale must be positive")
        self.kind = "hyperbolic"
        self.dim = dim
        self.ambient_dim = dim + 1
        self.scale = curvature_scale
        self.sectional_curvature = -curvature_scale ** 2
        self.ricci_lower_bound = (dim - 1) * curvature_scale ** 2

    def mdot(self, U, V):
        return np.sum(U[..., :-1] * V[..., :-1], axis=-1) - U[..., -1] * V[..., -1]

    def metric_dot(self, U, V):
        return self.mdot(U, V)

    def retract(self, X):
        a = self.scale
        q = -self.mdot(X, X)
        lam = 1.0 / (a * np.sqrt(q))
        return X * lam[..., None]

    def embedding_defect(self, X):
        return np.abs(self.mdot(X, X) + 1.0 / self.scale ** 2)

    def project_tangent(self, X, U):
        a2 = self.scale ** 2
        return U + a2 * self.mdot(X, U)[..., None] * X

    def exp(self, X, U):
        a = self.scale
        s = np.sqrt(np.maximum(self.mdot(U, U), 0.0))[..., None]
        small = s < 1e-300
        shat = np.where(small, 1.0, s)
        return np.where(
            small, X, np.cosh(a * s) * X + np.sinh(a * s) * (U / (a * shat)))

    def log(self, X, Y):
        a = self.scale
        c = np.maximum(-a ** 2 * self.mdot(X, Y), 1.0)[..., None]
        rho = np.arccosh(c) / a
        T = Y + a ** 2 * self.mdot(X, Y)[..., None] * X
        nt = np.sqrt(np.maximum(self.mdot(T, T), 0.0))[..., None]
        safe = nt > 1e-14
        return np.where(safe, rho * T / np.where(safe, nt, 1.0), 0.0)

    def transport(self, X, U, W):
        a = self.scale
        s = np.sqrt(np.maximum(self.mdot(U, U), 0.0))[..., None]
        small = s < 1e-300
        uhat = U / np.where(small, 1.0, s)
        c = self.mdot(W, uhat)[..., None]
        uhat_s = a * np.sinh(a * s) * X + np.cosh(a * s) * uhat
        out = W + c * (uhat_s - uhat)
        return np.where(small, W, out)

    def walk_step(self, P, F, dB):
        a = self.scale
        V = _frame_combination(F, dB)
        s = np.sqrt(np.maximum(_column_sq(V[:-1]) - V[-1] * V[-1], 0.0))
        ch, sh = np.cosh(a * s), np.sinh(a * s)
        P, F = _rank_one_move(P, F, dB, V, s, ch, sh / a, a * sh)
        P *= 1.0 / (a * np.sqrt(P[-1] * P[-1] - _column_sq(P[:-1])))
        return P, F

    def distance(self, X, Y):
        a = self.scale
        c = np.maximum(-a ** 2 * self.mdot(X, Y), 1.0)
        return np.arccosh(c) / a

    def frame(self, X):
        # ambient axes projected to the tangent space, in axis order,
        # Minkowski Gram-Schmidt of the first d that stay independent
        sign = self.metric_sign()
        cand = np.eye(X.shape[1]) + (self.scale ** 2 * (sign * X))[:, :, None] * X[:, None, :]
        return _gram_schmidt_frames(cand, self.dim, sign)

    def ball_volume(self, r):
        a = self.scale
        d = self.dim
        if r <= 0:
            return 0.0
        if d == 1:
            return 2.0 * r
        if d == 2:
            return 2.0 * math.pi * (math.cosh(a * r) - 1.0) / a ** 2
        if d == 3:
            return 4.0 * math.pi / a ** 2 * (math.sinh(2.0 * a * r) / (4.0 * a) - r / 2.0)
        nodes, weights = leggauss(200)
        s = 0.5 * r * (nodes + 1.0)
        w = 0.5 * r * weights
        integrand = (np.sinh(a * s) / a) ** (d - 1)
        return unit_sphere_area(d) * float(np.sum(w * integrand))

    def base_point(self):
        x = np.zeros(self.ambient_dim)
        x[-1] = 1.0 / self.scale
        return x

    def random_points(self, rng, n, spread=1.0):
        X = np.broadcast_to(self.base_point(), (n, self.ambient_dim)).copy()
        U = np.zeros((n, self.ambient_dim))
        U[:, :-1] = spread * rng.standard_normal((n, self.dim))
        return self.exp(X, self.project_tangent(X, U))


def make_manifold(kind: str, dim: int, radius: float = 1.0,
                  curvature_scale: float = 1.0) -> ManifoldModel:
    """Factory accepting the registry spelling of each model."""
    kind = kind.lower()
    if kind == "euclidean":
        return Euclidean(dim)
    if kind == "torus":
        return Torus(dim)
    if kind == "sphere":
        return Sphere(dim, radius)
    if kind == "hyperbolic":
        return Hyperbolic(dim, curvature_scale)
    raise ValueError(f"unknown manifold kind {kind!r}")


# ---------------------------------------------------------------------------
# operations

def geodesic_step(m: ManifoldModel, x: Point, v: TangentVector, h: float) -> Point:
    """Move from x along the geodesic with initial velocity v for time h.

    Exact exponential map on all model spaces, followed by a retraction that
    re-enforces the embedding constraint against round-off.
    """
    if not (h > 0):
        raise ValueError("step h must be positive")
    comps = np.asarray(v.comps, dtype=float)
    if not np.all(np.isfinite(comps)):
        raise ValueError("velocity must be finite")
    X = np.asarray(x.coords)[None, :]
    U = comps[None, :] * h
    return Point(m.retract(m.exp(X, U))[0])


def _hs_norm_pairs(riemann: np.ndarray, V1: np.ndarray, V2: np.ndarray) -> np.ndarray:
    # M(v1,v2)_{il} = sum_{jk} R[i,j,k,l] v1_j v2_k ; returns |M|_HS per pair
    M = np.einsum("ijkl,pj,pk->pil", riemann, V1, V2)
    return np.sqrt(np.sum(M * M, axis=(1, 2)))


def _r_opnorm(riemann: np.ndarray) -> float:
    d = riemann.shape[0]
    if d == 1:
        return 0.0
    if d == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.Generator(np.random.Philox(key=0))
        dirs = rng.standard_normal((64, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = np.concatenate([dirs, np.eye(d)], axis=0)
    P1 = np.repeat(dirs, len(dirs), axis=0)
    P2 = np.tile(dirs, (len(dirs), 1))
    vals = _hs_norm_pairs(riemann, P1, P2)
    best = int(np.argmax(vals))
    v1, v2 = P1[best].copy(), P2[best].copy()
    # refinement by alternating eigen-maximization: for fixed v1 the squared
    # norm is the quadratic form v2' A(v1) v2, and symmetrically for v2
    for _ in range(8):
        B = np.einsum("ijkl,j->ikl", riemann, v1)
        A = np.einsum("ikl,iml->km", B, B)
        w, vecs = np.linalg.eigh((A + A.T) / 2.0)
        v2 = vecs[:, -1]
        B = np.einsum("ijkl,k->ijl", riemann, v2)
        A = np.einsum("ijl,iml->jm", B, B)
        w, vecs = np.linalg.eigh((A + A.T) / 2.0)
        v1 = vecs[:, -1]
    return float(max(vals[best], _hs_norm_pairs(riemann, v1[None], v2[None])[0]))


def constant_curvature_riemann(d: int, kappa: float) -> np.ndarray:
    """R[i,j,k,l] = kappa (delta_jk delta_il - delta_ik delta_jl)."""
    eye = np.eye(d)
    return kappa * (np.einsum("jk,il->ijkl", eye, eye)
                    - np.einsum("ik,jl->ijkl", eye, eye))


def curvature_package(m: ManifoldModel, x: Point, frame: OrthonormalFrame) -> CurvaturePackage:
    """All curvature data at x in the given frame.

    On the constant-curvature models the covariant derivative quantities
    (grad Ric# and d*R) vanish identically.
    """
    d = m.dim
    kappa = m.sectional_curvature
    riemann = constant_curvature_riemann(d, kappa)
    ricci = (d - 1) * kappa * np.eye(d)
    zeros3 = np.zeros((d, d, d))
    return CurvaturePackage(
        riemann=riemann,
        ricci=ricci,
        ricci_sharp_grad=zeros3,
        dstar_r=zeros3.copy(),
        r_opnorm=_r_opnorm(riemann),
    )


def distance_volume(m: ManifoldModel, x: Point, y: Point, r: float):
    """Geodesic distance rho(x, y), ball volume V(x, r) and V(x, 2r)/V(x, r)."""
    if not (r > 0):
        raise ValueError("radius r must be positive")
    rho = float(m.distance(np.asarray(x.coords)[None, :], np.asarray(y.coords)[None, :])[0])
    vol = m.ball_volume(r)
    vol2 = m.ball_volume(2.0 * r)
    return rho, vol, vol2 / vol


def _frame_at(m: ManifoldModel, x: Point) -> OrthonormalFrame:
    return OrthonormalFrame(x, m.frame(np.asarray(x.coords)[None, :])[0])


def commutation_residual(m: ManifoldModel, f: ScalarField, x: Point,
                         h: float = 1e-3) -> float:
    """Residual of the gradient/Laplacian commutation identity at x.

    Checks ``d(div grad f) = trace grad^2(df) - df(Ric#)`` by central finite
    differences of the field oracles through the exact exponential map; the
    one-form second derivative uses parallel transport of the test direction.
    """
    if not f.has_oracles:
        raise ValueError("commutation residual needs grad/laplacian oracles")
    fr = _frame_at(m, x)
    E = fr.vectors  # (d, amb)
    d = m.dim
    X = np.asarray(x.coords)[None, :]

    def grad_at(P):
        return f.grad_fn(P)

    def lap_geo(P):
        return -f.laplacian_fn(P)  # geometric sign

    kappa = m.sectional_curvature
    ric_scale = (d - 1) * kappa
    g0 = grad_at(X)[0]
    sgn = m.metric_sign()

    worst = 0.0
    for i in range(d):
        ei = E[i]
        # term 1: directional derivative of the geometric Laplacian
        xp = m.retract(m.exp(X, h * ei[None, :]))
        xm = m.retract(m.exp(X, -h * ei[None, :]))
        t1 = (lap_geo(xp)[0] - lap_geo(xm)[0]) / (2.0 * h)

        # term 2: trace of the second covariant derivative of df applied to e_i
        t2 = 0.0
        for j in range(d):
            ej = E[j][None, :]
            yp = m.retract(m.exp(X, h * ej))
            ym = m.retract(m.exp(X, -h * ej))
            eip = m.transport(X, h * ej, ei[None, :])[0]
            eim = m.transport(X, -h * ej, ei[None, :])[0]
            vp = float(np.dot(grad_at(yp)[0] * sgn, eip))
            vm = float(np.dot(grad_at(ym)[0] * sgn, eim))
            v0 = float(np.dot(g0 * sgn, ei))
            t2 += (vp - 2.0 * v0 + vm) / h ** 2

        # term 3: df(Ric# e_i)
        t3 = ric_scale * float(np.dot(g0 * sgn, ei))

        worst = max(worst, abs(t1 - t2 + t3))
    return worst


def field_consistency_error(m: ManifoldModel, f: ScalarField, X: np.ndarray,
                            h: float = 1e-4) -> dict:
    """Relative finite-difference errors of the field oracles at points X.

    Central differences through the exact exponential map; returns the worst
    relative error for the gradient, Hessian and Laplacian over the batch.
    """
    n = X.shape[0]
    d = m.dim
    F = m.frame(X)
    sgn = m.metric_sign()
    scale = max(1.0, float(np.max(np.abs(f.eval_fn(X)))))

    g = f.grad_fn(X)
    g_frame = np.einsum("nda,na->nd", F * sgn[None, None, :], g)
    H = f.hess_fn(X, F)
    lap = f.laplacian_fn(X)

    err_g = 0.0
    err_h = 0.0
    H_fd = np.zeros_like(H)
    for i in range(d):
        ei = F[:, i, :]
        fp = f.eval_fn(m.retract(m.exp(X, h * ei)))
        fm = f.eval_fn(m.retract(m.exp(X, -h * ei)))
        gi = (fp - fm) / (2.0 * h)
        err_g = max(err_g, float(np.max(np.abs(gi - g_frame[:, i]))) / scale)
        f0 = f.eval_fn(X)
        H_fd[:, i, i] = (fp - 2.0 * f0 + fm) / h ** 2
        for j in range(i + 1, d):
            ej = F[:, j, :]
            fpp = f.eval_fn(m.retract(m.exp(X, h * (ei + ej))))
            fpm = f.eval_fn(m.retract(m.exp(X, h * (ei - ej))))
            fmp = f.eval_fn(m.retract(m.exp(X, h * (-ei + ej))))
            fmm = f.eval_fn(m.retract(m.exp(X, -h * (ei + ej))))
            H_fd[:, i, j] = H_fd[:, j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h ** 2)
    err_h = float(np.max(np.abs(H_fd - H))) / scale
    lap_fd = -np.einsum("nii->n", H_fd)
    err_l = float(np.max(np.abs(lap_fd - lap))) / scale
    trace_err = float(np.max(np.abs(np.einsum("nii->n", H) + lap))) / scale
    return {"grad": err_g, "hess": err_h, "laplacian": err_l, "trace": trace_err}


# ---------------------------------------------------------------------------
# built-in scalar fields

def const_field(m: ManifoldModel, c: float = 1.0) -> ScalarField:
    amb = m.ambient_dim

    def ev(X):
        return np.full(X.shape[0], c)

    def gr(X):
        return np.zeros((X.shape[0], amb))

    def he(X, F):
        return np.zeros((X.shape[0], m.dim, m.dim))

    def la(X):
        return np.zeros(X.shape[0])

    return ScalarField(f"const:{c:g}", ev, gr, he, la)


def coordinate_field(m: ManifoldModel, axis: int = 0) -> ScalarField:
    """Ambient coordinate x_axis restricted to the manifold.

    Flat models: a linear function. Sphere: the degree-1 eigenfunction with
    positive-Laplacian eigenvalue d/a^2.
    """
    amb = m.ambient_dim
    if axis < 0 or axis >= amb:
        raise ValueError("axis out of range")
    c = np.zeros(amb)
    c[axis] = 1.0

    if isinstance(m, Torus):
        raise ValueError("coordinate fields are not periodic; not valid on the torus")

    if isinstance(m, Euclidean):

        def ev(X):
            return X[:, axis].copy()

        def gr(X):
            return np.broadcast_to(c, X.shape).copy()

        def he(X, F):
            return np.zeros((X.shape[0], m.dim, m.dim))

        def la(X):
            return np.zeros(X.shape[0])

        return ScalarField(f"coord-x{axis + 1}", ev, gr, he, la)

    if isinstance(m, Sphere):
        a2 = m.radius ** 2
        d = m.dim

        def ev(X):
            return X[:, axis].copy()

        def gr(X):
            u = X[:, axis:axis + 1]
            return np.broadcast_to(c, X.shape) - (u / a2) * X

        def he(X, F):
            u = X[:, axis]
            eye = np.eye(d)
            return -(u / a2)[:, None, None] * eye[None, :, :]

        def la(X):
            return (d / a2) * X[:, axis]

        return ScalarField(f"coord-x{axis + 1}", ev, gr, he, la)

    raise ValueError("coordinate field defined for euclidean and sphere models")


def square_coordinate_field(m: ManifoldModel, axis: int = 0) -> ScalarField:
    """x_axis^2 on euclidean space (positive-Laplacian value -2)."""
    if not isinstance(m, Euclidean):
        raise ValueError("square coordinate field is a euclidean test function")
    amb = m.ambient_dim

    def ev(X):
        return X[:, axis] ** 2

    def gr(X):
        G = np.zeros_like(X)
        G[:, axis] = 2.0 * X[:, axis]
        return G

    def he(X, F):
        H = np.zeros((X.shape[0], m.dim, m.dim))
        H[:, axis, axis] = 2.0
        return H

    def la(X):
        return np.full(X.shape[0], -2.0)

    return ScalarField(f"square-x{axis + 1}", ev, gr, he, la)


def norm_squared_field(m: ManifoldModel) -> ScalarField:
    if not isinstance(m, Euclidean):
        raise ValueError("|x|^2 is a euclidean test function")
    d = m.dim

    def ev(X):
        return np.sum(X * X, axis=-1)

    def gr(X):
        return 2.0 * X

    def he(X, F):
        return np.broadcast_to(2.0 * np.eye(d), (X.shape[0], d, d)).copy()

    def la(X):
        return np.full(X.shape[0], -2.0 * d)

    return ScalarField("norm2", ev, gr, he, la)


def sin_coordinate_field(m: ManifoldModel, axis: int = 0) -> ScalarField:
    """sin(x_axis) on the torus; eigenfunction with positive eigenvalue 1."""
    if not isinstance(m, (Torus, Euclidean)):
        raise ValueError("sin coordinate field lives on flat models")
    d = m.dim

    def ev(X):
        return np.sin(X[:, axis])

    def gr(X):
        G = np.zeros_like(X)
        G[:, axis] = np.cos(X[:, axis])
        return G

    def he(X, F):
        H = np.zeros((X.shape[0], d, d))
        H[:, axis, axis] = -np.sin(X[:, axis])
        return H

    def la(X):
        return np.sin(X[:, axis])

    return ScalarField(f"sin-x{axis + 1}", ev, gr, he, la)


def gaussian_bump_field(m: ManifoldModel, center: Optional[np.ndarray] = None,
                        lam: float = 2.0) -> ScalarField:
    """Smooth localized bump with exact oracles on every model.

    Flat space: exp(-lam |x - c|^2 / 2). Sphere / hyperboloid: a function of
    the ambient pairing with the center, exp(lam a^2 (cos(rho/a) - 1)) resp.
    exp(lam (1 - cosh(a rho)) / a^2-normalized), which is globally smooth.
    Torus: product of exp(lam (cos(x_i - c_i) - 1)).
    """
    if center is None:
        center = m.base_point()
    c = np.asarray(center, dtype=float)

    if isinstance(m, Euclidean):
        d = m.dim

        def ev(X):
            return np.exp(-0.5 * lam * np.sum((X - c) ** 2, axis=-1))

        def gr(X):
            return -lam * (X - c) * ev(X)[:, None]

        def he(X, F):
            D = X - c
            f = ev(X)
            eye = np.eye(d)
            return f[:, None, None] * (lam ** 2 * D[:, :, None] * D[:, None, :]
                                       - lam * eye[None, :, :])

        def la(X):
            D2 = np.sum((X - c) ** 2, axis=-1)
            return -ev(X) * (lam ** 2 * D2 - lam * d)

        return ScalarField("gauss-bump", ev, gr, he, la)

    if isinstance(m, Torus):
        d = m.dim

        def ev(X):
            return np.exp(lam * np.sum(np.cos(X - c) - 1.0, axis=-1))

        def gr(X):
            return -lam * np.sin(X - c) * ev(X)[:, None]

        def he(X, F):
            f = ev(X)
            s = np.sin(X - c)
            co = np.cos(X - c)
            H = lam ** 2 * s[:, :, None] * s[:, None, :]
            idx = np.arange(d)
            H[:, idx, idx] -= lam * co
            return f[:, None, None] * H

        def la(X):
            f = ev(X)
            s2 = np.sum(np.sin(X - c) ** 2, axis=-1)
            csum = np.sum(np.cos(X - c), axis=-1)
            return -f * (lam ** 2 * s2 - lam * csum)

        return ScalarField("gauss-bump", ev, gr, he, la)

    if isinstance(m, (Sphere, Hyperbolic)):
        # f = exp(lam (u - u0)) with u = <x, c> in the ambient pairing and u0
        # its value at the center; globally smooth, Gaussian-shaped near c.
        # Hess u = cfac * u * g by the second fundamental form of the model.
        sgn = m.metric_sign()
        if isinstance(m, Sphere):
            a2 = m.radius ** 2
            u0 = a2
            cfac = -1.0 / a2
            norm_c2 = a2          # <c, c>
        else:
            u0 = -1.0 / m.scale ** 2
            cfac = m.scale ** 2
            norm_c2 = u0          # <c, c>_M

        def uval(X):
            return np.sum(X * (sgn * c), axis=-1)

        def ev(X):
            return np.exp(lam * (uval(X) - u0))

        def gr(X):
            u = uval(X)
            f = np.exp(lam * (u - u0))
            ct = np.broadcast_to(c, X.shape) + (cfac * u)[:, None] * X
            return (lam * f)[:, None] * ct

        def he(X, F):
            u = uval(X)
            f = np.exp(lam * (u - u0))
            du = np.einsum("nda,a->nd", F, sgn * c)
            eye = np.eye(m.dim)
            return (lam ** 2 * f)[:, None, None] * du[:, :, None] * du[:, None, :] \
                + (lam * f * cfac * u)[:, None, None] * eye[None, :, :]

        def la(X):
            u = uval(X)
            f = np.exp(lam * (u - u0))
            grad_u_sq = norm_c2 + cfac * u ** 2
            return -(lam ** 2 * f * grad_u_sq + lam * f * cfac * u * m.dim)

        return ScalarField("gauss-bump", ev, gr, he, la)

    raise ValueError(f"no bump construction for {m.kind}")


def compact_bump_field(m: ManifoldModel, center: Optional[np.ndarray] = None,
                       r0: float = 0.3) -> ScalarField:
    """C^infinity bump supported exactly in the geodesic ball of radius r0.

    Evaluation-only oracle (used by off-diagonal checks that integrate the
    field against kernels).
    """
    if center is None:
        center = m.base_point()
    c = np.asarray(center, dtype=float)[None, :]

    def ev(X):
        rho = m.distance(X, np.broadcast_to(c, X.shape))
        out = np.zeros(X.shape[0])
        inside = rho < r0
        q = (rho[inside] / r0) ** 2
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - q))
        return out

    return ScalarField(f"compact-bump:{r0:g}", ev, None, None, None,
                       support_radius=r0)
