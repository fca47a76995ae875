"""Exact band-limited function algebra on the torus and the 2-sphere.

Torus fields are trigonometric polynomials stored as lattice modes with
Hermitian coefficients; all derivatives and resolvents act mode by mode.
Sphere fields are combinations of spherical harmonics realized as harmonic
homogeneous polynomials in ambient coordinates, so tangential gradients and
Hessians come from exact polynomial differentiation plus the second
fundamental form, with no special-function code.  Everything is blocked by
degree and built from matrix products: each level's harmonics are one
coefficient block B_ell over that degree's monomials (``harmonic_basis``),
the ambient partial derivatives are small integer matrices lowering the
degree by one, B_ell spans the nullspace of their Laplacian and is
orthonormalized with a quadrature Gram matrix, and node values are products
of those blocks with one node-monomial matrix per degree.

Laplacians carry the positive-operator sign everywhere (eigenvalue ``|k|^2``
on the torus, ``l (l + 1)`` on the unit sphere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np

from .geometry import ScalarField, Sphere, Torus

__all__ = [
    "TrigPolynomial",
    "SphericalPolynomial",
    "SphereHarmonicTables",
    "random_trig_polynomials",
    "random_spherical_polynomials",
    "harmonic_basis",
    "torus_bochner_residual",
    "sphere_bochner_residual",
]


# ---------------------------------------------------------------------------
# torus: lattice-mode fields

@dataclass
class TrigPolynomial:
    """Real trigonometric polynomial sum_k c_k e^{i k.x}, c_{-k} = conj(c_k)."""

    dim: int
    modes: np.ndarray   # (M, d) int
    coeffs: np.ndarray  # (M,) complex

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=int)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)

    # -- pointwise evaluation ------------------------------------------------
    def _phase(self, X: np.ndarray) -> np.ndarray:
        return np.exp(1j * (X @ self.modes.T))  # (n, M)

    def values(self, X: np.ndarray) -> np.ndarray:
        return (self._phase(X) @ self.coeffs).real

    def grad_values(self, X: np.ndarray) -> np.ndarray:
        ph = self._phase(X)
        return (ph @ (1j * self.modes * self.coeffs[:, None])).real

    def hess_values(self, X: np.ndarray) -> np.ndarray:
        ph = self._phase(X)
        kk = -self.modes[:, :, None] * self.modes[:, None, :]
        return np.einsum("nm,mij->nij", ph, kk * self.coeffs[:, None, None]).real

    def hess_hs_values(self, X: np.ndarray) -> np.ndarray:
        H = self.hess_values(X)
        return np.sqrt(np.sum(H * H, axis=(1, 2)))

    def lap_values(self, X: np.ndarray) -> np.ndarray:
        lam = np.sum(self.modes ** 2, axis=1)
        return (self._phase(X) @ (lam * self.coeffs)).real

    # -- spectral operators ----------------------------------------------------
    def eigenvalues(self) -> np.ndarray:
        return np.sum(self.modes ** 2, axis=1).astype(float)

    def apply_spectral(self, factors: np.ndarray) -> "TrigPolynomial":
        return TrigPolynomial(self.dim, self.modes, self.coeffs * factors)

    def laplacian_poly(self) -> "TrigPolynomial":
        return self.apply_spectral(self.eigenvalues())

    def resolvent(self, sigma: float) -> "TrigPolynomial":
        return self.apply_spectral(1.0 / (self.eigenvalues() + sigma))

    def l2_parseval(self, power: float = 0.0) -> float:
        """L2 norm of (Delta^power u) from the coefficients."""
        lam = self.eigenvalues()
        w = np.abs(self.coeffs) ** 2 * lam ** (2 * power)
        return math.sqrt((2.0 * math.pi) ** self.dim * float(np.sum(w)))

    def as_field(self, name: str = "trig-poly") -> ScalarField:
        def he(X, F):
            return self.hess_values(X)  # frames are the identity on the torus
        return ScalarField(name, self.values, self.grad_values, he, self.lap_values)


def _full_lattice(degree: int, dim: int) -> np.ndarray:
    ax = np.arange(-degree, degree + 1)
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    K = np.stack([g.ravel() for g in grids], axis=1)
    return K[np.any(K != 0, axis=1)]


def random_trig_polynomials(m: Torus, degree: int, count: int,
                            rng: np.random.Generator) -> List[TrigPolynomial]:
    """Random real band-limited fields, |k|_inf <= degree, zero mean."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    K = _full_lattice(degree, m.dim)
    # pick one representative per +-k pair for independent draws
    rep = K[np.lexsort(K.T[::-1])]
    rep = rep[: len(rep) // 2]
    out = []
    for _ in range(count):
        c_half = rng.standard_normal(len(rep)) + 1j * rng.standard_normal(len(rep))
        modes = np.concatenate([rep, -rep], axis=0)
        coeffs = np.concatenate([c_half, np.conj(c_half)])
        out.append(TrigPolynomial(m.dim, modes, coeffs / math.sqrt(len(rep))))
    return out


def torus_bochner_residual(u: TrigPolynomial) -> float:
    """Max-node residual of the curvature-free Bochner identity.

    -(1/2) Lap |grad u|^2 = |Hess u|_HS^2 - <grad Lap u, grad u>, with the
    positive Laplacian applied to the band-limited product via FFT.
    """
    return _torus_bochner_terms(u)[0]


def _torus_bochner_terms(u: TrigPolynomial):
    """``torus_bochner_residual`` and the largest node |Hess u|_HS^2."""
    d = u.dim
    if d != 2:
        raise ValueError("FFT residual implemented for the 2-torus")
    n = 64
    ax = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    XX, YY = np.meshgrid(ax, ax, indexing="ij")
    X = np.stack([XX.ravel(), YY.ravel()], axis=1)
    G = u.grad_values(X)
    gsq = np.sum(G * G, axis=1).reshape(n, n)
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    k2 = freqs[:, None] ** 2 + freqs[None, :] ** 2
    lap_gsq = np.fft.ifft2(np.fft.fft2(gsq) * k2).real.ravel()  # positive sign
    H = u.hess_values(X)
    hs2 = np.sum(H * H, axis=(1, 2))
    lap_u = u.laplacian_poly()
    cross = np.sum(lap_u.grad_values(X) * G, axis=1)
    res = -0.5 * lap_gsq - hs2 + cross
    return float(np.max(np.abs(res))), float(np.max(hs2))


# ---------------------------------------------------------------------------
# sphere: harmonic polynomial fields

def _monomials(degree: int) -> np.ndarray:
    """Exponent rows (i, j, degree - i - j) in order; none below degree 0."""
    out = []
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            out.append((i, j, degree - i - j))
    return np.asarray(out, dtype=int).reshape(-1, 3)


def _monomial_index(exps: np.ndarray, degree: int) -> np.ndarray:
    """Row of each degree-``degree`` exponent triple in ``_monomials(degree)``."""
    i, j = exps[:, 0], exps[:, 1]
    return i * (degree + 1) - i * (i - 1) // 2 + j


@lru_cache(maxsize=None)
def _diff_matrix(degree: int, axis: int) -> np.ndarray:
    """D_axis: d/dx_axis from degree-``degree`` to degree-``degree - 1``
    coefficients, read-only and built once per process."""
    mono = _monomials(degree)
    D = np.zeros((len(_monomials(degree - 1)), len(mono)))
    cols = np.flatnonzero(mono[:, axis])
    lower = mono[cols].copy()
    lower[:, axis] -= 1
    D[_monomial_index(lower, degree - 1), cols] = mono[cols, axis]
    D.flags.writeable = False
    return D


def _coordinate_powers(X: np.ndarray, degree: int) -> np.ndarray:
    """Powers X[:, a] ** e for e <= degree by cumulative products, (3, n, degree + 1)."""
    P = np.empty((3, X.shape[0], degree + 1))
    P[:, :, 0] = 1.0
    for e in range(1, degree + 1):
        P[:, :, e] = P[:, :, e - 1] * X.T
    return P


def _monomial_matrix(powers: np.ndarray, degree: int) -> np.ndarray:
    """M_degree: node values of ``_monomials(degree)``, (n, #monomials)."""
    e = _monomials(degree)
    return powers[0][:, e[:, 0]] * powers[1][:, e[:, 1]] * powers[2][:, e[:, 2]]


@lru_cache(maxsize=None)
def harmonic_basis(ell: int) -> np.ndarray:
    """B_ell: the degree-ell spherical harmonics as coefficient columns.

    Returns a read-only (#monomials(ell), 2 ell + 1) array whose columns are
    homogeneous harmonic polynomials over ``_monomials(ell)``, orthonormal in
    L2 of the unit 2-sphere.  The columns span the nullspace of the integer
    ambient Laplacian sum_a D_a D_a on degree-ell coefficients and are
    orthonormalized with the Gram matrix of a quadrature grid that is exact
    for degree 2 ell.  Each level is built once per process and cached.
    """
    nm = len(_monomials(ell))
    if ell >= 2:
        A = sum(_diff_matrix(ell - 1, a) @ _diff_matrix(ell, a) for a in range(3))
        _, s, vt = np.linalg.svd(A)
        null_dim = nm - int(np.sum(s > 1e-10 * s[0]))
        N = vt[nm - null_dim:].T
    else:
        N = np.eye(nm)
    assert N.shape[1] == 2 * ell + 1, "harmonic space has dimension 2l + 1"

    from .oracle import quadrature_grid
    grid = quadrature_grid(Sphere(2, 1.0), max(ell + 2, 6))
    V = _monomial_matrix(_coordinate_powers(grid.nodes, ell), ell) @ N
    G = V.T @ (grid.weights[:, None] * V)
    w, vec = np.linalg.eigh(G)
    B = N @ (vec @ np.diag(1.0 / np.sqrt(w)) @ vec.T)
    B.flags.writeable = False
    return B


def _harmonic_level(X, powers, ell, C, grads=False, frames=None):
    """Node fields of the degree-ell harmonics with coefficient columns C.

    ``C`` (#monomials of degree ell, k) holds k homogeneous harmonic
    polynomials.  Returns their values (n, k), the ambient form of their
    tangential gradients amb - ell f x (n, 3, k) when ``grads`` is set, and
    the frame components of their Hessians F D^2 F^T - ell f I (n, d, d, k)
    when ``frames`` (n, d, 3) are given; the unrequested ones are None.
    """
    n, k = X.shape[0], C.shape[1]
    vals = _monomial_matrix(powers, ell) @ C
    G = H = None
    if grads or frames is not None:
        D = [_diff_matrix(ell, a) for a in range(3)]
    if grads:
        amb = _monomial_matrix(powers, ell - 1) @ np.hstack([Da @ C for Da in D])
        G = amb.reshape(n, 3, k) - ell * vals[:, None, :] * X[:, :, None]
    if frames is not None:
        D1 = [_diff_matrix(ell - 1, b) for b in range(3)]
        D2 = _monomial_matrix(powers, ell - 2) @ np.hstack(
            [D1[b] @ (Da @ C) for Da in D for b in range(3)])
        d = frames.shape[1]
        FF = frames[:, :, None, :, None] * frames[:, None, :, None, :]
        H = np.matmul(FF.reshape(n, d * d, 9), D2.reshape(n, 9, k)).reshape(n, d, d, k)
        H -= ell * vals[:, None, None, :] * np.eye(d)[None, :, :, None]
    return vals, G, H


@dataclass
class SphericalPolynomial:
    """Band-limited function on the unit 2-sphere: sum over (l, m) harmonics."""

    terms: List[tuple]  # (ell, coeff vector of length 2 ell + 1)

    def _fields(self, X, grads=False, frames=None):
        """Per level: ell and ``_harmonic_level`` of the one column B_ell @ cvec."""
        powers = _coordinate_powers(X, max((ell for ell, _ in self.terms), default=0))
        for ell, cvec in self.terms:
            C = (harmonic_basis(ell) @ cvec)[:, None]
            yield ell, _harmonic_level(X, powers, ell, C, grads, frames)

    def values(self, X: np.ndarray) -> np.ndarray:
        return sum((f[:, 0] for _, (f, _, _) in self._fields(X)), np.zeros(len(X)))

    def grad_values(self, X: np.ndarray) -> np.ndarray:
        """Ambient representation of the tangential gradient at |x| = 1."""
        return sum((G[..., 0] for _, (_, G, _) in self._fields(X, grads=True)),
                   np.zeros(X.shape))

    def hess_values(self, X: np.ndarray, frames: np.ndarray) -> np.ndarray:
        """Frame components of the intrinsic Hessian.

        Hess f(u, v) = D^2 f(u, v) - ell f <u, v> per degree-ell harmonic
        (ambient second derivative plus the second fundamental form).
        """
        return sum((H[..., 0] for _, (_, _, H) in self._fields(X, frames=frames)),
                   np.zeros((len(X), 2, 2)))

    def hess_hs_values(self, X: np.ndarray, frames: np.ndarray) -> np.ndarray:
        H = self.hess_values(X, frames)
        return np.sqrt(np.sum(H * H, axis=(1, 2)))

    def lap_values(self, X: np.ndarray) -> np.ndarray:
        return sum((ell * (ell + 1) * f[:, 0] for ell, (f, _, _) in self._fields(X)),
                   np.zeros(len(X)))

    def apply_spectral(self, fn) -> "SphericalPolynomial":
        return SphericalPolynomial(
            [(ell, cvec * fn(ell * (ell + 1))) for ell, cvec in self.terms])

    def laplacian_poly(self) -> "SphericalPolynomial":
        return self.apply_spectral(lambda lam: lam)

    def resolvent(self, sigma: float) -> "SphericalPolynomial":
        return self.apply_spectral(lambda lam: 1.0 / (lam + sigma))

    def l2_parseval(self, power: float = 0.0) -> float:
        total = 0.0
        for ell, cvec in self.terms:
            lam = ell * (ell + 1)
            total += float(np.sum(np.abs(cvec) ** 2)) * lam ** (2 * power)
        return math.sqrt(total)

    def as_field(self, name: str = "sphere-poly") -> ScalarField:
        return ScalarField(name, self.values, self.grad_values,
                           self.hess_values, self.lap_values)


def random_spherical_polynomials(m: Sphere, degree: int, count: int,
                                 rng: np.random.Generator) -> List[SphericalPolynomial]:
    if m.dim != 2 or abs(m.radius - 1.0) > 0:
        raise ValueError("spectral sphere fields require the unit 2-sphere")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    out = []
    for _ in range(count):
        terms = []
        norm = math.sqrt(sum(2 * ell + 1 for ell in range(1, degree + 1)))
        for ell in range(1, degree + 1):
            terms.append((ell, rng.standard_normal(2 * ell + 1) / norm))
        out.append(SphericalPolynomial(terms))
    return out


class SphereHarmonicTables:
    """Cached node evaluations of the harmonic basis on a quadrature grid.

    Values and frame Hessian components only, stacked over the flattened
    (l, index-in-level) harmonic order so that band limited fields are plain
    matrix products with their coefficient blocks; gradients come from
    ``SphericalPolynomial.grad_values``.  Each level's columns are filled at
    once: the node-monomial matrices of degrees ell and ell - 2 times the
    basis block B_ell and its images under the integer derivative matrices,
    then one frame contraction per level.
    """

    def __init__(self, grid, m: Sphere, lmax: int, with_derivs: bool = True):
        self.grid = grid
        self.lmax = lmax
        X = grid.nodes
        n = X.shape[0]
        levels = range(lmax + 1)
        # level ell holds 2 ell + 1 harmonics, from column ell^2
        self.offsets = {ell: ell * ell for ell in levels}
        self.size = (lmax + 1) ** 2
        self.eigen = np.repeat([float(ell * (ell + 1)) for ell in levels],
                               [2 * ell + 1 for ell in levels])
        self.values = np.empty((n, self.size))
        frames = grid.frames(m) if with_derivs else None
        self.hesses = np.empty((n, 2, 2, self.size)) if with_derivs else None
        powers = _coordinate_powers(X, lmax)
        for ell in levels:
            cols = slice(ell * ell, (ell + 1) ** 2)
            vals, _, H = _harmonic_level(X, powers, ell, harmonic_basis(ell),
                                         frames=frames)
            self.values[:, cols] = vals
            if with_derivs:
                self.hesses[:, :, :, cols] = H

    def coeff_matrix(self, family) -> np.ndarray:
        C = np.zeros((self.size, len(family)))
        for col, u in enumerate(family):
            for ell, cvec in u.terms:
                off = self.offsets[ell]
                C[off:off + len(cvec), col] = cvec
        return C


def sphere_bochner_residual(u: SphericalPolynomial, grid,
                            m: Optional[Sphere] = None) -> float:
    """Max-node residual of the Bochner identity on the unit sphere.

    -(1/2) Lap |grad u|^2 = |Hess u|_HS^2 - <grad Lap u, grad u>
                            + Ric(grad u, grad u)
    with the positive Laplacian; Ric = g on the unit 2-sphere.  The
    Laplacian of |grad u|^2 is taken spectrally: the square is band limited
    to degree 2 lmax, so its exact harmonic expansion comes from grid
    quadrature and the eigenvalues act coefficient-wise.
    """
    return _sphere_bochner_terms([u], grid, m)[0][0]


def _sphere_bochner_terms(fields, grid, m: Optional[Sphere] = None) -> List[tuple]:
    """``sphere_bochner_residual`` and the largest node |Hess u|_HS^2 of
    each field, over one expansion table.

    The table is built once, to twice the largest degree; a field of lower
    degree ell expands over a contiguous copy of its leading (2 ell + 1)^2
    columns, which are the columns of its own table, so every residual
    rounds as in a call of its own.
    """
    if m is None:
        m = Sphere(2, 1.0)
    degrees = [max(ell for ell, _ in u.terms) for u in fields]
    frames = grid.frames(m)
    tables = SphereHarmonicTables(grid, m, 2 * max(degrees), with_derivs=False)
    out = []
    for u, lmax in zip(fields, degrees):
        size = (2 * lmax + 1) ** 2
        values = tables.values
        if size < tables.size:
            values = np.ascontiguousarray(values[:, :size])
        eigen = tables.eigen[:size]
        G = u.grad_values(grid.nodes)
        gsq = np.sum(G * G, axis=1)
        coeffs = values.T @ (grid.weights * gsq)
        lap_gsq = values @ (eigen * coeffs)
        recon = values @ coeffs
        if (float(np.max(np.abs(recon - gsq)))
                > 1e-8 * max(1.0, float(np.max(np.abs(gsq))))):
            raise ValueError("grid too coarse to expand |grad u|^2 exactly")
        hs2 = u.hess_hs_values(grid.nodes, frames) ** 2
        cross = np.sum(u.laplacian_poly().grad_values(grid.nodes) * G, axis=1)
        ric = gsq
        res = -0.5 * lap_gsq - hs2 + cross - ric
        out.append((float(np.max(np.abs(res))), float(np.max(hs2))))
    return out
