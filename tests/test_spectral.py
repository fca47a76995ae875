"""Band-limited spectral machinery on the torus and the sphere."""

import math

import numpy as np
import pytest

from mheat.geometry import Sphere, Torus, field_consistency_error
from mheat.oracle import lp_norm, quadrature_grid
from mheat.spectral import (
    SphericalPolynomial,
    TrigPolynomial,
    _monomials,
    harmonic_basis,
    random_spherical_polynomials,
    random_trig_polynomials,
    sphere_bochner_residual,
    torus_bochner_residual,
)


def rng():
    return np.random.Generator(np.random.Philox(key=314))


# ---------------------------------------------------------------------------
# torus

def test_trig_polynomial_parseval():
    m = Torus(2)
    grid = quadrature_grid(m, 64)
    u = random_trig_polynomials(m, 8, 1, rng())[0]
    vals = u.values(grid.nodes)
    assert lp_norm(grid, vals, 2) == pytest.approx(u.l2_parseval(), rel=1e-10)
    lap_vals = u.lap_values(grid.nodes)
    assert lp_norm(grid, lap_vals, 2) == pytest.approx(u.l2_parseval(1.0), rel=1e-10)


def test_trig_polynomial_is_consistent_field():
    m = Torus(2)
    u = random_trig_polynomials(m, 4, 1, rng())[0]
    f = u.as_field()
    X = m.random_points(rng(), 25)
    errs = field_consistency_error(m, f, X, h=1e-4)
    assert errs["grad"] < 1e-4
    assert errs["hess"] < 1e-4
    assert errs["trace"] < 1e-10


def test_trig_resolvent_inverts():
    m = Torus(2)
    u = random_trig_polynomials(m, 6, 1, rng())[0]
    sigma = 1.7
    v = u.resolvent(sigma)
    X = m.random_points(rng(), 30)
    recon = v.lap_values(X) + sigma * v.values(X)
    assert np.max(np.abs(recon - u.values(X))) < 1e-10


def test_torus_flat_bochner_equality():
    m = Torus(2)
    grid = quadrature_grid(m, 64)
    for u in random_trig_polynomials(m, 8, 5, rng()):
        hs = u.hess_hs_values(grid.nodes)
        lap = u.lap_values(grid.nodes)
        ratio = lp_norm(grid, hs, 2) / lp_norm(grid, lap, 2)
        assert abs(ratio - 1.0) < 1e-10


def test_torus_bochner_residual_pointwise():
    m = Torus(2)
    u = random_trig_polynomials(m, 8, 1, rng())[0]
    assert torus_bochner_residual(u) < 1e-8


# ---------------------------------------------------------------------------
# sphere harmonics from polynomial algebra

def _poly_values(exps, C, X):
    # node values of the polynomials with coefficient columns C over exps
    return np.prod(X[:, None, :] ** exps[None], axis=2) @ C


def _poly_diff(exps, C, axis):
    # d/dx_axis by an exponent shift
    keep = exps[:, axis] > 0
    lower = exps[keep].copy()
    lower[:, axis] -= 1
    return lower, C[keep] * exps[keep, axis][:, None]


def test_harmonic_basis_dimensions_and_orthonormality():
    grid = quadrature_grid(Sphere(2, 1.0), 24)
    for ell in [1, 2, 3, 5, 8, 12, 16]:
        basis = harmonic_basis(ell)
        assert basis.shape == (len(_monomials(ell)), 2 * ell + 1)
        V = _poly_values(_monomials(ell), basis, grid.nodes)
        G = V.T @ (grid.weights[:, None] * V)
        assert np.max(np.abs(G - np.eye(2 * ell + 1))) < 1e-10


def test_harmonic_ambient_laplacian_vanishes():
    g = rng()
    X = g.standard_normal((20, 3))
    for ell in [2, 4]:
        exps, C = _monomials(ell), harmonic_basis(ell)[:, :3]
        lap = sum(_poly_values(*_poly_diff(*_poly_diff(exps, C, a), a), X)
                  for a in range(3))
        assert np.max(np.abs(lap)) < 1e-9


def test_random_fields_need_degree_one():
    for degree in (0, -1):
        with pytest.raises(ValueError, match="degree"):
            random_trig_polynomials(Torus(2), degree, 3, rng())
        with pytest.raises(ValueError, match="degree"):
            random_spherical_polynomials(Sphere(2, 1.0), degree, 3, rng())


def test_spherical_polynomial_eigen_action():
    m = Sphere(2, 1.0)
    grid = quadrature_grid(m, 24)
    u = SphericalPolynomial([(3, np.array([0.0, 1.0, 0, 0, 0, 0, 0]))])
    lap = u.lap_values(grid.nodes)
    assert np.max(np.abs(lap - 12.0 * u.values(grid.nodes))) < 1e-10


def test_spherical_polynomial_is_consistent_field():
    m = Sphere(2, 1.0)
    u = random_spherical_polynomials(m, 4, 1, rng())[0]
    f = u.as_field()
    X = m.random_points(rng(), 25)
    errs = field_consistency_error(m, f, X, h=1e-4)
    assert errs["grad"] < 1e-4
    assert errs["hess"] < 1e-4
    assert errs["trace"] < 1e-9


def test_sphere_parseval_matches_grid():
    m = Sphere(2, 1.0)
    grid = quadrature_grid(m, 24)
    u = random_spherical_polynomials(m, 5, 1, rng())[0]
    vals = u.values(grid.nodes)
    assert lp_norm(grid, vals, 2) == pytest.approx(u.l2_parseval(), rel=1e-10)
    lap_vals = u.lap_values(grid.nodes)
    assert lp_norm(grid, lap_vals, 2) == pytest.approx(u.l2_parseval(1.0), rel=1e-10)


def test_sphere_hessian_bochner_identity_per_harmonic():
    # integral Bochner: ||Hess Y||_2^2 = lam^2 - lam on the unit sphere
    m = Sphere(2, 1.0)
    grid = quadrature_grid(m, 24)
    F = grid.frames(m)
    for ell in [1, 2, 3]:
        lam = ell * (ell + 1)
        for idx in [0, ell]:
            cvec = np.zeros(2 * ell + 1)
            cvec[idx] = 1.0
            u = SphericalPolynomial([(ell, cvec)])
            hs = u.hess_hs_values(grid.nodes, F)
            val = grid.integrate(hs ** 2)
            assert val == pytest.approx(lam ** 2 - lam, rel=1e-8, abs=1e-8)


def test_sphere_bochner_residual_pointwise():
    m = Sphere(2, 1.0)
    grid = quadrature_grid(m, 20)
    u = random_spherical_polynomials(m, 4, 1, rng())[0]
    res = sphere_bochner_residual(u, grid, m)
    assert res < 1e-8


def test_sphere_resolvent_inverts():
    m = Sphere(2, 1.0)
    u = random_spherical_polynomials(m, 4, 1, rng())[0]
    sigma = 2.5
    v = u.resolvent(sigma)
    X = m.random_points(rng(), 30)
    recon = v.lap_values(X) + sigma * v.values(X)
    assert np.max(np.abs(recon - u.values(X))) < 1e-10
