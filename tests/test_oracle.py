"""Heat kernel oracles and quadrature grids."""

import hashlib
import math

import numpy as np
import pytest
try:
    from scipy.special import sph_harm_y
except ImportError:  # older scipy
    from scipy.special import sph_harm

    def sph_harm_y(n, m_, theta, phi):
        return sph_harm(m_, n, phi, theta)

from mheat.geometry import Euclidean, Hyperbolic, Point, Sphere, Torus
from mheat.oracle import (
    OracleError,
    heat_kernel,
    kernel_on_grid,
    lp_norm,
    polar_grid,
    quadrature_grid,
)
from mheat.transport import ChunkWalk


def rng():
    return np.random.Generator(np.random.Philox(key=42))


CLOSED_FORM = [Euclidean(2), Euclidean(3), Torus(1), Torus(2), Sphere(2, 1.0),
               Hyperbolic(3, 1.0)]


# ---------------------------------------------------------------------------
# pointwise kernel identities

def test_euclidean_on_diagonal():
    m = Euclidean(2)
    x = Point([0.7, -0.3])
    ev = heat_kernel(m, x, x, 0.25)
    assert ev.p == pytest.approx(1.0 / (4.0 * math.pi * 0.25), rel=1e-14)


@pytest.mark.parametrize("m", CLOSED_FORM, ids=lambda m: m.describe())
def test_heat_equation_residual(m):
    g = rng()
    X = m.random_points(g, 100, spread=0.7)
    Y = m.random_points(g, 100, spread=0.7)
    ts = g.uniform(0.08, 2.0, size=100)
    for i in range(100):
        ev = heat_kernel(m, Point(X[i]), Point(Y[i]), float(ts[i]))
        scale = max(ev.p, 1e-3)
        assert abs(ev.dp_dt + ev.laplacian_x) < 1e-6 * max(1.0, scale), m.describe()


@pytest.mark.parametrize("m", CLOSED_FORM, ids=lambda m: m.describe())
def test_hessian_trace_matches_laplacian(m):
    g = rng()
    X = m.random_points(g, 20, spread=0.5)
    Y = m.random_points(g, 20, spread=0.5)
    for i in range(0, 20, 3):
        ev = heat_kernel(m, Point(X[i]), Point(Y[i]), 0.4)
        assert abs(np.trace(ev.hess_x) + ev.laplacian_x) < 1e-6


@pytest.mark.parametrize("m", [Euclidean(2), Torus(2), Sphere(2, 1.0)],
                         ids=lambda m: m.describe())
def test_kernel_symmetry(m):
    g = rng()
    X = m.random_points(g, 10)
    Y = m.random_points(g, 10)
    for i in range(10):
        a = heat_kernel(m, Point(X[i]), Point(Y[i]), 0.3).p
        b = heat_kernel(m, Point(Y[i]), Point(X[i]), 0.3).p
        assert abs(a - b) < 1e-10 * max(1.0, a)


def test_sphere_truncation_guard():
    m = Sphere(2, 1.0)
    x = Point(m.base_point())
    with pytest.raises(OracleError):
        heat_kernel(m, x, x, 5e-5)


def test_sphere_antipodal_cancellation_guard():
    m = Sphere(2, 1.0)
    x = Point([0.0, 0.0, 1.0])
    y = Point([0.0, 0.0, -1.0])
    with pytest.raises(OracleError):
        heat_kernel(m, x, y, 0.003)


def test_h2_matches_h3_structure_on_diagonal_decay():
    # H^2 kernel: positive, radially decreasing, correct short-time scale
    m = Hyperbolic(2, 1.0)
    x = Point(m.base_point())
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    y1 = Point(m.exp(np.asarray(x.coords)[None, :], 0.7 * F[0][None, :])[0])
    t = 0.3
    p0 = heat_kernel(m, x, x, t).p
    p1 = heat_kernel(m, x, y1, t).p
    assert p0 > p1 > 0
    flat = 1.0 / (4.0 * math.pi * 0.01)
    assert heat_kernel(m, x, x, 0.01).p == pytest.approx(flat, rel=0.02)


def test_h2_heat_equation_loose():
    # FD derivatives: residual tolerance reflects the differencing error
    m = Hyperbolic(2, 1.0)
    x = Point(m.base_point())
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    y = Point(m.exp(np.asarray(x.coords)[None, :], 0.9 * F[1][None, :])[0])
    ev = heat_kernel(m, x, y, 0.5)
    assert abs(ev.dp_dt + ev.laplacian_x) < 2e-4 * max(1.0, ev.p)


# ---------------------------------------------------------------------------
# kernel mass and Chapman-Kolmogorov

def test_sphere_kernel_mass():
    m = Sphere(2, 1.0)
    grid = quadrature_grid(m, 40)
    x = m.retract(np.array([[0.3, 0.4, 0.8]]))[0]
    for t in [0.05, 0.2, 1.0]:
        vals = kernel_on_grid(m, grid.nodes, x, t, frames=grid.frames(m))["p"]
        assert abs(grid.integrate(vals) - 1.0) < 1e-8


def test_torus_kernel_mass():
    m = Torus(2)
    grid = quadrature_grid(m, 64)
    x = np.array([1.0, 2.0])
    for t in [0.05, 0.5, 2.0]:
        vals = kernel_on_grid(m, grid.nodes, x, t)["p"]
        assert abs(grid.integrate(vals) - 1.0) < 1e-10


def test_h2_kernel_mass():
    m = Hyperbolic(2, 1.0)
    grid = quadrature_grid(m, 60)
    x = m.base_point()
    vals = kernel_on_grid(m, grid.nodes, x, 0.5)["p"]
    assert abs(grid.integrate(vals) - 1.0) < 1e-6


def test_chapman_kolmogorov_torus_1d():
    m = Torus(1)
    grid = quadrature_grid(m, 64)
    x = np.array([0.3])
    y = np.array([2.1])
    s, t = 0.3, 0.45
    ps = kernel_on_grid(m, grid.nodes, x, s)["p"]
    pt = kernel_on_grid(m, grid.nodes, y, t)["p"]
    conv = grid.integrate(ps * pt)
    direct = heat_kernel(m, Point(x), Point(y), s + t).p
    assert abs(conv - direct) < 1e-8


# ---------------------------------------------------------------------------
# H^3 kernel against a Monte Carlo transition-density estimate

def test_h3_kernel_vs_mc_density():
    m = Hyperbolic(3, 1.0)
    t, n_steps, n_paths = 0.5, 100, 200000
    walk = ChunkWalk(m, m.base_point(), t, n_steps, seed=2024, path_lo=0,
                     path_hi=n_paths)
    walk.run()
    rho = m.distance(np.broadcast_to(m.base_point(), walk.points.shape),
                     walk.points)
    target = 1.0
    bw = 0.025
    kde = np.exp(-0.5 * ((rho - target) / bw) ** 2) / (bw * math.sqrt(2 * math.pi))
    q_hat = kde.mean()
    q_se = kde.std(ddof=1) / math.sqrt(n_paths)
    area = 4.0 * math.pi * math.sinh(target) ** 2
    p_hat = q_hat / area
    p_exact = heat_kernel(m, Point(m.base_point()),
                          Point(m.exp(m.base_point()[None, :],
                                      target * m.frame(m.base_point()[None, :])[0][0][None, :])[0]),
                          t).p
    # 3 KDE standard errors plus KDE/time-discretization bias allowance
    tol = 3.0 * q_se / area + 0.02 * p_exact
    assert abs(p_hat - p_exact) < tol


# ---------------------------------------------------------------------------
# quadrature grids and norms

def test_torus_grid_weights_and_trig_integrals():
    m = Torus(2)
    grid = quadrature_grid(m, 64)
    assert grid.weights.sum() == pytest.approx((2 * math.pi) ** 2, rel=1e-12)
    s = np.sin(grid.nodes[:, 0])
    assert grid.integrate(s ** 2) == pytest.approx(2 * math.pi ** 2, rel=1e-12)
    assert lp_norm(grid, s, 2) == pytest.approx(math.pi * math.sqrt(2), rel=1e-12)
    # exact quartic moment: average of sin^4 is 3/8
    expected4 = ((2 * math.pi) ** 2 * 3.0 / 8.0) ** 0.25
    assert lp_norm(grid, s, 4) == pytest.approx(expected4, rel=1e-12)


def test_sphere_grid_harmonic_orthonormality():
    m = Sphere(2, 1.0)
    grid = quadrature_grid(m, 20)
    x, y, z = grid.nodes.T
    theta = np.arccos(np.clip(z, -1, 1))
    phi = np.mod(np.arctan2(y, x), 2 * math.pi)
    for (l1, m1, l2, m2, expect) in [
        (3, 1, 3, 1, 1.0),
        (3, 2, 3, 2, 1.0),
        (3, 1, 2, 1, 0.0),
        (4, 0, 4, 0, 1.0),
    ]:
        f = sph_harm_y(l1, m1, theta, phi)
        g = sph_harm_y(l2, m2, theta, phi)
        val = grid.integrate((f * np.conj(g)).real)
        assert abs(val - expect) < 1e-10


def test_lp_norm_basics():
    m = Torus(2)
    grid = quadrature_grid(m, 32)
    ones = np.ones(len(grid.weights))
    assert lp_norm(grid, ones, 2) == pytest.approx(2 * math.pi, rel=1e-12)
    bump = np.exp(np.cos(grid.nodes[:, 0]) - 1.0)
    assert lp_norm(grid, bump, math.inf) == pytest.approx(bump.max())
    with pytest.raises(ValueError):
        lp_norm(grid, ones, 0.5)


def test_quadrature_rejects_unsupported():
    with pytest.raises(OracleError):
        quadrature_grid(Sphere(3, 1.0), 10)
    with pytest.raises(OracleError):
        quadrature_grid(Hyperbolic(3, 1.0), 10)


def test_euclidean_grid_gaussian_integral():
    m = Euclidean(2)
    grid = quadrature_grid(m, 80, half_width=10.0)
    vals = kernel_on_grid(m, grid.nodes, np.zeros(2), 1.0)["p"]
    assert abs(grid.integrate(vals) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# geodesic polar grids

def _grid_digest(grid):
    h = hashlib.sha256(np.ascontiguousarray(grid.nodes).tobytes())
    h.update(np.ascontiguousarray(grid.weights).tobytes())
    return h.hexdigest()[:16]


# digests of the H^2 quadrature grid and of the Gaffney cap grids, computed
# with the two builders that polar_grid replaces
@pytest.mark.parametrize("a, digest", [(1.0, "348a2ce20d39754a"),
                                       (0.5, "029043bfef7944cf")])
def test_hyperbolic_grid_unchanged(a, digest):
    assert _grid_digest(quadrature_grid(Hyperbolic(2, a), 12)) == digest


@pytest.mark.parametrize("m, digest", [
    (Torus(2), "8cbdff88ee34aca2"),
    (Sphere(2, 1.0), "5adf93b6b7b5811c"),
    (Hyperbolic(2, 1.0), "3151dd7abc9f5146"),
    (Euclidean(2), "436acac18018cb8d"),
    (Sphere(2, 2.0), "90476affb8429ce2"),
    (Hyperbolic(2, 0.5), "464f5d4adeadfb80"),
], ids=["t2", "s2", "h2", "r2", "s2-radius2", "h2-scale0.5"])
def test_polar_grid_matches_cap_grid(m, digest):
    grid = polar_grid(m, m.base_point(), 0.4, 12, 16)
    assert _grid_digest(grid) == digest
    assert grid.resolution == (12, 16) and grid.truncation_radius == 0.4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [1.2, 1.7])
def test_hyperbolic_grid_rejects_inexact_nodes(a):
    # a*R = 14.4 drifts off the hyperboloid (a^2 defect 2.4e-4); a*R = 20.4
    # gives NaN nodes
    with pytest.raises(OracleError, match=r"a\*R = "):
        quadrature_grid(Hyperbolic(2, a), 12)
