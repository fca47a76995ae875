"""Geometry layer: curvature identities, exact geodesics, volumes, oracles."""

import math

import numpy as np
import pytest

from mheat.geometry import (
    CurvaturePackage,
    Euclidean,
    Hyperbolic,
    Point,
    Sphere,
    Torus,
    commutation_residual,
    compact_bump_field,
    coordinate_field,
    curvature_package,
    field_consistency_error,
    gaussian_bump_field,
    make_manifold,
    norm_squared_field,
    sin_coordinate_field,
    square_coordinate_field,
)
from mheat.oracle import quadrature_grid

MODELS = [
    Euclidean(2),
    Euclidean(3),
    Torus(2),
    Sphere(2, 1.0),
    Sphere(2, 2.0),
    Hyperbolic(2, 1.0),
    Hyperbolic(3, 1.0),
]


def rng():
    return np.random.Generator(np.random.Philox(key=7))


# ---------------------------------------------------------------------------
# curvature package

@pytest.mark.parametrize("m", MODELS, ids=lambda m: m.describe())
def test_curvature_tensor_identities(m):
    # the package is the model's: constant curvature, one set of components
    d = m.dim
    kappa = m.sectional_curvature
    pkg = curvature_package(m)
    assert isinstance(pkg, CurvaturePackage)
    R = pkg.riemann
    assert np.max(np.abs(R + np.transpose(R, (1, 0, 2, 3)))) < 1e-10
    assert np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1)))) < 1e-10
    ric = np.einsum("ijli->jl", R)
    assert np.max(np.abs(ric - pkg.ricci)) < 1e-10
    # constant-curvature closed form
    eye = np.eye(d)
    closed = kappa * (np.einsum("jk,il->ijkl", eye, eye)
                      - np.einsum("ik,jl->ijkl", eye, eye))
    assert np.max(np.abs(R - closed)) < 1e-10
    assert np.max(np.abs(pkg.ricci_sharp_grad)) < 1e-10
    assert np.max(np.abs(pkg.dstar_r)) < 1e-10


@pytest.mark.parametrize("m,expected", [
    (Euclidean(3), 0.0),
    (Sphere(2, 1.0), 1.0),
    (Sphere(2, 2.0), 0.25),
    (Hyperbolic(2, 1.0), 1.0),
    (Hyperbolic(3, 1.0), math.sqrt(2.0)),
])
def test_r_opnorm_constant_curvature(m, expected):
    pkg = curvature_package(m)
    assert pkg.r_opnorm == pytest.approx(expected, abs=1e-9)
    assert m.curvature_opnorm() == pytest.approx(expected, abs=1e-12)


def test_ricci_lower_bound_attained():
    for m in MODELS:
        pkg = curvature_package(m)
        lo = np.min(np.linalg.eigvalsh(pkg.ricci))
        assert lo >= -m.ricci_lower_bound - 1e-12
        if m.kind == "hyperbolic":
            assert lo == pytest.approx(-m.ricci_lower_bound, abs=1e-12)


# ---------------------------------------------------------------------------
# geodesics and transport primitives

def test_geodesic_step_euclidean_line():
    m = Euclidean(2)
    X = np.array([[0.0, 0.0]])
    U = np.array([[1.0, 0.0]])
    Y = m.retract(m.exp(X, 0.5 * U))
    assert np.allclose(Y[0], [0.5, 0.0])


def test_geodesic_step_sphere_quarter_circle():
    m = Sphere(2, 1.0)
    X = np.array([[0.0, 0.0, 1.0]])
    U = np.array([[1.0, 0.0, 0.0]])
    Y = m.retract(m.exp(X, math.pi / 2 * U))
    rho = m.distance(X, Y)[0]
    assert abs(rho - math.pi / 2) < 1e-8
    assert abs(Y[0, 2]) < 1e-12


def test_geodesic_step_hyperbolic_accumulated_length():
    m = Hyperbolic(2, 1.0)
    start = m.base_point()[None, :]
    cur = start
    direction = m.frame(start)[0][:1]
    for _ in range(200):
        nxt = m.retract(m.exp(cur, 0.01 * direction))
        direction = m.transport(cur, 0.01 * direction, direction)
        cur = nxt
    rho = m.distance(start, cur)[0]
    assert abs(rho - 2.0) < 1e-4


@pytest.mark.parametrize("m", MODELS, ids=lambda m: m.describe())
def test_geodesic_step_length_preserving(m):
    g = rng()
    X = m.random_points(g, 20)
    F = m.frame(X)
    coef = g.standard_normal((20, m.dim))
    V = np.einsum("nd,nda->na", coef, F)
    h = 0.05
    speed = np.linalg.norm(coef, axis=1)
    Y = m.retract(m.exp(X, h * V))
    rho = m.distance(X, Y)
    assert np.max(np.abs(rho - speed * h)) < 10 * h ** 3 + 1e-12


@pytest.mark.parametrize("m", MODELS, ids=lambda m: m.describe())
def test_retraction_and_frames(m):
    g = rng()
    X = m.random_points(g, 50)
    assert np.max(m.embedding_defect(X)) < 1e-12
    F = m.frame(X)
    gram = np.einsum("nia,nja->nij", F * _sgn(m), F)
    assert np.max(np.abs(gram - np.eye(m.dim))) < 1e-10
    # tangency of frame vectors
    for i in range(m.dim):
        assert np.max(m.tangency_defect(X, F[:, i, :])) < 1e-10


def _sgn(m):
    s = np.ones(m.ambient_dim)
    if m.kind == "hyperbolic":
        s[-1] = -1.0
    return s[None, None, :]


# ---------------------------------------------------------------------------
# distance / volume / doubling

def test_distance_volume_examples():
    m = Euclidean(2)
    rho = m.distance(np.array([[0.3, -1.0]]), np.array([[1.3, -1.0]]))[0]
    vol = m.ball_volume(1.0)
    assert rho == pytest.approx(1.0)
    assert vol == pytest.approx(math.pi)
    assert m.ball_volume(2.0) / vol == pytest.approx(4.0)

    s = Sphere(2, 1.0)
    assert s.ball_volume(math.pi) == pytest.approx(4.0 * math.pi)
    # V(x, 2r) of a radius r = 10 clips at the whole sphere
    assert s.ball_volume(20.0) == pytest.approx(4.0 * math.pi)

    hyp = Hyperbolic(2, 1.0)
    vol = hyp.ball_volume(1.0)
    # quadrature oracle: integral of 2 pi sinh(s) over [0, 1]
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(60)
    sgrid = 0.5 * (nodes + 1.0)
    ref = 2.0 * math.pi * float(np.sum(0.5 * weights * np.sinh(sgrid)))
    assert vol == pytest.approx(ref, rel=1e-10)
    assert vol == pytest.approx(2.0 * math.pi * (math.cosh(1.0) - 1.0), rel=1e-12)


def test_doubling_ratio_bounds():
    for r in [0.25, 0.5, 1.0]:
        for m in MODELS:
            ratio = m.ball_volume(2.0 * r) / m.ball_volume(r)
            if m.kind in ("euclidean", "torus") and 2 * r <= math.pi:
                assert ratio == pytest.approx(2.0 ** m.dim, rel=1e-12)
            elif m.kind == "sphere":
                assert ratio <= 2.0 ** m.dim + 1e-12
            else:
                K = m.ricci_lower_bound
                assert ratio <= 2.0 ** m.dim * math.exp(2.0 * math.sqrt(max(K, 1.0)) * r)


def test_torus_distance_wraps():
    m = Torus(2)
    X = np.array([[0.1, 0.0]])
    Y = np.array([[2.0 * math.pi - 0.1, 0.0]])
    rho = m.distance(X, Y)[0]
    assert rho == pytest.approx(0.2, abs=1e-12)


# ---------------------------------------------------------------------------
# scalar field oracles

FIELD_CASES = [
    (Euclidean(2), lambda m: square_coordinate_field(m)),
    (Euclidean(2), lambda m: norm_squared_field(m)),
    (Euclidean(3), lambda m: gaussian_bump_field(m, lam=1.5)),
    (Torus(2), lambda m: sin_coordinate_field(m)),
    (Torus(2), lambda m: gaussian_bump_field(m, center=[1.0, 2.0], lam=2.0)),
    (Sphere(2, 1.0), lambda m: coordinate_field(m, axis=2)),
    (Sphere(2, 1.0), lambda m: gaussian_bump_field(m, lam=2.0)),
    (Hyperbolic(2, 1.0), lambda m: gaussian_bump_field(m, lam=2.0)),
]


@pytest.mark.parametrize("m,make", FIELD_CASES,
                         ids=lambda v: v.describe() if hasattr(v, "describe") else "field")
def test_field_oracles_match_finite_differences(m, make):
    f = make(m)
    X = m.random_points(rng(), 40, spread=0.8)
    errs = field_consistency_error(m, f, X, h=1e-4)
    assert errs["grad"] < 1e-4
    assert errs["hess"] < 1e-4
    assert errs["laplacian"] < 1e-4
    assert errs["trace"] < 1e-10


def test_sphere_coordinate_field_values():
    m = Sphere(2, 1.0)
    f = coordinate_field(m, axis=2)
    X = m.base_point()[None, :]
    assert f.eval_fn(X)[0] == pytest.approx(1.0)
    assert f.laplacian_fn(X)[0] == pytest.approx(2.0)  # positive-operator eigenvalue
    H = f.hess_fn(X, m.frame(X))[0]
    assert np.allclose(H, -np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# commutation identity

def test_commutation_residual_flat_polynomial():
    m = Euclidean(2)
    f = norm_squared_field(m)
    res = commutation_residual(m, f, Point([0.4, -0.2]))
    assert res < 1e-6


def test_commutation_residual_sphere_eigenfunction():
    m = Sphere(2, 1.0)
    f = coordinate_field(m, axis=2)
    x = Point(m.retract(np.array([[0.3, -0.5, 0.8]]))[0])
    res = commutation_residual(m, f, x)
    assert res < 1e-3


def test_commutation_residual_torus_trig():
    m = Torus(2)
    f = sin_coordinate_field(m)
    res = commutation_residual(m, f, Point([0.7, 1.1]))
    assert res < 1e-6


def test_commutation_residual_hyperbolic_bump():
    m = Hyperbolic(2, 1.0)
    f = gaussian_bump_field(m, lam=1.0)
    x = Point(m.random_points(rng(), 1, spread=0.4)[0])
    res = commutation_residual(m, f, x)
    assert res < 1e-3


# ---------------------------------------------------------------------------
# misc plumbing

def test_make_manifold_factory():
    assert make_manifold("euclidean", 2).kind == "euclidean"
    assert make_manifold("torus", 2).kind == "torus"
    assert make_manifold("sphere", 2, radius=2.0).radius == 2.0
    assert make_manifold("hyperbolic", 2, curvature_scale=1.0).ricci_lower_bound == 1.0
    with pytest.raises(ValueError):
        make_manifold("cylinder", 2)


def test_compact_bump_support():
    m = Torus(2)
    f = compact_bump_field(m, center=[0.0, 0.0], r0=0.3)
    X = np.array([[0.0, 0.0], [0.2, 0.0], [0.31, 0.0], [3.0, 3.0]])
    vals = f.eval_fn(X)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] > 0
    assert vals[2] == 0.0
    assert vals[3] == 0.0


# ---------------------------------------------------------------------------
# batched tangent frames against the per-point loops they replace

def _sphere_frame_loop(m, X):
    n, amb = X.shape
    normal = X / m.radius
    out = np.empty((n, m.dim, amb))
    for i in range(n):
        cand = np.eye(amb) - np.outer(normal[i], normal[i])
        order = np.argsort(-np.linalg.norm(cand, axis=1), kind="stable")
        basis = []
        for j in order:
            v = cand[j].copy()
            for b in basis:
                v -= np.dot(v, b) * b
            nv = np.linalg.norm(v)
            if nv > 1e-8:
                basis.append(v / nv)
            if len(basis) == m.dim:
                break
        out[i] = np.array(basis)
    return out


def _hyperbolic_frame_loop(m, X):
    n, amb = X.shape
    out = np.empty((n, m.dim, amb))
    for i in range(n):
        basis = []
        for j in range(amb):
            v = np.zeros(amb)
            v[j] = 1.0
            v = v + m.scale ** 2 * m.mdot(X[i], v) * X[i]
            for b in basis:
                v = v - m.mdot(v, b) * b
            nv2 = m.mdot(v, v)
            if nv2 > 1e-16:
                basis.append(v / math.sqrt(nv2))
            if len(basis) == m.dim:
                break
        out[i] = np.array(basis)
    return out


def _frame_test_points(m):
    amb = m.ambient_dim
    pts = [m.random_points(rng(), 200, spread=1.5)]
    if isinstance(m, Sphere):
        if m.dim == 2:
            pts.append(quadrature_grid(m, 12).nodes)
        eye = np.eye(amb)
        # poles and axis-aligned points, and points where projected norms tie
        pts += [m.radius * eye, -m.radius * eye,
                m.retract(eye[0] + eye[1])[None], m.retract(np.ones(amb))[None],
                m.retract(eye[0] - eye[-1])[None]]
    else:
        base = np.broadcast_to(m.base_point(), (2 * m.dim, amb))
        U = np.zeros((2 * m.dim, amb))
        U[np.arange(m.dim), np.arange(m.dim)] = 0.8
        U[m.dim + np.arange(m.dim), np.arange(m.dim)] = -2.0
        pts += [m.base_point()[None], m.exp(base, U)]
    return np.concatenate(pts, axis=0)


@pytest.mark.parametrize("m", [Sphere(2, 1.0), Sphere(2, 2.0), Sphere(3, 0.7),
                               Hyperbolic(2, 1.0), Hyperbolic(3, 0.6)],
                         ids=lambda m: f"{m.describe()}-{getattr(m, 'radius', getattr(m, 'scale', None))}")
def test_batched_frames_match_point_loop(m):
    X = _frame_test_points(m)
    loop = _sphere_frame_loop if isinstance(m, Sphere) else _hyperbolic_frame_loop
    ref = loop(m, X)
    F = m.frame(X)
    assert F.shape == ref.shape
    # a different pick of axes, or another order among tied norms, would
    # move a frame vector by far more than the bound, so agreement within it
    # means the same candidates were kept
    assert np.max(np.abs(F - ref)) < 1e-15
