"""Monte Carlo semigroup estimators against exact and spectral oracles."""

import math

import numpy as np
import pytest

from mheat.geometry import (
    Euclidean,
    Hyperbolic,
    Point,
    Sphere,
    TangentVector,
    Torus,
    const_field,
    coordinate_field,
    gaussian_bump_field,
    norm_squared_field,
    sin_coordinate_field,
    square_coordinate_field,
)
from mheat.semigroup import (
    HessianEstimatorConfig,
    McEstimate,
    RunningMoments,
    default_theta,
    estimate_grad,
    estimate_green_hess,
    estimate_hess,
    estimate_pt,
)
from mheat.transport import ChunkWalk, WalkGroup


def tv(m, x, comps):
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    c = np.asarray(comps, dtype=float)
    return TangentVector(x, np.einsum("d,da->a", c, F))


# ---------------------------------------------------------------------------
# running moments

def test_running_moments_matches_two_pass():
    g = np.random.Generator(np.random.Philox(key=1))
    vals = g.standard_normal(10000) * 3.0 + 1.5
    acc = RunningMoments()
    for lo in range(0, 10000, 777):
        acc.update_batch(vals[lo:lo + 777])
    assert acc.mean == pytest.approx(vals.mean(), abs=1e-12)
    ref = vals.std(ddof=1) / math.sqrt(len(vals))
    assert acc.stderr() == pytest.approx(ref, rel=1e-12)


def test_running_moments_merge_order_deterministic():
    g = np.random.Generator(np.random.Philox(key=2))
    vals = g.standard_normal(4096)
    a = RunningMoments()
    a.update_batch(vals)
    b = RunningMoments()
    for lo in range(0, 4096, 512):
        c = RunningMoments()
        c.update_batch(vals[lo:lo + 512])
        b.merge(c)
    assert abs(a.mean - b.mean) < 1e-14
    assert abs(a.stderr() - b.stderr()) < 1e-14


# ---------------------------------------------------------------------------
# P_t f

def test_pt_constant_zero_variance():
    m = Torus(2)
    est = estimate_pt(m, const_field(m, 1.0), Point([0.0, 0.0]), 0.3,
                      n_paths=100, h=0.003, seed=1)
    assert est.scalar == pytest.approx(1.0, abs=1e-15)
    assert est.scalar_stderr == 0.0


def test_pt_flat_norm_squared():
    m = Euclidean(2)
    x = Point([0.5, -0.2])
    t = 0.4
    est = estimate_pt(m, norm_squared_field(m), x, t, n_paths=20000,
                      h=t / 100, seed=7)
    exact = float(np.sum(np.asarray(x.coords) ** 2)) + 2 * m.dim * t
    assert abs(est.scalar - exact) <= 3 * est.scalar_stderr


def test_pt_sphere_eigenfunction():
    m = Sphere(2, 1.0)
    f = coordinate_field(m, axis=2)
    x = Point(m.retract(np.array([[0.3, 0.2, 0.9]]))[0])
    t = 0.5
    est = estimate_pt(m, f, x, t, n_paths=20000, h=t / 200, seed=11)
    exact = math.exp(-2 * t) * f.eval(x)
    assert abs(est.scalar - exact) <= 3 * est.scalar_stderr + 0.01 * abs(exact)


def test_pt_contraction_bounded_f():
    m = Sphere(2, 1.0)
    f = coordinate_field(m, axis=0)
    est = estimate_pt(m, f, Point(m.base_point()), 0.4, n_paths=4000,
                      h=0.004, seed=3)
    assert abs(est.scalar) <= 1.0 + 3 * est.scalar_stderr


def test_pt_semigroup_restart_property():
    # E[f(X_{t1+t2})] equals a restarted two-stage estimate within noise,
    # over several random (f, x, t) triples per model
    cases = [
        (Sphere(2, 1.0), lambda m: coordinate_field(m, axis=2)),
        (Sphere(2, 1.0), lambda m: gaussian_bump_field(m, lam=2.0)),
        (Torus(2), lambda m: sin_coordinate_field(m)),
        (Torus(2), lambda m: gaussian_bump_field(m, center=[1.0, 2.0], lam=1.5)),
        (Hyperbolic(2, 1.0), lambda m: gaussian_bump_field(m, lam=1.5)),
    ]
    g = np.random.Generator(np.random.Philox(key=77))
    n = 12000
    for idx, (m, make) in enumerate(cases):
        f = make(m)
        x = Point(m.random_points(g, 1, spread=0.4)[0])
        t1 = float(g.uniform(0.1, 0.3))
        t2 = float(g.uniform(0.1, 0.4))
        steps1 = max(20, int(round(t1 / 0.0025)))
        steps2 = max(20, int(round(t2 / 0.0025)))
        tt = steps1 * (t1 / steps1) + steps2 * (t2 / steps2)
        one = estimate_pt(m, f, x, tt, n_paths=n, h=tt / (steps1 + steps2),
                          seed=210 + idx)
        walk = ChunkWalk(m, [WalkGroup(220 + idx, t1, steps1, 0, n,
                                       x0=np.asarray(x.coords))])
        walk.run()
        walk2 = ChunkWalk(m, [WalkGroup(230 + idx, t2, steps2, 0, n, x0=walk.points)])
        walk2.run()
        vals = f.eval_fn(walk2.points)
        two = vals.mean()
        se2 = vals.std(ddof=1) / math.sqrt(n)
        comb = math.hypot(one.scalar_stderr, se2)
        assert abs(one.scalar - two) <= 3 * comb + 2e-3, (m.kind, f.name)


# ---------------------------------------------------------------------------
# gradient estimator

def test_grad_flat_linear_zero_variance():
    m = Euclidean(2)
    f = coordinate_field(m, axis=0)
    x = Point([0.0, 0.0])
    est = estimate_grad(m, f, x, tv(m, x, [1, 0]), 0.5, n_paths=100,
                        h=0.005, seed=5)
    assert est.scalar == pytest.approx(1.0, abs=1e-14)
    assert est.scalar_stderr == 0.0


def test_grad_torus_eigenfunction():
    m = Torus(2)
    f = sin_coordinate_field(m)
    x = Point([0.7, 0.0])
    t = 0.5
    est = estimate_grad(m, f, x, tv(m, x, [1, 0]), t, n_paths=20000,
                        h=t / 200, seed=6)
    exact = math.exp(-t) * math.cos(0.7)
    assert abs(est.scalar - exact) <= 3 * est.scalar_stderr


def test_grad_hyperbolic_matches_crn_finite_difference():
    m = Hyperbolic(2, 1.0)
    f = gaussian_bump_field(m, lam=1.5)
    x = Point(m.base_point())
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    v = TangentVector(x, F[0])
    t, n, seed = 0.4, 40000, 17
    est = estimate_grad(m, f, x, v, t, n_paths=n, h=t / 100, seed=seed)
    delta = 0.01
    xp = Point(m.retract(m.exp(np.asarray(x.coords)[None, :], delta * F[0][None, :]))[0])
    xm = Point(m.retract(m.exp(np.asarray(x.coords)[None, :], -delta * F[0][None, :]))[0])
    pp = estimate_pt(m, f, xp, t, n_paths=n, h=t / 100, seed=seed)
    pm = estimate_pt(m, f, xm, t, n_paths=n, h=t / 100, seed=seed)
    fd = (pp.scalar - pm.scalar) / (2 * delta)
    comb = math.hypot(est.scalar_stderr,
                      math.hypot(pp.scalar_stderr, pm.scalar_stderr) / (2 * delta))
    # common random numbers cancel most of the FD variance; allow the rest
    assert abs(est.scalar - fd) <= 3 * comb + 5e-3


def test_grad_cauchy_schwarz_bound():
    m = Sphere(2, 1.0)
    f = gaussian_bump_field(m, lam=2.0)
    x = Point(m.retract(np.array([[0.2, 0.1, 0.97]]))[0])
    t = 0.3
    v = tv(m, x, [1, 0])
    est = estimate_grad(m, f, x, v, t, n_paths=8000, h=t / 100, seed=9)
    def gradsq(X, F):
        G = f.grad_fn(X)
        return np.sum(G * G, axis=1)
    from mheat.semigroup import estimate_endpoint
    pg = estimate_endpoint(m, gradsq, x, t, n_paths=8000, h=t / 100, seed=10)
    K = m.ricci_lower_bound
    rhs = math.exp(K * t) * math.sqrt(max(pg.scalar, 0.0))
    assert abs(est.scalar) <= rhs + 3 * est.scalar_stderr + 3 * pg.scalar_stderr


# ---------------------------------------------------------------------------
# Hessian estimators

def test_hess_flat_square_both_modes():
    m = Euclidean(2)
    f = square_coordinate_field(m)
    x = Point([0.3, 0.1])
    t = 0.25
    v = tv(m, x, [1, 0])
    for mode in ("bismut", "mixed"):
        est = estimate_hess(m, f, x, v, v, t, mode=mode, n_paths=50000,
                            h=t / 100, seed=31)
        assert abs(est.scalar - 2.0) <= 3 * est.scalar_stderr + 1e-12, mode
    mixed = estimate_hess(m, f, x, v, v, t, mode="mixed", n_paths=100,
                          h=t / 100, seed=32)
    assert mixed.scalar_stderr == 0.0  # flat: Hess f constant, W = 0
    assert mixed.scalar == pytest.approx(2.0, abs=1e-12)


def test_hess_sphere_eigenfunction_mixed():
    m = Sphere(2, 1.0)
    f = coordinate_field(m, axis=2)
    x = Point(m.retract(np.array([[0.5, 0.0, 0.87]]))[0])
    t = 0.5
    v = tv(m, x, [1, 0])
    est = estimate_hess(m, f, x, v, v, t, mode="mixed", n_paths=40000,
                        h=t / 200, seed=33)
    exact = -math.exp(-2 * t) * f.eval(x)
    assert abs(est.scalar - exact) <= 3 * est.scalar_stderr + 0.01 * abs(exact)


def test_hess_sphere_eigenfunction_bismut():
    m = Sphere(2, 1.0)
    f = coordinate_field(m, axis=2)
    x = Point(m.retract(np.array([[0.5, 0.0, 0.87]]))[0])
    t = 0.5
    v = tv(m, x, [1, 0])
    est = estimate_hess(m, f, x, v, v, t, mode="bismut", n_paths=60000,
                        h=t / 100, seed=34)
    exact = -math.exp(-2 * t) * f.eval(x)
    assert abs(est.scalar - exact) <= 3 * est.scalar_stderr + 0.01 * abs(exact)


def test_hess_modes_agree():
    m = Sphere(2, 1.0)
    f = gaussian_bump_field(m, lam=2.0)
    x = Point(m.retract(np.array([[0.4, 0.3, 0.85]]))[0])
    t = 0.4
    v = tv(m, x, [1, 0])
    w = tv(m, x, [0, 1])
    a = estimate_hess(m, f, x, v, w, t, mode="bismut", n_paths=60000,
                      h=t / 100, seed=35)
    b = estimate_hess(m, f, x, v, w, t, mode="mixed", n_paths=60000,
                      h=t / 100, seed=36)
    comb = math.hypot(a.scalar_stderr, b.scalar_stderr)
    assert abs(a.scalar - b.scalar) <= 3 * comb + 2e-3


def test_hess_symmetry_statistical():
    m = Torus(2)
    f = gaussian_bump_field(m, center=[1.0, 2.0], lam=2.0)
    x = Point([1.3, 1.8])
    t = 0.3
    v = tv(m, x, [1, 0])
    w = tv(m, x, [0, 1])
    a = estimate_hess(m, f, x, v, w, t, mode="bismut", n_paths=40000,
                      h=t / 100, seed=37)
    b = estimate_hess(m, f, x, w, v, t, mode="bismut", n_paths=40000,
                      h=t / 100, seed=38)
    comb = math.hypot(a.scalar_stderr, b.scalar_stderr)
    assert abs(a.scalar - b.scalar) <= 3 * comb


def test_hess_zero_mean_weights_on_constants():
    m = Sphere(2, 1.0)
    f = const_field(m, 1.0)
    x = Point(m.base_point())
    v = tv(m, x, [1, 0])
    est = estimate_hess(m, f, x, v, v, 0.5, mode="bismut", n_paths=30000,
                        h=0.005, seed=39)
    assert abs(est.scalar) <= 3 * est.scalar_stderr


def test_hess_variance_warning_small_t():
    m = Torus(2)
    f = gaussian_bump_field(m, center=[3.0, 3.0], lam=1.0)
    x = Point([0.0, 0.0])  # far from the bump: tiny signal, noisy weights
    v = tv(m, x, [1, 0])
    with pytest.warns(UserWarning):
        estimate_hess(m, f, x, v, v, 0.02, mode="bismut", n_paths=64,
                      h=0.001, seed=40)


# ---------------------------------------------------------------------------
# Green operator

def test_green_flat_resolvent():
    m = Euclidean(2)
    f = square_coordinate_field(m)
    x = Point([0.0, 0.0])
    v = tv(m, x, [1, 0])
    cfg = HessianEstimatorConfig(sigma=4.0)
    est = estimate_green_hess(m, f, x, v, v, cfg, n_paths=400, h=0.01, seed=41)
    assert est.qtol is not None
    assert abs(est.scalar - 0.5) <= 3 * est.scalar_stderr + est.qtol


def test_green_sphere_spectral_resolvent():
    m = Sphere(2, 1.0)
    f = coordinate_field(m, axis=2)
    x = Point(m.retract(np.array([[0.5, 0.2, 0.84]]))[0])
    v = tv(m, x, [1, 0])
    cfg = HessianEstimatorConfig(sigma=2.0)
    est = estimate_green_hess(m, f, x, v, v, cfg, n_paths=4000, h=0.01, seed=42)
    exact = -f.eval(x) / (2.0 + 2.0)
    assert abs(est.scalar - exact) <= 3 * est.scalar_stderr + est.qtol + 0.02 * abs(exact)


def test_green_magnitude_decreases_with_sigma():
    m = Sphere(2, 1.0)
    f = coordinate_field(m, axis=2)
    x = Point(m.retract(np.array([[0.5, 0.2, 0.84]]))[0])
    v = tv(m, x, [1, 0])
    small = estimate_green_hess(m, f, x, v, v, HessianEstimatorConfig(sigma=2.0),
                                n_paths=3000, h=0.01, seed=43)
    big = estimate_green_hess(m, f, x, v, v, HessianEstimatorConfig(sigma=4.0),
                              n_paths=3000, h=0.01, seed=43)
    assert abs(big.scalar) < abs(small.scalar)


def test_green_warns_on_small_sigma():
    m = Hyperbolic(2, 1.0)
    f = gaussian_bump_field(m, lam=1.0)
    x = Point(m.base_point())
    v = tv(m, x, [1, 0])
    cfg = HessianEstimatorConfig(sigma=0.5, t_max=2.0, n_nodes=6)
    with pytest.warns(UserWarning):
        estimate_green_hess(m, f, x, v, v, cfg, n_paths=64, h=0.02, seed=44)
    assert default_theta(m) == pytest.approx(1.0)


@pytest.mark.parametrize("sigma, t_min, t_max", [
    (3.0, 0.5, 0.2),   # an explicit t_max below t_min
    (0.5, 50.0, None),  # the default 20 / sigma when sigma <= 2K + theta
])
def test_green_rejects_a_reversed_node_grid(sigma, t_min, t_max):
    m = Sphere(2, 1.0)
    f = coordinate_field(m, axis=2)
    x = Point(m.base_point())
    v = tv(m, x, [1, 0])
    cfg = HessianEstimatorConfig(sigma=sigma, t_min=t_min, t_max=t_max)
    with pytest.raises(ValueError, match="t_min .* below .* t_max"):
        estimate_green_hess(m, f, x, v, v, cfg, n_paths=64, h=0.1, seed=1)


# ---------------------------------------------------------------------------
# reproducibility

def test_estimator_bitwise_reproducible():
    m = Sphere(2, 1.0)
    f = coordinate_field(m, axis=2)
    x = Point(m.base_point())
    a = estimate_pt(m, f, x, 0.3, n_paths=2000, h=0.003, seed=99)
    b = estimate_pt(m, f, x, 0.3, n_paths=2000, h=0.003, seed=99)
    assert a.scalar == b.scalar
    assert a.scalar_stderr == b.scalar_stderr


def test_threaded_equals_serial():
    m = Torus(2)
    f = sin_coordinate_field(m)
    x = Point([0.4, 1.0])
    a = estimate_pt(m, f, x, 0.4, n_paths=8000, h=0.004, seed=13,
                    chunk_size=1024, threads=1)
    b = estimate_pt(m, f, x, 0.4, n_paths=8000, h=0.004, seed=13,
                    chunk_size=1024, threads=4)
    assert a.scalar == b.scalar
    assert a.scalar_stderr == b.scalar_stderr


def test_antithetic_requires_even_paths():
    m = Euclidean(1)
    f = norm_squared_field(m)
    with pytest.raises(ValueError):
        estimate_pt(m, f, Point([0.0]), 0.2, n_paths=101, h=0.002, seed=1)
