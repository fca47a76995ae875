"""Inequality verification harness: kernel bounds, weighted integrals,
off-diagonal decay, semigroup bounds, Kato functionals and CZ scans."""

import math

import numpy as np
import pytest

from mheat.geometry import (
    Euclidean,
    Hyperbolic,
    Point,
    Sphere,
    Torus,
    const_field,
    gaussian_bump_field,
    square_coordinate_field,
)
from mheat.oracle import lp_norm, quadrature_grid
from mheat.spectral import random_spherical_polynomials, random_trig_polynomials
from mheat.verify import (
    BoundCheckConfig,
    check_gaffney,
    check_kernel_bounds,
    check_semigroup_bounds,
    check_weighted_l2,
    curvature_squared_potential,
    cz_scan,
    kato_functional,
    ric_grad_squared_potential,
)


def rng():
    return np.random.Generator(np.random.Philox(key=2718))


# ---------------------------------------------------------------------------
# config invariants

def test_config_rejects_bad_gamma():
    with pytest.raises(ValueError, match="gamma"):
        BoundCheckConfig(alpha=0.2, gamma=0.6)
    with pytest.raises(ValueError, match="gamma"):
        BoundCheckConfig(alpha=0.2, gamma=0.4)  # boundary excluded
    BoundCheckConfig(alpha=0.24, gamma=0.3)  # fine


def test_config_rejects_bad_alpha_beta():
    with pytest.raises(ValueError, match="alpha"):
        BoundCheckConfig(alpha=0.3)
    with pytest.raises(ValueError, match="beta"):
        BoundCheckConfig(alpha=0.2, beta=0.45)
    cfg = BoundCheckConfig(alpha=0.2, beta=0.25)
    with pytest.raises(ValueError, match="tail"):
        cfg.require_tail_beta()


# ---------------------------------------------------------------------------
# kernel bounds

def test_kernel_bounds_flat_p_term_exact():
    m = Euclidean(2)
    cfg = BoundCheckConfig(alpha=0.2, beta=0.2,
                           t_grid=np.linspace(0.01, 4.0, 20),
                           rho_grid=np.linspace(0.0, 5.0, 20))
    rep1, rep2 = check_kernel_bounds(m, cfg)
    assert abs(rep1.aux_constants["p_term"] - 0.25) < 1e-6
    assert rep1.passed
    assert rep2.passed
    assert math.isfinite(rep2.fitted_constant)


def test_kernel_bounds_sphere_passes():
    m = Sphere(2, 1.0)
    cfg = BoundCheckConfig(alpha=0.2, beta=0.2,
                           t_grid=np.geomspace(0.05, 2.0, 12),
                           rho_grid=np.linspace(0.0, 2.4, 12))
    rep1, rep2 = check_kernel_bounds(m, cfg)
    assert rep1.passed and rep2.passed


def test_kernel_bounds_hyperbolic_c1_fit():
    m = Hyperbolic(3, 1.0)
    cfg = BoundCheckConfig(alpha=0.2, beta=0.2,
                           t_grid=np.geomspace(0.05, 1.5, 8),
                           rho_grid=np.linspace(0.0, 3.0, 8))
    rep1, rep2 = check_kernel_bounds(m, cfg)
    assert rep1.passed
    assert rep1.aux_constants["C1"] >= 0.0


# ---------------------------------------------------------------------------
# weighted L2 integrals

def _flat_weighted_integral_exact(s, gamma):
    # closed-form Gaussian moments for d = 2, y = 0
    a = (0.5 - gamma) / s
    c0 = (4.0 * math.pi * s) ** -2
    term_p = c0 * math.pi / a
    term_g = c0 / (4.0 * s) * math.pi / a ** 2
    term_l = c0 * (s ** 2 / (16 * s ** 4) * 2 * math.pi / a ** 3
                   - s ** 2 / (2 * s ** 3) * math.pi / a ** 2
                   + math.pi / a)
    return term_p + term_g + term_l


def test_weighted_l2_flat_matches_analytic():
    m = Euclidean(2)
    from mheat.oracle import kernel_on_grid
    grid = quadrature_grid(m, 90)
    s, gamma = 1.0, 0.3
    y = np.zeros(2)
    out = kernel_on_grid(m, grid.nodes, y, s, frames=grid.frames(m))
    rho2 = np.sum(grid.nodes ** 2, axis=1)
    gsq = np.sum(out["grad"] ** 2, axis=1)
    dens = (out["p"] ** 2 + s * gsq + s * s * out["lap"] ** 2) * np.exp(gamma * rho2 / s)
    val = grid.integrate(dens)
    exact = _flat_weighted_integral_exact(s, gamma)
    assert val == pytest.approx(exact, rel=1e-6)


def test_weighted_l2_torus_reports_pass():
    m = Torus(2)
    cfg = BoundCheckConfig(alpha=0.24, gamma=0.3, beta=0.12,
                           s_grid=np.geomspace(0.05, 2.0, 10),
                           t_grid=np.geomspace(0.05, 2.0, 6),
                           grid_resolution=48)
    r1, r2, r3 = check_weighted_l2(m, cfg)
    for rep in (r1, r2, r3):
        assert rep.passed, rep.inequality_id
        assert math.isfinite(rep.fitted_constant)


def test_weighted_l2_requires_gamma():
    m = Torus(2)
    cfg = BoundCheckConfig(alpha=0.24)
    with pytest.raises(ValueError, match="gamma"):
        check_weighted_l2(m, cfg)


# ---------------------------------------------------------------------------
# Gaffney off-diagonal estimates

def test_gaffney_torus_antipodal_caps():
    m = Torus(2)
    cfg = BoundCheckConfig(alpha=0.2, t_grid=np.geomspace(0.01, 1.0, 10))
    rep = check_gaffney(m, cfg, p=2.0, cap_radius=0.3)
    assert rep.passed
    assert rep.aux_constants["C4_fit"] > 0
    ratios = [s["ratio"] for s in sorted(rep.samples, key=lambda r: r["t"])]
    # decay toward t -> 0: increasing with t up to the peak
    imax = int(np.argmax(ratios))
    assert imax > 0
    assert all(a <= b + 1e-12 for a, b in zip(ratios[:imax], ratios[1:imax + 1]))


def test_gaffney_p4_finite():
    m = Torus(2)
    cfg = BoundCheckConfig(alpha=0.2, t_grid=np.geomspace(0.02, 1.0, 8))
    rep = check_gaffney(m, cfg, p=4.0, cap_radius=0.3)
    assert math.isfinite(rep.fitted_constant)


def test_gaffney_rejects_overlap():
    m = Torus(2)
    cfg = BoundCheckConfig(alpha=0.2, t_grid=np.geomspace(0.02, 1.0, 5))
    # the antipodal caps lie pi sqrt(2) ~ 4.44 apart, under two radii of 2.5
    with pytest.raises(ValueError, match="overlap"):
        check_gaffney(m, cfg, p=2.0, cap_radius=2.5)


# ---------------------------------------------------------------------------
# semigroup bounds

def test_semigroup_bounds_flat_square():
    m = Euclidean(2)
    f = square_coordinate_field(m)
    cfg = BoundCheckConfig(alpha=0.2, h=0.005)
    xs = [Point([0.0, 0.0]), Point([0.7, -0.3])]
    rep_a, rep_b, rep_c = check_semigroup_bounds(
        m, f, cfg, n_paths=4000, seed=5, x_list=xs, t_list=[0.25, 0.5])
    assert rep_a.passed
    assert rep_c.passed
    for r in rep_c.samples:
        if r["reliable"]:
            assert r["lhs"] <= r["rhs"] + 3.0 * r["stderr"]


def test_semigroup_bounds_constant_trivial():
    m = Sphere(2, 1.0)
    f = const_field(m, 1.0)
    cfg = BoundCheckConfig(alpha=0.2, h=0.005)
    rep_a, rep_b, rep_c = check_semigroup_bounds(
        m, f, cfg, n_paths=2000, seed=6, x_list=[Point(m.base_point())],
        t_list=[0.5])
    # Hess P_t 1 = 0 and both sides of the domination check vanish
    for r in rep_c.samples:
        assert r["lhs"] <= r["rhs"] + 3.0 * r["stderr"] + 1e-12


def test_semigroup_bounds_needs_paths():
    m = Euclidean(2)
    f = square_coordinate_field(m)
    cfg = BoundCheckConfig(alpha=0.2)
    with pytest.raises(ValueError, match="paths"):
        check_semigroup_bounds(m, f, cfg, n_paths=100, seed=1)


def test_semigroup_bounds_rejects_nonpositive_step():
    m = Euclidean(2)
    f = square_coordinate_field(m)
    cfg = BoundCheckConfig(alpha=0.2, h=-0.01)
    with pytest.raises(ValueError, match="step h"):
        check_semigroup_bounds(m, f, cfg, n_paths=1000, seed=5,
                               x_list=[Point([0.0, 0.0])], t_list=[0.25])


# ---------------------------------------------------------------------------
# Kato functionals

def test_kato_constant_potential_exact():
    m = Sphere(2, 1.0)
    pot = const_field(m, 0.7)
    t_list = [0.1 * k for k in range(1, 11)]
    res = kato_functional(m, pot, t_list, [Point(m.base_point())],
                          n_paths=1000, seed=3)
    for row in res.rows:
        assert row["functional"] == pytest.approx(0.7 * row["t"], rel=1e-12)
        assert row["expmom"] == pytest.approx(math.exp(0.7 * row["t"]), rel=1e-12)
    assert res.theta_fit == pytest.approx(0.7, rel=1e-9)
    assert res.c_fit == pytest.approx(1.0, rel=1e-9)
    assert res.nondecreasing
    assert res.vanishes_at_zero


def test_kato_zero_potential():
    m = Torus(2)
    res = kato_functional(m, const_field(m, 0.0), [0.2, 0.4],
                          [Point(m.base_point())], n_paths=1000, seed=4)
    assert res.rows[0]["functional"] == 0.0
    assert res.rows[0]["expmom"] == pytest.approx(1.0)
    assert abs(res.theta_fit) < 1e-12


def test_kato_curvature_potential_sphere():
    m = Sphere(2, 1.0)
    pot = curvature_squared_potential(m)
    res = kato_functional(m, pot, [0.25, 0.5, 1.0], [Point(m.base_point())],
                          n_paths=1000, seed=5)
    # |R| = 1 on the unit 2-sphere, so the functional is exactly t
    for row in res.rows:
        assert row["functional"] == pytest.approx(row["t"], rel=1e-12)
    assert res.theta_fit == pytest.approx(1.0, rel=1e-9)
    zero = ric_grad_squared_potential(m)
    assert zero.eval_fn(m.base_point()[None, :])[0] == 0.0


def test_kato_step_longer_than_horizon_walks_one_step():
    # round(t / h) = 0 is floored at one step, as in simulate
    m = Sphere(2, 1.0)
    res = kato_functional(m, const_field(m, 0.7), [0.0, 0.1],
                          [Point(m.base_point())], n_paths=1000, seed=3, h=0.3)
    assert res.rows[1]["functional"] == pytest.approx(0.07, rel=1e-12)


def test_kato_superadditivity_constants():
    m = Torus(2)
    pot = const_field(m, 0.5)
    res = kato_functional(m, pot, [0.2, 0.3, 0.5], [Point(m.base_point())],
                          n_paths=1000, seed=6)
    f = {round(r["t"], 10): r["functional"] for r in res.rows}
    assert f[0.5] == pytest.approx(f[0.2] + f[0.3], abs=1e-12)


@pytest.mark.parametrize("t_list", [[], [-0.5, 0.1, 1.0]], ids=["empty", "negative"])
def test_kato_rejects_bad_marks(t_list):
    # an empty list has no t_max, and a negative mark maps to a negative step
    # whose row would read 0; both fail before any walk, naming the key
    m = Sphere(2, 1.0)
    with pytest.raises(ValueError, match=r"^t_list = .*non-negative times"):
        kato_functional(m, const_field(m, 0.7), t_list, [Point(m.base_point())],
                        n_paths=1000, seed=3)


@pytest.mark.parametrize("t_list", [[], [0.0, 0.5], [-0.5]],
                         ids=["empty", "zero", "negative"])
def test_semigroup_bounds_rejects_bad_horizons(t_list):
    # an empty list would pass with no rows at all
    m = Euclidean(2)
    with pytest.raises(ValueError, match=r"^t_list = .*positive times"):
        check_semigroup_bounds(m, gaussian_bump_field(m), BoundCheckConfig(),
                               n_paths=1000, seed=1, t_list=t_list)


# ---------------------------------------------------------------------------
# CZ scans

def test_cz_scan_torus_p2_flat_equality():
    m = Torus(2)
    fam = random_trig_polynomials(m, 8, 20, rng())
    rep = cz_scan(m, fam, p=2.0, sigma=1.0)
    assert rep.passed
    for s in rep.samples:
        assert abs(s["hess_over_lap"] - 1.0) < 1e-10
    assert rep.aux_constants["bochner_residual"] <= 1e-8


def test_cz_scan_sphere_p2_harmonics():
    m = Sphere(2, 1.0)
    fam = random_spherical_polynomials(m, 4, 8, rng())
    rep = cz_scan(m, fam, p=2.0, sigma=1.0)
    assert rep.passed
    for s in rep.samples:
        # Ric >= 0: the L2 inequality holds with K = 0
        assert s["l2_bound_ratio"] <= 1.0 + 1e-10


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_cz_scan_stability_small(p):
    m = Torus(2)
    fam = random_trig_polynomials(m, 8, 60, rng())
    rep = cz_scan(m, fam, p=p, sigma=1.0, family_sizes=[20, 60])
    assert rep.passed
    assert math.isfinite(rep.fitted_constant)


def test_cz_scan_rejects_bad_input():
    m = Torus(2)
    fam = random_trig_polynomials(m, 4, 4, rng())
    with pytest.raises(ValueError, match="p must exceed"):
        cz_scan(m, fam, p=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        cz_scan(Sphere(2, 1.0), fam, p=2.0, sigma=1.0)


@pytest.mark.parametrize("sizes", [[], [0, 8], [-3, 8]],
                         ids=["empty", "zero", "negative"])
def test_cz_scan_rejects_bad_family_sizes(sizes):
    # [] had no running maximum at all, and a size below 1 was dropped,
    # leaving one entry for the stability gate to pass on
    fam = random_trig_polynomials(Torus(2), 4, 8, rng())
    with pytest.raises(ValueError, match=r"^family_sizes = .*positive sizes"):
        cz_scan(Torus(2), fam, p=4.0, sigma=1.0, family_sizes=sizes)


def test_cz_scan_torus3_p2_fails_before_the_scan():
    # the Bochner residual is for the 2-torus: p = 2 on T^3 is rejected with
    # the other input checks, before any node values are computed
    from unittest import mock

    from mheat import verify

    m = Torus(3)
    fam = random_trig_polynomials(m, 2, 8, rng())
    with mock.patch.object(verify, "_torus_scan_arrays") as scan:
        with pytest.raises(ValueError, match="2-torus"):
            cz_scan(m, fam, p=2.0, sigma=1.0)
    scan.assert_not_called()


def test_cz_scan_torus3_memory_is_blocked():
    # the phase matrix is built in node blocks: degree 1 on T^3 (26 modes on
    # the default 64^3 grid) peaked at +217 MB with one (nodes, modes) block
    import tracemalloc

    m = Torus(3)
    fam = random_trig_polynomials(m, 1, 4, rng())
    tracemalloc.start()
    try:
        rep = cz_scan(m, fam, p=4.0, sigma=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 64 * 2 ** 20
