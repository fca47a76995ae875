"""Source-batched kernel-Hessian quadrature and the separable torus kernel."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mheat import oracle, verify
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
from mheat.oracle import (
    OracleError,
    kernel_hess_quadrature,
    kernel_on_grid,
    lp_norm,
    quadrature_grid,
)
from mheat.verify import BoundCheckConfig, check_gaffney, check_semigroup_bounds

QUAD_MODELS = [Euclidean(2), Torus(2), Sphere(2, 1.0), Hyperbolic(3, 0.7)]


def _reference_quadrature(m, X, Y, coef, t):
    """Per-source loop: sum_j coef_j Hess_x p_t(x, Y_j) and the joint flag."""
    frames = m.frame(X)
    H = np.zeros((len(X), m.dim, m.dim))
    reliable = np.ones(len(X), dtype=bool)
    for y, c in zip(Y, coef):
        if c == 0.0:
            continue
        out = kernel_on_grid(m, X, y, t, frames=frames)
        H += c * out["hess"]
        if "reliable" in out:
            reliable &= out["reliable"]
    return H, reliable


def _sources(m, n_x, n_y, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    X = m.random_points(g, n_x, spread=1.0)
    Y = m.random_points(g, n_y, spread=1.0)
    coef = g.standard_normal(n_y)
    coef[::7] = 0.0
    return X, Y, coef


# ---------------------------------------------------------------------------
# (a) batched quadrature equals the per-source kernel_on_grid loop

@pytest.mark.parametrize("t", [0.01, 0.25, 1.0])
@pytest.mark.parametrize("m", QUAD_MODELS, ids=lambda m: m.describe())
def test_quadrature_matches_per_source_loop(m, t):
    n_x = 40
    n_y = oracle._PAIR_BLOCK // n_x + 200  # two source blocks
    X, Y, coef = _sources(m, n_x, n_y, seed=11)
    H, reliable = kernel_hess_quadrature(m, X, Y, coef, t)
    H_ref, rel_ref = _reference_quadrature(m, X, Y, coef, t)
    assert H.shape == (n_x, m.dim, m.dim)
    assert np.max(np.abs(H - H_ref)) <= 1e-12 * np.max(np.abs(H_ref))
    np.testing.assert_array_equal(reliable, rel_ref)


@pytest.mark.parametrize("m", QUAD_MODELS, ids=lambda m: m.describe())
def test_quadrature_blocks_targets(m, monkeypatch):
    # a block smaller than the target count splits the targets as well
    monkeypatch.setattr(oracle, "_PAIR_BLOCK", 16)
    X, Y, coef = _sources(m, 40, 30, seed=12)
    H, reliable = kernel_hess_quadrature(m, X, Y, coef, 0.25)
    H_ref, rel_ref = _reference_quadrature(m, X, Y, coef, 0.25)
    assert np.max(np.abs(H - H_ref)) <= 1e-12 * np.max(np.abs(H_ref))
    np.testing.assert_array_equal(reliable, rel_ref)


def test_quadrature_skips_zero_coefficients():
    # an unreliable pair with a zero coefficient does not clear the flag
    m = Sphere(2, 1.0)
    x = m.base_point()
    X = np.stack([x, x])
    Y = np.stack([-x, x])
    _, rel = kernel_hess_quadrature(m, X, Y, np.array([1.0, 1.0]), 0.01)
    assert not rel.any()
    H, rel = kernel_hess_quadrature(m, X, Y, np.array([0.0, 1.0]), 0.01)
    assert rel.all()
    H_ref, _ = _reference_quadrature(m, X, Y[1:], [1.0], 0.01)
    np.testing.assert_allclose(H, H_ref, rtol=1e-14)


def test_quadrature_rejects_other_models():
    # H^d has a kernel core for d in {2, 3} only
    m = Hyperbolic(4, 1.0)
    X = m.random_points(np.random.default_rng(0), 3, spread=0.5)
    with pytest.raises(OracleError, match="kernel oracle"):
        kernel_hess_quadrature(m, X, X, np.ones(3), 0.5)


# ---------------------------------------------------------------------------
# (a') the H^d pair core against the log-and-frame route it replaced

def _log_frame_fields(m, X, y, t, frames):
    """Kernel fields of H^2 / H^3 at fixed y: radial derivatives in rho
    (closed form on H^3, Richardson differences of the integral on H^2),
    assembled in frame coordinates through log_x y."""
    a, d = m.scale, m.dim
    rho = m.distance(X, np.broadcast_to(y, X.shape))
    if d == 3:
        p1, dp1, d2p1, pt1 = oracle._h3_core(a * rho, a * a * t)
        p, dp, d2p, pt = a ** 3 * p1, a ** 4 * dp1, a ** 5 * d2p1, a ** 5 * pt1
    else:
        def pfun(r, s=t):
            return a ** 2 * oracle._h2_core_p(a * r, a * a * s)

        hr = 1e-3

        def rich(rule, step):
            return (4.0 * rule(step / 2) - rule(step)) / 3.0

        p = pfun(rho)
        dp = rich(lambda h: (pfun(rho + h) - pfun(np.abs(rho - h))) / (2 * h), hr)
        dp = np.where(rho < hr, dp * (rho / hr), dp)
        d2p = rich(lambda h: (pfun(rho + h) - 2 * pfun(rho)
                              + pfun(np.abs(rho - h))) / h ** 2, hr)
        pt = rich(lambda h: (pfun(rho, t + h) - pfun(rho, t - h)) / (2 * h),
                  1e-3 * max(t, 0.1))
    small = rho < 1e-8
    r = np.where(small, 1.0, rho)
    away = -m.log(X, np.broadcast_to(y, X.shape)) / r[:, None]
    drho = np.einsum("nda,na->nd", frames * m.metric_sign(), away)
    eye = np.eye(d)
    hess = (d2p[:, None, None] * drho[:, :, None] * drho[:, None, :]
            + (dp * a / np.tanh(a * r))[:, None, None]
            * (eye - drho[:, :, None] * drho[:, None, :]))
    hess = np.where(small[:, None, None], d2p[:, None, None] * eye, hess)
    grad = np.where(small[:, None], 0.0, dp[:, None] * away)
    return {"p": p, "dp_dt": pt, "grad": grad,
            "lap": -np.einsum("nii->n", hess), "hess": hess}


def _transported_frames(m, X):
    """The base point's frame carried to each x along the geodesic: exact to
    round-off even where ``m.frame`` loses orthonormality (far H^2 grid
    nodes), so the comparison below measures the kernel cores alone."""
    o = np.broadcast_to(m.base_point(), X.shape)
    U = m.log(o, X)
    return np.stack([m.transport(o, U, np.broadcast_to(e, X.shape))
                     for e in m.frame(o[:1])[0]], axis=1)


def _hyperbolic_targets(m):
    # H^2: the L^p report's grid, nodes out to x0 = 7.3e4 at a = 1; H^3:
    # geodesic rays from the base point out to radius 11.9 (x0 = 7.4e4)
    if m.dim == 2:
        return quadrature_grid(m, 12).nodes
    g = np.random.Generator(np.random.Philox(key=31))
    U = np.zeros((60, 4))
    U[:, :3] = g.standard_normal((60, 3))
    U *= (np.linspace(0.05, 11.9, 60) / np.linalg.norm(U, axis=1))[:, None]
    return m.exp(np.broadcast_to(m.base_point(), U.shape), U)


# max |core - log-and-frame| / max |log-and-frame| per field, over t in
# {0.05, 0.25, 1}, a in {1, 0.5} and sources at the base point, a mid node,
# the farthest node, a target itself (rho = 0) and rho = 2e-3 from it.
# Measured: H^2 3.2e-4 (Hessian and Laplacian at rho = 2e-3, a = 0.5; the
# Richardson differences amplify the rule's ~1e-12 noise when rho moves by
# an ulp), 6.2e-6 for p, dp_dt and grad; H^3 4.7e-7 (Hessian at the
# farthest node, where coordinates carry ~eps |x|^2 of round-off).
HYPERBOLIC_CORE_TOL = {2: 1e-3, 3: 2e-6}


@pytest.mark.parametrize("a", [1.0, 0.5])
@pytest.mark.parametrize("d", [2, 3])
def test_hyperbolic_core_matches_log_frame_route(d, a):
    m = Hyperbolic(d, a)
    X = _hyperbolic_targets(m)
    frames = _transported_frames(m, X)
    sources = [m.base_point(), X[len(X) // 2], X[-1], X[7],
               m.exp(X[7:8], 2e-3 * frames[7, :1])[0]]
    for t in (0.05, 0.25, 1.0):
        for y in sources:
            out = kernel_on_grid(m, X, y, t, frames=frames)
            ref = _log_frame_fields(m, X, y, t, frames)
            for key, want in ref.items():
                err = np.max(np.abs(out[key] - want)) / np.max(np.abs(want))
                assert err <= HYPERBOLIC_CORE_TOL[d], (key, t)


@pytest.mark.parametrize("d", [2, 3])
def test_hyperbolic_hessian_on_diagonal_limit(d):
    # Hess_x p_t(x, y) -> p''(0) g as y -> x.  The log-and-frame route
    # tapered p' below rho = 1e-3 on H^2, so its tangential eigenvalue there
    # was p''(0) rho / 1e-3 instead of p''(0)
    m = Hyperbolic(d, 1.0)
    x = m.random_points(np.random.default_rng(3), 1, spread=0.8)
    F = m.frame(x)
    H0 = kernel_on_grid(m, x, x[0], 0.25, frames=F)["hess"][0]
    np.testing.assert_allclose(H0, H0[0, 0] * np.eye(d), atol=1e-12)
    for eps in (1e-7, 1e-5, 5e-4):
        y = m.exp(x, eps * F[:, 0])[0]
        H = kernel_on_grid(m, x, y, 0.25, frames=F)["hess"][0]
        assert np.max(np.abs(H - H0)) <= 1e-6 * abs(H0[0, 0]), eps


def test_h2_quadrature_matches_per_source_loop(monkeypatch):
    # H^3 is in QUAD_MODELS.  On H^2 a matmul inside the integral rule
    # rounds a row differently in batches of different sizes, and the
    # Richardson second difference amplifies that ulp by ~1/hr^2: measured
    # 6.5e-10 of max |H| at t = 1, so the bound is 5e-9 instead of 1e-12
    monkeypatch.setattr(oracle, "_PAIR_BLOCK", 256)  # several pair blocks
    m = Hyperbolic(2, 1.0)
    X, Y, coef = _sources(m, 30, 50, seed=13)
    for t in (0.1, 1.0):
        H, reliable = kernel_hess_quadrature(m, X, Y, coef, t)
        H_ref, _ = _reference_quadrature(m, X, Y, coef, t)
        assert reliable.all()
        assert np.max(np.abs(H - H_ref)) <= 5e-9 * np.max(np.abs(H_ref)), t


# ---------------------------------------------------------------------------
# (b) separable torus fields equal the d-dimensional image-cube sum

def _cube_fields(D, t):
    """Wrapped-Gaussian fields as one sum over the (2k + 1)^d image cube."""
    n, d = D.shape
    reach = math.sqrt(4.0 * t * 37.0) + math.pi * math.sqrt(d)
    kmax = max(1, int(math.ceil(reach / (2.0 * math.pi))))
    c0 = (4.0 * math.pi * t) ** (-d / 2)
    p = np.zeros(n)
    grad = np.zeros((n, d))
    lap_geo = np.zeros(n)
    hess = np.zeros((n, d, d))
    for k in itertools.product(range(-kmax, kmax + 1), repeat=d):
        E = D + 2.0 * math.pi * np.asarray(k, dtype=float)
        rho2 = np.sum(E * E, axis=1)
        pk = c0 * np.exp(-rho2 / (4.0 * t))
        p += pk
        grad += -pk[:, None] * E / (2.0 * t)
        lap_geo += pk * (rho2 / (4.0 * t * t) - d / (2.0 * t))
        hess += pk[:, None, None] * (E[:, :, None] * E[:, None, :] / (4.0 * t * t)
                                     - np.eye(d) / (2.0 * t))
    return {"p": p, "dp_dt": lap_geo, "grad": grad, "lap": -lap_geo, "hess": hess}


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), t=st.floats(0.005, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_torus_separable_equals_image_cube(d, t, seed):
    m = Torus(d)
    g = np.random.default_rng(seed)
    X = g.uniform(0.0, 2.0 * math.pi, (16, d))
    y = g.uniform(0.0, 2.0 * math.pi, d)
    out = kernel_on_grid(m, X, y, t)
    ref = _cube_fields(m.wrap(X - y[None, :]), t)
    for key, want in ref.items():
        scale = np.max(np.abs(want))
        assert np.max(np.abs(out[key] - want)) <= 1e-13 * scale, key


# ---------------------------------------------------------------------------
# (b') the 1-d image sums against a wide sum of per-image terms, and the
# image rule.  D spreads over three periods, which exercises the periodic
# reduction; t runs from underflowing images to many comparable ones
THETA_TS = [0.002, 0.01, 0.05, 0.25, 1.0, 4.0, 16.0]


def _wide_theta_terms(D, t, kmax=12):
    """Per-image terms of theta, theta' and theta'' over |k| <= kmax, and
    the two parts g E^2 / 4t^2 and g / 2t of each theta'' term."""
    c = (4.0 * math.pi * t) ** -0.5
    terms = ([], [], [], [])
    for s in np.arange(-kmax, kmax + 1) * 2.0 * math.pi:
        E = D + s
        g = c * np.exp(-E * E / (4.0 * t))
        terms[0].append(g)
        terms[1].append(-g * E / (2.0 * t))
        terms[2].append(g * (E * E / (4.0 * t * t) - 1.0 / (2.0 * t)))
        terms[3].append(g * (E * E / (4.0 * t * t) + 1.0 / (2.0 * t)))
    return [np.array(x) for x in terms]


@pytest.mark.parametrize("t", THETA_TS)
def test_theta_matches_wide_image_sum(t):
    g = np.random.default_rng(17)
    D = np.concatenate([np.linspace(-3.0 * math.pi, 3.0 * math.pi, 1201),
                        g.uniform(-3.0 * math.pi, 3.0 * math.pi, 800)])
    got = oracle._theta(D, t, oracle._torus_images(t))
    th, th1, th2, th2_parts = _wide_theta_terms(D, t)
    # the error scale is the sum of the absolute summands; a theta'' term is
    # itself the difference of its two parts, which cancel at E^2 = 2t, so
    # its scale counts both.  1e-290 absorbs subnormal round-off where every
    # image underflows (t = 0.002, |D| near pi)
    scales = (np.sum(np.abs(th), axis=0), np.sum(np.abs(th1), axis=0),
              np.sum(th2_parts, axis=0))
    for k, (val, terms, scale) in enumerate(zip(got, (th, th1, th2), scales)):
        err = np.abs(val - np.sum(terms, axis=0))
        assert np.all(err <= 1e-14 * scale + 1e-290), (k, float(np.max(err / scale)))


@pytest.mark.parametrize("t", THETA_TS + [0.123, 2.5, 40.0, 1e3])
def test_torus_image_rule_omits_below_e45(t):
    shifts = oracle._torus_images(t)
    kmax = len(shifts) // 2
    np.testing.assert_array_equal(shifts, np.arange(-kmax, kmax + 1) * 2.0 * math.pi)
    assert kmax >= 1
    # the smallest such count: one image fewer would omit more than e^-45
    assert kmax == 1 or math.pi ** 2 * (kmax - 1) * kmax / t < 45.0
    # over reduced differences |D| <= pi, the first omitted image's Gaussian
    # factor exp(-E^2 / 4t) is at most e^-45 of the nearest kept one's
    D = np.linspace(-math.pi, math.pi, 2001)
    nearest = np.min(np.abs(D[:, None] + shifts[None, :]), axis=1)
    first_out = np.minimum(np.abs(D + 2.0 * math.pi * (kmax + 1)),
                           np.abs(D - 2.0 * math.pi * (kmax + 1)))
    log_ratio = (first_out ** 2 - nearest ** 2) / (4.0 * t)
    assert np.min(log_ratio) >= 45.0 * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# (b'') the Hessian operator norm of the verify layer against the SVD

def _opnorm_batches():
    g = np.random.default_rng(23)
    A = g.standard_normal((500, 2, 2))
    u, v = g.standard_normal((2, 500, 2))
    return {
        "asymmetric": A * np.exp(g.uniform(-20.0, 20.0, (500, 1, 1))),
        "symmetric": A + A.transpose(0, 2, 1),
        "zero": np.zeros((7, 2, 2)),
        "rank-one": u[:, :, None] * v[:, None, :],
        "3x3": g.standard_normal((200, 3, 3)),
    }


@pytest.mark.parametrize("name", list(_opnorm_batches()))
def test_opnorm_matches_svd_norm(name):
    H = _opnorm_batches()[name]
    got = verify._opnorm(H)
    want = np.linalg.norm(H, ord=2, axis=(1, 2))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * want)


# ---------------------------------------------------------------------------
# (c) sphere Gaffney: t-nodes where the spectral sum cancels leave the fit

def test_gaffney_sphere_drops_unreliable_nodes():
    m = Sphere(2, 1.0)
    cfg = BoundCheckConfig(alpha=0.2, t_grid=np.geomspace(0.01, 1.0, 6))
    rep = check_gaffney(m, cfg, p=2.0)
    assert rep.passed, rep.notes
    assert "monotone=True" in rep.notes
    dropped = [s["t"] for s in rep.samples if not s["reliable"]]
    assert dropped and max(dropped) < 0.07
    assert f"unreliable_t_nodes={len(dropped)}" in rep.notes
    kept = [s["ratio"] for s in rep.samples if s["reliable"]]
    assert rep.fitted_constant == max(kept)
    c4 = rep.aux_constants["C4_fit"]
    assert c4 == pytest.approx(0.1708, abs=5e-4)
    assert rep.aux_constants["C4_refined"] == pytest.approx(c4, rel=1e-3)


# ---------------------------------------------------------------------------
# golden values of the per-source quadrature these checks replaced

GOLDEN_GAFFNEY = {
    # the benchmark's torus case: p = 4, three t-nodes, a generic cap centre
    "t2-p4-three-nodes": (np.geomspace(0.01, 0.25, 3), 4.0, [0.7, 2.9],
                          0.2559650638664119, 0.2559346284221226,
                          [0.0, 5.378578818824635e-35, 1.2174214723137708e-08]),
    # criterion 07's grid at p = 2, default antipodal caps
    "t2-p2-criterion-07": (np.geomspace(0.01, 1.0, 10), 2.0, None,
                           0.256096722938632, 0.25604899235935313,
                           [0.0, 5.559143713436562e-101, 1.1698727860385141e-61,
                            5.80808350963644e-38, 1.1471691805322994e-23,
                            4.742723621374266e-15, 6.811880776294691e-10,
                            7.416659561477565e-07, 3.8918476378007566e-05,
                            0.0002908590219967572]),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_GAFFNEY))
def test_gaffney_golden(case):
    t_grid, p, centre, c4_fit, c4_refined, lhs = GOLDEN_GAFFNEY[case]
    centerE = None if centre is None else np.array(centre)
    rep = check_gaffney(Torus(2), BoundCheckConfig(alpha=0.2, t_grid=t_grid),
                        p=p, cap_radius=0.3, centerE=centerE)
    assert rep.passed, rep.notes
    assert rep.aux_constants["C4_fit"] == pytest.approx(c4_fit, rel=1e-10)
    assert rep.aux_constants["C4_refined"] == pytest.approx(c4_refined, rel=1e-10)
    for s, want in zip(rep.samples, lhs):
        if want == 0.0:
            # an underflowed norm stays exactly 0 and out of the log fit
            assert s["lhs"] == 0.0, s["t"]
        else:
            assert s["lhs"] == pytest.approx(want, rel=1e-10), s["t"]


def test_semigroup_lp_golden_flat_square():
    m = Euclidean(2)
    cfg = BoundCheckConfig(alpha=0.2, h=0.005)
    _, rep_b, _ = check_semigroup_bounds(
        m, square_coordinate_field(m), cfg, n_paths=4000, seed=5,
        x_list=[Point([0.0, 0.0]), Point([0.7, -0.3])], t_list=[0.25, 0.5])
    lhs = [r["lhs"] for r in rep_b.samples]
    assert lhs == pytest.approx([81.8799498401261, 98.47870225662953], rel=1e-10)


def test_semigroup_lp_constant_sphere_vanishes():
    # Hess P_t 1 = 0: the quadrature leaves only round-off
    m = Sphere(2, 1.0)
    cfg = BoundCheckConfig(alpha=0.2, h=0.005)
    _, rep_b, _ = check_semigroup_bounds(
        m, const_field(m, 1.0), cfg, n_paths=2000, seed=6,
        x_list=[Point(m.base_point())], t_list=[0.5])
    assert rep_b.samples
    assert all(r["lhs"] <= 1e-12 for r in rep_b.samples)


def test_semigroup_lp_hyperbolic_by_quadrature():
    # on H^2 this report once ran a Monte Carlo walk from every grid node,
    # and the walks from the far nodes (x0 = 7.3e4) diverged at step 8
    m = Hyperbolic(2, 1.0)
    f = gaussian_bump_field(m, lam=1.5)
    _, rep_b, _ = check_semigroup_bounds(
        m, f, BoundCheckConfig(alpha=0.2, h=0.02), n_paths=9000, seed=11,
        t_list=[0.1, 0.2])
    assert [r["t"] for r in rep_b.samples] == [0.1, 0.2]
    for r in rep_b.samples:
        assert r["provenance"] == "quadrature"
        assert 0.0 < r["lhs"] < math.inf and math.isfinite(r["ratio"])
    assert rep_b.passed


def test_hyperbolic_hess_field_norm_stable_under_refinement():
    # the L2 norm of |Hess P_t f| on the report's grid (resolution 12)
    # against resolution 16; measured 0.48687 against 0.49296 at t = 1
    # (1.2%) and 1.6063 against 1.6121 at t = 0.25 (0.4%)
    m = Hyperbolic(2, 1.0)
    f = gaussian_bump_field(m, lam=1.5)
    coarse, fine = (lp_norm(g, verify._hess_field_norm(m, f, 1.0, g), 2)
                    for g in (quadrature_grid(m, 12), quadrature_grid(m, 16)))
    assert abs(coarse - fine) <= 0.025 * fine
