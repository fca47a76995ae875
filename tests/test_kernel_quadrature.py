"""Source-batched kernel-Hessian quadrature and the separable torus kernel."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mheat import oracle
from mheat.geometry import (
    Euclidean,
    Hyperbolic,
    Point,
    Sphere,
    Torus,
    const_field,
    square_coordinate_field,
)
from mheat.oracle import OracleError, kernel_hess_quadrature, kernel_on_grid
from mheat.verify import BoundCheckConfig, check_gaffney, check_semigroup_bounds

QUAD_MODELS = [Euclidean(2), Torus(2), Sphere(2, 1.0)]


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
    m = Hyperbolic(2, 1.0)
    X = m.random_points(np.random.default_rng(0), 3, spread=0.5)
    with pytest.raises(OracleError, match="batched"):
        kernel_hess_quadrature(m, X, X, np.ones(3), 0.5)


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
