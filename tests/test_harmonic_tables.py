"""Level-blocked spherical-harmonic evaluation against per-basis reference loops."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mheat.geometry import Sphere
from mheat.oracle import QuadratureGrid, quadrature_grid
from mheat.spectral import (
    SphereHarmonicTables,
    SphericalPolynomial,
    _monomials,
    _sphere_bochner_terms,
    harmonic_basis,
    random_spherical_polynomials,
    sphere_bochner_residual,
)
from mheat.verify import cz_scan

S2 = Sphere(2, 1.0)


def _poly_values(exps, C, X):
    # node values of the polynomials with coefficient columns C over exps
    return np.prod(X[:, None, :] ** exps[None], axis=2) @ C


def _poly_diff(exps, C, axis):
    # d/dx_axis by an exponent shift
    keep = exps[:, axis] > 0
    lower = exps[keep].copy()
    lower[:, axis] -= 1
    return lower, C[keep] * exps[keep, axis][:, None]


def _poly_fields(ell, X, frames):
    # the degree-ell harmonic basis, column by column, from exponent shifts
    exps, C = _monomials(ell), harmonic_basis(ell)
    vals = _poly_values(exps, C, X)
    amb = np.stack([_poly_values(*_poly_diff(exps, C, a), X) for a in range(3)], axis=1)
    D2 = np.zeros((X.shape[0], 3, 3, C.shape[1]))
    for a in range(3):
        da = _poly_diff(exps, C, a)
        for b in range(a, 3):
            vv = _poly_values(*_poly_diff(*da, b), X)
            D2[:, a, b] = vv
            D2[:, b, a] = vv
    Hf = np.einsum("nia,nabk,njb->nijk", frames, D2, frames)
    return (vals, amb - ell * vals[:, None, :] * X[:, :, None],
            Hf - ell * vals[:, None, None, :] * np.eye(2)[None, :, :, None])


def _tables_loop(grid, lmax):
    cols = [_poly_fields(ell, grid.nodes, grid.frames(S2)) for ell in range(lmax + 1)]
    return tuple(np.concatenate(c, axis=-1) for c in zip(*cols))


def _random_node_grid(n, seed):
    X = S2.random_points(np.random.default_rng(seed), n)
    return QuadratureGrid(X, np.full(n, 4.0 * math.pi / n), (n,), S2.kind)


@pytest.mark.parametrize("lmax", [0, 1, 2, 6, 10])
@pytest.mark.parametrize("make_grid", [lambda: quadrature_grid(S2, 10),
                                       lambda: _random_node_grid(100, 11)],
                         ids=["product-grid", "random-nodes"])
def test_tables_match_per_basis_evaluation(lmax, make_grid):
    grid = make_grid()
    tables = SphereHarmonicTables(grid, S2, lmax)
    assert tables.size == (lmax + 1) ** 2
    assert np.array_equal(tables.eigen,
                          [ell * (ell + 1) for ell in range(lmax + 1)
                           for _ in range(2 * ell + 1)])
    ref = _tables_loop(grid, lmax)
    for got, want in zip((tables.values, tables.hesses), (ref[0], ref[2])):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    plain = SphereHarmonicTables(grid, S2, lmax, with_derivs=False)
    assert plain.hesses is None
    assert np.array_equal(plain.values, tables.values)


@settings(max_examples=25, deadline=None)
@given(levels=st.sets(st.integers(0, 8), min_size=1),
       n_zero=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_spherical_polynomial_matches_per_basis_sum(levels, n_zero, seed):
    rng = np.random.default_rng(seed)
    terms = []
    for ell in sorted(levels):
        cvec = rng.standard_normal(2 * ell + 1)
        cvec[:n_zero] = 0.0
        terms.append((ell, cvec))
    u = SphericalPolynomial(terms)
    X = S2.random_points(rng, 20)
    frames = S2.frame(X)
    want = [np.zeros(20), np.zeros((20, 3)), np.zeros((20, 2, 2)), np.zeros(20)]
    for ell, cvec in terms:
        f, g, h = _poly_fields(ell, X, frames)
        for acc, term in zip(want, (f, g, h, ell * (ell + 1) * f)):
            acc += term @ cvec
    got = [u.values(X), u.grad_values(X), u.hess_values(X, frames), u.lap_values(X)]
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, float(np.max(np.abs(b))))


# golden values computed with per-basis polynomial evaluation (relative 1e-12)
CZSCAN_S2_GOLDEN = {
    0: (0.5052179057904707, 0.7748454712977857, 0.7442706222119558),
    1: (0.566644050432622, 0.7753969052866493, 0.7506656899791688),
    37: (0.5184614756143252, 0.7978629684677125, 0.7884250963174334),
    49: (0.5618300883561417, 0.7786879283111986, 0.7438459666441114),
    50: (0.6529450883897403, 0.797005044072636, 0.7752605512749796),
    111: (0.5638649876412029, 0.7887361763870628, 0.7614149714689833),
    163: (0.36979007483562704, 0.794235636525613, 0.7824943882258226),
    199: (0.5303088208433282, 0.7694328132863937, 0.7344155173976582),
}


def test_cz_scan_sphere_golden_fields():
    # the benchmark's sphere scan: degree 6, 200 fields, p = 4
    fam = random_spherical_polynomials(
        S2, 6, 200, np.random.Generator(np.random.Philox(key=2026)))
    rep = cz_scan(S2, fam, p=4.0, sigma=1.0, family_sizes=[50, 200])
    assert rep.passed
    for i, golden in CZSCAN_S2_GOLDEN.items():
        s = rep.samples[i]
        got = (s["lhs"], s["resolvent_ratio"], s["czp_ratio"])
        assert got == pytest.approx(golden, rel=1e-12, abs=0.0)
    assert rep.fitted_constant == pytest.approx(0.8421104200421218, rel=1e-12)


@pytest.mark.parametrize("p,golden", [
    (1.5, {50: 1.0127245400523337, 200: 1.0198804664129195}),
    (4.0, {50: 0.8568267261852188, 200: 0.8633612621548453}),
])
def test_criterion_11_sphere_running_max_golden(p, golden):
    fam = random_spherical_polynomials(
        S2, 8, 200, np.random.Generator(np.random.Philox(key=1111)))
    rep = cz_scan(S2, fam, p=p, sigma=1.0, family_sizes=[50, 200])
    rm = rep.aux_constants["running_max"]
    assert rm[50] == pytest.approx(golden[50], rel=1e-12)
    assert rm[200] == pytest.approx(golden[200], rel=1e-12)


def test_sphere_bochner_residual_golden():
    # the field of test_sphere_bochner_residual_pointwise; the residual is
    # round-off, so this pins the evaluation as well as the identity
    u = random_spherical_polynomials(
        S2, 4, 1, np.random.Generator(np.random.Philox(key=314)))[0]
    res = sphere_bochner_residual(u, quadrature_grid(S2, 20), S2)
    assert res == pytest.approx(1.7916779171400776e-12, rel=1e-12)


def _scan_peak(n_fields):
    fam = random_spherical_polynomials(
        S2, 6, n_fields, np.random.Generator(np.random.Philox(key=2026)))
    cz_scan(S2, fam[:40], p=4.0, sigma=1.0)  # harmonic bases and grid cached
    tracemalloc.start()
    try:
        cz_scan(S2, fam, p=4.0, sigma=1.0, family_sizes=[50, n_fields])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cz_scan_sphere_memory_does_not_grow_with_the_family():
    # fields are scanned 32 at a time; one block of all fields grew the
    # traced peak by 43.5 MB from 200 to 800 fields
    assert _scan_peak(800) - _scan_peak(200) < 2 ** 20


def test_cz_scan_sphere_blocks_match_per_field_evaluation():
    # 77 fields: one block of 32, then the remainder merged into a block of 45
    p, sigma = 4.0, 1.0
    fam = random_spherical_polynomials(
        S2, 4, 77, np.random.Generator(np.random.Philox(key=77)))
    rep = cz_scan(S2, fam, p=p, sigma=sigma, family_sizes=[20, 77])
    grid = quadrature_grid(S2, 28)
    X, frames = grid.nodes, grid.frames(S2)

    def norm(v):
        return float(np.sum(grid.weights * np.abs(v) ** p)) ** (1.0 / p)

    for f, s in zip(fam, rep.samples):
        u = f.resolvent(sigma)
        hess = norm(u.hess_hs_values(X, frames))
        want = (hess, norm(f.values(X)),
                hess / (sigma * norm(u.values(X)) + norm(u.lap_values(X))))
        got = (s["lhs"], s["rhs_no_const"], s["czp_ratio"])
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_bochner_terms_of_mixed_degrees_match_one_field_calls():
    # one expansion table for all fields; lower degrees read its leading columns
    rng = np.random.Generator(np.random.Philox(key=5))
    fields = [random_spherical_polynomials(S2, deg, 1, rng)[0] for deg in (3, 6, 2)]
    grid = quadrature_grid(S2, 28)
    terms = _sphere_bochner_terms(fields, grid, S2)
    assert [res for res, _ in terms] == [sphere_bochner_residual(u, grid, S2)
                                         for u in fields]
    for u, (_, peak) in zip(fields, terms):
        hs = u.hess_hs_values(grid.nodes, grid.frames(S2))
        assert peak == float(np.max(hs ** 2))


def test_bochner_gate_is_relative_to_the_hessian_scale():
    # degree 8, key 1111: residual 1.377e-8 against max |Hess f|^2 = 1279,
    # round-off that the absolute 1e-8 gate refused
    fam = random_spherical_polynomials(
        S2, 8, 200, np.random.Generator(np.random.Philox(key=1111)))
    rep = cz_scan(S2, fam, p=2.0, sigma=1.0)
    assert rep.aux_constants["bochner_residual"] > 1e-8
    assert rep.passed


def test_bochner_gate_catches_a_planted_hessian_error(monkeypatch):
    # the residual's Hessian term |Hess f|^2 scaled by 1 + 1e-6
    fam = random_spherical_polynomials(
        S2, 8, 200, np.random.Generator(np.random.Philox(key=1111)))
    hess_hs = SphericalPolynomial.hess_hs_values
    monkeypatch.setattr(SphericalPolynomial, "hess_hs_values",
                        lambda u, X, F: hess_hs(u, X, F) * math.sqrt(1.0 + 1e-6))
    rep = cz_scan(S2, fam, p=2.0, sigma=1.0)
    assert not rep.passed
