"""The shared path layer: one chunk scheduler and one W step.

Golden values were computed with the per-pair W loop and the serial chunk
loops that the batched W step and the ordered chunk map replace; they are
compared bitwise through ``float.hex``.
"""

import numpy as np
import pytest

from mheat import verify
from mheat.geometry import (
    Hyperbolic,
    Point,
    Sphere,
    TangentVector,
    gaussian_bump_field,
)
from mheat.semigroup import estimate_hess
from mheat.verify import (
    BoundCheckConfig,
    _semigroup_samples,
    check_semigroup_bounds,
    kato_functional,
)


def _model(kind):
    return {"h2": Hyperbolic(2, 1.0), "s2": Sphere(2, 1.0), "s3": Sphere(3, 1.0)}[kind]


def _point(m, key):
    g = np.random.Generator(np.random.Philox(key=key))
    return m.random_points(g, 1, spread=0.5)[0]


def _hex(values):
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


SAMPLE_KEYS = ("hess", "hess_se", "pt_f2", "pt_f2_se", "pt_gradsq",
               "pt_gradsq_se", "pt_hess2", "pt_hess2_se", "wsup")


def _semigroup_case(kind):
    # 8300 paths: two chunks of verify's Monte Carlo fold
    m = _model(kind)
    f = gaussian_bump_field(m, center=_point(m, 11), lam=1.5)
    sm = _semigroup_samples(m, f, Point(_point(m, 12)), 0.1, 8300, 0.02, seed=2024)
    return {k: _hex(sm[k]) for k in SAMPLE_KEYS}


KATO_COLUMNS = ("t", "functional", "functional_se", "expmom", "expmom_se",
                "dropped")


def _kato_case():
    # 16500 paths: two chunks; three steps keep it cheap
    m = Sphere(2, 1.0)
    pot = gaussian_bump_field(m, center=_point(m, 21), lam=2.0)
    res = kato_functional(m, pot, [0.02, 0.04, 0.06], [Point(_point(m, 22))],
                          n_paths=16500, seed=77, h=0.02)
    rows = [_hex([r[c] for c in KATO_COLUMNS]) for r in res.rows]
    return {"rows": rows, "fit": _hex([res.c_fit, res.theta_fit])}


def _hess_case(kind, mode):
    m = _model(kind)
    f = gaussian_bump_field(m, center=_point(m, 31), lam=1.5)
    x = _point(m, 32)
    F = m.frame(x[None, :])[0]
    v = TangentVector(Point(x), F[0])
    w = TangentVector(Point(x), 0.6 * F[0] + 0.8 * F[1])
    est = estimate_hess(m, f, Point(x), v, w, 0.1, None, mode, n_paths=2048,
                        h=0.01, seed=909, chunk_size=512)
    return _hex([est.value, est.stderr])


GOLDEN_SAMPLES = {
    "h2": {
        "hess": [
            '-0x1.9d002bab3d871p-1', '0x1.029b18102c576p-3', '0x1.00c7ad89aaf5dp-3',
            '-0x1.b4cedec46fda4p-1',
        ],
        "hess_se": [
            '0x1.0e6c866870759p-7', '0x1.6ae391c3c3ef4p-9', '0x1.92979fe0d4738p-9',
            '0x1.048dfd174618ep-7',
        ],
        "pt_f2": ['0x1.02a2fe01857d8p-1'],
        "pt_f2_se": ['0x1.9f3a2b9e7e973p-9'],
        "pt_gradsq": ['0x1.bc699a380fdc1p-2'],
        "pt_gradsq_se": ['0x1.138c3a95836fep-9'],
        "pt_hess2": ['0x1.2050ef2d81f1cp+1'],
        "pt_hess2_se": ['0x1.7c9fc6b163496p-7'],
        "wsup": ['0x1.01794c9e215b5p-1'],
    },
    "s3": {
        "hess": [
            '0x1.c0ba509a7d0f7p-4', '0x1.2e878b4b30b23p-12', '0x1.20d9d7bbf4edfp-12',
            '0x1.535b7391980dcp-12', '0x1.e706bb4afd644p-4', '0x1.4a5fb8c7f3ed7p-7',
            '0x1.07f16737b10f3p-12', '0x1.49986c6178d42p-7', '0x1.ee9a045bfb406p-4',
        ],
        "hess_se": [
            '0x1.61ee2c9a2bf21p-11', '0x1.44be7be2e928dp-13', '0x1.51a760a69289ap-13',
            '0x1.c306711df6d7fp-14', '0x1.84991c613943ap-11', '0x1.9eab0682954ddp-13',
            '0x1.fff78648635f7p-14', '0x1.a175b681b321dp-13', '0x1.8b1f86c21c54ep-11',
        ],
        "pt_f2": ['0x1.2d4579d40de78p-7'],
        "pt_f2_se": ['0x1.12b7ae764ad66p-13'],
        "pt_gradsq": ['0x1.df324092c9499p-7'],
        "pt_gradsq_se": ['0x1.2e2aed2259a00p-12'],
        "pt_hess2": ['0x1.df8502414a4d7p-5'],
        "pt_hess2_se": ['0x1.2a5cf31820a26p-11'],
        "wsup": ['0x1.388fb4cb839d8p+0'],
    },
}

GOLDEN_KATO = {
    "rows": [
        [
            '0x1.47ae147ae147bp-6', '0x1.27cdee57eed48p-7', '0x1.605acd1b8ad9ep-17',
            '0x1.025258ec1ee39p+0', '0x1.63a43e739901bp-17', '0x0.0p+0',
        ],
        [
            '0x1.47ae147ae147bp-5', '0x1.272210b72bf56p-6', '0x1.0e003bfa83a59p-15',
            '0x1.04a7ccba95976p+0', '0x1.131f3a7d21e60p-15', '0x0.0p+0',
        ],
        [
            '0x1.eb851eb851eb8p-5', '0x1.b94d5bb238eb1p-6', '0x1.e4fd67e143c69p-15',
            '0x1.06ff0e0668aa7p+0', '0x1.f2f607f55c517p-15', '0x0.0p+0',
        ],
    ],
    "fit": ['0x1.000493c7c988fp+0', '0x1.cb1ee999649f2p-2'],
}

GOLDEN_HESS = {
    ("s2", "bismut"): ['-0x1.14ddb70fd46bep-2', '0x1.85cef5f0e4037p-3'],
    ("s2", "mixed"): ['-0x1.ddac65ec5a5d5p-2', '0x1.3f15e18598cdcp-7'],
    ("h2", "bismut"): ['-0x1.354ea814d567bp-2', '0x1.99977ac68386ep-3'],
    ("h2", "mixed"): ['-0x1.fec62f0a2a6bcp-2', '0x1.57c58e119acf2p-7'],
}


@pytest.mark.parametrize("kind", ["h2", "s3"])
def test_semigroup_samples_golden(kind):
    # H^2 takes the d = 2 angle sup of E|W(v, w)|^2, S^3 the trace
    assert _semigroup_case(kind) == GOLDEN_SAMPLES[kind]


def test_kato_functional_golden():
    assert _kato_case() == GOLDEN_KATO


@pytest.mark.parametrize("kind", ["s2", "h2"])
@pytest.mark.parametrize("mode", ["bismut", "mixed"])
def test_estimate_hess_golden(kind, mode):
    assert _hess_case(kind, mode) == GOLDEN_HESS[(kind, mode)]


# ---------------------------------------------------------------------------
# thread invariance of verify's Monte Carlo

def _report_hex(reports):
    out = []
    for rep in reports:
        for row in rep.samples:
            out.append({k: (float(v).hex() if isinstance(v, float) else v)
                        for k, v in row.items()})
        out.append((rep.passed, float(rep.fitted_constant).hex()))
    return out


@pytest.mark.parametrize("threads", [2, 4])
def test_semigroup_bounds_thread_invariant(monkeypatch, threads):
    # a 500-path chunk gives five chunks for the pool to reorder
    monkeypatch.setattr(verify, "SEMIGROUP_CHUNK", 500)
    m = Hyperbolic(2, 1.0)
    f = gaussian_bump_field(m, lam=1.5)
    cfg = BoundCheckConfig(alpha=0.2, h=0.02)

    def run(n_threads):
        return _report_hex(check_semigroup_bounds(
            m, f, cfg, n_paths=2300, seed=5, t_list=[0.1, 0.2],
            x_list=[Point(_point(m, 41))], include_lp=False, threads=n_threads))

    assert run(threads) == run(1)


@pytest.mark.parametrize("threads", [2, 4])
def test_kato_functional_thread_invariant(monkeypatch, threads):
    monkeypatch.setattr(verify, "KATO_CHUNK", 400)
    m = Sphere(2, 1.0)
    pot = gaussian_bump_field(m, center=_point(m, 51), lam=2.0)

    def run(n_threads):
        res = kato_functional(m, pot, [0.02, 0.04], [Point(m.base_point())],
                              n_paths=2100, seed=8, h=0.02, threads=n_threads)
        return [_hex([r[c] for c in KATO_COLUMNS]) for r in res.rows]

    assert run(threads) == run(1)


# ---------------------------------------------------------------------------
# the L^p report's grid: only an unsupported model is skipped

def test_semigroup_bounds_lp_skipped_on_unsupported_model():
    m = Sphere(3, 1.0)
    f = gaussian_bump_field(m, lam=1.5)
    _, rep_b, _ = check_semigroup_bounds(
        m, f, BoundCheckConfig(alpha=0.2, h=0.05), n_paths=1000, seed=3,
        t_list=[0.1], x_list=[Point(m.base_point())])
    assert rep_b.samples == [] and not rep_b.passed


def test_semigroup_bounds_grid_errors_propagate(monkeypatch):
    def broken(m, resolution):
        raise TypeError("broken quadrature grid")

    monkeypatch.setattr(verify, "quadrature_grid", broken)
    m = Sphere(2, 1.0)
    f = gaussian_bump_field(m, lam=1.5)
    with pytest.raises(TypeError, match="broken"):
        check_semigroup_bounds(m, f, BoundCheckConfig(alpha=0.2, h=0.05),
                               n_paths=1000, seed=3, t_list=[0.1],
                               x_list=[Point(m.base_point())])
