"""The shared path layer: one chunked walk with observers, and one W step.

Golden values were computed with the per-pair W loop, the serial chunk
loops, the per-estimator chunk workers and the single-block ``simulate``
that the batched W step and ``_walk_chunks`` replace; they are compared
bitwise through ``float.hex``.
"""

import ast
import pathlib
import warnings

import numpy as np
import pytest

import mheat
from mheat import semigroup, verify
from mheat.cli import run_config
from mheat.geometry import (
    Hyperbolic,
    Point,
    Sphere,
    TangentVector,
    coordinate_field,
    gaussian_bump_field,
)
from mheat.semigroup import (
    HessianEstimatorConfig,
    _walk_chunks,
    estimate_endpoint,
    estimate_grad,
    estimate_green_hess,
    estimate_hess,
    estimate_pt,
)
from mheat.transport import ChunkWalk, WalkGroup, _grid_steps
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


@pytest.mark.parametrize("kind", ["h2", "s3"])
def test_semigroup_samples_match_mixed_estimates(kind):
    # verify's frame-pair Hessian is the mixed estimator's, pair by pair; the
    # frame vectors' ambient components carry round-off, hence not bitwise
    m = _model(kind)
    f = gaussian_bump_field(m, center=_point(m, 11), lam=1.5)
    x = _point(m, 12)
    t, h, n_paths, seed = 0.1, 0.03, 1200, 31
    hess = _semigroup_samples(m, f, Point(x), t, n_paths, h, seed)["hess"]
    F = m.frame(x[None, :])[0]
    bound = 1e-12 * np.max(np.abs(hess))
    for i in range(m.dim):
        for j in range(m.dim):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                est = estimate_hess(
                    m, f, Point(x), TangentVector(Point(x), F[i]),
                    TangentVector(Point(x), F[j]), t, None, "mixed",
                    n_paths=n_paths, h=t / _grid_steps(t, h, lo=2), seed=seed,
                    antithetic=False, chunk_size=verify.SEMIGROUP_CHUNK)
            assert abs(est.scalar - hess[i, j]) <= bound, (i, j)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_semigroup_bounds_lp_skipped_when_grid_leaves_hyperboloid():
    # at a = 1.7 the default H^2 grid cannot hold its far nodes on the
    # hyperboloid, so report (b) is skipped instead of failing downstream
    m = Hyperbolic(2, 1.7)
    f = gaussian_bump_field(m, lam=1.5)
    _, rep_b, _ = check_semigroup_bounds(
        m, f, BoundCheckConfig(alpha=0.2, h=0.05), n_paths=1000, seed=3,
        t_list=[0.1], x_list=[Point(m.base_point())])
    assert rep_b.samples == [] and not rep_b.passed


# ---------------------------------------------------------------------------
# endpoint functionals and simulate on the chunked walk

def _endpoint_case(kind, op, antithetic, threads):
    # 1000 paths in chunks of 300 units: 2 chunks of pairs, 4 of paths
    m = _model(kind)
    f = gaussian_bump_field(m, center=_point(m, 61), lam=1.5)
    x = Point(_point(m, 62))
    kw = dict(antithetic=antithetic, chunk_size=300, threads=threads)
    if op == "pt":
        est = estimate_pt(m, f, x, 0.1, 1000, 0.01, 4242, **kw)
    elif op == "grad":
        F = m.frame(np.asarray(x.coords)[None, :])[0]
        v = TangentVector(x, 0.6 * F[0] + 0.8 * F[1])
        est = estimate_grad(m, f, x, v, 0.1, 1000, 0.01, 4242, **kw)
    else:
        est = estimate_endpoint(m, lambda P, F: P, x, 0.1, 1000, 0.01, 4242, **kw)
    return _hex(est.value) + _hex(est.stderr)


GOLDEN_ENDPOINT = {
    ("s2", "pt", True): ['0x1.606b04713ad42p-2', '0x1.15c826ab0d20cp-9'],
    ("s2", "pt", False): ['0x1.5f6a0cef8b5fcp-2', '0x1.7a2a5a37449d8p-8'],
    ("s2", "grad", True): ['0x1.883f7d0fafd26p-2', '0x1.2e2342e79f8d2p-9'],
    ("s2", "grad", False): ['0x1.8a0cf20ff96f1p-2', '0x1.31d51e0b91b7bp-8'],
    ("s2", "endpoint", True): [
        '-0x1.5632a1ee8fdb6p-1', '-0x1.e4bdfb8b9ff3dp-2', '-0x1.b37f16581c2f6p-5',
        '0x1.998e56716b5cap-8', '0x1.221452b9837e1p-8', '0x1.049c1ac9755fap-11',
    ],
    ("s2", "endpoint", False): [
        '-0x1.54d397d37e1c9p-1', '-0x1.f557cfac2e4f0p-2', '-0x1.0961463974f23p-5',
        '0x1.157b5dbf15d88p-7', '0x1.5dc431e2ad819p-7', '0x1.76c1a8f713cd9p-7',
    ],
    ("h2", "pt", True): ['0x1.f8375698a5602p-2', '0x1.3a3c69f381e7dp-8'],
    ("h2", "pt", False): ['0x1.f732f7ece03eep-2', '0x1.113cd688d4198p-7'],
    ("h2", "grad", True): ['0x1.0a4bf817885aep-1', '0x1.7b8d250e53b42p-7'],
    ("h2", "grad", False): ['0x1.0c16566acbcfbp-1', '0x1.2df7bd8eb111dp-7'],
    ("h2", "endpoint", True): [
        '-0x1.9bc7459226ba9p-1', '-0x1.23a7495675e1fp-1', '0x1.9104c499a6751p+0',
        '0x1.d40e923a4075fp-8', '0x1.4b83a7c999fd2p-8', '0x1.c7d39ab371669p-7',
    ],
    ("h2", "endpoint", False): [
        '-0x1.875e165384402p-1', '-0x1.28caf90462bd6p-1', '0x1.8b12be69825c4p+0',
        '0x1.2e9674190353bp-6', '0x1.317fe4700cb91p-6', '0x1.edae38bd533e3p-7',
    ],
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize("op", ["pt", "grad", "endpoint"])
@pytest.mark.parametrize("kind", ["s2", "h2"])
def test_endpoint_estimators_golden(kind, op, antithetic, threads):
    assert _endpoint_case(kind, op, antithetic, threads) == \
        GOLDEN_ENDPOINT[(kind, op, antithetic)]


SIMULATE_CFG = """
kind = "simulate"
seed = 13
n_paths = 5000
h = 0.01
out_dir = "{out}"

[manifold]
kind = "sphere"
dim = 2
radius = 1.0

[simulate]
t = 0.5
"""

GOLDEN_SIMULATE = [
    ['mean_square_displacement', '0x1.9dcd88dafd7e7p+0', '0x1.6450bcc2fa8d8p-6'],
    ['flat_reference_2dt', '0x1.0000000000000p+1', '0x0.0p+0'],
    ['max_embedding_defect', '0x1.0000000000000p-52', '0x0.0p+0'],
    ['damped_transport_norm', '0x1.368b2fc6f960ap-1', '0x0.0p+0'],
]


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_table_golden(tmp_path, threads):
    # 5000 paths: two chunks of the default 4096
    cfg = tmp_path / "sim.toml"
    cfg.write_text(SIMULATE_CFG.format(out=tmp_path / "out"), encoding="utf-8")
    report = run_config(str(cfg), threads=threads)
    rows = [[r[0]] + _hex(r[1:3]) for r in report.tables["simulate"]["rows"]]
    assert rows == GOLDEN_SIMULATE


# ---------------------------------------------------------------------------
# structure: one place builds Monte Carlo walks

def test_chunk_walk_built_only_in_path_layer():
    allowed = {("semigroup", "_walk_chunks")}
    found = set()
    for path in sorted(pathlib.Path(mheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "ChunkWalk":
                    found.add((path.stem, getattr(top, "name", "<module>")))
    assert found == allowed


def test_step_count_rule_only_in_transport():
    # round(a / b) turns a horizon and a step into a step count; outside
    # transport only Kato's mark check, which maps mark times to indices
    allowed = {("transport", "_grid_steps"), ("verify", "_kato_grid")}
    found = set()
    for path in sorted(pathlib.Path(mheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call) and node.args
                        and isinstance(node.args[0], ast.BinOp)
                        and isinstance(node.args[0].op, ast.Div)):
                    continue
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "round":
                    found.add((path.stem, getattr(top, "name", "<module>")))
    assert found == allowed


def test_w_recursion_called_only_by_the_hessian_observer():
    # the W step runs only in semigroup's Hessian observer, which verify's
    # domination samples also use
    allowed = {("semigroup", "_hess_nodes")}
    found = set()
    for path in sorted(pathlib.Path(mheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "w_update":
                    found.add((path.stem, getattr(top, "name", "<module>")))
    assert found == allowed


# ---------------------------------------------------------------------------
# the observer contract and start points on the groups

def _sets(n_sets):
    # (t, n_steps, seed, n_paths) of n_sets path sets
    return ([0.1 * (i + 1) for i in range(n_sets)], [4 * (i + 1) for i in range(n_sets)],
            list(range(1, n_sets + 1)), [16] * n_sets)


@pytest.mark.parametrize("n_sets", [1, 2])
def test_observer_values_run_over_paths_in_every_wave(n_sets):
    # a one-group wave is held to the same contract as a wave of several
    m = Sphere(2, 1.0)

    def observe(walk):
        walk.run()
        return np.stack([walk.points[:, 0], walk.points[:, 1]])  # (2, n)

    with pytest.raises(ValueError, match="one value per path"):
        list(_walk_chunks(m, m.base_point(), *_sets(n_sets), observe, one_wave=True))


def _frame_calls(m, monkeypatch):
    calls = []
    real = m.frame

    def spy(x):
        calls.append(len(x))
        return real(x)

    monkeypatch.setattr(m, "frame", spy)
    return calls


def test_frame_once_per_distinct_start_point(monkeypatch):
    m = Sphere(2, 1.0)
    calls = _frame_calls(m, monkeypatch)

    def observe(walk):
        walk.run()
        return np.zeros(walk.bounds[-1])

    # several sets from one point in one wave, as Green's pilot: one frame
    list(_walk_chunks(m, m.base_point(), *_sets(3), observe, antithetic=True,
                      one_wave=True))
    assert calls == [1]
    # one start point per set: one frame per group
    calls.clear()
    xs = np.stack([_point(m, 91 + i) for i in range(3)])
    list(_walk_chunks(m, xs, *_sets(3), observe, one_wave=True))
    assert calls == [1, 1, 1]


def test_green_frames_once_per_wave(monkeypatch):
    # every wave of Green's pilot and main walks starts at one point, so it
    # frames that point once; each node batch adds the frame of (v, w)
    m = Sphere(2, 1.0)
    x = Point([0.6, 0.0, 0.8])
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    v = TangentVector(x, F[0])
    calls = _frame_calls(m, monkeypatch)
    walks = []

    def spy(*args, **kw):
        walks.append(ChunkWalk(*args, **kw))
        return walks[-1]

    monkeypatch.setattr(semigroup, "ChunkWalk", spy)
    estimate_green_hess(m, coordinate_field(m, axis=2), x, v, v,
                        HessianEstimatorConfig(sigma=3.0), n_paths=2000, h=0.01,
                        seed=5, mode="mixed")
    assert len(walks[0].groups) == 40  # the pilot: every node in one wave
    assert calls == [1] * (len(walks) + 2)


@pytest.mark.parametrize("x0", [None, np.zeros(2), np.zeros((3, 3))])
def test_group_start_point_is_one_point_or_one_per_path(x0):
    m = Sphere(2, 1.0)
    with pytest.raises(ValueError, match="one point or one point per path"):
        ChunkWalk(m, [WalkGroup(1, 0.1, 4, 0, 4, x0=x0)])


def test_per_path_start_points_walk_as_their_batch():
    # a group of one start point per path frames its batch in one call, as
    # a walk restarted from another walk's end points
    m = Sphere(2, 1.0)
    first = ChunkWalk(m, [WalkGroup(3, 0.1, 10, 0, 6, x0=m.base_point())]).run()
    ends = first.points.copy()
    again = ChunkWalk(m, [WalkGroup(4, 0.1, 10, 0, 6, x0=ends)])
    assert np.array_equal(again.points, ends)
    assert np.array_equal(again.frames, m.frame(ends))
