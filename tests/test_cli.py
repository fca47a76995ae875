"""CLI runner: config validation, outputs, exit codes, reproducibility."""

import ast
import csv
import hashlib
import json
import math
import os
import pathlib
import re
import warnings

import numpy as np
import pytest

import mheat
from mheat import cli, verify
from mheat.cli import (
    ConfigError,
    ExperimentConfig,
    list_builtin,
    load_config,
    main,
    make_field,
    make_potential,
    run_config,
)
from mheat.geometry import Point, TangentVector, make_manifold
from mheat.semigroup import HessianEstimatorConfig, estimate_green_hess, estimate_pt
from mheat.spectral import random_spherical_polynomials, random_trig_polynomials
from mheat.verify import (
    BoundCheckConfig,
    check_semigroup_bounds,
    cz_scan,
    kato_functional,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write(tmp_path, text, name="config.toml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


KERNEL_CFG = """
kind = "verify"
seed = 7
out_dir = "{out}"

[manifold]
kind = "euclidean"
dim = 2

[verify]
check = "kernel-bounds"
alpha = 0.2
beta = 0.2
t_grid = {{ min = 0.01, max = 4.0, n = 10 }}
rho_grid = {{ min = 0.0, max = 5.0, n = 10 }}
"""


def test_kernel_bounds_run(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, KERNEL_CFG.format(out=out))
    report = run_config(cfg)
    assert report.exit_status == 0
    summary = json.loads((out / "summary.json").read_text())
    aux = summary["payload"]["tables"]["kernel-gaussian-bound"]["aux_constants"]
    assert abs(aux["p_term"] - 0.25) < 1e-6
    assert (out / "kernel-gaussian-bound.csv").exists()
    assert (out / "MANIFEST.json").exists()
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "complete"


def test_czscan_run_flat_equality(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, f"""
kind = "czscan"
seed = 11
out_dir = "{out}"

[manifold]
kind = "torus"
dim = 2

[czscan]
p = 2.0
sigma = 1.0
degree = 8
family_sizes = [5, 10]
""")
    rc = main(["run", cfg])
    assert rc == 0
    with open(out / "cz-resolvent-scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        assert abs(float(row["hess_over_lap"]) - 1.0) < 1e-10


CZSCAN_CFG = """
kind = "czscan"
seed = 11
out_dir = "{out}"

[manifold]
kind = "{kind}"
dim = {dim}
radius = {radius}

[czscan]
p = 2.0
degree = {degree}
family_sizes = {sizes}
"""


@pytest.mark.parametrize("kind,dim,radius,degree,sizes,line", [
    ("sphere", 2, 2.0, 4, "[5, 10]", 9),    # not the unit sphere
    ("sphere", 3, 1.0, 4, "[5, 10]", 8),    # not the 2-sphere
    ("sphere", 2, 1.0, 0, "[5, 10]", 13),   # no harmonic terms
    ("torus", 2, 1.0, 4, "[]", 14),         # no family to scan
    ("torus", 3, 1.0, 1, "[5, 10]", 8),     # Bochner residual is 2-torus only
], ids=["sphere-radius", "sphere-dim", "degree-0", "no-sizes", "torus-dim-p2"])
def test_czscan_unrunnable_config_is_config_error(tmp_path, kind, dim, radius,
                                                  degree, sizes, line):
    out = tmp_path / "out"
    cfg = write(tmp_path, CZSCAN_CFG.format(out=out, kind=kind, dim=dim, radius=radius,
                                            degree=degree, sizes=sizes))
    with pytest.raises(ConfigError, match=rf":{line}: "):
        load_config(cfg)
    assert main(["run", cfg]) == 2
    assert not out.exists()


def test_gamma_constraint_rejected(tmp_path):
    cfg = write(tmp_path, """
kind = "verify"
seed = 1

[manifold]
kind = "euclidean"
dim = 2

[verify]
check = "weighted-l2"
alpha = 0.2
gamma = 0.6
""")
    rc = main(["run", cfg])
    assert rc == 2
    with pytest.raises(ConfigError, match=r"gamma.*2\*alpha"):
        load_config(cfg)
    try:
        load_config(cfg)
    except ConfigError as exc:
        # line-accurate message: the gamma assignment is on line 12
        assert ":12:" in str(exc)


def test_unknown_kind_rejected(tmp_path):
    cfg = write(tmp_path, """
kind = "frobnicate"

[manifold]
kind = "euclidean"
dim = 2
""")
    assert main(["run", cfg]) == 2


def test_missing_config_is_config_error():
    assert main(["run", "/nonexistent/nope.toml"]) == 2


def test_list_builtin_contents(capsys):
    assert main(["list", "checks"]) == 0
    out = capsys.readouterr().out
    for name in ["kernel-bounds", "weighted-l2", "gaffney",
                 "semigroup-bounds", "kato", "czscan"]:
        assert name in out
    assert main(["list", "manifolds"]) == 0
    out = capsys.readouterr().out
    for name in ["euclidean", "torus", "sphere", "hyperbolic"]:
        assert name in out
    assert main(["list", "bogus"]) == 2


def test_config_roundtrip(tmp_path):
    cfg = load_config(write(tmp_path, KERNEL_CFG.format(out=tmp_path / "o")))
    d1 = cfg.to_dict()
    d2 = ExperimentConfig.from_dict(d1).to_dict()
    assert d1 == d2
    assert json.loads(json.dumps(d1)) == d1


def test_rerun_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, f"""
kind = "estimate"
seed = 3
n_paths = 2000
h = 0.005
out_dir = "{out}"

[manifold]
kind = "torus"
dim = 2

[estimate]
op = "grad"
field = "sin-x1"
t = 0.5
point = [0.7, 0.0]
v = [1.0, 0.0]
""")
    run_config(cfg)
    first = {}
    for name in os.listdir(out):
        with open(out / name, "rb") as fh:
            first[name] = fh.read()
    run_config(cfg)
    for name in sorted(first):
        with open(out / name, "rb") as fh:
            again = fh.read()
        if name == "summary.json":
            pay1 = json.loads(first[name])["payload"]
            pay2 = json.loads(again)["payload"]
            assert json.dumps(pay1, sort_keys=True) == json.dumps(pay2, sort_keys=True)
        else:
            assert again == first[name], name


def test_estimate_grad_matches_expectation(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, f"""
kind = "estimate"
seed = 3
n_paths = 20000
h = 0.0025
out_dir = "{out}"

[manifold]
kind = "torus"
dim = 2

[estimate]
op = "grad"
field = "sin-x1"
t = 0.5
point = [0.7, 0.0]
v = [1.0, 0.0]
""")
    report = run_config(cfg)
    row = report.tables["estimate"]["rows"][0]
    value, stderr = float(row[1]), float(row[2])
    exact = math.exp(-0.5) * math.cos(0.7)
    assert abs(value - exact) <= 3 * stderr


@pytest.mark.parametrize("x1, inconclusive", [(0.0, True), (1.2, False)])
def test_pt_verdict_inconclusive_when_variance_dominated(tmp_path, x1, inconclusive):
    # P_t sin(x1) = e^{-t} sin(x1) vanishes at x1 = 0, where the plain
    # (non-antithetic) estimate is noise: stderr > |value|
    out = tmp_path / "out"
    cfg = write(tmp_path, f"""
kind = "estimate"
seed = 3
n_paths = 400
h = 0.05
out_dir = "{out}"

[manifold]
kind = "torus"
dim = 2

[estimate]
op = "pt"
field = "sin-x1"
t = 0.5
antithetic = false
point = [{x1}, 0.0]
""")
    report = run_config(cfg)
    value, stderr = report.tables["estimate"]["rows"][0][1:3]
    assert (stderr > abs(value)) is inconclusive
    assert report.verdicts == [{"check": "estimate-pt", "passed": True,
                                "inconclusive": inconclusive}]


def test_green_hess_verdict_conclusive(tmp_path):
    # Green's notes always carry its provenance; only a variance-dominated
    # estimate makes the verdict inconclusive
    out = tmp_path / "out"
    cfg = write(tmp_path, f"""
kind = "estimate"
seed = 5
n_paths = 400
h = 0.02
out_dir = "{out}"

[manifold]
kind = "sphere"
dim = 2
radius = 1.0

[estimate]
op = "green-hess"
field = "coord-z"
sigma = 3.0
n_nodes = 12
point = [0.6, 0.0, 0.8]
v = [1.0, 0.0]
w = [1.0, 0.0]
""")
    report = run_config(cfg)
    value, stderr, qtol = report.tables["estimate"]["rows"][0][1:4]
    # Hess z = -z g on S^2, so the (v, v) component is -z / (2 + sigma)
    assert abs(value + 0.8 / 5.0) <= 4.0 * stderr + qtol
    assert report.verdicts == [{"check": "estimate-green-hess", "passed": True,
                                "inconclusive": False}]


def test_green_hess_takes_h_unchanged(tmp_path, monkeypatch):
    # h = 0.3 does not divide the unrelated t = 0.5; Green walks each node
    # on the grid of step h, so it must not see t / round(t / h) = 0.25
    seen = []
    real = cli.estimate_green_hess

    def spy(*args, **kwargs):
        seen.append(kwargs["h"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_green_hess", spy)
    run_config(write(tmp_path, f"""
kind = "estimate"
seed = 5
n_paths = 64
h = 0.3
out_dir = "{tmp_path / 'out'}"

[manifold]
kind = "sphere"
dim = 2

[estimate]
op = "green-hess"
field = "coord-z"
sigma = 3.0
n_nodes = 4
"""))
    assert seen == [0.3]


@pytest.mark.parametrize("mode, expected", [
    ("", "green-mixed"),    # automatic: coord-z has oracles
    ('mode = "bismut"', "green-bismut"),
])
def test_green_hess_honours_mode(tmp_path, mode, expected):
    report = run_config(write(tmp_path, f"""
kind = "estimate"
seed = 5
n_paths = 64
h = 0.05
out_dir = "{tmp_path / 'out'}"

[manifold]
kind = "sphere"
dim = 2

[estimate]
op = "green-hess"
field = "coord-z"
sigma = 3.0
n_nodes = 4
{mode}
"""))
    assert report.tables["estimate"]["rows"][0][0] == expected


KATO_CFG = """
kind = "verify"
seed = 3
n_paths = 1000
h = {h}
out_dir = "{out}"

[manifold]
kind = "sphere"
dim = 2

[verify]
check = "kato"
potential = "const"
potential_params = {{ c = 0.7 }}
t_list = [0.1, 0.2]
"""


def test_kato_run_steps_at_h(tmp_path, monkeypatch):
    walks = []
    real = verify._walk_chunks

    def spy(m, x0, t, n_steps, *args, **kwargs):
        walks.append((t, n_steps))
        return real(m, x0, t, n_steps, *args, **kwargs)

    monkeypatch.setattr(verify, "_walk_chunks", spy)
    report = run_config(write(tmp_path, KATO_CFG.format(h=0.01,
                                                         out=tmp_path / "out")))
    assert walks == [(0.2, 20)]
    assert report.exit_status == 0


def test_kato_mark_off_the_h_grid_is_config_error(tmp_path):
    # h = 0.03 walks 7 steps of 0.2 / 7 over [0, 0.2]; none ends at 0.1
    cfg = write(tmp_path, KATO_CFG.format(h=0.03, out=tmp_path / "out"))
    with pytest.raises(ConfigError, match=r":5: h = 0\.03 .* t = 0\.1$"):
        load_config(cfg)
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "out").exists()


def test_semigroup_bounds_hyperbolic_run(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, f"""
kind = "verify"
seed = 11
n_paths = 1000
h = 0.02
out_dir = "{out}"

[manifold]
kind = "hyperbolic"
dim = 2

[verify]
check = "semigroup-bounds"
alpha = 0.2
field = "gauss-bump"
field_params = {{ lam = 1.5 }}
t_list = [0.1]
""")
    assert main(["run", cfg]) in (0, 1)
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "complete"
    with open(out / "semigroup-hessian-lp.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["provenance"] for r in rows] == ["quadrature"]
    for key in ("lhs", "rhs_no_const", "ratio"):
        assert math.isfinite(float(rows[0][key])), key


def test_simulate_kind(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, f"""
kind = "simulate"
seed = 9
n_paths = 4000
h = 0.01
out_dir = "{out}"

[manifold]
kind = "sphere"
dim = 2
radius = 1.0

[simulate]
t = 0.5
""")
    report = run_config(cfg)
    assert report.exit_status == 0
    stats = {r[0]: r[1] for r in report.tables["simulate"]["rows"]}
    assert stats["max_embedding_defect"] < 1e-12
    assert stats["damped_transport_norm"] == pytest.approx(math.exp(-0.5))


SHORT_HORIZON_CFG = """
kind = "{kind}"
seed = {seed}
n_paths = 64
h = 0.25
out_dir = "{out}"

[manifold]
kind = "sphere"
dim = 2
radius = 1.0

[{kind}]
t = 0.1
{extra}
"""


@pytest.mark.parametrize("kind, seed, extra, table, expected", [
    # t / h = 0.4: simulate walks one step, estimate two (at h = t / 2)
    ("simulate", 9, "", "simulate",
     ("0x1.99bf7eed0ee79p-2", "0x1.5329e8dc6f8f7p-5")),
    ("estimate", 3, 'op = "pt"\nfield = "coord-z"', "estimate",
     ("0x1.a5a65f6f11b4dp-1", "0x1.ed762af6cb1dep-6")),
])
def test_short_horizon_step_floor_golden(tmp_path, kind, seed, extra, table,
                                         expected):
    cfg = write(tmp_path, SHORT_HORIZON_CFG.format(
        kind=kind, seed=seed, extra=extra, out=tmp_path / "out"))
    report = run_config(cfg)
    value, stderr = report.tables[table]["rows"][0][1:3]
    assert (float(value).hex(), float(stderr).hex()) == expected


def test_gnuplot_series_emitted(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, KERNEL_CFG.format(out=out))
    run_config(cfg)
    dats = [n for n in os.listdir(out) if n.endswith(".dat")]
    assert any("ratio_vs_t" in n for n in dats)
    assert any("ratio_vs_rho" in n for n in dats)
    sample = [n for n in dats if "ratio_vs_t" in n][0]
    lines = (out / sample).read_text().strip().splitlines()
    assert lines[0].startswith("#")
    parts = lines[1].split()
    assert len(parts) == 2
    float(parts[0]), float(parts[1])


def test_shipped_configs_load():
    for name in os.listdir(CONFIG_DIR):
        if name.endswith(".toml"):
            load_config(os.path.join(CONFIG_DIR, name))


def test_manifest_written_on_abort(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = write(tmp_path, f"""
kind = "verify"
seed = 1
n_paths = 1000
out_dir = "{out}"

[manifold]
kind = "euclidean"
dim = 2

[verify]
check = "semigroup-bounds"
alpha = 0.2
field = "gauss-bump"
""")

    def diverge(*args, **kwargs):
        raise FloatingPointError("path diverged at step 3 (chunk-local index 0)")

    # a valid config whose run fails
    monkeypatch.setattr(cli, "check_semigroup_bounds", diverge)
    rc = main(["run", cfg])
    assert rc == 1
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "aborted"
    assert "diverged" in manifest["error"]


PATH_COUNT_CFG = """
kind = "{kind}"
seed = 1
n_paths = {n_paths}
out_dir = "{out}"

[manifold]
kind = "sphere"
dim = 2

[{kind}]
{params}
"""


@pytest.mark.parametrize("kind,n_paths,params,message", [
    ("verify", 500, 'check = "semigroup-bounds"', "at least 1000"),
    ("verify", 500, 'check = "kato"', "at least 1000"),
    ("estimate", 1001, 'op = "pt"\nfield = "coord-z"', "even"),
], ids=["semigroup-bounds", "kato", "antithetic-odd"])
def test_unrunnable_path_count_is_config_error(tmp_path, kind, n_paths, params,
                                              message):
    out = tmp_path / "out"
    cfg = write(tmp_path, PATH_COUNT_CFG.format(kind=kind, n_paths=n_paths,
                                                out=out, params=params))
    # line 4 holds n_paths
    with pytest.raises(ConfigError, match=rf":4: n_paths .*{message}"):
        load_config(cfg)
    assert main(["run", cfg]) == 2
    assert not out.exists()


def test_odd_path_count_runs_without_antithetic(tmp_path):
    cfg = write(tmp_path, PATH_COUNT_CFG.format(
        kind="estimate", n_paths=1001, out=tmp_path / "out",
        params='op = "pt"\nfield = "coord-z"\nt = 0.05\nantithetic = false'))
    assert run_config(cfg).exit_status == 0


@pytest.mark.parametrize("check", ["kato", "semigroup-bounds", "gaffney"])
def test_verify_ignores_exponents_its_check_does_not_read(tmp_path, check):
    # alpha = 0.3 is outside (0, 1/4), but only kernel-bounds and
    # weighted-l2 read the exponents
    out = tmp_path / "out"
    cfg = write(tmp_path, PATH_COUNT_CFG.format(
        kind="verify", n_paths=1000, out=out,
        params=f'check = "{check}"\nalpha = 0.3\nt_list = [0.1, 0.2]'))
    load_config(cfg)
    if check == "kato":
        assert run_config(cfg).exit_status == 0
        assert (out / "summary.json").exists()


PARAM_CFG = """kind = "{kind}"
{top}
n_paths = 1000
out_dir = "{out}"

[manifold]
kind = "sphere"
dim = 2

[{kind}]
{params}
"""
GREEN = 'op = "green-hess"\nfield = "coord-z"\nn_nodes = 4'


@pytest.mark.parametrize("kind,params,bad", [
    ("estimate", GREEN, "sigma = -1.0"),
    ("estimate", 'op = "green-hess"\nfield = "coord-z"', "n_nodes = 2"),
    ("czscan", "family_sizes = [2, 4]", "grid_resolution = 1"),
    ("verify", 'check = "semigroup-bounds"', "t_list = [-0.5]"),
    ("estimate", 'op = "pt"\nfield = "coord-z"', 'seed = "one"'),
    ("estimate", 'op = "pt"\nfield = "coord-z"', 'threads = "two"'),
    ("estimate", GREEN, "sigma = [3.0]"),
    ("estimate", GREEN, 'theta = "big"'),
    ("estimate", GREEN, "t_min = 0"),
    ("estimate", GREEN, 'mode = "bogus"'),
    ("verify", 'check = "kernel-bounds"', "grid_resolution = 1"),
    ("verify", 'check = "kernel-bounds"', "t_grid = { min = 0.1, n = 3 }"),
    ("czscan", "family_sizes = [2, 4]", "seed = -1"),
], ids=["sigma-negative", "n_nodes-2", "grid_resolution-1", "t_list-negative",
        "seed-string", "threads-string", "sigma-list", "theta-string",
        "t_min-0", "mode-bogus", "verify-grid_resolution-1", "t_grid-no-max",
        "czscan-seed-negative"])
def test_parameter_error_is_config_error(tmp_path, kind, params, bad):
    # every parameter is read and checked before the run: exit 2, no outputs
    out = tmp_path / "out"
    top_level = bad.startswith(("seed", "threads"))
    text = PARAM_CFG.format(kind=kind, out=out,
                            top=bad if top_level else "seed = 1",
                            params=params if top_level else f"{params}\n{bad}")
    cfg = write(tmp_path, text)
    line = text.splitlines().index(bad) + 1
    with pytest.raises(ConfigError, match=rf"^{re.escape(cfg)}:{line}: "):
        load_config(cfg)
    assert main(["run", cfg]) == 2
    assert not out.exists()


def test_green_reversed_node_grid_is_config_error(tmp_path):
    # sigma = 0.5 <= 2K + theta on the unit S^2: the default t_max = 20 /
    # sigma = 40 lies below t_min = 50, so the node grid would run backwards
    out = tmp_path / "out"
    text = f"""kind = "estimate"
seed = 1
n_paths = 64
h = 0.1
out_dir = "{out}"

[manifold]
kind = "sphere"
dim = 2
radius = 1.0

[estimate]
op = "green-hess"
field = "coord-z"
sigma = 0.5
t_min = 50.0
"""
    cfg = write(tmp_path, text)
    line = text.splitlines().index("t_min = 50.0") + 1
    with pytest.raises(ConfigError, match=rf"^{re.escape(cfg)}:{line}: t_min = 50 "):
        load_config(cfg)
    assert main(["run", cfg]) == 2
    assert not out.exists()


# sha256 of the sort-keys JSON of each shipped config's tables and verdicts
SHIPPED_GOLDEN = {
    "czscan_t2_p2.toml": "ce3979f2c427fb135609c2c036040f8e0b9b62291c8424e447f366d585856c95",
    "derivative_t2.toml": "b15017019e95dfc9ac60611f26ecde7e054c3f14052ae17b3073b4f9e102db08",
    "kato_sphere.toml": "a2f1e95afacdecf364e57c2bcefb9e8c1e8f5ed519381e8fa0983e08bbc04b53",
    "kernel_bounds_r2.toml": "9e641d2560af639434a94dcff65766d7c9249833e40d158e83eebbc261a461f2",
}


@pytest.mark.parametrize("threads", [1, 2])
def test_shipped_configs_golden(tmp_path, threads):
    assert sorted(SHIPPED_GOLDEN) == sorted(
        n for n in os.listdir(CONFIG_DIR) if n.endswith(".toml"))
    for name, digest in SHIPPED_GOLDEN.items():
        out = tmp_path / f"{name}-{threads}"
        run_config(os.path.join(CONFIG_DIR, name), threads=threads, out_dir=str(out))
        payload = json.loads((out / "summary.json").read_text())["payload"]
        blob = json.dumps({"tables": payload["tables"],
                           "verdicts": payload["verdicts"]}, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, name


CHECK_CFG = """kind = "{kind}"
seed = 1
n_paths = 1000
out_dir = "{out}"

[manifold]
kind = "{manifold}"
dim = 2

[{kind}]
{params}
"""
BUMP = 'field = "compact-bump"'


@pytest.mark.parametrize("kind,manifold,params,bad", [
    ("verify", "hyperbolic", 'check = "semigroup-bounds"', BUMP),
    ("estimate", "sphere", 'op = "grad"', BUMP),
    ("estimate", "sphere", 'op = "hess"\nmode = "mixed"', BUMP),
    ("estimate", "sphere", 'op = "green-hess"\nmode = "mixed"', BUMP),
    ("verify", "torus", 'check = "weighted-l2"\nalpha = 0.24', "[verify]"),
    ("verify", "torus", 'check = "weighted-l2"\nalpha = 0.1\ngamma = 0.1',
     "beta = 0.15"),
    ("verify", "euclidean", 'check = "gaffney"', 'kind = "euclidean"'),
    ("verify", "sphere", 'check = "gaffney"', "cap_radius = 1.6"),
], ids=["semigroup-bounds-no-oracles", "grad-no-oracles", "hess-mixed-no-oracles",
        "green-mixed-no-oracles", "weighted-l2-no-gamma", "weighted-l2-tail-beta",
        "gaffney-not-compact", "gaffney-caps-overlap"])
def test_check_requirement_is_config_error(tmp_path, kind, manifold, params, bad):
    # requirements a library check tests as it starts are planned too: exit
    # 2 at the offending line (a missing key: its table's header), no outputs
    out = tmp_path / "out"
    extra = "" if bad.startswith(("[", "kind")) else f"\n{bad}"
    text = CHECK_CFG.format(kind=kind, out=out, manifold=manifold,
                            params=params + extra)
    cfg = write(tmp_path, text)
    line = text.splitlines().index(bad) + 1
    with pytest.raises(ConfigError, match=rf"^{re.escape(cfg)}:{line}: "):
        load_config(cfg)
    assert main(["run", cfg]) == 2
    assert not out.exists()


@pytest.mark.parametrize("bad,line", [
    # the top-level kind is on line 1, the manifold's on line 7
    ('kind = "klein"', 7),
    ('field_params = { lam = "x" }', 13),
], ids=["manifold-kind", "inline-table"])
def test_error_line_is_found_in_the_keys_table(tmp_path, bad, line):
    text = CHECK_CFG.format(kind="estimate", out=tmp_path / "out",
                            manifold="sphere", params='op = "pt"\nfield = "gauss-bump"')
    text = text.replace('kind = "sphere"', bad) if bad.startswith("kind") \
        else text + bad + "\n"
    assert text.splitlines()[line - 1] == bad
    cfg = write(tmp_path, text)
    with pytest.raises(ConfigError, match=rf"^{re.escape(cfg)}:{line}: "):
        load_config(cfg)


# ---------------------------------------------------------------------------
# one statement per input rule: the library raises it, the plan calls it

def _scan(kind, dim, radius, degree, sizes, **opts):
    # the family and the scan a czscan config runs, seed 11
    m = make_manifold(kind, dim, radius=radius)
    make = random_trig_polynomials if kind == "torus" else random_spherical_polynomials
    fam = make(m, degree, max(sizes, default=10),
               np.random.Generator(np.random.Philox(key=np.uint64(11))))
    return cz_scan(m, fam, p=2.0, sigma=1.0, family_sizes=sizes, **opts)


S2 = make_manifold("sphere", 2)
X0 = Point(S2.base_point())


def _green_bogus_mode():
    v = TangentVector(X0, S2.frame(S2.base_point()[None, :])[0][0])
    with warnings.catch_warnings():
        # sigma = 1 meets the growth rate 2K + theta on the unit S^2
        warnings.simplefilter("ignore")
        return estimate_green_hess(S2, make_field(S2, "coord-z", None), X0, v, v,
                                   HessianEstimatorConfig(n_nodes=4), n_paths=1000,
                                   h=0.005, seed=1, mode="bogus")


def _czscan_cfg(kind, dim, radius, degree, sizes):
    return CZSCAN_CFG.format(out="out", kind=kind, dim=dim, radius=radius,
                             degree=degree, sizes=sizes)


PARITY_PROBES = {
    # the probes of test_czscan_unrunnable_config_is_config_error
    "sphere-radius": (_czscan_cfg("sphere", 2, 2.0, 4, "[5, 10]"),
                      lambda: _scan("sphere", 2, 2.0, 4, [5, 10])),
    "sphere-dim": (_czscan_cfg("sphere", 3, 1.0, 4, "[5, 10]"),
                   lambda: _scan("sphere", 3, 1.0, 4, [5, 10])),
    "degree-0": (_czscan_cfg("sphere", 2, 1.0, 0, "[5, 10]"),
                 lambda: _scan("sphere", 2, 1.0, 0, [5, 10])),
    "no-sizes": (_czscan_cfg("torus", 2, 1.0, 4, "[]"),
                 lambda: _scan("torus", 2, 1.0, 4, [])),
    "torus-dim-p2": (_czscan_cfg("torus", 3, 1.0, 1, "[5, 10]"),
                     lambda: _scan("torus", 3, 1.0, 1, [5, 10])),
    # the czscan probe of test_parameter_error_is_config_error
    "grid_resolution-1": (
        PARAM_CFG.format(kind="czscan", top="seed = 1", out="out",
                         params="family_sizes = [2, 4]\ngrid_resolution = 1"),
        lambda: _scan("sphere", 2, 1.0, 8, [2, 4], grid_resolution=1)),
    # the probes of test_unrunnable_path_count_is_config_error
    "semigroup-bounds": (
        PATH_COUNT_CFG.format(kind="verify", n_paths=500, out="out",
                              params='check = "semigroup-bounds"'),
        lambda: check_semigroup_bounds(S2, make_field(S2, "gauss-bump", None),
                                       BoundCheckConfig(), n_paths=500, seed=1)),
    "kato": (
        PATH_COUNT_CFG.format(kind="verify", n_paths=500, out="out",
                              params='check = "kato"'),
        lambda: kato_functional(S2, make_potential(S2, "const", None), [0.5],
                                [X0], n_paths=500, seed=1)),
    "antithetic-odd": (
        PATH_COUNT_CFG.format(kind="estimate", n_paths=1001, out="out",
                              params='op = "pt"\nfield = "coord-z"'),
        lambda: estimate_pt(S2, make_field(S2, "coord-z", None), X0, 0.5,
                            n_paths=1001, h=0.005, seed=1)),
    # the mode probe of test_parameter_error_is_config_error
    "mode-bogus": (
        PARAM_CFG.format(kind="estimate", top="seed = 1", out="out",
                         params='op = "green-hess"\nfield = "coord-z"\n'
                                'n_nodes = 4\nmode = "bogus"'),
        _green_bogus_mode),
}


@pytest.mark.parametrize("probe", sorted(PARITY_PROBES))
def test_config_error_is_the_library_error(tmp_path, probe):
    # a config and a library call with the same input get the same message
    text, library_call = PARITY_PROBES[probe]
    cfg = write(tmp_path, text)
    with pytest.raises(ConfigError) as config_error:
        load_config(cfg)
    prefix = re.match(rf"{re.escape(cfg)}:\d+: ", str(config_error.value))
    assert prefix is not None
    with pytest.raises(ValueError) as library_error:
        library_call()
    assert str(config_error.value)[prefix.end():] == str(library_error.value)


# each consolidated rule: a pattern of its message and the one function,
# by its module and top-level name, that raises it
RULE_SITES = {
    "statistical path minimum": (r"\bMIN_STAT_PATHS\b", ("verify", "_stat_paths")),
    "antithetic parity": (r"antithetic.*even|even.*antithetic",
                          ("semigroup", "_even_paths")),
    "Hessian mode": (r"bismut\W+(or|\|)\W+mixed", ("semigroup", "_hess_mode")),
    "unit 2-sphere": (r"unit 2-sphere", ("spectral", "_family_rules")),
    "2-torus at p = 2": (r"2-torus", ("spectral", "_two_torus")),
    "family_sizes": (r"positive sizes", ("verify", "_family_sizes")),
}


def test_each_input_rule_has_one_raise_site():
    found = {rule: set() for rule in RULE_SITES}
    for path in sorted(pathlib.Path(mheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Raise):
                    continue
                # the raise's string pieces and the names it formats
                text = " ".join(
                    n.id if isinstance(n, ast.Name) else n.value
                    for n in ast.walk(node) if isinstance(n, ast.Name)
                    or (isinstance(n, ast.Constant) and isinstance(n.value, str)))
                for rule, (pattern, _) in RULE_SITES.items():
                    if re.search(pattern, text):
                        found[rule].add((path.stem, getattr(top, "name", "<module>")))
    assert found == {rule: {site} for rule, (_, site) in RULE_SITES.items()}
