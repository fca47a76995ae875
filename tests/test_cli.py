"""CLI runner: config validation, outputs, exit codes, reproducibility."""

import csv
import json
import math
import os

import pytest

from mheat.cli import (
    ConfigError,
    ExperimentConfig,
    list_builtin,
    load_config,
    main,
    run_config,
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


def test_manifest_written_on_abort(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, f"""
kind = "verify"
seed = 1
n_paths = 200
out_dir = "{out}"

[manifold]
kind = "euclidean"
dim = 2

[verify]
check = "semigroup-bounds"
alpha = 0.2
field = "gauss-bump"
""")
    # statistical checks refuse to run with fewer than 1000 paths
    rc = main(["run", cfg])
    assert rc == 1
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "aborted"
    assert "paths" in manifest["error"]
