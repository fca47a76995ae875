"""Config-driven experiment runner.

Usage:
    mheat run <config.toml> [--threads N] [--out DIR] [--seed S]
    mheat list <kind>          # manifolds | fields | potentials | checks

A run writes, into the output directory: ``summary.json`` (a deterministic
``payload`` section plus a ``meta`` section with wall clock), one CSV per
result table (RFC 4180, UTF-8, '.' decimal separator, 17 significant
digits), and gnuplot-ready two-column ``.dat`` files for every
(parameter, ratio) series.  Rerunning the same config with the same binary
reproduces every numeric payload byte for byte.
Every kind that walks paths, ``simulate`` included, observes fixed chunks
of them through :mod:`mheat.semigroup`; ``--threads`` leaves payloads as is.

Exit codes: 0 all checks passed or were inconclusive within their declared
tolerances, 1 at least one check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

try:  # Python >= 3.11
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover - interpreter dependent
    try:
        import tomli as _toml
    except ModuleNotFoundError:
        try:
            from setuptools._vendor import tomli as _toml
        except ModuleNotFoundError:
            from pip._vendor import tomli as _toml

from . import __version__
from .geometry import (
    ManifoldModel,
    Point,
    TangentVector,
    compact_bump_field,
    const_field,
    coordinate_field,
    gaussian_bump_field,
    make_manifold,
    norm_squared_field,
    sin_coordinate_field,
    square_coordinate_field,
)
from .semigroup import (
    HessianEstimatorConfig,
    _walk_chunks,
    estimate_grad,
    estimate_green_hess,
    estimate_hess,
    estimate_pt,
)
from .spectral import random_spherical_polynomials, random_trig_polynomials
from .transport import q_decay_factor
from .verify import (
    BoundCheckConfig,
    BoundReport,
    check_gaffney,
    check_kernel_bounds,
    check_semigroup_bounds,
    check_weighted_l2,
    curvature_squared_potential,
    cz_scan,
    kato_functional,
    ric_grad_squared_potential,
)

__all__ = ["main", "run_config", "list_builtin", "ExperimentConfig", "RunReport"]


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# registries

MANIFOLD_REGISTRY = {
    "euclidean": "flat R^d (any d); closed-form kernel and ball volumes",
    "torus": "flat torus (2 pi period, any d; volumes d <= 3); wrapped kernel",
    "sphere": "round sphere (walks any d; kernel/quadrature d = 2)",
    "hyperbolic": "hyperboloid model (walks any d; kernel d in {2, 3})",
}

FIELD_REGISTRY = {
    "const": "constant c (parameter c, default 1)",
    "coord-x1": "first ambient coordinate (euclidean)",
    "coord-z": "last ambient coordinate (sphere eigenfunction)",
    "square-x1": "x_1^2 (euclidean)",
    "norm2": "|x|^2 (euclidean)",
    "sin-x1": "sin(x_1) (torus eigenfunction)",
    "gauss-bump": "smooth Gaussian-shaped bump, exact oracles (parameter lam)",
    "compact-bump": "C^inf bump with exact compact support (parameter r0)",
}

POTENTIAL_REGISTRY = {
    "zero": "identically zero",
    "const": "constant c >= 0 (parameter c)",
    "curvature-r2": "|R|^2 from the curvature package",
    "ricgrad-r2": "|grad Ric# + d*R|^2 (zero on the model spaces)",
}

CHECK_REGISTRY = {
    "kernel-bounds": "Gaussian bound for p + |dp/dt| and the pointwise "
                     "Hessian kernel bound, fitted constants over a "
                     "(rho, t) grid",
    "weighted-l2": "weighted L2 integrals of (p, grad p, lap p) and of "
                   "Hess p, plus the off-ball L1 Hessian tail",
    "gaffney": "L^p off-diagonal decay of t |Hess P_t f| between disjoint "
               "caps with fitted decay rate",
    "semigroup-bounds": "pointwise and L^p growth bounds for Hess P_t f and "
                        "the domination by transported second derivatives",
    "kato": "time-integral and exponential moments of a potential along the "
            "walk, with the fitted growth rate",
    "czscan": "Hessian-vs-Laplacian and resolvent norm ratios over random "
              "band-limited families (spectral, exact)",
}


def make_field(m: ManifoldModel, name: str, params: dict):
    params = dict(params or {})
    if name == "const":
        return const_field(m, float(params.get("c", 1.0)))
    if name == "coord-x1":
        return coordinate_field(m, axis=0)
    if name == "coord-z":
        return coordinate_field(m, axis=m.ambient_dim - 1)
    if name == "square-x1":
        return square_coordinate_field(m)
    if name == "norm2":
        return norm_squared_field(m)
    if name == "sin-x1":
        return sin_coordinate_field(m)
    if name == "gauss-bump":
        center = params.get("center")
        return gaussian_bump_field(m, center=center,
                                   lam=float(params.get("lam", 2.0)))
    if name == "compact-bump":
        center = params.get("center")
        return compact_bump_field(m, center=center,
                                  r0=float(params.get("r0", 0.3)))
    raise ConfigError(f"unknown field {name!r}; see `mheat list fields`")


def make_potential(m: ManifoldModel, name: str, params: dict):
    params = dict(params or {})
    if name == "zero":
        return const_field(m, 0.0)
    if name == "const":
        return const_field(m, float(params.get("c", 1.0)))
    if name == "curvature-r2":
        return curvature_squared_potential(m)
    if name == "ricgrad-r2":
        return ric_grad_squared_potential(m)
    raise ConfigError(f"unknown potential {name!r}; see `mheat list potentials`")


# ---------------------------------------------------------------------------
# configuration

@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    kind: str
    manifold: dict
    seed: int = 0
    n_paths: int = 10000
    h: float = 0.005
    threads: Optional[int] = None
    out_dir: str = "mheat-out"
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "manifold": dict(self.manifold),
            "seed": self.seed,
            "n_paths": self.n_paths,
            "h": self.h,
            "threads": self.threads,
            "out_dir": self.out_dir,
            "params": json.loads(json.dumps(self.params)),
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return ExperimentConfig(
            kind=d["kind"], manifold=dict(d["manifold"]),
            seed=int(d.get("seed", 0)), n_paths=int(d.get("n_paths", 10000)),
            h=float(d.get("h", 0.005)), threads=d.get("threads"),
            out_dir=str(d.get("out_dir", "mheat-out")),
            params=dict(d.get("params", {})))

    def build_manifold(self) -> ManifoldModel:
        spec = self.manifold
        try:
            return make_manifold(spec.get("kind", ""), int(spec.get("dim", 2)),
                                 radius=float(spec.get("radius", 1.0)),
                                 curvature_scale=float(spec.get("curvature_scale", 1.0)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


VALID_KINDS = ("simulate", "estimate", "verify", "czscan")


def _grid_from_spec(spec, default) -> np.ndarray:
    if spec is None:
        return np.asarray(default, dtype=float)
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    lo = float(spec["min"])
    hi = float(spec["max"])
    n = int(spec["n"])
    if spec.get("spacing", "linear") == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a TOML experiment config.

    Raises :class:`ConfigError` whose message carries the config path and,
    when the offending key can be located, its line number.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = _toml.loads(raw.decode("utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except Exception as exc:
        raise ConfigError(f"{path}: TOML parse error: {exc}") from exc

    def fail(message: str, key: Optional[str] = None):
        loc = path
        if key is not None:
            line = _find_key_line(raw.decode("utf-8"), key)
            if line is not None:
                loc = f"{path}:{line}"
        raise ConfigError(f"{loc}: {message}")

    kind = data.get("kind")
    if kind not in VALID_KINDS:
        fail(f"kind must be one of {VALID_KINDS}, got {kind!r}", "kind")
    man = data.get("manifold")
    if not isinstance(man, dict) or "kind" not in man:
        fail("missing [manifold] table with a 'kind' entry", "manifold")
    if man["kind"] not in MANIFOLD_REGISTRY:
        fail(f"unknown manifold kind {man['kind']!r}", "kind")
    seed = int(data.get("seed", 0))
    n_paths = int(data.get("n_paths", 10000))
    h = float(data.get("h", 0.005))
    if h <= 0:
        fail("h must be positive", "h")
    if n_paths < 2:
        fail("n_paths must be at least 2", "n_paths")
    params = data.get(kind, {})
    if not isinstance(params, dict):
        fail(f"[{kind}] must be a table", kind)
    cfg = ExperimentConfig(
        kind=kind, manifold=dict(man), seed=seed, n_paths=n_paths, h=h,
        threads=data.get("threads"), out_dir=str(data.get("out_dir", "mheat-out")),
        params=dict(params))
    # construct everything eagerly so numeric constraints surface now
    m = cfg.build_manifold()
    try:
        _validate_params(m, cfg)
    except ConfigError:
        raise
    except ValueError as exc:
        key = _guess_key(str(exc))
        fail(str(exc), key)
    return cfg


def _guess_key(message: str) -> Optional[str]:
    m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\b", message)
    return m.group(1) if m else None


def _find_key_line(text: str, key: str) -> Optional[int]:
    pat = re.compile(rf"^\s*{re.escape(key)}\s*=", re.MULTILINE)
    match = pat.search(text)
    if match is None:
        return None
    return text.count("\n", 0, match.start()) + 1


def _bound_config(m: ManifoldModel, p: dict, cfg: ExperimentConfig) -> BoundCheckConfig:
    kwargs = {}
    for key in ("alpha", "beta", "gamma", "sigma", "confidence"):
        if key in p:
            kwargs[key] = float(p[key])
    kwargs["t_grid"] = _grid_from_spec(p.get("t_grid"), np.linspace(0.01, 4.0, 20))
    kwargs["rho_grid"] = _grid_from_spec(p.get("rho_grid"), np.linspace(0.0, 5.0, 20))
    kwargs["s_grid"] = _grid_from_spec(p.get("s_grid"), np.geomspace(0.05, 2.0, 12))
    kwargs["n_paths"] = cfg.n_paths
    kwargs["h"] = cfg.h
    if "grid_resolution" in p:
        kwargs["grid_resolution"] = int(p["grid_resolution"])
    return BoundCheckConfig(**kwargs)


def _validate_params(m: ManifoldModel, cfg: ExperimentConfig) -> None:
    p = cfg.params
    if cfg.kind == "verify":
        check = p.get("check")
        if check not in CHECK_REGISTRY or check == "czscan":
            raise ConfigError(
                f"check must be one of {sorted(k for k in CHECK_REGISTRY if k != 'czscan')}")
        _bound_config(m, p, cfg)
        if check == "gaffney" and float(p.get("p", 2.0)) < 2:
            raise ValueError("p must be >= 2 for the gaffney check")
    elif cfg.kind == "estimate":
        op = p.get("op")
        if op not in ("pt", "grad", "hess", "green-hess"):
            raise ConfigError("op must be one of pt | grad | hess | green-hess")
        if p.get("field") is None:
            raise ConfigError("estimate needs a field name")
        make_field(m, p["field"], p.get("field_params"))
        if op in ("hess",) and p.get("mode", "bismut") not in ("bismut", "mixed"):
            raise ConfigError("mode must be bismut | mixed")
        if float(p.get("t", 0.5)) <= 0:
            raise ValueError("t must be positive")
    elif cfg.kind == "czscan":
        pval = float(p.get("p", 2.0))
        if pval <= 1:
            raise ValueError("p must exceed 1 for czscan")
        if m.kind not in ("torus", "sphere"):
            raise ConfigError("czscan runs on the torus or the unit sphere")
    elif cfg.kind == "simulate":
        if float(p.get("t", 1.0)) <= 0:
            raise ValueError("t must be positive")


# ---------------------------------------------------------------------------
# result assembly

@dataclass
class RunReport:
    """Everything a run produced, prior to serialization."""

    config: dict
    tables: dict            # name -> {"columns": [...], "rows": [...]}
    verdicts: list          # {"check": ..., "passed": bool, "inconclusive": bool}
    versions: dict
    wall_clock_s: float = 0.0
    exit_status: int = 0

    def payload(self) -> dict:
        return {
            "config": self.config,
            "versions": self.versions,
            "tables": self.tables,
            "verdicts": self.verdicts,
            "exit_status": self.exit_status,
        }


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _jsonify(obj):
    """Recursively convert numpy scalars/arrays into JSON-native values."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _report_to_table(rep: BoundReport) -> dict:
    cols = rep.sample_columns()
    rows = [[s.get(c, "") for c in cols] for s in rep.samples]
    return {
        "columns": cols,
        "rows": rows,
        "fitted_constant": rep.fitted_constant,
        "passed": rep.passed,
        "notes": rep.notes,
        "aux_constants": rep.aux_constants,
    }


def _verdict(rep: BoundReport) -> dict:
    inconclusive = any(not s.get("reliable", True) for s in rep.samples)
    return {"check": rep.inequality_id, "passed": bool(rep.passed),
            "inconclusive": bool(inconclusive and rep.passed)}


# ---------------------------------------------------------------------------
# runners

def _point_from(m: ManifoldModel, spec) -> Point:
    if spec is None:
        return Point(m.base_point())
    arr = np.asarray(spec, dtype=float)
    if arr.shape != (m.ambient_dim,):
        raise ConfigError(
            f"point must have {m.ambient_dim} ambient coordinates")
    return Point(m.retract(arr[None, :])[0])


def _tangent_from(m: ManifoldModel, x: Point, spec, default_axis=0) -> TangentVector:
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    if spec is None:
        return TangentVector(x, F[default_axis])
    coef = np.asarray(spec, dtype=float)
    if coef.shape != (m.dim,):
        raise ConfigError(f"tangent coefficients must have length {m.dim}")
    return TangentVector(x, np.einsum("d,da->a", coef, F))


def _run_simulate(m: ManifoldModel, cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    t = float(p.get("t", 1.0))
    n_steps = max(1, int(round(t / cfg.h)))
    x0 = np.asarray(_point_from(m, p.get("x0")).coords)

    def observe(walk):
        walk.run()
        rho = m.distance(np.broadcast_to(x0, walk.points.shape), walk.points)
        return np.stack([rho ** 2, m.embedding_defect(walk.points)])

    rho2, defects = np.concatenate(list(_walk_chunks(
        m, x0, t, n_steps, cfg.seed, cfg.n_paths, observe, threads=cfg.threads)),
        axis=1)
    msd = float(np.mean(rho2))
    msd_se = float(np.std(rho2, ddof=1) / math.sqrt(cfg.n_paths))
    defect = float(np.max(defects))
    qn = float(q_decay_factor(m, t))
    rows = [
        ["mean_square_displacement", msd, msd_se, f"monte-carlo({msd_se:.3g})"],
        ["flat_reference_2dt", 2.0 * m.dim * t, 0.0, "closed-form"],
        ["max_embedding_defect", defect, 0.0, "closed-form"],
        ["damped_transport_norm", qn, 0.0, "closed-form"],
    ]
    tables = {"simulate": {"columns": ["statistic", "value", "stderr",
                                       "provenance"], "rows": rows}}
    verdicts = [{"check": "simulate", "passed": bool(defect < 1e-10),
                 "inconclusive": False}]
    return _mk_report(cfg, tables, verdicts)


def _run_estimate(m: ManifoldModel, cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    f = make_field(m, p["field"], p.get("field_params"))
    x = _point_from(m, p.get("point"))
    t = float(p.get("t", 0.5))
    op = p["op"]
    n_steps = max(2, int(round(t / cfg.h)))
    h = t / n_steps
    common = dict(n_paths=cfg.n_paths, h=h, seed=cfg.seed,
                  antithetic=bool(p.get("antithetic", True)),
                  threads=cfg.threads)
    if op == "pt":
        est = estimate_pt(m, f, x, t, **common)
    elif op == "grad":
        v = _tangent_from(m, x, p.get("v"))
        est = estimate_grad(m, f, x, v, t, **common)
    elif op == "hess":
        v = _tangent_from(m, x, p.get("v"))
        w = _tangent_from(m, x, p.get("w"), default_axis=min(1, m.dim - 1))
        est = estimate_hess(m, f, x, v, w, t, mode=p.get("mode", "bismut"),
                            **common)
    else:
        v = _tangent_from(m, x, p.get("v"))
        w = _tangent_from(m, x, p.get("w"), default_axis=min(1, m.dim - 1))
        hcfg = HessianEstimatorConfig(
            sigma=float(p.get("sigma", 1.0)),
            theta=p.get("theta"),
            n_nodes=int(p.get("n_nodes", 40)),
            t_min=float(p.get("t_min", 1e-3)))
        est = estimate_green_hess(m, f, x, v, w, hcfg, **common)
    rows = [[est.mode, est.scalar, est.scalar_stderr,
             est.qtol if est.qtol is not None else "",
             f"monte-carlo({est.scalar_stderr:.3g})"]]
    tables = {"estimate": {"columns": ["mode", "value", "stderr",
                                       "quadrature_tolerance", "provenance"],
                           "rows": rows}}
    verdicts = [{"check": f"estimate-{op}", "passed": True,
                 "inconclusive": est.variance_dominated}]
    return _mk_report(cfg, tables, verdicts)


def _run_verify(m: ManifoldModel, cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    check = p["check"]
    bc = _bound_config(m, p, cfg)
    tables = {}
    verdicts = []
    if check == "kernel-bounds":
        reports = check_kernel_bounds(m, bc)
    elif check == "weighted-l2":
        reports = check_weighted_l2(m, bc)
    elif check == "gaffney":
        reports = (check_gaffney(m, bc, p=float(p.get("p", 2.0)),
                                 cap_radius=float(p.get("cap_radius", 0.3))),)
    elif check == "semigroup-bounds":
        f = make_field(m, p.get("field", "gauss-bump"), p.get("field_params"))
        t_list = p.get("t_list", [0.25, 0.5, 1.0])
        reports = check_semigroup_bounds(
            m, f, bc, n_paths=cfg.n_paths, seed=cfg.seed,
            t_list=[float(t) for t in t_list], threads=cfg.threads)
    elif check == "kato":
        name = p.get("potential", "const")
        pot = make_potential(m, name, p.get("potential_params"))
        t_list = [float(t) for t in p.get("t_list",
                                          [0.1 * k for k in range(1, 11)])]
        res = kato_functional(m, pot, t_list, [_point_from(m, p.get("point"))],
                              n_paths=cfg.n_paths, seed=cfg.seed,
                              threads=cfg.threads)
        cols = ["t", "functional", "functional_se", "expmom", "expmom_se",
                "dropped", "provenance"]
        tables["kato"] = {
            "columns": cols,
            "rows": [[r.get(c, "") for c in cols] for r in res.rows],
            "fitted_constant": res.c_fit,
            "aux_constants": {"theta": res.theta_fit},
            "passed": res.nondecreasing and res.vanishes_at_zero,
            "notes": f"C={res.c_fit:.6g} theta={res.theta_fit:.6g}",
        }
        verdicts.append({"check": "kato",
                         "passed": bool(res.nondecreasing and res.vanishes_at_zero),
                         "inconclusive": False})
        reports = ()
    else:  # pragma: no cover - guarded by validation
        raise ConfigError(f"unknown check {check!r}")
    for rep in reports:
        tables[rep.inequality_id] = _report_to_table(rep)
        verdicts.append(_verdict(rep))
    return _mk_report(cfg, tables, verdicts)


def _run_czscan(m: ManifoldModel, cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    pval = float(p.get("p", 2.0))
    sigma = float(p.get("sigma", 1.0))
    degree = int(p.get("degree", 8))
    sizes = [int(n) for n in p.get("family_sizes", [50, 200])]
    count = max(sizes)
    g = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed)))
    if m.kind == "torus":
        fam = random_trig_polynomials(m, degree, count, g)
    else:
        fam = random_spherical_polynomials(m, degree, count, g)
    rep = cz_scan(m, fam, p=pval, sigma=sigma, family_sizes=sizes,
                  grid_resolution=p.get("grid_resolution"))
    tables = {rep.inequality_id: _report_to_table(rep)}
    return _mk_report(cfg, tables, [_verdict(rep)])


def _mk_report(cfg: ExperimentConfig, tables: dict, verdicts: list) -> RunReport:
    import scipy
    versions = {"mheat": __version__, "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3])}
    status = 0 if all(v["passed"] or v["inconclusive"] for v in verdicts) else 1
    return RunReport(config=cfg.to_dict(), tables=tables, verdicts=verdicts,
                     versions=versions, exit_status=status)


RUNNERS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "verify": _run_verify,
    "czscan": _run_czscan,
}


# ---------------------------------------------------------------------------
# output files

def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


_PARAM_COLUMNS = ("t", "s", "rho", "index", "x_index")


def _write_outputs(report: RunReport, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, table in report.tables.items():
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
        csv_path = os.path.join(out_dir, f"{safe}.csv")
        _write_csv(csv_path, table["columns"], table["rows"])
        written.append(os.path.basename(csv_path))
        cols = table["columns"]
        if "ratio" in cols:
            ridx = cols.index("ratio")
            for param in _PARAM_COLUMNS:
                if param in cols:
                    pidx = cols.index(param)
                    pairs = sorted((row[pidx], row[ridx])
                                   for row in table["rows"]
                                   if row[pidx] != "" and row[ridx] != "")
                    dat_path = os.path.join(out_dir, f"{safe}__ratio_vs_{param}.dat")
                    with open(dat_path, "w", encoding="utf-8") as fh:
                        fh.write(f"# {name}: ratio against {param}\n")
                        for a, b in pairs:
                            fh.write(f"{_fmt(a)} {_fmt(b)}\n")
                    written.append(os.path.basename(dat_path))
    summary = {
        "payload": _jsonify(report.payload()),
        "meta": {"wall_clock_s": report.wall_clock_s,
                 "written": sorted(written)},
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    written.append("summary.json")
    return written


def run_config(path: str, threads: Optional[int] = None,
               out_dir: Optional[str] = None,
               seed: Optional[int] = None) -> RunReport:
    """Load, validate and execute a config; write all output files."""
    cfg = load_config(path)
    if threads is not None:
        cfg.threads = threads
    elif cfg.threads is None:
        env = os.environ.get("MHEAT_THREADS", "")
        cfg.threads = int(env) if env.strip().isdigit() else None
    if out_dir is not None:
        cfg.out_dir = out_dir
    if seed is not None:
        cfg.seed = seed
    m = cfg.build_manifold()
    started = time.monotonic()
    try:
        report = RUNNERS[cfg.kind](m, cfg)
    except Exception as exc:
        os.makedirs(cfg.out_dir, exist_ok=True)
        manifest = {"status": "aborted", "error": f"{type(exc).__name__}: {exc}",
                    "config": cfg.to_dict()}
        with open(os.path.join(cfg.out_dir, "MANIFEST.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        raise
    report.wall_clock_s = time.monotonic() - started
    written = _write_outputs(report, cfg.out_dir)
    manifest = {"status": "complete", "written": sorted(written)}
    with open(os.path.join(cfg.out_dir, "MANIFEST.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return report


def list_builtin(kind: str) -> str:
    """Human-readable registry listing for `mheat list <kind>`."""
    registries = {
        "manifolds": MANIFOLD_REGISTRY,
        "fields": FIELD_REGISTRY,
        "potentials": POTENTIAL_REGISTRY,
        "checks": CHECK_REGISTRY,
    }
    if kind not in registries:
        raise ConfigError(
            f"unknown registry {kind!r}; choose from {sorted(registries)}")
    reg = registries[kind]
    width = max(len(k) for k in reg)
    lines = [f"{k.ljust(width)}  {v}" for k, v in sorted(reg.items())]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point

def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mheat",
        description="Monte Carlo heat-semigroup experiments on model manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a TOML experiment config")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument("--threads", type=int, default=None,
                       help="worker cap for all Monte Carlo path chunks, simulate "
                            "included; results do not depend on it "
                            "(default: MHEAT_THREADS or serial)")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_list = sub.add_parser("list", help="print a builtin registry")
    p_list.add_argument("kind", help="manifolds | fields | potentials | checks")
    args = parser.parse_args(argv)

    if args.command == "list":
        try:
            print(list_builtin(args.kind))
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    try:
        report = run_config(args.config, threads=args.threads,
                            out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for v in report.verdicts:
        state = "PASS" if v["passed"] else "FAIL"
        if v["inconclusive"]:
            state += " (inconclusive samples)"
        print(f"{v['check']}: {state}")
    print(f"outputs in {report.config['out_dir']} "
          f"({report.wall_clock_s:.2f} s)")
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
