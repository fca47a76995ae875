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
tolerances, 1 at least one check failed, 2 configuration error.  Every
parameter error is found before the run (``load_config`` builds the run's
inputs), so it exits 2 and writes no outputs.  A key's rules and defaults
are those of the library function it goes to, whose validators the plan
calls: a config gets a library caller's error, which names the key first.
``mode`` (bismut | mixed) applies to the ``hess`` and ``green-hess`` estimates.
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
    _even_paths,
    _green_horizon,
    _hess_mode,
    _require_oracles,
    _walk_chunks,
    estimate_grad,
    estimate_green_hess,
    estimate_hess,
    estimate_pt,
)
from .spectral import _family_rules, random_spherical_polynomials, random_trig_polynomials
from .transport import _grid_steps, q_decay_factor
from .verify import (
    BoundCheckConfig,
    BoundReport,
    _cz_inputs,
    _family_sizes,
    _gaffney_caps,
    _horizons,
    _kato_grid,
    _stat_paths,
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
        return const_field(m, **_kwargs(params, c=float))
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
        return gaussian_bump_field(m, **_kwargs(params, center=_floats, lam=float))
    if name == "compact-bump":
        return compact_bump_field(m, **_kwargs(params, center=_floats, r0=float))
    raise ConfigError(f"field {name!r} is unknown; see `mheat list fields`")


def make_potential(m: ManifoldModel, name: str, params: dict):
    params = dict(params or {})
    if name == "zero":
        return const_field(m, 0.0)
    if name == "const":
        return const_field(m, **_kwargs(params, c=float))
    if name == "curvature-r2":
        return curvature_squared_potential(m)
    if name == "ricgrad-r2":
        return ric_grad_squared_potential(m)
    raise ConfigError(f"potential {name!r} is unknown; see `mheat list potentials`")


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
        return ExperimentConfig(**{**d, "manifold": dict(d["manifold"]),
                                   "params": dict(d.get("params", {}))})

    def build_manifold(self) -> ManifoldModel:
        spec = self.manifold
        return make_manifold(spec.get("kind", ""), _param(spec, "dim", int, 2),
                             **_kwargs(spec, radius=float, curvature_scale=float))


def _param(p: dict, key: str, conv, default=None):
    """``conv(p[key])``, or ``default`` when ``p`` does not set the key; a
    value ``conv`` rejects raises a ValueError that starts with the key."""
    if key not in p:
        return default
    try:
        return conv(p[key])
    except (TypeError, ValueError) as exc:
        if str(exc).startswith(f"{key} = "):
            raise
        raise ValueError(f"{key} = {p[key]!r}: {exc}") from exc


def _kwargs(p: dict, **convs) -> dict:
    """The keys of ``p`` named in ``convs``, converted; a key the config
    leaves out takes the default of the function the keywords go to."""
    return {key: _param(p, key, conv) for key, conv in convs.items() if key in p}


def _floats(spec) -> np.ndarray:
    return np.asarray(spec, dtype=float)


def _positive(spec) -> float:
    value = float(spec)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _grid_from_spec(spec) -> np.ndarray:
    if isinstance(spec, list):
        return _floats(spec)
    if not isinstance(spec, dict) or not {"min", "max", "n"} <= spec.keys():
        raise ValueError("must be a list or a table with min, max and n")
    lo = float(spec["min"])
    hi = float(spec["max"])
    n = int(spec["n"])
    if spec.get("spacing", "linear") == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a TOML experiment config.

    Validation builds the run's plan (:func:`_plan`).  Raises
    :class:`ConfigError` whose message carries the config path and, when
    the offending key can be located, its line number: the line that sets
    the key in its table, or the table's header when the key is missing.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        data = _toml.loads(text)
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except Exception as exc:
        raise ConfigError(f"{path}: TOML parse error: {exc}") from exc

    def fail(message: str, table: Optional[str] = None, key: Optional[str] = None):
        line = None if key is None else _find_key_line(text, key, table)
        raise ConfigError(f"{path if line is None else f'{path}:{line}'}: {message}")

    kind = data.get("kind")
    if kind not in RUNNERS:
        fail(f"kind must be one of {tuple(RUNNERS)}, got {kind!r}", None, "kind")
    man = data.get("manifold")
    if not isinstance(man, dict) or "kind" not in man:
        fail("missing [manifold] table with a 'kind' entry", "manifold", "kind")
    if man["kind"] not in MANIFOLD_REGISTRY:
        fail(f"unknown manifold kind {man['kind']!r}", "manifold", "kind")
    params = data.get(kind, {})
    if not isinstance(params, dict):
        fail(f"[{kind}] must be a table", None, kind)
    try:
        cfg = ExperimentConfig(
            kind=kind, manifold=dict(man), params=dict(params),
            **_kwargs(data, seed=int, n_paths=int, h=float, threads=int,
                      out_dir=str))
        _plan(cfg)
    except (TypeError, ValueError) as exc:
        key = _guess_key(str(exc))
        fail(str(exc), *(_key_table(data, kind, key) if key else ()))
    return cfg


def _guess_key(message: str) -> Optional[str]:
    m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\b", message)
    return m.group(1) if m else None


def _key_table(data: dict, kind: str, key: str):
    """(table, key) of the line that sets ``key`` in a valid config: the
    run's table ``[kind]`` (a key of one of its inline tables, such as
    ``field_params``, at that inline table's line), then ``[manifold]``,
    then the top level (table None); the run's table when none sets it."""
    params = data.get(kind, {})
    if key in params:
        return kind, key
    for name, value in params.items():
        if isinstance(value, dict) and key in value:
            return kind, name
    if key in data["manifold"]:
        return "manifold", key
    if key in data:
        return None, key
    return kind, key


def _find_key_line(text: str, key: str, table: Optional[str] = None) -> Optional[int]:
    """Line number of ``key = ...`` in ``table`` (None: the top level), else
    of the table's header, else None."""
    assign = re.compile(rf"\s*{re.escape(key)}\s*=")
    current, header = None, None
    for number, line in enumerate(text.splitlines(), 1):
        match = re.match(r"\s*\[\s*([A-Za-z0-9_.-]+)\s*\]\s*(?:#.*)?$", line)
        if match:
            current = match.group(1)
            header = number if current == table else header
        elif current == table and assign.match(line):
            return number
    return header


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

def _point_from(m: ManifoldModel, p: dict, key: str) -> Point:
    arr = _param(p, key, _floats)
    if arr is None:
        return Point(m.base_point())
    if arr.shape != (m.ambient_dim,):
        raise ValueError(f"{key} must have {m.ambient_dim} ambient coordinates")
    return Point(m.retract(arr[None, :])[0])


def _tangent_from(m: ManifoldModel, x: Point, p: dict, key: str,
                  default_axis=0) -> TangentVector:
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    coef = _param(p, key, _floats)
    if coef is None:
        return TangentVector(x, F[default_axis])
    if coef.shape != (m.dim,):
        raise ValueError(f"{key} must have {m.dim} tangent coefficients")
    return TangentVector(x, np.einsum("d,da->a", coef, F))


# Each runner reads and converts every key its kind uses, checks it with the
# library's validators and builds its cheap inputs (ValueError or TypeError),
# then returns the call that does the work and returns (tables, verdicts).

def _run_simulate(m: ManifoldModel, cfg: ExperimentConfig):
    p = cfg.params
    t = _param(p, "t", _positive, 1.0)
    n_steps = _grid_steps(t, cfg.h)
    x0 = np.asarray(_point_from(m, p, "x0").coords)

    def observe(walk):
        walk.run()
        rho = m.distance(np.broadcast_to(x0, walk.points.shape), walk.points)
        return np.stack([rho ** 2, m.embedding_defect(walk.points)], axis=1)

    def run():
        values = np.concatenate([v for _, v in _walk_chunks(
            m, x0, t, n_steps, cfg.seed, cfg.n_paths, observe,
            threads=cfg.threads)])
        # one contiguous row per statistic, so each reduction sums as a row
        rho2, defects = np.ascontiguousarray(values.T)
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
        return tables, [{"check": "simulate", "passed": bool(defect < 1e-10),
                         "inconclusive": False}]
    return run


def _run_estimate(m: ManifoldModel, cfg: ExperimentConfig):
    p = cfg.params
    op = p.get("op")
    if op not in ("pt", "grad", "hess", "green-hess"):
        raise ValueError("op must be one of pt | grad | hess | green-hess")
    f = make_field(m, p.get("field"), p.get("field_params"))
    x = _point_from(m, p, "point")
    t = _param(p, "t", _positive, 0.5)
    antithetic = _param(p, "antithetic", bool, True)
    _even_paths(cfg.n_paths, antithetic)
    # Green walks each of its quadrature nodes on the grid of step h itself
    h = cfg.h if op == "green-hess" else t / _grid_steps(t, cfg.h, lo=2)
    common = dict(n_paths=cfg.n_paths, h=h, seed=cfg.seed,
                  antithetic=antithetic, threads=cfg.threads)
    if op == "pt":
        estimate = lambda: estimate_pt(m, f, x, t, **common)
    elif op == "grad":
        _require_oracles(f, "grad")
        v = _tangent_from(m, x, p, "v")
        estimate = lambda: estimate_grad(m, f, x, v, t, **common)
    else:
        v = _tangent_from(m, x, p, "v")
        w = _tangent_from(m, x, p, "w", default_axis=min(1, m.dim - 1))
        common.update(_kwargs(p, mode=str))
        if "mode" in common:
            _hess_mode(f, common["mode"])
        if op == "hess":
            estimate = lambda: estimate_hess(m, f, x, v, w, t, **common)
        else:
            hcfg = HessianEstimatorConfig(**_kwargs(
                p, sigma=float, theta=float, n_nodes=int, t_min=float))
            _green_horizon(m, hcfg)
            estimate = lambda: estimate_green_hess(m, f, x, v, w, hcfg, **common)

    def run():
        est = estimate()
        rows = [[est.mode, est.scalar, est.scalar_stderr,
                 est.qtol if est.qtol is not None else "",
                 f"monte-carlo({est.scalar_stderr:.3g})"]]
        tables = {"estimate": {"columns": ["mode", "value", "stderr",
                                           "quadrature_tolerance", "provenance"],
                               "rows": rows}}
        return tables, [{"check": f"estimate-{op}", "passed": True,
                         "inconclusive": est.variance_dominated}]
    return run


def _run_verify(m: ManifoldModel, cfg: ExperimentConfig):
    p = cfg.params
    check = p.get("check")
    if check not in CHECK_REGISTRY or check == "czscan":
        raise ValueError(
            f"check must be one of {sorted(k for k in CHECK_REGISTRY if k != 'czscan')}")
    if check in ("semigroup-bounds", "kato"):
        _stat_paths(cfg.n_paths)
    # each check's BoundCheckConfig takes only the keys that check reads
    if check in ("kernel-bounds", "weighted-l2"):
        bc = BoundCheckConfig(h=cfg.h, **_kwargs(
            p, alpha=float, beta=float, gamma=float, t_grid=_grid_from_spec,
            rho_grid=_grid_from_spec, s_grid=_grid_from_spec, grid_resolution=int))
        if check == "kernel-bounds":
            reports = lambda: check_kernel_bounds(m, bc)
        else:
            bc.require_gamma()
            bc.require_tail_beta()
            reports = lambda: check_weighted_l2(m, bc)
    elif check == "gaffney":
        bc = BoundCheckConfig(**_kwargs(p, t_grid=_grid_from_spec))
        pval = _param(p, "p", float, 2.0)
        opts = _kwargs(p, cap_radius=float)
        _gaffney_caps(m, pval, **opts)
        reports = lambda: (check_gaffney(m, bc, p=pval, **opts),)
    elif check == "semigroup-bounds":
        f = make_field(m, p.get("field", "gauss-bump"), p.get("field_params"))
        _require_oracles(f, "mixed")
        opts = _kwargs(p, t_list=_horizons)
        reports = lambda: check_semigroup_bounds(
            m, f, BoundCheckConfig(h=cfg.h), n_paths=cfg.n_paths, seed=cfg.seed,
            threads=cfg.threads, **opts)
    else:
        pot = make_potential(m, p.get("potential", "const"),
                             p.get("potential_params"))
        t_list = _param(p, "t_list", _horizons, [0.1 * k for k in range(1, 11)])
        _kato_grid(t_list, cfg.h)
        x = _point_from(m, p, "point")

        def reports():
            res = kato_functional(m, pot, t_list, [x], n_paths=cfg.n_paths,
                                  seed=cfg.seed, h=cfg.h, threads=cfg.threads)
            return (BoundReport(
                "kato", res.rows, res.c_fit,
                res.nondecreasing and res.vanishes_at_zero,
                notes=f"C={res.c_fit:.6g} theta={res.theta_fit:.6g}",
                aux_constants={"theta": res.theta_fit}),)

    def run():
        reps = reports()
        return ({rep.inequality_id: _report_to_table(rep) for rep in reps},
                [_verdict(rep) for rep in reps])
    return run


def _run_czscan(m: ManifoldModel, cfg: ExperimentConfig):
    p = cfg.params
    pval = _param(p, "p", float, 2.0)
    sigma = _param(p, "sigma", float, 1.0)
    degree = _param(p, "degree", int, 8)
    sizes = _param(p, "family_sizes", _family_sizes, [50, 200])
    resolution = _param(p, "grid_resolution", int)
    family = (random_trig_polynomials if _cz_inputs(m, pval, resolution) == "torus"
              else random_spherical_polynomials)
    _family_rules(m, degree)
    if cfg.seed < 0:
        raise ValueError("seed must be non-negative for czscan")

    def run():
        g = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed)))
        fam = family(m, degree, max(sizes), g)
        rep = cz_scan(m, fam, p=pval, sigma=sigma, family_sizes=sizes,
                      grid_resolution=resolution)
        return {rep.inequality_id: _report_to_table(rep)}, [_verdict(rep)]
    return run


RUNNERS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "verify": _run_verify,
    "czscan": _run_czscan,
}


def _plan(cfg: ExperimentConfig):
    """Check every parameter of ``cfg`` and return the call that runs it."""
    if cfg.h <= 0:
        raise ValueError("h must be positive")
    if cfg.n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    return RUNNERS[cfg.kind](cfg.build_manifold(), cfg)


def _mk_report(cfg: ExperimentConfig, tables: dict, verdicts: list) -> RunReport:
    import scipy
    versions = {"mheat": __version__, "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3])}
    status = 0 if all(v["passed"] or v["inconclusive"] for v in verdicts) else 1
    return RunReport(config=cfg.to_dict(), tables=tables, verdicts=verdicts,
                     versions=versions, exit_status=status)


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
    try:
        run = _plan(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    started = time.monotonic()
    try:
        report = _mk_report(cfg, *run())
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
