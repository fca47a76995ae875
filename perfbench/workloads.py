"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

``setup(name, seed, workdir)`` builds everything a workload needs before the
first timed call (models, fields, points, families, configs).  A workload is
a list of :class:`Case` objects; ``run_pass`` calls each case once, times it,
and judges its output against a closed form or a verdict.  Pass ``rep`` of a
Monte Carlo case draws its own seed from the workload's seed and ``rep``.  Program entry
points are looked up as module attributes at call time, so the tracer in
``spans.py`` sees every call once it has patched those attributes.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from mheat import cli, geometry, semigroup, spectral, verify

# A closed form must lie within this many standard errors of the estimate;
# a fresh seed then raises a false alarm with probability below 1e-4.
Z_GATE = 4.0
# time_to_accuracy_s scales each call's wall time to this standard error
TARGET_STDERR = 1e-3


@dataclass
class Case:
    """One timed call into the program and the judge of its output.

    ``judge(result)`` returns ``(stderr, work, checks)``: the stderr that
    enters time-to-accuracy (None for exact quadrature), the call's work
    and a list of ``(label, ok, detail)`` checks.  Work is the simulated
    path-steps ``n_paths * steps`` summed over a Monte Carlo call's
    estimates, and the number of verdicts for a quadrature call, which
    simulates no paths.
    """

    name: str
    call: Callable[[int, int], object]  # (threads, rep) -> result
    judge: Callable[[object], tuple]


@dataclass
class CallRecord:
    name: str
    wall: float
    stderr: Optional[float]
    work: int
    checks: List[tuple] = field(default_factory=list)


def _seeds(seed: int, n: int) -> List[int]:
    ss = np.random.SeedSequence([int(seed), 20210830])
    return [int(s) for s in ss.generate_state(n, dtype=np.uint64)]


def _pass_seed(base: int, rep: int) -> int:
    """The Monte Carlo seed of pass ``rep``, fixed by ``base`` and ``rep``."""
    ss = np.random.SeedSequence([base, rep])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _sphere_point(m, z: float, rng: np.random.Generator):
    """A point at height z on the unit sphere with a seeded azimuth.

    The sphere is rotation invariant about the z axis and f = z, so the
    exact value and the cost do not depend on the azimuth.
    """
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(1.0 - z * z)
    x = geometry.Point(m.retract(np.array([[r * math.cos(phi), r * math.sin(phi), z]]))[0])
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    return x, geometry.TangentVector(x, F[0])


def _closed_form_check(label: str, est, exact: float, qtol: float = 0.0):
    err = abs(est.scalar - exact)
    tol = Z_GATE * est.scalar_stderr + qtol
    return (label, bool(err <= tol),
            f"value={est.scalar:.6g} exact={exact:.6g} err={err:.3g} tol={tol:.3g}")


# ---------------------------------------------------------------------------
# hess-curved: one horizon, many paths, 2 chunks on 2 threads

def _hess_curved(seed: int, workdir: str) -> List[Case]:
    m = geometry.Sphere(2, 1.0)
    f = geometry.coordinate_field(m, axis=2)
    s_bismut, s_mixed, s_point = _seeds(seed, 3)
    z, t, h, n_paths = 0.8, 0.5, 0.0025, 16384
    x, v = _sphere_point(m, z, np.random.default_rng(s_point))
    exact = -math.exp(-2.0 * t) * z  # Hess P_t z = -e^{-2t} z g on S^2
    steps = n_paths * round(t / h)
    cases = []
    for mode, s in (("bismut", s_bismut), ("mixed", s_mixed)):
        def call(threads, rep, mode=mode, s=s):
            return semigroup.estimate_hess(m, f, x, v, v, t, None, mode,
                                           n_paths=n_paths, h=h,
                                           seed=_pass_seed(s, rep),
                                           threads=threads)

        def judge(est, mode=mode):
            return est.scalar_stderr, steps, [_closed_form_check(f"hess-{mode}", est, exact)]
        cases.append(Case(f"hess-{mode}", call, judge))
    return cases


# ---------------------------------------------------------------------------
# green-curved: 40 small estimator calls that each re-simulate from t = 0

def _green_curved(seed: int, workdir: str) -> List[Case]:
    m = geometry.Sphere(2, 1.0)
    f = geometry.coordinate_field(m, axis=2)
    s_mc, s_point = _seeds(seed, 2)
    z, h, n_paths = 0.8, 0.01, 2000
    cfg = semigroup.HessianEstimatorConfig(sigma=3.0)
    x, v = _sphere_point(m, z, np.random.default_rng(s_point))
    # (Delta + sigma) z = (2 + sigma) z and Hess z = -z g on S^2
    exact = -z / (2.0 + cfg.sigma)

    def call(threads, rep):
        return semigroup.estimate_green_hess(m, f, x, v, v, cfg, n_paths=n_paths,
                                             h=h, seed=_pass_seed(s_mc, rep),
                                             threads=threads,
                                             mode="mixed")

    def judge(est):
        # node rule of the per-node quadrature: geometric nodes up to the
        # returned t_max, each walked from 0 with about t/h (>= 8) steps
        nodes = np.geomspace(cfg.t_min, est.t, cfg.n_nodes)
        steps = n_paths * int(sum(np.clip(np.round(nodes / h), 8, 200000)))
        return (est.scalar_stderr, steps,
                [_closed_form_check("green-mixed", est, exact, est.qtol)])
    return [Case("green-mixed", call, judge)]


# ---------------------------------------------------------------------------
# verify-quadrature: kernel and spectral quadrature, no Monte Carlo

_WEIGHTED_L2_TOML = """\
kind = "verify"
seed = {seed}
out_dir = "{out}"

[manifold]
kind = "torus"
dim = 2

[verify]
check = "weighted-l2"
alpha = 0.24
gamma = 0.3
beta = 0.12
grid_resolution = 48
s_grid = {{ min = 0.05, max = 2.0, n = 10, spacing = "log" }}
t_grid = {{ min = 0.05, max = 2.0, n = 6, spacing = "log" }}
"""

_KERNEL_BOUNDS_TOML = """\
kind = "verify"
seed = {seed}
out_dir = "{out}"

[manifold]
kind = "euclidean"
dim = 2

[verify]
check = "kernel-bounds"
alpha = 0.2
beta = 0.2
t_grid = {{ min = 0.01, max = 4.0, n = 20 }}
rho_grid = {{ min = 0.0, max = 5.0, n = 20 }}
"""


def _verdict_checks(label: str, reports) -> List[tuple]:
    return [(f"{label}:{r.inequality_id}", bool(r.passed), r.notes) for r in reports]


def _verify_quadrature(seed: int, workdir: str) -> List[Case]:
    s_center, s_family, s_wl2, s_kb = _seeds(seed, 4)
    torus = geometry.Torus(2)
    # the torus is translation invariant: a seeded cap centre moves the grid
    # without changing the verdict or the cost
    centerE = np.random.default_rng(s_center).uniform(0.0, 2.0 * math.pi, 2)
    gaffney_cfg = verify.BoundCheckConfig(alpha=0.2, t_grid=np.geomspace(0.01, 0.25, 3))
    sphere = geometry.Sphere(2, 1.0)
    family = spectral.random_spherical_polynomials(
        sphere, 6, 200, np.random.Generator(np.random.Philox(key=s_family)))
    configs = []
    for name, text, s in (("weighted-l2", _WEIGHTED_L2_TOML, s_wl2 % 2**31),
                          ("kernel-bounds", _KERNEL_BOUNDS_TOML, s_kb % 2**31)):
        out = os.path.join(workdir, name)
        path = os.path.join(workdir, f"{name}.toml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.format(seed=s, out=out))
        configs.append((name, path))

    def gaffney(threads, rep):
        return verify.check_gaffney(torus, gaffney_cfg, p=4.0, cap_radius=0.3,
                                    centerE=centerE)

    def czscan(threads, rep):
        return verify.cz_scan(sphere, family, p=4.0, sigma=1.0,
                              family_sizes=[50, 200])

    cases = [
        Case("gaffney-t2", gaffney,
             lambda rep: (None, 1, _verdict_checks("gaffney-t2", [rep]))),
        Case("czscan-s2", czscan,
             lambda rep: (None, 1, _verdict_checks("czscan-s2", [rep]))),
    ]
    for name, path in configs:
        def call(threads, rep, path=path):
            return cli.run_config(path, threads=threads)

        def judge(report, name=name):
            checks = [(f"{name}:exit", report.exit_status == 0,
                       f"exit_status={report.exit_status}")]
            checks += [(f"{name}:{v['check']}", bool(v["passed"]), "")
                       for v in report.verdicts]
            return None, len(report.verdicts), checks
        cases.append(Case(f"run-config-{name}", call, judge))
    return cases


# ---------------------------------------------------------------------------
# verify-mc: the verify layer's own serial chunk loop on H^2

def _verify_mc(seed: int, workdir: str) -> List[Case]:
    m = geometry.Hyperbolic(2, 1.0)
    f = geometry.gaussian_bump_field(m, lam=1.5)
    cfg = verify.BoundCheckConfig(alpha=0.2, h=0.005)
    (s_mc,) = _seeds(seed, 1)
    n_paths, t_list, n_points = 2000, [0.25, 0.5, 1.0], 5
    steps = n_paths * n_points * sum(max(2, round(t / cfg.h)) for t in t_list)

    def call(threads, rep):
        return verify.check_semigroup_bounds(m, f, cfg, n_paths=n_paths,
                                             seed=_pass_seed(s_mc, rep),
                                             t_list=t_list, include_lp=False)

    def judge(reports):
        rep_a, rep_b, rep_c = reports
        checks = _verdict_checks("semigroup", [rep_a, rep_c])
        # the L^p report is skipped by include_lp=False and returned empty;
        # check that it was skipped rather than judged
        checks.append(("semigroup:lp-skipped",
                       not rep_b.samples and rep_b.notes.startswith("skipped"),
                       rep_b.notes))
        stderr = max(r["stderr"] for r in rep_a.samples)
        return stderr, steps, checks
    return [Case("semigroup-bounds-h2", call, judge)]


_BUILDERS = {
    "hess-curved": _hess_curved,
    "green-curved": _green_curved,
    "verify-quadrature": _verify_quadrature,
    "verify-mc": _verify_mc,
}


def setup(name: str, seed: int, workdir: str) -> List[Case]:
    """Build a workload's inputs; ``workdir`` receives generated configs."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[name](seed, workdir)


def run_pass(cases: List[Case], threads: int, rep: int = 0) -> List[CallRecord]:
    """Call every case once as pass ``rep``; an exception is a failed check."""
    records = []
    for case in cases:
        t0 = time.perf_counter()
        try:
            result = case.call(threads, rep)
        except Exception as exc:
            wall = time.perf_counter() - t0
            traceback.print_exc()
            records.append(CallRecord(case.name, wall, None, 0,
                                      [(case.name, False, f"{type(exc).__name__}: {exc}")]))
            continue
        wall = time.perf_counter() - t0
        try:
            stderr, work, checks = case.judge(result)
        except Exception as exc:
            traceback.print_exc()
            stderr, work, checks = None, 0, [(case.name, False, f"judge: {exc}")]
        records.append(CallRecord(case.name, wall, stderr, work, checks))
    return records
