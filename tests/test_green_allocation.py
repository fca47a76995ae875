"""Neyman path allocation across the Green quadrature nodes.

estimate_green_hess sizes each node's path count from a discarded pilot; a
reference loop here runs the equal rule (n_paths at every node, on the same
node streams) to compare stderr and path-steps against.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from mheat import semigroup
from mheat.geometry import (
    Euclidean,
    Point,
    Sphere,
    TangentVector,
    coordinate_field,
    square_coordinate_field,
)
from mheat.semigroup import (
    HessianEstimatorConfig,
    _neyman_counts,
    derive_seed,
    estimate_green_hess,
    estimate_hess,
)

SIGMA, Z, H, N_PATHS, SEED = 3.0, 0.8, 0.01, 2000, 7


def tv(m, x, comps):
    F = m.frame(np.asarray(x.coords)[None, :])[0]
    return TangentVector(x, np.einsum("d,da->a", np.asarray(comps, float), F))


def _s2_case():
    m = Sphere(2, 1.0)
    x = Point(np.array([math.sqrt(1.0 - Z * Z), 0.0, Z]))
    return m, coordinate_field(m, axis=2), x, tv(m, x, [1, 0])


def _node_rule(cfg, t_max):
    """Nodes, steps and the quadrature coefficient of each node's estimate
    (node 0 also carries the [0, t_min) head rectangle)."""
    nodes = np.geomspace(cfg.t_min, t_max, cfg.n_nodes)
    steps = np.clip(np.round(nodes / H), 8, 200000).astype(int)
    du = np.diff(np.log(nodes))
    wts = np.zeros(len(nodes))
    wts[:-1] += 0.5 * du
    wts[1:] += 0.5 * du
    head_w = (1.0 - math.exp(-cfg.sigma * cfg.t_min)) / cfg.sigma
    coef = wts * nodes * np.exp(-cfg.sigma * nodes)
    return nodes, steps, coef, head_w


@functools.lru_cache(maxsize=None)
def _recorded(mode):
    """The S^2 Green estimate and every estimate_hess call it made."""
    m, f, x, v = _s2_case()
    cfg = HessianEstimatorConfig(sigma=SIGMA)
    calls = []

    def recorder(*args, **kw):
        est = estimate_hess(*args, **kw)
        calls.append((kw["n_paths"], kw["h"], est))
        return est

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup, "estimate_hess", recorder)
        est = estimate_green_hess(m, f, x, v, v, cfg, n_paths=N_PATHS, h=H,
                                  seed=SEED, mode=mode)
    return est, calls


@functools.lru_cache(maxsize=None)
def _equal_rule(mode):
    """Reference: n_paths at every node on the node streams, same stderr rule."""
    m, f, x, v = _s2_case()
    cfg = HessianEstimatorConfig(sigma=SIGMA)
    est, _ = _recorded(mode)
    nodes, steps, coef, head_w = _node_rule(cfg, est.t)
    with warnings.catch_warnings():
        # tail nodes near zero are variance dominated, as in the estimator
        warnings.simplefilter("ignore", UserWarning)
        se = np.array([
            estimate_hess(m, f, x, v, v, float(t), cfg, mode, n_paths=N_PATHS,
                          h=float(t) / int(s), seed=derive_seed(SEED, 101, i))
            .scalar_stderr
            for i, (t, s) in enumerate(zip(nodes, steps))])
    coef[0] += head_w
    return math.sqrt(float(np.sum((coef * se) ** 2))), N_PATHS * int(steps.sum())


def test_flat_fallback_golden():
    # every pilot deviation is 0, so each node walks n_paths paths: the
    # equal rule, bitwise as before the allocation
    m = Euclidean(2)
    x = Point([0.0, 0.0])
    v = tv(m, x, [1, 0])
    est = estimate_green_hess(m, square_coordinate_field(m), x, v, v,
                              HessianEstimatorConfig(sigma=4.0), n_paths=400,
                              h=0.01, seed=41)
    assert est.scalar.hex() == "0x1.fffde6c4ca3a2p-2"
    assert est.scalar_stderr == 0.0
    assert est.qtol.hex() == "0x1.08f6a1fb9c269p-10"
    assert "node paths 400-400" in est.notes


def test_bitwise_equal_across_threads():
    m, f, x, v = _s2_case()
    cfg = HessianEstimatorConfig(sigma=SIGMA, n_nodes=12)
    runs = [estimate_green_hess(m, f, x, v, v, cfg, n_paths=400, h=0.02,
                                seed=11, chunk_size=64, threads=th)
            for th in (1, 2)]
    assert runs[0].scalar.hex() == runs[1].scalar.hex()
    assert runs[0].scalar_stderr.hex() == runs[1].scalar_stderr.hex()
    assert runs[0].notes == runs[1].notes


def test_count_rule_synthetic():
    b = np.array([3.0, 1.0, 0.2, 1e-3, 0.0])
    steps = np.array([8, 20, 90, 400, 700])
    n = _neyman_counts(b, steps, 1000, 64)
    assert np.all(n % 2 == 0) and np.all(n >= 64)
    assert np.sum(b ** 2 / n) <= np.sum(b ** 2) / 1000
    assert n @ steps <= 1000 * steps.sum()
    # no positive or no finite deviation: the equal rule
    assert np.array_equal(_neyman_counts(np.zeros(5), steps, 1000, 64),
                          np.full(5, 1000))
    assert np.array_equal(_neyman_counts(np.full(5, np.inf), steps, 999, 64),
                          np.full(5, 999))


def test_count_rule_keeps_equal_rule_when_floor_costs_more():
    # Neyman gives [79.2, 39.6]; even and floored at 64 that is [80, 64],
    # more path-steps than 66 at each node
    n = _neyman_counts(np.array([1.0, 0.5]), np.array([100, 100]), 66, 64)
    assert np.array_equal(n, [66, 66])


@pytest.mark.parametrize("mode, value", [("bismut", "-0x1.fe85e24c897d6p-2"),
                                         ("mixed", "-0x1.49b989550968ep-3")])
def test_small_path_count_runs_no_pilot(mode, value):
    # at n_paths <= 64 every floored count is at least n_paths, so no pilot
    # runs and every node walks n_paths paths; the values are goldens of
    # the equal rule from before the allocation
    m, f, x, v = _s2_case()
    cfg = HessianEstimatorConfig(sigma=SIGMA, n_nodes=12)
    calls = []

    def recorder(*args, **kw):
        calls.append(kw["n_paths"])
        return estimate_hess(*args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup, "estimate_hess", recorder)
        est = estimate_green_hess(m, f, x, v, v, cfg, n_paths=64, h=0.02,
                                  seed=13, mode=mode)
    assert calls == [64] * 12
    assert est.scalar.hex() == value
    assert "path-steps pilot=0 " in est.notes


@pytest.mark.parametrize("mode", ["bismut", "mixed"])
def test_count_rule_on_sphere(mode):
    est, calls = _recorded(mode)
    cfg = HessianEstimatorConfig(sigma=SIGMA)
    nodes, steps, coef, head_w = _node_rule(cfg, est.t)
    coef[0] += head_w
    pilot, main = calls[:len(nodes)], calls[len(nodes):]
    assert len(main) == len(nodes)
    assert all(c[0] == 64 for c in pilot)
    b = np.abs(coef) * np.array([e.scalar_stderr for _, _, e in pilot]) * 8.0
    n = np.array([c[0] for c in main])
    assert np.all(n % 2 == 0) and np.all(n >= 64)
    assert np.sum(b ** 2 / n) <= np.sum(b ** 2) / N_PATHS * (1 + 1e-12)
    main_steps = np.array([round(t / h) for t, (_, h, _) in zip(nodes, main)])
    assert np.array_equal(main_steps, steps)
    assert n @ steps <= N_PATHS * steps.sum()
    assert f"main={int(n @ steps)} equal-rule={N_PATHS * int(steps.sum())}" in est.notes
    assert f"node paths {n.min()}-{n.max()}" in est.notes


@pytest.mark.parametrize("mode", ["bismut", "mixed"])
def test_stderr_couples_head_and_node_zero(mode):
    est, calls = _recorded(mode)
    cfg = HessianEstimatorConfig(sigma=SIGMA)
    nodes, _, coef, head_w = _node_rule(cfg, est.t)
    se = np.array([e.scalar_stderr for _, _, e in calls[len(nodes):]])
    independent = math.sqrt(float(np.sum((coef * se) ** 2)) + (head_w * se[0]) ** 2)
    coef[0] += head_w
    assert est.scalar_stderr == pytest.approx(
        math.sqrt(float(np.sum((coef * se) ** 2))), rel=1e-12)
    # node 0 and the head are one estimate: their errors add, not in quadrature
    assert est.scalar_stderr > independent


@pytest.mark.parametrize("mode", ["bismut", "mixed"])
def test_sphere_closed_form(mode):
    est, _ = _recorded(mode)
    exact = -Z / (2.0 + SIGMA)
    assert abs(est.scalar - exact) <= 4.0 * est.scalar_stderr + est.qtol


def test_mixed_same_accuracy_at_lower_cost():
    est, calls = _recorded("mixed")
    _, steps, _, _ = _node_rule(HessianEstimatorConfig(sigma=SIGMA), est.t)
    se_equal, steps_equal = _equal_rule("mixed")
    assert 0.8 <= est.scalar_stderr / se_equal <= 1.25
    n = np.array([c[0] for c in calls[len(steps):]])
    assert n @ steps <= 0.5 * steps_equal


def test_odd_path_count_rejected_with_antithetic():
    # the allocated counts are even, so the check must not rest on them
    m, f, x, v = _s2_case()
    with pytest.raises(ValueError, match="even path count"):
        estimate_green_hess(m, f, x, v, v, HessianEstimatorConfig(sigma=SIGMA),
                            n_paths=2001, h=H, seed=SEED)
