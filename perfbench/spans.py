"""Span tracing of mheat's layer entry points, from outside the program.

:class:`Tracer` wraps each entry point listed in :data:`ENTRY_POINTS` and
patches the wrapper into every place the name is looked up: module globals
of every loaded ``mheat`` module for functions, the defining class for
methods.  Each call records one span (name, start, end, thread id, parent)
in memory; counters are computed from the call's arguments or result at the
same boundary.  Nothing is written out until :func:`layer_metrics` reduces
the spans after a pass.

Spans opened on a thread with no open span of its own (a pool worker) take
as parent the innermost estimator span open at that moment, which is the
estimator whose ``_chunked_mc`` pool runs them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer", "layer_metrics", "LAYER_METRICS"]


class Span:
    __slots__ = ("sid", "name", "thread", "start", "end", "parent", "depth",
                 "cross", "attrs")

    def __init__(self, sid, name, thread, parent, depth, cross):
        self.sid = sid
        self.name = name
        self.thread = thread
        self.parent = parent
        self.depth = depth
        self.cross = cross
        self.start = 0.0
        self.end = 0.0
        self.attrs = None


# ---------------------------------------------------------------------------
# counters taken at the call boundary (arguments are not kept)

def _increment_bytes(args, kwargs, result):
    # computed, not measured: the float64 (paths, steps, d) block returned
    return {"bytes": result.size * result.itemsize}


def _walk_init(args, kwargs, result):
    walk = args[0]
    return {"t": walk.t, "n": walk.n_paths}


def _walk_step(args, kwargs, result):
    return {"path_steps": args[0].n_paths}


def _frame_points(args, kwargs, result):
    return {"points": len(result)}


def _kernel_points(args, kwargs, result):
    return {"points": len(result["p"])}


def _green_horizon(args, kwargs, result):
    return {"t_max": float(result.t), "n_paths": int(result.n_paths)}


# (module, attribute path, span name, probe, is_estimator)
ENTRY_POINTS = [
    ("mheat.transport", "increment_block", "transport.increment_block", _increment_bytes, False),
    ("mheat.transport", "ChunkWalk.__init__", "transport.ChunkWalk.init", _walk_init, False),
    ("mheat.transport", "ChunkWalk.step", "transport.ChunkWalk.step", _walk_step, False),
    ("mheat.semigroup", "estimate_pt", "semigroup.estimate_pt", None, True),
    ("mheat.semigroup", "estimate_grad", "semigroup.estimate_grad", None, True),
    ("mheat.semigroup", "estimate_endpoint", "semigroup.estimate_endpoint", None, True),
    ("mheat.semigroup", "estimate_hess", "semigroup.estimate_hess", None, True),
    ("mheat.semigroup", "estimate_green_hess", "semigroup.estimate_green_hess", _green_horizon, True),
    ("mheat.oracle", "kernel_on_grid", "oracle.kernel_on_grid", _kernel_points, False),
    ("mheat.oracle", "quadrature_grid", "oracle.quadrature_grid", None, False),
    ("mheat.spectral", "SphereHarmonicTables.__init__", "spectral.SphereHarmonicTables", None, False),
    ("mheat.verify", "check_kernel_bounds", "verify.check_kernel_bounds", None, False),
    ("mheat.verify", "check_weighted_l2", "verify.check_weighted_l2", None, False),
    ("mheat.verify", "check_gaffney", "verify.check_gaffney", None, False),
    ("mheat.verify", "check_semigroup_bounds", "verify.check_semigroup_bounds", None, False),
    ("mheat.verify", "cz_scan", "verify.cz_scan", None, False),
    ("mheat.cli", "run_config", "cli.run_config", None, False),
]
# model-space methods, wrapped on every class that defines them
GEOMETRY_CLASSES = ("ManifoldModel", "Euclidean", "Torus", "Sphere", "Hyperbolic")
GEOMETRY_METHODS = {
    "frame": _frame_points,
    "exp": None,
    "retract": None,
    "transport_frame": None,
}


class Tracer:
    """In-memory span recorder for the entry points above."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_estimators: List[Span] = []
        self._next_id = 0

    def reset(self) -> None:
        self.spans = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn: Callable, name: str, probe=None, estimator: bool = False):
        tracer = self
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
                if stack:
                    parent, cross = stack[-1].sid, False
                else:
                    inner = tracer._open_estimators
                    parent, cross = (inner[-1].sid if inner else None), bool(inner)
            sp = Span(sid, name, ident(), parent, len(stack) + 1, cross)
            stack.append(sp)
            if estimator:
                with tracer._lock:
                    tracer._open_estimators.append(sp)
            sp.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = clock()
                stack.pop()
                if estimator:
                    with tracer._lock:
                        tracer._open_estimators.remove(sp)
                tracer.spans.append(sp)
            if probe is not None:
                sp.attrs = probe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point where it is looked up; restore on exit."""
        restore = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mheat" or n.startswith("mheat."))]
        try:
            for modname, attr, name, probe, est in ENTRY_POINTS:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    restore.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(orig, name, probe, est))
                    continue
                orig = getattr(owner, attr)
                wrapped = self.wrap(orig, name, probe, est)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            restore.append((mod, key, orig))
                            setattr(mod, key, wrapped)
            geometry = sys.modules["mheat.geometry"]
            for cls_name in GEOMETRY_CLASSES:
                cls = getattr(geometry, cls_name)
                for meth, probe in GEOMETRY_METHODS.items():
                    if meth in cls.__dict__:
                        orig = cls.__dict__[meth]
                        restore.append((cls, meth, orig))
                        setattr(cls, meth, self.wrap(orig, f"geometry.{meth}", probe))
            yield self
        finally:
            for owner, key, orig in reversed(restore):
                setattr(owner, key, orig)


# ---------------------------------------------------------------------------
# reduction

def self_times(spans: List[Span]) -> Dict[int, float]:
    """Wall time attributed to each span, excluding its children.

    Each thread's time goes to the innermost span open on it.  A pool
    thread's time between its spans, from its first to its last span under
    an estimator, goes to that estimator (Ito sums, the W recursion,
    endpoint oracles).  While an estimator has such pool work running, the
    thread that opened it is waiting and is not counted.  When k threads
    are busy at once each gets 1/k of the wall time, so the self times of a
    pass sum to the wall time its spans cover.
    """
    # one synthetic frame per (estimator, pool thread) spanning its work
    seg_bounds: Dict[tuple, list] = {}
    for sp in spans:
        if sp.cross:
            key = (sp.parent, sp.thread)
            b = seg_bounds.get(key)
            if b is None:
                seg_bounds[key] = [sp.start, sp.end]
            else:
                b[0] = min(b[0], sp.start)
                b[1] = max(b[1], sp.end)
    # frame: (start, end, thread, depth, target span id, is_segment)
    frames = [(sp.start, sp.end, sp.thread, sp.depth, sp.sid, False) for sp in spans]
    frames += [(b[0], b[1], thr, 0, parent, True)
               for (parent, thr), b in seg_bounds.items()]
    events = []
    for i, (s, e, _thr, depth, _tgt, _seg) in enumerate(frames):
        events.append((s, 1, depth, i))     # opens: outer frames first
        events.append((e, 0, -depth, i))    # closes: inner frames first
    events.sort()
    stacks: Dict[int, list] = defaultdict(list)
    active_segments: Dict[int, int] = defaultdict(int)
    out: Dict[int, float] = defaultdict(float)
    last = None
    for t, kind, _d, i in events:
        if last is not None and t > last:
            busy = []
            for st in stacks.values():
                if not st:
                    continue
                top = frames[st[-1]]
                if not top[5] and active_segments[top[4]]:
                    continue  # waiting for its pool workers
                busy.append(top[4])
            if busy:
                share = (t - last) / len(busy)
                for tgt in busy:
                    out[tgt] += share
        last = t
        fr = frames[i]
        if kind == 1:
            stacks[fr[2]].append(i)
            if fr[5]:
                active_segments[fr[4]] += 1
        else:
            stacks[fr[2]].remove(i)
            if fr[5]:
                active_segments[fr[4]] -= 1
    return out


# (metric name, unit) in report order; the values come from layer_metrics
LAYER_METRICS = [
    ("transport.increment_block.self_s", "s"),
    ("transport.increment_block.bytes", "B-computed"),
    ("transport.ChunkWalk.init.self_s", "s"),
    ("transport.ChunkWalk.step.self_s", "s"),
    ("transport.ChunkWalk.step.path_steps", "count"),
    ("geometry.transport_frame.self_s", "s"),
    ("geometry.exp.self_s", "s"),
    ("geometry.retract.self_s", "s"),
    ("geometry.frame.self_s", "s"),
    ("geometry.frame.points", "count"),
    ("semigroup.estimator.self_s", "s"),
    ("semigroup.chunks", "count"),
    ("semigroup.threads_used", "count"),
    ("semigroup.green.node_calls", "count"),
    ("semigroup.green.sim_time_ratio", "ratio"),
    ("oracle.kernel_on_grid.calls", "count"),
    ("oracle.kernel_on_grid.points", "count"),
    ("oracle.kernel_on_grid.self_s", "s"),
    ("oracle.quadrature_grid.self_s", "s"),
    ("spectral.SphereHarmonicTables.self_s", "s"),
    ("verify.check_gaffney.wall_s", "s"),
    ("verify.check_weighted_l2.wall_s", "s"),
    ("verify.cz_scan.wall_s", "s"),
    ("verify.check_semigroup_bounds.self_s", "s"),
    ("verify.serial_walks", "count"),
    ("cli.run_config.self_s", "s"),
    ("trace.self_sum_s", "s"),
]

_SELF_LAYERS = {
    "transport.increment_block", "transport.ChunkWalk.init",
    "transport.ChunkWalk.step", "geometry.transport_frame", "geometry.exp",
    "geometry.retract", "geometry.frame", "oracle.kernel_on_grid",
    "oracle.quadrature_grid", "spectral.SphereHarmonicTables",
    "verify.check_semigroup_bounds", "cli.run_config",
}
_WALL_LAYERS = {"verify.check_gaffney", "verify.check_weighted_l2", "verify.cz_scan"}


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer self times, wall times and counts of one traced pass."""
    own = self_times(spans)
    by_id = {sp.sid: sp for sp in spans}
    m: Dict[str, float] = defaultdict(float)
    for name, _unit in LAYER_METRICS:
        m[name] = 0.0

    def estimator_ancestor(sp) -> Optional[Span]:
        p = by_id.get(sp.parent)
        while p is not None and not p.name.startswith("semigroup.estimate_"):
            p = by_id.get(p.parent)
        return p

    walk_threads: Dict[int, set] = defaultdict(set)
    green_walk_time: Dict[int, float] = defaultdict(float)
    for sp in spans:
        s = own.get(sp.sid, 0.0)
        m["trace.self_sum_s"] += s
        if sp.name in _SELF_LAYERS:
            m[f"{sp.name}.self_s"] += s
        if sp.name in _WALL_LAYERS:
            m[f"{sp.name}.wall_s"] += sp.end - sp.start
        if sp.name.startswith("semigroup.estimate_"):
            m["semigroup.estimator.self_s"] += s
        a = sp.attrs or {}
        if sp.name == "transport.increment_block":
            m["transport.increment_block.bytes"] += a.get("bytes", 0)
        elif sp.name == "transport.ChunkWalk.step":
            m["transport.ChunkWalk.step.path_steps"] += a.get("path_steps", 0)
        elif sp.name == "geometry.frame":
            m["geometry.frame.points"] += a.get("points", 0)
        elif sp.name == "oracle.kernel_on_grid":
            m["oracle.kernel_on_grid.calls"] += 1
            m["oracle.kernel_on_grid.points"] += a.get("points", 0)
        elif sp.name == "semigroup.estimate_hess":
            parent = by_id.get(sp.parent)
            if parent is not None and parent.name == "semigroup.estimate_green_hess":
                m["semigroup.green.node_calls"] += 1
        elif sp.name == "transport.ChunkWalk.init":
            est = estimator_ancestor(sp)
            if est is None:
                m["verify.serial_walks"] += 1
                continue
            m["semigroup.chunks"] += 1
            walk_threads[est.sid].add(sp.thread)
            # simulated path-time under each enclosing green call
            p = est
            while p is not None:
                if p.name == "semigroup.estimate_green_hess":
                    green_walk_time[p.sid] += a.get("t", 0.0) * a.get("n", 0)
                p = by_id.get(p.parent)
    m["semigroup.threads_used"] = float(max((len(v) for v in walk_threads.values()),
                                            default=0))
    ratios = []
    for sid, walked in green_walk_time.items():
        a = by_id[sid].attrs or {}
        if a.get("t_max") and a.get("n_paths"):
            ratios.append(walked / (a["t_max"] * a["n_paths"]))
    if ratios:
        m["semigroup.green.sim_time_ratio"] = sum(ratios) / len(ratios)
    return dict(m)
