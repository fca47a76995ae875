#!/usr/bin/env python3
"""mheat benchmark: one workload in a fresh process, metrics on the last line.

    python3 perfbench/run.py --workload hess-curved --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` times whole workload passes at 1 thread with tracing off
and prints the end-to-end metrics; ``--trace 1`` alternates an untraced
pass at 2 threads, a traced pass at 2 threads and a traced pass at 1
thread, and prints the per-layer metrics.  ``--seconds`` bounds the whole
run, set-up probes included.  Every pass checks its outputs (closed forms within 4
standard errors, verify verdicts, run_config exit status); a failed check
or an exception counts in ``failed`` and does not stop the run.  See
README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS/OpenMP pools to one thread before numpy loads (here and in every
# child): the traced run's estimators use 2 worker threads on 2 cores, and
# OpenBLAS would otherwise start nproc threads of its own under each.
PINNED_POOLS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_POOLS:
    os.environ[_var] = "1"
os.environ.pop("MHEAT_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# generated configs and run_config outputs, one directory per process
WORKDIR = ROOT / ".perfbench_work" / str(os.getpid())

WORKLOADS = ("hess-curved", "green-curved", "verify-quadrature", "verify-mc")
# End-to-end passes run the estimators at 1 thread: on a 2-core host a
# 2-thread pass is as slow as its slower worker, so any other runnable
# process moves its wall time.  The traced run compares 2 threads with 1.
E2E_THREADS = 1
TRACE_THREADS = 2
MIN_PASSES = 3
SETUP_REPEATS = 5


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import mheat from this checkout's src/, never from elsewhere."""
    if not (SRC / "mheat" / "__init__.py").is_file():
        _fail(f"no mheat sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import mheat
    if Path(mheat.__file__).resolve().parent != (SRC / "mheat").resolve():
        _fail(f"imported mheat from {mheat.__file__}, not from {SRC}")
    return mheat


def _setup_probe(workload: str, seed: int) -> None:
    """Child process: time import + inputs of one workload, print seconds."""
    t0 = time.perf_counter()
    _import_program()
    import workloads
    try:
        workloads.setup(workload, seed, str(WORKDIR))
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
    finally:
        _remove_workdir()


def _setup_times(workload: str, seed: int) -> list:
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail(f"set-up probe exited with {proc.returncode}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _remove_workdir() -> None:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        WORKDIR.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _environment() -> dict:
    import numpy as np
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy has no dict mode; the record is optional
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "pinned_pools": {v: os.environ[v] for v in PINNED_POOLS},
        "threads": E2E_THREADS,
    }


def _judge_pass(records, totals) -> None:
    for rec in records:
        for label, ok, detail in rec.checks:
            totals["attempted"] += 1
            if not ok:
                totals["failed"] += 1
                print(f"FAILED check {label}: {detail}", file=sys.stderr)


def _time_to_accuracy(passes) -> float:
    """Sum over calls of median wall x mean (stderr / target)^2 over passes.

    Each pass draws fresh Monte Carlo seeds, so the mean of stderr^2 is the
    estimator's variance at its path count rather than one seed's draw of
    it.  Quadrature results are exact at their pinned grids, so their cost
    at fixed accuracy is their wall time.
    """
    import workloads
    tta = 0.0
    for calls in zip(*passes):
        errs = [r.stderr for r in calls if r.stderr is not None]
        scale = statistics.fmean((e / workloads.TARGET_STDERR) ** 2 for e in errs) if errs else 1.0
        tta += statistics.median(r.wall for r in calls) * scale
    return tta


def _timed_pass(cases, threads, totals, rep=0):
    import workloads
    t0 = time.perf_counter()
    records = workloads.run_pass(cases, threads, rep)
    wall = time.perf_counter() - t0
    _judge_pass(records, totals)
    return records, wall


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _another(deadline: float, last: float) -> bool:
    """True if a repetition lasting about ``last`` still ends in time."""
    return time.perf_counter() + last <= deadline


def run_untraced(cases, deadline, rss_setup, totals) -> dict:
    # one untimed pass first: the first pass in a process is slower (lazy
    # imports, first-touch of fresh heap pages) and would skew the median
    _, wall = _timed_pass(cases, E2E_THREADS, totals)
    passes, walls = [], []
    while len(passes) < MIN_PASSES or _another(deadline, wall):
        records, wall = _timed_pass(cases, E2E_THREADS, totals, rep=len(passes) + 1)
        passes.append(records)
        walls.append(wall)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)
    work = statistics.median(sum(r.work for r in records) for records in passes)
    print(f"passes: {len(passes)}  walls: " + " ".join(f"{w:.3f}" for w in walls),
          file=sys.stderr)
    return {
        "wall_s": _metric(wall_s, "s"),
        "time_to_accuracy_s": _metric(_time_to_accuracy(passes), "s"),
        "throughput_per_s": _metric(work / wall_s, "1/s"),
        "peak_rss_mb": _metric(peak - rss_setup, "MB"),
    }


def run_traced(cases, deadline, totals) -> dict:
    import spans
    tracer = spans.Tracer()
    _timed_pass(cases, TRACE_THREADS, totals)  # untimed, as in run_untraced
    untraced, traced, single, layers = [], [], [], []
    cycle = 0.0
    while not traced or _another(deadline, cycle):
        t_cycle = time.perf_counter()
        _, wall = _timed_pass(cases, TRACE_THREADS, totals)
        untraced.append(wall)
        with tracer.installed():
            for threads, walls in ((TRACE_THREADS, traced), (1, single)):
                tracer.reset()
                _, wall = _timed_pass(cases, threads, totals)
                walls.append(wall)
                if threads == TRACE_THREADS:
                    figures = spans.layer_metrics(tracer.spans)
                    figures["trace.wall_s"] = wall
                    layers.append(figures)
        tracer.reset()
        cycle = time.perf_counter() - t_cycle
    out = {}
    for name, unit in spans.LAYER_METRICS:
        out[name] = _metric(statistics.median(f[name] for f in layers), unit)
    wall_t = statistics.median(traced)
    out["trace.wall_s"] = _metric(wall_t, "s")
    out["trace.overhead"] = _metric(wall_t / statistics.median(untraced), "ratio")
    out["trace.self_coverage"] = _metric(
        statistics.median(f["trace.self_sum_s"] / f["trace.wall_s"] for f in layers), "ratio")
    out["semigroup.speedup_2t"] = _metric(statistics.median(single) / wall_t, "ratio")
    return out


def _print_table(metrics: dict, totals: dict) -> None:
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:>16.6g} {m['unit']}")
    frac = totals["failed"] / max(totals["attempted"], 1)
    print(f"{'fail_frac':<42} {frac:>16.6g} (failed {totals['failed']} "
          f"of {totals['attempted']} checks)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if not (SRC / "mheat" / "__init__.py").is_file():
        _fail(f"no mheat sources under {SRC}; run from the root of a checkout")
    deadline = time.perf_counter() + args.seconds
    try:
        # set-up is timed only where it is reported
        setup = [] if args.trace else _setup_times(args.workload, args.seed)
        t0 = time.perf_counter()
        _import_program()
        import workloads
        cases = workloads.setup(args.workload, args.seed, str(WORKDIR))
        setup.append(time.perf_counter() - t0)
        rss_setup = _rss_mb()
        env = _environment()
        print("environment: " + json.dumps(env, sort_keys=True))
        totals = {"attempted": 0, "failed": 0}
        if args.trace:
            metrics = run_traced(cases, deadline, totals)
        else:
            metrics = run_untraced(cases, deadline, rss_setup, totals)
            metrics["setup_s"] = _metric(statistics.median(setup), "s")
    finally:
        _remove_workdir()
    _print_table(metrics, totals)
    print(json.dumps({"correct": totals["failed"] == 0,
                      "attempted": totals["attempted"],
                      "failed": totals["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
