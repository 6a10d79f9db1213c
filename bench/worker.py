"""One run of one workload in a fresh interpreter.

``run.py`` starts this script with BLAS pinned to one thread and passes the
monotonic time at which it started the interpreter, so ``setup_s`` covers
interpreter start, imports and the workload's set-up.  The last line of
standard output is one JSON object with the run's raw measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, metric_names, unit


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def layer_metrics(tracer, setup: dict, passes: list[dict], walls, traced_walls) -> dict:
    """Per-layer metrics for one execution of the workload: the set-up spans
    once plus the mean over traced passes."""

    def value(name):
        mean = statistics.fmean(p.get(name, 0.0) for p in passes)
        return setup.get(name, 0.0) + mean

    out = {name: value(name) for name in metric_names(tracer.layers)}
    distinct = value("montecarlo.distinct_pairs")
    out["montecarlo.resim_ratio"] = out["montecarlo.traj_steps"] / distinct if distinct else 0.0
    out["trace.untraced_s"] = statistics.fmean(p["trace.untraced_s"] for p in passes)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    out["trace.absent"] = float(len(tracer.absent))
    return {name: {"value": v, "unit": unit(name)} for name, v in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    args.work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, args.work)
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_layers = {}
    if tracer is not None:
        tracer.uninstall()
        setup_layers = tracer.phase("setup")

    # With tracing on, passes alternate untraced and traced, so the
    # difference of their medians is the tracing overhead.
    walls, traced_walls, layer_passes = [], [], []
    checks, points = [], 0
    start = time.monotonic()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            points = workload.run_pass()
        except Exception as exc:
            traceback.print_exc()
            checks.append(("run_pass", False, repr(exc)))
            break
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if traced:
            layer_passes.append(tracer.phase(f"pass{len(walls) + len(traced_walls)}", wall))
            traced_walls.append(wall)
        else:
            walls.append(wall)
        # Stop before a pass that would overrun; a traced run needs one traced pass.
        if (tracer is None or traced_walls) and time.monotonic() - start + wall > args.seconds:
            break

    if not checks:
        try:
            checks = workload.check()
        except Exception as exc:
            traceback.print_exc()
            checks = [("check", False, repr(exc))]

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "traced_walls": traced_walls,
        "points": points,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": [(name, bool(ok), detail) for name, ok, detail in checks],
        "gate3_misses": getattr(workload, "gate3_misses", lambda: None)(),
        "env": environment(args.seed),
    }
    if tracer is not None and layer_passes:
        result["layers"] = layer_metrics(tracer, setup_layers, layer_passes, walls, traced_walls)
        result["absent"] = tracer.absent
        result["spans"] = str(args.work / "spans.json")
        tracer.write(result["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
