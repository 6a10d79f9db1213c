"""Benchmark of the noisychaos package.

    python3 bench/run.py --workload {mc_oracle,analytic_grid,exact_channels,all}
                         --seed N --seconds S --trace {0,1} [--smoke]

Each workload runs in a fresh interpreter (``worker.py``) with BLAS pinned
to one thread, against the package source in ``src/`` next to this
directory.  With ``--trace 0`` the run reports the end-to-end metrics
``setup_s`` (median over three fresh interpreters), ``wall_s`` (timed
phase per pass), ``points_per_s`` and ``peak_rss_mb``; with ``--trace 1`` it
reports the per-layer metrics of ``tracer.py``.  Each metric is printed with
its unit, then the environment, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A full
record also goes to ``.bench_results/``.  ``--smoke`` runs tiny sizes in a
few seconds.  Exits 1 if the package source is missing or a run could not
be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_oracle", "analytic_grid", "exact_channels")
# The whole command must end within 180 s; workers get what is left.
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """A run could not be measured."""


def git_sha(root: Path) -> str | None:
    """Commit of a git checkout, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def spawn_worker(workload: str, args, extra: list[str], deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter; returns its JSON result."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    started = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"), workload,
        "--seed", str(args.seed),
        "--size", "smoke" if args.smoke else "full",
        "--started", repr(started),
        "--work", str(ROOT / ".bench_out" / workload),
        *extra,
    ]
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError(f"{workload}: no time left before the deadline")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args, deadline: float) -> dict:
    """Measure one workload; returns its record."""
    if args.trace:
        record = spawn_worker(workload, args, ["--seconds", str(args.seconds), "--trace", "1"], deadline)
        if "layers" not in record:
            raise BenchError(f"{workload}: no traced pass completed")
        metrics = record["layers"]
    else:
        probes = 0 if args.smoke else 2
        setups = [spawn_worker(workload, args, ["--setup-only"], deadline)["setup_s"] for _ in range(probes)]
        record = spawn_worker(workload, args, ["--seconds", str(args.seconds)], deadline)
        if not record["walls"]:
            raise BenchError(f"{workload}: no pass completed")
        setups.append(record["setup_s"])
        # wall_s is the timed phase's wall time per pass.  Host speed drifts
        # over tens of seconds, and the mean of a run's passes averages the
        # drift where their median would pick one speed.
        wall = statistics.fmean(record["walls"])
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "points_per_s": record["points"] / wall,
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        record["setups"] = setups
    record.update(
        workload=workload,
        trace=args.trace,
        git_sha=git_sha(ROOT),
        metrics=metrics,
        attempted=len(record["checks"]),
        failed=sum(not ok for _, ok, _ in record["checks"]),
    )
    return record


def report(record: dict) -> None:
    name = record["workload"]
    for metric, m in record["metrics"].items():
        print(f"{name:15s} {metric:32s} {m['value']:.6g} {m['unit']}")
    frac = record["failed"] / record["attempted"]
    print(f"{name:15s} {'fail_frac':32s} {frac:.6g} ratio ({record['failed']}/{record['attempted']} checks)")
    for check, ok, detail in record["checks"]:
        if not ok:
            print(f"{name:15s} FAILED {check}: {detail}")
    if record.get("gate3_misses") is not None:
        print(f"{name:15s} {'gate3_misses':32s} {record['gate3_misses']} count (cli 3-sigma gate)")
    if record.get("absent"):
        print(f"{name:15s} absent wrapped names: {', '.join(record['absent'])}")
    env = dict(record["env"], git_sha=record["git_sha"], workload=name, trace=record["trace"])
    print("env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "noisychaos" / "__init__.py").is_file():
        print(f"error: package source {ROOT / 'src' / 'noisychaos'} not found", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    for record in records:
        report(record)
        stem = f"BENCH_{record['workload']}_seed{args.seed}_trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
