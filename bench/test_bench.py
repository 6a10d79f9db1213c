"""Smoke tests of the benchmark: tiny sizes, every workload, both modes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, spec_key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric(trace, spec_key):
    proc = run_bench("--workload", "all", "--smoke", "--seed", "0", "--seconds", "0.2",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    expected = {f"{w}.{name}" for w in WORKLOADS for name in units}
    assert set(result["metrics"]) == expected
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split(".", 1)[1]]
    if trace:
        assert result["metrics"]["mc_oracle.noise.slices"]["value"] > 0
        assert result["metrics"]["exact_channels.krylov.calls"]["value"] > 0
        assert result["metrics"]["analytic_grid.trace.absent"]["value"] == 0


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "mc_oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_self_time_and_absent_names(monkeypatch, tmp_path):
    fake = types.ModuleType("fake_layer")

    def inner():
        time.sleep(0.05)

    def outer():
        time.sleep(0.01)
        fake.inner()

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    tracer = Tracer(layers=(
        ("fake_layer", "outer", "fake.outer_s", "fake.calls", None),
        ("fake_layer", "inner", "fake.inner_s", "fake.calls", None),
        ("fake_layer", "removed", "fake.removed_s", None, None),
        ("no_such_module", "f", "fake.gone_s", None, None),
    ))
    tracer.install()
    t0 = time.perf_counter()
    fake.outer()
    wall = time.perf_counter() - t0
    tracer.uninstall()
    assert fake.outer is outer and fake.inner is inner
    assert tracer.absent == ["fake_layer.removed", "no_such_module.f"]
    layers = tracer.phase("call", wall=wall)
    assert layers["fake.calls"] == 2
    assert layers["fake.inner_s"] >= 0.05 and layers["fake.outer_s"] >= 0.01
    # Self times partition the traced call; the rest of the wall is untraced.
    covered = layers["fake.inner_s"] + layers["fake.outer_s"]
    assert abs(covered + layers["trace.untraced_s"] - wall) < 1e-9
    assert 0.0 <= layers["trace.untraced_s"] < 0.005
    tracer.write(tmp_path / "spans.json")
    written = json.loads((tmp_path / "spans.json").read_text())
    spans = [dict(zip(written["fields"], s)) for s in written["phases"]["call"]]
    assert [s["name"] for s in spans] == ["fake.outer_s", "fake.inner_s"]
    assert spans[0]["parent"] is None and spans[1]["parent"] == 0
