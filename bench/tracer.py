"""In-memory span tracer that wraps the public functions each layer exposes.

A name is wrapped where its caller looks it up (``cli.otoc_closed`` is the
binding ``cli.run`` calls, ``montecarlo.sample_noise_sequence`` the one
``_evolve_recorded`` calls), so a span sits on every layer boundary without
editing the program.  Spans are kept in memory as (name, start, end, parent,
thread) and reduced to per-layer metrics when a phase ends.  A wrapped name
that no longer exists is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import astuple, dataclass, fields


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_noise(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    slices = int(a["n_steps"])
    tracer.counters["noise.slices"] += slices
    # computed bytes: complex128 slices of D x D, whatever dtype is returned
    tracer.counters["noise.bytes"] += slices * a["model"].dim ** 2 * 16


def _count_trajectories(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    cfg, model, spec = a["cfg"], a["model"], a["spec"]
    tracer.counters["montecarlo.traj_steps"] += cfg.n_traj * cfg.n_steps
    # Trajectory k of a seed is the same whichever estimator simulates it,
    # so the distinct (trajectory, step) pairs are keyed by everything that
    # determines the path: seed, step, spectrum and noise model.
    key = (
        cfg.seed,
        cfg.dt,
        hashlib.sha256(spec.energies.tobytes()).hexdigest(),
        repr(model.to_config()),
    )
    n_traj, n_steps = tracer.trajectories.get(key, (0, 0))
    tracer.trajectories[key] = (max(n_traj, cfg.n_traj), max(n_steps, cfg.n_steps))


def _count_written(tracer, fn, args, kwargs, result):
    tracer.counters["diagnostics.bytes_written"] += os.path.getsize(
        _bound(fn, args, kwargs)["path"]
    )


# (module[:class], attribute, time metric, call counter, argument counter)
LAYERS = (
    ("noisychaos.montecarlo", "sample_noise_sequence", "noise.sample_s", None, _count_noise),
    *(
        ("noisychaos.cli", f"estimate_{kind}", "montecarlo.estimate_s", None, _count_trajectories)
        for kind in ("sff", "two_point", "transfer", "sff_squared", "otoc")
    ),
    ("noisychaos.diagnostics", "sff_gue_const", "diagnostics.sff_gue_s", "diagnostics.calls", None),
    ("noisychaos.diagnostics", "sff_goe_const", "diagnostics.sff_goe_s", "diagnostics.calls", None),
    ("noisychaos.diagnostics", "two_point_gue_const", "diagnostics.two_point_gue_s", "diagnostics.calls", None),
    ("noisychaos.diagnostics", "two_point_goe_const", "diagnostics.two_point_goe_s", "diagnostics.calls", None),
    ("noisychaos.diagnostics", "transfer_probability", "diagnostics.transfer_return_s", "diagnostics.calls", None),
    ("noisychaos.diagnostics", "return_probability", "diagnostics.transfer_return_s", "diagnostics.calls", None),
    ("noisychaos.diagnostics:DiagnosticSeries", "write_csv", "diagnostics.write_s", None, _count_written),
    ("noisychaos.diagnostics:DiagnosticSeries", "write_json", "diagnostics.write_s", None, _count_written),
    ("noisychaos.cli", "otoc_closed", "channel_two.otoc_s", "channel_two.calls", None),
    ("noisychaos.cli", "sff_squared_mean", "channel_two.sff_squared_s", "channel_two.calls", None),
    ("noisychaos.channel_two", "f_coefficients", "channel_two.f_coefficients_s", "channel_two.f_coefficients_calls", None),
    ("noisychaos", "u1_gue_general", "channel_one.u1_general_s", "channel_one.builds", None),
    ("noisychaos", "u1_goe_general", "channel_one.u1_general_s", "channel_one.builds", None),
    ("noisychaos", "u1_gue_const", "channel_one.u1_const_s", "channel_one.builds", None),
    ("noisychaos", "u1_goe_const", "channel_one.u1_const_s", "channel_one.builds", None),
    ("noisychaos.channel_one", "goe_params", "channel_one.goe_params_s", None, None),
    ("noisychaos.diagnostics", "goe_params", "channel_one.goe_params_s", None, None),
    ("noisychaos", "sample_gue_spectrum", "spectra.sample_s", "spectra.sample_calls", None),
    ("noisychaos", "sample_goe_spectrum", "spectra.sample_s", "spectra.sample_calls", None),
    ("noisychaos.krylov", "sech_moments", "krylov.moments_s", "krylov.calls", None),
    ("noisychaos.krylov", "noisy_moments", "krylov.moments_s", "krylov.calls", None),
    ("noisychaos.krylov", "lanczos_from_moments", "krylov.lanczos_s", "krylov.calls", None),
    ("noisychaos.krylov", "signed_lanczos_noisy", "krylov.lanczos_s", "krylov.calls", None),
    ("noisychaos.cli", "run", "cli.self_s", None, None),
)

# Metrics derived from the spans rather than recorded by a wrapper.
DERIVED = ("montecarlo.resim_ratio", "trace.untraced_s", "trace.overhead_s", "trace.absent")


def metric_names(layers=LAYERS) -> list[str]:
    names = []
    for _, _, timer, calls, _ in layers:
        names += [n for n in (timer, calls) if n is not None]
    names += ["noise.slices", "noise.bytes", "montecarlo.traj_steps", "diagnostics.bytes_written"]
    return list(dict.fromkeys(names)) + list(DERIVED)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Records spans while installed; ``phase()`` reduces the spans recorded
    since the last call and keeps them for ``write()``.

    Spans opened in a worker thread with no open span of its own take the
    innermost span open in the installing thread as parent, which is the
    estimator that started the thread pool.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._home = threading.get_ident()
        self.phases: list[tuple[str, list[Span]]] = []
        self._clear()

    def _clear(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.trajectories: dict[tuple, tuple[int, int]] = {}

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self) -> None:
        self.absent = []
        for owner_name, attr, timer, calls, count in self.layers:
            owner = _resolve(owner_name)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{owner_name}.{attr}")
                continue
            setattr(owner, attr, self._wrap(fn, timer, calls, count))
            self._patched.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    def _wrap(self, fn, timer, calls, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home and stack is not home else None
            span = Span(timer, time.perf_counter(), 0.0, parent, threading.get_ident())
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            with tracer._lock:  # pool threads update the same counters
                if calls is not None:
                    tracer.counters[calls] += 1
                if count is not None:
                    count(tracer, fn, args, kwargs, result)
            return result

        return traced

    def phase(self, label: str, wall: float | None = None) -> dict:
        """Per-layer totals of the spans recorded since the last call, which
        are kept under ``label`` for :meth:`write`.

        Self time is a span's duration minus the part of it its children
        cover.  With ``wall`` given, ``trace.untraced_s`` is the part of it
        that no top-level span covers.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            kids = [(c.start, c.end) for c in children[index]]
            out[span.name] += (span.end - span.start) - _covered(span.start, span.end, kids)
        for name, value in self.counters.items():
            out[name] += value
        out["montecarlo.distinct_pairs"] = float(
            sum(n_traj * n_steps for n_traj, n_steps in self.trajectories.values())
        )
        if wall is not None:
            top = [s for s in self.spans if s.parent is None and s.thread == self._home]
            out["trace.untraced_s"] = wall - sum(s.end - s.start for s in top)
        self.phases.append((label, self.spans))
        self._clear()
        return dict(out)

    def write(self, path) -> None:
        """Every span of every phase; ``parent`` indexes its phase's list."""
        with open(path, "w") as fh:
            json.dump({
                "fields": [f.name for f in fields(Span)],
                "phases": {label: [astuple(s) for s in spans] for label, spans in self.phases},
            }, fh)
