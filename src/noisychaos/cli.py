"""Experiment runner: parse a JSON config, execute analytic and/or Monte
Carlo pipelines, write series artifacts and a summary with any oracle
comparisons.

``CONFIG`` is the only config schema; ``resolve`` walks a config against it
once, into the flat dict of values that the scan reads and summary.json records.

``EXPERIMENTS`` is the only list of experiments.  Each entry holds the
noise ensembles the experiment computes, whether it averages over
``spectrum.n_realizations``, and its scan: a generator over ``J_list`` that
yields ``(file stem, DiagnosticSeries)`` from the ``Inputs`` that ``run``
built once.  ``run`` is the only writer: one loop stamps every series with
the config hash, writes it in each ``output.formats`` entry and records the
file names in ``summary.json``.

Exit codes: 0 success, 1 config/IO error or a numerical failure (Lanczos
breakdown, unitarity drift), 2 oracle-comparison failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import diagnostics as diag
from . import krylov
from .channel_two import UnsupportedDimensionError, sff_squared_mean, sff_variance
from .channel_two import otoc as otoc_closed
# The estimate_* names are not called here; they stay bound because
# bench/tracer.py wraps them where it expects the cli to look them up.
from .montecarlo import (  # noqa: F401
    TrajectoryConfig,
    UnitarityError,
    estimate_observables,
    estimate_otoc,
    estimate_sff,
    estimate_sff_squared,
    estimate_transfer,
    estimate_two_point,
    grid_steps,
    otoc_observable,
    sff_observable,
    sff_squared_observable,
    step_margin,
    transfer_observable,
    two_point_observable,
)
from .noise import ConstantOverD, Ensemble, NoiseModel
from .spectra import Spectrum, sample_goe_spectrum, sample_gue_spectrum

# output.formats entries, in the order each series' files are written.
FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid experiment config; message carries the offending field path."""


_SPECTRUM = ("sff_scan", "two_point_scan", "otoc_scan", "transfer_scan", "return_scan",
             "sff_variance_scan", "oracle_compare")
_ALL = ("lanczos_scan", *_SPECTRUM)
_STATES = ("transfer_scan", "oracle_compare")
_LANCZOS, _ORACLE = ("lanczos_scan",), ("oracle_compare",)

# dotted path -> (type, default, bound, the experiments that read it).  A
# default of ... marks a key the experiment must set.  The bound of a number
# is its minimum, of a string the values it may take, and of a list the
# (type, bound) of each entry.  A dict is a section: resolve records its keys.
CONFIG = {
    "experiment": (str, ..., None, _ALL),
    "J_list": (list, ..., (float, 0.0), _ALL),
    "operator_seed": (int, 7, 0, _SPECTRUM),
    "state_i": (int, 0, 0, _STATES),
    "state_j": (int, 1, 0, _STATES),
    "compare_otoc": (bool, False, None, _ORACLE),
    "spectrum": (dict, {}, None, _SPECTRUM),
    "spectrum.sample": (str, None, ("gue", "goe"), _SPECTRUM),
    "spectrum.dim": (int, None, 2, _SPECTRUM),
    "spectrum.seed": (int, 0, 0, _SPECTRUM),
    "spectrum.n_realizations": (int, 1, 1, _SPECTRUM),
    "spectrum.file": (str, None, None, _SPECTRUM),
    "noise": (dict, {}, None, _SPECTRUM),
    "noise.ensemble": (str, "gue", ("gue", "goe"), _SPECTRUM),
    "noise.profile": (dict, {}, None, _SPECTRUM),
    "noise.profile.type": (str, "const", ("const",), _SPECTRUM),
    "noise.profile.J": (float, None, None, _SPECTRUM),
    # Read by no experiment: a Gibbs or matrix profile is refused by its type.
    "noise.profile.beta": (float, None, None, ()),
    "noise.profile.lambda": (list, None, (list, (float, 0.0)), ()),
    "t_grid": (dict, ..., None, _SPECTRUM),
    "t_grid.t_min": (float, ..., 0.0, _SPECTRUM),
    "t_grid.t_max": (float, ..., None, _SPECTRUM),
    "t_grid.n_points": (int, ..., 2, _SPECTRUM),
    "t_grid.spacing": (str, "linear", ("linear", "log"), _SPECTRUM),
    "lanczos": (dict, {}, None, _LANCZOS),
    "lanczos.alpha": (float, 1.0, None, _LANCZOS),
    "lanczos.n_max": (int, 30, 1, _LANCZOS),
    "lanczos.trace_ratio": (float, 1.0, None, _LANCZOS),
    # Only its type is checked: the exact recursion meets any precision.
    "lanczos.dps": (int, 0, None, _LANCZOS),
    "montecarlo": (dict, ..., None, _ORACLE),
    "montecarlo.dt": (float, ..., None, _ORACLE),
    "montecarlo.t_max": (float, ..., None, _ORACLE),
    "montecarlo.n_traj": (int, ..., 2, _ORACLE),
    "montecarlo.seed": (int, ..., 0, _ORACLE),
    "output": (dict, {}, None, _ALL),
    "output.dir": (str, ".", None, _ALL),
    "output.formats": (list, FORMATS, (str, FORMATS), _ALL),
}


def _value(path: str, value, kind: type, bound):
    """``value`` as a ``kind`` within ``bound``, refused by ``path`` otherwise.  A float
    also takes an int, returns a float and refuses NaN and +-inf; only a bool is a bool."""
    if kind is list and isinstance(value, list):
        return [_value(path, entry, *bound) for entry in value]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}={value!r} must be a {kind.__name__}")
    if kind is float:
        if not math.isfinite(value):
            raise ConfigError(f"{path}={value!r} must be finite")
        value = float(value)
    if isinstance(bound, tuple):
        if value not in bound:
            raise ConfigError(f"{path}={value!r} must be {' or '.join(map(repr, bound))}")
    elif bound is not None and value < bound:
        raise ConfigError(f"{path}={value!r} must be at least {bound}")
    return value


def _flatten(section: dict, prefix: str = ""):
    """(dotted path, value) of each key in ``section``; refuses one CONFIG lacks."""
    for key, value in section.items():
        path = f"{prefix}{key}"
        if path not in CONFIG:
            keys = [p.rpartition(".")[2] for p in CONFIG if p.rpartition(".")[0] == prefix[:-1]]
            raise ConfigError(f"{path}={value!r} is not a config key; "
                              f"{prefix[:-1] or 'the top level'} takes {', '.join(keys)}")
        yield path, value
        if isinstance(value, dict) and CONFIG[path][0] is dict:
            yield from _flatten(value, path + ".")


def resolve(config: dict, seed: int | None = None) -> dict:
    """Each key the experiment reads, by dotted path, with CONFIG's defaults and ``seed``
    (``--seed``) as spectrum.seed; refuses by path any other key, bad value or setting."""
    if not isinstance(config, dict):
        raise ConfigError(f"config={config!r} must be a JSON object")
    given = dict(_flatten(config))
    if "experiment" not in given:
        raise ConfigError("missing field experiment")
    experiment = _value("experiment", given["experiment"], str, None).lower()
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {given['experiment']!r}")
    values = {}
    for path, (kind, default, bound, readers) in CONFIG.items():
        if experiment not in readers:
            if path in given:
                raise ConfigError(f"{path}={given[path]!r} is not read by {experiment}")
            continue
        if path in given:
            value = _value(path, given[path], kind, bound)
        elif default is ...:
            raise ConfigError(f"missing field {path}")
        else:
            value = default
        if kind is not dict:
            values[path] = value
    values["experiment"] = experiment
    # Adding 0.0 turns -0.0 into 0.0, so the two share one J and one stem.
    j_list = values["J_list"] = [j + 0.0 for j in values["J_list"]]
    if not j_list:
        raise ConfigError("J_list=[] must be nonempty")
    stems = [f"{j:g}" for j in j_list]
    shared = [stem for k, stem in enumerate(stems) if stem in stems[:k]]
    if shared:
        raise ConfigError(f"J_list={j_list!r} gives two entries the file stem J{shared[0]}")
    ensembles, averages, _ = EXPERIMENTS[experiment]
    if not ensembles:
        if seed is not None:
            raise ConfigError(f"--seed={seed} is not read: {experiment} reads no spectrum")
        return values
    if values["noise.ensemble"] not in ensembles:
        raise ConfigError(f"noise.ensemble={values['noise.ensemble']!r} is not supported by "
                          f"{experiment} (supported: {', '.join(ensembles)})")
    if values["noise.profile.J"] not in (None, *j_list):
        raise ConfigError(f"noise.profile.J={given['noise.profile.J']!r} is not in "
                          f"J_list={given['J_list']!r}, which sets J")
    n_real = values["spectrum.n_realizations"]
    if n_real > 1 and not averages:
        raise ConfigError(f"spectrum.n_realizations={n_real} is not supported by {experiment}, "
                          "which evaluates one spectrum")
    sampled = ("spectrum.sample", "spectrum.dim", "spectrum.seed")
    if values["spectrum.file"] is not None:
        unread = [f"{path}={given[path]!r}" for path in sampled if path in given]
        unread += [f"--seed={seed}"] if seed is not None else []
        unread += [f"spectrum.n_realizations={n_real}"] if n_real > 1 else []
        if unread:
            raise ConfigError(f"{unread[0]} is not read: spectrum.file holds the spectrum")
        for path in sampled:
            del values[path]
        return values
    for path in sampled[:2]:
        if values[path] is None:
            raise ConfigError(f"missing field {path}")
    if seed is not None:
        values["spectrum.seed"] = seed
    return values


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]


def time_grid(config: dict) -> np.ndarray:
    """The t_grid of the resolved ``config``."""
    t_min, t_max, n = (config[f"t_grid.{key}"] for key in ("t_min", "t_max", "n_points"))
    if not t_max > t_min:
        raise ConfigError(f"t_grid.t_max={t_max!r} must exceed t_grid.t_min={t_min!r}")
    if config["t_grid.spacing"] == "linear":
        return np.linspace(t_min, t_max, n)
    if t_min <= 0.0:
        raise ConfigError("t_grid.spacing=log requires t_min > 0")
    return np.geomspace(t_min, t_max, n)


def sample_spectra(config: dict) -> list[Spectrum]:
    """The spectra of the resolved ``config``: the one in spectrum.file, or
    spectrum.n_realizations sampled ones."""
    if config["spectrum.file"] is not None:
        path = Path(config["spectrum.file"])
        if not path.exists():
            raise ConfigError(f"spectrum.file {path} does not exist")
        try:
            return [Spectrum.load(path)]
        except OSError as exc:
            raise ConfigError(f"spectrum.file {path} cannot be read: {exc.strerror}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"spectrum.file {path} is not a spectrum: {type(exc).__name__}: {exc}"
            ) from exc
    rng = np.random.default_rng(np.random.SeedSequence(config["spectrum.seed"]))
    sampler = {"gue": sample_gue_spectrum, "goe": sample_goe_spectrum}[config["spectrum.sample"]]
    return [sampler(config["spectrum.dim"], rng) for _ in range(config["spectrum.n_realizations"])]


def random_traceless_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Pauli-like normalization Tr(A^2) = D, with Tr(A^2) = sum_ij |A_ij|^2
    for Hermitian A."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a += a.conj().T
    a /= 2.0
    a.flat[:: dim + 1] -= np.trace(a).real / dim
    a *= np.sqrt(dim / np.vdot(a, a).real)
    return a


def environment(threads: int) -> dict:
    """What a run computed with: the Python and numpy versions, the
    ``--threads`` it used, and the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 only prints its configuration
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": threads,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def _meta(*spectra: Spectrum, **extra) -> dict:
    """Series metadata: D, a hash of every spectrum's energies in order, then ``extra``."""
    spectrum_hash = hashlib.sha256(b"".join(s.energies.tobytes() for s in spectra)).hexdigest()[:16]
    return {"dim": spectra[0].dim, "spectrum_hash": spectrum_hash, **extra}


class Inputs(NamedTuple):
    """A config as ``resolve`` resolved it, and what ``run`` built from it,
    handed to the experiment's scan; ``j_list`` and ``ensemble`` are its
    J_list and noise.ensemble.  lanczos_scan reads neither spectrum nor
    noise, so it gets only the config, J_list, threads and summary."""

    config: dict
    j_list: list[float]
    spectra: list[Spectrum]
    t: np.ndarray | None
    ensemble: str | None
    op_rng: np.random.Generator | None
    threads: int
    summary: dict


# Scans look up the names bench/tracer.py wraps when they call them: the
# closed forms on diagnostics, the rest as globals of this module.

def _realization_mean(inp: Inputs, stem: str, j: float, values):
    """(stem, mean of values(spectrum) over the spectrum realizations)."""
    return stem, diag.DiagnosticSeries(
        stem, inp.t, np.mean([values(s) for s in inp.spectra], axis=0),
        metadata=_meta(*inp.spectra, n_realizations=len(inp.spectra), J=j, ensemble=inp.ensemble),
    )


def sff_scan(inp: Inputs):
    sff = getattr(diag, f"sff_{inp.ensemble}_const")
    for j in inp.j_list:
        stem = f"sff_{inp.ensemble}_J{j:g}"
        yield _realization_mean(inp, stem, j, lambda s: sff(s, j, inp.t))


def two_point_scan(inp: Inputs):
    o = random_traceless_hermitian(inp.spectra[0].dim, inp.op_rng)
    two_point = getattr(diag, f"two_point_{inp.ensemble}_const")
    for j in inp.j_list:
        stem = f"two_point_J{j:g}"
        yield _realization_mean(inp, stem, j, lambda s: two_point(s, j, o, inp.t))


def otoc_scan(inp: Inputs):
    a = random_traceless_hermitian(inp.spectra[0].dim, inp.op_rng)
    b = random_traceless_hermitian(inp.spectra[0].dim, inp.op_rng)
    for j in inp.j_list:
        yield _realization_mean(inp, f"otoc_J{j:g}", j,
                                lambda s: otoc_closed(s, j, inp.t, a, b))


def _noise_model(inp: Inputs, j: float) -> NoiseModel:
    """The model of J_list entry ``j``: the constant profile under noise.ensemble."""
    return NoiseModel(Ensemble(inp.ensemble), ConstantOverD(j), inp.spectra[0].dim)


def transfer_scan(inp: Inputs):
    spec = inp.spectra[0]
    i, k = inp.config["state_i"], inp.config["state_j"]
    for j in inp.j_list:
        model = _noise_model(inp, j)
        yield f"transfer_J{j:g}", diag.DiagnosticSeries(
            "transfer_probability", inp.t, diag.transfer_probability(spec, model, i, k, inp.t),
            metadata=_meta(spec, J=j, ensemble=inp.ensemble, i=i, j=k),
        )


def return_scan(inp: Inputs):
    spec = inp.spectra[0]
    for j in inp.j_list:
        model = _noise_model(inp, j)
        yield f"return_J{j:g}", diag.DiagnosticSeries(
            "return_probability", inp.t, diag.return_probability(spec, model, inp.t),
            metadata=_meta(spec, J=j, ensemble=inp.ensemble),
        )


def sff_variance_scan(inp: Inputs):
    spec = inp.spectra[0]
    for j in inp.j_list:
        moments = sff_variance(spec, j, inp.t)
        for stem, values in (("sff_squared", moments.second_moment),
                             ("sff_variance", moments.variance)):
            yield f"{stem}_J{j:g}", diag.DiagnosticSeries(
                f"{stem}_J{j:g}", inp.t, values,
                metadata=_meta(spec, J=j, ensemble=inp.ensemble),
            )


def lanczos_scan(inp: Inputs):
    alpha, n_max = inp.config["lanczos.alpha"], inp.config["lanczos.n_max"]
    # By Cauchy-Schwarz r = |TrO|^2/D^2 <= Tr(O+O)/D, which is C(0) = 1.
    ratio = inp.config["lanczos.trace_ratio"]
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"lanczos.trace_ratio={ratio!r} must lie in [0, 1]")
    mu = krylov.sech_moments(n_max, alpha=alpha)
    n = np.arange(1, n_max + 1, dtype=float)
    for j in inp.j_list:
        try:
            b_signed = krylov.signed_lanczos_noisy(mu, j, ratio, n_max)
        except krylov.LanczosBreakdownError as exc:
            raise ConfigError(f"{exc} for J_list entry {j!r}") from exc
        yield f"lanczos_J{j:g}", diag.DiagnosticSeries(
            f"signed_bn_J{j:g}", n, b_signed, metadata={"J": j, "alpha": alpha},
        )


def _compare(name, t, analytic, mc, summary):
    """Record |analytic - mc| / stderr at each time point (0 where the
    stderr is 0, where the two must agree within 1e-10 instead), its
    maximum and the time where it peaks."""
    err = np.abs(np.asarray(analytic) - mc.values)
    z = err / np.where(mc.stderr > 0, mc.stderr, np.inf)
    sigma = float(np.max(z))
    ok = bool(sigma <= 3.0) and bool(np.all(err[mc.stderr == 0] < 1e-10))
    summary["comparisons"].append({
        "name": name, "max_sigma": sigma, "pass": ok, "z": z.tolist(),
        "worst_t": float(t[np.argmax(z)]), "n_points": int(t.size),
    })


def oracle_compare(inp: Inputs):
    try:
        cfg = TrajectoryConfig(**{key: inp.config[f"montecarlo.{key}"]
                                  for key in ("dt", "t_max", "n_traj", "seed")})
    except ValueError as exc:  # its messages begin with the field name
        raise ConfigError(f"montecarlo.{exc}") from None
    compare_otoc = inp.config["compare_otoc"]
    spec, t, gue = inp.spectra[0], inp.t, inp.ensemble == "gue"
    if compare_otoc and not gue:
        raise ConfigError(f"compare_otoc=True needs noise.ensemble 'gue', got {inp.ensemble!r}")
    try:
        steps = grid_steps(t, cfg.dt)
    except ValueError as exc:
        raise ConfigError(f"t_grid.* at montecarlo.dt={cfg.dt!r}: {exc}") from None
    if steps.max() > cfg.n_steps:
        raise ConfigError(
            f"t_grid.t_max={float(t[-1])!r} lies past montecarlo.t_max={cfg.t_max!r}"
        )
    models = [_noise_model(inp, j) for j in inp.j_list]
    for j, model in zip(inp.j_list, models):
        margin = step_margin(model, cfg.dt)
        if margin > 1.0:
            raise ConfigError(
                f"montecarlo.dt={cfg.dt!r} gives J_list entry {j!r} the step margin "
                f"dt * max lambda * D = {margin:g}, which must be at most 1"
            )
    sff = getattr(diag, f"sff_{inp.ensemble}_const")
    two_point = getattr(diag, f"two_point_{inp.ensemble}_const")
    state_i, state_j = inp.config["state_i"], inp.config["state_j"]
    o = random_traceless_hermitian(spec.dim, inp.op_rng)
    inp.summary["mc_health"] = []
    for j, model in zip(inp.j_list, models):
        # key -> (observable, analytic values); one simulation serves them all.
        cases = {
            "sff": (sff_observable(), sff(spec, j, t)),
            "two_point": (two_point_observable(o), two_point(spec, j, o, t)),
            "transfer": (
                transfer_observable(state_i, state_j),
                diag.transfer_probability(spec, model, state_i, state_j, t),
            ),
        }
        if gue and spec.dim >= 3:
            cases["sff_squared"] = (sff_squared_observable(), sff_squared_mean(spec, j, t))
        if compare_otoc:
            a = random_traceless_hermitian(spec.dim, inp.op_rng)
            b = random_traceless_hermitian(spec.dim, inp.op_rng)
            cases["otoc"] = (otoc_observable(a, b), otoc_closed(spec, j, t, a, b))
        mc = estimate_observables(
            spec, model, cfg, t, {key: obs for key, (obs, _) in cases.items()}, inp.threads
        )
        for key, (_, analytic) in cases.items():
            est = mc.series[key]
            pair = {"i": state_i, "j": state_j} if key == "transfer" else {}
            yield f"mc_{key}_J{j:g}", diag.DiagnosticSeries(
                f"mc_{key}", t, est.values, est.stderr, metadata=_meta(
                    spec, J=j, ensemble=inp.ensemble, noise=model.to_config(), dt=cfg.dt,
                    n_traj=cfg.n_traj, seed=cfg.seed, **pair,
                ),
            )
            _compare(f"{key}_J{j:g}", t, analytic, est, inp.summary)
        inp.summary["mc_health"].append({
            "J": j,
            "max_unitarity_drift": mc.max_drift,
            "step_margin": step_margin(model, cfg.dt),
        })


# experiment -> (noise ensembles it computes, whether it averages over
# spectrum.n_realizations, scan).  Every experiment but lanczos_scan takes
# J from J_list with the constant profile.
EXPERIMENTS = {
    "sff_scan": (("gue", "goe"), True, sff_scan),
    "two_point_scan": (("gue", "goe"), True, two_point_scan),
    "lanczos_scan": ((), False, lanczos_scan),
    "otoc_scan": (("gue",), True, otoc_scan),
    "transfer_scan": (("gue", "goe"), False, transfer_scan),
    "return_scan": (("gue",), False, return_scan),
    "sff_variance_scan": (("gue",), False, sff_variance_scan),
    "oracle_compare": (("gue", "goe"), False, oracle_compare),
}


def run(config: dict, out_dir: Path | None = None, threads: int = 1,
        seed: int | None = None) -> dict:
    """Execute one experiment config; returns the summary dict."""
    if threads < 1:
        raise ConfigError(f"--threads={threads} must be at least 1")
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed={seed} must be at least 0")
    values = resolve(config, seed)
    experiment, j_list = values["experiment"], values["J_list"]
    ensembles, _, scan = EXPERIMENTS[experiment]
    spectra, t, ensemble, op_rng = [], None, None, None
    if ensembles:
        ensemble = values["noise.ensemble"]
        spectra = sample_spectra(values)
        d = spectra[0].dim
        if "state_i" in values and max(values["state_i"], values["state_j"]) >= d:
            raise ConfigError(f"state_i={values['state_i']} and state_j={values['state_j']} "
                              f"must lie in [0, {d})")
        t = time_grid(values)
        op_rng = np.random.default_rng(np.random.SeedSequence(values["operator_seed"]))
    chash = config_hash(config)
    summary: dict = {"experiment": experiment, "config_hash": chash, "config": values,
                     "files": [], "comparisons": [], "environment": environment(threads)}
    # Every series is computed before the first file is written, so a run
    # that fails leaves nothing behind.  The two-replica channel U2 refuses
    # D < 3 before any scan that needs it simulates or writes.
    inputs = Inputs(values, j_list, spectra, t, ensemble, op_rng, threads, summary)
    try:
        computed = list(scan(inputs))
    except UnsupportedDimensionError:
        file = values["spectrum.file"]
        setting = f"spectrum.file={file!r} holds D={d}" if file else f"spectrum.dim={d}"
        raise ConfigError(
            f"{setting}; {experiment} needs D >= 3 for the two-replica channel"
        ) from None
    out = Path(values["output.dir"] if out_dir is None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stem, series in computed:
        series.metadata["config_hash"] = chash
        for fmt in FORMATS:
            if fmt in values["output.formats"]:
                path = out / f"{stem}.{fmt}"
                getattr(series, f"write_{fmt}")(path)
                summary["files"].append(path.name)

    summary["pass"] = all(c["pass"] for c in summary["comparisons"])
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noisychaos",
        description="Noise-averaged quantum-chaos diagnostics experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--out", type=Path, default=None)
    run_p.add_argument("--threads", type=int, default=1)
    run_p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error reading config: {exc}", file=sys.stderr)
        return 1
    try:
        summary = run(config, out_dir=args.out, threads=args.threads, seed=args.seed)
    except (ConfigError, ValueError, OSError, UnitarityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for comp in summary["comparisons"]:
        status = "pass" if comp["pass"] else "FAIL"
        print(f"{comp['name']}: max |analytic - mc| / stderr = {comp['max_sigma']:.2f} [{status}]")
    if not summary["pass"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
