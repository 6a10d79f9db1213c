"""Experiment runner: parse a JSON config, execute analytic and/or Monte
Carlo pipelines, write series artifacts and a summary with any oracle
comparisons.

``EXPERIMENTS`` is the only list of experiments.  Each entry holds the
noise ensembles the experiment computes, whether it averages over
``spectrum.n_realizations``, and its scan: a generator over ``J_list`` that
yields ``(file stem, DiagnosticSeries)`` from the ``Inputs`` that ``run``
parsed once.  ``run`` is the only writer: one loop stamps every series with
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


# The default of a field that must be present.
_REQUIRED = object()


def _field(config: dict, path: str, kind: type, default=None, minimum=None):
    """The value at the last key of the dotted ``path`` (``default`` when
    absent), refused with a ConfigError naming ``path`` unless a ``kind``
    of at least ``minimum``, if given, or, with ``default=_REQUIRED``, when
    absent.  A float field also takes an int, returns it as a float and
    refuses NaN and +-inf; only a bool field takes a bool."""
    key = path.rpartition(".")[2]
    if default is _REQUIRED and key not in config:
        raise ConfigError(f"missing field {path}")
    value = config.get(key, default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}={value!r} must be a {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{path}={value!r} must be finite")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}={value!r} must be at least {minimum}")
    return float(value) if kind is float else value


# Each config section, by dotted path ("" is the top level), and the keys
# some experiment reads in it; run refuses any other key.  noise.profile's
# beta and lambda are listed so a Gibbs or matrix profile is refused by its
# type, not by its parameters.
CONFIG_KEYS = {
    "": ("experiment", "J_list", "spectrum", "noise", "t_grid", "operator_seed", "state_i",
         "state_j", "lanczos", "montecarlo", "compare_otoc", "output"),
    "spectrum": ("sample", "dim", "seed", "n_realizations", "file"),
    "noise": ("ensemble", "profile"),
    "noise.profile": ("type", "J", "beta", "lambda"),
    "t_grid": ("t_min", "t_max", "n_points", "spacing"),
    "lanczos": ("alpha", "n_max", "trace_ratio", "dps"),
    "montecarlo": ("dt", "t_max", "n_traj", "seed"),
    "output": ("dir", "formats"),
}


def _refuse_unknown_keys(config: dict) -> None:
    """Refuse a key that CONFIG_KEYS does not list for its section by its
    dotted path.  A section that is not an object is left to the field that
    reads it."""
    if not isinstance(config, dict):
        raise ConfigError(f"config={config!r} must be a JSON object")
    for path, keys in CONFIG_KEYS.items():
        section = config
        for part in path.split(".") if path else ():
            section = section.get(part) if isinstance(section, dict) else None
        for key in section if isinstance(section, dict) else ():
            if key not in keys:
                raise ConfigError(
                    f"{path + '.' if path else ''}{key}={section[key]!r} is not a config key; "
                    f"{path or 'the top level'} takes {', '.join(keys)}"
                )


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]


def time_grid(config: dict) -> np.ndarray:
    t_min = _field(config, "t_grid.t_min", float, _REQUIRED)
    t_max = _field(config, "t_grid.t_max", float, _REQUIRED)
    n = _field(config, "t_grid.n_points", int, _REQUIRED)
    spacing = config.get("spacing", "linear")
    if not (t_max > t_min >= 0.0 and n >= 2):
        raise ConfigError("t_grid requires 0 <= t_min < t_max and n_points >= 2")
    if spacing == "linear":
        return np.linspace(t_min, t_max, n)
    if spacing == "log":
        if t_min <= 0.0:
            raise ConfigError("t_grid.spacing=log requires t_min > 0")
        return np.geomspace(t_min, t_max, n)
    raise ConfigError(f"unknown t_grid.spacing {spacing!r}")


def sample_spectra(config: dict, seed_override: int | None, n_real: int = 1) -> list[Spectrum]:
    """``n_real`` spectra from the spectrum section ``config``, whose
    n_realizations ``run`` reads."""
    if "file" in config:
        if n_real > 1:
            raise ConfigError(f"spectrum.n_realizations={n_real} needs sampled, not file, spectra")
        path = Path(_field(config, "spectrum.file", str))
        if not path.exists():
            raise ConfigError(f"spectrum.file {path} does not exist")
        try:
            return [Spectrum.load(path)]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"spectrum.file {path} is not a spectrum: {type(exc).__name__}: {exc}"
            ) from exc
    kind = _field(config, "spectrum.sample", str, _REQUIRED)
    dim = _field(config, "spectrum.dim", int, _REQUIRED, minimum=2)
    seed = (_field(config, "spectrum.seed", int, 0, minimum=0) if seed_override is None
            else seed_override)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sampler = {"gue": sample_gue_spectrum, "goe": sample_goe_spectrum}.get(kind)
    if sampler is None:
        raise ConfigError(f"unknown spectrum.sample {kind!r}")
    return [sampler(dim, rng) for _ in range(n_real)]


def random_traceless_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Pauli-like normalization Tr(A^2) = D."""
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = (x + x.conj().T) / 2.0
    a -= np.trace(a).real / dim * np.eye(dim)
    return a * np.sqrt(dim / np.trace(a @ a).real)


def _meta(spec: Spectrum, **extra) -> dict:
    """Series metadata: D, a hash of the energies, then ``extra``."""
    spectrum_hash = hashlib.sha256(spec.energies.tobytes()).hexdigest()[:16]
    return {"dim": spec.dim, "spectrum_hash": spectrum_hash, **extra}


class Inputs(NamedTuple):
    """A config as ``run`` parsed it, handed to the experiment's scan.
    lanczos_scan reads neither spectrum nor noise, so it gets only the
    config, J_list, threads and summary."""

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

def _realization_mean(inp: Inputs, stem: str, values):
    """(stem, mean of values(spectrum) over the spectrum realizations)."""
    return stem, diag.DiagnosticSeries(
        stem, inp.t, np.mean([values(s) for s in inp.spectra], axis=0),
        metadata={"n_realizations": len(inp.spectra)},
    )


def sff_scan(inp: Inputs):
    sff = getattr(diag, f"sff_{inp.ensemble}_const")
    for j in inp.j_list:
        stem = f"sff_{inp.ensemble}_J{j:g}"
        yield _realization_mean(inp, stem, lambda s: sff(s, j, inp.t))


def two_point_scan(inp: Inputs):
    o = random_traceless_hermitian(inp.spectra[0].dim, inp.op_rng)
    two_point = getattr(diag, f"two_point_{inp.ensemble}_const")
    for j in inp.j_list:
        stem = f"two_point_J{j:g}"
        yield _realization_mean(inp, stem, lambda s: two_point(s, j, o, inp.t))


def otoc_scan(inp: Inputs):
    a = random_traceless_hermitian(inp.spectra[0].dim, inp.op_rng)
    b = random_traceless_hermitian(inp.spectra[0].dim, inp.op_rng)
    for j in inp.j_list:
        yield _realization_mean(inp, f"otoc_J{j:g}", lambda s: otoc_closed(s, j, inp.t, a, b))


def _state_pair(inp: Inputs) -> tuple[int, int]:
    """(state_i, state_j) of the transfer probability, 0 -> min(1, D - 1)
    unless the config names them."""
    d = inp.spectra[0].dim
    i = _field(inp.config, "state_i", int, 0)
    k = _field(inp.config, "state_j", int, min(1, d - 1))
    if not (0 <= i < d and 0 <= k < d):
        raise ConfigError(f"state_i={i} and state_j={k} must lie in [0, {d})")
    return i, k


def transfer_scan(inp: Inputs):
    spec = inp.spectra[0]
    i, k = _state_pair(inp)
    for j in inp.j_list:
        model = NoiseModel(Ensemble(inp.ensemble), ConstantOverD(j), spec.dim)
        yield f"transfer_J{j:g}", diag.DiagnosticSeries(
            "transfer_probability", inp.t, diag.transfer_probability(spec, model, i, k, inp.t),
            metadata=_meta(spec, J=j, ensemble=inp.ensemble, i=i, j=k),
        )


def return_scan(inp: Inputs):
    spec = inp.spectra[0]
    for j in inp.j_list:
        yield f"return_J{j:g}", diag.DiagnosticSeries(
            "return_probability", inp.t, diag.return_probability(spec, j, inp.t),
            metadata=_meta(spec, J=j, ensemble="gue"),
        )


def sff_variance_scan(inp: Inputs):
    spec = inp.spectra[0]
    for j in inp.j_list:
        moments = sff_variance(spec, j, inp.t)
        for stem, values in (("sff_squared", moments.second_moment),
                             ("sff_variance", moments.variance)):
            yield f"{stem}_J{j:g}", diag.DiagnosticSeries(
                f"{stem}_J{j:g}", inp.t, values, metadata={"dim": spec.dim, "J": j},
            )


def lanczos_scan(inp: Inputs):
    lz = _field(inp.config, "lanczos", dict, {})
    alpha = _field(lz, "lanczos.alpha", float, 1.0)
    n_max = _field(lz, "lanczos.n_max", int, 30, minimum=1)
    # By Cauchy-Schwarz r = |TrO|^2/D^2 <= Tr(O+O)/D, which is C(0) = 1.
    ratio = _field(lz, "lanczos.trace_ratio", float, 1.0)
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"lanczos.trace_ratio={ratio!r} must lie in [0, 1]")
    # Only the type of dps is checked: the recursion is exact, so it meets
    # any precision a config asks for.
    _field(lz, "lanczos.dps", int, 0)
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


def _compare(name, analytic, mc, summary):
    err = np.abs(np.asarray(analytic) - mc.values)
    stderr = np.where(mc.stderr > 0, mc.stderr, np.inf)
    sigma = float(np.max(err / stderr))
    ok = bool(sigma <= 3.0) and bool(np.all(err[mc.stderr == 0] < 1e-10))
    summary["comparisons"].append({"name": name, "max_sigma": sigma, "pass": ok})


def oracle_compare(inp: Inputs):
    mc_cfg = _field(inp.config, "montecarlo", dict, {})
    fields = {
        "dt": _field(mc_cfg, "montecarlo.dt", float, _REQUIRED),
        "t_max": _field(mc_cfg, "montecarlo.t_max", float, _REQUIRED),
        # One trajectory gives no error bar to compare against.
        "n_traj": _field(mc_cfg, "montecarlo.n_traj", int, _REQUIRED, minimum=2),
        "seed": _field(mc_cfg, "montecarlo.seed", int, _REQUIRED, minimum=0),
    }
    try:
        cfg = TrajectoryConfig(**fields)
    except ValueError as exc:  # its messages begin with the field name
        raise ConfigError(f"montecarlo.{exc}") from None
    compare_otoc = _field(inp.config, "compare_otoc", bool, False)
    spec, t, gue = inp.spectra[0], inp.t, inp.ensemble == "gue"
    if compare_otoc and not gue:
        raise ConfigError(f"compare_otoc=True needs noise.ensemble 'gue', got {inp.ensemble!r}")
    try:
        steps = grid_steps(t, cfg.dt)
    except ValueError:
        raise ConfigError(
            f"t_grid.* gives times that are not integer multiples of montecarlo.dt={cfg.dt!r}"
        ) from None
    if steps.max() > cfg.n_steps:
        raise ConfigError(
            f"t_grid.t_max={float(t[-1])!r} lies past montecarlo.t_max={cfg.t_max!r}"
        )
    models = [NoiseModel(Ensemble(inp.ensemble), ConstantOverD(j), spec.dim)
              for j in inp.j_list]
    for j, model in zip(inp.j_list, models):
        margin = step_margin(model, cfg.dt)
        if margin > 1.0:
            raise ConfigError(
                f"montecarlo.dt={cfg.dt!r} gives J_list entry {j!r} the step margin "
                f"dt * max lambda * D = {margin:g}, which must be at most 1"
            )
    sff = getattr(diag, f"sff_{inp.ensemble}_const")
    two_point = getattr(diag, f"two_point_{inp.ensemble}_const")
    state_i, state_j = _state_pair(inp)
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
                    spec, noise=model.to_config(), dt=cfg.dt, n_traj=cfg.n_traj, seed=cfg.seed,
                    **pair,
                ),
            )
            _compare(f"{key}_J{j:g}", analytic, est, inp.summary)
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
    _refuse_unknown_keys(config)
    experiment = _field(config, "experiment", str, _REQUIRED).lower()
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config['experiment']!r}")
    ensembles, averages, scan = EXPERIMENTS[experiment]
    output = _field(config, "output", dict, {})
    default_dir = _field(output, "output.dir", str, ".")
    formats = output.get("formats", FORMATS)
    if not isinstance(formats, (list, tuple)) or any(f not in FORMATS for f in formats):
        raise ConfigError(f"output.formats={formats!r} may list only {', '.join(FORMATS)}")
    # Each entry is read as a float field, so a bool or a string is refused;
    # adding 0.0 turns -0.0 into 0.0, so the two share one J and one stem.
    j_list = [_field({"J_list": j}, "J_list", float) + 0.0
              for j in _field(config, "J_list", list)]
    if not j_list or not all(0.0 <= j < np.inf for j in j_list):
        raise ConfigError(f"J_list={j_list!r} must be a nonempty list of finite J >= 0")
    stems = [f"{j:g}" for j in j_list]
    shared = [stem for k, stem in enumerate(stems) if stem in stems[:k]]
    if shared:
        raise ConfigError(f"J_list={j_list!r} gives two entries the file stem J{shared[0]}")
    spectra, t, ensemble, op_rng = [], None, None, None
    if ensembles:
        noise = _field(config, "noise", dict, {})
        ensemble = noise.get("ensemble", "gue")
        if ensemble not in ensembles:
            raise ConfigError(
                f"noise.ensemble={ensemble!r} is not supported by {experiment} "
                f"(supported: {', '.join(ensembles)})"
            )
        profile = _field(noise, "noise.profile", dict, {})
        if profile.get("type", "const") != "const":
            raise ConfigError(
                f"noise.profile.type={profile['type']!r} is not supported by {experiment}: "
                "J comes from J_list with the constant profile"
            )
        if "J" in profile and _field(profile, "noise.profile.J", float) not in j_list:
            raise ConfigError(
                f"noise.profile.J={profile['J']!r} is not in J_list={config['J_list']!r}, "
                "which sets J"
            )
        spectrum = _field(config, "spectrum", dict, {})
        n_real = _field(spectrum, "spectrum.n_realizations", int, 1, minimum=1)
        if n_real > 1 and not averages:
            raise ConfigError(
                f"spectrum.n_realizations={n_real} is not supported by {experiment}, "
                "which evaluates one spectrum"
            )
        spectra = sample_spectra(spectrum, seed, n_real)
        t = time_grid(_field(config, "t_grid", dict, {}))
        op_seed = _field(config, "operator_seed", int, 7, minimum=0)
        op_rng = np.random.default_rng(np.random.SeedSequence(op_seed))
    chash = config_hash(config)
    summary: dict = {"experiment": experiment, "config_hash": chash, "files": [], "comparisons": []}
    # Every series is computed before the first file is written, so a run
    # that fails leaves nothing behind.  The two-replica channel U2 refuses
    # D < 3 before any scan that needs it simulates or writes.
    inputs = Inputs(config, j_list, spectra, t, ensemble, op_rng, threads, summary)
    try:
        computed = list(scan(inputs))
    except UnsupportedDimensionError:
        d, spectrum = spectra[0].dim, config["spectrum"]
        setting = (f"spectrum.file={spectrum['file']!r} holds D={d}" if "file" in spectrum
                   else f"spectrum.dim={d}")
        raise ConfigError(
            f"{setting}; {experiment} needs D >= 3 for the two-replica channel"
        ) from None
    out = Path(default_dir if out_dir is None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stem, series in computed:
        series.metadata["config_hash"] = chash
        for fmt in FORMATS:
            if fmt in formats:
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
