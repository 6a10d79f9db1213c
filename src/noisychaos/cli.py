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
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import diagnostics as diag
from . import krylov
from .channel_two import otoc as otoc_closed
from .channel_two import sff_squared_mean, sff_variance
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


def _require(config: dict, key: str, where: str):
    if key not in config:
        raise ConfigError(f"missing field {where}.{key}")
    return config[key]


def _field(config: dict, path: str, kind: type, default=None):
    """The value at the last key of the dotted ``path`` (``default`` when
    absent), refused with a ConfigError naming ``path`` unless a ``kind``."""
    value = config.get(path.rpartition(".")[2], default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{path}={value!r} must be a {kind.__name__}")
    return value


def check_supported(experiment: str, config: dict) -> None:
    """Refuse a noise or spectrum setting the experiment would not honour."""
    ensembles, averages, _ = EXPERIMENTS[experiment]
    noise = _field(config, "noise", dict, {})
    ensemble = noise.get("ensemble", "gue")
    if ensemble not in ensembles:
        raise ConfigError(
            f"noise.ensemble={ensemble!r} is not supported by {experiment} "
            f"(supported: {', '.join(ensembles)})"
        )
    profile = _field(noise, "noise.profile", dict, {}).get("type", "const")
    if profile != "const":
        raise ConfigError(
            f"noise.profile.type={profile!r} is not supported by {experiment}: "
            "J comes from J_list with the constant profile"
        )
    spectrum = _field(config, "spectrum", dict, {})
    n_real = _field(spectrum, "spectrum.n_realizations", int, 1)
    if n_real < 1:
        raise ConfigError(f"spectrum.n_realizations={n_real} must be at least 1")
    if n_real > 1 and not averages:
        raise ConfigError(
            f"spectrum.n_realizations={n_real} is not supported by {experiment}, "
            "which evaluates one spectrum"
        )
    if n_real > 1 and "file" in spectrum:
        raise ConfigError(f"spectrum.n_realizations={n_real} needs sampled, not file, spectra")


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]


def time_grid(config: dict) -> np.ndarray:
    t_min = float(_require(config, "t_min", "t_grid"))
    t_max = float(_require(config, "t_max", "t_grid"))
    n = int(_require(config, "n_points", "t_grid"))
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


def sample_spectra(config: dict, seed_override: int | None) -> list[Spectrum]:
    if "file" in config:
        path = Path(config["file"])
        if not path.exists():
            raise ConfigError(f"spectrum.file {path} does not exist")
        return [Spectrum.load(path)]
    kind = _require(config, "sample", "spectrum")
    dim = int(_require(config, "dim", "spectrum"))
    n_real = int(config.get("n_realizations", 1))
    seed = int(config.get("seed", 0)) if seed_override is None else seed_override
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
        yield _realization_mean(inp, stem, lambda s: sff(s, j, inp.t).values)


def two_point_scan(inp: Inputs):
    o = random_traceless_hermitian(inp.spectra[0].dim, inp.op_rng)
    two_point = getattr(diag, f"two_point_{inp.ensemble}_const")
    for j in inp.j_list:
        stem = f"two_point_J{j:g}"
        yield _realization_mean(inp, stem, lambda s: two_point(s, j, o, inp.t).values)


def otoc_scan(inp: Inputs):
    a = random_traceless_hermitian(inp.spectra[0].dim, inp.op_rng)
    b = random_traceless_hermitian(inp.spectra[0].dim, inp.op_rng)
    for j in inp.j_list:
        yield _realization_mean(inp, f"otoc_J{j:g}", lambda s: otoc_closed(s, j, inp.t, a, b))


def transfer_scan(inp: Inputs):
    spec = inp.spectra[0]
    i = _field(inp.config, "state_i", int, 0)
    k = _field(inp.config, "state_j", int, min(1, spec.dim - 1))
    if not (0 <= i < spec.dim and 0 <= k < spec.dim):
        raise ConfigError(f"state_i={i} and state_j={k} must lie in [0, {spec.dim})")
    for j in inp.j_list:
        model = NoiseModel(Ensemble(inp.ensemble), ConstantOverD(j), spec.dim)
        yield f"transfer_J{j:g}", diag.transfer_probability(spec, model, i, k, inp.t)


def return_scan(inp: Inputs):
    for j in inp.j_list:
        yield f"return_J{j:g}", diag.return_probability(inp.spectra[0], j, None, inp.t)


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
    alpha = float(lz.get("alpha", 1.0))
    n_max = int(lz.get("n_max", 30))
    ratio = float(lz.get("trace_ratio", 1.0))
    # The recursion is exact, so it meets any precision a config asks for.
    mu = krylov.sech_moments(n_max, alpha=alpha)
    n = np.arange(1, n_max + 1, dtype=float)
    for j in inp.j_list:
        b_signed = krylov.signed_lanczos_noisy(mu, j, ratio, n_max)
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
    cfg = TrajectoryConfig(
        dt=float(_require(mc_cfg, "dt", "montecarlo")),
        t_max=float(_require(mc_cfg, "t_max", "montecarlo")),
        n_traj=int(_require(mc_cfg, "n_traj", "montecarlo")),
        seed=int(_require(mc_cfg, "seed", "montecarlo")),
    )
    spec, t, gue = inp.spectra[0], inp.t, inp.ensemble == "gue"
    sff = getattr(diag, f"sff_{inp.ensemble}_const")
    two_point = getattr(diag, f"two_point_{inp.ensemble}_const")
    state_j = min(1, spec.dim - 1)
    o = random_traceless_hermitian(spec.dim, inp.op_rng)
    inp.summary["mc_health"] = []
    for j in inp.j_list:
        model = NoiseModel(Ensemble(inp.ensemble), ConstantOverD(j), spec.dim)
        # key -> (observable, analytic values); one simulation serves them all.
        cases = {
            "sff": (sff_observable(), sff(spec, j, t).values),
            "two_point": (two_point_observable(o), two_point(spec, j, o, t).values),
            "transfer": (
                transfer_observable(0, state_j),
                diag.transfer_probability(spec, model, 0, state_j, t).values,
            ),
        }
        if gue and spec.dim >= 3:
            cases["sff_squared"] = (sff_squared_observable(), sff_squared_mean(spec, j, t))
        if gue and inp.config.get("compare_otoc", False):
            a = random_traceless_hermitian(spec.dim, inp.op_rng)
            b = random_traceless_hermitian(spec.dim, inp.op_rng)
            cases["otoc"] = (otoc_observable(a, b), otoc_closed(spec, j, t, a, b))
        mc = estimate_observables(
            spec, model, cfg, t, {key: obs for key, (obs, _) in cases.items()}, inp.threads
        )
        for key, (_, analytic) in cases.items():
            yield f"mc_{key}_J{j:g}", mc.series[key]
            _compare(f"{key}_J{j:g}", analytic, mc.series[key], inp.summary)
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
    experiment = str(_require(config, "experiment", "config")).lower()
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config['experiment']!r}")
    ensembles, _, scan = EXPERIMENTS[experiment]
    output = _field(config, "output", dict, {})
    formats = output.get("formats", FORMATS)
    if not isinstance(formats, (list, tuple)) or any(f not in FORMATS for f in formats):
        raise ConfigError(f"output.formats={formats!r} may list only {', '.join(FORMATS)}")
    j_list = _field(config, "J_list", list)
    if not j_list or not all(isinstance(j, (int, float)) and 0.0 <= j < np.inf for j in j_list):
        raise ConfigError(f"J_list={j_list!r} must be a nonempty list of finite J >= 0")
    j_list = [float(j) for j in j_list]
    spectra, t, ensemble, op_rng = [], None, None, None
    if ensembles:
        check_supported(experiment, config)
        spectra = sample_spectra(_field(config, "spectrum", dict, {}), seed)
        t = time_grid(_field(config, "t_grid", dict, {}))
        ensemble = _field(config, "noise", dict, {}).get("ensemble", "gue")
        op_rng = np.random.default_rng(np.random.SeedSequence(int(config.get("operator_seed", 7))))
    chash = config_hash(config)
    summary: dict = {"experiment": experiment, "config_hash": chash, "files": [], "comparisons": []}
    out = Path(out_dir) if out_dir is not None else Path(output.get("dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(config, j_list, spectra, t, ensemble, op_rng, threads, summary)
    for stem, series in scan(inputs):
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
    except (ConfigError, ValueError, OSError, krylov.LanczosBreakdownError,
            UnitarityError) as exc:
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
