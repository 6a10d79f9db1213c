"""Experiment runner: parse a JSON config, execute analytic and/or Monte
Carlo pipelines, write series artifacts and a summary with any oracle
comparisons.

Exit codes: 0 success, 1 config/IO error or a numerical failure (Lanczos
breakdown, unitarity drift), 2 oracle-comparison failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

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
from .noise import NoiseModel, model_from_config
from .spectra import Spectrum, sample_goe_spectrum, sample_gue_spectrum


class ConfigError(ValueError):
    """Invalid experiment config; message carries the offending field path."""


# experiment -> (noise ensembles it computes, whether it averages over
# spectrum.n_realizations).  Every experiment but lanczos_scan, which reads
# neither noise nor spectrum, takes J from J_list with the constant profile.
EXPERIMENTS = {
    "sff_scan": (("gue", "goe"), True),
    "two_point_scan": (("gue", "goe"), True),
    "lanczos_scan": ((), False),
    "otoc_scan": (("gue",), True),
    "transfer_scan": (("gue", "goe"), False),
    "return_scan": (("gue",), False),
    "sff_variance_scan": (("gue",), False),
    "oracle_compare": (("gue", "goe"), False),
}


def _require(config: dict, key: str, where: str):
    if key not in config:
        raise ConfigError(f"missing field {where}.{key}")
    return config[key]


def check_supported(experiment: str, config: dict) -> None:
    """Refuse a noise or spectrum setting the experiment would not honour."""
    ensembles, averages = EXPERIMENTS[experiment]
    noise = config.get("noise", {})
    ensemble = noise.get("ensemble", "gue")
    if ensemble not in ensembles:
        raise ConfigError(
            f"noise.ensemble={ensemble!r} is not supported by {experiment} "
            f"(supported: {', '.join(ensembles)})"
        )
    profile = noise.get("profile", {}).get("type", "const")
    if profile != "const":
        raise ConfigError(
            f"noise.profile.type={profile!r} is not supported by {experiment}: "
            "J comes from J_list with the constant profile"
        )
    n_real = int(config.get("spectrum", {}).get("n_realizations", 1))
    if n_real > 1 and not averages:
        raise ConfigError(
            f"spectrum.n_realizations={n_real} is not supported by {experiment}, "
            "which evaluates one spectrum"
        )


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


def _write(series: diag.DiagnosticSeries, out_dir: Path, stem: str, formats) -> list[str]:
    written = []
    if "csv" in formats:
        path = out_dir / f"{stem}.csv"
        series.write_csv(path)
        written.append(path.name)
    if "json" in formats:
        path = out_dir / f"{stem}.json"
        series.write_json(path)
        written.append(path.name)
    return written


def run(config: dict, out_dir: Path | None = None, threads: int = 1,
        seed: int | None = None) -> dict:
    """Execute one experiment config; returns the summary dict."""
    experiment = str(_require(config, "experiment", "config")).lower()
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config['experiment']!r}")
    output = config.get("output", {})
    out = Path(out_dir) if out_dir is not None else Path(output.get("dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    formats = output.get("formats", ["csv", "json"])
    j_list = [float(j) for j in _require(config, "J_list", "config")]
    if not j_list:
        raise ConfigError("J_list must be nonempty")
    chash = config_hash(config)

    summary: dict = {
        "experiment": experiment,
        "config_hash": chash,
        "files": [],
        "comparisons": [],
    }

    if experiment == "lanczos_scan":
        _run_lanczos(config, j_list, out, formats, summary)
    else:
        check_supported(experiment, config)
        spectra = sample_spectra(_require(config, "spectrum", "config"), seed)
        dim = spectra[0].dim
        t = time_grid(_require(config, "t_grid", "config"))
        noise_cfg = config.get("noise", {"ensemble": "gue", "profile": {"type": "const", "J": 0.0}})
        ensemble = noise_cfg.get("ensemble", "gue")  # check_supported has validated it
        op_rng = np.random.default_rng(np.random.SeedSequence(int(config.get("operator_seed", 7))))

        # Closed forms are looked up on diagnostics when called, where
        # bench/tracer.py wraps them.
        if experiment == "sff_scan":
            sff = getattr(diag, f"sff_{ensemble}_const")
            for j in j_list:
                stem = f"sff_{ensemble}_J{j:g}"
                series = _ensemble_mean(spectra, lambda s: sff(s, j, t).values, stem, t, chash)
                summary["files"] += _write(series, out, stem, formats)
        elif experiment == "two_point_scan":
            o = random_traceless_hermitian(dim, op_rng)
            two_point = getattr(diag, f"two_point_{ensemble}_const")
            for j in j_list:
                series = _ensemble_mean(
                    spectra,
                    lambda s: two_point(s, j, o, t).values,
                    f"two_point_J{j:g}", t, chash,
                )
                summary["files"] += _write(series, out, f"two_point_J{j:g}", formats)
        elif experiment == "otoc_scan":
            a = random_traceless_hermitian(dim, op_rng)
            b = random_traceless_hermitian(dim, op_rng)
            for j in j_list:
                series = _ensemble_mean(
                    spectra,
                    lambda s: otoc_closed(s, j, t, a, b),
                    f"otoc_J{j:g}", t, chash,
                )
                summary["files"] += _write(series, out, f"otoc_J{j:g}", formats)
        elif experiment == "transfer_scan":
            i = int(config.get("state_i", 0))
            jj = int(config.get("state_j", min(1, dim - 1)))
            for j in j_list:
                model = model_from_config({**noise_cfg, "profile": {"type": "const", "J": j}}, dim)
                series = diag.transfer_probability(spectra[0], model, i, jj, t)
                series.metadata["config_hash"] = chash
                summary["files"] += _write(series, out, f"transfer_J{j:g}", formats)
        elif experiment == "return_scan":
            for j in j_list:
                series = diag.return_probability(spectra[0], j, None, t)
                series.metadata["config_hash"] = chash
                summary["files"] += _write(series, out, f"return_J{j:g}", formats)
        elif experiment == "sff_variance_scan":
            for j in j_list:
                moments = sff_variance(spectra[0], j, t)
                for stem, values in (("sff_squared", moments.second_moment),
                                     ("sff_variance", moments.variance)):
                    series = diag.DiagnosticSeries(
                        f"{stem}_J{j:g}", t, values,
                        metadata={"config_hash": chash, "dim": dim, "J": j},
                    )
                    summary["files"] += _write(series, out, f"{stem}_J{j:g}", formats)
        elif experiment == "oracle_compare":
            _run_oracle_compare(
                config, spectra[0], ensemble, j_list, t, out, formats,
                chash, threads, summary, op_rng,
            )

    summary["pass"] = all(c["pass"] for c in summary["comparisons"]) if summary["comparisons"] else True
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return summary


def _ensemble_mean(spectra, fn, name, t, chash):
    values = np.mean([fn(s) for s in spectra], axis=0)
    return diag.DiagnosticSeries(
        name, t, values,
        metadata={"config_hash": chash, "n_realizations": len(spectra)},
    )


def _run_lanczos(config, j_list, out, formats, summary):
    lz = config.get("lanczos", {})
    alpha = float(lz.get("alpha", 1.0))
    n_max = int(lz.get("n_max", 30))
    ratio = float(lz.get("trace_ratio", 1.0))
    # The recursion is exact, so it meets any precision a config asks for.
    mu = krylov.sech_moments(n_max, alpha=alpha)
    chash = config_hash(config)
    for j in j_list:
        result = krylov.signed_lanczos_noisy(mu, j, ratio, n_max)
        n = np.arange(1, n_max + 1, dtype=float)
        series = diag.DiagnosticSeries(
            f"signed_bn_J{j:g}", n, result.b_signed,
            metadata={"config_hash": chash, "J": j, "alpha": alpha},
        )
        summary["files"] += _write(series, out, f"lanczos_J{j:g}", formats)


def _compare(name, analytic, mc, summary):
    err = np.abs(np.asarray(analytic) - mc.values)
    stderr = np.where(mc.stderr > 0, mc.stderr, np.inf)
    sigma = float(np.max(err / stderr))
    ok = bool(sigma <= 3.0) and bool(np.all(err[mc.stderr == 0] < 1e-10))
    summary["comparisons"].append({"name": name, "max_sigma": sigma, "pass": ok})


def _run_oracle_compare(config, spec, ensemble, j_list, t, out, formats,
                        chash, threads, summary, op_rng):
    mc_cfg = _require(config, "montecarlo", "config")
    cfg = TrajectoryConfig(
        dt=float(_require(mc_cfg, "dt", "montecarlo")),
        t_max=float(_require(mc_cfg, "t_max", "montecarlo")),
        n_traj=int(_require(mc_cfg, "n_traj", "montecarlo")),
        seed=int(_require(mc_cfg, "seed", "montecarlo")),
    )
    dim = spec.dim
    sff = getattr(diag, f"sff_{ensemble}_const")
    two_point = getattr(diag, f"two_point_{ensemble}_const")
    state_j = min(1, dim - 1)
    o = random_traceless_hermitian(dim, op_rng)
    summary["mc_health"] = []
    for j in j_list:
        model = model_from_config(
            {"ensemble": ensemble, "profile": {"type": "const", "J": j}}, dim
        )
        # key -> (observable, analytic values); one simulation serves them all.
        cases = {
            "sff": (sff_observable(), sff(spec, j, t).values),
            "two_point": (two_point_observable(o), two_point(spec, j, o, t).values),
            "transfer": (
                transfer_observable(0, state_j),
                diag.transfer_probability(spec, model, 0, state_j, t).values,
            ),
        }
        if ensemble == "gue" and dim >= 3:
            cases["sff_squared"] = (
                sff_squared_observable(),
                sff_squared_mean(spec, j, t),
            )
        if ensemble == "gue" and config.get("compare_otoc", False):
            a = random_traceless_hermitian(dim, op_rng)
            b = random_traceless_hermitian(dim, op_rng)
            cases["otoc"] = (
                otoc_observable(a, b),
                otoc_closed(spec, j, t, a, b),
            )
        mc = estimate_observables(
            spec, model, cfg, t, {key: obs for key, (obs, _) in cases.items()}, threads
        )
        for key, (_, analytic) in cases.items():
            summary["files"] += _write(mc.series[key], out, f"mc_{key}_J{j:g}", formats)
            _compare(f"{key}_J{j:g}", analytic, mc.series[key], summary)
        summary["mc_health"].append({
            "J": j,
            "max_unitarity_drift": mc.max_drift,
            "step_margin": step_margin(model, cfg.dt),
        })


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
